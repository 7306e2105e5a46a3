//! The sparse simulation tier, end to end (ISSUE 6's headline):
//!
//! 1. **Differential suite** — the hash-map [`SparseState`] engine is
//!    property-tested against both dense engines (the fast one-state
//!    [`StateBatch`] and the retained `naive` oracle) on random gate
//!    programs over the full mapped-QFT gate set at n = 4..=12:
//!    elementwise amplitudes after canonical resolution, norm
//!    preservation, inverse round-trips, and lazy-SWAP / fused
//!    CPHASE+SWAP relabeling.
//! 2. **Large-n cross-compiler matrix** — every compiler × AQFT degree
//!    cell at n = 24–36 is proven equivalent to the closed-form AQFT
//!    matrix elements on the sparse tier (logical stream *and* full
//!    physical replay), with the peak amplitude-map occupancy pinned to
//!    the documented `2 × |ket|` sparsity bound.
//! 3. **Routing** — the engine-selection layer sends small kernels to the
//!    dense planes, large QFT kernels to the sparse tier, and reports a
//!    descriptive error when no tier fits.

mod common;

use common::{check_sparse_cell, N_RANDOM_PAIRS, SPARSE_PEAK_BOUND};
use proptest::prelude::*;
use qft_kernels::ir::gate::{Gate, GateKind, LogicalQubit};
use qft_kernels::sim::equiv::{
    mapped_equals_aqft_auto, plan_tier, EngineTier, ReferenceChecker, SparseChecker,
};
use qft_kernels::sim::error::SimError;
use qft_kernels::sim::naive::NaiveStateVector;
use qft_kernels::sim::sparse::SparseState;
use qft_kernels::sim::{StateBatch, StateVector};
use qft_kernels::{registry, CompileOptions, Target};

const EPS: f64 = 1e-9;

/// Decodes a sampled `(kind, q1, q2, k)` tuple into a valid gate on `n`
/// qubits (same decode as the dense differential suite in `sim.rs`).
fn decode_gate(n: usize, kind: usize, q1: usize, q2: usize, k: u32) -> Gate {
    let a = (q1 % n) as u32;
    let b = ((q1 + 1 + q2 % (n - 1)) % n) as u32;
    match kind % 7 {
        0 => Gate::h(a),
        1 => Gate::one(GateKind::X, LogicalQubit(a)),
        2 => Gate::rz(k, a),
        3 => Gate::cphase(k, a, b),
        4 => Gate::swap(a, b),
        5 => Gate::two(GateKind::CphaseSwap { k }, LogicalQubit(a), LogicalQubit(b)),
        _ => Gate::cnot(a, b),
    }
}

/// Element-wise comparison of the sparse engine (canonical resolution of
/// its lazy layout) against the naive dense oracle.
fn assert_sparse_same_state(sparse: &SparseState, oracle: &NaiveStateVector, ctx: &str) {
    let dense = sparse
        .to_state_vector()
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    assert_eq!(dense.amplitudes().len(), oracle.amplitudes().len(), "{ctx}");
    for (i, (a, b)) in dense
        .amplitudes()
        .iter()
        .zip(oracle.amplitudes())
        .enumerate()
    {
        assert!(
            (a.re - b.re).abs() < EPS && (a.im - b.im).abs() < EPS,
            "{ctx}: amplitude {i} diverges (sparse {a:?}, naive {b:?})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random gate programs over the full gate set act identically in the
    /// sparse, fast, and naive engines (three-way differential), and the
    /// sparse norm survives branching + pruning.
    #[test]
    fn sparse_matches_fast_and_naive_on_random_programs(
        n in 4usize..13,
        seed in 0u64..1000,
        prog in collection::vec((0usize..7, 0usize..16, 0usize..16, 1u32..45), 1..24),
    ) {
        let fast_input = StateVector::random(n, seed);
        let mut sparse = SparseState::from_state(&fast_input);
        let mut fast = StateBatch::from_states(std::slice::from_ref(&fast_input));
        let mut oracle = NaiveStateVector::from_state(&fast_input);
        for &(kind, q1, q2, k) in &prog {
            let g = decode_gate(n, kind, q1, q2, k);
            sparse.apply_gate(&g);
            fast.apply_gate(&g);
            oracle.apply_gate(&g);
        }
        assert_sparse_same_state(&sparse, &oracle, "sparse vs naive");
        // And sparse vs fast, through the dense engine's own resolution.
        let sparse_dense = sparse.to_state_vector().unwrap();
        prop_assert!((sparse_dense.fidelity(&fast.to_states()[0]) - 1.0).abs() < EPS);
        prop_assert!((sparse.norm2() - 1.0).abs() < EPS, "norm drifted");
    }

    /// Applying a program then its inverse in reverse order restores the
    /// input exactly (through lazy swaps, fused gates, and H pruning).
    #[test]
    fn sparse_inverse_round_trip_is_identity(
        n in 4usize..13,
        seed in 0u64..1000,
        prog in collection::vec((0usize..7, 0usize..16, 0usize..16, 1u32..45), 1..20),
    ) {
        let orig = SparseState::from_state(&StateVector::random(n, seed));
        let mut s = orig.clone();
        let gates: Vec<Gate> = prog
            .iter()
            .map(|&(kind, q1, q2, k)| decode_gate(n, kind, q1, q2, k))
            .collect();
        for g in &gates {
            s.apply_gate(g);
        }
        for g in gates.iter().rev() {
            s.apply_gate_inverse(g);
        }
        prop_assert!((s.fidelity(&orig) - 1.0).abs() < EPS);
    }

    /// SWAP-heavy programs (lazy relabels, fused CPHASE+SWAP, diagonal
    /// phases) resolve to the same canonical amplitudes as the eager
    /// naive engine — the relabeling bookkeeping is exact.
    #[test]
    fn sparse_lazy_relabeling_matches_eager_swaps(
        n in 4usize..13,
        seed in 0u64..1000,
        prog in collection::vec((3usize..6, 0usize..16, 0usize..16, 1u32..20), 1..24),
    ) {
        // kinds 3..6: CPHASE, SWAP, fused CPHASE+SWAP only.
        let input = StateVector::random(n, seed);
        let mut sparse = SparseState::from_state(&input);
        let mut oracle = NaiveStateVector::from_state(&input);
        for &(kind, q1, q2, k) in &prog {
            let g = decode_gate(n, kind, q1, q2, k);
            sparse.apply_gate(&g);
            oracle.apply_gate(&g);
        }
        assert_sparse_same_state(&sparse, &oracle, "relabeling");
        // Diagonal + permutation gates never grow a sparse basis state's
        // support: starting dense (2^n) it must stay exactly 2^n.
        prop_assert_eq!(sparse.peak_nonzeros(), 1usize << n);
    }

    /// The sparse and dense checkers agree on compiled kernels across the
    /// overlapping sizes (and both reject a wrong-degree claim).
    #[test]
    fn sparse_checker_agrees_with_dense_checker(
        n in 4usize..13,
        compiler_idx in 0usize..3,
    ) {
        let compiler = ["lnn", "sabre", "lnn-path"][compiler_idx];
        let target = Target::lnn(n).unwrap();
        let r = registry()
            .compile(compiler, &target, &CompileOptions::default().with_approximation(3))
            .unwrap();
        let mut dense = ReferenceChecker::new(
            &qft_kernels::ir::qft::aqft_circuit(n, 3),
            qft_kernels::sim::equiv::probe_states(n, 3),
        );
        let mut sparse = SparseChecker::for_aqft(n, 3, N_RANDOM_PAIRS).unwrap();
        prop_assert!(dense.matches_logical(&r.circuit));
        prop_assert!(sparse.matches_logical(&r.circuit).unwrap());
        prop_assert!(dense.matches_physically(&r.circuit));
        prop_assert!(sparse.matches_physically(&r.circuit).unwrap());
        // Neither checker mistakes the truncated kernel for the exact QFT.
        let mut dense_exact = ReferenceChecker::for_qft(n, 3);
        let mut sparse_exact = SparseChecker::for_qft(n, N_RANDOM_PAIRS).unwrap();
        prop_assert!(!dense_exact.matches_logical(&r.circuit));
        prop_assert!(!sparse_exact.matches_logical(&r.circuit).unwrap());
    }
}

/// The large-n cross-compiler cells: the LNN-family compilers (including
/// the deadline-bounded exact search) at n ∈ {24, 28, 32}, and the other
/// device families at their nearest feasible sizes (sycamore tiles square
/// even grids, heavy-hex grows in 5-qubit groups, lattice surgery tiles
/// squares).
fn sparse_matrix() -> Vec<(&'static str, Target)> {
    let mut cells: Vec<(&'static str, Target)> = Vec::new();
    for n in [24, 28, 32] {
        cells.push(("lnn", Target::lnn(n).unwrap()));
        cells.push(("sabre", Target::lnn(n).unwrap()));
        cells.push(("lnn-path", Target::lnn(n).unwrap()));
        cells.push(("optimal", Target::lnn(n).unwrap()));
    }
    cells.push(("sycamore", Target::sycamore(6).unwrap())); // 36 qubits
    cells.push(("heavyhex", Target::heavy_hex_groups(5).unwrap())); // 25
    cells.push(("heavyhex", Target::heavy_hex_groups(6).unwrap())); // 30
    cells.push(("lattice", Target::lattice_surgery(5).unwrap())); // 25
    cells.push(("sabre", Target::heavy_hex_groups(5).unwrap()));
    cells.push(("sabre", Target::lattice_surgery(5).unwrap()));
    cells
}

/// Degrees per cell: shallow truncations plus the exact QFT. The exact
/// A*-search `optimal` compiler runs at degree 2 only — degree-2 AQFT on
/// a line needs zero SWAPs, so the search closes instantly at any n,
/// while deeper degrees at n = 24+ would blow its node budget.
fn sparse_degrees(compiler: &str, n: usize) -> Vec<u32> {
    if compiler == "optimal" {
        vec![2]
    } else {
        vec![2, 3, n as u32]
    }
}

#[test]
fn large_n_cross_compiler_matrix_passes_on_sparse_tier() {
    let mut checked = 0;
    for (compiler, target) in sparse_matrix() {
        for degree in sparse_degrees(compiler, target.n_qubits()) {
            check_sparse_cell(compiler, &target, degree, CompileOptions::default());
            checked += 1;
        }
    }
    // 12 LNN-family cells (3 degrees × 3 lnn + 3 optimal@2 per n... ) plus
    // 6 other-family cells × 3 degrees: keep the matrix from shrinking.
    assert!(checked >= 36, "matrix shrank: only {checked} cells");
}

#[test]
fn sparse_peak_occupancy_stays_polynomial_at_n_32() {
    // The sparsity invariant, measured (not just asserted as a cap): a
    // full physical-replay equivalence check of a compiled n=32 kernel
    // never holds more than 2·|ket| amplitudes — independent of n.
    for compiler in ["lnn", "sabre"] {
        let r = registry()
            .compile(
                compiler,
                &Target::lnn(32).unwrap(),
                &CompileOptions::default(),
            )
            .unwrap();
        let mut checker = SparseChecker::for_qft(32, N_RANDOM_PAIRS).unwrap();
        assert!(checker.matches_physically(&r.circuit).unwrap());
        assert!(
            checker.peak_nonzeros() <= SPARSE_PEAK_BOUND,
            "{compiler}: peak {}",
            checker.peak_nonzeros()
        );
    }
}

#[test]
fn aggressive_fusion_survives_sparse_verification_at_large_n() {
    // opt_level = 2 fuses CPHASEs into CphaseSwap after truncation; the
    // sparse tier's fused diagonal fast path must still verify them.
    for (compiler, target) in [
        ("lnn", Target::lnn(28).unwrap()),
        ("sycamore", Target::sycamore(6).unwrap()),
        ("lattice", Target::lattice_surgery(5).unwrap()),
    ] {
        let r = check_sparse_cell(
            compiler,
            &target,
            3,
            CompileOptions::default().with_opt_level(2),
        );
        assert!(
            r.passes.iter().any(|p| p.pass == "merge-swap-cphase"),
            "{compiler}: fusion must run at opt_level 2"
        );
    }
}

#[test]
fn router_selects_tiers_by_size_and_falls_through_descriptively() {
    // Small kernel → dense planes.
    let small = registry()
        .compile("lnn", &Target::lnn(6).unwrap(), &CompileOptions::default())
        .unwrap();
    assert_eq!(plan_tier(&small.circuit, 6).unwrap(), EngineTier::Dense);
    // Large compiled QFT kernel → sparse tier, and the auto checker
    // verifies it there.
    let large = registry()
        .compile(
            "sabre",
            &Target::lnn(28).unwrap(),
            &CompileOptions::default(),
        )
        .unwrap();
    assert_eq!(plan_tier(&large.circuit, 6).unwrap(), EngineTier::Sparse);
    assert!(mapped_equals_aqft_auto(&large.circuit, 28, 4).unwrap());
    assert!(!mapped_equals_aqft_auto(&large.circuit, 2, 4).unwrap());
}

#[test]
fn dense_engines_refuse_oversized_registers_descriptively() {
    // The old behavior was an unconditional 2^n allocation (an OOM at
    // n = 40); now it is a descriptive refusal naming both the cap and
    // the sparse alternative.
    let err = StateVector::try_zero(40).unwrap_err();
    assert!(matches!(err, SimError::RegisterTooLarge { n: 40, .. }));
    let msg = err.to_string();
    assert!(msg.contains("40 qubits"), "{msg}");
    assert!(msg.contains("sparse"), "{msg}");
    // The sparse engine takes that width without blinking.
    let s = SparseState::try_zero(40).unwrap();
    assert_eq!(s.nonzeros(), 1);
    // ... and itself refuses past the u64 key ceiling.
    assert!(matches!(
        SparseState::try_zero(64),
        Err(SimError::SparseWidthExceeded { n: 64 })
    ));
}
