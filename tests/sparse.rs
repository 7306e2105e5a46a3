//! The sparse simulation tier, end to end:
//!
//! 1. **Differential suite** — the projected matrix-element evaluator
//!    every sparse check runs (`qft_sim::sparse::logical_amplitude`) is
//!    property-tested against both dense engines (a one-state
//!    [`StateBatch`] and the retained `naive` oracle) on random gate
//!    programs over the full mapped-QFT gate set at n = 4..=12: each
//!    matrix element `⟨y|C|ψ⟩` for a random 1–6-term ket and a dense random
//!    ket, over every bra up to n = 10 and a sampled set above, and the
//!    lazy-SWAP / fused CPHASE+SWAP relabeling on its own.
//! 2. **Large-n cross-compiler matrix** — every compiler × AQFT degree
//!    cell at n = 24–36 is proven equivalent to the closed-form AQFT
//!    matrix elements on the sparse tier (logical stream *and* full
//!    physical replay), with the peak amplitude-map occupancy pinned to
//!    the documented `2 × |ket|` sparsity bound.
//! 3. **Routing** — the engine-selection layer sends small kernels to the
//!    dense planes, large QFT kernels to the sparse tier, and reports a
//!    descriptive error when no tier fits.

mod common;

use common::{check_sparse_cell, N_RANDOM_PAIRS};
use proptest::prelude::*;
use qft_kernels::ir::gate::{Gate, GateKind, LogicalQubit};
use qft_kernels::ir::qft::qft_circuit;
use qft_kernels::sim::equiv::{
    mapped_equals_aqft_auto, plan_tier, EngineTier, ReferenceChecker, SparseChecker,
};
use qft_kernels::sim::error::SimError;
use qft_kernels::sim::naive::NaiveStateVector;
use qft_kernels::sim::sparse::{logical_amplitude, SparseProbe, PEAK_BOUND};
use qft_kernels::sim::{Complex64, StateBatch, StateVector, SPARSE_DENSITY_CAP};
use qft_kernels::{registry, CompileOptions, Target};

const EPS: f64 = 1e-9;

/// Registers up to this width have every bra checked; wider ones check
/// [`SAMPLED_BRAS`] sampled bras.
const ALL_BRAS_MAX_N: usize = 10;

/// Bras checked per ket above [`ALL_BRAS_MAX_N`].
const SAMPLED_BRAS: usize = 64;

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

/// The bras a case checks: every basis index up to [`ALL_BRAS_MAX_N`]
/// qubits, the sampled indices (masked to the register) above.
fn bras(n: usize, sample: &[u64]) -> Vec<u64> {
    if n <= ALL_BRAS_MAX_N {
        (0..1u64 << n).collect()
    } else {
        sample.iter().map(|&y| y & ((1u64 << n) - 1)).collect()
    }
}

/// The dense random ket `StateVector::random(n, seed)` as sparse terms.
fn dense_ket(n: usize, seed: u64) -> Vec<(u64, Complex64)> {
    StateVector::random(n, seed)
        .amplitudes()
        .iter()
        .enumerate()
        .map(|(x, &a)| (x as u64, a))
        .collect()
}

/// Compares the evaluator's `⟨y|C|ψ⟩` for every bra `y` in `bras` with
/// the same element of `C|ψ⟩` from the naive oracle and from a one-state
/// [`StateBatch`]; returns the evaluator's largest peak occupancy.
fn assert_matrix_elements(
    n: usize,
    gates: &[Gate],
    ket: Vec<(u64, Complex64)>,
    bras: &[u64],
    ctx: &str,
) -> Result<usize, TestCaseError> {
    let mut amps = vec![Complex64::ZERO; 1 << n];
    for &(x, a) in &ket {
        amps[x as usize] += a;
    }
    let input = StateVector::from_amplitudes(n, amps);
    let mut fast = StateBatch::from_states(std::slice::from_ref(&input));
    let mut oracle = NaiveStateVector::from_state(&input);
    for g in gates {
        fast.apply_gate(g);
        oracle.apply_gate(g);
    }
    let fast = fast.to_states().remove(0);
    let mut probe = SparseProbe { n, ket, bra: 0 };
    let mut peak = 0;
    for &y in bras {
        probe.bra = y;
        let run = logical_amplitude(n, gates, &probe, SPARSE_DENSITY_CAP)
            .map_err(|e| TestCaseError::Fail(format!("{ctx}: {e}")))?;
        for (engine, want) in [
            ("naive", oracle.amplitudes()[y as usize]),
            ("fast", fast.amplitudes()[y as usize]),
        ] {
            prop_assert!(
                (run.amplitude - want).abs() < EPS,
                "{ctx}: <{y}|C|psi> is {:?}, the {engine} engine gives {want:?}",
                run.amplitude
            );
        }
        peak = peak.max(run.peak_nonzeros);
    }
    Ok(peak)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random gate programs over the full gate set give the same matrix
    /// elements in the sparse evaluator, the fast engine and the naive
    /// oracle (three-way differential), for sparse and dense kets.
    #[test]
    fn sparse_matches_fast_and_naive_on_random_programs(
        n in 4usize..13,
        seed in 0u64..1000,
        terms in 1usize..7,
        prog in collection::vec((0usize..7, 0usize..16, 0usize..16, 1u32..45), 1..24),
        sample in collection::vec(0u64..1 << 12, SAMPLED_BRAS..SAMPLED_BRAS + 1),
    ) {
        let gates: Vec<Gate> = prog
            .iter()
            .map(|&(kind, q1, q2, k)| decode_gate(n, kind, q1, q2, k))
            .collect();
        let bras = bras(n, &sample);
        let sparse = SparseProbe::random(n, terms, seed).ket;
        assert_matrix_elements(n, &gates, sparse, &bras, "sparse ket")?;
        assert_matrix_elements(n, &gates, dense_ket(n, seed), &bras, "dense ket")?;
    }

    /// SWAP-heavy programs (lazy relabels, fused CPHASE+SWAP, diagonal
    /// phases) give the same matrix elements as the eager engines — the
    /// relabeling bookkeeping is exact.
    #[test]
    fn sparse_lazy_relabeling_matches_eager_swaps(
        n in 4usize..13,
        seed in 0u64..1000,
        terms in 1usize..7,
        prog in collection::vec((3usize..6, 0usize..16, 0usize..16, 1u32..20), 1..24),
        sample in collection::vec(0u64..1 << 12, SAMPLED_BRAS..SAMPLED_BRAS + 1),
    ) {
        // kinds 3..6: CPHASE, SWAP, fused CPHASE+SWAP only.
        let gates: Vec<Gate> = prog
            .iter()
            .map(|&(kind, q1, q2, k)| decode_gate(n, kind, q1, q2, k))
            .collect();
        let bras = bras(n, &sample);
        let sparse = SparseProbe::random(n, terms, seed).ket;
        let sparse_peak = assert_matrix_elements(n, &gates, sparse, &bras, "relabeling")?;
        let dense_peak = assert_matrix_elements(n, &gates, dense_ket(n, seed), &bras, "relabeling")?;
        // Diagonal + permutation gates never branch, so every slot is
        // projected before the first op: one ket term at most is live.
        prop_assert!(sparse_peak <= 1, "sparse ket peak {sparse_peak}");
        prop_assert_eq!(dense_peak, 1);
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
            checker.peak_nonzeros() <= PEAK_BOUND,
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
    assert_eq!(plan_tier(&small.circuit).unwrap(), EngineTier::Dense);
    // Large compiled QFT kernel → sparse tier, and the auto checker
    // verifies it there.
    let large = registry()
        .compile(
            "sabre",
            &Target::lnn(28).unwrap(),
            &CompileOptions::default(),
        )
        .unwrap();
    assert_eq!(plan_tier(&large.circuit).unwrap(), EngineTier::Sparse);
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
    // The sparse engine takes that width without blinking:
    // ⟨0|QFT|0⟩ = 2^{-n/2} with two live amplitudes at most.
    let run = logical_amplitude(
        40,
        qft_circuit(40).gates(),
        &SparseProbe::basis(40, 0, 0),
        SPARSE_DENSITY_CAP,
    )
    .unwrap();
    assert!((run.amplitude - Complex64::new(2f64.powi(-20), 0.0)).abs() < 1e-15);
    assert!(run.peak_nonzeros <= 2, "peak {}", run.peak_nonzeros);
    // ... and itself refuses past the u64 key ceiling.
    assert!(matches!(
        SparseChecker::for_qft(64, N_RANDOM_PAIRS),
        Err(SimError::SparseWidthExceeded { n: 64 })
    ));
}
