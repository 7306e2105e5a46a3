//! Differential suite for the fast dense engine, `StateBatch`: every fast
//! kernel (branch-free stride pairs, diagonal fast paths, lazy SWAPs,
//! fused CPHASE+SWAP, diagonal-run/radix-4 stream fusion, the
//! table-driven layout readout and physical replay) is pinned against the
//! retained `qft_sim::naive` oracle on random states — in batches of one
//! state and of several.

use proptest::prelude::*;
use qft_kernels::ir::gate::{Gate, GateKind, LogicalQubit};
use qft_kernels::ir::qft::qft_circuit;
use qft_kernels::sim::equiv::{self, ReferenceChecker, FIDELITY_EPS};
use qft_kernels::sim::naive::{self, NaiveStateVector};
use qft_kernels::sim::{phase_angle, StateBatch, StateVector};
use qft_kernels::{registry, CompileOptions, Target};

const EPS: f64 = 1e-9;

/// Decodes a sampled `(kind, q1, q2, k)` tuple into a valid gate on `n`
/// qubits (the second operand is forced distinct from the first).
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

/// A batch of one state.
fn one(s: &StateVector) -> StateBatch {
    StateBatch::from_states(std::slice::from_ref(s))
}

/// Element-wise comparison of a fast-engine state (lazy layout resolved
/// by the batch readout) against the naive oracle.
fn assert_same_state(fast: &StateVector, naive: &NaiveStateVector, ctx: &str) {
    assert_eq!(fast.amplitudes().len(), naive.amplitudes().len(), "{ctx}");
    for (i, (a, b)) in fast.amplitudes().iter().zip(naive.amplitudes()).enumerate() {
        assert!(
            (a.re - b.re).abs() < EPS && (a.im - b.im).abs() < EPS,
            "{ctx}: amplitude {i} diverges (fast {a:?}, naive {b:?})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random gate programs over the full gate set (including rotation
    /// orders past the old k=30 clamp), applied gate by gate to a batch of
    /// one state, act identically in both engines.
    #[test]
    fn fast_kernels_match_naive_on_random_programs(
        n in 2usize..7,
        seed in 0u64..1000,
        prog in collection::vec((0usize..7, 0usize..8, 0usize..8, 1u32..45), 1..24),
    ) {
        let input = StateVector::random(n, seed);
        let mut fast = one(&input);
        let mut oracle = NaiveStateVector::from_state(&input);
        for &(kind, q1, q2, k) in &prog {
            let g = decode_gate(n, kind, q1, q2, k);
            fast.apply_gate(&g);
            oracle.apply_gate(&g);
        }
        let got = fast.to_states().remove(0);
        assert_same_state(&got, &oracle, "forward program");
        prop_assert!((got.norm2() - 1.0).abs() < EPS, "norm drifted");
    }

    /// Applying a program then its inverse in reverse order restores every
    /// input exactly (through lazy swaps and fused gates), for one state
    /// and for several; and the inverse gates alone act as the oracle's.
    #[test]
    fn inverse_round_trip_is_identity(
        n in 2usize..7,
        count in 1usize..4,
        seed in 0u64..1000,
        prog in collection::vec((0usize..7, 0usize..8, 0usize..8, 1u32..45), 1..20),
    ) {
        let orig: Vec<StateVector> =
            (0..count as u64).map(|s| StateVector::random(n, seed + 7 * s)).collect();
        let mut batch = StateBatch::from_states(&orig);
        let gates: Vec<Gate> = prog
            .iter()
            .map(|&(kind, q1, q2, k)| decode_gate(n, kind, q1, q2, k))
            .collect();
        for g in &gates {
            batch.apply_gate(g);
        }
        for g in gates.iter().rev() {
            batch.apply_gate_inverse(g);
        }
        for (got, want) in batch.to_states().iter().zip(&orig) {
            prop_assert!((got.fidelity(want) - 1.0).abs() < EPS);
        }
        let mut inverse = StateBatch::from_states(&orig);
        let mut oracle = NaiveStateVector::from_state(&orig[0]);
        for g in gates.iter().rev() {
            inverse.apply_gate_inverse(g);
            oracle.apply_gate_inverse(g);
        }
        assert_same_state(&inverse.to_states()[0], &oracle, "inverse program");
    }

    /// The fused stream over several states (diagonal-run + radix-4
    /// fusion) agrees with gate-by-gate application to one-state batches,
    /// which agrees with the oracle.
    #[test]
    fn batch_matches_singles_and_naive(
        n in 2usize..7,
        count in 1usize..6,
        prog in collection::vec((0usize..7, 0usize..8, 0usize..8, 1u32..20), 1..24),
    ) {
        let states: Vec<StateVector> =
            (0..count as u64).map(|s| StateVector::random(n, 3 * s + 1)).collect();
        let gates: Vec<Gate> = prog
            .iter()
            .map(|&(kind, q1, q2, k)| decode_gate(n, kind, q1, q2, k))
            .collect();
        let mut batch = StateBatch::from_states(&states);
        batch.apply_gates(gates.iter().copied());
        for (input, got) in states.iter().zip(batch.to_states()) {
            let mut single = one(input);
            let mut oracle = NaiveStateVector::from_state(input);
            for g in &gates {
                single.apply_gate(g);
                oracle.apply_gate(g);
            }
            assert_same_state(&got, &oracle, "batched program");
            assert_same_state(&single.to_states()[0], &oracle, "single-state program");
        }
    }

    /// Arbitrary qubit permutations, composed from lazy SWAPs and resolved
    /// by the table-driven readout, equal the naive per-index bit walk.
    #[test]
    fn permute_qubits_matches_naive(
        n in 1usize..9,
        seed in 0u64..100,
        order in collection::vec(0usize..64, 0..8),
    ) {
        // Build a permutation by composing transpositions from `order`.
        let transpositions: Vec<(usize, usize)> =
            order.iter().enumerate().map(|(i, &x)| (i % n, x % n)).collect();
        let mut perm: Vec<usize> = (0..n).collect();
        for &(a, b) in &transpositions {
            perm.swap(a, b);
        }
        let input = StateVector::random(n, seed);
        let mut fast = one(&input);
        // `perm` is τ₀∘…∘τₘ₋₁, so the SWAPs apply last-first.
        for &(a, b) in transpositions.iter().rev().filter(|(a, b)| a != b) {
            fast.apply_swap(a, b);
        }
        let mut oracle = NaiveStateVector::from_state(&input);
        oracle.permute_qubits(&perm);
        assert_same_state(&fast.to_states()[0], &oracle, "permutation");
    }

    /// Physical replay (lazy SWAPs, fused diag sweeps, layout composed
    /// into the readout gather) matches both the naive physical replay and
    /// the logical-stream shortcut on compiled kernels.
    #[test]
    fn physical_replay_matches_naive_and_logical(
        n in 4usize..8,
        seed in 0u64..50,
        opt_level in 1u8..3,
    ) {
        let r = registry()
            .compile(
                "lnn",
                &Target::lnn(n).unwrap(),
                &CompileOptions::default().with_opt_level(opt_level),
            )
            .unwrap();
        let inputs = [StateVector::random(n, seed), StateVector::random(n, seed + 50)];
        // Any batches serve as the replay's reusable buffers.
        let (mut phys, mut fast_phys) = (one(&inputs[0]), one(&inputs[0]));
        phys.replay_physically(&r.circuit, &inputs, &mut fast_phys);
        for (input, got) in inputs.iter().zip(fast_phys.to_states()) {
            let naive_phys =
                naive::apply_mapped_physically(&r.circuit, &NaiveStateVector::from_state(input));
            assert_same_state(&got, &naive_phys, "physical replay");
        }
        let mut logical = StateBatch::from_states(&inputs);
        logical.apply_gates(r.circuit.logical_interactions());
        for f in fast_phys.fidelities(&logical) {
            prop_assert!((f - 1.0).abs() < FIDELITY_EPS);
        }
    }
}

#[test]
fn rotation_angles_are_exact_at_large_k() {
    // Regression for the silent `1u32 << k.min(30)` clamp: k > 30 must
    // produce its own (tiny but nonzero and distinct) angle in both
    // engines, and both engines must agree.
    assert_ne!(phase_angle(31), phase_angle(30));
    assert_ne!(phase_angle(40), phase_angle(41));
    assert!(phase_angle(40) > 0.0);
    let mut fast = one(&StateVector::basis(2, 0b11));
    let mut oracle = NaiveStateVector::basis(2, 0b11);
    fast.apply_cphase(0, 1, 40);
    oracle.apply_cphase(0, 1, 40);
    let got = fast.to_states().remove(0);
    assert_same_state(&got, &oracle, "k=40 cphase");
    assert!((got.amplitudes()[3].im - phase_angle(40).sin()).abs() < 1e-24);
}

#[test]
fn batch_worker_counts_are_bit_identical_on_compiled_kernels() {
    // Above the parallelism threshold (n=12 × 8 states), the scoped
    // worker fan-out must not change a single bit of the result.
    let r = registry()
        .compile("lnn", &Target::lnn(12).unwrap(), &CompileOptions::default())
        .unwrap();
    let inputs = equiv::probe_states(12, 6);
    let run = |workers: usize| {
        let mut b = StateBatch::from_states(&inputs);
        b.set_workers(workers);
        b.apply_gates(r.circuit.logical_interactions());
        b.to_states()
    };
    let serial = run(1);
    let threaded = run(4);
    for (a, b) in serial.iter().zip(&threaded) {
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }
}

#[test]
fn reference_checker_amortizes_across_kernels() {
    // One prepared checker verifies every compiler on the same target —
    // logically and by physical replay — and still rejects a wrong kernel.
    let target = Target::lnn(6).unwrap();
    let mut checker = ReferenceChecker::for_qft(6, 3);
    for compiler in ["lnn", "sabre", "lnn-path", "optimal"] {
        let r = registry()
            .compile(compiler, &target, &CompileOptions::default())
            .unwrap();
        assert!(checker.matches_logical(&r.circuit), "{compiler} logical");
        assert!(
            checker.matches_physically(&r.circuit),
            "{compiler} physical"
        );
    }
    // A truncated (degree-2) kernel is NOT the exact QFT.
    let wrong = registry()
        .compile(
            "lnn",
            &target,
            &CompileOptions::default().with_approximation(2),
        )
        .unwrap();
    assert!(!checker.matches_logical(&wrong.circuit));
    assert!(!checker.matches_physically(&wrong.circuit));
}

#[test]
fn naive_equivalence_checkers_agree_with_fast_checkers() {
    let reference = qft_circuit(7);
    let inputs = equiv::probe_states(7, 3);
    let r = registry()
        .compile("lnn", &Target::lnn(7).unwrap(), &CompileOptions::default())
        .unwrap();
    let mut fast = ReferenceChecker::new(&reference, inputs.clone());
    assert!(fast.matches_logical(&r.circuit));
    assert!(naive::mapped_matches_reference_on(
        &r.circuit, &reference, &inputs
    ));
    assert!(fast.matches_physically(&r.circuit));
    assert!(naive::mapped_physically_matches_reference_on(
        &r.circuit, &reference, &inputs
    ));
    assert!(equiv::mapped_equals_qft(&r.circuit, 3));
}
