//! Deeper integration tests over the substrates: simulator algebra,
//! distance matrices, DAG containment, rendering, and QASM round-trips of
//! *compiled* kernels.

use proptest::prelude::*;
use qft_kernels::arch::distance::DistanceMatrix;
use qft_kernels::arch::sycamore::Sycamore;
use qft_kernels::core::{compile_lnn, compile_two_row, compile_two_row_interleaved};
use qft_kernels::ir::dag::{CircuitDag, DagMode};
use qft_kernels::ir::qft::qft_circuit;
use qft_kernels::ir::render::render_layers;
use qft_kernels::sim::{StateBatch, StateVector};

#[test]
fn sycamore_distances_match_unit_structure() {
    // Within a unit, hop distance along the zigzag line equals line
    // distance or better (diagonals can shortcut); across units it pays at
    // least one inter-unit hop.
    let s = Sycamore::new(6);
    let d = DistanceMatrix::hops(s.graph());
    for pos in 0..s.unit_len() - 1 {
        let a = s.unit_line(0, pos);
        let b = s.unit_line(0, pos + 1);
        assert_eq!(d.get(a, b), 1);
    }
    let a = s.unit_line(0, 0);
    let b = s.unit_line(2, 0);
    assert!(d.get(a, b) >= 2, "cross-unit distance too small");
    assert!(
        d.diameter().unwrap() <= (2 * s.m) as u32,
        "diameter not linear in m"
    );
}

#[test]
fn strict_orders_are_a_subset_of_relaxed_orders() {
    // Every strict-valid topological order must be relaxed-valid (the
    // relaxation only removes constraints).
    let c = qft_circuit(6);
    let strict = CircuitDag::build(&c, DagMode::Strict);
    let relaxed = CircuitDag::build(&c, DagMode::Relaxed);
    // Generate a strict order by draining the frontier deterministically.
    let mut f = strict.frontier();
    let mut order = Vec::new();
    while !f.is_done() {
        let node = *f.front().iter().min().unwrap();
        f.execute(&strict, node);
        order.push(node);
    }
    assert!(strict.is_valid_order(&order));
    assert!(
        relaxed.is_valid_order(&order),
        "strict order rejected by relaxed DAG"
    );
}

#[test]
fn render_of_lnn_shows_wavefront() {
    let mc = compile_lnn(4);
    let art = render_layers(&mc, 100);
    // 4 physical rows; every H appears at Q0 (the paper's "top").
    assert_eq!(art.lines().count(), 4);
    let q0_row = art.lines().next().unwrap();
    assert_eq!(q0_row.matches('H').count(), 4, "all H's at the top: {art}");
}

#[test]
fn compiled_kernel_qasm_roundtrips_as_physical_circuit() {
    use qft_kernels::ir::qasm::{mapped_to_qasm, parse_circuit};
    let mc = compile_two_row(4);
    let text = mapped_to_qasm(&mc);
    let parsed = parse_circuit(&text).expect("parse back");
    assert_eq!(parsed.len(), mc.ops().len());
    assert_eq!(parsed.n_qubits(), mc.n_physical());
}

#[test]
fn interleaved_and_snake_two_row_implement_the_same_unitary() {
    for cols in [2usize, 3] {
        let a = compile_two_row(cols);
        let b = compile_two_row_interleaved(cols);
        let n = 2 * cols;
        let inputs = [StateVector::random(n, 1), StateVector::random(n, 5)];
        let mut out_a = StateBatch::from_states(&inputs);
        let mut out_b = out_a.clone();
        out_a.apply_gates(a.logical_interactions());
        out_b.apply_gates(b.logical_interactions());
        for f in out_a.fidelities(&out_b) {
            assert!((f - 1.0).abs() < 1e-9, "cols={cols}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// DFT is unitary and CPHASE commutation holds on random states of
    /// random sizes (the algebraic bedrock of §3.1).
    #[test]
    fn dft_unitary_and_cphase_commutation(n in 1usize..7, seed in 0u64..500) {
        let s = StateVector::random(n, seed.wrapping_mul(2).wrapping_add(1));
        let f = qft_kernels::sim::reference::dft(&s);
        prop_assert!((f.norm2() - 1.0).abs() < 1e-9);
        if n >= 3 {
            let mut a = StateBatch::from_states(std::slice::from_ref(&s));
            let mut b = a.clone();
            a.apply_cphase(0, 1, 2);
            a.apply_cphase(1, 2, 3);
            b.apply_cphase(1, 2, 3);
            b.apply_cphase(0, 1, 2);
            prop_assert!((a.fidelities(&b)[0] - 1.0).abs() < 1e-9);
        }
    }

    /// The abstract line schedule is internally consistent for any n (the
    /// compilers at both granularities rest on this).
    #[test]
    fn line_schedule_internal_consistency(n in 1usize..60) {
        use qft_kernels::core::LineOp;
        let (mut swaps, mut interactions) = (0, 0);
        // Layers holding a two-item op, and the last such layer seen.
        let (mut two_item_depth, mut last) = (0, None);
        let mut at: Vec<usize> = (0..n).collect();
        qft_kernels::core::line_qft_schedule(n, |layer, op| {
            match op {
                LineOp::Activate { .. } => return,
                LineOp::Interact { .. } => interactions += 1,
                LineOp::Swap { pos_left, pos_right, .. } => {
                    swaps += 1;
                    at.swap(pos_left, pos_right);
                }
            }
            if last != Some(layer) {
                two_item_depth += 1;
                last = Some(layer);
            }
        });
        prop_assert_eq!(swaps, n * (n - 1) / 2);
        prop_assert_eq!(interactions, n * (n - 1) / 2);
        if n >= 2 {
            prop_assert_eq!(two_item_depth, 4 * n - 6);
        }
        let expect: Vec<usize> = (0..n).rev().collect();
        prop_assert_eq!(at, expect);
    }

    /// QASM round-trip is the identity on random logical circuits drawn
    /// from the exported gate set.
    #[test]
    fn qasm_roundtrip_random_circuits(
        n in 2usize..8,
        ops in proptest::collection::vec((0u8..5, 0u32..8, 0u32..8, 1u32..8), 0..40),
    ) {
        use qft_kernels::ir::circuit::Circuit;
        use qft_kernels::ir::gate::{Gate, GateKind, LogicalQubit};
        use qft_kernels::ir::qasm::{circuit_to_qasm, parse_circuit};
        let mut c = Circuit::new(n);
        for (kind, a, b, k) in ops {
            let (a, b) = (a % n as u32, b % n as u32);
            match kind {
                0 => c.push(Gate::h(a)),
                1 => c.push(Gate::one(GateKind::X, LogicalQubit(a))),
                2 => c.push(Gate::one(GateKind::Rz { k }, LogicalQubit(a))),
                3 if a != b => c.push(Gate::cphase(k, a, b)),
                4 if a != b => c.push(Gate::swap(a, b)),
                _ => {}
            }
        }
        let back = parse_circuit(&circuit_to_qasm(&c)).unwrap();
        prop_assert_eq!(c, back);
    }
}
