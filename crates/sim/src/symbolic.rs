//! Scalable (state-vector-free) verification of mapped QFT circuits.
//!
//! This is the role of the paper's "open-source simulator \[2\]": checking
//! that a compiler's output is a correct, hardware-compliant realization of
//! the QFT, at sizes (up to thousands of qubits) where state vectors are
//! impossible. Checks performed:
//!
//! 1. **Adjacency** — every two-qubit op acts on a coupling-graph link;
//! 2. **Layout consistency** — replaying the SWAPs from the initial layout
//!    ends at the recorded final layout (1 and 2 are
//!    [`qft_ir::passes::replay_layout`], the check the `check-layout` pass
//!    runs, which also refuses ops with the wrong operand count for their
//!    kind);
//! 3. **QFT semantics** — the logical H/CPHASE stream, whose logical
//!    qubits the same SWAP replay derives
//!    ([`qft_ir::AnnotatedOp::logical_gate`]), has exactly one H per
//!    qubit, one CPHASE per kept pair with the right rotation order and
//!    none on a pair the AQFT degree truncates, and respects Type II
//!    dependences (`H(i) < CP(i,j) < H(j)` for `i < j`).
//!
//! All three run in one walk of the stream: the layout replay hands each
//! op to the QFT-order check ([`qft_ir::qft::QftOrderCheck`]).
//!
//! Together with the CPHASE commutation theorem (all same-segment diagonal
//! gates commute — cross-checked against state vectors in this crate's
//! tests), (3) implies unitary equivalence to the textbook QFT (or the
//! AQFT of the given degree). At small N the claim is additionally
//! replayed numerically by [`crate::equiv`] (batched fast engine,
//! differentially pinned against [`crate::naive`]).

use qft_arch::graph::CouplingGraph;
use qft_ir::circuit::MappedCircuit;
use qft_ir::passes::{replay_layout, PassCtx, ReplayError};
use qft_ir::qft::{QftOrderCheck, QftOrderError};
use std::fmt;

/// Everything that can be wrong with a mapped circuit.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// A two-qubit op spans physically non-adjacent qubits.
    NonAdjacent {
        /// Index of the op in the stream.
        op_index: usize,
    },
    /// The recorded final layout is not what SWAP replay produces.
    FinalLayoutMismatch,
    /// The interaction stream is not a valid QFT realization.
    Semantics(QftOrderError),
    /// The device is smaller than the program, sizes disagree, an op has
    /// the wrong operand count for its kind, etc.
    Shape(String),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::NonAdjacent { op_index } => {
                write!(f, "op #{op_index} acts on non-adjacent physical qubits")
            }
            VerifyError::FinalLayoutMismatch => write!(f, "final layout mismatch"),
            VerifyError::Semantics(e) => write!(f, "QFT semantics violated: {e}"),
            VerifyError::Shape(s) => write!(f, "shape error: {s}"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Statistics gathered during verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyReport {
    /// Total ops checked.
    pub ops: usize,
    /// Two-qubit ops checked for adjacency.
    pub two_qubit_ops: usize,
    /// SWAPs replayed.
    pub swaps: usize,
    /// CPHASE pairs covered.
    pub pairs: usize,
}

/// Verifies a mapped circuit against a coupling graph and the QFT contract.
pub fn verify_qft_mapping(
    mc: &MappedCircuit,
    graph: &CouplingGraph,
) -> Result<VerifyReport, VerifyError> {
    verify_aqft_mapping(mc, graph, u32::MAX)
}

/// Verifies a mapped circuit against a coupling graph and the contract of
/// the degree-`degree` AQFT: the pairs `(i, j)` with `j - i < degree` each
/// get their one CPHASE, and no other pair gets any. `degree >= n` is the
/// exact QFT ([`verify_qft_mapping`]).
///
/// # Panics
/// Panics on `degree = 0`.
pub fn verify_aqft_mapping(
    mc: &MappedCircuit,
    graph: &CouplingGraph,
    degree: u32,
) -> Result<VerifyReport, VerifyError> {
    if mc.n_physical() != graph.n_qubits() {
        return Err(VerifyError::Shape(format!(
            "circuit has {} physical qubits, device has {}",
            mc.n_physical(),
            graph.n_qubits()
        )));
    }
    if mc.n_logical() > mc.n_physical() {
        return Err(VerifyError::Shape(
            "more logical than physical qubits".into(),
        ));
    }

    // (1) + (2): adjacency and layout replay, shared with `CheckLayout`,
    // handing each op's logical gate to (3), the QFT-order check.
    let mut order = QftOrderCheck::new(mc.n_logical(), degree);
    let mut pairs = 0;
    let adjacent = |a, b| graph.are_adjacent(a, b);
    let ctx = PassCtx::with_adjacency(&adjacent);
    let counts = replay_layout(mc, &ctx, |op| {
        if let Some(g) = op.logical_gate() {
            pairs += usize::from(g.b.is_some());
            order.push(g);
        }
    })
    .map_err(|e| match e {
        ReplayError::NonAdjacent(op_index, ..) => VerifyError::NonAdjacent { op_index },
        ReplayError::FinalLayoutMismatch => VerifyError::FinalLayoutMismatch,
        malformed => VerifyError::Shape(malformed.to_string()),
    })?;
    order.finish().map_err(VerifyError::Semantics)?;

    Ok(VerifyReport {
        ops: mc.ops().len(),
        two_qubit_ops: counts.two_qubit_ops,
        swaps: counts.swaps,
        pairs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qft_arch::lnn::lnn;
    use qft_ir::circuit::MappedCircuitBuilder;
    use qft_ir::gate::{GateKind, PhysicalQubit};
    use qft_ir::layout::Layout;

    fn p(i: u32) -> PhysicalQubit {
        PhysicalQubit(i)
    }

    /// Hand-built valid 2-qubit QFT on a 2-qubit line:
    /// H(q0); CP(q0,q1); H(q1).
    fn tiny_valid() -> MappedCircuitBuilder {
        let mut b = MappedCircuitBuilder::new(Layout::identity(2, 2));
        b.push_1q_phys(GateKind::H, p(0));
        b.push_2q_phys(GateKind::Cphase { k: 2 }, p(0), p(1));
        b.push_1q_phys(GateKind::H, p(1));
        b
    }

    #[test]
    fn valid_tiny_circuit_passes() {
        let g = lnn(2);
        let report = verify_qft_mapping(&tiny_valid().finish(), &g).unwrap();
        assert_eq!(report.pairs, 1);
        assert_eq!(report.two_qubit_ops, 1);
    }

    #[test]
    fn non_adjacent_op_detected() {
        let g = lnn(3);
        let mut b = MappedCircuitBuilder::new(Layout::identity(3, 3));
        b.push_1q_phys(GateKind::H, p(0));
        b.push_2q_phys(GateKind::Cphase { k: 2 }, p(0), p(2)); // not adjacent
        let err = verify_qft_mapping(&b.finish(), &g).unwrap_err();
        assert_eq!(err, VerifyError::NonAdjacent { op_index: 1 });
    }

    #[test]
    fn malformed_operands_are_shape_errors() {
        // The replay shared with `check-layout` refuses an op that names
        // one qubit twice before any adjacency check.
        let mut mc = tiny_valid().finish();
        let mut ops = mc.ops().to_vec();
        ops[1].p2 = Some(p(0));
        mc.set_ops(ops);
        let err = verify_qft_mapping(&mc, &lnn(2)).unwrap_err();
        assert!(
            matches!(err, VerifyError::Shape(ref s) if s.contains("acts twice")),
            "{err}"
        );
    }

    #[test]
    fn missing_pair_detected() {
        let g = lnn(3);
        let mut b = MappedCircuitBuilder::new(Layout::identity(3, 3));
        for q in 0..3 {
            b.push_1q_phys(GateKind::H, p(q));
        }
        let err = verify_qft_mapping(&b.finish(), &g).unwrap_err();
        assert!(matches!(err, VerifyError::Semantics(_)));
    }

    #[test]
    fn type_ii_violation_detected() {
        let g = lnn(2);
        let mut b = MappedCircuitBuilder::new(Layout::identity(2, 2));
        // CP before H(q0): Type II broken.
        b.push_2q_phys(GateKind::Cphase { k: 2 }, p(0), p(1));
        b.push_1q_phys(GateKind::H, p(0));
        b.push_1q_phys(GateKind::H, p(1));
        let err = verify_qft_mapping(&b.finish(), &g).unwrap_err();
        assert!(matches!(
            err,
            VerifyError::Semantics(QftOrderError::TypeII { pair: (0, 1) })
        ));
    }

    #[test]
    fn swap_changes_logical_annotations() {
        // A 3-qubit line QFT done with one SWAP: H0; CP01; H1; SWAP(Q0,Q1);
        // then Q1 holds q0: CP(q0,q2) via Q1-Q2; H(q2).
        let g = lnn(3);
        let mut b = MappedCircuitBuilder::new(Layout::identity(3, 3));
        b.push_1q_phys(GateKind::H, p(0));
        b.push_2q_phys(GateKind::Cphase { k: 2 }, p(0), p(1));
        b.push_swap_phys(p(0), p(1));
        b.push_2q_phys(GateKind::Cphase { k: 3 }, p(1), p(2)); // q0 with q2
        b.push_1q_phys(GateKind::H, p(0)); // q1 now at Q0
        b.push_2q_phys(GateKind::Cphase { k: 2 }, p(1), p(2)); // wait: Q1=q0 -- wrong
        let err = verify_qft_mapping(&b.finish(), &g).unwrap_err();
        // The second CP(Q1,Q2) re-pairs q0 with q2: duplicate pair.
        assert!(matches!(err, VerifyError::Semantics(_)));
    }

    #[test]
    fn correct_swap_based_qft3_passes() {
        let g = lnn(3);
        let mut b = MappedCircuitBuilder::new(Layout::identity(3, 3));
        b.push_1q_phys(GateKind::H, p(0)); // H q0
        b.push_2q_phys(GateKind::Cphase { k: 2 }, p(0), p(1)); // q0-q1
        b.push_swap_phys(p(0), p(1)); // q1 at Q0, q0 at Q1
        b.push_2q_phys(GateKind::Cphase { k: 3 }, p(1), p(2)); // q0-q2
        b.push_1q_phys(GateKind::H, p(0)); // H q1
        b.push_swap_phys(p(1), p(2)); // q2 at Q1, q0 at Q2
        b.push_2q_phys(GateKind::Cphase { k: 2 }, p(0), p(1)); // q1-q2
        b.push_1q_phys(GateKind::H, p(1)); // H q2
        let mc = b.finish();
        let report = verify_qft_mapping(&mc, &g).unwrap();
        assert_eq!(report.pairs, 3);
        assert_eq!(report.swaps, 2);
    }
}
