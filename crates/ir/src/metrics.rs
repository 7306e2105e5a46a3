//! Compilation-quality metrics: the columns of every table and figure.

use crate::circuit::{AsapClock, MappedCircuit, PhysOp};
use crate::gate::GateKind;
use serde::{Deserialize, Serialize};

/// Summary of a mapped circuit's cost, in the units the paper reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Metrics {
    /// Number of logical qubits.
    pub n: usize,
    /// Uniform-latency depth (cycles; the NISQ "Depth" column).
    pub depth: u64,
    /// Depth counting only two-qubit layers (the complexity-formula cycles).
    pub two_qubit_depth: u64,
    /// Inserted SWAP gates (the "# SWAP" column).
    pub swaps: usize,
    /// CPHASE count (must equal `n(n-1)/2` for a valid QFT).
    pub cphases: usize,
    /// Hadamard count (must equal `n`).
    pub hadamards: usize,
    /// All ops.
    pub total_ops: usize,
}

impl Metrics {
    /// Computes metrics with a per-op latency function for the depth
    /// column: `|_| 1` for uniform latencies (NISQ backends), the device's
    /// link latencies for FT backends. One walk of the stream steps the
    /// depth's and the two-qubit depth's ASAP schedules side by side and
    /// counts the kinds.
    pub fn of(mc: &MappedCircuit, latency: impl Fn(&PhysOp) -> u64) -> Metrics {
        let (mut swaps, mut cphases, mut hadamards) = (0, 0, 0);
        let mut depth = AsapClock::new(mc.n_physical());
        let mut two_qubit = AsapClock::new(mc.n_physical());
        for op in mc.ops() {
            depth.place(op, latency(op));
            two_qubit.place(op, u64::from(op.kind.arity() == 2));
            match op.kind {
                GateKind::Swap => swaps += 1,
                GateKind::H => hadamards += 1,
                GateKind::Cphase { .. } | GateKind::CphaseSwap { .. } => cphases += 1,
                _ => {}
            }
        }
        Metrics {
            n: mc.n_logical(),
            depth: depth.depth(),
            two_qubit_depth: two_qubit.depth(),
            swaps,
            cphases,
            hadamards,
            total_ops: mc.ops().len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::MappedCircuitBuilder;
    use crate::gate::{GateKind, PhysicalQubit};
    use crate::layout::Layout;

    #[test]
    fn metrics_count_kinds() {
        let mut b = MappedCircuitBuilder::new(Layout::identity(2, 2));
        b.push_1q_phys(GateKind::H, PhysicalQubit(0));
        b.push_2q_phys(
            GateKind::Cphase { k: 2 },
            PhysicalQubit(0),
            PhysicalQubit(1),
        );
        b.push_swap_phys(PhysicalQubit(0), PhysicalQubit(1));
        let m = Metrics::of(&b.finish(), |_| 1);
        assert_eq!(m.swaps, 1);
        assert_eq!(m.cphases, 1);
        assert_eq!(m.hadamards, 1);
        assert_eq!(m.total_ops, 3);
        assert_eq!(m.depth, 3);
        assert_eq!(m.two_qubit_depth, 2);
    }
}
