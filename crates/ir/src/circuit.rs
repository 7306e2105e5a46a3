//! Logical circuits and hardware-mapped circuits.
//!
//! A [`Circuit`] is a gate list on logical qubits with no placement
//! information — the compiler input. A [`MappedCircuit`] is the compiler
//! output: a stream of physical operations, each annotated with the logical
//! qubits it acted on at execution time, together with the initial and final
//! layouts. Keeping the logical annotation makes verification (coverage,
//! dependency order) O(gates) without replaying layouts.

use crate::gate::{Gate, GateKind, LogicalQubit, PhysicalQubit};
use crate::layout::Layout;
use serde::{Deserialize, Serialize, Value};

/// A logical (hardware-agnostic) quantum circuit: an ordered gate list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Circuit {
    n: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// An empty circuit on `n` logical qubits.
    pub fn new(n: usize) -> Self {
        Circuit {
            n,
            gates: Vec::new(),
        }
    }

    /// Number of logical qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// Appends a gate.
    ///
    /// # Panics
    /// Panics if an operand is out of range.
    pub fn push(&mut self, g: Gate) {
        assert!(
            g.qubits().all(|q| q.index() < self.n),
            "gate {g} out of range"
        );
        self.gates.push(g);
    }

    /// The gates, in program order.
    #[inline]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Total gate count.
    #[inline]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// True if the circuit has no gates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Number of two-qubit gates.
    pub fn two_qubit_count(&self) -> usize {
        self.gates.iter().filter(|g| g.kind.arity() == 2).count()
    }

    /// Logical-circuit depth: longest chain of gates sharing qubits, each
    /// gate costing one cycle (ASAP layering).
    pub fn depth(&self) -> usize {
        let mut avail = vec![0usize; self.n];
        let mut depth = 0;
        for g in &self.gates {
            let t = g.qubits().map(|q| avail[q.index()]).max().unwrap_or(0) + 1;
            for q in g.qubits() {
                avail[q.index()] = t;
            }
            depth = depth.max(t);
        }
        depth
    }
}

/// One operation in a mapped circuit.
///
/// `p2`/`l2` are `None` for single-qubit gates. For SWAPs involving a spare
/// (unoccupied) physical qubit, the corresponding logical annotation is
/// `None`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhysOp {
    /// Gate kind.
    pub kind: GateKind,
    /// First physical operand.
    pub p1: PhysicalQubit,
    /// Second physical operand, for two-qubit gates.
    pub p2: Option<PhysicalQubit>,
    /// Logical qubit at `p1` when the op executed.
    pub l1: Option<LogicalQubit>,
    /// Logical qubit at `p2` when the op executed.
    pub l2: Option<LogicalQubit>,
}

impl PhysOp {
    /// Physical operands, in order.
    #[inline]
    pub fn phys(&self) -> impl Iterator<Item = PhysicalQubit> + '_ {
        std::iter::once(self.p1).chain(self.p2)
    }

    /// The unordered logical pair for a two-qubit gate, if both sides carry
    /// program qubits, normalized so the smaller index comes first.
    pub fn logical_pair(&self) -> Option<(LogicalQubit, LogicalQubit)> {
        match (self.l1, self.l2) {
            (Some(a), Some(b)) => Some(if a <= b { (a, b) } else { (b, a) }),
            _ => None,
        }
    }
}

/// A hardware-mapped circuit: the compiler's output artifact.
#[derive(Debug, Clone, Serialize)]
pub struct MappedCircuit {
    n_logical: usize,
    n_physical: usize,
    initial: Layout,
    final_layout: Layout,
    ops: Vec<PhysOp>,
}

impl MappedCircuit {
    /// Number of logical (program) qubits.
    #[inline]
    pub fn n_logical(&self) -> usize {
        self.n_logical
    }

    /// Number of physical (device) qubits.
    #[inline]
    pub fn n_physical(&self) -> usize {
        self.n_physical
    }

    /// The initial logical→physical placement.
    #[inline]
    pub fn initial_layout(&self) -> &Layout {
        &self.initial
    }

    /// The placement after all SWAPs have executed.
    #[inline]
    pub fn final_layout(&self) -> &Layout {
        &self.final_layout
    }

    /// The operation stream, in execution order.
    #[inline]
    pub fn ops(&self) -> &[PhysOp] {
        &self.ops
    }

    /// The logical H/CPHASE gate stream of this circuit, SWAPs dropped and
    /// fused `CPHASE+SWAP` interactions contributing their rotation — the
    /// stream every simulator-backed equivalence check replays. Delegates
    /// to [`crate::qft::logical_interactions`].
    pub fn logical_interactions(&self) -> impl Iterator<Item = Gate> + '_ {
        crate::qft::logical_interactions(self.ops())
    }

    /// Number of standalone SWAP gates inserted. A fused
    /// [`GateKind::CphaseSwap`] interaction is *not* counted: its swap
    /// rides along with the CPHASE at no extra gate cost (that reduction
    /// is the point of the `merge-swap-cphase` pass).
    pub fn swap_count(&self) -> usize {
        self.ops.iter().filter(|o| o.kind == GateKind::Swap).count()
    }

    /// Number of CPHASE interactions, counting fused
    /// [`GateKind::CphaseSwap`] gates (which perform the rotation too) —
    /// `n(n-1)/2` for any valid full-QFT kernel.
    pub fn cphase_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| o.kind.cphase_order().is_some())
            .count()
    }

    /// Uniform-latency depth: every gate costs one cycle (the NISQ cycle
    /// count used for Sycamore and heavy-hex in the paper).
    pub fn depth_uniform(&self) -> u64 {
        self.depth_with(|_| 1)
    }

    /// Depth under a per-operation latency function (ASAP schedule over the
    /// op stream, respecting per-qubit ordering).
    pub fn depth_with(&self, latency: impl Fn(&PhysOp) -> u64) -> u64 {
        let mut avail = vec![0u64; self.n_physical];
        let mut depth = 0;
        for op in &self.ops {
            let start = op.phys().map(|p| avail[p.index()]).max().unwrap_or(0);
            let end = start + latency(op);
            for p in op.phys() {
                avail[p.index()] = end;
            }
            depth = depth.max(end);
        }
        depth
    }

    /// Depth counting only layers that contain two-qubit gates (the "cycle"
    /// convention of the paper's complexity formulas, e.g. 4N−6 for LNN).
    pub fn two_qubit_depth(&self) -> u64 {
        self.depth_with(|op| if op.kind.arity() == 2 { 1 } else { 0 })
    }

    /// Replaces the op stream in place — the mutation hook for
    /// [`crate::passes`] implementations.
    ///
    /// The initial/final layouts and qubit counts are preserved: a pass must
    /// only apply rewrites that keep the stream consistent with them (every
    /// op's logical annotations must match SWAP replay from the initial
    /// layout, and the replayed final layout must be unchanged — a pass
    /// that deletes layout-moving ops, like `prune-dead-swap-chains`, must
    /// follow up with [`Self::recompute_final_layout`]). The
    /// [`crate::passes::CheckLayout`] pass verifies exactly this.
    pub fn set_ops(&mut self, ops: Vec<PhysOp>) {
        self.ops = ops;
    }

    /// Re-derives the recorded final layout by replaying every
    /// layout-moving op from the initial layout. Passes that *remove*
    /// SWAPs whose permutation is never consumed again (the
    /// `prune-dead-swap-chains` cleanup after AQFT truncation) call this so
    /// the final-layout bookkeeping tracks the shortened stream.
    pub fn recompute_final_layout(&mut self) {
        let mut layout = self.initial.clone();
        for op in &self.ops {
            if op.kind.swaps_operands() {
                if let Some(p2) = op.p2 {
                    layout.swap_phys(op.p1, p2);
                }
            }
        }
        self.final_layout = layout;
    }

    /// Takes the op stream out of the circuit (leaving it empty), avoiding
    /// a copy when a pass rewrites in place. Pair with [`Self::set_ops`] to
    /// put the (possibly rewritten) stream back.
    pub fn take_ops(&mut self) -> Vec<PhysOp> {
        std::mem::take(&mut self.ops)
    }

    /// Groups the op stream into ASAP layers of unit latency, for display
    /// and for layer-structure tests.
    pub fn layers_uniform(&self) -> Vec<Vec<PhysOp>> {
        let mut avail = vec![0u64; self.n_physical];
        let mut layers: Vec<Vec<PhysOp>> = Vec::new();
        for op in &self.ops {
            let start = op.phys().map(|p| avail[p.index()]).max().unwrap_or(0);
            for p in op.phys() {
                avail[p.index()] = start + 1;
            }
            if layers.len() <= start as usize {
                layers.resize_with(start as usize + 1, Vec::new);
            }
            layers[start as usize].push(*op);
        }
        layers
    }
}

/// Decodes an artifact, refusing one that indexing by its own qubit
/// counts could overrun: both layouts must have the declared sizes, and
/// every op must name physical operands below `n_physical` (two distinct
/// ones exactly when its kind is two-qubit) and logical annotations below
/// `n_logical`. Agreement with SWAP replay is left to
/// [`crate::passes::CheckLayout`].
impl Deserialize for MappedCircuit {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let o = v
            .as_object()
            .ok_or_else(|| serde::Error::msg("expected object for MappedCircuit"))?;
        let mc = MappedCircuit {
            n_logical: Deserialize::from_value(serde::field(o, "n_logical"))?,
            n_physical: Deserialize::from_value(serde::field(o, "n_physical"))?,
            initial: Deserialize::from_value(serde::field(o, "initial"))?,
            final_layout: Deserialize::from_value(serde::field(o, "final_layout"))?,
            ops: Deserialize::from_value(serde::field(o, "ops"))?,
        };
        let sized = |l: &Layout| (l.n_logical(), l.n_physical()) == (mc.n_logical, mc.n_physical);
        if !sized(&mc.initial) || !sized(&mc.final_layout) {
            return Err(serde::Error::msg(
                "a layout's sizes differ from the circuit's",
            ));
        }
        for (i, op) in mc.ops.iter().enumerate() {
            let outside = op.phys().any(|p| p.index() >= mc.n_physical)
                || [op.l1, op.l2]
                    .iter()
                    .flatten()
                    .any(|l| l.index() >= mc.n_logical);
            if outside {
                return Err(serde::Error::msg(format!(
                    "op #{i} names a qubit outside the circuit"
                )));
            }
            if op.p2.is_some() != (op.kind.arity() == 2) || op.p2 == Some(op.p1) {
                return Err(serde::Error::msg(format!(
                    "op #{i} has the wrong operands for {}",
                    op.kind
                )));
            }
        }
        Ok(mc)
    }
}

/// Incremental builder for [`MappedCircuit`] that tracks the live layout.
///
/// All compiler back-ends and baselines emit through this builder, which
/// guarantees the layout bookkeeping (each op's logical labels follow the
/// layout replayed through every SWAP before it) by construction.
#[derive(Debug, Clone)]
pub struct MappedCircuitBuilder {
    n_logical: usize,
    n_physical: usize,
    layout: Layout,
    initial: Layout,
    ops: Vec<PhysOp>,
}

impl MappedCircuitBuilder {
    /// Starts a mapped circuit from `initial` placement.
    pub fn new(initial: Layout) -> Self {
        MappedCircuitBuilder {
            n_logical: initial.n_logical(),
            n_physical: initial.n_physical(),
            layout: initial.clone(),
            initial,
            ops: Vec::new(),
        }
    }

    /// The live layout (placement right now).
    #[inline]
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Ops emitted so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if nothing has been emitted.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Emits a single-qubit gate on the *logical* qubit `l` (resolved to its
    /// current physical location).
    pub fn push_1q_logical(&mut self, kind: GateKind, l: LogicalQubit) {
        debug_assert_eq!(kind.arity(), 1);
        let p = self.layout.phys(l);
        self.ops.push(PhysOp {
            kind,
            p1: p,
            p2: None,
            l1: Some(l),
            l2: None,
        });
    }

    /// Emits a two-qubit non-SWAP gate between *logical* qubits.
    pub fn push_2q_logical(&mut self, kind: GateKind, a: LogicalQubit, b: LogicalQubit) {
        debug_assert_eq!(kind.arity(), 2);
        debug_assert!(
            !kind.swaps_operands(),
            "use push_swap_phys / push_cphase_swap_phys for layout-moving gates"
        );
        let (p1, p2) = (self.layout.phys(a), self.layout.phys(b));
        self.ops.push(PhysOp {
            kind,
            p1,
            p2: Some(p2),
            l1: Some(a),
            l2: Some(b),
        });
    }

    /// Emits a two-qubit non-SWAP gate between *physical* locations; logical
    /// annotations are taken from the live layout.
    pub fn push_2q_phys(&mut self, kind: GateKind, p1: PhysicalQubit, p2: PhysicalQubit) {
        debug_assert_eq!(kind.arity(), 2);
        debug_assert!(
            !kind.swaps_operands(),
            "use push_swap_phys / push_cphase_swap_phys for layout-moving gates"
        );
        let (l1, l2) = (self.layout.logical(p1), self.layout.logical(p2));
        self.ops.push(PhysOp {
            kind,
            p1,
            p2: Some(p2),
            l1,
            l2,
        });
    }

    /// Emits a single-qubit gate at a *physical* location.
    pub fn push_1q_phys(&mut self, kind: GateKind, p: PhysicalQubit) {
        debug_assert_eq!(kind.arity(), 1);
        let l = self.layout.logical(p);
        self.ops.push(PhysOp {
            kind,
            p1: p,
            p2: None,
            l1: l,
            l2: None,
        });
    }

    /// Emits a fused CPHASE+SWAP interaction ([`GateKind::CphaseSwap`])
    /// between two physical locations and updates the layout (the fused
    /// gate moves its operands exactly like a SWAP).
    pub fn push_cphase_swap_phys(&mut self, k: u32, p1: PhysicalQubit, p2: PhysicalQubit) {
        let (l1, l2) = (self.layout.logical(p1), self.layout.logical(p2));
        self.ops.push(PhysOp {
            kind: GateKind::CphaseSwap { k },
            p1,
            p2: Some(p2),
            l1,
            l2,
        });
        self.layout.swap_phys(p1, p2);
    }

    /// Emits a SWAP between two physical locations and updates the layout.
    pub fn push_swap_phys(&mut self, p1: PhysicalQubit, p2: PhysicalQubit) {
        let (l1, l2) = (self.layout.logical(p1), self.layout.logical(p2));
        self.ops.push(PhysOp {
            kind: GateKind::Swap,
            p1,
            p2: Some(p2),
            l1,
            l2,
        });
        self.layout.swap_phys(p1, p2);
    }

    /// Emits a SWAP between the current locations of two logical qubits.
    pub fn push_swap_logical(&mut self, a: LogicalQubit, b: LogicalQubit) {
        let (p1, p2) = (self.layout.phys(a), self.layout.phys(b));
        self.push_swap_phys(p1, p2);
    }

    /// Finalizes into an immutable [`MappedCircuit`].
    pub fn finish(self) -> MappedCircuit {
        MappedCircuit {
            n_logical: self.n_logical,
            n_physical: self.n_physical,
            initial: self.initial,
            final_layout: self.layout,
            ops: self.ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_depth_asap() {
        let mut c = Circuit::new(3);
        c.push(Gate::h(0));
        c.push(Gate::h(1)); // parallel with H(0)
        c.push(Gate::cphase(2, 0, 1)); // after both
        c.push(Gate::h(2)); // parallel with everything
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn builder_tracks_layout_through_swaps() {
        let mut b = MappedCircuitBuilder::new(Layout::identity(3, 3));
        b.push_swap_phys(PhysicalQubit(0), PhysicalQubit(1));
        b.push_2q_phys(
            GateKind::Cphase { k: 2 },
            PhysicalQubit(1),
            PhysicalQubit(2),
        );
        let mc = b.finish();
        // After the swap, Q1 holds q0, so the CPHASE acts on (q0, q2).
        assert_eq!(
            mc.ops()[1].logical_pair(),
            Some((LogicalQubit(0), LogicalQubit(2)))
        );
        assert_eq!(mc.final_layout().phys(LogicalQubit(0)), PhysicalQubit(1));
        assert_eq!(mc.swap_count(), 1);
    }

    #[test]
    fn uniform_depth_counts_serial_chain() {
        let mut b = MappedCircuitBuilder::new(Layout::identity(2, 2));
        b.push_1q_phys(GateKind::H, PhysicalQubit(0));
        b.push_2q_phys(
            GateKind::Cphase { k: 2 },
            PhysicalQubit(0),
            PhysicalQubit(1),
        );
        b.push_swap_phys(PhysicalQubit(0), PhysicalQubit(1));
        let mc = b.finish();
        assert_eq!(mc.depth_uniform(), 3);
        assert_eq!(mc.two_qubit_depth(), 2);
    }

    #[test]
    fn weighted_depth_uses_latency_fn() {
        let mut b = MappedCircuitBuilder::new(Layout::identity(2, 2));
        b.push_2q_phys(
            GateKind::Cphase { k: 2 },
            PhysicalQubit(0),
            PhysicalQubit(1),
        );
        b.push_swap_phys(PhysicalQubit(0), PhysicalQubit(1));
        let mc = b.finish();
        let d = mc.depth_with(|op| if op.kind == GateKind::Swap { 6 } else { 2 });
        assert_eq!(d, 8);
    }

    #[test]
    fn layers_group_parallel_ops() {
        let mut b = MappedCircuitBuilder::new(Layout::identity(4, 4));
        b.push_2q_phys(
            GateKind::Cphase { k: 2 },
            PhysicalQubit(0),
            PhysicalQubit(1),
        );
        b.push_2q_phys(
            GateKind::Cphase { k: 2 },
            PhysicalQubit(2),
            PhysicalQubit(3),
        );
        b.push_swap_phys(PhysicalQubit(1), PhysicalQubit(2));
        let layers = b.finish().layers_uniform();
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[0].len(), 2);
        assert_eq!(layers[1].len(), 1);
    }
}
