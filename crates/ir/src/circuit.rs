//! Logical circuits and hardware-mapped circuits.
//!
//! A [`Circuit`] is a gate list on logical qubits with no placement
//! information — the compiler input. A [`MappedCircuit`] is the compiler
//! output: a stream of physical operations together with the initial and
//! final layouts. The logical qubits an op acts on are fixed by the initial
//! layout and the SWAPs before it, so they are derived, not stored:
//! [`MappedCircuit::replay`] is the one place that computes them, for
//! verification, rendering and the artifact encoding alike.

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

/// One operation in a mapped circuit. `p2` is `None` for single-qubit
/// gates. The logical qubits the op acts on come from
/// [`MappedCircuit::replay`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysOp {
    /// Gate kind.
    pub kind: GateKind,
    /// First physical operand.
    pub p1: PhysicalQubit,
    /// Second physical operand, for two-qubit gates.
    pub p2: Option<PhysicalQubit>,
}

impl PhysOp {
    /// Physical operands, in order.
    #[inline]
    pub fn phys(&self) -> impl Iterator<Item = PhysicalQubit> + '_ {
        std::iter::once(self.p1).chain(self.p2)
    }
}

/// An op with the logical qubits its operands held when it executed, as
/// [`MappedCircuit::replay`] yields it; also the op's form in the artifact
/// encoding. An annotation is `None` on a spare (unoccupied) physical
/// qubit and for the missing second operand of a single-qubit gate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnnotatedOp {
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

impl AnnotatedOp {
    /// The op without its annotations.
    #[inline]
    pub(crate) fn op(&self) -> PhysOp {
        PhysOp {
            kind: self.kind,
            p1: self.p1,
            p2: self.p2,
        }
    }

    /// The op's gate on the logical state, if it has one: an H, or the
    /// CPHASE of a plain or fused (`CPHASE+SWAP`) interaction. SWAPs
    /// (identity on the logical state) and ops on spare qubits have none.
    #[inline]
    pub fn logical_gate(&self) -> Option<Gate> {
        match (self.kind, self.l1, self.l2) {
            (GateKind::H, Some(l), _) => Some(Gate::one(GateKind::H, l)),
            (GateKind::Cphase { k } | GateKind::CphaseSwap { k }, Some(a), Some(b)) => {
                Some(Gate::two(GateKind::Cphase { k }, a, b))
            }
            _ => None,
        }
    }
}

/// The SWAP replay of a mapped circuit ([`MappedCircuit::replay`]): an
/// iterator over its ops, each annotated from the layout it executed
/// under, carrying the layout reached so far.
#[derive(Debug, Clone)]
pub struct Replay<'a> {
    ops: std::slice::Iter<'a, PhysOp>,
    layout: Layout,
}

impl<'a> Replay<'a> {
    /// Replays `ops` from the `initial` layout.
    pub(crate) fn new(initial: &Layout, ops: &'a [PhysOp]) -> Self {
        Replay {
            ops: ops.iter(),
            layout: initial.clone(),
        }
    }

    /// Replays the remaining ops and returns the layout after the last.
    pub fn into_final_layout(mut self) -> Layout {
        self.by_ref().for_each(drop);
        self.layout
    }
}

impl Iterator for Replay<'_> {
    type Item = AnnotatedOp;

    #[inline]
    fn next(&mut self) -> Option<AnnotatedOp> {
        let &PhysOp { kind, p1, p2 } = self.ops.next()?;
        let annotated = AnnotatedOp {
            kind,
            p1,
            p2,
            l1: self.layout.logical(p1),
            l2: p2.and_then(|p2| self.layout.logical(p2)),
        };
        if let (true, Some(p2)) = (kind.swaps_operands(), p2) {
            self.layout.swap_phys(p1, p2);
        }
        Some(annotated)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ops.size_hint()
    }
}

/// A hardware-mapped circuit: the compiler's output artifact.
#[derive(Debug, Clone)]
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

    /// Replays the op stream from the initial layout, yielding each op
    /// with the logical qubits its operands held when it executed. This is
    /// the one derivation of the annotations; every reader goes through it.
    pub fn replay(&self) -> Replay<'_> {
        Replay::new(&self.initial, &self.ops)
    }

    /// The logical H/CPHASE gate stream of this circuit, SWAPs dropped and
    /// fused `CPHASE+SWAP` interactions contributing their rotation (the
    /// swap half moves qubits but is identity on the logical state) — the
    /// stream the QFT-order check and every simulator-backed equivalence
    /// check consume.
    pub fn logical_interactions(&self) -> impl Iterator<Item = Gate> + '_ {
        self.replay().filter_map(|op| op.logical_gate())
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
        self.asap(latency, |_, _| {})
    }

    /// The one ASAP schedule: each op starts once every qubit it touches is
    /// free and holds them for `latency(op)` cycles. Hands each op and its
    /// start cycle to `place`, in stream order, and returns the depth.
    pub(crate) fn asap(
        &self,
        latency: impl Fn(&PhysOp) -> u64,
        mut place: impl FnMut(&PhysOp, u64),
    ) -> u64 {
        let mut clock = AsapClock::new(self.n_physical);
        for op in &self.ops {
            place(op, clock.place(op, latency(op)));
        }
        clock.depth()
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
    /// only apply rewrites that leave the replayed final layout unchanged —
    /// a pass that deletes layout-moving ops, like `prune-dead-swap-chains`,
    /// must follow up with [`Self::recompute_final_layout`]. The
    /// [`crate::passes::CheckLayout`] pass verifies this.
    pub fn set_ops(&mut self, ops: Vec<PhysOp>) {
        self.ops = ops;
    }

    /// Re-derives the recorded final layout by [`Self::replay`]. Passes
    /// that *remove* SWAPs whose permutation is never consumed again (the
    /// `prune-dead-swap-chains` cleanup after AQFT truncation) call this so
    /// the final-layout bookkeeping tracks the shortened stream.
    pub fn recompute_final_layout(&mut self) {
        self.final_layout = self.replay().into_final_layout();
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
        let mut layers: Vec<Vec<PhysOp>> = Vec::new();
        self.asap(
            |_| 1,
            |op, start| {
                if layers.len() <= start as usize {
                    layers.resize_with(start as usize + 1, Vec::new);
                }
                layers[start as usize].push(*op);
            },
        );
        layers
    }
}

/// The state of an ASAP schedule: when each physical qubit is next free.
/// [`MappedCircuit::asap`] runs one; a walk that needs two schedules at
/// once, such as [`crate::metrics::Metrics::of`], steps two side by side.
#[derive(Debug, Clone)]
pub(crate) struct AsapClock {
    ready: Vec<u64>,
    depth: u64,
}

impl AsapClock {
    /// A schedule with every one of `n_physical` qubits free at cycle 0.
    pub(crate) fn new(n_physical: usize) -> Self {
        AsapClock {
            ready: vec![0; n_physical],
            depth: 0,
        }
    }

    /// Starts `op` once every qubit it touches is free, holds them for
    /// `latency` cycles, and returns the start cycle.
    #[inline]
    pub(crate) fn place(&mut self, op: &PhysOp, latency: u64) -> u64 {
        let p1 = op.p1.index();
        let start = match op.p2 {
            Some(p2) => {
                let start = self.ready[p1].max(self.ready[p2.index()]);
                self.ready[p2.index()] = start + latency;
                start
            }
            None => self.ready[p1],
        };
        self.ready[p1] = start + latency;
        self.depth = self.depth.max(start + latency);
        start
    }

    /// The schedule's depth so far: the cycle its last op ends.
    pub(crate) fn depth(&self) -> u64 {
        self.depth
    }
}

/// Encodes the artifact with every op's annotations from
/// [`MappedCircuit::replay`], in the field order of the stored-annotation
/// encoding, so the bytes do not depend on how the ops are held in memory.
impl Serialize for MappedCircuit {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"n_logical\":");
        self.n_logical.write_json(out);
        out.push_str(",\"n_physical\":");
        self.n_physical.write_json(out);
        out.push_str(",\"initial\":");
        self.initial.write_json(out);
        out.push_str(",\"final_layout\":");
        self.final_layout.write_json(out);
        out.push_str(",\"ops\":");
        serde::write_seq(out, self.replay());
        out.push('}');
    }
}

/// Decodes an artifact, refusing one that indexing by its own qubit
/// counts could overrun — both layouts must have the declared sizes, and
/// every op must name physical operands below `n_physical` (two distinct
/// ones exactly when its kind is two-qubit) — and one whose logical
/// annotations are not what [`MappedCircuit::replay`] derives. Agreement
/// of the final layout with the replay is left to
/// [`crate::passes::CheckLayout`].
impl Deserialize for MappedCircuit {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let o = v
            .as_object()
            .ok_or_else(|| serde::Error::msg("expected object for MappedCircuit"))?;
        let annotated: Vec<AnnotatedOp> = Deserialize::from_value(serde::field(o, "ops"))?;
        let mc = MappedCircuit {
            n_logical: Deserialize::from_value(serde::field(o, "n_logical"))?,
            n_physical: Deserialize::from_value(serde::field(o, "n_physical"))?,
            initial: Deserialize::from_value(serde::field(o, "initial"))?,
            final_layout: Deserialize::from_value(serde::field(o, "final_layout"))?,
            ops: annotated.iter().map(AnnotatedOp::op).collect(),
        };
        let sized = |l: &Layout| (l.n_logical(), l.n_physical()) == (mc.n_logical, mc.n_physical);
        if !sized(&mc.initial) || !sized(&mc.final_layout) {
            return Err(serde::Error::msg(
                "a layout's sizes differ from the circuit's",
            ));
        }
        for (i, op) in mc.ops.iter().enumerate() {
            if op.phys().any(|p| p.index() >= mc.n_physical) {
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
        if let Some(i) = mc.replay().zip(&annotated).position(|(r, a)| r != *a) {
            return Err(serde::Error::msg(format!(
                "op #{i}'s logical annotations disagree with the SWAP replay"
            )));
        }
        Ok(mc)
    }
}

/// Incremental builder for [`MappedCircuit`] that tracks the live layout,
/// so ops can be placed by logical qubit and the final layout is the one
/// the SWAPs produce. All compiler back-ends and baselines emit through it.
#[derive(Debug, Clone)]
pub struct MappedCircuitBuilder {
    layout: Layout,
    initial: Layout,
    ops: Vec<PhysOp>,
}

impl MappedCircuitBuilder {
    /// Starts a mapped circuit from `initial` placement.
    pub fn new(initial: Layout) -> Self {
        MappedCircuitBuilder {
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

    /// Emits a single-qubit gate on the *logical* qubit `l` (resolved to its
    /// current physical location).
    pub fn push_1q_logical(&mut self, kind: GateKind, l: LogicalQubit) {
        self.push_1q_phys(kind, self.layout.phys(l));
    }

    /// Emits a two-qubit non-SWAP gate between *logical* qubits.
    pub fn push_2q_logical(&mut self, kind: GateKind, a: LogicalQubit, b: LogicalQubit) {
        self.push_2q_phys(kind, self.layout.phys(a), self.layout.phys(b));
    }

    /// Emits a two-qubit non-SWAP gate between *physical* locations.
    pub fn push_2q_phys(&mut self, kind: GateKind, p1: PhysicalQubit, p2: PhysicalQubit) {
        debug_assert_eq!(kind.arity(), 2);
        debug_assert!(
            !kind.swaps_operands(),
            "use push_swap_phys / push_cphase_swap_phys for layout-moving gates"
        );
        self.ops.push(PhysOp {
            kind,
            p1,
            p2: Some(p2),
        });
    }

    /// Emits a single-qubit gate at a *physical* location.
    pub fn push_1q_phys(&mut self, kind: GateKind, p: PhysicalQubit) {
        debug_assert_eq!(kind.arity(), 1);
        self.ops.push(PhysOp {
            kind,
            p1: p,
            p2: None,
        });
    }

    /// Emits a fused CPHASE+SWAP interaction ([`GateKind::CphaseSwap`])
    /// between two physical locations and updates the layout (the fused
    /// gate moves its operands exactly like a SWAP).
    pub fn push_cphase_swap_phys(&mut self, k: u32, p1: PhysicalQubit, p2: PhysicalQubit) {
        self.push_moving(GateKind::CphaseSwap { k }, p1, p2);
    }

    /// Emits a SWAP between two physical locations and updates the layout.
    pub fn push_swap_phys(&mut self, p1: PhysicalQubit, p2: PhysicalQubit) {
        self.push_moving(GateKind::Swap, p1, p2);
    }

    /// Emits a layout-moving two-qubit gate and applies its exchange.
    fn push_moving(&mut self, kind: GateKind, p1: PhysicalQubit, p2: PhysicalQubit) {
        self.ops.push(PhysOp {
            kind,
            p1,
            p2: Some(p2),
        });
        self.layout.swap_phys(p1, p2);
    }

    /// Finalizes into an immutable [`MappedCircuit`].
    pub fn finish(self) -> MappedCircuit {
        MappedCircuit {
            n_logical: self.initial.n_logical(),
            n_physical: self.initial.n_physical(),
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
        let cp = mc.replay().nth(1).unwrap();
        assert_eq!(
            (cp.l1, cp.l2),
            (Some(LogicalQubit(0)), Some(LogicalQubit(2)))
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
