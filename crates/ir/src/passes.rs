//! The pass subsystem: composable rewrites over [`MappedCircuit`]s.
//!
//! Every compiler in the stack — the paper's four analytical mappers and
//! the three search baselines — emits its kernel through a *construct*
//! stage and then hands the circuit to a [`PassManager`] tail. A [`Pass`]
//! is a local, semantics-preserving rewrite (or a pure check); the manager
//! chains passes, timing each one and recording gate/depth/SWAP deltas in
//! a serde-serializable [`PassReport`] so the per-pass breakdown travels
//! with the compile result.
//!
//! The shared concrete passes:
//!
//! * [`CancelAdjacentSwaps`] — peephole: back-to-back SWAPs on the same
//!   physical pair (with nothing touching either qubit in between) compose
//!   to the identity and are deleted;
//! * [`MergeSwapCphase`] — the paper's *combined interaction*: a CPHASE
//!   adjacent to a SWAP on the same pair fuses into one
//!   [`GateKind::CphaseSwap`] two-qubit interaction (CPHASE is diagonal
//!   and symmetric, so it commutes with the SWAP on its own pair and the
//!   fusion is exact);
//! * [`AsapLayering`] — scheduling: stable-reorders the op stream into
//!   uniform ASAP layers (per-qubit order is preserved, so the rewrite is
//!   an identity on semantics and on layout bookkeeping);
//! * [`AqftTruncate`] — approximation: drops every `R_k` rotation with
//!   `k > degree` (Coppersmith's AQFT truncation), demoting fused
//!   [`GateKind::CphaseSwap`] interactions to plain SWAPs so routing
//!   bookkeeping survives;
//! * [`PruneDeadSwapChains`] — cleanup after truncation: removes SWAPs
//!   whose permutation no later surviving op consumes (the routing chains
//!   truncation strands), then recomputes the final layout;
//! * [`CheckLayout`] — verify: [`replay_layout`] replays SWAPs from the
//!   initial layout and checks operand sanity, coupling-graph adjacency
//!   (when the [`PassCtx`] carries an oracle), and the recorded final
//!   layout. Never rewrites. The symbolic verifier in `qft-sim` runs the
//!   same replay.
//!
//! Passes are addressable by name through [`named`] (see [`PASS_NAMES`]),
//! which is how `CompileOptions::extra_passes` strings resolve. The
//! truncation pass is parameterized and resolves from the form
//! `aqft-truncate(degree)`, e.g. `aqft-truncate(3)`.

use crate::circuit::{AnnotatedOp, AsapClock, MappedCircuit, PhysOp, Replay};
use crate::gate::{GateKind, PhysicalQubit};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Instant;

/// Read-only context a pass runs under.
///
/// Lives in `qft-ir`, which knows nothing about device models, so hardware
/// structure enters as an *oracle*: an optional adjacency predicate over
/// physical qubits. Peephole passes never need it (they only rewrite ops in
/// place on pairs that were already adjacent); [`CheckLayout`] uses it to
/// verify hardware compliance when present.
#[derive(Default)]
pub struct PassCtx<'a> {
    adjacent: Option<&'a dyn Fn(PhysicalQubit, PhysicalQubit) -> bool>,
}

impl<'a> PassCtx<'a> {
    /// A context with no device knowledge (adjacency checks are skipped).
    pub fn new() -> Self {
        PassCtx::default()
    }

    /// A context carrying a coupling-graph adjacency oracle.
    pub fn with_adjacency(adjacent: &'a dyn Fn(PhysicalQubit, PhysicalQubit) -> bool) -> Self {
        PassCtx {
            adjacent: Some(adjacent),
        }
    }

    /// Whether an adjacency oracle is available.
    pub fn has_adjacency(&self) -> bool {
        self.adjacent.is_some()
    }

    /// Adjacency of two physical qubits; vacuously true without an oracle.
    pub fn adjacent(&self, a: PhysicalQubit, b: PhysicalQubit) -> bool {
        self.adjacent.map(|f| f(a, b)).unwrap_or(true)
    }
}

impl fmt::Debug for PassCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PassCtx")
            .field("has_adjacency", &self.has_adjacency())
            .finish()
    }
}

/// What one pass did to one circuit: filled in by the pass (`rewrites`,
/// `note`) and completed by the [`PassManager`] (wall time and the
/// before/after op, SWAP, and depth columns).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PassReport {
    /// Registry name of the pass.
    pub pass: String,
    /// Number of rewrites applied (0 = the pass left the circuit alone).
    pub rewrites: usize,
    /// Wall-clock seconds this pass took.
    pub wall_s: f64,
    /// Op count entering the pass.
    pub ops_before: usize,
    /// Op count leaving the pass.
    pub ops_after: usize,
    /// Standalone SWAP count entering the pass.
    pub swaps_before: usize,
    /// Standalone SWAP count leaving the pass.
    pub swaps_after: usize,
    /// Uniform-latency depth entering the pass.
    pub depth_before: u64,
    /// Uniform-latency depth leaving the pass.
    pub depth_after: u64,
    /// Number of `R_k` rotations this pass dropped (only the
    /// [`AqftTruncate`] pass reports a non-zero count; a demoted
    /// `CphaseSwap` counts as one dropped rotation even though the SWAP
    /// half survives).
    pub dropped_rotations: usize,
    /// Free-form annotation from the pass.
    pub note: String,
}

impl PassReport {
    /// A zeroed report for `pass`; the manager fills the delta columns.
    pub fn new(pass: &str) -> Self {
        PassReport {
            pass: pass.to_string(),
            rewrites: 0,
            wall_s: 0.0,
            ops_before: 0,
            ops_after: 0,
            swaps_before: 0,
            swaps_after: 0,
            depth_before: 0,
            depth_after: 0,
            dropped_rotations: 0,
            note: String::new(),
        }
    }

    /// Builder-style: record the number of rewrites.
    pub fn with_rewrites(mut self, rewrites: usize) -> Self {
        self.rewrites = rewrites;
        self
    }

    /// Builder-style: record the number of dropped rotations.
    pub fn with_dropped_rotations(mut self, dropped: usize) -> Self {
        self.dropped_rotations = dropped;
        self
    }

    /// Builder-style: attach an annotation.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }

    /// Whether the pass changed the circuit.
    pub fn changed(&self) -> bool {
        self.rewrites > 0
    }
}

/// A pass failure: the circuit violated an invariant the pass depends on
/// (or, for verify passes, the property being checked).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassError {
    /// Registry name of the failing pass.
    pub pass: String,
    /// What went wrong.
    pub reason: String,
}

impl PassError {
    /// Builds an error for `pass`.
    pub fn new(pass: &str, reason: impl Into<String>) -> Self {
        PassError {
            pass: pass.to_string(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for PassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pass '{}' failed: {}", self.pass, self.reason)
    }
}

impl std::error::Error for PassError {}

/// A compilation pass: a named, reusable rewrite (or check) over a mapped
/// circuit. Implementations must preserve circuit semantics and layout
/// bookkeeping — [`CheckLayout`] is the executable statement of that
/// contract.
///
/// A pass that reports zero `rewrites` must leave the circuit exactly as
/// it found it: the op stream and the final layout. Every named pass
/// keeps this, and [`PassManager::run`] relies on it to carry a report's
/// before-columns forward instead of measuring the stream again (debug
/// builds re-measure and assert the columns agree).
pub trait Pass: Send + Sync {
    /// Registry name (kebab-case, e.g. `"cancel-adjacent-swaps"`).
    fn name(&self) -> &'static str;

    /// One-line description for listings.
    fn description(&self) -> &'static str;

    /// Runs the pass. Returns a report with `rewrites`/`note` filled in
    /// ([`PassManager::run`] completes the timing and delta columns).
    fn run(&self, circuit: &mut MappedCircuit, ctx: &PassCtx) -> Result<PassReport, PassError>;
}

/// An ordered pass pipeline with per-pass accounting.
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// An empty pipeline.
    pub fn new() -> Self {
        PassManager { passes: Vec::new() }
    }

    /// Builder-style: append a pass.
    pub fn with_pass(mut self, pass: Box<dyn Pass>) -> Self {
        self.passes.push(pass);
        self
    }

    /// Appends a pass.
    pub fn push(&mut self, pass: Box<dyn Pass>) {
        self.passes.push(pass);
    }

    /// Names of the registered passes, in run order.
    pub fn names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Number of passes in the pipeline.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// Whether the pipeline is empty.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Runs every pass in order, aborting on the first failure. Each
    /// report's wall time and before/after columns are measured here so
    /// individual passes cannot mis-report them. A pass that reports no
    /// rewrites left the stream as it was (the [`Pass`] contract), so its
    /// after-columns are its before-columns, measured once.
    pub fn run(
        &self,
        circuit: &mut MappedCircuit,
        ctx: &PassCtx,
    ) -> Result<Vec<PassReport>, PassError> {
        let mut reports = Vec::with_capacity(self.passes.len());
        // One pass's "after" is the next one's "before".
        let mut before = None;
        for pass in &self.passes {
            let columns = before.unwrap_or_else(|| measure(circuit));
            let t0 = Instant::now();
            let mut report = pass.run(circuit, ctx)?;
            report.wall_s = t0.elapsed().as_secs_f64();
            let after = if report.changed() {
                measure(circuit)
            } else {
                debug_assert_eq!(
                    measure(circuit),
                    columns,
                    "pass '{}' reported no rewrites but changed the stream",
                    pass.name()
                );
                columns
            };
            report.pass = pass.name().to_string();
            (report.ops_before, report.swaps_before, report.depth_before) = columns;
            (report.ops_after, report.swaps_after, report.depth_after) = after;
            before = Some(after);
            reports.push(report);
        }
        Ok(reports)
    }
}

/// The op count, standalone SWAP count and uniform depth a
/// [`PassReport`] records, from one walk of the stream.
fn measure(circuit: &MappedCircuit) -> (usize, usize, u64) {
    let mut swaps = 0;
    let depth = circuit.asap(
        |_| 1,
        |op, _| swaps += usize::from(op.kind == GateKind::Swap),
    );
    (circuit.ops().len(), swaps, depth)
}

impl fmt::Debug for PassManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PassManager")
            .field("passes", &self.names())
            .finish()
    }
}

/// Names accepted by [`named`], in canonical order. The parameterized
/// truncation pass is additionally accepted as `aqft-truncate(degree)`
/// with `degree >= 1`.
pub const PASS_NAMES: &[&str] = &[
    "cancel-adjacent-swaps",
    "merge-swap-cphase",
    "asap-layering",
    "prune-dead-swap-chains",
    "check-layout",
];

/// Resolves a shared pass by its registry name. Accepts the parameterized
/// form `aqft-truncate(degree)` (e.g. `aqft-truncate(3)`) for the AQFT
/// truncation pass; a missing, zero, or malformed degree fails to resolve.
pub fn named(name: &str) -> Option<Box<dyn Pass>> {
    match name {
        "cancel-adjacent-swaps" => Some(Box::new(CancelAdjacentSwaps)),
        "merge-swap-cphase" => Some(Box::new(MergeSwapCphase)),
        "asap-layering" => Some(Box::new(AsapLayering)),
        "prune-dead-swap-chains" => Some(Box::new(PruneDeadSwapChains)),
        "check-layout" => Some(Box::new(CheckLayout)),
        _ => {
            let degree: u32 = name
                .strip_prefix("aqft-truncate(")?
                .strip_suffix(')')?
                .parse()
                .ok()?;
            (degree >= 1).then(|| Box::new(AqftTruncate { degree }) as Box<dyn Pass>)
        }
    }
}

/// Whether `a` and `b` act on the same unordered physical pair.
fn same_pair(a: &PhysOp, b: &PhysOp) -> bool {
    match (a.p2, b.p2) {
        (Some(a2), Some(b2)) => (a.p1, a2) == (b.p1, b2) || (a.p1, a2) == (b2, b.p1),
        _ => false,
    }
}

/// One scan of a peephole: for each two-qubit op, finds the *previous* op
/// touching either of its qubits (with nothing in between on either), and
/// lets `rewrite` fuse or cancel the pair. Returns rewrites applied.
fn peephole_scan(
    ops: &mut Vec<PhysOp>,
    n_phys: usize,
    mut rewrite: impl FnMut(&PhysOp, &PhysOp) -> Option<Option<PhysOp>>,
) -> usize {
    // last_touch[p] = index in `ops` of the most recent live op touching p.
    let mut last_touch: Vec<Option<usize>> = vec![None; n_phys];
    let mut removed = vec![false; ops.len()];
    let mut rewrites = 0;
    for j in 0..ops.len() {
        let op = ops[j];
        // The candidate is valid only if it is the last op on BOTH qubits
        // (nothing touched either in between) and still live.
        let prev = match (op.p2, last_touch[op.p1.index()]) {
            (Some(p2), Some(i1)) => match last_touch[p2.index()] {
                Some(i2) if i1 == i2 && !removed[i1] => Some(i1),
                _ => None,
            },
            _ => None,
        };
        if let Some(i) = prev {
            if same_pair(&ops[i], &op) {
                if let Some(replacement) = rewrite(&ops[i], &op) {
                    rewrites += 1;
                    match replacement {
                        Some(fused) => {
                            ops[i] = fused;
                            removed[j] = true;
                        }
                        None => {
                            removed[i] = true;
                            removed[j] = true;
                        }
                    }
                }
            }
        }
        for p in op.phys() {
            last_touch[p.index()] = Some(j);
        }
    }
    if rewrites > 0 {
        let mut idx = 0;
        ops.retain(|_| {
            let keep = !removed[idx];
            idx += 1;
            keep
        });
    }
    rewrites
}

/// Peephole: deletes pairs of SWAPs on the same physical pair with nothing
/// touching either qubit in between — their composition is the identity on
/// both state and layout, so removal is exact.
#[derive(Debug, Clone, Copy, Default)]
pub struct CancelAdjacentSwaps;

impl Pass for CancelAdjacentSwaps {
    fn name(&self) -> &'static str {
        "cancel-adjacent-swaps"
    }

    fn description(&self) -> &'static str {
        "delete back-to-back SWAP pairs on the same physical link"
    }

    fn run(&self, circuit: &mut MappedCircuit, _ctx: &PassCtx) -> Result<PassReport, PassError> {
        let mut ops = circuit.take_ops();
        let mut total = 0;
        // Chains (SWAP SWAP SWAP SWAP) cancel across iterations; each scan
        // is O(ops), and real compiler output converges in one.
        loop {
            let n = peephole_scan(&mut ops, circuit.n_physical(), |prev, cur| {
                (prev.kind == GateKind::Swap && cur.kind == GateKind::Swap).then_some(None)
            });
            total += n;
            if n == 0 {
                break;
            }
        }
        circuit.set_ops(ops);
        Ok(PassReport::new(self.name()).with_rewrites(total))
    }
}

/// Peephole: fuses a CPHASE and a SWAP on the same physical pair (with
/// nothing touching either qubit in between) into one
/// [`GateKind::CphaseSwap`] interaction — the paper's combined
/// SWAP+CPhase two-qubit interaction. Both orders fuse: CPHASE is
/// diagonal and symmetric, so it commutes with the SWAP on its own pair.
/// The fused op takes the first op's place, where the pair's occupants
/// are the ones the CPHASE acted on in either order.
#[derive(Debug, Clone, Copy, Default)]
pub struct MergeSwapCphase;

impl Pass for MergeSwapCphase {
    fn name(&self) -> &'static str {
        "merge-swap-cphase"
    }

    fn description(&self) -> &'static str {
        "fuse CPHASE+SWAP on the same link into one combined interaction"
    }

    fn run(&self, circuit: &mut MappedCircuit, _ctx: &PassCtx) -> Result<PassReport, PassError> {
        let mut ops = circuit.take_ops();
        let n_phys = circuit.n_physical();
        let rewrites = peephole_scan(&mut ops, n_phys, |prev, cur| match (prev.kind, cur.kind) {
            // The fused op keeps the FIRST op's position and operands:
            // replay applies the CPHASE and then the swap, which matches
            // either unfused order exactly (the pair's occupants only
            // exchange, and CPHASE is symmetric).
            (GateKind::Cphase { k }, GateKind::Swap) | (GateKind::Swap, GateKind::Cphase { k }) => {
                Some(Some(PhysOp {
                    kind: GateKind::CphaseSwap { k },
                    ..*prev
                }))
            }
            _ => None,
        });
        circuit.set_ops(ops);
        Ok(PassReport::new(self.name()).with_rewrites(rewrites))
    }
}

/// Scheduling: stable-reorders the op stream into uniform-latency ASAP
/// layers (ops within a layer keep their original relative order). The
/// rewrite preserves per-qubit op order, so semantics and layout replay
/// are untouched; it exists to give downstream consumers a
/// layer-contiguous stream and to normalize streams emitted out of
/// schedule order by search-based compilers.
#[derive(Debug, Clone, Copy, Default)]
pub struct AsapLayering;

impl Pass for AsapLayering {
    fn name(&self) -> &'static str {
        "asap-layering"
    }

    fn description(&self) -> &'static str {
        "stable-reorder the op stream into uniform ASAP layers"
    }

    fn run(&self, circuit: &mut MappedCircuit, _ctx: &PassCtx) -> Result<PassReport, PassError> {
        let ops = circuit.ops();
        // The stable sort by start layer is the identity exactly when the
        // start layers never decrease along the stream: one walk over
        // per-qubit ready times decides that without per-op memory.
        let mut clock = AsapClock::new(circuit.n_physical());
        let mut last = 0;
        let ordered = ops.iter().all(|op| {
            let start = clock.place(op, 1);
            let ordered = start >= last;
            last = start;
            ordered
        });
        if ordered {
            return Ok(PassReport::new(self.name()));
        }
        // A stable counting sort: each op's start layer, then each layer's
        // first output slot, then a scatter in stream order (reads run
        // in order; writes append to one slot per layer).
        let mut clock = AsapClock::new(circuit.n_physical());
        let starts: Vec<u32> = ops.iter().map(|op| clock.place(op, 1) as u32).collect();
        let mut next = vec![0u32; clock.depth() as usize + 1];
        for &start in &starts {
            next[start as usize + 1] += 1;
        }
        for layer in 1..next.len() {
            next[layer] += next[layer - 1];
        }
        let mut relaid = ops.to_vec();
        for (op, &start) in ops.iter().zip(&starts) {
            let slot = &mut next[start as usize];
            relaid[*slot as usize] = *op;
            *slot += 1;
        }
        // A position counts as moved when its op differs, annotations
        // included: the count is part of the artifact's pass report.
        let moved = Replay::new(circuit.initial_layout(), &relaid)
            .zip(circuit.replay())
            .filter(|(a, b)| a != b)
            .count();
        if moved > 0 {
            circuit.set_ops(relaid);
        }
        Ok(PassReport::new(self.name()).with_rewrites(moved))
    }
}

/// Approximation: the AQFT truncation of Coppersmith applied *after*
/// mapping. Every `R_k` rotation with `k > degree` is dropped: a plain
/// [`GateKind::Cphase`] op is deleted outright, while a fused
/// [`GateKind::CphaseSwap`] is demoted to a plain SWAP (its rotation is
/// truncated but its routing half still moves qubits, so layout replay is
/// untouched). Rotations kept/dropped match [`crate::qft::aqft_circuit`]
/// exactly; the stranded SWAP chains the deleted rotations leave behind
/// are the business of `cancel-adjacent-swaps` + [`PruneDeadSwapChains`].
#[derive(Debug, Clone, Copy)]
pub struct AqftTruncate {
    /// Keep rotations of order `k <= degree`; must be `>= 1`.
    pub degree: u32,
}

impl Pass for AqftTruncate {
    fn name(&self) -> &'static str {
        "aqft-truncate"
    }

    fn description(&self) -> &'static str {
        "drop R_k rotations with k above the AQFT degree (post-mapping)"
    }

    fn run(&self, circuit: &mut MappedCircuit, _ctx: &PassCtx) -> Result<PassReport, PassError> {
        if self.degree == 0 {
            return Err(PassError::new(
                self.name(),
                "degree 0 would truncate every rotation; use degree >= 1",
            ));
        }
        let mut ops = circuit.take_ops();
        let mut dropped = 0usize;
        ops.retain_mut(|op| match op.kind {
            GateKind::Cphase { k } if k > self.degree => {
                dropped += 1;
                false
            }
            GateKind::CphaseSwap { k } if k > self.degree => {
                dropped += 1;
                op.kind = GateKind::Swap;
                true
            }
            _ => true,
        });
        circuit.set_ops(ops);
        Ok(PassReport::new(self.name())
            .with_rewrites(dropped)
            .with_dropped_rotations(dropped)
            .with_note(format!("degree {}", self.degree)))
    }
}

/// Cleanup: removes routing whose only consumer was truncated away. A
/// backward liveness scan keeps a SWAP only if some later surviving op
/// touches either of its physical qubits — otherwise its permutation is
/// never consumed and the SWAP (and transitively the whole stranded chain)
/// is deleted. The recorded final layout is recomputed from the shortened
/// stream, so `check-layout` still gates the result.
///
/// Dropping a trailing SWAP changes where logical qubits *end up*, not the
/// logical state, and the final layout is part of the artifact — so this
/// is exact under the same convention the rest of the stack uses (SWAPs
/// are routing, consumers read out through `final_layout`).
#[derive(Debug, Clone, Copy, Default)]
pub struct PruneDeadSwapChains;

impl Pass for PruneDeadSwapChains {
    fn name(&self) -> &'static str {
        "prune-dead-swap-chains"
    }

    fn description(&self) -> &'static str {
        "delete SWAPs whose permutation no later op consumes"
    }

    fn run(&self, circuit: &mut MappedCircuit, _ctx: &PassCtx) -> Result<PassReport, PassError> {
        let mut ops = circuit.take_ops();
        let mut live = vec![false; circuit.n_physical()];
        let mut keep = vec![true; ops.len()];
        let mut removed = 0usize;
        for (i, op) in ops.iter().enumerate().rev() {
            let consumed = op.phys().any(|p| live[p.index()]);
            if op.kind == GateKind::Swap && !consumed {
                keep[i] = false;
                removed += 1;
            } else {
                for p in op.phys() {
                    live[p.index()] = true;
                }
            }
        }
        if removed > 0 {
            let mut idx = 0;
            ops.retain(|_| {
                let k = keep[idx];
                idx += 1;
                k
            });
            circuit.set_ops(ops);
            circuit.recompute_final_layout();
        } else {
            circuit.set_ops(ops);
        }
        Ok(PassReport::new(self.name()).with_rewrites(removed))
    }
}

/// The first defect [`replay_layout`] meets; its `Display` is the reason
/// the `check-layout` pass fails with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// An op (index, what is wrong) with the wrong operand count for its
    /// gate kind, or naming one qubit twice.
    Malformed(usize, String),
    /// A two-qubit op (index, operands) the adjacency oracle rejects.
    NonAdjacent(usize, PhysicalQubit, PhysicalQubit),
    /// The recorded final layout is not what the replay produces.
    FinalLayoutMismatch,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Malformed(i, what) => write!(f, "op #{i} {what}"),
            ReplayError::NonAdjacent(i, a, b) => {
                write!(f, "op #{i} spans non-adjacent qubits {a} and {b}")
            }
            ReplayError::FinalLayoutMismatch => {
                f.write_str("final layout does not match SWAP replay")
            }
        }
    }
}

/// What a successful [`replay_layout`] counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayCounts {
    /// Two-qubit ops checked against the adjacency oracle.
    pub two_qubit_ops: usize,
    /// Standalone SWAPs replayed (fused `CPHASE+SWAP`s move the layout
    /// too but are not counted).
    pub swaps: usize,
}

/// The layout check behind [`CheckLayout`] and the symbolic verifier: one
/// pass of [`MappedCircuit::replay`] that checks every op's operands
/// (arity, no self-loops), two-qubit adjacency under the context's oracle,
/// and that the replay ends at the recorded final layout. Each op that
/// passes is handed to `visit`, in stream order, so a caller checks more
/// in the same walk (the symbolic verifier tallies the QFT order).
pub fn replay_layout(
    circuit: &MappedCircuit,
    ctx: &PassCtx,
    mut visit: impl FnMut(&AnnotatedOp),
) -> Result<ReplayCounts, ReplayError> {
    let mut replay = circuit.replay();
    let (mut two_qubit_ops, mut swaps) = (0, 0);
    for (i, op) in replay.by_ref().enumerate() {
        let malformed = |what: String| Err(ReplayError::Malformed(i, what));
        match op.p2 {
            None if op.kind.arity() != 1 => {
                return malformed(format!("({}) lacks a second operand", op.kind))
            }
            None => {}
            Some(_) if op.kind.arity() != 2 => {
                return malformed(format!("({}) has a spurious operand", op.kind))
            }
            Some(p2) if p2 == op.p1 => return malformed(format!("acts twice on {p2}")),
            Some(p2) => {
                two_qubit_ops += 1;
                if !ctx.adjacent(op.p1, p2) {
                    return Err(ReplayError::NonAdjacent(i, op.p1, p2));
                }
                swaps += usize::from(op.kind == GateKind::Swap);
            }
        }
        visit(&op);
    }
    if &replay.into_final_layout() != circuit.final_layout() {
        return Err(ReplayError::FinalLayoutMismatch);
    }
    Ok(ReplayCounts {
        two_qubit_ops,
        swaps,
    })
}

/// Verify: runs [`replay_layout`] — operand shapes, adjacency under the
/// context's oracle (vacuous without one), and the recorded final layout.
/// Logical annotations are derived by the same replay, so there are none
/// to get wrong. Never rewrites; failing any check is a [`PassError`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckLayout;

impl Pass for CheckLayout {
    fn name(&self) -> &'static str {
        "check-layout"
    }

    fn description(&self) -> &'static str {
        "replay SWAPs and verify operands, adjacency, and final layout"
    }

    fn run(&self, circuit: &mut MappedCircuit, ctx: &PassCtx) -> Result<PassReport, PassError> {
        replay_layout(circuit, ctx, |_| {})
            .map_err(|e| PassError::new(self.name(), e.to_string()))?;
        let note = format!(
            "{} ops checked{}",
            circuit.ops().len(),
            if ctx.has_adjacency() {
                " (with adjacency)"
            } else {
                ""
            }
        );
        Ok(PassReport::new(self.name()).with_note(note))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::MappedCircuitBuilder;
    use crate::gate::LogicalQubit;
    use crate::layout::Layout;

    fn p(i: u32) -> PhysicalQubit {
        PhysicalQubit(i)
    }

    /// H(0); CP(0,1); SWAP(0,1); SWAP(0,1); CP(1,2) — the double SWAP is
    /// redundant.
    fn with_redundant_swaps() -> MappedCircuit {
        let mut b = MappedCircuitBuilder::new(Layout::identity(3, 3));
        b.push_1q_phys(GateKind::H, p(0));
        b.push_2q_phys(GateKind::Cphase { k: 2 }, p(0), p(1));
        b.push_swap_phys(p(0), p(1));
        b.push_swap_phys(p(0), p(1));
        b.push_2q_phys(GateKind::Cphase { k: 2 }, p(1), p(2));
        b.finish()
    }

    #[test]
    fn cancel_removes_redundant_swap_pairs() {
        let mut mc = with_redundant_swaps();
        let report = CancelAdjacentSwaps.run(&mut mc, &PassCtx::new()).unwrap();
        assert_eq!(report.rewrites, 1);
        assert_eq!(mc.ops().len(), 3);
        assert_eq!(mc.swap_count(), 0);
        CheckLayout.run(&mut mc, &PassCtx::new()).unwrap();
    }

    #[test]
    fn cancel_handles_chains() {
        let mut b = MappedCircuitBuilder::new(Layout::identity(2, 2));
        for _ in 0..4 {
            b.push_swap_phys(p(0), p(1));
        }
        let mut mc = b.finish();
        let report = CancelAdjacentSwaps.run(&mut mc, &PassCtx::new()).unwrap();
        assert_eq!(report.rewrites, 2);
        assert!(mc.ops().is_empty());
        CheckLayout.run(&mut mc, &PassCtx::new()).unwrap();
    }

    #[test]
    fn cancel_leaves_interleaved_swaps_alone() {
        // SWAP(0,1); CP(1,2); SWAP(0,1): the CP touches Q1 in between.
        let mut b = MappedCircuitBuilder::new(Layout::identity(3, 3));
        b.push_swap_phys(p(0), p(1));
        b.push_2q_phys(GateKind::Cphase { k: 2 }, p(1), p(2));
        b.push_swap_phys(p(0), p(1));
        let mut mc = b.finish();
        let report = CancelAdjacentSwaps.run(&mut mc, &PassCtx::new()).unwrap();
        assert_eq!(report.rewrites, 0);
        assert_eq!(mc.ops().len(), 3);
    }

    #[test]
    fn merge_fuses_cphase_then_swap() {
        // CP(0,1); SWAP(0,1) fuses; the unrelated CP(1,2) stays.
        let mut b = MappedCircuitBuilder::new(Layout::identity(3, 3));
        b.push_2q_phys(GateKind::Cphase { k: 3 }, p(0), p(1));
        b.push_swap_phys(p(0), p(1));
        b.push_2q_phys(GateKind::Cphase { k: 2 }, p(1), p(2));
        let mut mc = b.finish();
        let report = MergeSwapCphase.run(&mut mc, &PassCtx::new()).unwrap();
        assert_eq!(report.rewrites, 1);
        assert_eq!(mc.ops().len(), 2);
        assert_eq!(mc.ops()[0].kind, GateKind::CphaseSwap { k: 3 });
        assert_eq!(mc.swap_count(), 0);
        assert_eq!(mc.cphase_count(), 2);
        CheckLayout.run(&mut mc, &PassCtx::new()).unwrap();
    }

    #[test]
    fn merge_fuses_swap_then_cphase() {
        let mut b = MappedCircuitBuilder::new(Layout::identity(2, 2));
        b.push_swap_phys(p(0), p(1));
        b.push_2q_phys(GateKind::Cphase { k: 2 }, p(1), p(0));
        let mut mc = b.finish();
        let report = MergeSwapCphase.run(&mut mc, &PassCtx::new()).unwrap();
        assert_eq!(report.rewrites, 1);
        assert_eq!(mc.ops().len(), 1);
        assert_eq!(mc.ops()[0].kind, GateKind::CphaseSwap { k: 2 });
        // The fused op replays with the SWAP's (pre-exchange) occupants.
        let fused = mc.replay().next().unwrap();
        assert_eq!(
            (fused.l1, fused.l2),
            (Some(LogicalQubit(0)), Some(LogicalQubit(1)))
        );
        CheckLayout.run(&mut mc, &PassCtx::new()).unwrap();
    }

    #[test]
    fn merge_respects_intervening_ops() {
        // CP(0,1); H at Q1; SWAP(0,1): H breaks the window.
        let mut b = MappedCircuitBuilder::new(Layout::identity(2, 2));
        b.push_2q_phys(GateKind::Cphase { k: 2 }, p(0), p(1));
        b.push_1q_phys(GateKind::H, p(1));
        b.push_swap_phys(p(0), p(1));
        let mut mc = b.finish();
        let report = MergeSwapCphase.run(&mut mc, &PassCtx::new()).unwrap();
        assert_eq!(report.rewrites, 0);
        assert_eq!(mc.ops().len(), 3);
    }

    #[test]
    fn asap_layering_moves_parallel_ops_together() {
        // CP(0,1); SWAP(0,1); CP(2,3): the last op is independent and
        // belongs in layer 0, ahead of the SWAP.
        let mut b = MappedCircuitBuilder::new(Layout::identity(4, 4));
        b.push_2q_phys(GateKind::Cphase { k: 2 }, p(0), p(1));
        b.push_swap_phys(p(0), p(1));
        b.push_2q_phys(GateKind::Cphase { k: 2 }, p(2), p(3));
        let mut mc = b.finish();
        let before_pairs: Vec<_> = mc.ops().iter().map(|o| (o.p1, o.p2)).collect();
        let report = AsapLayering.run(&mut mc, &PassCtx::new()).unwrap();
        assert!(report.rewrites > 0);
        let after_pairs: Vec<_> = mc.ops().iter().map(|o| (o.p1, o.p2)).collect();
        assert_ne!(before_pairs, after_pairs);
        assert_eq!(mc.depth_uniform(), 2);
        CheckLayout.run(&mut mc, &PassCtx::new()).unwrap();
    }

    /// H(0); CP2(0,1); CPSWAP3(1,2); SWAP(0,1) — mixed rotation orders with
    /// a fused interaction and a trailing SWAP.
    fn with_mixed_rotations() -> MappedCircuit {
        let mut b = MappedCircuitBuilder::new(Layout::identity(3, 3));
        b.push_1q_phys(GateKind::H, p(0));
        b.push_2q_phys(GateKind::Cphase { k: 2 }, p(0), p(1));
        b.push_cphase_swap_phys(3, p(1), p(2));
        b.push_swap_phys(p(0), p(1));
        b.finish()
    }

    #[test]
    fn aqft_truncate_drops_high_orders_and_demotes_fused_ops() {
        let mut mc = with_mixed_rotations();
        let report = AqftTruncate { degree: 2 }
            .run(&mut mc, &PassCtx::new())
            .unwrap();
        assert_eq!(report.dropped_rotations, 1);
        assert_eq!(report.rewrites, 1);
        // The k=3 CphaseSwap lost its rotation but kept its SWAP half.
        assert_eq!(mc.ops()[2].kind, GateKind::Swap);
        assert_eq!(mc.cphase_count(), 1);
        // Layout replay is untouched by the demotion.
        CheckLayout.run(&mut mc, &PassCtx::new()).unwrap();
    }

    #[test]
    fn aqft_truncate_is_idempotent_and_noop_above_max_order() {
        let mut mc = with_mixed_rotations();
        let orig_final = mc.final_layout().clone();
        AqftTruncate { degree: 9 }
            .run(&mut mc, &PassCtx::new())
            .unwrap();
        assert_eq!(
            mc.ops(),
            with_mixed_rotations().ops(),
            "degree 9 is a no-op"
        );
        let mut once = with_mixed_rotations();
        AqftTruncate { degree: 2 }
            .run(&mut once, &PassCtx::new())
            .unwrap();
        let mut twice = once.clone();
        let second = AqftTruncate { degree: 2 }
            .run(&mut twice, &PassCtx::new())
            .unwrap();
        assert_eq!(second.dropped_rotations, 0);
        assert_eq!(once.ops(), twice.ops());
        assert_eq!(&orig_final, once.final_layout());
    }

    #[test]
    fn aqft_truncate_rejects_degree_zero() {
        let mut mc = with_mixed_rotations();
        let err = AqftTruncate { degree: 0 }
            .run(&mut mc, &PassCtx::new())
            .unwrap_err();
        assert!(err.reason.contains("degree 0"), "{err}");
    }

    #[test]
    fn prune_removes_stranded_trailing_chains() {
        // CP(0,1); SWAP(0,1); SWAP(1,2): both SWAPs route toward nothing.
        let mut b = MappedCircuitBuilder::new(Layout::identity(3, 3));
        b.push_2q_phys(GateKind::Cphase { k: 2 }, p(0), p(1));
        b.push_swap_phys(p(0), p(1));
        b.push_swap_phys(p(1), p(2));
        let mut mc = b.finish();
        let report = PruneDeadSwapChains.run(&mut mc, &PassCtx::new()).unwrap();
        assert_eq!(report.rewrites, 2);
        assert_eq!(mc.ops().len(), 1);
        assert_eq!(mc.final_layout(), &Layout::identity(3, 3));
        CheckLayout.run(&mut mc, &PassCtx::new()).unwrap();
    }

    #[test]
    fn prune_keeps_swaps_with_downstream_consumers() {
        // SWAP(0,1); CP(1,2): the SWAP decides which logical qubit the CP
        // touches — it is live routing even though CP doesn't touch Q0.
        let mut b = MappedCircuitBuilder::new(Layout::identity(3, 3));
        b.push_swap_phys(p(0), p(1));
        b.push_2q_phys(GateKind::Cphase { k: 2 }, p(1), p(2));
        let mut mc = b.finish();
        let report = PruneDeadSwapChains.run(&mut mc, &PassCtx::new()).unwrap();
        assert_eq!(report.rewrites, 0);
        assert_eq!(mc.ops().len(), 2);
        CheckLayout.run(&mut mc, &PassCtx::new()).unwrap();
    }

    #[test]
    fn truncate_then_cleanups_compose() {
        // The canonical AQFT tail: truncate, cancel, prune, check.
        let mut b = MappedCircuitBuilder::new(Layout::identity(3, 3));
        b.push_1q_phys(GateKind::H, p(0));
        b.push_2q_phys(GateKind::Cphase { k: 2 }, p(0), p(1));
        b.push_swap_phys(p(0), p(1));
        b.push_2q_phys(GateKind::Cphase { k: 3 }, p(1), p(2)); // truncated
        b.push_swap_phys(p(1), p(2)); // stranded once the k=3 CP is gone
        b.push_1q_phys(GateKind::H, p(0));
        let mut mc = b.finish();
        let pm = PassManager::new()
            .with_pass(Box::new(AqftTruncate { degree: 2 }))
            .with_pass(Box::new(CancelAdjacentSwaps))
            .with_pass(Box::new(PruneDeadSwapChains))
            .with_pass(Box::new(CheckLayout));
        let reports = pm.run(&mut mc, &PassCtx::new()).unwrap();
        assert_eq!(reports[0].dropped_rotations, 1);
        assert_eq!(reports[2].rewrites, 1, "the stranded SWAP(1,2) is pruned");
        // SWAP(0,1) survives: H(q1) at Q0 still consumes its permutation.
        assert_eq!(mc.swap_count(), 1);
        assert_eq!(mc.cphase_count(), 1);
    }

    #[test]
    fn check_layout_rejects_broken_final_layout() {
        let mut mc = with_redundant_swaps();
        let mut ops = mc.ops().to_vec();
        ops.push(PhysOp {
            kind: GateKind::Swap,
            p1: p(0),
            p2: Some(p(1)),
        });
        mc.set_ops(ops);
        let err = CheckLayout.run(&mut mc, &PassCtx::new()).unwrap_err();
        assert!(err.reason.contains("final layout"), "{err}");
    }

    #[test]
    fn check_layout_uses_adjacency_oracle() {
        let mut b = MappedCircuitBuilder::new(Layout::identity(3, 3));
        b.push_2q_phys(GateKind::Cphase { k: 2 }, p(0), p(2));
        let mut mc = b.finish();
        // Without an oracle the op passes; a line oracle rejects it.
        CheckLayout.run(&mut mc, &PassCtx::new()).unwrap();
        let line = |a: PhysicalQubit, b: PhysicalQubit| a.0.abs_diff(b.0) == 1;
        let err = CheckLayout
            .run(&mut mc, &PassCtx::with_adjacency(&line))
            .unwrap_err();
        assert!(err.reason.contains("non-adjacent"), "{err}");
    }

    #[test]
    fn manager_times_and_diffs_every_pass() {
        let mut mc = with_redundant_swaps();
        let pm = PassManager::new()
            .with_pass(Box::new(CancelAdjacentSwaps))
            .with_pass(Box::new(MergeSwapCphase))
            .with_pass(Box::new(CheckLayout));
        let reports = pm.run(&mut mc, &PassCtx::new()).unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].ops_before, 5);
        assert_eq!(reports[0].ops_after, 3);
        assert_eq!(reports[0].swaps_before, 2);
        assert_eq!(reports[0].swaps_after, 0);
        assert!(reports.iter().all(|r| r.wall_s >= 0.0));
        assert!(!reports[2].changed());
        assert_eq!(
            pm.names(),
            vec!["cancel-adjacent-swaps", "merge-swap-cphase", "check-layout"]
        );
    }

    #[test]
    fn named_resolves_every_registered_pass() {
        for name in PASS_NAMES {
            let p = named(name).unwrap_or_else(|| panic!("{name} must resolve"));
            assert_eq!(p.name(), *name);
            assert!(!p.description().is_empty());
        }
        assert!(named("constant-folding").is_none());
        // The parameterized truncation pass resolves with a valid degree...
        let t = named("aqft-truncate(3)").expect("parameterized form must resolve");
        assert_eq!(t.name(), "aqft-truncate");
        // ...and rejects missing, zero, or malformed degrees.
        for bad in [
            "aqft-truncate",
            "aqft-truncate()",
            "aqft-truncate(0)",
            "aqft-truncate(x)",
        ] {
            assert!(named(bad).is_none(), "{bad} must not resolve");
        }
    }

    #[test]
    fn pass_report_roundtrips_through_serde() {
        let mut mc = with_redundant_swaps();
        let pm = PassManager::new().with_pass(Box::new(CancelAdjacentSwaps));
        let reports = pm.run(&mut mc, &PassCtx::new()).unwrap();
        let json = serde_json::to_string(&reports).unwrap();
        let back: Vec<PassReport> = serde_json::from_str(&json).unwrap();
        assert_eq!(reports, back);
    }
}
