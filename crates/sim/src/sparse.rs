//! Sparse matrix-element evaluation: amplitudes in a hash map keyed by
//! basis index, for registers far beyond the dense engines' `2^n` planes.
//!
//! The *projected amplitude evaluator* ([`logical_amplitude`] /
//! [`mapped_physical_amplitude`]) is the one sparse engine. A full QFT
//! output is dense (`2^n` nonzeros), so forward simulation cannot scale;
//! but a *matrix element* `⟨y|C|ψ⟩` can. `u64` keys carry one bit per
//! qubit (so `n ≤ 63`); H branches each key into a pair (merging with
//! destructive-interference cancellation and ε-pruning), X/CNOT permute
//! keys without growth, RZ/CPHASE/the fused CPHASE+SWAP are phase-only,
//! and SWAPs are erased into the slot assignment before the run.
//!
//! Every QFT/AQFT kernel applies exactly one H per qubit, after which that
//! qubit only sees diagonal phases — so the moment a qubit's last
//! branching gate has fired, its bit can be post-selected to the bra's
//! value. The amplitude map therefore never holds more than `2·|ket|`
//! entries (*peak nonzeros stays constant in `n` for the checker probes*:
//! at most [`PEAK_BOUND`]), and one matrix element costs O(gates · |ket|).
//! A dry planning pass computes, for any op stream (logical gate lists or
//! full physical op streams with SWAP routing), where each stored bit is
//! last touched non-diagonally and which bra bit it must land on; the run
//! pass then applies ops and projects on schedule, with a density
//! watchdog that aborts with [`SimError::DensityExceeded`] if a
//! non-sparse circuit/probe combination sneaks through.
//!
//! The equivalence layer on top (`qft_sim::equiv::SparseChecker`) compares
//! these matrix elements against the closed-form AQFT amplitudes of
//! `qft_ir::qft::aqft_basis_amplitude_angle`, giving a reference-free
//! large-n check; `tests/sparse.rs` pins the evaluator's matrix elements
//! against the dense `StateBatch` engine and the `naive` oracle on random
//! programs over the full gate set.

use crate::complex::Complex64;
use crate::error::{SimError, SPARSE_MAX_QUBITS};
use crate::state::{phase_angle, QubitLayout};
use qft_ir::circuit::MappedCircuit;
use qft_ir::gate::{Gate, GateKind};
use std::collections::HashMap;
use std::f64::consts::FRAC_1_SQRT_2;
use std::hash::{BuildHasherDefault, Hasher};

/// Amplitudes below this magnitude are treated as destructive-interference
/// residue and pruned after branching gates (`|a|² < ε²` with ε = 1e-12).
pub const PRUNE_EPSILON: f64 = 1e-12;

/// The largest ket a canonical probe carries ([`probe_pairs`]' superposition
/// probes), and so the ket size the router's density estimate assumes.
pub const MAX_PROBE_TERMS: usize = 6;

/// The documented ceiling on any checker run's peak map occupancy: one
/// branching H live at a time on the largest probe ket. Independent of n —
/// that is the point of the projection-scheduled evaluator.
pub const PEAK_BOUND: usize = 2 * MAX_PROBE_TERMS;

/// A minimal multiply-xor hasher for `u64` basis keys — basis indices are
/// already well-mixed integers, so the default SipHash's DoS hardening
/// buys nothing here and costs ~3× on the map-rebuild hot paths.
#[derive(Default)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, k: u64) {
        // Fibonacci-style multiply then xor-fold the high bits down.
        let h = (self.0 ^ k).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 29);
    }
}

type AmpMap = HashMap<u64, Complex64, BuildHasherDefault<KeyHasher>>;

fn new_map(capacity: usize) -> AmpMap {
    AmpMap::with_capacity_and_hasher(capacity, BuildHasherDefault::default())
}

fn insert_pruned(map: &mut AmpMap, k: u64, a: Complex64) {
    if a.abs2() > PRUNE_EPSILON * PRUNE_EPSILON {
        map.insert(k, a);
    }
}

/// One matrix-element probe: a sparse ket `|ψ⟩ = Σ cᵢ|xᵢ⟩` and a basis bra
/// `⟨y|`. The evaluator computes `⟨y|C|ψ⟩` exactly.
#[derive(Debug, Clone)]
pub struct SparseProbe {
    /// Register width.
    pub n: usize,
    /// The sparse ket terms `(basis index, amplitude)`.
    pub ket: Vec<(u64, Complex64)>,
    /// The bra basis index.
    pub bra: u64,
}

impl SparseProbe {
    /// A pure basis-pair probe `⟨y|·|x⟩`.
    pub fn basis(n: usize, x: u64, y: u64) -> Self {
        SparseProbe {
            n,
            ket: vec![(x, Complex64::ONE)],
            bra: y,
        }
    }

    /// A reproducible random probe: `terms` distinct random basis kets
    /// with normalized random amplitudes, and a random basis bra
    /// (xorshift64*, the same generator family as
    /// [`crate::StateVector::random`]). `terms` is clamped to the `2^n` distinct
    /// keys a small register can offer.
    pub fn random(n: usize, terms: usize, seed: u64) -> Self {
        let terms = if n < 20 {
            terms.min(1usize << n)
        } else {
            terms
        };
        let mut x = seed.wrapping_mul(2685821657736338717).max(1);
        let mut next = move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        };
        let mask = if n >= 64 { u64::MAX } else { (1u64 << n) - 1 };
        let unit = |v: u64| (v >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
        let mut ket: Vec<(u64, Complex64)> = Vec::with_capacity(terms);
        while ket.len() < terms.max(1) {
            let key = next() & mask;
            if ket.iter().all(|&(k, _)| k != key) {
                ket.push((key, Complex64::new(unit(next()), unit(next()))));
            }
        }
        let norm = ket.iter().map(|(_, a)| a.abs2()).sum::<f64>().sqrt();
        for (_, a) in &mut ket {
            *a = a.scale(1.0 / norm);
        }
        SparseProbe {
            n,
            ket,
            bra: next() & mask,
        }
    }
}

/// The canonical matrix-element probe set for an `n`-qubit check:
/// `⟨0|·|0⟩`, `⟨1…1|·|1…1⟩`, `⟨1…1|·|0⟩`, then `n_random` random probes
/// alternating between pure basis pairs and [`MAX_PROBE_TERMS`]-term
/// superposition kets (the superpositions exercise interference between
/// ket branches).
pub fn probe_pairs(n: usize, n_random: usize) -> Vec<SparseProbe> {
    let ones = if n >= 64 { u64::MAX } else { (1u64 << n) - 1 };
    let mut pairs = vec![
        SparseProbe::basis(n, 0, 0),
        SparseProbe::basis(n, ones, ones),
        SparseProbe::basis(n, 0, ones),
    ];
    for seed in 0..n_random as u64 {
        let terms = if seed % 2 == 0 { 1 } else { MAX_PROBE_TERMS };
        pairs.push(SparseProbe::random(n, terms, 2 * seed + 1));
    }
    pairs
}

/// Result of one projected matrix-element evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseRun {
    /// The exact matrix element `⟨y|C|ψ⟩`.
    pub amplitude: Complex64,
    /// Peak amplitude-map occupancy over the run (bounded by `2·|ket|`
    /// for one-H-per-qubit streams — the QFT sparsity invariant).
    pub peak_nonzeros: usize,
}

/// A planned op in *slot* space: SWAPs are already erased into the slot
/// assignment, so the run pass touches keys only.
enum PlanOp {
    /// H — the only density-growing op.
    Branch { mask: u64 },
    /// X — unconditional key-bit flip.
    Flip { mask: u64 },
    /// CNOT — conditional key-bit flip.
    Cnot { control: u64, target: u64 },
    /// RZ / CPHASE / the phase half of CPHASE+SWAP.
    Phase { mask: u64, phase: Complex64 },
}

impl PlanOp {
    /// The slots whose key bit this op can change or branch — the slots
    /// whose projection must wait until after it.
    fn nondiagonal_mask(&self) -> u64 {
        match *self {
            PlanOp::Branch { mask } | PlanOp::Flip { mask } => mask,
            PlanOp::Cnot { target, .. } => target,
            PlanOp::Phase { .. } => 0,
        }
    }
}

/// A fully planned evaluator run: slot-space ops, the projection
/// schedule, and the embedded ket/bra.
struct RunPlan {
    ops: Vec<PlanOp>,
    /// Slots projectable before any op runs (never touched non-diagonally).
    pre_project: u64,
    /// `project_after[t]`: slot mask to post-select right after op `t`.
    project_after: Vec<u64>,
    /// The bra key in slot space (every slot has a defined target bit;
    /// spare slots of a physical replay must end in `|0⟩`).
    bra_key: u64,
    /// The ket terms in slot space.
    ket: Vec<(u64, Complex64)>,
    /// Peak number of concurrently branched, not-yet-projected slots.
    max_open: u32,
}

impl RunPlan {
    /// Builds the plan from slot-space ops plus embedded ket/bra: computes
    /// each slot's last non-diagonal touch (its projection point) and the
    /// peak open-branch count (the density estimate's exponent).
    fn finish(ops: Vec<PlanOp>, ket: Vec<(u64, Complex64)>, bra_key: u64) -> RunPlan {
        let mut last_nondiag: HashMap<u32, usize> = HashMap::new();
        for (t, op) in ops.iter().enumerate() {
            let mut m = op.nondiagonal_mask();
            while m != 0 {
                let slot = m.trailing_zeros();
                last_nondiag.insert(slot, t);
                m &= m - 1;
            }
        }
        let mut project_after = vec![0u64; ops.len()];
        for (&slot, &t) in &last_nondiag {
            project_after[t] |= 1u64 << slot;
        }
        let mut pre_project = u64::MAX;
        for &slot in last_nondiag.keys() {
            pre_project &= !(1u64 << slot);
        }
        // Peak concurrently-open (branched, unprojected) slot count.
        let mut open = 0u64;
        let mut max_open = 0u32;
        for (t, op) in ops.iter().enumerate() {
            if let PlanOp::Branch { mask } = op {
                open |= mask;
                max_open = max_open.max(open.count_ones());
            }
            open &= !project_after[t];
        }
        RunPlan {
            ops,
            pre_project,
            project_after,
            bra_key,
            ket,
            max_open,
        }
    }

    /// Upper bound on the run's peak map occupancy:
    /// `|ket| · 2^max_open`, saturating.
    fn estimated_peak(&self) -> u64 {
        let terms = self.ket.len().max(1) as u64;
        if self.max_open >= 63 {
            u64::MAX
        } else {
            terms.checked_shl(self.max_open).unwrap_or(u64::MAX)
        }
    }

    /// Executes the plan: apply each op, post-select freshly finished
    /// slots against the bra, watchdog the map occupancy.
    fn run(&self, n: usize, density_cap: usize) -> Result<SparseRun, SimError> {
        let mut amps = new_map(self.ket.len() * 2);
        for &(k, a) in &self.ket {
            if k & self.pre_project == self.bra_key & self.pre_project {
                *amps.entry(k).or_insert(Complex64::ZERO) += a;
            }
        }
        let mut peak = amps.len();
        for (t, op) in self.ops.iter().enumerate() {
            match *op {
                PlanOp::Branch { mask } => {
                    let old = std::mem::take(&mut amps);
                    let mut next = new_map(old.len() * 2);
                    for (&k, &a) in &old {
                        if k & mask == 0 {
                            let b = old.get(&(k | mask)).copied().unwrap_or(Complex64::ZERO);
                            insert_pruned(&mut next, k, (a + b).scale(FRAC_1_SQRT_2));
                            insert_pruned(&mut next, k | mask, (a - b).scale(FRAC_1_SQRT_2));
                        } else if !old.contains_key(&(k ^ mask)) {
                            insert_pruned(&mut next, k ^ mask, a.scale(FRAC_1_SQRT_2));
                            insert_pruned(&mut next, k, a.scale(-FRAC_1_SQRT_2));
                        }
                    }
                    amps = next;
                }
                PlanOp::Flip { mask } => {
                    let old = std::mem::take(&mut amps);
                    let mut next = new_map(old.len());
                    for (&k, &a) in &old {
                        next.insert(k ^ mask, a);
                    }
                    amps = next;
                }
                PlanOp::Cnot { control, target } => {
                    let old = std::mem::take(&mut amps);
                    let mut next = new_map(old.len());
                    for (&k, &a) in &old {
                        next.insert(if k & control != 0 { k ^ target } else { k }, a);
                    }
                    amps = next;
                }
                PlanOp::Phase { mask, phase } => {
                    for (k, a) in amps.iter_mut() {
                        if k & mask == mask {
                            *a = *a * phase;
                        }
                    }
                }
            }
            peak = peak.max(amps.len());
            let project = self.project_after[t];
            if project != 0 {
                let want = self.bra_key & project;
                amps.retain(|k, _| k & project == want);
            }
            if amps.len() > density_cap {
                return Err(SimError::DensityExceeded {
                    n,
                    nonzeros: amps.len(),
                    cap: density_cap,
                });
            }
        }
        // Every slot has been projected (either up front or after its
        // last non-diagonal op), so at most the bra key itself survives.
        let amplitude = amps.get(&self.bra_key).copied().unwrap_or(Complex64::ZERO);
        Ok(SparseRun {
            amplitude,
            peak_nonzeros: peak,
        })
    }
}

/// Decodes one gate-like op into the plan, tracking lazy SWAPs in
/// `layout` so emitted ops live in slot space.
fn push_op(
    ops: &mut Vec<PlanOp>,
    layout: &mut QubitLayout,
    kind: GateKind,
    a: usize,
    b: Option<usize>,
) {
    let mask1 = |layout: &QubitLayout, q: usize| layout.mask(q) as u64;
    match (kind, b) {
        (GateKind::H, _) => ops.push(PlanOp::Branch {
            mask: mask1(layout, a),
        }),
        (GateKind::X, _) => ops.push(PlanOp::Flip {
            mask: mask1(layout, a),
        }),
        (GateKind::Rz { k }, _) => ops.push(PlanOp::Phase {
            mask: mask1(layout, a),
            phase: Complex64::from_angle(phase_angle(k)),
        }),
        (GateKind::Cphase { k }, Some(b)) => ops.push(PlanOp::Phase {
            mask: mask1(layout, a) | mask1(layout, b),
            phase: Complex64::from_angle(phase_angle(k)),
        }),
        (GateKind::Swap, Some(b)) => layout.swap(a, b),
        (GateKind::CphaseSwap { k }, Some(b)) => {
            ops.push(PlanOp::Phase {
                mask: mask1(layout, a) | mask1(layout, b),
                phase: Complex64::from_angle(phase_angle(k)),
            });
            layout.swap(a, b);
        }
        (GateKind::Cnot, Some(b)) => ops.push(PlanOp::Cnot {
            control: mask1(layout, a),
            target: mask1(layout, b),
        }),
        _ => unreachable!("malformed op in sparse plan"),
    }
}

/// Refuses registers wider than the `u64` keys can carry.
pub(crate) fn check_width(n: usize) -> Result<(), SimError> {
    if n > SPARSE_MAX_QUBITS {
        Err(SimError::SparseWidthExceeded { n })
    } else {
        Ok(())
    }
}

/// Plans a logical gate stream: slots start as the identity over the
/// probe's qubits; the bra key accounts for any trailing lazy SWAPs.
fn plan_logical(gates: &[Gate], probe: &SparseProbe) -> Result<RunPlan, SimError> {
    check_width(probe.n)?;
    let mut layout = QubitLayout::identity(probe.n);
    let mut ops = Vec::with_capacity(gates.len());
    for g in gates {
        push_op(
            &mut ops,
            &mut layout,
            g.kind,
            g.a.index(),
            g.b.map(|b| b.index()),
        );
    }
    let mut bra_key = 0u64;
    for q in 0..probe.n {
        if probe.bra >> q & 1 == 1 {
            bra_key |= 1u64 << layout.slot_of(q);
        }
    }
    // The initial layout is the identity, so ket keys are already slots.
    Ok(RunPlan::finish(ops, probe.ket.clone(), bra_key))
}

/// Plans a full physical op-stream replay: the ket embeds at the mapped
/// circuit's initial layout (spare physical qubits in `|0⟩`), ops run on
/// their physical operands with SWAPs erased into the slot assignment,
/// and the bra reads logical bits at the final layout (spare slots must
/// land in `|0⟩`, exactly the dense extraction semantics).
fn plan_physical(mc: &MappedCircuit, probe: &SparseProbe) -> Result<RunPlan, SimError> {
    let (n_l, n_p) = (mc.n_logical(), mc.n_physical());
    assert_eq!(probe.n, n_l, "probe width must match the logical register");
    check_width(n_p)?;
    let place = crate::equiv::logical_places(mc.initial_layout(), n_l);
    let ket: Vec<(u64, Complex64)> = probe
        .ket
        .iter()
        .map(|&(x, a)| {
            let mut k = 0u64;
            for (l, &p) in place.iter().enumerate() {
                if x >> l & 1 == 1 {
                    k |= 1u64 << p;
                }
            }
            (k, a)
        })
        .collect();
    let mut layout = QubitLayout::identity(n_p);
    let mut ops = Vec::with_capacity(mc.ops().len());
    for op in mc.ops() {
        push_op(
            &mut ops,
            &mut layout,
            op.kind,
            op.p1.index(),
            op.p2.map(|p| p.index()),
        );
    }
    let final_place = crate::equiv::logical_places(mc.final_layout(), n_l);
    let mut bra_key = 0u64;
    for (l, &p) in final_place.iter().enumerate() {
        if probe.bra >> l & 1 == 1 {
            bra_key |= 1u64 << layout.slot_of(p);
        }
    }
    Ok(RunPlan::finish(ops, ket, bra_key))
}

/// `⟨y|C|ψ⟩` for a logical gate stream `C` on `n` qubits, computed with
/// per-qubit projection scheduling and the given density watchdog cap.
pub fn logical_amplitude(
    n: usize,
    gates: &[Gate],
    probe: &SparseProbe,
    density_cap: usize,
) -> Result<SparseRun, SimError> {
    assert_eq!(probe.n, n, "probe width must match the register");
    plan_logical(gates, probe)?.run(n, density_cap)
}

/// `⟨y|C|ψ⟩` through a mapped circuit's full *physical* op stream —
/// embed at the initial layout, replay every SWAP-routed op, extract at
/// the final layout.
pub fn mapped_physical_amplitude(
    mc: &MappedCircuit,
    probe: &SparseProbe,
    density_cap: usize,
) -> Result<SparseRun, SimError> {
    plan_physical(mc, probe)?.run(mc.n_physical(), density_cap)
}

/// Upper bound on the sparse evaluator's peak map occupancy for the
/// mapped circuit's logical stream with a `terms`-term ket:
/// `terms · 2^B` where `B` is the peak count of concurrently branched,
/// not-yet-projected qubits (1 for every valid QFT/AQFT stream — one H
/// per qubit, diagonals after). This is the content-based signal the
/// `equiv` router uses.
pub fn estimated_peak_nonzeros(mc: &MappedCircuit, terms: usize) -> Result<u64, SimError> {
    let probe = SparseProbe {
        n: mc.n_logical(),
        ket: vec![(0, Complex64::ONE); terms.max(1)],
        bra: 0,
    };
    let gates: Vec<Gate> = mc.logical_interactions().collect();
    Ok(plan_logical(&gates, &probe)?.estimated_peak())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::StateBatch;
    use crate::state::StateVector;
    use qft_ir::qft::qft_circuit;

    const EPS: f64 = 1e-10;

    #[test]
    fn h_twice_cancels_exactly_back_to_one_key() {
        let gates = [Gate::h(1), Gate::h(1)];
        let run = |bra| logical_amplitude(3, &gates, &SparseProbe::basis(3, 0b101, bra), 16);
        let back = run(0b101).unwrap();
        assert!((back.amplitude - Complex64::ONE).abs() < EPS);
        assert_eq!(back.peak_nonzeros, 2);
        // Destructive interference must *remove* the other branch, not
        // leave 1e-16 residue behind.
        assert_eq!(run(0b111).unwrap().amplitude, Complex64::ZERO);
    }

    #[test]
    fn lazy_swap_relabels_without_touching_amplitudes() {
        let gates = [Gate::swap(0, 2)];
        let run = |bra| logical_amplitude(3, &gates, &SparseProbe::basis(3, 0b001, bra), 16);
        let moved = run(0b100).unwrap();
        assert_eq!(moved.amplitude, Complex64::ONE);
        assert_eq!(moved.peak_nonzeros, 1);
        assert_eq!(run(0b001).unwrap().amplitude, Complex64::ZERO);
    }

    #[test]
    fn evaluator_matches_dense_matrix_elements() {
        let n = 5;
        let c = qft_circuit(n);
        for probe in probe_pairs(n, 6) {
            let run = logical_amplitude(n, c.gates(), &probe, 1 << 20).unwrap();
            // Dense: build the ket, run the circuit, read the bra entry.
            let mut amps = vec![Complex64::ZERO; 1 << n];
            for &(k, a) in &probe.ket {
                amps[k as usize] += a;
            }
            let mut dense = StateBatch::from_states(&[StateVector::from_amplitudes(n, amps)]);
            dense.apply_circuit(&c);
            let want = dense.to_states()[0].amplitudes()[probe.bra as usize];
            assert!(
                (run.amplitude.re - want.re).abs() < EPS
                    && (run.amplitude.im - want.im).abs() < EPS,
                "bra {} got {:?} want {want:?}",
                probe.bra,
                run.amplitude
            );
            // The QFT sparsity invariant: one H per qubit + projection
            // keeps the map within 2·|ket|.
            assert!(run.peak_nonzeros <= 2 * probe.ket.len());
        }
    }

    #[test]
    fn watchdog_trips_on_a_tiny_cap() {
        let n = 6;
        let c = qft_circuit(n);
        let probe = SparseProbe::random(n, 8, 3);
        let err = logical_amplitude(n, c.gates(), &probe, 2).unwrap_err();
        assert!(matches!(err, SimError::DensityExceeded { .. }));
    }

    #[test]
    fn width_ceiling_is_enforced() {
        assert!(matches!(
            logical_amplitude(64, &[], &SparseProbe::basis(64, 0, 0), 16),
            Err(SimError::SparseWidthExceeded { n: 64 })
        ));
    }
}
