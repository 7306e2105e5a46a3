//! Unitary equivalence: the redundant, simulation-backed cross-check of
//! the symbolic verifier (every kernel must implement the QFT or AQFT).
//!
//! Each simulation tier has one checker. [`ReferenceChecker`] is the
//! dense one: it packs the probe states into a [`StateBatch`] and applies
//! the reference circuit **once**, then streams any number of mapped
//! kernels through the batch — logically (the interaction stream) or by
//! full physical replay (SWAP chains as O(1) relabels). The one-shot
//! checks [`mapped_equals_qft`] / [`mapped_equals_aqft`] are single
//! [`ReferenceChecker`] runs.
//!
//! Above the dense planes sits the **engine-selection layer**:
//! [`plan_tier`] routes each job by circuit content and size (qubit count
//! plus the sparse evaluator's estimated peak density) to the dense tier
//! or the [`crate::sparse`] matrix-element tier, [`mapped_equals_aqft_auto`]
//! executes that choice with a density watchdog that falls back to dense
//! when the sparse map outgrows its cap at an `n` small enough to afford
//! a `2^n` plane, and [`SparseChecker`] is the sparse tier's checker for
//! n = 24–63. When no tier can take the job, the layer reports a
//! descriptive [`SimError::NoEngine`] instead of attempting the
//! allocation.

use crate::batch::StateBatch;
use crate::complex::Complex64;
use crate::error::{SimError, DENSE_QUBIT_CAP, SPARSE_DENSITY_CAP, SPARSE_MAX_QUBITS};
use crate::sparse::{self, SparseProbe, SparseRun};
use crate::state::StateVector;
use qft_ir::circuit::{Circuit, MappedCircuit};
use qft_ir::gate::{Gate, LogicalQubit};
use qft_ir::qft::aqft_basis_amplitude_angle;

/// Fidelity tolerance for equivalence (|⟨a|b⟩|² ≥ 1 − ε).
pub const FIDELITY_EPS: f64 = 1e-9;

/// The physical bit position of each of the first `n_l` logical qubits
/// under `layout` — the embedding/extraction map every physical-replay
/// path shares.
pub(crate) fn logical_places(layout: &qft_ir::layout::Layout, n_l: usize) -> Vec<usize> {
    (0..n_l)
        .map(|l| layout.phys(LogicalQubit(l as u32)).index())
        .collect()
}

/// Whether every per-state fidelity is 1 within [`FIDELITY_EPS`].
fn all_faithful(fidelities: &[f64]) -> bool {
    fidelities.iter().all(|f| (f - 1.0).abs() < FIDELITY_EPS)
}

/// The probe inputs every equivalence check runs over: `|0…0⟩`, `|1…1⟩`,
/// and `n_seeds` reproducible random states.
pub fn probe_states(n: usize, n_seeds: u64) -> Vec<StateVector> {
    let mut inputs: Vec<StateVector> = vec![
        StateVector::basis(n, 0),
        StateVector::basis(n, (1usize << n) - 1),
    ];
    for seed in 0..n_seeds {
        inputs.push(StateVector::random(n, seed * 2 + 1));
    }
    inputs
}

/// The dense checker: the probe inputs are packed and the reference
/// outputs computed **once**, after which any number of mapped kernels
/// can be verified against them — the amortized form the cross-compiler
/// matrix (many kernels, one reference per `(n, degree)`) and the `sim`
/// bench consume.
///
/// Repeated checks reuse one scratch batch per leg (no per-check
/// allocation of the amplitude planes).
#[derive(Debug)]
pub struct ReferenceChecker {
    inputs: Vec<StateVector>,
    base: StateBatch,
    want: StateBatch,
    scratch: StateBatch,
    phys_scratch: StateBatch,
}

impl ReferenceChecker {
    /// Prepares a checker for `reference` over the given probe inputs.
    pub fn new(reference: &Circuit, inputs: Vec<StateVector>) -> Self {
        let base = StateBatch::from_states(&inputs);
        let mut want = base.clone();
        want.apply_circuit(reference);
        ReferenceChecker {
            inputs,
            base,
            want,
            scratch: StateBatch::empty(),
            phys_scratch: StateBatch::empty(),
        }
    }

    /// A checker for the exact `n`-qubit QFT on the standard probe set.
    pub fn for_qft(n: usize, n_seeds: u64) -> Self {
        Self::new(&qft_ir::qft::qft_circuit(n), probe_states(n, n_seeds))
    }

    /// The probe inputs the checker verifies over.
    pub fn inputs(&self) -> &[StateVector] {
        &self.inputs
    }

    /// Per-state fidelity of the mapped kernel's logical stream against
    /// the prepared reference outputs.
    pub fn logical_fidelities(&mut self, mc: &MappedCircuit) -> Vec<f64> {
        assert_eq!(mc.n_logical(), self.base.n_qubits());
        self.scratch.copy_from(&self.base);
        self.scratch.apply_gates(mc.logical_interactions());
        self.scratch.fidelities(&self.want)
    }

    /// Checks the mapped kernel's logical stream (batched, amortized).
    pub fn matches_logical(&mut self, mc: &MappedCircuit) -> bool {
        all_faithful(&self.logical_fidelities(mc))
    }

    /// The one-shot form of [`Self::matches_logical`]: the kernel streams
    /// through the packed probes themselves, so a single check packs the
    /// probes once and copies them once (for the reference outputs).
    fn matches_logical_once(mut self, mc: &MappedCircuit) -> bool {
        assert_eq!(mc.n_logical(), self.base.n_qubits());
        self.base.apply_gates(mc.logical_interactions());
        all_faithful(&self.base.fidelities(&self.want))
    }

    /// Checks the mapped kernel by full physical op-stream replay
    /// ([`StateBatch::replay_physically`]: embed at the initial layout,
    /// fused sweep with lazy SWAPs, extract at the final layout). The
    /// physical and extraction buffers are reused across calls.
    pub fn matches_physically(&mut self, mc: &MappedCircuit) -> bool {
        assert_eq!(mc.n_logical(), self.base.n_qubits());
        self.phys_scratch
            .replay_physically(mc, &self.inputs, &mut self.scratch);
        all_faithful(&self.scratch.fidelities(&self.want))
    }
}

/// Checks that a mapped circuit implements the textbook QFT on `n_seeds`
/// random states (plus `|0…0⟩` and `|1…1⟩`), up to global phase: one
/// [`ReferenceChecker`] run of the kernel's logical stream.
///
/// The reference is the textbook circuit [`qft_ir::qft::qft_circuit`]
/// (equal to `DFT ∘ bit-reverse`; the relation is pinned by
/// `reference.rs`), built once and applied to the whole probe batch.
///
/// Only feasible for small `n` (≤ ~14); larger circuits rely on the
/// symbolic verifier, whose soundness this function cross-validates.
pub fn mapped_equals_qft(mc: &MappedCircuit, n_seeds: u64) -> bool {
    ReferenceChecker::for_qft(mc.n_logical(), n_seeds).matches_logical_once(mc)
}

/// Checks that a mapped circuit implements the degree-`degree` *approximate*
/// QFT (the truncated reference [`qft_ir::qft::aqft_circuit`]) on `n_seeds`
/// random states plus `|0…0⟩` and `|1…1⟩`, up to global phase.
///
/// This is the simulator-backed gate for AQFT kernels, which the symbolic
/// verifier (a full-QFT contract checker) cannot certify. `degree >= n`
/// reduces to [`mapped_equals_qft`]'s contract.
pub fn mapped_equals_aqft(mc: &MappedCircuit, degree: u32, n_seeds: u64) -> bool {
    let n = mc.n_logical();
    ReferenceChecker::new(
        &qft_ir::qft::aqft_circuit(n, degree),
        probe_states(n, n_seeds),
    )
    .matches_logical_once(mc)
}

// ---------------------------------------------------------------------------
// Engine selection: route each job by content and size.
// ---------------------------------------------------------------------------

/// Registers at or below this width route to the dense planes by
/// preference (a `2^14` plane per probe state is ~256 KiB — cheaper and
/// more general than sparse matrix elements). Above it, the sparse tier
/// takes the job whenever the content-based density estimate fits.
pub const DENSE_ROUTE_MAX_QUBITS: usize = 14;

/// Amplitude tolerance for the sparse matrix-element checks, applied to
/// amplitudes *scaled by `2^{n/2}`* (so it is an `n`-independent relative
/// tolerance — raw QFT matrix elements shrink as `2^{-n/2}`).
pub const SPARSE_AMP_EPS: f64 = 1e-9;

/// Which simulation tier [`plan_tier`] selected for a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineTier {
    /// The dense [`StateBatch`] planes (full `2^n` verification).
    Dense,
    /// The sparse matrix-element tier (hash-map engine with projection).
    Sparse,
}

/// Routes a mapped circuit to a simulation tier by content and size:
///
/// 1. `n_physical ≤` [`DENSE_ROUTE_MAX_QUBITS`] → [`EngineTier::Dense`]
///    (full-plane checks are cheap and strictly more general there);
/// 2. otherwise, if the register fits `u64` keys and the circuit's
///    estimated peak density with a `ket_terms`-term probe
///    ([`sparse::estimated_peak_nonzeros`] — `terms · 2^B` for peak
///    branch-depth `B`) fits [`SPARSE_DENSITY_CAP`] → [`EngineTier::Sparse`];
/// 3. otherwise, if `n_physical` still fits [`DENSE_QUBIT_CAP`] →
///    [`EngineTier::Dense`] (expensive but affordable fallback);
/// 4. otherwise [`SimError::NoEngine`], naming both exhausted caps.
pub fn plan_tier(mc: &MappedCircuit, ket_terms: usize) -> Result<EngineTier, SimError> {
    let n_p = mc.n_physical();
    if n_p <= DENSE_ROUTE_MAX_QUBITS {
        return Ok(EngineTier::Dense);
    }
    let estimated = if n_p <= SPARSE_MAX_QUBITS {
        sparse::estimated_peak_nonzeros(mc, ket_terms)?
    } else {
        u64::MAX
    };
    if n_p <= SPARSE_MAX_QUBITS && estimated <= SPARSE_DENSITY_CAP as u64 {
        return Ok(EngineTier::Sparse);
    }
    if n_p <= DENSE_QUBIT_CAP {
        return Ok(EngineTier::Dense);
    }
    Err(SimError::NoEngine {
        n: n_p,
        dense_cap: DENSE_QUBIT_CAP,
        estimated_nonzeros: estimated,
        density_cap: SPARSE_DENSITY_CAP,
    })
}

/// The sparse tier's checker, the analogue of [`ReferenceChecker`]: probe pairs and their
/// reference amplitudes are computed **once** (analytically, for QFT/AQFT
/// references — no `2^n` state, no reference circuit replay), after which
/// any number of mapped kernels can be verified at n = 24–63.
///
/// Matrix elements are compared *up to one global phase per kernel*: the
/// phase is anchored on the probe with the largest reference magnitude
/// (for QFT references, `⟨0|C|0⟩` with `|a| = 2^{-n/2}` always qualifies)
/// and all amplitudes are scaled by `2^{n/2}` before the
/// [`SPARSE_AMP_EPS`] comparison, so the tolerance is width-independent.
#[derive(Debug, Clone)]
pub struct SparseChecker {
    n: usize,
    probes: Vec<SparseProbe>,
    /// Reference amplitudes, pre-scaled by `2^{n/2}`.
    want: Vec<Complex64>,
    peak: usize,
}

impl SparseChecker {
    /// A checker for the exact `n`-qubit QFT over the canonical probe set
    /// ([`sparse::probe_pairs`] with `n_random` random probes).
    pub fn for_qft(n: usize, n_random: usize) -> Result<Self, SimError> {
        // degree = n keeps every rotation: the exact QFT.
        Self::for_aqft(n, n as u32, n_random)
    }

    /// A checker for the degree-`degree` AQFT: reference amplitudes come
    /// from the closed form [`aqft_basis_amplitude_angle`], in `O(n·d)`
    /// per probe term.
    pub fn for_aqft(n: usize, degree: u32, n_random: usize) -> Result<Self, SimError> {
        if n > SPARSE_MAX_QUBITS {
            return Err(SimError::SparseWidthExceeded { n });
        }
        let probes = sparse::probe_pairs(n, n_random);
        let want = probes
            .iter()
            .map(|p| {
                // ⟨y|AQFT_d|ψ⟩ · 2^{n/2} = Σ_t c_t · e^{iθ(x_t, y)}.
                let mut acc = Complex64::ZERO;
                for &(x, a) in &p.ket {
                    acc +=
                        a * Complex64::from_angle(aqft_basis_amplitude_angle(n, degree, x, p.bra));
                }
                acc
            })
            .collect();
        Ok(SparseChecker {
            n,
            probes,
            want,
            peak: 0,
        })
    }

    /// The probe pairs the checker verifies over.
    pub fn probes(&self) -> &[SparseProbe] {
        &self.probes
    }

    /// The largest amplitude-map occupancy any run under this checker has
    /// reached — what the sparsity-bound
    /// tests and `BENCH_sparse.json` report per cell.
    pub fn peak_nonzeros(&self) -> usize {
        self.peak
    }

    /// Compares the evaluated (pre-scaled) amplitudes against the
    /// references, up to one global phase across the whole set.
    fn amplitudes_match(&self, got: &[Complex64]) -> bool {
        // Anchor the global phase on the largest reference magnitude.
        let anchor = (0..self.want.len())
            .max_by(|&a, &b| {
                self.want[a]
                    .abs2()
                    .partial_cmp(&self.want[b].abs2())
                    .expect("reference magnitudes are finite")
            })
            .expect("checker has at least one probe");
        let w = self.want[anchor];
        let phase = if w.abs2() < 1e-12 {
            Complex64::ONE // degenerate reference: no anchor, no alignment
        } else {
            let u = got[anchor] * w.conj();
            let norm = u.abs();
            if (norm / w.abs2() - 1.0).abs() > SPARSE_AMP_EPS {
                return false; // anchor magnitudes already disagree
            }
            u.scale(1.0 / norm)
        };
        got.iter()
            .zip(&self.want)
            .all(|(&g, &w)| (g - phase * w).abs() < SPARSE_AMP_EPS)
    }

    fn run_all<F>(&mut self, mut eval: F) -> Result<bool, SimError>
    where
        F: FnMut(&SparseProbe, usize) -> Result<SparseRun, SimError>,
    {
        let scale = 2.0f64.powf(self.n as f64 / 2.0);
        let mut got = Vec::with_capacity(self.probes.len());
        for i in 0..self.probes.len() {
            let run = eval(&self.probes[i], SPARSE_DENSITY_CAP)?;
            self.peak = self.peak.max(run.peak_nonzeros);
            got.push(run.amplitude.scale(scale));
        }
        Ok(self.amplitudes_match(&got))
    }

    /// Checks the mapped kernel's *logical* interaction stream against the
    /// reference amplitudes. `Err` means the sparse tier could not finish
    /// (density watchdog) — not inequivalence.
    pub fn matches_logical(&mut self, mc: &MappedCircuit) -> Result<bool, SimError> {
        assert_eq!(mc.n_logical(), self.n);
        let gates: Vec<Gate> = mc.logical_interactions().collect();
        let n = self.n;
        self.run_all(|p, cap| sparse::logical_amplitude(n, &gates, p, cap))
    }

    /// Checks the mapped kernel by full *physical* op-stream replay (SWAP
    /// routing, fused interactions, spare qubits and all).
    pub fn matches_physically(&mut self, mc: &MappedCircuit) -> Result<bool, SimError> {
        assert_eq!(mc.n_logical(), self.n);
        self.run_all(|p, cap| sparse::mapped_physical_amplitude(mc, p, cap))
    }
}

/// Auto-routed AQFT equivalence (`degree ≥ n` is the exact-QFT
/// contract): [`plan_tier`] picks the tier — a [`ReferenceChecker`] run on
/// the dense planes, or a [`SparseChecker`] physical replay on the sparse
/// tier. A sparse run that trips the density watchdog falls back to the
/// dense planes when `n_physical` fits [`DENSE_QUBIT_CAP`], and the error
/// propagates only when no tier can take the job.
pub fn mapped_equals_aqft_auto(
    mc: &MappedCircuit,
    degree: u32,
    n_seeds: u64,
) -> Result<bool, SimError> {
    // Sparse probes branch each ket term once per H; superposition probes
    // carry 6 terms, so that is the density estimate's ket size.
    match plan_tier(mc, 6)? {
        EngineTier::Dense => Ok(mapped_equals_aqft(mc, degree, n_seeds)),
        EngineTier::Sparse => {
            let sparse = SparseChecker::for_aqft(mc.n_logical(), degree, n_seeds as usize)
                .and_then(|mut checker| checker.matches_physically(mc));
            match sparse {
                Err(SimError::DensityExceeded { .. }) if mc.n_physical() <= DENSE_QUBIT_CAP => {
                    // Watchdog fallback: the content estimate was wrong
                    // but a dense plane is still affordable at this n.
                    Ok(mapped_equals_aqft(mc, degree, n_seeds))
                }
                other => other,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qft_ir::circuit::MappedCircuitBuilder;
    use qft_ir::gate::{GateKind, PhysicalQubit};
    use qft_ir::layout::Layout;

    fn p(i: u32) -> PhysicalQubit {
        PhysicalQubit(i)
    }

    fn line_qft3() -> MappedCircuit {
        // The same valid 3-qubit line QFT as in symbolic.rs tests.
        let mut b = MappedCircuitBuilder::new(Layout::identity(3, 3));
        b.push_1q_phys(GateKind::H, p(0));
        b.push_2q_phys(GateKind::Cphase { k: 2 }, p(0), p(1));
        b.push_swap_phys(p(0), p(1));
        b.push_2q_phys(GateKind::Cphase { k: 3 }, p(1), p(2));
        b.push_1q_phys(GateKind::H, p(0));
        b.push_swap_phys(p(1), p(2));
        b.push_2q_phys(GateKind::Cphase { k: 2 }, p(0), p(1));
        b.push_1q_phys(GateKind::H, p(1));
        b.finish()
    }

    #[test]
    fn swap_reordered_qft3_is_equivalent() {
        assert!(mapped_equals_qft(&line_qft3(), 4));
    }

    #[test]
    fn physical_replay_matches_logical_replay() {
        let mc = line_qft3();
        let inputs: Vec<StateVector> = [1u64, 5, 9]
            .iter()
            .map(|&seed| StateVector::random(3, seed))
            .collect();
        let mut logical = StateBatch::from_states(&inputs);
        logical.apply_gates(mc.logical_interactions());
        let (mut phys, mut physical) = (StateBatch::empty(), StateBatch::empty());
        phys.replay_physically(&mc, &inputs, &mut physical);
        assert!(all_faithful(&physical.fidelities(&logical)));
        assert!(ReferenceChecker::for_qft(3, 3).matches_physically(&mc));
    }

    #[test]
    fn truncated_line_kernel_matches_aqft_reference() {
        // The 3-qubit line QFT with its k=3 rotation truncated (degree 2):
        // the SWAP chain that routed q0 to meet q2 stays, the rotation goes.
        let mut b = MappedCircuitBuilder::new(Layout::identity(3, 3));
        b.push_1q_phys(GateKind::H, p(0));
        b.push_2q_phys(GateKind::Cphase { k: 2 }, p(0), p(1));
        b.push_swap_phys(p(0), p(1));
        b.push_1q_phys(GateKind::H, p(0));
        b.push_swap_phys(p(1), p(2));
        b.push_2q_phys(GateKind::Cphase { k: 2 }, p(0), p(1));
        b.push_1q_phys(GateKind::H, p(1));
        let mc = b.finish();
        assert!(mapped_equals_aqft(&mc, 2, 4));
        // It is NOT the full QFT, and not a degree-3 AQFT either.
        assert!(!mapped_equals_qft(&mc, 2));
        assert!(!mapped_equals_aqft(&mc, 3, 2));
    }

    #[test]
    fn full_kernel_matches_aqft_at_or_above_n() {
        let mc = line_qft3();
        assert!(mapped_equals_aqft(&mc, 3, 2));
        assert!(mapped_equals_aqft(&mc, 17, 2));
        assert!(!mapped_equals_aqft(&mc, 2, 2));
    }

    #[test]
    fn wrong_angle_fails_equivalence() {
        let mut b = MappedCircuitBuilder::new(Layout::identity(2, 2));
        b.push_1q_phys(GateKind::H, p(0));
        b.push_2q_phys(GateKind::Cphase { k: 5 }, p(0), p(1)); // should be k=2
        b.push_1q_phys(GateKind::H, p(1));
        assert!(!mapped_equals_qft(&b.finish(), 2));
    }

    #[test]
    fn missing_interaction_fails_equivalence() {
        let mut b = MappedCircuitBuilder::new(Layout::identity(2, 2));
        b.push_1q_phys(GateKind::H, p(0));
        b.push_1q_phys(GateKind::H, p(1));
        assert!(!mapped_equals_qft(&b.finish(), 2));
    }

    /// The identity-layout mapped form of the textbook QFT (no routing;
    /// all-to-all), for exercising the sparse tier at arbitrary widths.
    fn trivially_mapped_qft(n: usize) -> MappedCircuit {
        let mut b = MappedCircuitBuilder::new(Layout::identity(n, n));
        for g in qft_ir::qft::qft_circuit(n).gates() {
            match g.kind {
                GateKind::H => b.push_1q_phys(GateKind::H, p(g.a.0)),
                GateKind::Cphase { k } => {
                    b.push_2q_phys(GateKind::Cphase { k }, p(g.a.0), p(g.b.unwrap().0))
                }
                _ => unreachable!(),
            }
        }
        b.finish()
    }

    #[test]
    fn analytic_aqft_amplitudes_match_dense_reference() {
        // The closed form behind the sparse checker equals brute-force
        // dense simulation of the truncated circuit, entry by entry.
        for n in [3usize, 5] {
            for degree in [2u32, n as u32] {
                let basis: Vec<StateVector> =
                    (0..1usize << n).map(|x| StateVector::basis(n, x)).collect();
                let mut batch = StateBatch::from_states(&basis);
                batch.apply_circuit(&qft_ir::qft::aqft_circuit(n, degree));
                let scale = 2.0f64.powf(n as f64 / 2.0);
                for (x, out) in batch.to_states().iter().enumerate() {
                    for (y, got) in out.amplitudes().iter().enumerate() {
                        let theta = aqft_basis_amplitude_angle(n, degree, x as u64, y as u64);
                        let want = Complex64::from_angle(theta).scale(1.0 / scale);
                        assert!(
                            (got.re - want.re).abs() < 1e-12 && (got.im - want.im).abs() < 1e-12,
                            "n={n} d={degree} x={x} y={y}: got {got:?} want {want:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn plan_tier_routes_by_size_and_content() {
        // Small registers stay dense regardless of content.
        assert_eq!(plan_tier(&line_qft3(), 6).unwrap(), EngineTier::Dense);
        // Past the dense-preference width, a QFT stream's density
        // estimate (2 × ket terms) easily fits the sparse cap.
        let wide = trivially_mapped_qft(20);
        assert_eq!(plan_tier(&wide, 6).unwrap(), EngineTier::Sparse);
        // Beyond both the u64-key ceiling and the dense cap: no tier.
        let huge = MappedCircuitBuilder::new(Layout::identity(70, 70)).finish();
        assert!(matches!(
            plan_tier(&huge, 6),
            Err(SimError::NoEngine { n: 70, .. })
        ));
    }

    #[test]
    fn sparse_checker_agrees_with_dense_checker_on_small_kernels() {
        let mc = line_qft3();
        let mut checker = SparseChecker::for_qft(3, 6).unwrap();
        assert!(checker.matches_logical(&mc).unwrap());
        assert!(checker.matches_physically(&mc).unwrap());
        // Probe runs stay within the 2·|ket| sparsity bound.
        assert!(checker.peak_nonzeros() <= 12);
        // A wrong-angle kernel is rejected, same as the dense checker.
        let mut b = MappedCircuitBuilder::new(Layout::identity(2, 2));
        b.push_1q_phys(GateKind::H, p(0));
        b.push_2q_phys(GateKind::Cphase { k: 5 }, p(0), p(1));
        b.push_1q_phys(GateKind::H, p(1));
        let wrong = b.finish();
        let mut checker2 = SparseChecker::for_qft(2, 6).unwrap();
        assert!(!checker2.matches_physically(&wrong).unwrap());
    }

    #[test]
    fn sparse_checker_detects_truncation_degree() {
        // Degree-2 truncated 3-qubit kernel (from the dense test above).
        let mut b = MappedCircuitBuilder::new(Layout::identity(3, 3));
        b.push_1q_phys(GateKind::H, p(0));
        b.push_2q_phys(GateKind::Cphase { k: 2 }, p(0), p(1));
        b.push_swap_phys(p(0), p(1));
        b.push_1q_phys(GateKind::H, p(0));
        b.push_swap_phys(p(1), p(2));
        b.push_2q_phys(GateKind::Cphase { k: 2 }, p(0), p(1));
        b.push_1q_phys(GateKind::H, p(1));
        let mc = b.finish();
        let verdict = |mut checker: SparseChecker| checker.matches_physically(&mc).unwrap();
        assert!(verdict(SparseChecker::for_aqft(3, 2, 6).unwrap()));
        assert!(!verdict(SparseChecker::for_qft(3, 6).unwrap()));
        assert!(!verdict(SparseChecker::for_aqft(3, 3, 6).unwrap()));
    }

    #[test]
    fn sparse_tier_verifies_a_large_register_end_to_end() {
        // n = 20 is beyond any 2^n plane this test suite could afford to
        // allocate per-probe; the sparse tier checks it in milliseconds.
        let mc = trivially_mapped_qft(20);
        let mut checker = SparseChecker::for_qft(20, 4).unwrap();
        assert!(checker.matches_physically(&mc).unwrap());
        assert!(mapped_equals_aqft_auto(&mc, 20, 4).unwrap());
    }

    #[test]
    fn router_prefers_dense_for_dense_content_it_can_afford() {
        // An H-heavy non-QFT circuit: every qubit is re-branched in a
        // later round, so no projection point frees it early and the
        // content estimate is terms · 2^n. At n = 18 that blows past the
        // 2^20 sparse cap while a 2^18 plane is still affordable, so the
        // router must pick the dense tier (rule 3), not refuse the job.
        let n = 18;
        let mut b = MappedCircuitBuilder::new(Layout::identity(n, n));
        for round in 0..3 {
            for q in 0..n as u32 {
                b.push_1q_phys(GateKind::H, p(q));
            }
            if round < 2 {
                for q in 0..n as u32 - 1 {
                    b.push_2q_phys(GateKind::Cnot, p(q), p(q + 1));
                }
            }
        }
        let mc = b.finish();
        assert_eq!(plan_tier(&mc, 6).unwrap(), EngineTier::Dense);
    }

    #[test]
    fn physical_replay_handles_spare_qubits() {
        // 2 logical qubits on a 3-qubit device: the spare rides along
        // through a SWAP and must not corrupt the extracted state.
        let mut b = MappedCircuitBuilder::new(Layout::identity(2, 3));
        b.push_1q_phys(GateKind::H, p(0));
        b.push_2q_phys(GateKind::Cphase { k: 2 }, p(0), p(1));
        b.push_swap_phys(p(1), p(2)); // q1 moves to the spare's slot
        b.push_1q_phys(GateKind::H, p(2));
        let mc = b.finish();
        assert!(ReferenceChecker::for_qft(2, 3).matches_physically(&mc));
    }
}
