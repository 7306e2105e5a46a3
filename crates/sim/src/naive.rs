//! The retained *naive* simulation kernels — the differential oracle for
//! the fast [`crate::batch::StateBatch`] engine.
//!
//! Every gate here scans all `2^n` amplitudes with a branch per index and
//! every SWAP is an eager full sweep — exactly the pre-rewrite kernels,
//! kept so property tests can pin the branch-free/lazy-SWAP/batched paths
//! against an independent implementation, and so the `sim` bench bin can
//! measure the speedup it must enforce. The only semantic change carried
//! over is the [`crate::state::phase_angle`] fix: both engines now compute
//! `R_k` angles exactly for `k > 30` (the oracle must agree with the fast
//! engine bit-for-bit on intent, not reproduce an old bug).

use crate::complex::Complex64;
use crate::error::{SimError, DENSE_QUBIT_CAP};
use crate::state::{phase_angle, StateVector};
use qft_ir::circuit::{Circuit, MappedCircuit};
use qft_ir::gate::{Gate, GateKind};

/// Moves bit `l` of `b` to bit `place[l]`, one bit test at a time.
fn scatter_bits(b: usize, place: &[usize]) -> usize {
    place
        .iter()
        .enumerate()
        .filter(|&(l, _)| b >> l & 1 == 1)
        .fold(0, |out, (_, &p)| out | 1 << p)
}

/// A state vector driven by the naive (scan-everything) kernels.
#[derive(Debug, Clone)]
pub struct NaiveStateVector {
    n: usize,
    amps: Vec<Complex64>,
}

impl NaiveStateVector {
    /// `|0…0⟩` on `n` qubits.
    pub fn zero(n: usize) -> Self {
        assert!(
            n <= DENSE_QUBIT_CAP,
            "{}",
            SimError::RegisterTooLarge {
                engine: "naive state vector",
                n,
                cap: DENSE_QUBIT_CAP,
            }
        );
        let mut amps = vec![Complex64::ZERO; 1 << n];
        amps[0] = Complex64::ONE;
        NaiveStateVector { n, amps }
    }

    /// The computational basis state `|b⟩`.
    pub fn basis(n: usize, b: usize) -> Self {
        assert!(b < (1 << n));
        let mut s = NaiveStateVector::zero(n);
        s.amps[0] = Complex64::ZERO;
        s.amps[b] = Complex64::ONE;
        s
    }

    /// Copies an amplitude vector, so the two engines see identical
    /// inputs in differential tests.
    pub fn from_state(s: &StateVector) -> Self {
        NaiveStateVector {
            n: s.n_qubits(),
            amps: s.amplitudes().to_vec(),
        }
    }

    /// Number of qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// The raw amplitudes (always in canonical qubit order — the naive
    /// engine has no lazy layout).
    #[inline]
    pub fn amplitudes(&self) -> &[Complex64] {
        &self.amps
    }

    /// `|⟨self|other⟩|²` — 1.0 iff equal up to global phase.
    pub fn fidelity(&self, other: &NaiveStateVector) -> f64 {
        assert_eq!(self.n, other.n);
        let mut acc = Complex64::ZERO;
        for (a, b) in self.amps.iter().zip(&other.amps) {
            acc += a.conj() * *b;
        }
        acc.abs2()
    }

    /// Hadamard on qubit `q`: full `2^n` scan with a mask branch.
    pub fn apply_h(&mut self, q: usize) {
        debug_assert!(q < self.n);
        let mask = 1usize << q;
        let s = std::f64::consts::FRAC_1_SQRT_2;
        for b in 0..self.amps.len() {
            if b & mask == 0 {
                let (a0, a1) = (self.amps[b], self.amps[b | mask]);
                self.amps[b] = (a0 + a1).scale(s);
                self.amps[b | mask] = (a0 - a1).scale(s);
            }
        }
    }

    /// Pauli-X on qubit `q`.
    pub fn apply_x(&mut self, q: usize) {
        let mask = 1usize << q;
        for b in 0..self.amps.len() {
            if b & mask == 0 {
                self.amps.swap(b, b | mask);
            }
        }
    }

    /// `RZ` with angle `2π/2^k` on qubit `q`.
    pub fn apply_rz(&mut self, q: usize, k: u32) {
        self.phase_masked(1usize << q, k, false);
    }

    /// `CPHASE` of order `k` between `q1` and `q2`.
    pub fn apply_cphase(&mut self, q1: usize, q2: usize, k: u32) {
        debug_assert!(q1 != q2 && q1 < self.n && q2 < self.n);
        self.phase_masked((1usize << q1) | (1usize << q2), k, false);
    }

    /// SWAP between `q1` and `q2`: the eager full-sweep exchange.
    pub fn apply_swap(&mut self, q1: usize, q2: usize) {
        debug_assert!(q1 != q2);
        let (m1, m2) = (1usize << q1, 1usize << q2);
        for b in 0..self.amps.len() {
            // Visit each pair once: swap where bit q1 = 1, q2 = 0.
            if b & m1 != 0 && b & m2 == 0 {
                self.amps.swap(b, b ^ m1 ^ m2);
            }
        }
    }

    /// CNOT with control `c` and target `t`.
    pub fn apply_cnot(&mut self, c: usize, t: usize) {
        debug_assert!(c != t);
        let (mc, mt) = (1usize << c, 1usize << t);
        for b in 0..self.amps.len() {
            if b & mc != 0 && b & mt == 0 {
                self.amps.swap(b, b | mt);
            }
        }
    }

    /// Applies a logical gate. The fused `CPHASE+SWAP` runs as its two
    /// constituent full sweeps (the naive engine has no fused pass).
    pub fn apply_gate(&mut self, g: &Gate) {
        let a = g.a.index();
        match (g.kind, g.b) {
            (GateKind::H, _) => self.apply_h(a),
            (GateKind::X, _) => self.apply_x(a),
            (GateKind::Rz { k }, _) => self.apply_rz(a, k),
            (GateKind::Cphase { k }, Some(b)) => self.apply_cphase(a, b.index(), k),
            (GateKind::Swap, Some(b)) => self.apply_swap(a, b.index()),
            (GateKind::CphaseSwap { k }, Some(b)) => {
                self.apply_cphase(a, b.index(), k);
                self.apply_swap(a, b.index());
            }
            (GateKind::Cnot, Some(b)) => self.apply_cnot(a, b.index()),
            _ => unreachable!("malformed gate {g}"),
        }
    }

    /// Applies the inverse of a logical gate (the oracle for
    /// [`crate::StateBatch::apply_gate_inverse`]).
    pub fn apply_gate_inverse(&mut self, g: &Gate) {
        let a = g.a.index();
        match (g.kind, g.b) {
            (GateKind::H, _) => self.apply_h(a),
            (GateKind::X, _) => self.apply_x(a),
            (GateKind::Swap, Some(b)) => self.apply_swap(a, b.index()),
            (GateKind::Cnot, Some(b)) => self.apply_cnot(a, b.index()),
            (GateKind::Rz { k }, _) => self.phase_masked(1usize << a, k, true),
            (GateKind::Cphase { k }, Some(b)) => {
                self.phase_masked((1usize << a) | (1usize << b.index()), k, true)
            }
            (GateKind::CphaseSwap { k }, Some(b)) => {
                self.apply_swap(a, b.index());
                self.phase_masked((1usize << a) | (1usize << b.index()), k, true)
            }
            _ => unreachable!("malformed gate {g}"),
        }
    }

    /// Multiplies amplitudes whose basis index contains all bits of `mask`
    /// by `e^{±2πi/2^k}` — the branch-per-index diagonal sweep.
    fn phase_masked(&mut self, mask: usize, k: u32, inverse: bool) {
        let theta = phase_angle(k);
        let phase = Complex64::from_angle(if inverse { -theta } else { theta });
        for (b, a) in self.amps.iter_mut().enumerate() {
            if b & mask == mask {
                *a = *a * phase;
            }
        }
    }

    /// Applies every gate of a logical circuit in order.
    pub fn apply_circuit(&mut self, c: &Circuit) {
        assert_eq!(c.n_qubits(), self.n);
        for g in c.gates() {
            self.apply_gate(g);
        }
    }

    /// Permutes qubits: qubit `q` moves to position `perm[q]` — the old
    /// O(2^n · n) per-index bit walk plus full reallocation, retained as
    /// the oracle for the lazy layout's table-driven readout.
    pub fn permute_qubits(&mut self, perm: &[usize]) {
        assert_eq!(perm.len(), self.n);
        let mut out = vec![Complex64::ZERO; self.amps.len()];
        for (b, &a) in self.amps.iter().enumerate() {
            out[scatter_bits(b, perm)] = a;
        }
        self.amps = out;
    }
}

/// Applies the *logical* gate stream of a mapped circuit through the naive
/// kernels.
pub fn apply_mapped_logically(mc: &MappedCircuit, input: &NaiveStateVector) -> NaiveStateVector {
    assert_eq!(mc.n_logical(), input.n_qubits());
    let mut s = input.clone();
    for g in mc.logical_interactions() {
        s.apply_gate(&g);
    }
    s
}

/// Replays the full *physical* op stream (SWAPs as eager sweeps) through
/// the naive kernels: the mirror of
/// [`crate::StateBatch::replay_physically`].
pub fn apply_mapped_physically(mc: &MappedCircuit, input: &NaiveStateVector) -> NaiveStateVector {
    let (n_l, n_p) = (mc.n_logical(), mc.n_physical());
    assert_eq!(input.n_qubits(), n_l);
    let place = crate::equiv::logical_places(mc.initial_layout(), n_l);
    let mut s = NaiveStateVector::zero(n_p);
    s.amps[0] = Complex64::ZERO;
    for (b, &a) in input.amps.iter().enumerate() {
        s.amps[scatter_bits(b, &place)] = a;
    }
    for op in mc.ops() {
        let p1 = op.p1.index();
        match (op.kind, op.p2) {
            (GateKind::H, _) => s.apply_h(p1),
            (GateKind::X, _) => s.apply_x(p1),
            (GateKind::Rz { k }, _) => s.apply_rz(p1, k),
            (GateKind::Cphase { k }, Some(p2)) => s.apply_cphase(p1, p2.index(), k),
            (GateKind::Swap, Some(p2)) => s.apply_swap(p1, p2.index()),
            (GateKind::CphaseSwap { k }, Some(p2)) => {
                s.apply_cphase(p1, p2.index(), k);
                s.apply_swap(p1, p2.index());
            }
            (GateKind::Cnot, Some(p2)) => s.apply_cnot(p1, p2.index()),
            _ => unreachable!("malformed physical op"),
        }
    }
    // Amplitude on excited spare qubits is dropped (it shows up as lost
    // norm).
    let final_place = crate::equiv::logical_places(mc.final_layout(), n_l);
    NaiveStateVector {
        n: n_l,
        amps: (0..1usize << n_l)
            .map(|b| s.amps[scatter_bits(b, &final_place)])
            .collect(),
    }
}

/// The naive-engine equivalence check over the given inputs: one state at
/// a time, each gate decoded per state — the per-seed loop the batched
/// [`crate::equiv::ReferenceChecker`] replaces. The reference circuit is
/// passed in pre-built (both engines get the hoisting fix; the bench
/// compares kernels, not construction).
pub fn mapped_matches_reference_on(
    mc: &MappedCircuit,
    reference: &Circuit,
    inputs: &[StateVector],
) -> bool {
    inputs.iter().all(|input| {
        let naive_in = NaiveStateVector::from_state(input);
        let got = apply_mapped_logically(mc, &naive_in);
        let mut want = naive_in.clone();
        want.apply_circuit(reference);
        (got.fidelity(&want) - 1.0).abs() < crate::equiv::FIDELITY_EPS
    })
}

/// The naive-engine physical-replay equivalence check (eager SWAP sweeps).
pub fn mapped_physically_matches_reference_on(
    mc: &MappedCircuit,
    reference: &Circuit,
    inputs: &[StateVector],
) -> bool {
    inputs.iter().all(|input| {
        let naive_in = NaiveStateVector::from_state(input);
        let got = apply_mapped_physically(mc, &naive_in);
        let mut want = naive_in.clone();
        want.apply_circuit(reference);
        (got.fidelity(&want) - 1.0).abs() < crate::equiv::FIDELITY_EPS
    })
}
