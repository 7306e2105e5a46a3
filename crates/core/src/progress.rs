//! QFT progress tracking — the one Type-II tracker of the analytical
//! mappers: which pairs have interacted, which qubits are *active* (H
//! fired), and the eligibility rules of §3.1. The line schedule
//! ([`crate::line`]) runs its wavefront on it at item level; every mapper
//! that places CPHASEs outside that schedule (the unit-level IE patterns,
//! the interleaved 2×N block, heavy-hex) fires them through
//! [`QftProgress::fire`] or [`QftProgress::try_pair`].

use qft_ir::circuit::MappedCircuitBuilder;
use qft_ir::gate::{GateKind, PhysicalQubit};
use qft_ir::qft::rotation_order;

/// Tracks interaction/activation state for an `n`-qubit QFT build.
#[derive(Debug, Clone)]
pub struct QftProgress {
    n: usize,
    /// Bit `lo·n + hi` is set once the pair `lo < hi` has interacted.
    pair_bits: Vec<u64>,
    activated: Vec<bool>,
    /// Number of done pairs `(k, q)` with `k < q`, per `q`.
    low_done: Vec<u32>,
    n_pairs_done: usize,
    n_activated: usize,
}

impl QftProgress {
    /// Fresh state for `n` qubits.
    pub fn new(n: usize) -> Self {
        QftProgress {
            n,
            pair_bits: vec![0; (n * n).div_ceil(64)],
            activated: vec![false; n],
            low_done: vec![0; n],
            n_pairs_done: 0,
            n_activated: 0,
        }
    }

    /// Number of qubits.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The word index and mask of the unordered pair `{a, b}`'s bit.
    #[inline]
    fn pair_bit(&self, a: u32, b: u32) -> (usize, u64) {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        debug_assert!(lo < hi && (hi as usize) < self.n);
        let i = lo as usize * self.n + hi as usize;
        (i / 64, 1 << (i % 64))
    }

    /// Whether the unordered pair `{a, b}` has interacted.
    #[inline]
    pub fn pair_done(&self, a: u32, b: u32) -> bool {
        let (word, mask) = self.pair_bit(a, b);
        self.pair_bits[word] & mask != 0
    }

    /// Whether `H(q)` has fired.
    #[inline]
    pub fn activated(&self, q: u32) -> bool {
        self.activated[q as usize]
    }

    /// Type-II eligibility of `CPHASE(a, b)`: pair not done and the smaller
    /// qubit already active.
    #[inline]
    pub fn cphase_eligible(&self, a: u32, b: u32) -> bool {
        !self.pair_done(a, b) && self.activated[a.min(b) as usize]
    }

    /// Type-II eligibility of `H(q)`: not yet active and all pairs `(k, q)`,
    /// `k < q`, done.
    #[inline]
    pub fn h_eligible(&self, q: u32) -> bool {
        !self.activated[q as usize] && self.low_done[q as usize] as usize == q as usize
    }

    /// Records `CPHASE(a, b)`.
    ///
    /// # Panics
    /// Panics if the pair was already recorded (duplicate interaction).
    pub fn mark_pair(&mut self, a: u32, b: u32) {
        let (word, mask) = self.pair_bit(a, b);
        assert!(
            self.pair_bits[word] & mask == 0,
            "pair ({},{}) already done",
            a.min(b),
            a.max(b)
        );
        self.pair_bits[word] |= mask;
        self.low_done[a.max(b) as usize] += 1;
        self.n_pairs_done += 1;
    }

    /// Fires `CPHASE(a, b)` if it is Type-II eligible: records the pair
    /// and returns its rotation order. `None` (nothing recorded) when the
    /// pair is done or its smaller qubit is not yet active.
    #[inline]
    pub fn try_pair(&mut self, a: u32, b: u32) -> Option<u32> {
        if !self.cphase_eligible(a, b) {
            return None;
        }
        self.mark_pair(a, b);
        Some(rotation_order(a, b))
    }

    /// [`QftProgress::try_pair`] for the logical occupants of the physical
    /// sites `pa` and `pb`, emitting the CPHASE into `builder` when it
    /// fires. Returns whether it fired.
    ///
    /// # Panics
    /// Panics if either site is empty.
    pub fn fire(
        &mut self,
        builder: &mut MappedCircuitBuilder,
        pa: PhysicalQubit,
        pb: PhysicalQubit,
    ) -> bool {
        let logical = |p| builder.layout().logical(p).expect("site occupied").0;
        let Some(k) = self.try_pair(logical(pa), logical(pb)) else {
            return false;
        };
        builder.push_2q_phys(GateKind::Cphase { k }, pa, pb);
        true
    }

    /// Records `H(q)`.
    ///
    /// # Panics
    /// Panics on double activation.
    pub fn mark_h(&mut self, q: u32) {
        assert!(!self.activated[q as usize], "H({q}) already done");
        self.activated[q as usize] = true;
        self.n_activated += 1;
    }

    /// True when every pair and every H is done.
    #[inline]
    pub fn complete(&self) -> bool {
        self.n_pairs_done == self.n * (self.n - 1) / 2 && self.n_activated == self.n
    }

    /// `(pairs done, total pairs, activations done)` — for stall messages.
    pub fn status(&self) -> (usize, usize, usize) {
        (
            self.n_pairs_done,
            self.n * (self.n - 1) / 2,
            self.n_activated,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eligibility_follows_type_ii() {
        let mut p = QftProgress::new(3);
        assert!(p.h_eligible(0));
        assert!(!p.h_eligible(1)); // needs pair (0,1)
        assert!(!p.cphase_eligible(0, 1)); // needs H(0)
        p.mark_h(0);
        assert!(p.cphase_eligible(0, 1));
        assert!(p.cphase_eligible(1, 0)); // symmetric
        assert_eq!(p.try_pair(1, 0), Some(2));
        assert_eq!(p.try_pair(0, 1), None); // done
        assert!(p.h_eligible(1));
        assert!(!p.h_eligible(2)); // needs (0,2) and (1,2)
        assert_eq!(p.try_pair(1, 2), None); // needs H(1)
        assert!(!p.pair_done(0, 2) && !p.pair_done(1, 2));
        p.mark_pair(2, 0);
        p.mark_h(1);
        p.mark_pair(1, 2);
        assert!(p.h_eligible(2));
        p.mark_h(2);
        assert!(p.complete());
    }

    #[test]
    #[should_panic(expected = "already done")]
    fn duplicate_pair_panics() {
        let mut p = QftProgress::new(2);
        p.mark_h(0);
        p.mark_pair(0, 1);
        p.mark_pair(1, 0);
    }

    #[test]
    fn single_qubit_completes_with_one_h() {
        let mut p = QftProgress::new(1);
        assert!(!p.complete());
        p.mark_h(0);
        assert!(p.complete());
    }
}
