//! The normalized amplitude vector every dense engine reads and writes,
//! plus the machinery the simulation engines share.
//!
//! Basis convention: computational basis index `b` has qubit `q` at bit `q`
//! (little-endian: `|b_{n-1} … b_1 b_0⟩`).
//!
//! A [`StateVector`] is plain data: probe inputs, reference outputs, and
//! what [`crate::batch::StateBatch::to_states`] unpacks. Gates run on the
//! batch engine (a batch of one state is a single state); the retained
//! [`crate::naive`] oracle keeps its own scan-everything kernels.
//!
//! The crate-internal helpers below are the lazy-SWAP bookkeeping the
//! batch and sparse engines carry (`QubitLayout`: a SWAP is an O(1)
//! relabel), the byte-table index remapping that resolves a layout in one
//! gather pass, and the scoped-thread block fan-out of the batch kernels.

use crate::complex::Complex64;
use crate::error::{SimError, DENSE_QUBIT_CAP};
use std::f64::consts::PI;

/// The rotation angle of `R_k`: `2π · 0.5^k`, computed exactly in `f64`
/// far beyond `k = 30` (the old `1u32 << k.min(30)` clamp silently
/// misrepresented every higher-order rotation). `0.5^k` underflows to 0
/// only past `k ≈ 1074`, where the angle is genuinely indistinguishable
/// from zero in double precision.
#[inline]
pub fn phase_angle(k: u32) -> f64 {
    2.0 * PI * 0.5f64.powi(k.min(1100) as i32)
}

// ---------------------------------------------------------------------------
// Qubit→slot permutation (the lazy-SWAP bookkeeping).
// ---------------------------------------------------------------------------

/// The qubit→bit-slot permutation a lazily-swapped state carries.
///
/// `slot[q]` is the bit position of qubit `q` in the stored amplitude
/// indices; `label[p]` is the qubit stored at bit position `p` (the
/// inverse). Both start as the identity; SWAPs edit the tables in O(1)
/// instead of touching amplitudes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct QubitLayout {
    slot: Vec<usize>,
    label: Vec<usize>,
}

impl QubitLayout {
    pub(crate) fn identity(n: usize) -> Self {
        QubitLayout {
            slot: (0..n).collect(),
            label: (0..n).collect(),
        }
    }

    #[inline]
    pub(crate) fn is_identity(&self) -> bool {
        self.slot.iter().enumerate().all(|(q, &s)| q == s)
    }

    /// The stored-index bit mask of qubit `q`.
    #[inline]
    pub(crate) fn mask(&self, q: usize) -> usize {
        1usize << self.slot[q]
    }

    /// Exchanges the contents of qubits `q1` and `q2` — the O(1) lazy SWAP.
    #[inline]
    pub(crate) fn swap(&mut self, q1: usize, q2: usize) {
        let (s1, s2) = (self.slot[q1], self.slot[q2]);
        self.slot.swap(q1, q2);
        self.label.swap(s1, s2);
    }

    /// Bit-position → qubit table, the gather destination map.
    #[inline]
    pub(crate) fn labels(&self) -> &[usize] {
        &self.label
    }

    /// The stored bit position of qubit `q` (for composing the pending
    /// permutation into downstream gathers).
    #[inline]
    pub(crate) fn slot_of(&self, q: usize) -> usize {
        self.slot[q]
    }
}

// ---------------------------------------------------------------------------
// Table-driven index remapping (lazy-SWAP readout and physical embedding).
// ---------------------------------------------------------------------------

/// Precomputed byte tables for the bit permutation `source bit p → bit
/// dest[p]`: `tables[j][v]` is the mapped contribution of byte `j` holding
/// value `v`, so a full index maps in `⌈n/8⌉` lookups instead of `n` bit
/// tests.
pub(crate) fn bit_map_tables(n_bits: usize, dest: &[usize]) -> Vec<[usize; 256]> {
    debug_assert_eq!(dest.len(), n_bits);
    let chunks = n_bits.div_ceil(8).max(1);
    let mut tables = vec![[0usize; 256]; chunks];
    for (j, table) in tables.iter_mut().enumerate() {
        for (v, entry) in table.iter_mut().enumerate() {
            let mut mapped = 0usize;
            for bit in 0..8 {
                let p = j * 8 + bit;
                if p < n_bits && v & (1 << bit) != 0 {
                    mapped |= 1 << dest[p];
                }
            }
            *entry = mapped;
        }
    }
    tables
}

/// Applies [`bit_map_tables`] to one index.
#[inline]
pub(crate) fn map_index(tables: &[[usize; 256]], mut b: usize) -> usize {
    let mut out = 0usize;
    let mut j = 0usize;
    while b != 0 {
        out |= tables[j][b & 0xff];
        b >>= 8;
        j += 1;
    }
    out
}

/// The single-pass permutation gather: `out[map(b)] = src[b]` for every
/// basis index `b`, where each index owns `rows` contiguous entries (one
/// per batched state).
pub(crate) fn gather_rows(src: &[f64], rows: usize, tables: &[[usize; 256]]) -> Vec<f64> {
    let mut out = vec![0.0; src.len()];
    for (b, row) in src.chunks_exact(rows).enumerate() {
        let c = map_index(tables, b);
        out[c * rows..(c + 1) * rows].copy_from_slice(row);
    }
    out
}

pub(crate) mod kernels {
    //! The block fan-out every batch kernel runs through.

    /// Buffers below this element count never fan out to threads (the
    /// per-thread spawn cost would dominate the kernel).
    pub(crate) const PAR_MIN_ELEMENTS: usize = 1 << 15;

    /// Runs `f` over every `block`-sized chunk of `amps`, fanning the
    /// chunks across up to `workers` scoped threads when the buffer is
    /// large enough (the row-chunk idiom of the `qft-serve` worker pool,
    /// with slices instead of an mpsc queue: each worker owns a contiguous
    /// run of blocks, so no locking is needed).
    pub(crate) fn for_each_block<T, F>(amps: &mut [T], block: usize, workers: usize, f: F)
    where
        T: Send,
        F: Fn(&mut [T]) + Sync,
    {
        debug_assert_eq!(amps.len() % block, 0);
        let n_blocks = amps.len() / block;
        if workers <= 1 || n_blocks < 2 || amps.len() < PAR_MIN_ELEMENTS {
            for chunk in amps.chunks_exact_mut(block) {
                f(chunk);
            }
            return;
        }
        let per = n_blocks.div_ceil(workers) * block;
        std::thread::scope(|scope| {
            for chunk in amps.chunks_mut(per) {
                let f = &f;
                scope.spawn(move || {
                    for c in chunk.chunks_exact_mut(block) {
                        f(c);
                    }
                });
            }
        });
    }
}

// ---------------------------------------------------------------------------
// StateVector
// ---------------------------------------------------------------------------

/// A normalized `n`-qubit amplitude vector in canonical qubit order.
#[derive(Debug, Clone)]
pub struct StateVector {
    n: usize,
    amps: Vec<Complex64>,
}

impl StateVector {
    /// `|0…0⟩` on `n` qubits.
    ///
    /// # Panics
    /// Panics (with the [`SimError::RegisterTooLarge`] message) above
    /// [`DENSE_QUBIT_CAP`]; use [`Self::try_zero`] to handle the refusal,
    /// or the sparse tier for wider registers.
    pub fn zero(n: usize) -> Self {
        Self::try_zero(n).unwrap_or_else(|e| panic!("{e}"))
    }

    /// `|0…0⟩` on `n` qubits, refusing the `2^n` allocation with a
    /// descriptive error above [`DENSE_QUBIT_CAP`].
    pub fn try_zero(n: usize) -> Result<Self, SimError> {
        if n > DENSE_QUBIT_CAP {
            return Err(SimError::RegisterTooLarge {
                engine: "state vector",
                n,
                cap: DENSE_QUBIT_CAP,
            });
        }
        let mut amps = vec![Complex64::ZERO; 1 << n];
        amps[0] = Complex64::ONE;
        Ok(StateVector { n, amps })
    }

    /// The computational basis state `|b⟩`.
    pub fn basis(n: usize, b: usize) -> Self {
        assert!(b < (1 << n));
        let mut s = StateVector::zero(n);
        s.amps[0] = Complex64::ZERO;
        s.amps[b] = Complex64::ONE;
        s
    }

    /// A reproducible pseudo-random normalized state (xorshift64*; no
    /// external RNG dependency so downstream crates can use this in tests).
    pub fn random(n: usize, seed: u64) -> Self {
        let mut x = seed.wrapping_mul(2685821657736338717).max(1);
        let mut next = move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let v = x.wrapping_mul(0x2545F4914F6CDD1D);
            // Map to (-1, 1).
            (v >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        };
        let mut amps: Vec<Complex64> = (0..1usize << n)
            .map(|_| Complex64::new(next(), next()))
            .collect();
        let norm = amps.iter().map(|a| a.abs2()).sum::<f64>().sqrt();
        for a in &mut amps {
            *a = a.scale(1.0 / norm);
        }
        StateVector { n, amps }
    }

    /// Builds a state from raw amplitudes (must have length `2^n`).
    pub fn from_amplitudes(n: usize, amps: Vec<Complex64>) -> StateVector {
        assert_eq!(amps.len(), 1usize << n);
        StateVector { n, amps }
    }

    /// Number of qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// The amplitudes (length `2^n`), in canonical qubit order.
    #[inline]
    pub fn amplitudes(&self) -> &[Complex64] {
        &self.amps
    }

    /// `⟨self|other⟩`.
    pub fn inner(&self, other: &StateVector) -> Complex64 {
        assert_eq!(self.n, other.n);
        let mut acc = Complex64::ZERO;
        for (x, y) in self.amps.iter().zip(&other.amps) {
            acc += x.conj() * *y;
        }
        acc
    }

    /// `|⟨self|other⟩|²` — 1.0 iff equal up to global phase.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner(other).abs2()
    }

    /// Total probability (should stay 1 within rounding).
    pub fn norm2(&self) -> f64 {
        self.amps.iter().map(|a| a.abs2()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_map_tables_round_trip_random_permutations() {
        // A 12-bit rotation permutation: bit p -> (p + 5) % 12.
        let n = 12;
        let dest: Vec<usize> = (0..n).map(|p| (p + 5) % n).collect();
        let tables = bit_map_tables(n, &dest);
        for b in [0usize, 1, 0xABC, 0xFFF, 0x123] {
            let mut expect = 0usize;
            for (p, &d) in dest.iter().enumerate() {
                if b & (1 << p) != 0 {
                    expect |= 1 << d;
                }
            }
            assert_eq!(map_index(&tables, b), expect);
        }
    }
}
