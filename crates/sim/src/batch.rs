//! The fast dense engine: a structure-of-arrays batch of states that
//! streams through one decoded gate stream (a batch of one state is a
//! single state).
//!
//! The equivalence checkers replay the same circuit over a set of probe
//! states. Doing that one state at a time decodes every gate once *per
//! state* and walks the amplitude array once per (gate, state). A
//! [`StateBatch`] stores the states as two `f64` planes — real and
//! imaginary, basis index major, state minor (`re[b · count + s]`) — so
//! each gate is decoded once, its kernel sweeps all states in contiguous
//! vectorizable passes, and the real-coefficient gates (H/X/CNOT/SWAP)
//! touch each plane independently. The per-gate kernels are branch-free
//! block sweeps: H/X/CNOT walk the affected index pairs directly, and the
//! diagonal RZ/CPHASE touch only their `2^{n-1}`/`2^{n-2}` masked rows.
//!
//! Three further throughput ideas:
//!
//! * **Diagonal-run fusion.** Consecutive diagonal gates (CPHASE/RZ and
//!   the phase half of the fused CPHASE+SWAP) mutually commute (§3.1), so
//!   a run accumulates into a single per-basis-index phase row — built
//!   once per run at 1/`count` of the per-state cost — and flushes as one
//!   dense multiply pass when a non-diagonal gate (or the stream end)
//!   arrives. A QFT-shaped stream collapses from `O(n²)` diagonal sweeps
//!   to `n` flush passes.
//! * **Lazy SWAPs.** The batch carries a qubit→bit-slot permutation: a
//!   SWAP (or the relabel half of a fused CPHASE+SWAP) is one O(1) edit
//!   for every state, resolved by a single table-driven gather at
//!   readout, so SWAP-dominated mapped circuits replay as nearly
//!   phase-only workloads.
//!
//! Above a fixed element count per plane (the dense kernels' parallel
//! threshold) a kernel fans its block sweep across up to [`StateBatch::workers`]
//! scoped threads (contiguous row chunks per worker — the `qft-serve`
//! pool idiom without the queue, since the partition is static).

use crate::complex::Complex64;
use crate::equiv::logical_places;
use crate::error::{SimError, DENSE_QUBIT_CAP};
use crate::state::{
    bit_map_tables, gather_rows, kernels, map_index, phase_angle, QubitLayout, StateVector,
};
use qft_ir::circuit::{Circuit, MappedCircuit, PhysOp};
use qft_ir::gate::{Gate, GateKind};
use std::borrow::Cow;

/// Worker threads a batch kernel may fan out across: the machine's
/// parallelism, capped like the `qft-serve` pool so a simulation never
/// monopolizes a large host. Queried once per process: every batch,
/// placeholders included, starts from it.
fn default_workers() -> usize {
    static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, 8)
    })
}

/// One decoded stream operation, shared by the logical-gate and
/// physical-op streaming paths (operands are qubit indices in the batch's
/// own space).
enum SimOp {
    /// Hadamard.
    H(usize),
    /// Pauli-X.
    X(usize),
    /// CNOT (control, target).
    Cnot(usize, usize),
    /// SWAP (lazy relabel).
    Swap(usize, usize),
    /// `RZ` of order `k`.
    Rz(usize, u32),
    /// `CPHASE` of order `k`.
    Cphase(usize, usize, u32),
    /// Fused `CPHASE+SWAP` of order `k`.
    CphaseSwap(usize, usize, u32),
}

/// A pending diagonal run: one unit phasor per stored basis index.
struct DiagRow {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl DiagRow {
    fn identity(m: usize) -> Self {
        DiagRow {
            re: vec![1.0; m],
            im: vec![0.0; m],
        }
    }

    /// Multiplies `e^{iθ}` onto every index whose stored bits contain
    /// `mask` (both bits for a CPHASE, one for an RZ).
    fn accumulate(&mut self, mask: usize, theta: f64) {
        let (pr, pi) = (theta.cos(), theta.sin());
        // Visit exactly the masked subset: expand the survivor bits around
        // the mask's set positions via block iteration.
        let (lo, hi) = split_masks(mask);
        match lo {
            None => {
                // Single-bit mask: upper half of every 2·hi block.
                for base in (0..self.re.len()).step_by(2 * hi) {
                    for b in base + hi..base + 2 * hi {
                        mul_phase(&mut self.re[b], &mut self.im[b], pr, pi);
                    }
                }
            }
            Some(lo) => {
                for base in (0..self.re.len()).step_by(2 * hi) {
                    for mid in (base + hi..base + 2 * hi).step_by(2 * lo) {
                        for b in mid + lo..mid + 2 * lo {
                            mul_phase(&mut self.re[b], &mut self.im[b], pr, pi);
                        }
                    }
                }
            }
        }
    }
}

/// Splits a 1- or 2-bit mask into `(Some(low_bit), high_bit)` element
/// spans (`None` low for single-bit masks).
fn split_masks(mask: usize) -> (Option<usize>, usize) {
    let hi = 1usize << (usize::BITS - 1 - mask.leading_zeros());
    let lo = mask & !hi;
    (if lo == 0 { None } else { Some(lo) }, hi)
}

#[inline]
fn mul_phase(re: &mut f64, im: &mut f64, pr: f64, pi: f64) {
    let (r, i) = (*re, *im);
    *re = r * pr - i * pi;
    *im = r * pi + i * pr;
}

/// Whether the AVX2+FMA twins of the hot kernels may run. The scalar and
/// AVX bodies are the *same Rust code* — the `#[target_feature]` wrapper
/// only licenses LLVM to auto-vectorize it with 4-lane f64 FMA — so the
/// two paths are semantically identical by construction.
#[inline]
fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Defines a scalar kernel plus an AVX2+FMA-compiled twin sharing the
/// exact same body (see [`avx2_available`]).
macro_rules! simd_dual {
    ($(#[$meta:meta])* fn $name:ident / $avx:ident ($($arg:ident: $ty:ty),* $(,)?) $body:block) => {
        $(#[$meta])*
        #[inline(always)]
        fn $name($($arg: $ty),*) $body

        $(#[$meta])*
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn $avx($($arg: $ty),*) {
            $name($($arg),*)
        }
    };
}

/// Dispatches to the AVX twin when the CPU supports it.
macro_rules! simd_call {
    ($name:ident / $avx:ident ($($arg:expr),* $(,)?)) => {
        if avx2_available() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `avx2_available` verified AVX2+FMA at runtime, and
            // the twin's body is byte-for-byte the scalar body.
            unsafe { $avx($($arg),*) }
            #[cfg(not(target_arch = "x86_64"))]
            $name($($arg),*)
        } else {
            $name($($arg),*)
        }
    };
}

simd_dual! {
    /// One plane of the H butterfly over a `2·half` block.
    fn h_plane_block / h_plane_block_avx(block: &mut [f64], half: usize) {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let (lo, hi) = block.split_at_mut(half);
        for (a0, a1) in lo.iter_mut().zip(hi.iter_mut()) {
            let (x, y) = (*a0, *a1);
            *a0 = (x + y) * s;
            *a1 = (x - y) * s;
        }
    }
}

simd_dual! {
    /// The joint diag-multiply + H-butterfly pass over a chunk of blocks
    /// (`first_row` = basis index of the chunk's first row).
    fn hd_chunk / hd_chunk_avx(
        re: &mut [f64],
        im: &mut [f64],
        first_row: usize,
        mask: usize,
        rows: usize,
        dre: &[f64],
        dim: &[f64],
    ) {
        let half = mask * rows;
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let mut base_row = first_row;
        for (bre, bim) in re
            .chunks_exact_mut(2 * half)
            .zip(im.chunks_exact_mut(2 * half))
        {
            let (lo_re, hi_re) = bre.split_at_mut(half);
            let (lo_im, hi_im) = bim.split_at_mut(half);
            for r in 0..mask {
                let (d0r, d0i) = (dre[base_row + r], dim[base_row + r]);
                let (d1r, d1i) = (dre[base_row + mask + r], dim[base_row + mask + r]);
                let span = r * rows..(r + 1) * rows;
                let lre = &mut lo_re[span.clone()];
                let lim = &mut lo_im[span.clone()];
                let hre = &mut hi_re[span.clone()];
                let him = &mut hi_im[span];
                for (((ar, ai), br), bi) in lre
                    .iter_mut()
                    .zip(lim.iter_mut())
                    .zip(hre.iter_mut())
                    .zip(him.iter_mut())
                {
                    let xr = *ar * d0r - *ai * d0i;
                    let xi = *ar * d0i + *ai * d0r;
                    let yr = *br * d1r - *bi * d1i;
                    let yi = *br * d1i + *bi * d1r;
                    *ar = (xr + yr) * s;
                    *ai = (xi + yi) * s;
                    *br = (xr - yr) * s;
                    *bi = (xi - yi) * s;
                }
            }
            base_row += 2 * mask;
        }
    }
}

simd_dual! {
    /// The radix-4 pass over a chunk of blocks: applies the segment
    /// `D0 · H(first) · D1 · H(second)` — two full radix-2 sweeps fused
    /// into one memory pass. `mask_lo < mask_hi` are the two basis-space
    /// bit masks; `lo_first` says whether the *first* butterfly acts on
    /// `mask_lo`. Empty `d*` slices mean identity.
    #[allow(clippy::too_many_arguments)]
    fn r4_chunk / r4_chunk_avx(
        re: &mut [f64],
        im: &mut [f64],
        first_row: usize,
        mask_lo: usize,
        mask_hi: usize,
        rows: usize,
        lo_first: bool,
        d0re: &[f64],
        d0im: &[f64],
        d1re: &[f64],
        d1im: &[f64],
    ) {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let lo_span = mask_lo * rows;
        let hi_span = mask_hi * rows;
        let mut base_row = first_row;
        let phasor = |dre: &[f64], dim: &[f64], row: usize| -> (f64, f64) {
            if dre.is_empty() {
                (1.0, 0.0)
            } else {
                (dre[row], dim[row])
            }
        };
        for (block_re, block_im) in re
            .chunks_exact_mut(2 * hi_span)
            .zip(im.chunks_exact_mut(2 * hi_span))
        {
            // hi bit: 0 in the `a` half, 1 in the `b` half.
            let (a_re, b_re) = block_re.split_at_mut(hi_span);
            let (a_im, b_im) = block_im.split_at_mut(hi_span);
            let mut sub = 0usize;
            while sub < hi_span {
                // lo bit: 0 in the `0` quarter, 1 in the `1` quarter.
                let (a0r, a1r) = a_re[sub..sub + 2 * lo_span].split_at_mut(lo_span);
                let (a0i, a1i) = a_im[sub..sub + 2 * lo_span].split_at_mut(lo_span);
                let (b0r, b1r) = b_re[sub..sub + 2 * lo_span].split_at_mut(lo_span);
                let (b0i, b1i) = b_im[sub..sub + 2 * lo_span].split_at_mut(lo_span);
                for r in 0..mask_lo {
                    let row00 = base_row + sub / rows + r;
                    let row01 = row00 + mask_lo;
                    let row10 = row00 + mask_hi;
                    let row11 = row01 + mask_hi;
                    let (p00r, p00i) = phasor(d0re, d0im, row00);
                    let (p01r, p01i) = phasor(d0re, d0im, row01);
                    let (p10r, p10i) = phasor(d0re, d0im, row10);
                    let (p11r, p11i) = phasor(d0re, d0im, row11);
                    let (q00r, q00i) = phasor(d1re, d1im, row00);
                    let (q01r, q01i) = phasor(d1re, d1im, row01);
                    let (q10r, q10i) = phasor(d1re, d1im, row10);
                    let (q11r, q11i) = phasor(d1re, d1im, row11);
                    let span = r * rows..(r + 1) * rows;
                    let it = a0r[span.clone()]
                        .iter_mut()
                        .zip(a0i[span.clone()].iter_mut())
                        .zip(
                            a1r[span.clone()]
                                .iter_mut()
                                .zip(a1i[span.clone()].iter_mut()),
                        )
                        .zip(
                            b0r[span.clone()]
                                .iter_mut()
                                .zip(b0i[span.clone()].iter_mut())
                                .zip(
                                    b1r[span.clone()]
                                        .iter_mut()
                                        .zip(b1i[span].iter_mut()),
                                ),
                        );
                    for (((e00r, e00i), (e01r, e01i)), ((e10r, e10i), (e11r, e11i))) in it {
                        // Load and apply D0.
                        let x00r = *e00r * p00r - *e00i * p00i;
                        let x00i = *e00r * p00i + *e00i * p00r;
                        let x01r = *e01r * p01r - *e01i * p01i;
                        let x01i = *e01r * p01i + *e01i * p01r;
                        let x10r = *e10r * p10r - *e10i * p10i;
                        let x10i = *e10r * p10i + *e10i * p10r;
                        let x11r = *e11r * p11r - *e11i * p11i;
                        let x11i = *e11r * p11i + *e11i * p11r;
                        // First butterfly.
                        let (y00r, y00i, y01r, y01i, y10r, y10i, y11r, y11i) = if lo_first {
                            (
                                (x00r + x01r) * s,
                                (x00i + x01i) * s,
                                (x00r - x01r) * s,
                                (x00i - x01i) * s,
                                (x10r + x11r) * s,
                                (x10i + x11i) * s,
                                (x10r - x11r) * s,
                                (x10i - x11i) * s,
                            )
                        } else {
                            (
                                (x00r + x10r) * s,
                                (x00i + x10i) * s,
                                (x01r + x11r) * s,
                                (x01i + x11i) * s,
                                (x00r - x10r) * s,
                                (x00i - x10i) * s,
                                (x01r - x11r) * s,
                                (x01i - x11i) * s,
                            )
                        };
                        // Apply D1.
                        let z00r = y00r * q00r - y00i * q00i;
                        let z00i = y00r * q00i + y00i * q00r;
                        let z01r = y01r * q01r - y01i * q01i;
                        let z01i = y01r * q01i + y01i * q01r;
                        let z10r = y10r * q10r - y10i * q10i;
                        let z10i = y10r * q10i + y10i * q10r;
                        let z11r = y11r * q11r - y11i * q11i;
                        let z11i = y11r * q11i + y11i * q11r;
                        // Second butterfly (the other axis).
                        if lo_first {
                            *e00r = (z00r + z10r) * s;
                            *e00i = (z00i + z10i) * s;
                            *e10r = (z00r - z10r) * s;
                            *e10i = (z00i - z10i) * s;
                            *e01r = (z01r + z11r) * s;
                            *e01i = (z01i + z11i) * s;
                            *e11r = (z01r - z11r) * s;
                            *e11i = (z01i - z11i) * s;
                        } else {
                            *e00r = (z00r + z01r) * s;
                            *e00i = (z00i + z01i) * s;
                            *e01r = (z00r - z01r) * s;
                            *e01i = (z00i - z01i) * s;
                            *e10r = (z10r + z11r) * s;
                            *e10i = (z10i + z11i) * s;
                            *e11r = (z10r - z11r) * s;
                            *e11i = (z10i - z11i) * s;
                        }
                    }
                }
                sub += 2 * lo_span;
            }
            base_row += 2 * mask_hi;
        }
    }
}

simd_dual! {
    /// The diagonal flush over a chunk of rows.
    fn diag_chunk / diag_chunk_avx(
        re: &mut [f64],
        im: &mut [f64],
        first_row: usize,
        rows: usize,
        dre: &[f64],
        dim: &[f64],
    ) {
        for (j, (rrow, irow)) in re
            .chunks_exact_mut(rows)
            .zip(im.chunks_exact_mut(rows))
            .enumerate()
        {
            let (pr, pi) = (dre[first_row + j], dim[first_row + j]);
            if pr == 1.0 && pi == 0.0 {
                continue;
            }
            for (r, i) in rrow.iter_mut().zip(irow.iter_mut()) {
                mul_phase(r, i, pr, pi);
            }
        }
    }
}

simd_dual! {
    /// Per-state conjugate dot-product accumulation over whole planes.
    fn dot_chunk / dot_chunk_avx(
        are: &[f64],
        aim: &[f64],
        bre: &[f64],
        bim: &[f64],
        rows: usize,
        acc_re: &mut [f64],
        acc_im: &mut [f64],
    ) {
        for (((ra, ia), rb), ib) in are
            .chunks_exact(rows)
            .zip(aim.chunks_exact(rows))
            .zip(bre.chunks_exact(rows))
            .zip(bim.chunks_exact(rows))
        {
            for ((((zr, zi), ar), ai), (br, bi)) in acc_re
                .iter_mut()
                .zip(acc_im.iter_mut())
                .zip(ra)
                .zip(ia)
                .zip(rb.iter().zip(ib))
            {
                // conj(a) * b
                *zr += ar * br + ai * bi;
                *zi += ar * bi - ai * br;
            }
        }
    }
}

/// A batch of same-width state vectors simulated in lockstep.
#[derive(Debug, Clone)]
pub struct StateBatch {
    n: usize,
    count: usize,
    /// Real plane: `re[b * count + s]` is Re(amplitude `b` of state `s`).
    re: Vec<f64>,
    /// Imaginary plane, same indexing.
    im: Vec<f64>,
    layout: QubitLayout,
    workers: usize,
}

impl StateBatch {
    /// Packs a non-empty slice of equal-width states into a batch.
    pub fn from_states(states: &[StateVector]) -> Self {
        let n = states.first().expect("empty state batch").n_qubits();
        let mut batch = Self::empty();
        batch.embed_into(states, n, None);
        batch
    }

    /// A zero-qubit placeholder whose buffers later packs reuse.
    pub(crate) fn empty() -> Self {
        StateBatch {
            n: 0,
            count: 0,
            re: Vec::new(),
            im: Vec::new(),
            layout: QubitLayout::identity(0),
            workers: default_workers(),
        }
    }

    /// Re-packs this batch from `states` as an `n`-qubit register,
    /// reusing the plane allocations. With a placement, source bit `l`
    /// lands at bit `place[l]` and the other qubits start in `|0⟩` (the
    /// physical-replay embedding).
    fn embed_into(&mut self, states: &[StateVector], n: usize, place: Option<&[usize]>) {
        assert!(!states.is_empty(), "empty state batch");
        let n_src = place.map_or(n, <[usize]>::len);
        assert!(
            states.iter().all(|s| s.n_qubits() == n_src),
            "batched states must have {n_src} qubits each"
        );
        assert!(
            n <= DENSE_QUBIT_CAP,
            "{}",
            SimError::RegisterTooLarge {
                engine: "state batch",
                n,
                cap: DENSE_QUBIT_CAP,
            }
        );
        let count = states.len();
        let m = 1usize << n;
        self.n = n;
        self.count = count;
        self.layout = QubitLayout::identity(n);
        self.re.clear();
        self.re.resize(m * count, 0.0);
        self.im.clear();
        self.im.resize(m * count, 0.0);
        let tables = place.map(|p| bit_map_tables(p.len(), p));
        let src_len = 1usize << n_src;
        // Index-major outer loop: every source stream and the destination
        // rows advance sequentially.
        for b in 0..src_len {
            let row = match &tables {
                Some(t) => map_index(t, b),
                None => b,
            } * count;
            for (s, state) in states.iter().enumerate() {
                let a = state.amplitudes()[b];
                self.re[row + s] = a.re;
                self.im[row + s] = a.im;
            }
        }
    }

    /// Number of qubits per state.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// Number of states in the batch.
    #[inline]
    pub fn n_states(&self) -> usize {
        self.count
    }

    /// The worker-thread budget kernels may fan out across.
    #[inline]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Overrides the worker budget (clamped to ≥ 1). `1` forces serial
    /// kernels; larger values only take effect above the parallelism
    /// threshold. Results are bit-identical for every worker count (each
    /// amplitude's update sequence is unchanged by the partitioning).
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// Overwrites this batch with `other`'s contents, reusing the plane
    /// allocations when the sizes match (the repeated-checking hot path:
    /// a scratch batch is reset from a packed base without reallocating).
    pub fn copy_from(&mut self, other: &StateBatch) {
        self.n = other.n;
        self.count = other.count;
        self.re.clone_from(&other.re);
        self.im.clone_from(&other.im);
        self.layout = other.layout.clone();
        self.workers = other.workers;
    }

    /// Applies a Hadamard on qubit `q` of every state. H has real
    /// coefficients, so the two planes transform independently.
    pub fn apply_h(&mut self, q: usize) {
        debug_assert!(q < self.n);
        self.apply_h_mask(self.layout.mask(q));
    }

    fn apply_h_mask(&mut self, mask: usize) {
        let half = mask * self.count;
        let butterfly =
            move |block: &mut [f64]| simd_call!(h_plane_block / h_plane_block_avx(block, half));
        kernels::for_each_block(&mut self.re, 2 * half, self.workers, butterfly);
        kernels::for_each_block(&mut self.im, 2 * half, self.workers, butterfly);
    }

    /// Applies Pauli-X on qubit `q` of every state (plane-independent).
    pub fn apply_x(&mut self, q: usize) {
        debug_assert!(q < self.n);
        let half = self.layout.mask(q) * self.count;
        let exchange = move |block: &mut [f64]| {
            let (lo, hi) = block.split_at_mut(half);
            lo.swap_with_slice(hi);
        };
        kernels::for_each_block(&mut self.re, 2 * half, self.workers, exchange);
        kernels::for_each_block(&mut self.im, 2 * half, self.workers, exchange);
    }

    /// Applies a CNOT with control `c` and target `t` (plane-independent).
    pub fn apply_cnot(&mut self, c: usize, t: usize) {
        debug_assert!(c != t && c < self.n && t < self.n);
        let (mc, mt) = (self.layout.mask(c), self.layout.mask(t));
        let (lo, hi) = (mc.min(mt) * self.count, mc.max(mt) * self.count);
        let control_is_hi = mc > mt;
        let flip = move |block: &mut [f64]| {
            let (h0, h1) = block.split_at_mut(hi);
            if control_is_hi {
                for sub in h1.chunks_exact_mut(2 * lo) {
                    let (s0, s1) = sub.split_at_mut(lo);
                    s0.swap_with_slice(s1);
                }
            } else {
                for (c0, c1) in h0.chunks_exact_mut(2 * lo).zip(h1.chunks_exact_mut(2 * lo)) {
                    c0[lo..].swap_with_slice(&mut c1[lo..]);
                }
            }
        };
        kernels::for_each_block(&mut self.re, 2 * hi, self.workers, flip);
        kernels::for_each_block(&mut self.im, 2 * hi, self.workers, flip);
    }

    /// Applies `RZ` of order `k` on qubit `q` of every state — the
    /// diagonal fast path: only the `2^{n-1}` masked rows are touched.
    pub fn apply_rz(&mut self, q: usize, k: u32) {
        debug_assert!(q < self.n);
        self.apply_phase(self.layout.mask(q), phase_angle(k));
    }

    /// Applies `CPHASE` of order `k` between `q1` and `q2` of every state
    /// — the diagonal fast path: only the `2^{n-2}` doubly-masked rows
    /// are touched.
    pub fn apply_cphase(&mut self, q1: usize, q2: usize, k: u32) {
        debug_assert!(q1 != q2 && q1 < self.n && q2 < self.n);
        let mask = self.layout.mask(q1) | self.layout.mask(q2);
        self.apply_phase(mask, phase_angle(k));
    }

    /// Multiplies `e^{iθ}` onto every row whose stored index holds both
    /// bits of a 2-bit `mask` (or the one bit of a 1-bit mask), with the
    /// phasor hoisted (no per-gate phase-row allocation; that machinery
    /// is for fused streams).
    fn apply_phase(&mut self, mask: usize, theta: f64) {
        let rows = self.count;
        let (lo, hi) = split_masks(mask);
        let hi = hi * rows;
        // In the upper half of each `2·hi` block, phase the upper half of
        // every `sub`-sized run: the whole half for a 1-bit mask.
        let (lo, sub) = lo.map_or((0, hi), |lo| (lo * rows, 2 * lo * rows));
        let (pr, pi) = (theta.cos(), theta.sin());
        self.joint_pass(2 * hi, move |re, im, _| {
            for (bre, bim) in re.chunks_exact_mut(2 * hi).zip(im.chunks_exact_mut(2 * hi)) {
                for (sre, sim) in bre[hi..]
                    .chunks_exact_mut(sub)
                    .zip(bim[hi..].chunks_exact_mut(sub))
                {
                    for (r, i) in sre[lo..].iter_mut().zip(sim[lo..].iter_mut()) {
                        mul_phase(r, i, pr, pi);
                    }
                }
            }
        });
    }

    /// Applies a SWAP — O(1) for the whole batch (one shared lazy layout).
    pub fn apply_swap(&mut self, q1: usize, q2: usize) {
        debug_assert!(q1 != q2 && q1 < self.n && q2 < self.n);
        self.layout.swap(q1, q2);
    }

    /// Applies the fused `CPHASE+SWAP`: one diagonal pass plus a relabel.
    pub fn apply_cphase_swap(&mut self, q1: usize, q2: usize, k: u32) {
        self.apply_cphase(q1, q2, k);
        self.layout.swap(q1, q2);
    }

    /// Runs a row-aware joint pass `f(re_chunk, im_chunk, first_row)` over
    /// both planes, split at multiples of `block` elements and fanned
    /// across up to [`Self::workers`] scoped threads above the size
    /// threshold (each worker owns a contiguous run of blocks — the
    /// `qft-serve` pool idiom without the queue).
    fn joint_pass<F>(&mut self, block: usize, f: F)
    where
        F: Fn(&mut [f64], &mut [f64], usize) + Sync,
    {
        debug_assert_eq!(self.re.len() % block, 0);
        let rows = self.count;
        let n_blocks = self.re.len() / block;
        let workers = if self.workers > 1 && self.re.len() >= kernels::PAR_MIN_ELEMENTS {
            self.workers
        } else {
            1
        };
        if workers <= 1 || n_blocks < 2 {
            f(&mut self.re, &mut self.im, 0);
            return;
        }
        let per = n_blocks.div_ceil(workers) * block;
        std::thread::scope(|scope| {
            let (mut re_rest, mut im_rest) = (&mut self.re[..], &mut self.im[..]);
            let mut first_row = 0usize;
            while !re_rest.is_empty() {
                let take = per.min(re_rest.len());
                let (re_head, re_tail) = re_rest.split_at_mut(take);
                let (im_head, im_tail) = im_rest.split_at_mut(take);
                let f = &f;
                let start = first_row;
                scope.spawn(move || f(re_head, im_head, start));
                first_row += take / rows;
                re_rest = re_tail;
                im_rest = im_tail;
            }
        });
    }

    /// Applies a pending diagonal run *and* a Hadamard in one joint pass:
    /// each amplitude is multiplied by its index's phasor as it is loaded
    /// for the butterfly, so a `D·H` pair costs a single sweep of the
    /// planes instead of two.
    fn apply_h_with_diag_mask(&mut self, mask: usize, d: &DiagRow) {
        let rows = self.count;
        let half = mask * rows;
        let (dre, dim) = (&d.re, &d.im);
        self.joint_pass(2 * half, |re, im, first_row| {
            simd_call!(hd_chunk / hd_chunk_avx(re, im, first_row, mask, rows, dre, dim))
        });
    }

    /// Applies a whole `D0 · H(m1) · D1 · H(m2)` segment as one radix-4
    /// sweep — the pass-count floor for QFT-shaped streams (`n/2` full
    /// passes instead of `n` fused radix-2 passes).
    fn apply_r4(&mut self, m1: usize, m2: usize, d0: Option<&DiagRow>, d1: Option<&DiagRow>) {
        debug_assert_ne!(m1, m2);
        let (lo, hi) = (m1.min(m2), m1.max(m2));
        let lo_first = m1 == lo;
        let rows = self.count;
        let empty: &[f64] = &[];
        let (d0re, d0im) = d0.map_or((empty, empty), |d| (&d.re[..], &d.im[..]));
        let (d1re, d1im) = d1.map_or((empty, empty), |d| (&d.re[..], &d.im[..]));
        self.joint_pass(2 * hi * rows, |re, im, first_row| {
            simd_call!(
                r4_chunk
                    / r4_chunk_avx(
                        re, im, first_row, lo, hi, rows, lo_first, d0re, d0im, d1re, d1im
                    )
            )
        });
    }

    /// Multiplies a pending diagonal run onto every state: one dense pass,
    /// broadcasting each index's phasor across the `count` adjacent
    /// amplitudes.
    fn flush_diag(&mut self, d: &DiagRow) {
        let rows = self.count;
        let (dre, dim) = (&d.re, &d.im);
        self.joint_pass(rows, |re, im, first_row| {
            simd_call!(diag_chunk / diag_chunk_avx(re, im, first_row, rows, dre, dim))
        });
    }

    /// Applies a logical gate to every state (decoded once for the batch).
    pub fn apply_gate(&mut self, g: &Gate) {
        let a = g.a.index();
        match (g.kind, g.b) {
            (GateKind::H, _) => self.apply_h(a),
            (GateKind::X, _) => self.apply_x(a),
            (GateKind::Rz { k }, _) => self.apply_rz(a, k),
            (GateKind::Cphase { k }, Some(b)) => self.apply_cphase(a, b.index(), k),
            (GateKind::Swap, Some(b)) => self.apply_swap(a, b.index()),
            (GateKind::CphaseSwap { k }, Some(b)) => self.apply_cphase_swap(a, b.index(), k),
            (GateKind::Cnot, Some(b)) => self.apply_cnot(a, b.index()),
            _ => unreachable!("malformed gate {g}"),
        }
    }

    /// Applies the *inverse* of a logical gate to every state (how
    /// inverse-QFT applications such as phase estimation run the forward
    /// kernel backwards). H, X, SWAP and CNOT are self-inverse; the
    /// diagonal gates conjugate their phase.
    pub fn apply_gate_inverse(&mut self, g: &Gate) {
        let a = g.a.index();
        match (g.kind, g.b) {
            (GateKind::Rz { k }, _) => self.apply_phase(self.layout.mask(a), -phase_angle(k)),
            (GateKind::Cphase { k } | GateKind::CphaseSwap { k }, Some(b)) => {
                // (CP · SWAP)⁻¹ = SWAP · CP⁻¹: the two commute on one pair,
                // and the relabel leaves the pair's mask unchanged.
                let b = b.index();
                let mask = self.layout.mask(a) | self.layout.mask(b);
                self.apply_phase(mask, -phase_angle(k));
                if matches!(g.kind, GateKind::CphaseSwap { .. }) {
                    self.layout.swap(a, b);
                }
            }
            _ => self.apply_gate(g),
        }
    }

    /// Streams a gate sequence through the batch with diagonal-run fusion
    /// and radix-4 segment fusion (the same path as
    /// [`StateBatch::apply_phys_ops`]).
    pub fn apply_gates(&mut self, gates: impl IntoIterator<Item = Gate>) {
        self.apply_sim_ops(gates.into_iter().map(|g| {
            let a = g.a.index();
            match (g.kind, g.b) {
                (GateKind::H, _) => SimOp::H(a),
                (GateKind::X, _) => SimOp::X(a),
                (GateKind::Rz { k }, _) => SimOp::Rz(a, k),
                (GateKind::Cphase { k }, Some(b)) => SimOp::Cphase(a, b.index(), k),
                (GateKind::Swap, Some(b)) => SimOp::Swap(a, b.index()),
                (GateKind::CphaseSwap { k }, Some(b)) => SimOp::CphaseSwap(a, b.index(), k),
                (GateKind::Cnot, Some(b)) => SimOp::Cnot(a, b.index()),
                _ => unreachable!("malformed gate {g}"),
            }
        }));
    }

    /// Streams a mapped circuit's physical op sequence through the batch
    /// (operands are physical qubit indices), with the same fusion and
    /// O(1) lazy SWAPs as [`Self::apply_gates`].
    pub fn apply_phys_ops<'a>(&mut self, ops: impl IntoIterator<Item = &'a PhysOp>) {
        self.apply_sim_ops(ops.into_iter().map(|op| {
            let p1 = op.p1.index();
            match (op.kind, op.p2) {
                (GateKind::H, _) => SimOp::H(p1),
                (GateKind::X, _) => SimOp::X(p1),
                (GateKind::Rz { k }, _) => SimOp::Rz(p1, k),
                (GateKind::Cphase { k }, Some(p2)) => SimOp::Cphase(p1, p2.index(), k),
                (GateKind::Swap, Some(p2)) => SimOp::Swap(p1, p2.index()),
                (GateKind::CphaseSwap { k }, Some(p2)) => SimOp::CphaseSwap(p1, p2.index(), k),
                (GateKind::Cnot, Some(p2)) => SimOp::Cnot(p1, p2.index()),
                _ => unreachable!("malformed physical op"),
            }
        }));
    }

    /// The fused streaming core. Gates are decoded once; SWAPs relabel the
    /// shared layout in O(1); diagonal gates accumulate into per-index
    /// phase rows; and every `D0 · H · D1 · H` segment retires as one
    /// radix-4 sweep (odd tails as fused `D·H` radix-2 passes, trailing
    /// diagonals as one flush).
    fn apply_sim_ops(&mut self, ops: impl Iterator<Item = SimOp>) {
        let m = 1usize << self.n;
        // d0: diagonals before the pending H; h1: the pending H's basis
        // mask (recorded at its stream position); d1: diagonals after it.
        let mut d0: Option<DiagRow> = None;
        let mut h1: Option<usize> = None;
        let mut d1: Option<DiagRow> = None;
        for op in ops {
            match op {
                SimOp::Rz(q, k) => {
                    let mask = self.layout.mask(q);
                    let slot = if h1.is_some() { &mut d1 } else { &mut d0 };
                    slot.get_or_insert_with(|| DiagRow::identity(m))
                        .accumulate(mask, phase_angle(k));
                }
                SimOp::Cphase(a, b, k) => {
                    let mask = self.layout.mask(a) | self.layout.mask(b);
                    let slot = if h1.is_some() { &mut d1 } else { &mut d0 };
                    slot.get_or_insert_with(|| DiagRow::identity(m))
                        .accumulate(mask, phase_angle(k));
                }
                SimOp::CphaseSwap(a, b, k) => {
                    let mask = self.layout.mask(a) | self.layout.mask(b);
                    let slot = if h1.is_some() { &mut d1 } else { &mut d0 };
                    slot.get_or_insert_with(|| DiagRow::identity(m))
                        .accumulate(mask, phase_angle(k));
                    self.layout.swap(a, b);
                }
                SimOp::Swap(a, b) => self.layout.swap(a, b),
                SimOp::H(q) => {
                    let mask = self.layout.mask(q);
                    match h1 {
                        None => h1 = Some(mask),
                        Some(m1) if m1 != mask => {
                            let (p0, p1) = (d0.take(), d1.take());
                            self.apply_r4(m1, mask, p0.as_ref(), p1.as_ref());
                            h1 = None;
                        }
                        Some(m1) => {
                            // H·D·H on the same slot: retire the first
                            // radix-2; the middle run becomes the new
                            // pending prefix.
                            let p0 = d0.take();
                            self.apply_h2(m1, p0.as_ref());
                            d0 = d1.take();
                            h1 = Some(mask);
                        }
                    }
                }
                SimOp::X(q) => {
                    self.flush_pending(&mut d0, &mut h1, &mut d1);
                    self.apply_x(q);
                }
                SimOp::Cnot(c, t) => {
                    self.flush_pending(&mut d0, &mut h1, &mut d1);
                    self.apply_cnot(c, t);
                }
            }
        }
        self.flush_pending(&mut d0, &mut h1, &mut d1);
    }

    /// Retires everything the segment collector holds, in stream order.
    fn flush_pending(
        &mut self,
        d0: &mut Option<DiagRow>,
        h1: &mut Option<usize>,
        d1: &mut Option<DiagRow>,
    ) {
        if let Some(m1) = h1.take() {
            let p0 = d0.take();
            self.apply_h2(m1, p0.as_ref());
            if let Some(d) = d1.take() {
                self.flush_diag(&d);
            }
        } else if let Some(d) = d0.take() {
            self.flush_diag(&d);
        }
        debug_assert!(d0.is_none() && d1.is_none());
    }

    /// A fused `D·H` radix-2 pass (plain butterfly when no run pending).
    fn apply_h2(&mut self, mask: usize, d: Option<&DiagRow>) {
        match d {
            Some(d) => self.apply_h_with_diag_mask(mask, d),
            None => self.apply_h_mask(mask),
        }
    }

    /// Applies every gate of a logical circuit in order (with fusion).
    pub fn apply_circuit(&mut self, c: &Circuit) {
        assert_eq!(c.n_qubits(), self.n);
        self.apply_gates(c.gates().iter().copied());
    }

    /// Physical replay of a mapped circuit: packs the logical `inputs`
    /// into this batch as the `n_physical`-qubit register (logical qubit
    /// `l` at its initial-layout position, spare qubits in `|0⟩`), streams
    /// every physical op — SWAP chains as O(1) relabels — and reads the
    /// logical register back out at the final layout into `out`. Both
    /// batches reuse their plane allocations across calls. Amplitude left
    /// on excited spare qubits is dropped, so it shows up as lost norm.
    pub fn replay_physically(
        &mut self,
        mc: &MappedCircuit,
        inputs: &[StateVector],
        out: &mut StateBatch,
    ) {
        let n_l = mc.n_logical();
        let place = logical_places(mc.initial_layout(), n_l);
        self.embed_into(inputs, mc.n_physical(), Some(&place));
        self.apply_phys_ops(mc.ops());
        self.extract_into(&logical_places(mc.final_layout(), n_l), out);
    }

    /// Materializes any pending qubit permutation (one row-gather pass per
    /// plane).
    pub fn resolve_layout(&mut self) {
        if self.layout.is_identity() {
            return;
        }
        let tables = bit_map_tables(self.n, self.layout.labels());
        self.re = gather_rows(&self.re, self.count, &tables);
        self.im = gather_rows(&self.im, self.count, &tables);
        self.layout = QubitLayout::identity(self.n);
    }

    /// Reads the batch back down to `place.len()` logical qubits (logical
    /// bit `l` from stored qubit `place[l]`) into `dest`, reusing `dest`'s
    /// allocations — the readout half of physical replay. The pending
    /// lazy permutation is *composed into* the gather tables (one pass,
    /// no resolve sweep).
    fn extract_into(&self, place: &[usize], dest: &mut StateBatch) {
        let rows = self.count;
        let stored_bits: Vec<usize> = place.iter().map(|&q| self.layout.slot_of(q)).collect();
        let tables = bit_map_tables(stored_bits.len(), &stored_bits);
        let m_out = 1usize << place.len();
        dest.n = place.len();
        dest.count = rows;
        dest.layout = QubitLayout::identity(place.len());
        dest.workers = self.workers;
        dest.re.clear();
        dest.re.resize(m_out * rows, 0.0);
        dest.im.clear();
        dest.im.resize(m_out * rows, 0.0);
        for b in 0..m_out {
            let src = map_index(&tables, b) * rows;
            dest.re[b * rows..(b + 1) * rows].copy_from_slice(&self.re[src..src + rows]);
            dest.im[b * rows..(b + 1) * rows].copy_from_slice(&self.im[src..src + rows]);
        }
    }

    /// The planes in canonical row order: borrowed when no permutation is
    /// pending, gathered into fresh vectors otherwise (per side — the
    /// identity side is never copied).
    fn resolved_planes(&self) -> (Cow<'_, [f64]>, Cow<'_, [f64]>) {
        if self.layout.is_identity() {
            (Cow::Borrowed(&self.re), Cow::Borrowed(&self.im))
        } else {
            let tables = bit_map_tables(self.n, self.layout.labels());
            (
                Cow::Owned(gather_rows(&self.re, self.count, &tables)),
                Cow::Owned(gather_rows(&self.im, self.count, &tables)),
            )
        }
    }

    /// Unpacks the batch into individual states.
    pub fn to_states(&self) -> Vec<StateVector> {
        let (re, im) = self.resolved_planes();
        (0..self.count)
            .map(|s| {
                let amps: Vec<Complex64> = (0..1usize << self.n)
                    .map(|b| Complex64::new(re[b * self.count + s], im[b * self.count + s]))
                    .collect();
                StateVector::from_amplitudes(self.n, amps)
            })
            .collect()
    }

    /// Per-state `|⟨self_s|other_s⟩|²` — the batched equivalence readout.
    /// Layout-aware: when both batches carry the same permutation the
    /// stored orders already align and no gather is needed.
    pub fn fidelities(&self, other: &StateBatch) -> Vec<f64> {
        assert_eq!(self.n, other.n);
        assert_eq!(self.count, other.count);
        let rows = self.count;
        let dot = |are: &[f64], aim: &[f64], bre: &[f64], bim: &[f64]| -> Vec<f64> {
            let (mut acc_re, mut acc_im) = (vec![0.0f64; rows], vec![0.0f64; rows]);
            simd_call!(
                dot_chunk / dot_chunk_avx(are, aim, bre, bim, rows, &mut acc_re, &mut acc_im)
            );
            acc_re
                .iter()
                .zip(&acc_im)
                .map(|(r, i)| r * r + i * i)
                .collect()
        };
        if self.layout == other.layout {
            dot(&self.re, &self.im, &other.re, &other.im)
        } else {
            // Resolve only the permuted side(s); an identity side is
            // borrowed, not copied.
            let (are, aim) = self.resolved_planes();
            let (bre, bim) = other.resolved_planes();
            dot(&are, &aim, &bre, &bim)
        }
    }

    /// Per-state total probability (permutation-invariant).
    pub fn norms2(&self) -> Vec<f64> {
        let mut acc = vec![0.0f64; self.count];
        for (rrow, irow) in self
            .re
            .chunks_exact(self.count)
            .zip(self.im.chunks_exact(self.count))
        {
            for ((z, r), i) in acc.iter_mut().zip(rrow).zip(irow) {
                *z += r * r + i * i;
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qft_ir::gate::LogicalQubit;
    use std::f64::consts::PI;

    const EPS: f64 = 1e-10;

    fn probe(n: usize, count: usize) -> Vec<StateVector> {
        (0..count as u64)
            .map(|s| StateVector::random(n, 2 * s + 1))
            .collect()
    }

    /// A batch of one state.
    fn one(s: &StateVector) -> StateBatch {
        StateBatch::from_states(std::slice::from_ref(s))
    }

    /// The state of a one-state batch.
    fn only(b: &StateBatch) -> StateVector {
        b.to_states().remove(0)
    }

    fn fused_cphase_swap(k: u32, a: u32, b: u32) -> Gate {
        Gate::two(GateKind::CphaseSwap { k }, LogicalQubit(a), LogicalQubit(b))
    }

    #[test]
    fn h_twice_is_identity() {
        let orig = StateVector::random(4, 7);
        let mut s = one(&orig);
        s.apply_h(2);
        s.apply_h(2);
        assert!((only(&s).fidelity(&orig) - 1.0).abs() < EPS);
    }

    #[test]
    fn h_creates_uniform_superposition() {
        let mut s = one(&StateVector::zero(1));
        s.apply_h(0);
        for a in only(&s).amplitudes() {
            assert!((a.re - std::f64::consts::FRAC_1_SQRT_2).abs() < EPS);
        }
    }

    #[test]
    fn cphase_only_phases_11() {
        let mut s = one(&StateVector::basis(2, 0b11));
        s.apply_cphase(0, 1, 1); // k=1 => phase pi => factor -1
        assert!((only(&s).amplitudes()[3].re + 1.0).abs() < EPS);
        let mut s = one(&StateVector::basis(2, 0b01));
        s.apply_cphase(0, 1, 1);
        assert!((only(&s).amplitudes()[1].re - 1.0).abs() < EPS);
    }

    #[test]
    fn cphase_is_symmetric() {
        let mut a = one(&StateVector::random(3, 11));
        let mut b = a.clone();
        a.apply_cphase(0, 2, 3);
        b.apply_cphase(2, 0, 3);
        assert!((a.fidelities(&b)[0] - 1.0).abs() < EPS);
    }

    #[test]
    fn cphases_commute_even_sharing_a_qubit() {
        // The algebraic heart of §3.1.
        let mut a = one(&StateVector::random(3, 13));
        let mut b = a.clone();
        a.apply_cphase(0, 1, 2);
        a.apply_cphase(0, 2, 3);
        b.apply_cphase(0, 2, 3);
        b.apply_cphase(0, 1, 2);
        assert!((a.fidelities(&b)[0] - 1.0).abs() < EPS);
    }

    #[test]
    fn h_and_cphase_do_not_commute() {
        let mut a = one(&StateVector::random(2, 17));
        let mut b = a.clone();
        a.apply_h(0);
        a.apply_cphase(0, 1, 2);
        b.apply_cphase(0, 1, 2);
        b.apply_h(0);
        assert!(a.fidelities(&b)[0] < 1.0 - 1e-3);
    }

    #[test]
    fn swap_exchanges_basis_bits() {
        let mut s = one(&StateVector::basis(3, 0b001));
        s.apply_swap(0, 2);
        assert!((only(&s).amplitudes()[0b100].re - 1.0).abs() < EPS);
    }

    #[test]
    fn swap_equals_three_cnots() {
        let mut a = one(&StateVector::random(2, 23));
        let mut b = a.clone();
        a.apply_swap(0, 1);
        b.apply_cnot(0, 1);
        b.apply_cnot(1, 0);
        b.apply_cnot(0, 1);
        assert!((a.fidelities(&b)[0] - 1.0).abs() < EPS);
    }

    #[test]
    fn cnot_flips_the_target_where_the_control_is_set() {
        // Control q0 set (|01⟩) flips q1; control clear (|10⟩) does not.
        for (input, output) in [(0b01, 0b11), (0b10, 0b10)] {
            let mut s = one(&StateVector::basis(2, input));
            s.apply_cnot(0, 1);
            assert!((only(&s).amplitudes()[output].re - 1.0).abs() < EPS);
        }
    }

    #[test]
    fn gates_after_lazy_swaps_act_on_relabeled_qubits() {
        // H on q0 after SWAP(0, 2) must equal H on q2 before it.
        let mut a = one(&StateVector::random(3, 41));
        let mut b = a.clone();
        a.apply_swap(0, 2);
        a.apply_h(0);
        b.apply_h(2);
        b.apply_swap(0, 2);
        assert!((a.fidelities(&b)[0] - 1.0).abs() < EPS);
    }

    #[test]
    fn fused_cphase_swap_equals_the_two_gates() {
        let mut a = one(&StateVector::random(3, 43));
        let mut b = a.clone();
        a.apply_cphase_swap(0, 1, 3);
        b.apply_cphase(0, 1, 3);
        b.apply_swap(0, 1);
        // Element-wise (no global-phase slack between the two paths).
        for (x, y) in only(&a).amplitudes().iter().zip(only(&b).amplitudes()) {
            assert!((x.re - y.re).abs() < EPS && (x.im - y.im).abs() < EPS);
        }
    }

    #[test]
    fn readout_agrees_before_and_after_resolve_layout() {
        let mut s = one(&StateVector::random(4, 31));
        s.apply_swap(1, 3);
        s.apply_cphase(0, 1, 2);
        s.apply_swap(0, 1);
        let gathered = only(&s);
        s.resolve_layout();
        for (x, y) in gathered.amplitudes().iter().zip(only(&s).amplitudes()) {
            assert_eq!((x.re, x.im), (y.re, y.im));
        }
    }

    #[test]
    fn rotation_angles_are_exact_beyond_k_30() {
        // Regression: the old `1u32 << k.min(30)` clamp collapsed every
        // k > 30 onto the k = 30 angle.
        assert!(phase_angle(31) != phase_angle(30));
        assert!(phase_angle(40) != phase_angle(30));
        assert!((phase_angle(40) - 2.0 * PI / (1u64 << 40) as f64).abs() < 1e-24);
        // The |1⟩ amplitude carries the exact e^{iθ_k} phase: at k = 40
        // its imaginary part is sin(2π/2^40) ≈ 5.7e-12, three orders of
        // magnitude from the k = 30 value the old clamp produced.
        let mut a = one(&StateVector::basis(1, 1));
        a.apply_rz(0, 40);
        let im = only(&a).amplitudes()[1].im;
        assert!((im - phase_angle(40).sin()).abs() < 1e-24);
        assert!((im - phase_angle(30).sin()).abs() > 1e-10, "clamp bug");
        // Same for the two-qubit diagonal.
        let mut c = one(&StateVector::basis(2, 0b11));
        c.apply_cphase(0, 1, 35);
        assert!((only(&c).amplitudes()[3].im - phase_angle(35).sin()).abs() < 1e-24);
    }

    #[test]
    fn inverse_gates_undo_forward_gates() {
        let gates = [
            Gate::h(1),
            Gate::rz(3, 0),
            Gate::cphase(3, 0, 2),
            Gate::swap(1, 2),
            fused_cphase_swap(2, 0, 2),
            Gate::cnot(0, 1),
        ];
        for count in [1, 3] {
            let orig = probe(3, count);
            let mut s = StateBatch::from_states(&orig);
            for g in &gates {
                s.apply_gate(g);
            }
            for g in gates.iter().rev() {
                s.apply_gate_inverse(g);
            }
            for (got, want) in s.to_states().iter().zip(&orig) {
                assert!((got.fidelity(want) - 1.0).abs() < EPS, "count={count}");
            }
        }
    }

    #[test]
    fn norm_preserved_by_gates() {
        let mut s = one(&StateVector::random(5, 31));
        s.apply_h(3);
        s.apply_cphase(1, 4, 2);
        s.apply_swap(0, 2);
        s.apply_cnot(2, 3);
        assert!((s.norms2()[0] - 1.0).abs() < EPS);
    }

    #[test]
    fn batch_matches_per_state_application() {
        // The fused stream over several states equals gate-by-gate
        // application to one-state batches.
        let states = probe(5, 4);
        let c = qft_ir::qft::qft_circuit(5);
        let mut batch = StateBatch::from_states(&states);
        batch.apply_circuit(&c);
        for (input, got) in states.iter().zip(batch.to_states()) {
            let mut want = one(input);
            for g in c.gates() {
                want.apply_gate(g);
            }
            assert!((got.fidelity(&only(&want)) - 1.0).abs() < EPS);
        }
    }

    #[test]
    fn batch_lazy_swaps_and_fused_gates_match_singles() {
        let states = probe(4, 3);
        let gates = [
            Gate::h(0),
            Gate::swap(0, 3),
            Gate::cphase(2, 0, 1),
            Gate::rz(4, 2),
            fused_cphase_swap(3, 1, 2),
            Gate::cnot(2, 0),
            Gate::h(3),
        ];
        // Via the fused stream AND via one-gate-at-a-time application.
        for fused in [true, false] {
            let mut batch = StateBatch::from_states(&states);
            if fused {
                batch.apply_gates(gates.iter().copied());
            } else {
                for g in &gates {
                    batch.apply_gate(g);
                }
            }
            for (input, got) in states.iter().zip(batch.to_states()) {
                let mut want = one(input);
                for g in &gates {
                    want.apply_gate(g);
                }
                assert!(
                    (got.fidelity(&only(&want)) - 1.0).abs() < EPS,
                    "fused={fused} diverges"
                );
            }
        }
    }
    #[test]
    fn fidelities_match_pairwise_single_state_fidelity() {
        let a_states = probe(4, 3);
        let b_states: Vec<StateVector> =
            (0..3u64).map(|s| StateVector::random(4, 100 + s)).collect();
        let a = StateBatch::from_states(&a_states);
        let b = StateBatch::from_states(&b_states);
        for (f, (x, y)) in a.fidelities(&b).iter().zip(a_states.iter().zip(&b_states)) {
            assert!((f - x.fidelity(y)).abs() < EPS);
        }
    }

    #[test]
    fn norms_stay_one_through_circuits() {
        let mut batch = StateBatch::from_states(&probe(6, 5));
        batch.apply_circuit(&qft_ir::qft::qft_circuit(6));
        for nrm in batch.norms2() {
            assert!((nrm - 1.0).abs() < EPS);
        }
    }

    #[test]
    fn worker_counts_do_not_change_results() {
        // n = 12 × 8 states crosses PAR_MIN_ELEMENTS, so multi-worker
        // kernels really fan out; the amplitudes must be bit-identical.
        let states = probe(12, 8);
        let c = qft_ir::qft::qft_circuit(12);
        let mut serial = StateBatch::from_states(&states);
        serial.set_workers(1);
        serial.apply_circuit(&c);
        let mut parallel = StateBatch::from_states(&states);
        parallel.set_workers(4);
        parallel.apply_circuit(&c);
        assert_eq!(serial.re.len(), parallel.re.len());
        for (a, b) in serial
            .re
            .iter()
            .chain(&serial.im)
            .zip(parallel.re.iter().chain(&parallel.im))
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
