//! Linear-depth QFT on the lattice-surgery FT backend (§6 of the paper).
//!
//! The rotated grid (Fig. 15(a)) has fast intra-row links (SWAP depth 2)
//! and CNOT-only inter-row links (SWAP = 3 CNOTs = depth 6, plain two-qubit
//! gates depth 2). Each row is a *unit*; the `m` units follow the same
//! unit-level LNN QFT wavefront as Sycamore — the shared driver
//! [`run_unit_qft`] (Fig. 14), which owns QFT-IA — with FT-specific pieces
//! supplied here:
//!
//! * **QFT-IA** — intra-row LNN QFT over the fast links;
//! * **QFT-IE** — the relaxed synced pattern synthesized for the regular 2D
//!   grid (Fig. 30(b) / Appendix 7): the two rows run alternating-offset
//!   transposition layers with the *bottom row one step out of phase*
//!   (same-column qubits are directly linked here, so the stagger — not a
//!   fix-up — is what makes all-to-all coverage work); `m` movement steps
//!   cover every cross pair and mirror both rows;
//! * **unit SWAP** — one transversal layer of vertical SWAPs (each costing
//!   depth 6 on the CNOT-only links).
//!
//! Depth is linear in `N = m²` (see tests). Our row-granular composition is
//! a constant factor above the paper's 5N headline because we do not fuse
//! IA(2k) + IE(2k,2k+1) + IA(2k+1) into the 2×N pattern of \[43\]; that
//! fusion is left out on purpose, and the `complexity` bench reports c.
//!
//! This module is a *construct* stage of the pass pipeline: it emits the
//! raw analytical schedule, and the shared `qft_ir::passes` tail (chosen
//! by `CompileOptions::opt_level`) runs afterwards in
//! `qft_core::pipeline::finish_result`.

use crate::lnn::run_unit_qft;
use crate::progress::QftProgress;
use qft_arch::lattice::LatticeSurgery;
use qft_ir::circuit::{MappedCircuit, MappedCircuitBuilder};
use qft_ir::gate::PhysicalQubit;
use serde::{Deserialize, Serialize};

/// Which inter-unit interaction schedule to use (§3.3's ablation: the
/// relaxed pattern is ~2× faster than the strict one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum IeMode {
    /// Commutativity-exploiting pattern (Fig. 30(b)): `m` movement steps.
    #[default]
    Relaxed,
    /// Type-I-order-preserving pattern (Fig. 29(b)): `2m − 1` movement
    /// steps with piecewise-affine-bounded ranges.
    Strict,
}

/// Compiles the QFT for all `N = m²` qubits of a lattice-surgery device
/// with the inter-unit mode `ie` ([`IeMode::Relaxed`] is the paper's QFT
/// configuration; [`IeMode::Strict`] is the §3.3 ablation).
pub fn compile_lattice(l: &LatticeSurgery, ie: IeMode) -> MappedCircuit {
    let rows: Vec<Vec<PhysicalQubit>> = (0..l.m)
        .map(|r| (0..l.m).map(|c| l.at(r, c)).collect())
        .collect();
    let mut builder = MappedCircuitBuilder::new(l.initial_layout());
    run_unit_qft(
        &mut builder,
        &rows,
        |b, prog, top| match ie {
            IeMode::Relaxed => qft_ie_relaxed(l, b, prog, top),
            IeMode::Strict => qft_ie_strict(l, b, prog, top),
        },
        |b, top| unit_swap(l, b, top),
    );
    builder.finish()
}

/// QFT-IE-relaxed between rows `top` and `top + 1` (Fig. 30(b)): `m`
/// staggered movement steps; vertical CPHASEs on every column between
/// steps. Mirrors both rows.
fn qft_ie_relaxed(
    l: &LatticeSurgery,
    builder: &mut MappedCircuitBuilder,
    prog: &mut QftProgress,
    top: usize,
) {
    let m = l.m;
    for i in 0..m {
        fire_columns(l, builder, prog, top, m);
        // Staggered intra-row transpositions: top offset (i+1) mod 2,
        // bottom offset i mod 2 (the Appendix-7 stagger).
        swap_row(l, builder, top, (i as i64 + 1) % 2, m as i64);
        swap_row(l, builder, top + 1, i as i64 % 2, m as i64);
    }
    fire_columns(l, builder, prog, top, m);
}

/// QFT-IE-strict between rows `top` and `top + 1` (Fig. 29(b), re-derived
/// by `qft-synth`): `2m − 1` movement steps with range ends bounded by
/// `min(i + a, 2m + b − i)` so that gates sharing a qubit fire in label
/// order (Type I preserved). ~2× the depth of the relaxed pattern.
fn qft_ie_strict(
    l: &LatticeSurgery,
    builder: &mut MappedCircuitBuilder,
    prog: &mut QftProgress,
    top: usize,
) {
    let m = l.m;
    let t_total = 2 * m as i64 - 1;
    for i in 0..t_total {
        let end_cp = (i + 1).min(2 * m as i64 - 1 - i);
        if end_cp > 0 {
            fire_columns(l, builder, prog, top, end_cp as usize);
        }
        let bu = i % 2;
        let bd = (bu + 1) % 2;
        let end_u = (i + 1).min(2 * m as i64 - 2 - i);
        let end_d = i.min(2 * m as i64 - 2 - i);
        swap_row(l, builder, top, bu, end_u);
        swap_row(l, builder, top + 1, bd, end_d);
    }
    fire_columns(l, builder, prog, top, m);
}

/// Fires every eligible vertical CPHASE between rows `top` and `top + 1`
/// in columns `0..end`.
fn fire_columns(
    l: &LatticeSurgery,
    builder: &mut MappedCircuitBuilder,
    prog: &mut QftProgress,
    top: usize,
    end: usize,
) {
    for c in 0..end.min(l.m) {
        prog.fire(builder, l.at(top, c), l.at(top + 1, c));
    }
}

/// Swaps the pairs `(j, j+1)` of row `r` for `j = beg, beg+2, …` while
/// `j < end` and `j + 1 < m`.
fn swap_row(l: &LatticeSurgery, builder: &mut MappedCircuitBuilder, r: usize, beg: i64, end: i64) {
    let mut j = beg.max(0);
    while j < end && ((j + 1) as usize) < l.m {
        builder.push_swap_phys(l.at(r, j as usize), l.at(r, (j + 1) as usize));
        j += 2;
    }
}

/// Transversal unit SWAP: one layer of vertical SWAPs between two adjacent
/// rows (each SWAP costs depth 6 on the CNOT-only links).
fn unit_swap(l: &LatticeSurgery, builder: &mut MappedCircuitBuilder, top: usize) {
    for c in 0..l.m {
        builder.push_swap_phys(l.at(top, c), l.at(top + 1, c));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qft_sim::symbolic::verify_qft_mapping;

    #[test]
    fn lattice_verifies_symbolically() {
        for m in [2usize, 3, 4, 5, 6, 8, 10] {
            let l = LatticeSurgery::new(m);
            let mc = compile_lattice(&l, IeMode::Relaxed);
            let n = l.n_qubits();
            let report =
                verify_qft_mapping(&mc, l.graph()).unwrap_or_else(|e| panic!("m={m}: {e}"));
            assert_eq!(report.pairs, n * (n - 1) / 2, "m={m}");
        }
    }

    #[test]
    fn lattice_small_unitarily_correct() {
        for m in [2usize, 3] {
            let l = LatticeSurgery::new(m);
            let mc = compile_lattice(&l, IeMode::Relaxed);
            assert!(qft_sim::equiv::mapped_equals_qft(&mc, 3), "m={m}");
        }
    }

    #[test]
    fn weighted_depth_is_linear_in_n() {
        // Row-granular composition: depth ≤ c·N for a constant c (the
        // paper's fused variant reaches c = 5; ours is a small constant
        // above that — assert linearity with headroom and monotone ratio).
        let ratio = |m: usize| {
            let l = LatticeSurgery::new(m);
            let mc = compile_lattice(&l, IeMode::Relaxed);
            l.graph().depth_of(&mc) as f64 / (m * m) as f64
        };
        let r10 = ratio(10);
        let r20 = ratio(20);
        assert!(r10 < 14.0, "depth/N at m=10 is {r10:.2}");
        assert!(r20 <= r10 + 1.0, "depth/N grows: {r10:.2} -> {r20:.2}");
    }

    #[test]
    fn strict_mode_verifies_and_is_slower() {
        // §3.3: the relaxed inter-unit ordering buys ~2× in the IE stages.
        for m in [4usize, 6, 8] {
            let l = LatticeSurgery::new(m);
            let relaxed = compile_lattice(&l, IeMode::Relaxed);
            let strict = compile_lattice(&l, IeMode::Strict);
            verify_qft_mapping(&strict, l.graph()).unwrap_or_else(|e| panic!("m={m}: {e}"));
            let (dr, ds) = (l.graph().depth_of(&relaxed), l.graph().depth_of(&strict));
            assert!(ds > dr, "m={m}: strict {ds} not slower than relaxed {dr}");
        }
    }

    #[test]
    fn strict_mode_small_unitarily_correct() {
        let l = LatticeSurgery::new(3);
        let mc = compile_lattice(&l, IeMode::Strict);
        assert!(qft_sim::equiv::mapped_equals_qft(&mc, 3));
    }

    #[test]
    fn swap_counts_scale_quadratically() {
        // ~N²-ish SWAP totals like Table 1 (2700 @ 10x10 scale).
        let l = LatticeSurgery::new(10);
        let mc = compile_lattice(&l, IeMode::Relaxed);
        let swaps = mc.swap_count();
        assert!(swaps > 1000 && swaps < 20_000, "swaps={swaps}");
    }
}
