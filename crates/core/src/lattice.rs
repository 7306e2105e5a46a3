//! Linear-depth QFT on the lattice-surgery FT backend (§6 of the paper).
//!
//! The rotated grid (Fig. 15(a)) has fast intra-row links (SWAP depth 2)
//! and CNOT-only inter-row links (SWAP = 3 CNOTs = depth 6, plain two-qubit
//! gates depth 2). Each row is a *unit*; the `m` units follow the same
//! unit-level LNN QFT wavefront as Sycamore, with FT-specific pieces:
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

use crate::line::{line_qft_schedule, LineOp};
use crate::lnn::{run_line_qft, PathOrder};
use crate::progress::QftProgress;
use qft_arch::lattice::LatticeSurgery;
use qft_ir::circuit::{MappedCircuit, MappedCircuitBuilder};
use qft_ir::gate::{GateKind, LogicalQubit, PhysicalQubit};
use qft_ir::qft::rotation_order;
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
/// (relaxed inter-unit ordering — the paper's QFT configuration).
pub fn compile_lattice(l: &LatticeSurgery) -> MappedCircuit {
    compile_lattice_with(l, IeMode::Relaxed)
}

/// Compiles with an explicit inter-unit mode, for the relaxed-vs-strict
/// ablation.
pub fn compile_lattice_with(l: &LatticeSurgery, ie: IeMode) -> MappedCircuit {
    let m = l.m;
    let n = l.n_qubits();
    let mut builder = MappedCircuitBuilder::new(l.initial_layout());
    let mut prog = QftProgress::new(n);

    let super_schedule = line_qft_schedule(m);
    for layer in &super_schedule.layers {
        for op in layer {
            match *op {
                LineOp::Activate { item, pos } => {
                    qft_ia(l, &mut builder, &mut prog, item as u32, pos);
                }
                LineOp::Interact { pos_lo, pos_hi, .. } => {
                    let top = pos_lo.min(pos_hi);
                    match ie {
                        IeMode::Relaxed => qft_ie_relaxed(l, &mut builder, &mut prog, top),
                        IeMode::Strict => qft_ie_strict(l, &mut builder, &mut prog, top),
                    }
                }
                LineOp::Swap { pos_left, .. } => {
                    unit_swap(l, &mut builder, pos_left);
                }
            }
        }
    }
    assert!(
        prog.complete(),
        "lattice compile incomplete: {:?}",
        prog.status()
    );
    builder.finish()
}

/// Orientation of the block held by row `r`.
fn row_orientation(
    l: &LatticeSurgery,
    builder: &MappedCircuitBuilder,
    block: u32,
    r: usize,
) -> PathOrder {
    let m = l.m as u32;
    let base = block * m;
    let first = builder.layout().logical(l.at(r, 0)).expect("occupied");
    if first == LogicalQubit(base) {
        PathOrder::Ascending
    } else if first == LogicalQubit(base + m - 1) {
        PathOrder::Descending
    } else {
        panic!("row {r} does not hold block {block} in sorted order (found {first})");
    }
}

/// QFT-IA: intra-row LNN QFT on the fast links.
fn qft_ia(
    l: &LatticeSurgery,
    builder: &mut MappedCircuitBuilder,
    prog: &mut QftProgress,
    block: u32,
    r: usize,
) {
    let m = l.m;
    let base = block * m as u32;
    let order = row_orientation(l, builder, block, r);
    let path: Vec<PhysicalQubit> = (0..m).map(|c| l.at(r, c)).collect();
    run_line_qft(builder, &path, base, order);
    for i in 0..m as u32 {
        prog.mark_h(base + i);
        for j in (i + 1)..m as u32 {
            prog.mark_pair(base + i, base + j);
        }
    }
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
    let bot = top + 1;

    let fire_columns = |builder: &mut MappedCircuitBuilder, prog: &mut QftProgress| {
        for c in 0..m {
            let (pa, pb) = (l.at(top, c), l.at(bot, c));
            let la = builder.layout().logical(pa).unwrap().0;
            let lb = builder.layout().logical(pb).unwrap().0;
            if prog.cphase_eligible(la, lb) {
                let k = rotation_order(la, lb);
                builder.push_2q_phys(GateKind::Cphase { k }, pa, pb);
                prog.mark_pair(la, lb);
            }
        }
    };

    for i in 0..m {
        fire_columns(builder, prog);
        // Staggered intra-row transpositions: top offset (i+1) mod 2,
        // bottom offset i mod 2 (the Appendix-7 stagger).
        let beg_u = (i + 1) % 2;
        let beg_d = i % 2;
        let mut c = beg_u;
        while c + 1 < m {
            builder.push_swap_phys(l.at(top, c), l.at(top, c + 1));
            c += 2;
        }
        let mut c = beg_d;
        while c + 1 < m {
            builder.push_swap_phys(l.at(bot, c), l.at(bot, c + 1));
            c += 2;
        }
    }
    fire_columns(builder, prog);
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
    let bot = top + 1;

    let fire_columns = |builder: &mut MappedCircuitBuilder, prog: &mut QftProgress, end: usize| {
        for c in 0..end.min(m) {
            let (pa, pb) = (l.at(top, c), l.at(bot, c));
            let la = builder.layout().logical(pa).unwrap().0;
            let lb = builder.layout().logical(pb).unwrap().0;
            if prog.cphase_eligible(la, lb) {
                let k = rotation_order(la, lb);
                builder.push_2q_phys(GateKind::Cphase { k }, pa, pb);
                prog.mark_pair(la, lb);
            }
        }
    };
    // Swap pairs (j, j+1) for j = beg, beg+2, … while j+1 ≤ end.
    let swap_row = |builder: &mut MappedCircuitBuilder, r: usize, beg: i64, end: i64| {
        let mut j = beg.max(0);
        while j < end && ((j + 1) as usize) < m {
            builder.push_swap_phys(l.at(r, j as usize), l.at(r, (j + 1) as usize));
            j += 2;
        }
    };

    let t_total = 2 * m as i64 - 1;
    for i in 0..t_total {
        let end_cp = (i + 1).min(2 * m as i64 - 1 - i);
        if end_cp > 0 {
            fire_columns(builder, prog, end_cp as usize);
        }
        let bu = i % 2;
        let bd = (bu + 1) % 2;
        let end_u = (i + 1).min(2 * m as i64 - 2 - i);
        let end_d = i.min(2 * m as i64 - 2 - i);
        swap_row(builder, top, bu, end_u);
        swap_row(builder, bot, bd, end_d);
    }
    fire_columns(builder, prog, m);
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
            let mc = compile_lattice(&l);
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
            let mc = compile_lattice(&l);
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
            let mc = compile_lattice(&l);
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
            let relaxed = compile_lattice_with(&l, IeMode::Relaxed);
            let strict = compile_lattice_with(&l, IeMode::Strict);
            verify_qft_mapping(&strict, l.graph()).unwrap_or_else(|e| panic!("m={m}: {e}"));
            let (dr, ds) = (l.graph().depth_of(&relaxed), l.graph().depth_of(&strict));
            assert!(ds > dr, "m={m}: strict {ds} not slower than relaxed {dr}");
        }
    }

    #[test]
    fn strict_mode_small_unitarily_correct() {
        let l = LatticeSurgery::new(3);
        let mc = compile_lattice_with(&l, IeMode::Strict);
        assert!(qft_sim::equiv::mapped_equals_qft(&mc, 3));
    }

    #[test]
    fn swap_counts_scale_quadratically() {
        // ~N²-ish SWAP totals like Table 1 (2700 @ 10x10 scale).
        let l = LatticeSurgery::new(10);
        let mc = compile_lattice(&l);
        let swaps = mc.swap_count();
        assert!(swaps > 1000 && swaps < 20_000, "swaps={swaps}");
    }
}
