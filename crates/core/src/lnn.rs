//! The LNN QFT compiler and the two drivers of the one line schedule
//! ([`crate::line`]):
//!
//! * [`run_line_qft`] runs it at qubit level on a physical path — the
//!   paper's base case (§2.2), and the QFT-IA of every unit;
//! * [`run_unit_qft`] runs it at unit level (Fig. 14): the units of a
//!   device form a line, and the same wavefront fires QFT-IA, the device's
//!   QFT-IE pattern and its unit SWAP. Sycamore (§5) and lattice surgery
//!   (§6) supply only those last two.
//!
//! Both consume the schedule as it is generated. This module is a
//! *construct* stage of the pass pipeline: it emits the raw analytical
//! schedule, and the shared `qft_ir::passes` tail (chosen by
//! `CompileOptions::opt_level`) runs afterwards in
//! `qft_core::pipeline::finish_result`.

use crate::line::{line_qft_schedule, LineOp};
use crate::progress::QftProgress;
use qft_ir::circuit::{MappedCircuit, MappedCircuitBuilder};
use qft_ir::gate::{GateKind, LogicalQubit, PhysicalQubit};
use qft_ir::layout::Layout;
use qft_ir::qft::rotation_order;

/// Orientation of logical qubits along a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathOrder {
    /// Path position `p` initially holds logical `base + p`.
    Ascending,
    /// Path position `p` initially holds logical `base + len-1 - p`.
    Descending,
}

/// Runs the LNN QFT schedule for the `len` logical qubits
/// `base .. base+len` currently sitting on `path` (in `order`), emitting
/// H / CPHASE / SWAP ops into `builder`.
///
/// The caller is responsible for the precondition of the unit-level flows
/// (§5/§6): every interaction `(k, q)` with `k < base` must already have
/// happened, so that activating `q` here is globally Type-II-valid.
///
/// After the call the qubits sit on the path in the opposite `order`.
pub fn run_line_qft(
    builder: &mut MappedCircuitBuilder,
    path: &[PhysicalQubit],
    base: u32,
    order: PathOrder,
) {
    let len = path.len();
    // The physical site of schedule position `pos`, which initially holds
    // logical `base + pos`.
    let site = |pos: usize| match order {
        PathOrder::Ascending => path[pos],
        PathOrder::Descending => path[len - 1 - pos],
    };
    for pos in 0..len {
        let expect = LogicalQubit(base + pos as u32);
        debug_assert_eq!(
            builder.layout().logical(site(pos)),
            Some(expect),
            "schedule position {pos} does not hold {expect}"
        );
    }
    line_qft_schedule(len, |_, op| match op {
        LineOp::Activate { pos, .. } => builder.push_1q_phys(GateKind::H, site(pos)),
        LineOp::Interact {
            lo,
            hi,
            pos_lo,
            pos_hi,
        } => {
            let k = rotation_order(base + lo as u32, base + hi as u32);
            builder.push_2q_phys(GateKind::Cphase { k }, site(pos_lo), site(pos_hi));
        }
        LineOp::Swap {
            pos_left,
            pos_right,
            ..
        } => builder.push_swap_phys(site(pos_left), site(pos_right)),
    });
}

/// Runs the full QFT on a device whose `units` form a line (Fig. 14):
/// `units[u]` is the line of physical qubits of the unit at position `u`,
/// every unit has the same length `L`, and unit position `u` must
/// initially hold the logical block `u·L .. (u+1)·L` in either order along
/// its line.
///
/// The unit-level wavefront of [`line_qft_schedule`] drives three stages:
///
/// * **QFT-IA** (activate a unit) — [`run_line_qft`] along the unit's line,
///   in whichever orientation its block currently has;
/// * **QFT-IE** (interact two units) — `ie(builder, progress, top)` between
///   unit positions `top` and `top + 1`. It must fire every pair across
///   the two blocks through `progress` (see [`QftProgress::fire`]) and
///   leave each unit holding its block in sorted order;
/// * **unit SWAP** — `unit_swap(builder, left)` exchanges the blocks at
///   unit positions `left` and `left + 1`.
///
/// # Panics
/// Panics if a unit holds its block out of order at its QFT-IA, or if the
/// stages leave a pair or an H undone.
pub fn run_unit_qft(
    builder: &mut MappedCircuitBuilder,
    units: &[Vec<PhysicalQubit>],
    mut ie: impl FnMut(&mut MappedCircuitBuilder, &mut QftProgress, usize),
    mut unit_swap: impl FnMut(&mut MappedCircuitBuilder, usize),
) {
    let ul = units.first().map_or(0, Vec::len) as u32;
    let mut prog = QftProgress::new(units.len() * ul as usize);
    line_qft_schedule(units.len(), |_, op| match op {
        LineOp::Activate { item, pos } => {
            let line = &units[pos];
            let base = item as u32 * ul;
            let first = builder.layout().logical(line[0]).expect("occupied");
            let order = if first == LogicalQubit(base) {
                PathOrder::Ascending
            } else if first == LogicalQubit(base + ul - 1) {
                PathOrder::Descending
            } else {
                panic!("unit {pos} does not hold block {item} in sorted order (found {first})");
            };
            run_line_qft(builder, line, base, order);
            for q in base..base + ul {
                prog.mark_h(q);
                for r in q + 1..base + ul {
                    prog.mark_pair(q, r);
                }
            }
        }
        LineOp::Interact { pos_lo, pos_hi, .. } => ie(builder, &mut prog, pos_lo.min(pos_hi)),
        LineOp::Swap { pos_left, .. } => unit_swap(builder, pos_left),
    });
    assert!(
        prog.complete(),
        "unit-level QFT incomplete: {:?}",
        prog.status()
    );
}

/// Compiles the full QFT for `n` qubits on the LNN line (identity initial
/// mapping, reversed final mapping) — the paper's base case.
pub fn compile_lnn(n: usize) -> MappedCircuit {
    let mut builder = MappedCircuitBuilder::new(Layout::identity(n, n));
    let path: Vec<PhysicalQubit> = (0..n as u32).map(PhysicalQubit).collect();
    run_line_qft(&mut builder, &path, 0, PathOrder::Ascending);
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qft_arch::lnn::lnn;
    use qft_ir::metrics::Metrics;
    use qft_sim::symbolic::verify_qft_mapping;

    #[test]
    fn lnn_qft_verifies_symbolically() {
        for n in 1..=30 {
            let mc = compile_lnn(n);
            let g = lnn(n);
            let report = verify_qft_mapping(&mc, &g).unwrap_or_else(|e| panic!("n={n}: {e}"));
            assert_eq!(report.pairs, n * (n - 1) / 2);
        }
    }

    #[test]
    fn lnn_qft_is_unitarily_correct() {
        for n in 1..=8 {
            let mc = compile_lnn(n);
            assert!(qft_sim::equiv::mapped_equals_qft(&mc, 3), "n={n}");
        }
    }

    #[test]
    fn lnn_two_qubit_depth_is_4n_minus_6() {
        for n in 2..=50 {
            let mc = compile_lnn(n);
            assert_eq!(mc.two_qubit_depth(), (4 * n - 6) as u64, "n={n}");
        }
    }

    #[test]
    fn lnn_swap_count_is_n_choose_2() {
        for n in [2, 5, 10, 25] {
            let m = Metrics::of(&compile_lnn(n), |_| 1);
            assert_eq!(m.swaps, n * (n - 1) / 2);
            assert_eq!(m.cphases, n * (n - 1) / 2);
            assert_eq!(m.hadamards, n);
        }
    }

    #[test]
    fn lnn_final_mapping_is_reversed() {
        let n = 9;
        let mc = compile_lnn(n);
        for q in 0..n as u32 {
            assert_eq!(
                mc.final_layout().phys(LogicalQubit(q)),
                PhysicalQubit(n as u32 - 1 - q)
            );
        }
    }

    #[test]
    fn descending_orientation_works() {
        // Place qubits descending on the path, run, verify.
        let n = 7;
        let phys_of: Vec<PhysicalQubit> = (0..n as u32)
            .map(|l| PhysicalQubit(n as u32 - 1 - l))
            .collect();
        let lay = Layout::from_assignment(phys_of, n);
        let mut b = MappedCircuitBuilder::new(lay);
        let path: Vec<PhysicalQubit> = (0..n as u32).map(PhysicalQubit).collect();
        run_line_qft(&mut b, &path, 0, PathOrder::Descending);
        let mc = b.finish();
        let g = lnn(n);
        verify_qft_mapping(&mc, &g).unwrap();
        // Ends ascending (mirror of the usual reversal).
        for q in 0..n as u32 {
            assert_eq!(mc.final_layout().phys(LogicalQubit(q)), PhysicalQubit(q));
        }
    }

    #[test]
    fn depth_grows_linearly() {
        // Total depth (H layers included) is 4n-4 + small constant.
        for n in 3..=40 {
            let mc = compile_lnn(n);
            let d = mc.depth_uniform();
            assert!(d <= (4 * n) as u64, "n={n} depth={d}");
        }
    }
}
