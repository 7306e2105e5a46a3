//! Linear-depth QFT on Google Sycamore (§5 of the paper).
//!
//! Decomposition (Fig. 14): the `m/2` two-row *units* form a line of
//! super-qubits; the unit-level schedule is the same LNN QFT wavefront as
//! the qubit-level base case, with
//!
//! * **QFT-IA** (activate a unit) = the intra-unit LNN QFT on the unit's
//!   2m-qubit zigzag line;
//! * **QFT-IE** (unit interaction) = the relaxed synced-movement pattern of
//!   Fig. 13 (both unit lines run identical alternating transposition
//!   layers; every inter-unit diagonal link fires between movement steps;
//!   the `2m` same-position pairs — which the topology never links — are
//!   fixed up by SWAP–CPHASE–SWAP triples);
//! * **unit SWAP** = the 3-step transversal row-exchange of Fig. 12.
//!
//! Every IA and IE mirrors the contents of the units it touches, which the
//! paper notes is exactly what the next stage wants. The unit-level loop,
//! the orientation tracking and QFT-IA are the shared driver
//! [`run_unit_qft`]; this module supplies the IE pattern and the unit SWAP.
//!
//! This module is a *construct* stage of the pass pipeline: it emits the
//! raw analytical schedule, and the shared `qft_ir::passes` tail (chosen
//! by `CompileOptions::opt_level`) runs afterwards in
//! `qft_core::pipeline::finish_result`.

use crate::lnn::run_unit_qft;
use crate::progress::QftProgress;
use qft_arch::sycamore::Sycamore;
use qft_ir::circuit::{MappedCircuit, MappedCircuitBuilder};
use qft_ir::gate::PhysicalQubit;
use qft_ir::layout::Layout;

/// Compiles the QFT for all `N = m²` qubits of a Sycamore device using the
/// relaxed (commutativity-exploiting) inter-unit pattern.
pub fn compile_sycamore(s: &Sycamore) -> MappedCircuit {
    let ul = s.unit_len();
    let units: Vec<Vec<PhysicalQubit>> = (0..s.n_units())
        .map(|u| (0..ul).map(|i| s.unit_line(u, i)).collect())
        .collect();
    // Initial mapping: unit u's line holds logical block [u·2m, (u+1)·2m)
    // in ascending line order.
    let layout = Layout::from_assignment(units.concat(), s.n_qubits());
    let mut builder = MappedCircuitBuilder::new(layout);
    run_unit_qft(
        &mut builder,
        &units,
        |b, prog, top| qft_ie_relaxed(s, b, prog, top),
        |b, left| unit_swap(s, b, left),
    );
    builder.finish()
}

/// QFT-IE-relaxed between physical units `top` and `top + 1` (Fig. 13 and
/// Appendix 5): `2m` synced movement steps with all diagonal links firing
/// between steps, then the same-position fix-ups. Mirrors both units.
fn qft_ie_relaxed(
    s: &Sycamore,
    builder: &mut MappedCircuitBuilder,
    prog: &mut QftProgress,
    top: usize,
) {
    let ul = s.unit_len();
    let bot = top + 1;
    let tp = |i: usize| s.unit_line(top, i);
    let bp = |i: usize| s.unit_line(bot, i);

    // One CPHASE opportunity: fire every needed pair across the 2m−1
    // diagonal links, split into left links (a, a−1) and right links
    // (a, a+1) — two cycles, since both share the odd top positions.
    let fire_links = |builder: &mut MappedCircuitBuilder, prog: &mut QftProgress| {
        for (da, _db) in [(1usize, 0usize), (0, 1)] {
            // (da,db) = (1,0): top odd a with bottom a−1; (0,1): a with a+1.
            for a in (1..ul).step_by(2) {
                let b = if da == 1 { a - 1 } else { a + 1 };
                if b >= ul {
                    continue;
                }
                prog.fire(builder, tp(a), bp(b));
            }
        }
    };

    for t in 0..ul {
        fire_links(builder, prog);
        // Synced intra-unit swap layer, offset t mod 2, in both units.
        let beg = t % 2;
        let mut i = beg;
        while i + 1 < ul {
            builder.push_swap_phys(tp(i), tp(i + 1));
            builder.push_swap_phys(bp(i), bp(i + 1));
            i += 2;
        }
    }
    fire_links(builder, prog);

    // Fix-ups: the pairs sitting at equal line positions never share a link.
    // Round A handles even positions by displacing the *top* qubit one slot
    // right; round B handles odd positions by displacing the *bottom* qubit
    // one slot left. Both rounds use the (odd top, even bottom) left links.
    for shifted in [top, bot] {
        let shift = |builder: &mut MappedCircuitBuilder| {
            for i in (0..ul - 1).step_by(2) {
                builder.push_swap_phys(s.unit_line(shifted, i), s.unit_line(shifted, i + 1));
            }
        };
        shift(builder);
        for i in (0..ul - 1).step_by(2) {
            prog.fire(builder, tp(i + 1), bp(i));
        }
        shift(builder);
    }
}

/// The 3-step transversal unit SWAP of Fig. 12: with units (A,B) and (C,D)
/// as row pairs, swap B↔C, then A↔B and C↔D in parallel, then B↔C.
fn unit_swap(s: &Sycamore, builder: &mut MappedCircuitBuilder, left_unit: usize) {
    let m = s.m;
    let (ra, rb) = (2 * left_unit, 2 * left_unit + 1);
    let (rc, rd) = (rb + 1, rb + 2);
    let row_swap = |builder: &mut MappedCircuitBuilder, r1: usize, r2: usize| {
        for c in 0..m {
            builder.push_swap_phys(s.at(r1, c), s.at(r2, c));
        }
    };
    row_swap(builder, rb, rc);
    row_swap(builder, ra, rb);
    row_swap(builder, rc, rd);
    row_swap(builder, rb, rc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use qft_sim::symbolic::verify_qft_mapping;

    #[test]
    fn sycamore_verifies_symbolically() {
        for m in [2usize, 4, 6, 8] {
            let s = Sycamore::new(m);
            let mc = compile_sycamore(&s);
            let n = s.n_qubits();
            let report =
                verify_qft_mapping(&mc, s.graph()).unwrap_or_else(|e| panic!("m={m}: {e}"));
            assert_eq!(report.pairs, n * (n - 1) / 2, "m={m}");
        }
    }

    #[test]
    fn sycamore_2x2_unitarily_correct() {
        let s = Sycamore::new(2);
        let mc = compile_sycamore(&s);
        assert!(qft_sim::equiv::mapped_equals_qft(&mc, 4));
    }

    #[test]
    fn depth_is_linear_about_7n() {
        // §5: total time 7m² + O(m) = 7N + O(√N).
        for m in [4usize, 6, 8, 10] {
            let s = Sycamore::new(m);
            let n = (m * m) as u64;
            let mc = compile_sycamore(&s);
            let d = mc.depth_uniform();
            assert!(
                d <= 7 * n + 40 * (m as u64) + 40,
                "m={m}: depth {d} > 7N+O(sqrt N) (N={n})"
            );
        }
    }

    #[test]
    fn depth_per_qubit_stays_bounded() {
        // Linearity: depth/N should not grow with m.
        let ratio = |m: usize| {
            let s = Sycamore::new(m);
            compile_sycamore(&s).depth_uniform() as f64 / (m * m) as f64
        };
        let r6 = ratio(6);
        let r12 = ratio(12);
        assert!(r12 <= r6 + 1.0, "depth/N grows: {r6:.2} -> {r12:.2}");
    }
}
