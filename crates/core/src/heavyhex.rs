//! Linear-depth QFT on IBM heavy-hex (§4 of the paper, Algorithm 1).
//!
//! The device is the simplified coupling graph of Appendix 1: a *main line*
//! with *dangling points* below some positions. The schedule extends the
//! LNN activation-wavefront flow with three dangler rules, scanned
//! left→right each parallel layer (vertical ops take priority for a qubit
//! over its horizontal movement — the paper's "extra stops"):
//!
//! 1. **Vertical CPHASE** — the main-line qubit above a dangler interacts
//!    with the dangler occupant as soon as the pair is Type-II eligible
//!    (this is how parked low-index qubits meet every later passer-by);
//! 2. **Parking SWAP** — when the main-line qubit `m` above a dangler
//!    holding `v` satisfies `m < v` and the pair has interacted, `m` swaps
//!    down into the dangler (permanently parking it) and `v` joins the main
//!    line. The right-moving wavefront order guarantees `q0` parks at the
//!    first dangler, `q1` at the second, … (Fig. 23);
//! 3. **Main-line LNN** — otherwise the usual rules: adjacent CPHASE when
//!    eligible, SWAP ascending pairs that already interacted, activate (H)
//!    idle eligible qubits.
//!
//! The schedule stops at semantic completion (all pairs + all H), giving
//! two-qubit depth ≈ 5N for the paper's 4-main+1-dangler groups and ≤ 6N in
//! general (Appendices 2–3).
//!
//! This module is a *construct* stage of the pass pipeline: it emits the
//! raw analytical schedule, and the shared `qft_ir::passes` tail (chosen
//! by `CompileOptions::opt_level`) runs afterwards in
//! `qft_core::pipeline::finish_result`.

use crate::progress::QftProgress;
use qft_arch::heavyhex::HeavyHex;
use qft_ir::circuit::{MappedCircuit, MappedCircuitBuilder};
use qft_ir::gate::{GateKind, PhysicalQubit};

/// Compiles the QFT for all `N` qubits of a heavy-hex device.
///
/// Uses the Fig. 10 initial mapping; returns the hardware-compliant mapped
/// circuit. Panics (with a diagnostic) if the schedule ever stalls, which
/// would indicate a structural bug — the test suite exercises group counts
/// 1…24 and irregular dangler patterns.
pub fn compile_heavyhex(hh: &HeavyHex) -> MappedCircuit {
    let n = hh.n_qubits();
    let mut builder = MappedCircuitBuilder::new(hh.initial_layout());
    let mut prog = QftProgress::new(n);
    let n_main = hh.n_main();
    let max_layers = 20 * n + 200;

    let logical_at = |b: &MappedCircuitBuilder, p: PhysicalQubit| -> u32 {
        b.layout().logical(p).expect("all device qubits occupied").0
    };

    for _layer in 0..max_layers {
        if prog.complete() {
            return builder.finish();
        }
        let mut busy = vec![false; n];
        // Staged ops: collect within the layer so state reads are
        // layer-consistent, then emit.
        let mut cphases: Vec<(PhysicalQubit, PhysicalQubit, u32)> = Vec::new();
        let mut swaps: Vec<(PhysicalQubit, PhysicalQubit)> = Vec::new();

        // Phase A — vertical ops at every junction. These take priority over
        // horizontal movement (the paper's "extra stops"): a qubit above a
        // dangler with a pending eligible interaction must run it *before*
        // any horizontal op can carry it away.
        for &i in hh.dangler_positions() {
            let pm = hh.main(i);
            let pd = hh.dangler_below(i).expect("dangler position");
            let m = logical_at(&builder, pm);
            let v = logical_at(&builder, pd);
            if let Some(k) = prog.try_pair(m, v) {
                cphases.push((pm, pd, k));
                busy[pm.index()] = true;
                busy[pd.index()] = true;
            } else if m < v && prog.pair_done(m, v) {
                swaps.push((pm, pd));
                busy[pm.index()] = true;
                busy[pd.index()] = true;
            }
        }
        // Phase B — the usual LNN rules on the main line.
        for i in 0..n_main.saturating_sub(1) {
            let pm = hh.main(i);
            let pr = hh.main(i + 1);
            if !busy[pm.index()] && !busy[pr.index()] {
                let a = logical_at(&builder, pm);
                let b = logical_at(&builder, pr);
                if let Some(k) = prog.try_pair(a, b) {
                    cphases.push((pm, pr, k));
                    busy[pm.index()] = true;
                    busy[pr.index()] = true;
                } else if a < b && prog.pair_done(a, b) {
                    swaps.push((pm, pr));
                    busy[pm.index()] = true;
                    busy[pr.index()] = true;
                }
            }
        }

        let mut hs: Vec<PhysicalQubit> = Vec::new();
        for p in 0..n as u32 {
            let pq = PhysicalQubit(p);
            if !busy[pq.index()] {
                let q = logical_at(&builder, pq);
                if prog.h_eligible(q) {
                    hs.push(pq);
                    prog.mark_h(q);
                }
            }
        }

        if cphases.is_empty() && swaps.is_empty() && hs.is_empty() {
            let (pairs, total, acts) = prog.status();
            let line: Vec<u32> = (0..n_main)
                .map(|i| logical_at(&builder, hh.main(i)))
                .collect();
            let dang: Vec<(usize, u32)> = hh
                .dangler_positions()
                .iter()
                .map(|&p| (p, logical_at(&builder, hh.dangler_below(p).unwrap())))
                .collect();
            let act: Vec<u32> = (0..n as u32).filter(|&q| prog.activated(q)).collect();
            let mut missing = Vec::new();
            for a in 0..n as u32 {
                for b in a + 1..n as u32 {
                    if !prog.pair_done(a, b) {
                        missing.push((a, b));
                    }
                }
            }
            panic!(
                "heavy-hex schedule stalled on {}: {pairs}/{total} pairs, {acts}/{n} H\n\
                 line={line:?}\ndanglers={dang:?}\nactivated={act:?}\nmissing={missing:?}",
                hh.graph().name()
            );
        }
        for (a, b, k) in cphases {
            builder.push_2q_phys(GateKind::Cphase { k }, a, b);
        }
        for (a, b) in swaps {
            builder.push_swap_phys(a, b);
        }
        for p in hs {
            builder.push_1q_phys(GateKind::H, p);
        }
    }
    let (pairs, total, acts) = prog.status();
    panic!("heavy-hex schedule exceeded {max_layers} layers: {pairs}/{total} pairs, {acts}/{n} H");
}

#[cfg(test)]
mod tests {
    use super::*;
    use qft_ir::gate::LogicalQubit;
    use qft_sim::symbolic::verify_qft_mapping;

    #[test]
    fn groups_verify_symbolically() {
        for g in 1..=12 {
            let hh = HeavyHex::groups(g);
            let mc = compile_heavyhex(&hh);
            let report =
                verify_qft_mapping(&mc, hh.graph()).unwrap_or_else(|e| panic!("g={g}: {e}"));
            let n = hh.n_qubits();
            assert_eq!(report.pairs, n * (n - 1) / 2, "g={g}");
        }
    }

    #[test]
    fn small_instances_unitarily_correct() {
        for g in 1..=2 {
            let hh = HeavyHex::groups(g);
            let mc = compile_heavyhex(&hh);
            assert!(qft_sim::equiv::mapped_equals_qft(&mc, 3), "g={g}");
        }
    }

    #[test]
    fn parked_qubits_end_on_danglers() {
        // Fig. 23: q0..q_{L-1} end parked at the danglers, in order.
        for g in [2usize, 4, 6] {
            let hh = HeavyHex::groups(g);
            let mc = compile_heavyhex(&hh);
            for (k, &pos) in hh.dangler_positions().iter().enumerate() {
                let d = hh.dangler_below(pos).unwrap();
                assert_eq!(
                    mc.final_layout().logical(d),
                    Some(LogicalQubit(k as u32)),
                    "g={g} dangler #{k}"
                );
            }
        }
    }

    #[test]
    fn irregular_dangler_patterns_verify() {
        let cases: Vec<(usize, Vec<usize>)> = vec![
            (6, vec![0]),
            (6, vec![5]),
            (8, vec![2, 3]),
            (10, vec![0, 4, 9]),
            (12, vec![1, 2, 3, 4]),
            (9, vec![]),
        ];
        for (n_main, ds) in cases {
            let hh = HeavyHex::with_danglers(n_main, &ds);
            let mc = compile_heavyhex(&hh);
            verify_qft_mapping(&mc, hh.graph())
                .unwrap_or_else(|e| panic!("main={n_main} danglers={ds:?}: {e}"));
        }
    }

    #[test]
    fn depth_is_linear_5n_for_group_case() {
        // Appendix 2: the 4+1 group case costs 5N + O(1) cycles.
        for g in [4usize, 8, 12, 20] {
            let hh = HeavyHex::groups(g);
            let n = hh.n_qubits() as u64;
            let mc = compile_heavyhex(&hh);
            let d = mc.two_qubit_depth();
            assert!(d <= 5 * n + 30, "g={g}: depth {d} > 5N+30 (N={n})");
            assert!(d >= 4 * n - 40, "g={g}: depth {d} suspiciously small");
        }
    }

    #[test]
    fn depth_at_most_6n_generally() {
        // Appendix 3's general bound.
        let cases: Vec<(usize, Vec<usize>)> = vec![
            (20, vec![3, 9, 15]),
            (24, (0..6).map(|k| 4 * k + 2).collect()),
            (30, vec![5, 6, 20]),
        ];
        for (n_main, ds) in cases {
            let hh = HeavyHex::with_danglers(n_main, &ds);
            let n = hh.n_qubits() as u64;
            let d = compile_heavyhex(&hh).two_qubit_depth();
            assert!(d <= 6 * n + 30, "main={n_main} ds={ds:?}: {d} > 6N+30");
        }
    }

    #[test]
    fn no_dangler_degenerates_to_lnn() {
        let hh = HeavyHex::with_danglers(10, &[]);
        let mc = compile_heavyhex(&hh);
        assert_eq!(mc.two_qubit_depth(), 4 * 10 - 6);
        assert_eq!(mc.swap_count(), 10 * 9 / 2);
    }
}
