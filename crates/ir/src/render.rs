//! ASCII rendering of mapped circuits as time×qubit grids — the textual
//! analogue of the paper's Fig. 3 (each column a cycle, each row a
//! physical qubit, cells showing the logical occupant and gate).

use crate::circuit::MappedCircuit;
use crate::gate::GateKind;
use std::fmt::Write as _;

/// Renders up to `max_layers` uniform-latency layers. Cells show
/// `H`, `C` (CPHASE), `x` (SWAP), `*` (fused CPHASE+SWAP) with the
/// logical qubit index, `.` idle.
pub fn render_layers(mc: &MappedCircuit, max_layers: usize) -> String {
    let n = mc.n_physical();
    // Each op lands in its ASAP layer, annotated by the replay that
    // streams beside the schedule. cells[t][q].
    let mut replay = mc.replay();
    let mut cells: Vec<Vec<String>> = Vec::new();
    let layers = mc.asap(
        |_| 1,
        |_, t| {
            let op = replay.next().expect("the replay yields every scheduled op");
            let t = t as usize;
            if t >= max_layers {
                return;
            }
            if cells.len() <= t {
                cells.resize(t + 1, vec!["   .".to_string(); n]);
            }
            let sym = match op.kind {
                GateKind::H => 'H',
                GateKind::Cphase { .. } => 'C',
                GateKind::Swap => 'x',
                GateKind::CphaseSwap { .. } => '*',
                GateKind::Cnot => '@',
                GateKind::X => 'X',
                GateKind::Rz { .. } => 'Z',
            };
            for (p, l) in [(Some(op.p1), op.l1), (op.p2, op.l2)] {
                if let Some(p) = p {
                    let l = l.map_or_else(|| "-".to_string(), |l| l.0.to_string());
                    cells[t][p.index()] = format!("{sym}{l:>3}");
                }
            }
        },
    ) as usize;
    let mut out = String::new();
    for q in 0..n {
        let _ = write!(out, "Q{q:<3}|");
        for column in &cells {
            let _ = write!(out, "{}|", column[q]);
        }
        out.push('\n');
    }
    if layers > cells.len() {
        let _ = writeln!(out, "... ({} more layers)", layers - cells.len());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::MappedCircuitBuilder;
    use crate::gate::PhysicalQubit;
    use crate::layout::Layout;

    #[test]
    fn renders_small_circuit() {
        let mut b = MappedCircuitBuilder::new(Layout::identity(2, 2));
        b.push_1q_phys(GateKind::H, PhysicalQubit(0));
        b.push_2q_phys(
            GateKind::Cphase { k: 2 },
            PhysicalQubit(0),
            PhysicalQubit(1),
        );
        b.push_swap_phys(PhysicalQubit(0), PhysicalQubit(1));
        let s = render_layers(&b.finish(), 10);
        assert!(s.contains("H  0"));
        assert!(s.contains("C  0") && s.contains("C  1"));
        assert!(s.contains("x"));
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    fn truncates_long_circuits() {
        let mut b = MappedCircuitBuilder::new(Layout::identity(2, 2));
        for _ in 0..20 {
            b.push_swap_phys(PhysicalQubit(0), PhysicalQubit(1));
        }
        let s = render_layers(&b.finish(), 5);
        assert!(s.contains("more layers"));
    }
}
