//! The 2×N building block (\[43\], §6): a complete QFT for two adjacent
//! rows, used by the paper as the "mixed QFT-IA + QFT-IE" stage.
//!
//! We realize it by threading the column-serpentine Hamiltonian path
//! through the 2×L subgrid and running the LNN activation-wavefront
//! schedule along it. This costs `4·(2L)−6` two-qubit cycles — the paper's
//! hand-tuned interleaving (Fig. 16) reaches `≈ 3·(2L)`; the path-based
//! variant is the simpler building block we ship, and the gap is confined
//! to this stage (a deliberate deviation from the paper's Fig. 16).
//!
//! This module is a *construct* stage of the pass pipeline: it emits the
//! raw analytical schedule, and the shared `qft_ir::passes` tail (chosen
//! by `CompileOptions::opt_level`) runs afterwards in
//! `qft_core::pipeline::finish_result`.

use crate::lnn::{run_line_qft, PathOrder};
use qft_ir::circuit::{MappedCircuit, MappedCircuitBuilder};
use qft_ir::gate::PhysicalQubit;
use qft_ir::layout::Layout;

/// The column-serpentine path through a 2×`cols` grid whose rows are the
/// physical qubit slices `top` and `bot`: `(0,0) (1,0) (1,1) (0,1) (0,2)…`
pub fn column_snake(top: &[PhysicalQubit], bot: &[PhysicalQubit]) -> Vec<PhysicalQubit> {
    assert_eq!(top.len(), bot.len());
    let mut path = Vec::with_capacity(2 * top.len());
    for c in 0..top.len() {
        if c % 2 == 0 {
            path.push(top[c]);
            path.push(bot[c]);
        } else {
            path.push(bot[c]);
            path.push(top[c]);
        }
    }
    path
}

/// Compiles the full QFT for `2·cols` qubits laid out on a standalone
/// 2×`cols` grid (row-major physical numbering, logical qubits assigned
/// along the snake). Returns the mapped circuit; the companion graph is
/// `qft_arch::grid::Grid::new(2, cols)`.
pub fn compile_two_row(cols: usize) -> MappedCircuit {
    let top: Vec<PhysicalQubit> = (0..cols as u32).map(PhysicalQubit).collect();
    let bot: Vec<PhysicalQubit> = (0..cols as u32)
        .map(|c| PhysicalQubit(cols as u32 + c))
        .collect();
    let path = column_snake(&top, &bot);
    let layout = Layout::from_assignment(path.clone(), 2 * cols);
    let mut builder = MappedCircuitBuilder::new(layout);
    run_line_qft(&mut builder, &path, 0, PathOrder::Ascending);
    builder.finish()
}

/// The *time-optimal* 2×N QFT (\[43\], the paper's Fig. 16): interleaved
/// initial mapping (`top[c] = q_{2c}`, `bot[c] = q_{2c+1}`) and repeated
/// rounds of ⟨vertical CPHASEs, horizontal CPHASEs, horizontal SWAPs⟩, all
/// gated by Type-II eligibility. Achieves `3·(2L) − 5` two-qubit layers —
/// the `6m + O(1)` mixed-stage cost the paper quotes — versus `4·(2L) − 6`
/// for the path-based variant above (an ablation pair).
///
/// The companion graph is `Grid::new(2, cols)`.
pub fn compile_two_row_interleaved(cols: usize) -> MappedCircuit {
    use crate::progress::QftProgress;
    use qft_ir::gate::GateKind;

    let n = 2 * cols;
    let at = |r: usize, c: usize| PhysicalQubit((r * cols + c) as u32);
    // Interleaved initial mapping.
    let mut phys_of = vec![PhysicalQubit(0); n];
    for c in 0..cols {
        phys_of[2 * c] = at(0, c);
        phys_of[2 * c + 1] = at(1, c);
    }
    let mut b = MappedCircuitBuilder::new(Layout::from_assignment(phys_of, n));
    let mut prog = QftProgress::new(n);
    let max_rounds = 8 * n + 32;

    for _round in 0..max_rounds {
        if prog.complete() {
            return b.finish();
        }
        let logical = |b: &MappedCircuitBuilder, p: PhysicalQubit| b.layout().logical(p).unwrap().0;
        // (a) vertical CPHASE layer.
        for c in 0..cols {
            prog.fire(&mut b, at(0, c), at(1, c));
        }
        // (b) horizontal CPHASE layer, greedy scan per row.
        for r in 0..2 {
            let mut c = 0;
            while c + 1 < cols {
                c += if prog.fire(&mut b, at(r, c), at(r, c + 1)) {
                    2
                } else {
                    1
                };
            }
        }
        // (c) horizontal SWAP layer: pairs that interacted and sit ascending.
        for r in 0..2 {
            let mut c = 0;
            while c + 1 < cols {
                let (pa, pb) = (at(r, c), at(r, c + 1));
                let (la, lb) = (logical(&b, pa), logical(&b, pb));
                if la < lb && prog.pair_done(la, lb) {
                    b.push_swap_phys(pa, pb);
                    c += 2;
                } else {
                    c += 1;
                }
            }
        }
        // (d) activations.
        for p in 0..n as u32 {
            let q = logical(&b, PhysicalQubit(p));
            if prog.h_eligible(q) {
                b.push_1q_phys(GateKind::H, PhysicalQubit(p));
                prog.mark_h(q);
            }
        }
    }
    panic!(
        "interleaved 2xN schedule failed to converge: {:?}",
        prog.status()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use qft_arch::grid::Grid;
    use qft_sim::symbolic::verify_qft_mapping;

    #[test]
    fn interleaved_two_row_verifies() {
        for cols in [2usize, 3, 5, 8, 16] {
            let mc = compile_two_row_interleaved(cols);
            let grid = Grid::new(2, cols);
            verify_qft_mapping(&mc, grid.graph()).unwrap_or_else(|e| panic!("cols={cols}: {e}"));
        }
    }

    #[test]
    fn interleaved_two_row_unitarily_correct() {
        for cols in [2usize, 3] {
            assert!(qft_sim::equiv::mapped_equals_qft(
                &compile_two_row_interleaved(cols),
                3
            ));
        }
    }

    #[test]
    fn interleaved_achieves_time_optimal_3n_layers() {
        // [43]'s bound: 3·(2L) − 5 two-qubit layers, beating the path-based
        // 4·(2L) − 6 — the win the paper's §6 mixed stage builds on.
        for cols in [3usize, 4, 6, 8, 12, 16] {
            let n = 2 * cols;
            let mc = compile_two_row_interleaved(cols);
            assert_eq!(mc.two_qubit_depth(), (3 * n - 5) as u64, "cols={cols}");
            let snake = compile_two_row(cols);
            assert!(
                mc.two_qubit_depth() < snake.two_qubit_depth(),
                "interleaved must beat the snake at cols={cols}"
            );
        }
    }

    #[test]
    fn two_row_qft_verifies() {
        for cols in [2usize, 3, 5, 8, 12] {
            let mc = compile_two_row(cols);
            let grid = Grid::new(2, cols);
            verify_qft_mapping(&mc, grid.graph()).unwrap_or_else(|e| panic!("cols={cols}: {e}"));
        }
    }

    #[test]
    fn two_row_small_unitarily_correct() {
        for cols in [2usize, 3] {
            assert!(qft_sim::equiv::mapped_equals_qft(&compile_two_row(cols), 3));
        }
    }

    #[test]
    fn snake_is_hamiltonian_on_the_grid() {
        let grid = Grid::new(2, 6);
        let top: Vec<PhysicalQubit> = (0..6).map(|c| grid.at(0, c)).collect();
        let bot: Vec<PhysicalQubit> = (0..6).map(|c| grid.at(1, c)).collect();
        let path = column_snake(&top, &bot);
        assert!(qft_arch::hamiltonian::is_hamiltonian_path(
            grid.graph(),
            &path
        ));
    }

    #[test]
    fn two_row_depth_is_linear() {
        // 4*(2L)-6 two-qubit cycles along the snake.
        for cols in [4usize, 8, 16] {
            let mc = compile_two_row(cols);
            assert_eq!(mc.two_qubit_depth(), (8 * cols - 6) as u64, "cols={cols}");
        }
    }
}
