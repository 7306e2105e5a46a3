//! The LNN-on-a-Hamiltonian-path baseline (\[27\]/\[43\] as used in Fig. 19):
//! find a Hamiltonian path (the serpentine on grids), then run the
//! analytical LNN QFT along it, ignoring link heterogeneity — which is
//! precisely why the paper's lattice-surgery solution beats it.

use qft_arch::graph::CouplingGraph;
use qft_arch::lattice::LatticeSurgery;
use qft_core::lnn::{run_line_qft, PathOrder};
use qft_ir::circuit::{MappedCircuit, MappedCircuitBuilder};
use qft_ir::gate::PhysicalQubit;
use qft_ir::layout::Layout;

/// Compiles the QFT along an explicit Hamiltonian `path` of `graph`
/// (logical qubit `i` starts at `path[i]`).
///
/// # Panics
/// Panics if `path` is not a Hamiltonian path of `graph`.
pub fn lnn_on_path(graph: &CouplingGraph, path: &[PhysicalQubit]) -> MappedCircuit {
    assert!(
        qft_arch::hamiltonian::is_hamiltonian_path(graph, path),
        "not a Hamiltonian path of {}",
        graph.name()
    );
    let _n = path.len();
    let layout = Layout::from_assignment(path.to_vec(), graph.n_qubits());
    let mut builder = MappedCircuitBuilder::new(layout);
    run_line_qft(&mut builder, path, 0, PathOrder::Ascending);
    builder.finish()
}

/// The Fig. 19 "LNN" baseline: serpentine path over the lattice-surgery
/// grid (uses one slow vertical link per row turn and treats every link as
/// if it were fast — the depth accounting then charges the real latencies).
pub fn lnn_on_lattice(l: &LatticeSurgery) -> MappedCircuit {
    let m = l.m;
    let mut path = Vec::with_capacity(m * m);
    for r in 0..m {
        if r % 2 == 0 {
            for c in 0..m {
                path.push(l.at(r, c));
            }
        } else {
            for c in (0..m).rev() {
                path.push(l.at(r, c));
            }
        }
    }
    lnn_on_path(l.graph(), &path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qft_sim::symbolic::verify_qft_mapping;

    #[test]
    fn serpentine_lnn_verifies_on_lattice() {
        for m in [2usize, 4, 5] {
            let l = LatticeSurgery::new(m);
            let mc = lnn_on_lattice(&l);
            verify_qft_mapping(&mc, l.graph()).unwrap_or_else(|e| panic!("m={m}: {e}"));
        }
    }

    #[test]
    fn weighted_depth_exceeds_native_lattice_solution() {
        // §2.3/§7.2: the heterogeneous links make the path-based LNN worse
        // than the unit-based solution.
        let m = 8;
        let l = LatticeSurgery::new(m);
        let lnn_depth = l.graph().depth_of(&lnn_on_lattice(&l));
        let ours_depth = l
            .graph()
            .depth_of(&qft_core::compile_lattice(&l, qft_core::IeMode::Relaxed));
        assert!(
            ours_depth < lnn_depth,
            "ours {ours_depth} !< lnn-path {lnn_depth} at m={m}"
        );
    }

    #[test]
    fn rejects_non_hamiltonian_path() {
        let l = LatticeSurgery::new(3);
        let bad = vec![l.at(0, 0), l.at(0, 1)];
        assert!(std::panic::catch_unwind(|| lnn_on_path(l.graph(), &bad)).is_err());
    }
}
