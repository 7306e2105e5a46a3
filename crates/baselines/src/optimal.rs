//! Exact SWAP-count-optimal mapping by A* search — the in-repo substitute
//! for SATMAP \[29\] (MaxSAT plus an external solver, which a pure-Rust
//! offline build cannot ship).
//!
//! The contract matches the paper's observations in Table 1: exact optima
//! on tiny instances (Sycamore 2×2), and a *timeout* beyond roughly ten
//! qubits, because the state space is exponential.
//!
//! Search formulation: a state is a layout; from each state we either
//! greedily execute every currently-executable front gate (free) or insert
//! one SWAP (cost 1). The heuristic — `max_g ceil((dist(g) − 1))` over the
//! front layer, zero when empty — is admissible, so the first goal found
//! has minimum SWAP count.

use qft_arch::distance::DistanceMatrix;
use qft_arch::graph::CouplingGraph;
use qft_ir::circuit::{MappedCircuit, MappedCircuitBuilder};
use qft_ir::dag::{CircuitDag, Frontier};
use qft_ir::gate::PhysicalQubit;
use qft_ir::layout::Layout;
use std::collections::{BinaryHeap, HashMap};
use std::time::{Duration, Instant};

/// Result of a bounded optimal search.
#[derive(Debug)]
pub enum OptimalResult {
    /// An optimal (minimum-SWAP) mapped circuit, plus the proof effort.
    Solved {
        /// The optimal circuit.
        circuit: MappedCircuit,
        /// Search nodes expanded.
        nodes: u64,
    },
    /// Deadline or node budget exhausted — the paper's "TLE".
    TimedOut {
        /// Search nodes expanded before giving up.
        nodes: u64,
    },
}

/// Configuration for the optimal search.
#[derive(Debug, Clone)]
pub struct OptimalConfig {
    /// Wall-clock budget.
    pub deadline: Duration,
    /// Hard cap on expanded nodes.
    pub max_nodes: u64,
}

impl Default for OptimalConfig {
    fn default() -> Self {
        OptimalConfig {
            deadline: Duration::from_secs(10),
            max_nodes: 20_000_000,
        }
    }
}

#[derive(Clone)]
struct State {
    layout: Layout,
    frontier: Frontier,
    swaps: Vec<(PhysicalQubit, PhysicalQubit)>,
}

/// Key for the visited map: the layout assignment plus progress.
fn state_key(s: &State) -> (Vec<u32>, usize) {
    (
        s.layout.assignment().iter().map(|p| p.0).collect(),
        s.frontier.executed(),
    )
}

/// Greedily executes all executable front gates; returns how many ran.
fn exhaust(dag: &CircuitDag, graph: &CouplingGraph, st: &mut State) -> usize {
    let mut ran = 0;
    loop {
        let nodes: Vec<u32> = st.frontier.front().to_vec();
        let mut any = false;
        for node in nodes {
            let g = dag.gates()[node as usize];
            let ok = match g.b {
                None => true,
                Some(b) => graph.are_adjacent(st.layout.phys(g.a), st.layout.phys(b)),
            };
            if ok {
                st.frontier.execute(dag, node);
                ran += 1;
                any = true;
            }
        }
        if !any {
            return ran;
        }
    }
}

fn heuristic(dag: &CircuitDag, dist: &DistanceMatrix, st: &State) -> u32 {
    st.frontier
        .front()
        .iter()
        .filter_map(|&node| {
            let g = dag.gates()[node as usize];
            g.b.map(|b| {
                dist.get(st.layout.phys(g.a), st.layout.phys(b))
                    .saturating_sub(1)
            })
        })
        .max()
        .unwrap_or(0)
}

/// Searches for the minimum-SWAP realization of `dag` on `graph` from the
/// identity initial layout.
pub fn optimal_compile(
    dag: &CircuitDag,
    graph: &CouplingGraph,
    config: &OptimalConfig,
) -> OptimalResult {
    let dist = DistanceMatrix::hops(graph);
    let start_time = Instant::now();
    let mut nodes_expanded: u64 = 0;

    let mut start = State {
        layout: Layout::identity(dag.n_qubits(), graph.n_qubits()),
        frontier: dag.frontier(),
        swaps: Vec::new(),
    };
    exhaust(dag, graph, &mut start);

    // Max-heap on Reverse(f); entries carry an index into an arena.
    let mut arena: Vec<State> = vec![start];
    let mut heap: BinaryHeap<std::cmp::Reverse<(u32, u32, usize)>> = BinaryHeap::new();
    let h0 = heuristic(dag, &dist, &arena[0]);
    heap.push(std::cmp::Reverse((h0, 0, 0)));
    let mut best_g: HashMap<(Vec<u32>, usize), u32> = HashMap::new();
    best_g.insert(state_key(&arena[0]), 0);

    while let Some(std::cmp::Reverse((_f, g_cost, idx))) = heap.pop() {
        nodes_expanded += 1;
        if nodes_expanded.is_multiple_of(512)
            && (start_time.elapsed() > config.deadline || nodes_expanded > config.max_nodes)
        {
            return OptimalResult::TimedOut {
                nodes: nodes_expanded,
            };
        }
        let st = arena[idx].clone();
        if st.frontier.is_done() {
            return OptimalResult::Solved {
                circuit: replay(dag, graph, &st.swaps),
                nodes: nodes_expanded,
            };
        }
        // Stale-entry skip.
        if best_g.get(&state_key(&st)).copied().unwrap_or(u32::MAX) < g_cost {
            continue;
        }
        for (pa, pb, _) in graph.edges() {
            let mut next = st.clone();
            next.layout.swap_phys(pa, pb);
            next.swaps.push((pa, pb));
            exhaust(dag, graph, &mut next);
            let ng = g_cost + 1;
            let key = state_key(&next);
            if best_g.get(&key).copied().unwrap_or(u32::MAX) <= ng {
                continue;
            }
            best_g.insert(key, ng);
            let h = heuristic(dag, &dist, &next);
            arena.push(next);
            heap.push(std::cmp::Reverse((ng + h, ng, arena.len() - 1)));
        }
    }
    OptimalResult::TimedOut {
        nodes: nodes_expanded,
    }
}

/// Reconstructs the mapped circuit from the SWAP decision sequence by
/// re-running the greedy execution.
fn replay(
    dag: &CircuitDag,
    graph: &CouplingGraph,
    swaps: &[(PhysicalQubit, PhysicalQubit)],
) -> MappedCircuit {
    let mut builder = MappedCircuitBuilder::new(Layout::identity(dag.n_qubits(), graph.n_qubits()));
    let mut frontier = dag.frontier();
    let emit_ready = |builder: &mut MappedCircuitBuilder, frontier: &mut Frontier| loop {
        let nodes: Vec<u32> = frontier.front().to_vec();
        let mut any = false;
        for node in nodes {
            let g = dag.gates()[node as usize];
            let ok = match g.b {
                None => true,
                Some(b) => graph.are_adjacent(builder.layout().phys(g.a), builder.layout().phys(b)),
            };
            if ok {
                match g.b {
                    None => builder.push_1q_logical(g.kind, g.a),
                    Some(b) => builder.push_2q_logical(g.kind, g.a, b),
                }
                frontier.execute(dag, node);
                any = true;
            }
        }
        if !any {
            break;
        }
    };
    emit_ready(&mut builder, &mut frontier);
    for &(a, b) in swaps {
        builder.push_swap_phys(a, b);
        emit_ready(&mut builder, &mut frontier);
    }
    assert!(frontier.is_done(), "replay incomplete");
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qft_arch::grid::Grid;
    use qft_arch::lnn::lnn;
    use qft_ir::dag::DagMode;
    use qft_ir::qft::qft_circuit;
    use qft_sim::symbolic::verify_qft_mapping;

    fn dag(n: usize, mode: DagMode) -> CircuitDag {
        CircuitDag::build(&qft_circuit(n), mode)
    }

    #[test]
    fn optimal_on_2x2_grid_matches_satmap_swap_count() {
        // Table 1: SATMAP's Sycamore 2×2 result uses 3 SWAPs. The 2×2 grid
        // (our 2×2 Sycamore unit graph is a 4-cycle too) should solve
        // instantly with a small optimal count.
        let grid = Grid::new(2, 2);
        match optimal_compile(
            &dag(4, DagMode::Strict),
            grid.graph(),
            &OptimalConfig::default(),
        ) {
            OptimalResult::Solved { circuit, .. } => {
                verify_qft_mapping(&circuit, grid.graph()).unwrap();
                assert!(circuit.swap_count() <= 3, "swaps={}", circuit.swap_count());
            }
            OptimalResult::TimedOut { .. } => panic!("2x2 must solve"),
        }
    }

    #[test]
    fn optimal_beats_or_ties_lnn_analytical_on_tiny_line() {
        let g = lnn(4);
        match optimal_compile(&dag(4, DagMode::Strict), &g, &OptimalConfig::default()) {
            OptimalResult::Solved { circuit, .. } => {
                verify_qft_mapping(&circuit, &g).unwrap();
                // The analytical LNN solution uses n(n-1)/2 = 6 swaps; the
                // optimum can only be ≤.
                assert!(circuit.swap_count() <= 6);
            }
            OptimalResult::TimedOut { .. } => panic!("4-qubit line must solve"),
        }
    }

    #[test]
    fn relaxed_dag_optimum_no_worse_than_strict() {
        let g = lnn(4);
        let strict = match optimal_compile(&dag(4, DagMode::Strict), &g, &OptimalConfig::default())
        {
            OptimalResult::Solved { circuit, .. } => circuit.swap_count(),
            _ => panic!(),
        };
        let relaxed =
            match optimal_compile(&dag(4, DagMode::Relaxed), &g, &OptimalConfig::default()) {
                OptimalResult::Solved { circuit, .. } => circuit.swap_count(),
                _ => panic!(),
            };
        assert!(relaxed <= strict, "relaxed {relaxed} > strict {strict}");
    }

    #[test]
    fn times_out_gracefully_on_larger_instances() {
        let g = lnn(10);
        let cfg = OptimalConfig {
            deadline: Duration::from_millis(100),
            max_nodes: 100_000,
        };
        match optimal_compile(&dag(10, DagMode::Strict), &g, &cfg) {
            OptimalResult::TimedOut { nodes } => assert!(nodes > 0),
            OptimalResult::Solved { circuit, .. } => {
                // If it somehow solves, it must at least be valid.
                verify_qft_mapping(&circuit, &g).unwrap();
            }
        }
    }

    #[test]
    fn zero_swap_instance() {
        // 2-qubit QFT on a 2-qubit line: no swaps needed, solved immediately.
        let g = lnn(2);
        match optimal_compile(&dag(2, DagMode::Strict), &g, &OptimalConfig::default()) {
            OptimalResult::Solved { circuit, .. } => assert_eq!(circuit.swap_count(), 0),
            _ => panic!(),
        }
    }
}
