//! SABRE (Li, Ding, Xie — ASPLOS'19 \[21\]) reimplemented from scratch: the
//! heuristic qubit mapper the paper compares against in every experiment.
//!
//! The algorithm: keep the dependency-DAG *front layer*; execute any gate
//! whose operands are adjacent; otherwise score every candidate SWAP
//! (edges touching a front-layer qubit) by the change in summed hop
//! distance over the front layer plus a discounted *extended set* of
//! lookahead gates, with per-qubit decay factors discouraging ping-ponging,
//! and apply the best one. Randomness (tie-breaking and the initial
//! mapping) is seeded — Fig. 27 of the paper shows output variance across
//! seeds, which [`SabreConfig::seed`] reproduces.
//!
//! As §7.2 notes, SABRE has no notion of heterogeneous link latency: its
//! distance matrix is plain hop count, which is what we implement (the
//! paper compares against exactly this behaviour on lattice surgery).
//!
//! **Delta scoring.** Each SWAP decision resolves the front-layer and
//! lookahead pairs to physical positions once and keeps their summed hop
//! distances; a candidate SWAP is scored by the change in only the pairs
//! that touch its edge. The lookahead BFS and the candidate
//! deduplication run in buffers reused across decisions, with generation
//! stamps in place of per-decision sets.
//!
//! **Byte identity.** The distance sums are integers, so every `f64`
//! score equals a full rescoring of every pair bit for bit; candidates
//! are collected in the same first-seen order, so ties and RNG draws fall
//! the same way. The routed circuit therefore depends only on the DAG,
//! the device and the [`SabreConfig`], and `tests/passes.rs` pins it by
//! digest across DAG modes, initial layouts, AQFT degrees and opt levels.

use qft_arch::distance::DistanceMatrix;
use qft_arch::graph::CouplingGraph;
use qft_ir::circuit::{MappedCircuit, MappedCircuitBuilder};
use qft_ir::dag::{CircuitDag, Frontier};
use qft_ir::gate::{LogicalQubit, PhysicalQubit};
use qft_ir::layout::Layout;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Tunables of the SABRE heuristic (defaults follow the original paper).
#[derive(Debug, Clone)]
pub struct SabreConfig {
    /// Extended-set (lookahead) size.
    pub extended_size: usize,
    /// Weight of the extended set in the score.
    pub extended_weight: f64,
    /// Decay increment applied to a qubit when it participates in a SWAP.
    pub decay_delta: f64,
    /// Reset the decay array every this many SWAPs.
    pub decay_reset: usize,
    /// RNG seed (initial mapping shuffle + tie-breaking).
    pub seed: u64,
    /// Use a random initial mapping (true) or the identity (false).
    pub random_initial: bool,
    /// Number of forward/backward refinement passes over the circuit to
    /// improve the initial mapping (0 = none; 2 reproduces the original
    /// paper's bidirectional pre-pass).
    pub refine_passes: usize,
}

impl Default for SabreConfig {
    fn default() -> Self {
        SabreConfig {
            extended_size: 20,
            extended_weight: 0.5,
            decay_delta: 0.001,
            decay_reset: 5,
            seed: 0,
            random_initial: false,
            refine_passes: 2,
        }
    }
}

/// Runs SABRE on `dag` over `graph`, producing a hardware-compliant mapped
/// circuit.
pub fn sabre_compile(
    dag: &CircuitDag,
    graph: &CouplingGraph,
    config: &SabreConfig,
) -> MappedCircuit {
    let dist = DistanceMatrix::hops(graph);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = dag.n_qubits();
    let n_phys = graph.n_qubits();
    assert!(n <= n_phys, "program larger than device");

    let mut layout = if config.random_initial {
        let mut phys: Vec<u32> = (0..n_phys as u32).collect();
        phys.shuffle(&mut rng);
        Layout::from_assignment(
            phys[..n].iter().map(|&p| PhysicalQubit(p)).collect(),
            n_phys,
        )
    } else {
        Layout::identity(n, n_phys)
    };

    // Bidirectional refinement: run the router silently forward and adopt
    // the final layout as the next pass's initial layout (alternating
    // directions is equivalent for QFT's palindromic interaction set; we
    // reuse the forward DAG).
    for _ in 0..config.refine_passes {
        let (_, final_layout) = route(dag, graph, &dist, layout.clone(), config, &mut rng, false);
        layout = final_layout;
    }

    let (mc, _) = route(dag, graph, &dist, layout, config, &mut rng, true);
    mc.expect("emit=true returns a circuit")
}

/// Convenience: SABRE on the textbook QFT circuit (strict dependency DAG,
/// as a general-purpose compiler would see it).
pub fn sabre_qft(
    n: usize,
    graph: &CouplingGraph,
    mode: qft_ir::dag::DagMode,
    config: &SabreConfig,
) -> MappedCircuit {
    let circuit = qft_ir::qft::qft_circuit(n);
    let dag = CircuitDag::build(&circuit, mode);
    sabre_compile(&dag, graph, config)
}

fn route(
    dag: &CircuitDag,
    graph: &CouplingGraph,
    dist: &DistanceMatrix,
    initial: Layout,
    config: &SabreConfig,
    rng: &mut StdRng,
    emit: bool,
) -> (Option<MappedCircuit>, Layout) {
    // The refinement passes read only the final layout, so only an
    // emitting pass records ops.
    let mut builder = emit.then(|| MappedCircuitBuilder::new(initial.clone()));
    let mut layout = initial;
    let mut front: Frontier = dag.frontier();
    let n_phys = graph.n_qubits();
    let mut decay = vec![1.0f64; n_phys];
    let mut swaps_since_reset = 0usize;
    // Release valve: if this many SWAPs happen without executing a single
    // gate the heuristic is ping-ponging (observed with wide relaxed-DAG
    // front layers on sparse graphs); force-route the closest front gate
    // along a shortest path, as production SABRE variants do.
    let stall_limit = 4 * n_phys + 32;
    let mut swaps_since_exec = 0usize;
    let max_swaps = 200 * dag.len() + 10_000;
    let mut total_swaps = 0usize;
    let mut window = Window::new(dag.len(), n_phys);
    let mut nodes: Vec<u32> = Vec::new();
    let mut best: Vec<(PhysicalQubit, PhysicalQubit)> = Vec::new();

    while !front.is_done() {
        // 1. Execute every front gate that is executable.
        let mut executed_any = true;
        let mut executed_round = false;
        while executed_any {
            executed_any = false;
            nodes.clear();
            nodes.extend_from_slice(front.front());
            for &node in &nodes {
                let g = dag.gates()[node as usize];
                let executable = match g.b {
                    None => true,
                    Some(b) => {
                        let (pa, pb) = (layout.phys(g.a), layout.phys(b));
                        graph.are_adjacent(pa, pb)
                    }
                };
                if executable {
                    if let Some(builder) = &mut builder {
                        match g.b {
                            None => builder.push_1q_logical(g.kind, g.a),
                            Some(b) => builder.push_2q_logical(g.kind, g.a, b),
                        }
                    }
                    front.execute(dag, node);
                    executed_any = true;
                }
            }
            executed_round |= executed_any;
        }
        if executed_round {
            decay.fill(1.0);
            swaps_since_reset = 0;
            swaps_since_exec = 0;
        }
        if front.is_done() {
            break;
        }

        // Release valve (see above): deterministically route the closest
        // blocked gate, then resume the heuristic.
        if swaps_since_exec >= stall_limit {
            let (&node, _) = front
                .front()
                .iter()
                .filter_map(|n| {
                    let g = dag.gates()[*n as usize];
                    g.b.map(|b| (n, dist.get(layout.phys(g.a), layout.phys(b))))
                })
                .min_by_key(|&(_, d)| d)
                .expect("blocked front has a 2q gate");
            let g = dag.gates()[node as usize];
            let b = g.b.unwrap();
            let mut pa = layout.phys(g.a);
            let pb = layout.phys(b);
            while dist.get(pa, pb) > 1 {
                let &(next, _) = graph
                    .neighbors(pa)
                    .iter()
                    .min_by_key(|&&(nbr, _)| dist.get(PhysicalQubit(nbr), pb))
                    .expect("connected graph");
                layout.swap_phys(pa, PhysicalQubit(next));
                if let Some(builder) = &mut builder {
                    builder.push_swap_phys(pa, PhysicalQubit(next));
                }
                total_swaps += 1;
                pa = PhysicalQubit(next);
            }
            swaps_since_exec = 0;
            continue;
        }

        // 2. Blocked: choose the best SWAP among edges touching front-layer
        // qubits.
        window.resolve(dag, &front, &layout, dist, config.extended_size);
        debug_assert!(window.n_front > 0, "blocked front with no 2q gates");
        window.collect_candidates(graph);

        best.clear();
        let mut best_score = f64::INFINITY;
        for &c in &window.candidates {
            let s = window.score(c, dist, &decay, config.extended_weight);
            if s < best_score - 1e-12 {
                best_score = s;
                best.clear();
                best.push(c);
            } else if (s - best_score).abs() <= 1e-12 {
                best.push(c);
            }
        }
        let chosen = best[rng.gen_range(0..best.len())];
        layout.swap_phys(chosen.0, chosen.1);
        if let Some(builder) = &mut builder {
            builder.push_swap_phys(chosen.0, chosen.1);
        }
        decay[chosen.0.index()] += config.decay_delta;
        decay[chosen.1.index()] += config.decay_delta;
        swaps_since_reset += 1;
        swaps_since_exec += 1;
        total_swaps += 1;
        if swaps_since_reset >= config.decay_reset {
            decay.fill(1.0);
            swaps_since_reset = 0;
        }
        assert!(
            total_swaps < max_swaps,
            "SABRE exceeded swap budget on {} ({} gates)",
            graph.name(),
            dag.len()
        );
    }

    (builder.map(MappedCircuitBuilder::finish), layout)
}

/// One SWAP decision's view of the circuit, in buffers a routing pass
/// reuses: the front-layer and lookahead pairs at their physical
/// positions, their summed hop distances, which pairs touch each physical
/// qubit, and the candidate SWAPs. Generation stamps (`seen`, `expanded`
/// equal to `stamp`) stand in for per-decision sets.
struct Window {
    /// Front-layer pairs, then lookahead pairs: physical positions and
    /// current hop distance.
    pairs: Vec<(PhysicalQubit, PhysicalQubit, u32)>,
    /// How many of `pairs` belong to the front layer.
    n_front: usize,
    /// Summed distance of the front pairs.
    front_sum: i64,
    /// Summed distance of the lookahead pairs.
    lookahead_sum: i64,
    /// `touching[p]`: indices into `pairs` with an endpoint at `p`.
    touching: Vec<Vec<u32>>,
    /// Candidate SWAPs `(p, q)`, `p < q`, in first-seen order.
    candidates: Vec<(PhysicalQubit, PhysicalQubit)>,
    /// The lookahead BFS queue of DAG nodes.
    queue: Vec<u32>,
    /// Per DAG node: reached by this decision's BFS.
    seen: Vec<u32>,
    /// Per physical qubit: its edges are already candidates.
    expanded: Vec<u32>,
    stamp: u32,
}

impl Window {
    fn new(n_nodes: usize, n_phys: usize) -> Self {
        Window {
            pairs: Vec::new(),
            n_front: 0,
            front_sum: 0,
            lookahead_sum: 0,
            touching: vec![Vec::new(); n_phys],
            candidates: Vec::new(),
            queue: Vec::new(),
            seen: vec![0; n_nodes],
            expanded: vec![0; n_phys],
            stamp: 0,
        }
    }

    /// Resolves the front layer's two-qubit gates and the lookahead window
    /// (their descendants in BFS order, two-qubit gates only, capped at
    /// `lookahead`) to physical pairs under `layout`.
    fn resolve(
        &mut self,
        dag: &CircuitDag,
        front: &Frontier,
        layout: &Layout,
        dist: &DistanceMatrix,
        lookahead: usize,
    ) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen.fill(0);
            self.expanded.fill(0);
            self.stamp = 1;
        }
        for &(a, b, _) in &self.pairs {
            self.touching[a.index()].clear();
            self.touching[b.index()].clear();
        }
        self.pairs.clear();
        let at = |a: LogicalQubit, b: LogicalQubit| {
            let (pa, pb) = (layout.phys(a), layout.phys(b));
            (pa, pb, dist.get(pa, pb))
        };

        self.queue.clear();
        for &node in front.front() {
            self.seen[node as usize] = self.stamp;
            self.queue.push(node);
            let g = dag.gates()[node as usize];
            if let Some(b) = g.b {
                self.pairs.push(at(g.a, b));
            }
        }
        self.n_front = self.pairs.len();

        let mut head = 0;
        'bfs: while head < self.queue.len() && self.pairs.len() - self.n_front < lookahead {
            let node = self.queue[head];
            head += 1;
            for &s in dag.succs(node) {
                if self.seen[s as usize] == self.stamp {
                    continue;
                }
                self.seen[s as usize] = self.stamp;
                let g = dag.gates()[s as usize];
                if let Some(b) = g.b {
                    self.pairs.push(at(g.a, b));
                    if self.pairs.len() - self.n_front >= lookahead {
                        break 'bfs;
                    }
                }
                self.queue.push(s);
            }
        }

        self.front_sum = 0;
        self.lookahead_sum = 0;
        for (k, &(a, b, d)) in self.pairs.iter().enumerate() {
            self.touching[a.index()].push(k as u32);
            self.touching[b.index()].push(k as u32);
            if k < self.n_front {
                self.front_sum += i64::from(d);
            } else {
                self.lookahead_sum += i64::from(d);
            }
        }
    }

    /// Collects every edge touching a front-layer qubit once, in the order
    /// the front pairs first reach it.
    fn collect_candidates(&mut self, graph: &CouplingGraph) {
        self.candidates.clear();
        for &(a, b, _) in &self.pairs[..self.n_front] {
            for p in [a, b] {
                if self.expanded[p.index()] == self.stamp {
                    continue;
                }
                self.expanded[p.index()] = self.stamp;
                for &(nbr, _) in graph.neighbors(p) {
                    // An edge to an expanded qubit was collected with it.
                    if self.expanded[nbr as usize] != self.stamp {
                        let q = PhysicalQubit(nbr);
                        self.candidates.push(if p <= q { (p, q) } else { (q, p) });
                    }
                }
            }
        }
    }

    /// SABRE's score of `swap`: the mean front distance plus the weighted
    /// mean lookahead distance after the SWAP, times the larger decay of
    /// its two qubits. Only the pairs touching the swapped edge change,
    /// and the sums are integers, so the result equals a full rescoring
    /// bit for bit.
    fn score(
        &self,
        (p, q): (PhysicalQubit, PhysicalQubit),
        dist: &DistanceMatrix,
        decay: &[f64],
        lookahead_weight: f64,
    ) -> f64 {
        let moved = |x: PhysicalQubit| {
            if x == p {
                q
            } else if x == q {
                p
            } else {
                x
            }
        };
        let (mut front_sum, mut lookahead_sum) = (self.front_sum, self.lookahead_sum);
        // A pair with both ends on the edge is counted once, from `p`.
        let at_q = self.touching[q.index()].iter().filter(|&&k| {
            let (a, b, _) = self.pairs[k as usize];
            a != p && b != p
        });
        for &k in self.touching[p.index()].iter().chain(at_q) {
            let (a, b, d) = self.pairs[k as usize];
            let delta = i64::from(dist.get(moved(a), moved(b))) - i64::from(d);
            if (k as usize) < self.n_front {
                front_sum += delta;
            } else {
                lookahead_sum += delta;
            }
        }
        let mut s = front_sum as f64 / self.n_front as f64;
        let n_lookahead = self.pairs.len() - self.n_front;
        if n_lookahead > 0 {
            s += lookahead_weight * lookahead_sum as f64 / n_lookahead as f64;
        }
        decay[p.index()].max(decay[q.index()]) * s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qft_arch::grid::Grid;
    use qft_arch::heavyhex::HeavyHex;
    use qft_arch::lnn::lnn;
    use qft_ir::dag::DagMode;
    use qft_ir::metrics::Metrics;
    use qft_sim::symbolic::verify_qft_mapping;

    #[test]
    fn sabre_qft_on_line_verifies() {
        for n in [2usize, 4, 6, 9] {
            let g = lnn(n);
            let mc = sabre_qft(n, &g, DagMode::Strict, &SabreConfig::default());
            verify_qft_mapping(&mc, &g).unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn sabre_qft_on_grid_verifies_and_is_correct() {
        let grid = Grid::new(2, 2);
        let mc = sabre_qft(4, grid.graph(), DagMode::Strict, &SabreConfig::default());
        verify_qft_mapping(&mc, grid.graph()).unwrap();
        assert!(qft_sim::equiv::mapped_equals_qft(&mc, 3));
    }

    #[test]
    fn sabre_on_heavyhex_verifies() {
        let hh = HeavyHex::groups(2);
        let mc = sabre_qft(10, hh.graph(), DagMode::Strict, &SabreConfig::default());
        verify_qft_mapping(&mc, hh.graph()).unwrap();
    }

    #[test]
    fn relaxed_dag_also_verifies() {
        let hh = HeavyHex::groups(2);
        let mc = sabre_qft(10, hh.graph(), DagMode::Relaxed, &SabreConfig::default());
        verify_qft_mapping(&mc, hh.graph()).unwrap();
    }

    #[test]
    fn seeds_change_output() {
        // Fig. 27: SABRE's output varies with the random seed.
        let grid = Grid::new(2, 2);
        let cfg = |seed| SabreConfig {
            seed,
            random_initial: true,
            ..Default::default()
        };
        let outs: Vec<String> = (0..8)
            .map(|s| {
                let mc = sabre_qft(4, grid.graph(), DagMode::Strict, &cfg(s));
                verify_qft_mapping(&mc, grid.graph()).unwrap();
                format!("{:?}|{:?}", mc.initial_layout().assignment(), mc.ops())
            })
            .collect();
        assert!(
            outs.iter().any(|o| *o != outs[0]),
            "all seeds produced identical output: {outs:?}"
        );
    }

    #[test]
    fn sabre_respects_identity_when_all_adjacent() {
        // On a complete-enough graph (2-qubit line), no swaps needed.
        let g = lnn(2);
        let mc = sabre_qft(2, &g, DagMode::Strict, &SabreConfig::default());
        assert_eq!(mc.swap_count(), 0);
    }

    #[test]
    fn sabre_depth_grows_superlinearly_on_lnn() {
        // QFT on a line needs Θ(n) swap layers even for SABRE; sanity-check
        // metrics come out consistent.
        let n = 12;
        let g = lnn(n);
        let mc = sabre_qft(n, &g, DagMode::Strict, &SabreConfig::default());
        let m = Metrics::of(&mc, |_| 1);
        assert_eq!(m.cphases, n * (n - 1) / 2);
        assert_eq!(m.hadamards, n);
        assert!(m.swaps > 0);
    }
}
