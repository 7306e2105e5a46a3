//! Coupling graphs: which physical qubit pairs can run a two-qubit gate,
//! and at what latency class.

use qft_ir::circuit::PhysOp;
use qft_ir::gate::PhysicalQubit;
use qft_ir::latency::LinkClass;
use serde::{Deserialize, Serialize};

/// An undirected coupling graph with per-link latency classes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CouplingGraph {
    name: String,
    n: usize,
    adj: Vec<Vec<(u32, LinkClass)>>,
    n_edges: usize,
}

impl CouplingGraph {
    /// Builds a graph on `n` qubits from an undirected edge list.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints, self-loops, or duplicate edges.
    pub fn new(name: impl Into<String>, n: usize, edges: &[(u32, u32, LinkClass)]) -> Self {
        let mut adj: Vec<Vec<(u32, LinkClass)>> = vec![Vec::new(); n];
        for &(a, b, class) in edges {
            assert!(a != b, "self-loop on Q{a}");
            assert!(
                (a as usize) < n && (b as usize) < n,
                "edge ({a},{b}) out of range"
            );
            assert!(
                !adj[a as usize].iter().any(|&(x, _)| x == b),
                "duplicate edge ({a},{b})"
            );
            adj[a as usize].push((b, class));
            adj[b as usize].push((a, class));
        }
        for l in &mut adj {
            l.sort_unstable_by_key(|&(x, _)| x);
        }
        CouplingGraph {
            name: name.into(),
            n,
            adj,
            n_edges: edges.len(),
        }
    }

    /// Human-readable architecture name (e.g. `"sycamore-6x6"`).
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of physical qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// Number of undirected links.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// The link class between `a` and `b`, or `None` if not adjacent.
    pub fn link(&self, a: PhysicalQubit, b: PhysicalQubit) -> Option<LinkClass> {
        self.adj[a.index()]
            .iter()
            .find(|&&(x, _)| x == b.0)
            .map(|&(_, c)| c)
    }

    /// Whether `a` and `b` share a link.
    #[inline]
    pub fn are_adjacent(&self, a: PhysicalQubit, b: PhysicalQubit) -> bool {
        self.link(a, b).is_some()
    }

    /// Neighbors of `p` with link classes, sorted by index.
    #[inline]
    pub fn neighbors(&self, p: PhysicalQubit) -> &[(u32, LinkClass)] {
        &self.adj[p.index()]
    }

    /// Degree of `p`.
    #[inline]
    pub fn degree(&self, p: PhysicalQubit) -> usize {
        self.adj[p.index()].len()
    }

    /// Iterates every undirected edge once (`a < b`).
    pub fn edges(&self) -> impl Iterator<Item = (PhysicalQubit, PhysicalQubit, LinkClass)> + '_ {
        self.adj.iter().enumerate().flat_map(|(a, l)| {
            l.iter().filter_map(move |&(b, c)| {
                ((a as u32) < b).then_some((PhysicalQubit(a as u32), PhysicalQubit(b), c))
            })
        })
    }

    /// Whether the graph is connected (ignoring isolated-vertex devices of
    /// size 0/1, which count as connected).
    pub fn is_connected(&self) -> bool {
        if self.n <= 1 {
            return true;
        }
        let mut seen = vec![false; self.n];
        let mut stack = vec![0u32];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &(w, _) in &self.adj[v as usize] {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == self.n
    }

    /// The latency of a mapped operation on this device: single-qubit ops
    /// cost 1; two-qubit ops cost their link's class latency.
    ///
    /// # Panics
    /// Panics if a two-qubit op spans a non-adjacent pair — mapped circuits
    /// must be hardware-compliant before being costed.
    pub fn op_latency(&self, op: &PhysOp) -> u64 {
        match op.p2 {
            None => 1,
            Some(p2) => self
                .link(op.p1, p2)
                .unwrap_or_else(|| panic!("op on non-adjacent pair ({}, {})", op.p1, p2))
                .latency(op.kind),
        }
    }

    /// Weighted depth of a mapped circuit on this device.
    pub fn depth_of(&self, mc: &qft_ir::circuit::MappedCircuit) -> u64 {
        mc.depth_with(|op| self.op_latency(op))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PhysicalQubit {
        PhysicalQubit(i)
    }

    #[test]
    fn adjacency_and_degree() {
        let g = CouplingGraph::new(
            "tri",
            3,
            &[(0, 1, LinkClass::Uniform), (1, 2, LinkClass::FastSwap)],
        );
        assert!(g.are_adjacent(p(0), p(1)));
        assert!(g.are_adjacent(p(1), p(0)));
        assert!(!g.are_adjacent(p(0), p(2)));
        assert_eq!(g.link(p(1), p(2)), Some(LinkClass::FastSwap));
        assert_eq!(g.degree(p(1)), 2);
        assert_eq!(g.n_edges(), 2);
    }

    #[test]
    fn connectivity() {
        let g = CouplingGraph::new("disc", 4, &[(0, 1, LinkClass::Uniform)]);
        assert!(!g.is_connected());
        let g2 = CouplingGraph::new(
            "line",
            3,
            &[(0, 1, LinkClass::Uniform), (1, 2, LinkClass::Uniform)],
        );
        assert!(g2.is_connected());
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edges_rejected() {
        CouplingGraph::new(
            "dup",
            2,
            &[(0, 1, LinkClass::Uniform), (1, 0, LinkClass::Uniform)],
        );
    }

    #[test]
    fn edge_iteration_is_each_once() {
        let g = CouplingGraph::new(
            "sq",
            4,
            &[
                (0, 1, LinkClass::Uniform),
                (1, 2, LinkClass::Uniform),
                (2, 3, LinkClass::Uniform),
                (3, 0, LinkClass::Uniform),
            ],
        );
        assert_eq!(g.edges().count(), 4);
    }
}
