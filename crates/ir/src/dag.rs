//! Dependency DAGs over logical circuits, with the paper's Type I / Type II
//! dependence model.
//!
//! §3.1 of the paper classifies QFT dependences:
//!
//! * **Type I** (relaxable): two `CPHASE` gates sharing a control or target.
//!   `CPHASE` gates are diagonal, hence mutually commute — these edges can be
//!   dropped.
//! * **Type II** (essential): one gate's control is another's target. In the
//!   QFT this is always mediated by the `H` gate (`G(q_j, q_j)` in the
//!   paper's notation), which does not commute with `CPHASE`.
//!
//! [`DagMode::Strict`] keeps both edge classes (the conventional circuit
//! DAG); [`DagMode::Relaxed`] keeps only edges where the two gates genuinely
//! fail to commute — exactly the Type-II-only relaxation.

use crate::circuit::Circuit;
use crate::gate::Gate;
use serde::{Deserialize, Serialize};

/// Which dependences to encode; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DagMode {
    /// Conventional per-qubit program order (Type I + Type II).
    Strict,
    /// Commutation-aware order (Type II only): overlapping diagonal gates are
    /// unordered.
    Relaxed,
}

/// A dependency DAG over a gate list.
#[derive(Debug, Clone)]
pub struct CircuitDag {
    gates: Vec<Gate>,
    succs: Vec<Vec<u32>>,
    indeg: Vec<u32>,
    n_qubits: usize,
    mode: DagMode,
}

impl CircuitDag {
    /// Builds the DAG for `circuit` under `mode`.
    pub fn build(circuit: &Circuit, mode: DagMode) -> Self {
        let gates = circuit.gates().to_vec();
        let n = circuit.n_qubits();
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); gates.len()];
        let mut indeg: Vec<u32> = vec![0; gates.len()];

        match mode {
            DagMode::Strict => {
                // Edge from the previous gate on each operand qubit.
                let mut last: Vec<Option<u32>> = vec![None; n];
                for (i, g) in gates.iter().enumerate() {
                    let mut preds: Vec<u32> = g.qubits().filter_map(|q| last[q.index()]).collect();
                    preds.sort_unstable();
                    preds.dedup();
                    for p in preds {
                        succs[p as usize].push(i as u32);
                        indeg[i] += 1;
                    }
                    for q in g.qubits() {
                        last[q.index()] = Some(i as u32);
                    }
                }
            }
            DagMode::Relaxed => {
                // Per qubit: the last non-diagonal gate acts as a barrier;
                // diagonal gates between consecutive barriers are mutually
                // unordered (they commute).
                let mut last_barrier: Vec<Option<u32>> = vec![None; n];
                let mut diag_since: Vec<Vec<u32>> = vec![Vec::new(); n];
                for (i, g) in gates.iter().enumerate() {
                    let mut preds: Vec<u32> = Vec::new();
                    if g.kind.is_diagonal() {
                        for q in g.qubits() {
                            if let Some(b) = last_barrier[q.index()] {
                                preds.push(b);
                            }
                            diag_since[q.index()].push(i as u32);
                        }
                    } else {
                        for q in g.qubits() {
                            let qi = q.index();
                            if diag_since[qi].is_empty() {
                                if let Some(b) = last_barrier[qi] {
                                    preds.push(b);
                                }
                            } else {
                                preds.append(&mut diag_since[qi]);
                            }
                            last_barrier[qi] = Some(i as u32);
                        }
                    }
                    preds.sort_unstable();
                    preds.dedup();
                    for p in preds {
                        succs[p as usize].push(i as u32);
                        indeg[i] += 1;
                    }
                }
            }
        }

        CircuitDag {
            gates,
            succs,
            indeg,
            n_qubits: n,
            mode,
        }
    }

    /// The gate list underlying the DAG (node `i` is `gates()[i]`).
    #[inline]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// True if the DAG is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Number of logical qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The mode this DAG was built under.
    #[inline]
    pub fn mode(&self) -> DagMode {
        self.mode
    }

    /// Successors of node `i`.
    #[inline]
    pub fn succs(&self, i: u32) -> &[u32] {
        &self.succs[i as usize]
    }

    /// Total dependence-edge count.
    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// Starts a traversal state with all indegrees reset.
    pub fn frontier(&self) -> Frontier {
        let mut front = Vec::new();
        for (i, &d) in self.indeg.iter().enumerate() {
            if d == 0 {
                front.push(i as u32);
            }
        }
        Frontier {
            indeg: self.indeg.clone(),
            front,
            executed: 0,
        }
    }

    /// Checks that `order` is a permutation of all nodes consistent with the
    /// DAG edges. Used by tests and the symbolic verifier.
    pub fn is_valid_order(&self, order: &[u32]) -> bool {
        if order.len() != self.gates.len() {
            return false;
        }
        let mut pos = vec![usize::MAX; self.gates.len()];
        for (t, &g) in order.iter().enumerate() {
            if (g as usize) >= pos.len() || pos[g as usize] != usize::MAX {
                return false;
            }
            pos[g as usize] = t;
        }
        for (i, ss) in self.succs.iter().enumerate() {
            for &s in ss {
                if pos[i] >= pos[s as usize] {
                    return false;
                }
            }
        }
        true
    }
}

/// Mutable traversal state over a [`CircuitDag`]: the classic
/// front-layer/execute loop used by SABRE and by schedulers.
#[derive(Debug, Clone)]
pub struct Frontier {
    indeg: Vec<u32>,
    front: Vec<u32>,
    executed: usize,
}

impl Frontier {
    /// Nodes with all dependences satisfied, not yet executed.
    #[inline]
    pub fn front(&self) -> &[u32] {
        &self.front
    }

    /// True when every node has been executed.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.front.is_empty()
    }

    /// How many nodes have been executed.
    #[inline]
    pub fn executed(&self) -> usize {
        self.executed
    }

    /// Executes a front node, moving the nodes it makes ready into the
    /// front.
    ///
    /// # Panics
    /// Panics if `node` is not currently in the front.
    pub fn execute(&mut self, dag: &CircuitDag, node: u32) {
        let idx = self
            .front
            .iter()
            .position(|&x| x == node)
            .expect("node not in front layer");
        self.front.swap_remove(idx);
        self.executed += 1;
        for &s in dag.succs(node) {
            let d = &mut self.indeg[s as usize];
            *d -= 1;
            if *d == 0 {
                self.front.push(s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;

    fn qft3() -> Circuit {
        // Textbook QFT on 3 qubits.
        let mut c = Circuit::new(3);
        c.push(Gate::h(0));
        c.push(Gate::cphase(2, 0, 1));
        c.push(Gate::cphase(3, 0, 2));
        c.push(Gate::h(1));
        c.push(Gate::cphase(2, 1, 2));
        c.push(Gate::h(2));
        c
    }

    #[test]
    fn strict_dag_chains_per_qubit() {
        let dag = CircuitDag::build(&qft3(), DagMode::Strict);
        // H(0) -> CP(0,1) -> CP(0,2) -> H(1)? No: H(1) depends on CP(0,1) via q1.
        // Check edges: node 1 (CP(0,1)) must precede node 2 (CP(0,2)) strictly.
        assert!(dag.succs(1).contains(&2));
        let f = dag.frontier();
        assert_eq!(f.front(), &[0]); // only H(0) initially ready
    }

    #[test]
    fn relaxed_dag_drops_type_i_edges() {
        let dag = CircuitDag::build(&qft3(), DagMode::Relaxed);
        // CP(0,1) and CP(0,2) share q0 but commute: no edge between them.
        assert!(!dag.succs(1).contains(&2));
        // After H(0), both CPHASEs on q0 become ready... CP(0,2) also needs
        // nothing on q2 (no earlier barrier), CP(1,2)? needs nothing on q2
        // but q1 has no barrier before it either -- but it IS ordered after
        // H(1) which is ordered after CP(0,1). Initial front: H(0) only?
        // CP(0,1): pred H(0). CP(0,2): pred H(0). CP(1,2): preds = barriers?
        // q1 barrier none yet at build time for node 4? Node 3 is H(1), a
        // barrier on q1 built from diag_since = [CP(0,1)]. Node 4 CP(1,2)
        // has pred H(1) via q1. So initial front = {H(0)}.
        let f = dag.frontier();
        assert_eq!(f.front(), &[0]);
        // Note: on the textbook QFT the *edge count* of strict and relaxed
        // DAGs coincides (n(n-1) each); what the relaxation removes is
        // ordering in the transitive closure. Witness: an order that swaps
        // the two commuting CPHASEs is relaxed-valid but strict-invalid.
        let strict = CircuitDag::build(&qft3(), DagMode::Strict);
        let reordered = [0u32, 2, 1, 3, 4, 5];
        assert!(dag.is_valid_order(&reordered));
        assert!(!strict.is_valid_order(&reordered));
    }

    #[test]
    fn relaxed_preserves_type_ii() {
        let dag = CircuitDag::build(&qft3(), DagMode::Relaxed);
        // H(1) (node 3) must still follow CP(0,1) (node 1) and precede
        // CP(1,2) (node 4).
        assert!(dag.succs(1).contains(&3));
        assert!(dag.succs(3).contains(&4));
    }

    #[test]
    fn frontier_executes_in_waves() {
        let dag = CircuitDag::build(&qft3(), DagMode::Relaxed);
        let mut f = dag.frontier();
        f.execute(&dag, 0); // H(0)
        let mut r = f.front().to_vec();
        r.sort_unstable();
        assert_eq!(r, vec![1, 2]); // both CPHASEs on q0 unlock together
        f.execute(&dag, 1);
        f.execute(&dag, 2);
        assert_eq!(f.front(), &[3]);
        f.execute(&dag, 3);
        f.execute(&dag, 4);
        f.execute(&dag, 5);
        assert!(f.is_done());
        assert_eq!(f.executed(), 6);
    }

    #[test]
    fn valid_order_checker() {
        let dag = CircuitDag::build(&qft3(), DagMode::Strict);
        assert!(dag.is_valid_order(&[0, 1, 2, 3, 4, 5]));
        assert!(!dag.is_valid_order(&[1, 0, 2, 3, 4, 5])); // CP before its H
        assert!(!dag.is_valid_order(&[0, 1, 2, 3, 4])); // missing node
                                                        // Relaxed allows exchanging the two commuting CPHASEs.
        let relaxed = CircuitDag::build(&qft3(), DagMode::Relaxed);
        assert!(relaxed.is_valid_order(&[0, 2, 1, 3, 4, 5]));
        assert!(!CircuitDag::build(&qft3(), DagMode::Strict).is_valid_order(&[0, 2, 1, 3, 4, 5]));
    }

    #[test]
    fn swap_is_a_barrier_in_relaxed_mode() {
        let mut c = Circuit::new(3);
        c.push(Gate::cphase(2, 0, 1));
        c.push(Gate::swap(1, 2));
        c.push(Gate::cphase(2, 0, 1));
        let dag = CircuitDag::build(&c, DagMode::Relaxed);
        // CP -> SWAP -> CP must be fully ordered (SWAP is not diagonal).
        assert!(dag.succs(0).contains(&1));
        assert!(dag.succs(1).contains(&2));
    }
}
