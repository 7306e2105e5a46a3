//! Logical QFT circuit builders and the k-partition scheme of §3.2.

use crate::circuit::Circuit;
use crate::gate::{Gate, GateKind, LogicalQubit};
use std::fmt;
use std::ops::Range;

/// Rotation order of the textbook QFT `CPHASE` between qubits `i` and `j`:
/// the gate is `R_{|j-i|+1}` (angle `2π / 2^{|j-i|+1}` = `π / 2^{|j-i|}`).
#[inline]
pub fn rotation_order(i: u32, j: u32) -> u32 {
    i.abs_diff(j) + 1
}

/// The textbook QFT circuit on `n` qubits, in strict program order
/// (Fig. 2(a) of the paper): `H(q_i)` followed by `CPHASE`s with controls
/// `q_{i+1} … q_{n-1}`, for `i = 0 … n-1`.
pub fn qft_circuit(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for i in 0..n as u32 {
        c.push(Gate::h(i));
        for j in (i + 1)..n as u32 {
            c.push(Gate::cphase(rotation_order(i, j), i, j));
        }
    }
    c
}

/// The approximate QFT (AQFT) circuit on `n` qubits: the textbook circuit
/// of [`qft_circuit`] with every `R_k` rotation of order `k > degree`
/// dropped (Coppersmith's truncation). `degree >= n` keeps every rotation
/// (the exact QFT); `degree = 1` keeps only the Hadamards. This is the
/// semantic reference that both the search compilers' logical input and
/// the `aqft-truncate` pass over mapped circuits must agree with.
///
/// # Panics
/// Panics on `degree = 0`: a degree-0 truncation would also drop the
/// Hadamard "rotations" and is rejected at the pipeline layer with a
/// descriptive error before reaching this builder.
pub fn aqft_circuit(n: usize, degree: u32) -> Circuit {
    assert!(degree >= 1, "AQFT degree must be >= 1, got 0");
    let mut c = Circuit::new(n);
    for i in 0..n as u32 {
        c.push(Gate::h(i));
        for j in (i + 1)..n as u32 {
            let k = rotation_order(i, j);
            if k <= degree {
                c.push(Gate::cphase(k, i, j));
            }
        }
    }
    c
}

/// The phase angle of the AQFT basis matrix element `⟨y|AQFT_d|x⟩` on `n`
/// qubits (the amplitude itself is `2^{-n/2} · e^{iθ}` — every basis
/// matrix element of the truncated transform has the same magnitude).
///
/// The closed form falls out of the circuit's Type II structure: each
/// qubit `i` sees exactly one `H`, with only diagonal rotations after it.
/// Summing over computational-basis paths, qubit `i` enters its `H` still
/// carrying the input bit `x_i` (earlier `CPHASE`s are diagonal) and
/// leaves it pinned to the output bit `y_i` (later `CPHASE`s are
/// diagonal), so each `H` contributes `2^{-1/2} · (−1)^{x_i y_i}`, and the
/// surviving `CPHASE(i, j)` of order `k = j−i+1 ≤ d` fires on the post-H
/// bit `y_i` and the pre-H bit `x_j`:
///
/// `θ = π · |x ∧ y|  +  Σ_{i<j, j−i+1≤d}  y_i · x_j · 2π/2^{j−i+1}`
///
/// This gives the sparse equivalence tier engine-independent reference
/// amplitudes in `O(n·d)` per `(x, y)` pair — no `2^n` reference state.
/// `degree ≥ n` is the exact QFT. Requires `n ≤ 63` (u64 basis indices)
/// and `degree ≥ 1` (matching [`aqft_circuit`]).
pub fn aqft_basis_amplitude_angle(n: usize, degree: u32, x: u64, y: u64) -> f64 {
    assert!(degree >= 1, "AQFT degree must be >= 1, got 0");
    assert!(n <= 63, "basis indices are u64: n must be <= 63");
    debug_assert!(n == 63 || (x < (1u64 << n) && y < (1u64 << n)));
    let mut theta = std::f64::consts::PI * (x & y).count_ones() as f64;
    for i in 0..n {
        if y >> i & 1 == 0 {
            continue;
        }
        for j in (i + 1)..n {
            let k = (j - i + 1) as u32;
            if k > degree {
                break; // k grows with j: no further pair survives
            }
            if x >> j & 1 == 1 {
                theta += 2.0 * std::f64::consts::PI * 0.5f64.powi(k as i32);
            }
        }
    }
    theta
}

/// Number of CPHASE gates the degree-`degree` AQFT on `n` qubits keeps:
/// the pairs `(i, j)` with `|i - j| + 1 <= degree`.
pub fn aqft_pair_count(n: usize, degree: u32) -> usize {
    (1..n)
        .filter(|&dist| (dist as u32) < degree)
        .map(|dist| n - dist)
        .sum()
}

/// A recursive partition of a contiguous qubit range, mirroring the
/// `range_list` argument of the paper's `QFT-IA` pseudo-code (Fig. 8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Partition {
    /// No further subdivision: run the traditional QFT on this range.
    Leaf(Range<u32>),
    /// Subdivide into the given children (which must tile the range in
    /// ascending order).
    Node(Vec<Partition>),
}

impl Partition {
    /// An even `k`-way split of `0..n` (last part takes the remainder).
    pub fn even(n: u32, k: u32) -> Partition {
        assert!(k >= 1 && n >= k, "cannot split {n} qubits into {k} parts");
        let base = n / k;
        let mut parts = Vec::with_capacity(k as usize);
        let mut start = 0;
        for i in 0..k {
            let end = if i + 1 == k { n } else { start + base };
            parts.push(Partition::Leaf(start..end));
            start = end;
        }
        Partition::Node(parts)
    }

    /// The full range covered by this partition.
    pub fn range(&self) -> Range<u32> {
        match self {
            Partition::Leaf(r) => r.clone(),
            Partition::Node(children) => {
                let start = children
                    .first()
                    .expect("empty partition node")
                    .range()
                    .start;
                let end = children.last().unwrap().range().end;
                start..end
            }
        }
    }

    /// Validates that children tile the parent contiguously and ascending.
    pub fn validate(&self) -> Result<(), String> {
        if let Partition::Node(children) = self {
            if children.is_empty() {
                return Err("empty partition node".into());
            }
            let mut cursor = children[0].range().start;
            for c in children {
                let r = c.range();
                if r.start != cursor {
                    return Err(format!("gap or overlap at qubit {}", r.start));
                }
                if r.is_empty() {
                    return Err(format!("empty sub-range at {}", r.start));
                }
                cursor = r.end;
                c.validate()?;
            }
        }
        Ok(())
    }
}

/// `QFT-IE(range1, range2)`: all `CPHASE`s between two disjoint ranges, in
/// row-major order (Fig. 8). These gates mutually commute (§3.3), so any
/// reordering of this block is legal.
pub fn qft_ie(c: &mut Circuit, r1: Range<u32>, r2: Range<u32>) {
    for i in r1 {
        for j in r2.clone() {
            c.push(Gate::cphase(rotation_order(i, j), i, j));
        }
    }
}

/// `QFT-traditional(range)`: the textbook QFT restricted to one range.
pub fn qft_traditional(c: &mut Circuit, r: Range<u32>) {
    for i in r.clone() {
        c.push(Gate::h(i));
        for j in (i + 1)..r.end {
            c.push(Gate::cphase(rotation_order(i, j), i, j));
        }
    }
}

/// `QFT-IA(range, range_list)` (Fig. 8): the k-partition QFT. For each child
/// in order: run its intra-QFT, then its inter-QFT with every later child.
///
/// The produced circuit contains the same gate multiset as [`qft_circuit`]
/// but in the partition order; §3.2 proves this order is Type-II-valid.
pub fn qft_partitioned(p: &Partition) -> Circuit {
    p.validate().expect("invalid partition");
    let r = p.range();
    assert_eq!(r.start, 0, "partition must start at qubit 0");
    let mut c = Circuit::new(r.end as usize);
    emit_ia(&mut c, p);
    c
}

fn emit_ia(c: &mut Circuit, p: &Partition) {
    match p {
        Partition::Leaf(r) => qft_traditional(c, r.clone()),
        Partition::Node(children) => {
            for (idx, child) in children.iter().enumerate() {
                emit_ia(c, child);
                for later in &children[idx + 1..] {
                    qft_ie(c, child.range(), later.range());
                }
            }
        }
    }
}

/// Why a gate sequence fails to be a valid QFT realization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QftOrderError {
    /// A qubit has no H, or more than one.
    HadamardCount {
        /// The offending qubit.
        qubit: u32,
        /// How many H gates it received.
        count: usize,
    },
    /// A pair is missing its CPHASE or has duplicates.
    PairCount {
        /// The offending unordered pair (i < j).
        pair: (u32, u32),
        /// How many CPHASEs it received.
        count: usize,
    },
    /// The CPHASE rotation order is wrong for the pair.
    WrongAngle {
        /// The pair (i < j).
        pair: (u32, u32),
        /// The `k` found.
        found: u32,
        /// The `k` required (`j - i + 1`).
        expected: u32,
    },
    /// Type II violated: CPHASE(i,j) not strictly between H(i) and H(j).
    TypeII {
        /// The pair (i < j).
        pair: (u32, u32),
    },
    /// A gate kind that has no place in a logical QFT sequence.
    ForeignGate {
        /// Index in the sequence.
        position: usize,
    },
}

impl fmt::Display for QftOrderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QftOrderError::HadamardCount { qubit, count } => {
                write!(f, "q{qubit} has {count} H gates (expected 1)")
            }
            QftOrderError::PairCount {
                pair: (i, j),
                count,
            } => {
                write!(f, "pair (q{i}, q{j}) has {count} CPHASEs (expected 1)")
            }
            QftOrderError::WrongAngle {
                pair: (i, j),
                found,
                expected,
            } => {
                write!(
                    f,
                    "pair (q{i}, q{j}) uses R_{found} (expected R_{expected})"
                )
            }
            QftOrderError::TypeII { pair: (i, j) } => {
                write!(f, "CPHASE(q{i}, q{j}) violates H(q{i}) < CP < H(q{j})")
            }
            QftOrderError::ForeignGate { position } => {
                write!(f, "gate #{position} is not H/CPHASE")
            }
        }
    }
}

impl std::error::Error for QftOrderError {}

/// Checks that `gates` (H and CPHASE only, on `n` qubits) is a valid
/// realization of the QFT interaction pattern:
///
/// 1. exactly one `H` per qubit;
/// 2. exactly one `CPHASE` per unordered pair, with rotation order
///    `R_{j-i+1}`;
/// 3. Type II: for `i < j`, `H(i)` precedes `CPHASE(i,j)` which precedes
///    `H(j)`.
///
/// This is the semantic contract every compiled QFT must satisfy (it is
/// sufficient for unitary equivalence because all CPHASEs commute — see the
/// state-vector cross-check in `qft-sim`).
///
/// The first failing check is reported: a foreign gate at its position,
/// then the first qubit with a wrong `H` count, then the first pair in
/// `(i, j)` order with a wrong count, angle or Type II order. A `CPHASE`
/// naming one qubit twice belongs to no pair and is not counted.
///
/// # Panics
/// Panics if a gate names a qubit `>= n`.
pub fn check_qft_order<I>(gates: I, n: usize) -> Result<(), QftOrderError>
where
    I: IntoIterator<Item = Gate>,
{
    // How many gates hit one qubit (its H) or one pair (its CPHASE), where
    // the first sits, and the first CPHASE's order: one flat table per
    // qubit and one per pair `i < j`, row-major over the upper triangle.
    #[derive(Clone, Copy, Default)]
    struct Tally {
        count: usize,
        first: usize,
        k: u32,
    }
    impl Tally {
        fn record(&mut self, t: usize, k: u32) {
            if self.count == 0 {
                self.first = t;
                self.k = k;
            }
            self.count += 1;
        }
    }
    let pair_slot = |i: usize, j: usize| i * (2 * n - i - 1) / 2 + (j - i - 1);
    let mut hadamards = vec![Tally::default(); n];
    let mut pairs = vec![Tally::default(); n * n.saturating_sub(1) / 2];
    for (t, g) in gates.into_iter().enumerate() {
        match g.kind {
            GateKind::H => hadamards[g.a.index()].record(t, 0),
            GateKind::Cphase { k } => {
                let (a, b) = (g.a.index(), g.b.expect("2-qubit cphase").index());
                let (i, j) = if a < b { (a, b) } else { (b, a) };
                assert!(j < n, "CPHASE on q{j} in a {n}-qubit check");
                if i != j {
                    pairs[pair_slot(i, j)].record(t, k);
                }
            }
            _ => return Err(QftOrderError::ForeignGate { position: t }),
        }
    }
    for (q, h) in hadamards.iter().enumerate() {
        if h.count != 1 {
            return Err(QftOrderError::HadamardCount {
                qubit: q as u32,
                count: h.count,
            });
        }
    }
    let mut slot = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            let pair = (i as u32, j as u32);
            let p = pairs[slot];
            slot += 1;
            if p.count != 1 {
                return Err(QftOrderError::PairCount {
                    pair,
                    count: p.count,
                });
            }
            let expected = rotation_order(pair.0, pair.1);
            if p.k != expected {
                return Err(QftOrderError::WrongAngle {
                    pair,
                    found: p.k,
                    expected,
                });
            }
            if !(hadamards[i].first < p.first && p.first < hadamards[j].first) {
                return Err(QftOrderError::TypeII { pair });
            }
        }
    }
    Ok(())
}

/// Convenience: runs [`check_qft_order`] on a whole circuit.
pub fn check_qft_circuit(c: &Circuit) -> Result<(), QftOrderError> {
    check_qft_order(c.gates().iter().copied(), c.n_qubits())
}

/// Number of CPHASE gates in a QFT on `n` qubits: `n(n-1)/2`.
#[inline]
pub fn qft_pair_count(n: usize) -> usize {
    n * (n - 1) / 2
}

/// All unordered qubit pairs `(i, j)`, `i < j`, of an `n`-qubit register.
pub fn all_pairs(n: usize) -> impl Iterator<Item = (LogicalQubit, LogicalQubit)> {
    (0..n as u32)
        .flat_map(move |i| ((i + 1)..n as u32).map(move |j| (LogicalQubit(i), LogicalQubit(j))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_qft_gate_count() {
        let c = qft_circuit(5);
        assert_eq!(c.len(), 5 + qft_pair_count(5));
        assert!(check_qft_circuit(&c).is_ok());
    }

    #[test]
    fn aqft_truncates_high_order_rotations() {
        // Degree >= n keeps everything (the exact QFT).
        assert_eq!(aqft_circuit(5, 5).gates(), qft_circuit(5).gates());
        assert_eq!(aqft_circuit(5, 9).gates(), qft_circuit(5).gates());
        // Degree 1 keeps only the Hadamards.
        let h_only = aqft_circuit(5, 1);
        assert_eq!(h_only.len(), 5);
        assert!(h_only.gates().iter().all(|g| g.kind == GateKind::H));
        // Degree d keeps exactly the pairs with |i-j|+1 <= d.
        for n in [2usize, 4, 7] {
            for d in 1..=(n as u32 + 2) {
                let c = aqft_circuit(n, d);
                assert_eq!(c.len(), n + aqft_pair_count(n, d), "n={n} d={d}");
                assert!(c
                    .gates()
                    .iter()
                    .all(|g| g.kind.cphase_order().is_none_or(|k| k <= d)));
            }
        }
        assert_eq!(aqft_pair_count(8, 3), 13); // 7 + 6 pairs on n=8
    }

    #[test]
    #[should_panic(expected = "degree must be >= 1")]
    fn aqft_degree_zero_panics() {
        let _ = aqft_circuit(4, 0);
    }

    #[test]
    fn qft_rotation_orders() {
        let c = qft_circuit(4);
        // First CPHASE after H(0) is R_2 between q0,q1; the one with q3 is R_4.
        let g = c.gates()[1];
        assert_eq!(g.kind, GateKind::Cphase { k: 2 });
        let g = c.gates()[3];
        assert_eq!(g.kind, GateKind::Cphase { k: 4 });
    }

    #[test]
    fn two_partition_order_is_valid() {
        // Fig. 6: U1 = {q0,q1}, U2 = {q2,q3}: QFT(U1); IE(U1,U2); QFT(U2).
        let p = Partition::Node(vec![Partition::Leaf(0..2), Partition::Leaf(2..4)]);
        let c = qft_partitioned(&p);
        assert_eq!(c.len(), 4 + qft_pair_count(4));
        assert!(check_qft_circuit(&c).is_ok(), "{:?}", check_qft_circuit(&c));
    }

    #[test]
    fn k_partition_orders_are_valid_for_many_shapes() {
        for n in [6u32, 9, 12, 17] {
            for k in [2u32, 3, 4] {
                let p = Partition::even(n, k);
                let c = qft_partitioned(&p);
                assert!(check_qft_circuit(&c).is_ok(), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn nested_partition_is_valid() {
        // Recursive: {0..3, {3..5, 5..8}}.
        let p = Partition::Node(vec![
            Partition::Leaf(0..3),
            Partition::Node(vec![Partition::Leaf(3..5), Partition::Leaf(5..8)]),
        ]);
        let c = qft_partitioned(&p);
        assert!(check_qft_circuit(&c).is_ok());
        assert_eq!(c.len(), 8 + qft_pair_count(8));
    }

    #[test]
    fn checker_rejects_broken_type_ii() {
        let mut c = Circuit::new(2);
        c.push(Gate::cphase(2, 0, 1)); // before H(0): invalid
        c.push(Gate::h(0));
        c.push(Gate::h(1));
        assert_eq!(
            check_qft_circuit(&c),
            Err(QftOrderError::TypeII { pair: (0, 1) })
        );
    }

    fn check(n: usize, gates: &[Gate]) -> Result<(), QftOrderError> {
        check_qft_order(gates.iter().copied(), n)
    }

    #[test]
    fn checker_pins_hadamard_counts() {
        assert_eq!(
            check(2, &[Gate::h(0), Gate::cphase(2, 0, 1)]),
            Err(QftOrderError::HadamardCount { qubit: 1, count: 0 })
        );
        // Hadamard counts are checked for every qubit before any pair.
        assert_eq!(
            check(2, &[Gate::h(0), Gate::h(0), Gate::h(1)]),
            Err(QftOrderError::HadamardCount { qubit: 0, count: 2 })
        );
    }

    #[test]
    fn checker_pins_pair_counts() {
        // (0,1) is complete and in Type II order; (0,2) never interacts.
        let missing = [Gate::h(0), Gate::cphase(2, 0, 1), Gate::h(1), Gate::h(2)];
        assert_eq!(
            check(3, &missing),
            Err(QftOrderError::PairCount {
                pair: (0, 2),
                count: 0
            })
        );
        // Both operand orders count towards the same unordered pair.
        let doubled = [
            Gate::h(0),
            Gate::cphase(2, 0, 1),
            Gate::cphase(2, 1, 0),
            Gate::h(1),
        ];
        assert_eq!(
            check(2, &doubled),
            Err(QftOrderError::PairCount {
                pair: (0, 1),
                count: 2
            })
        );
    }

    #[test]
    fn checker_rejects_missing_pair() {
        let mut c = Circuit::new(3);
        for q in 0..3 {
            c.push(Gate::h(q));
        }
        c.push(Gate::cphase(2, 0, 1));
        // Pairs are checked in (i, j) order, each for count, angle and
        // Type II in turn: (0,1) fails Type II before the scan reaches
        // the missing (0,2).
        assert_eq!(
            check_qft_circuit(&c),
            Err(QftOrderError::TypeII { pair: (0, 1) })
        );
    }

    #[test]
    fn checker_pins_foreign_gates_and_late_cphases() {
        // A foreign gate is refused at its position, before any count.
        let swapped = [Gate::h(0), Gate::swap(0, 1), Gate::cphase(2, 0, 1)];
        assert_eq!(
            check(2, &swapped),
            Err(QftOrderError::ForeignGate { position: 1 })
        );
        let trailing = [
            Gate::h(0),
            Gate::cphase(2, 0, 1),
            Gate::h(1),
            Gate::cnot(0, 1),
        ];
        assert_eq!(
            check(2, &trailing),
            Err(QftOrderError::ForeignGate { position: 3 })
        );
        // CPHASE(i, j) after H(j) breaks Type II as surely as one before H(i).
        let late = [
            Gate::h(0),
            Gate::cphase(2, 0, 1),
            Gate::h(1),
            Gate::h(2),
            Gate::cphase(2, 1, 2),
            Gate::cphase(3, 0, 2),
        ];
        assert_eq!(check(3, &late), Err(QftOrderError::TypeII { pair: (0, 2) }));
    }

    #[test]
    fn checker_rejects_wrong_angle() {
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        c.push(Gate::cphase(7, 0, 1));
        c.push(Gate::h(1));
        assert_eq!(
            check_qft_circuit(&c),
            Err(QftOrderError::WrongAngle {
                pair: (0, 1),
                found: 7,
                expected: 2
            })
        );
    }

    #[test]
    fn partition_validate_catches_gaps() {
        let p = Partition::Node(vec![Partition::Leaf(0..2), Partition::Leaf(3..4)]);
        assert!(p.validate().is_err());
    }

    #[test]
    fn relaxed_ie_block_commutes() {
        // Any permutation of a QFT-IE block is still valid: check one.
        let mut c = Circuit::new(4);
        qft_traditional(&mut c, 0..2);
        // IE in *reversed* row-major order.
        let mut block = Circuit::new(4);
        qft_ie(&mut block, 0..2, 2..4);
        for g in block.gates().iter().rev() {
            c.push(*g);
        }
        qft_traditional(&mut c, 2..4);
        assert!(check_qft_circuit(&c).is_ok());
    }
}
