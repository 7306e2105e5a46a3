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

/// Why a gate sequence fails to be a valid QFT (or AQFT) realization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QftOrderError {
    /// A qubit has no H, or more than one.
    HadamardCount {
        /// The offending qubit.
        qubit: u32,
        /// How many H gates it received.
        count: usize,
    },
    /// A pair has the wrong number of CPHASEs: a kept pair needs exactly
    /// one, a pair the AQFT degree truncates needs none.
    PairCount {
        /// The offending unordered pair (i < j).
        pair: (u32, u32),
        /// How many CPHASEs it received.
        count: usize,
        /// How many it needs (1 if kept, 0 if truncated).
        expected: usize,
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
                expected,
            } => {
                write!(
                    f,
                    "pair (q{i}, q{j}) has {count} CPHASEs (expected {expected})"
                )
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
/// realization of the degree-`degree` AQFT interaction pattern
/// (`degree >= n` is the exact QFT):
///
/// 1. exactly one `H` per qubit;
/// 2. exactly one `CPHASE` per kept pair `(i, j)`, `j - i < degree`, with
///    rotation order `R_{j-i+1}`, and none on any other pair;
/// 3. Type II: for a kept pair `i < j`, `H(i)` precedes `CPHASE(i,j)`
///    which precedes `H(j)`.
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
/// Panics if a gate names a qubit `>= n`, or on `degree = 0`.
pub fn check_qft_order<I>(gates: I, n: usize, degree: u32) -> Result<(), QftOrderError>
where
    I: IntoIterator<Item = Gate>,
{
    let mut check = QftOrderCheck::new(n, degree);
    for (position, g) in gates.into_iter().enumerate() {
        match g.kind {
            GateKind::H | GateKind::Cphase { .. } => check.push(g),
            _ => return Err(QftOrderError::ForeignGate { position }),
        }
    }
    check.finish()
}

/// [`check_qft_order`] fed one gate at a time, so a caller that already
/// walks a stream checks the order in the same walk (the symbolic
/// verifier runs it inside its layout replay).
///
/// Its state stays in cache at paper scale: one H count per qubit, one bit
/// per kept pair, and the least pair in `(i, j)` order that is already
/// wrong. A pair is judged when its first CPHASE arrives: the angle, and
/// Type II as "H(i) has arrived, H(j) has not", which is exact once every
/// qubit turns out to have one H (otherwise the H count is reported
/// first). A wrong pair stays wrong, since its count only grows and its
/// first CPHASE's verdict never changes, so only the least one can be the
/// pair [`QftOrderCheck::finish`] reports, ahead of or behind the first
/// kept pair that never arrived.
#[derive(Debug, Clone)]
pub struct QftOrderCheck {
    /// The widest kept pair distance `j - i`.
    reach: usize,
    /// H gates per qubit.
    hadamards: Vec<usize>,
    /// One bit per kept pair `(i, j)`, at slot `i * reach + (j - i - 1)`:
    /// whether a CPHASE on it has arrived.
    arrived: Vec<u64>,
    /// Kept pairs whose bit is set.
    arrivals: usize,
    /// The least pair that is already wrong.
    least_wrong: Option<WrongPair>,
}

/// A pair [`QftOrderCheck`] has found wrong.
#[derive(Debug, Clone, Copy)]
struct WrongPair {
    pair: (u32, u32),
    /// CPHASEs on the pair so far.
    count: usize,
    /// CPHASEs the pair needs: 1 if kept, 0 if truncated.
    expected: usize,
    /// The first CPHASE's rotation order.
    k: u32,
}

impl QftOrderCheck {
    /// An empty check of the degree-`degree` AQFT on `n` qubits;
    /// `degree >= n` is the exact QFT.
    ///
    /// # Panics
    /// Panics on `degree = 0`, like [`aqft_circuit`].
    pub fn new(n: usize, degree: u32) -> Self {
        assert!(degree >= 1, "AQFT degree must be >= 1, got 0");
        let reach = (degree as usize).min(n).saturating_sub(1);
        QftOrderCheck {
            reach,
            hadamards: vec![0; n],
            arrived: vec![0; (n * reach).div_ceil(64)],
            arrivals: 0,
            least_wrong: None,
        }
    }

    /// Feeds the next gate of the stream.
    ///
    /// # Panics
    /// Panics if the gate is not H or CPHASE ([`check_qft_order`] reports
    /// those as [`QftOrderError::ForeignGate`]), or names a qubit `>= n`.
    pub fn push(&mut self, g: Gate) {
        let n = self.hadamards.len();
        let k = match g.kind {
            GateKind::H => {
                self.hadamards[g.a.index()] += 1;
                return;
            }
            GateKind::Cphase { k } => k,
            other => panic!("{other} has no place in a QFT order check"),
        };
        let (a, b) = (g.a.index(), g.b.expect("2-qubit cphase").index());
        let (i, j) = if a < b { (a, b) } else { (b, a) };
        assert!(j < n, "CPHASE on q{j} in a {n}-qubit check");
        if i == j {
            return;
        }
        let pair = (i as u32, j as u32);
        let dist = j - i;
        if dist > self.reach {
            return self.wrong(pair, 1, 0, k);
        }
        let slot = i * self.reach + dist - 1;
        let (word, bit) = (&mut self.arrived[slot / 64], 1u64 << (slot % 64));
        if *word & bit != 0 {
            // A repeat: the pair's first CPHASE was right, or the pair is
            // already the least wrong one and only its count moves.
            return self.wrong(pair, 2, 1, k);
        }
        *word |= bit;
        self.arrivals += 1;
        let in_order = self.hadamards[i] > 0 && self.hadamards[j] == 0;
        if k != dist as u32 + 1 || !in_order {
            self.wrong(pair, 1, 1, k);
        }
    }

    /// Records that `pair` is wrong, as its `count`-th CPHASE when the
    /// pair is not the least wrong one yet.
    fn wrong(&mut self, pair: (u32, u32), count: usize, expected: usize, k: u32) {
        match &mut self.least_wrong {
            Some(least) if least.pair == pair => least.count += 1,
            Some(least) if least.pair < pair => {}
            _ => {
                self.least_wrong = Some(WrongPair {
                    pair,
                    count,
                    expected,
                    k,
                })
            }
        }
    }

    /// The verdict on the whole stream, in [`check_qft_order`]'s order.
    pub fn finish(self) -> Result<(), QftOrderError> {
        if let Some((q, &count)) = self.hadamards.iter().enumerate().find(|(_, &c)| c != 1) {
            return Err(QftOrderError::HadamardCount {
                qubit: q as u32,
                count,
            });
        }
        let missing = |pair| {
            Err(QftOrderError::PairCount {
                pair,
                count: 0,
                expected: 1,
            })
        };
        let wrong = match (self.first_missing(), self.least_wrong) {
            (None, None) => return Ok(()),
            (Some(pair), None) => return missing(pair),
            (Some(pair), Some(wrong)) if pair < wrong.pair => return missing(pair),
            (_, Some(wrong)) => wrong,
        };
        // A pair with its one CPHASE at the right angle was recorded for
        // its Type II order.
        let WrongPair {
            pair,
            count,
            expected,
            k,
        } = wrong;
        let order = rotation_order(pair.0, pair.1);
        Err(if count != expected {
            QftOrderError::PairCount {
                pair,
                count,
                expected,
            }
        } else if k != order {
            QftOrderError::WrongAngle {
                pair,
                found: k,
                expected: order,
            }
        } else {
            QftOrderError::TypeII { pair }
        })
    }

    /// The first kept pair in `(i, j)` order no CPHASE arrived on.
    fn first_missing(&self) -> Option<(u32, u32)> {
        let n = self.hadamards.len();
        if self.arrivals == aqft_pair_count(n, self.reach as u32 + 1) {
            return None;
        }
        (0..n)
            .flat_map(|i| (1..=self.reach.min(n - 1 - i)).map(move |dist| (i, dist)))
            .find(|&(i, dist)| {
                let slot = i * self.reach + dist - 1;
                self.arrived[slot / 64] & (1u64 << (slot % 64)) == 0
            })
            .map(|(i, dist)| (i as u32, (i + dist) as u32))
    }
}

/// Convenience: runs [`check_qft_order`] for the exact QFT on a whole
/// circuit.
pub fn check_qft_circuit(c: &Circuit) -> Result<(), QftOrderError> {
    check_qft_order(c.gates().iter().copied(), c.n_qubits(), u32::MAX)
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
        check_qft_order(gates.iter().copied(), n, u32::MAX)
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
                count: 0,
                expected: 1
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
                count: 2,
                expected: 1
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
    fn checker_takes_the_aqft_degree() {
        for n in [1usize, 2, 5, 9] {
            for d in 1..=(n as u32 + 1) {
                let c = aqft_circuit(n, d);
                let gates = || c.gates().iter().copied();
                assert_eq!(check_qft_order(gates(), n, d), Ok(()), "n={n} d={d}");
                if (d as usize) < n {
                    // The exact check misses the first truncated pair.
                    assert_eq!(
                        check_qft_order(gates(), n, u32::MAX),
                        Err(QftOrderError::PairCount {
                            pair: (0, d),
                            count: 0,
                            expected: 1
                        }),
                        "n={n} d={d}"
                    );
                }
            }
        }
        // A truncated pair may not appear at all, in any order.
        let late = [
            Gate::h(0),
            Gate::cphase(2, 0, 1),
            Gate::h(1),
            Gate::cphase(2, 1, 2),
            Gate::h(2),
            Gate::cphase(3, 2, 0),
        ];
        assert_eq!(
            check_qft_order(late.iter().copied(), 3, 2),
            Err(QftOrderError::PairCount {
                pair: (0, 2),
                count: 1,
                expected: 0
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
