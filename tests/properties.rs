//! Property-based tests (proptest) over the core invariants: every kernel
//! verifies as a QFT or AQFT, any contiguous partition is a valid gate
//! order (§3.2), layouts stay consistent under SWAP replay, DAG frontiers
//! drain, and AQFT truncation is monotone and idempotent. Plus a
//! differential test of the in-cache QFT-order check against the
//! tally-table check it replaced.

mod common;

use proptest::prelude::*;
use qft_kernels::arch::heavyhex::HeavyHex;
use qft_kernels::arch::lattice::LatticeSurgery;
use qft_kernels::baselines::sabre::{sabre_qft, SabreConfig};
use qft_kernels::core::{compile_heavyhex, compile_lattice, IeMode};
use qft_kernels::ir::dag::{CircuitDag, DagMode};
use qft_kernels::ir::gate::PhysicalQubit;
use qft_kernels::ir::gate::{Gate, GateKind, LogicalQubit};
use qft_kernels::ir::layout::Layout;
use qft_kernels::ir::passes::{AqftTruncate, Pass, PassCtx};
use qft_kernels::ir::qft::{check_qft_circuit, qft_partitioned, Partition};
use qft_kernels::ir::qft::{check_qft_order, rotation_order, QftOrderError};
use qft_kernels::sim::symbolic::verify_qft_mapping;
use qft_kernels::{registry, CompileOptions, Target};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any dangler pattern yields a verifying heavy-hex kernel.
    #[test]
    fn heavyhex_any_dangler_pattern_verifies(
        n_main in 4usize..24,
        mask in 0u32..(1 << 12),
    ) {
        let positions: Vec<usize> =
            (0..n_main.min(12)).filter(|&p| mask & (1 << p) != 0).collect();
        let hh = HeavyHex::with_danglers(n_main, &positions);
        let mc = compile_heavyhex(&hh);
        verify_qft_mapping(&mc, hh.graph()).unwrap();
        // General bound from Appendix 3: two-qubit depth <= 6N + O(1).
        prop_assert!(mc.two_qubit_depth() <= 6 * hh.n_qubits() as u64 + 30);
    }

    /// Any contiguous partition of the QFT is a valid gate order (§3.2).
    #[test]
    fn any_partition_produces_valid_qft_order(
        n in 2u32..24,
        cuts in proptest::collection::vec(1u32..23, 0..4),
    ) {
        let mut points: Vec<u32> = cuts.into_iter().filter(|&c| c < n).collect();
        points.sort_unstable();
        points.dedup();
        let mut parts = Vec::new();
        let mut start = 0;
        for &c in &points {
            parts.push(Partition::Leaf(start..c));
            start = c;
        }
        parts.push(Partition::Leaf(start..n));
        let p = Partition::Node(parts);
        let c = qft_partitioned(&p);
        prop_assert!(check_qft_circuit(&c).is_ok());
        // The partition order is also consistent with the relaxed DAG of
        // the textbook circuit: same gate multiset, Type II respected.
        prop_assert_eq!(c.len(), n as usize + (n as usize * (n as usize - 1)) / 2);
    }

    /// SABRE verifies for every seed on a random small heavy-hex device.
    #[test]
    fn sabre_any_seed_verifies(seed in 0u64..1000, g in 1usize..4) {
        let hh = HeavyHex::groups(g);
        let cfg = SabreConfig { seed, random_initial: true, ..Default::default() };
        let mc = sabre_qft(hh.n_qubits(), hh.graph(), DagMode::Strict, &cfg);
        verify_qft_mapping(&mc, hh.graph()).unwrap();
    }

    /// Layout SWAP replay: any swap sequence keeps the bimap consistent and
    /// double application is the identity.
    #[test]
    fn layout_swaps_stay_consistent(
        n in 2usize..12,
        swaps in proptest::collection::vec((0usize..12, 0usize..12), 0..24),
    ) {
        let mut lay = Layout::identity(n, n);
        let orig = lay.clone();
        let valid: Vec<(usize, usize)> = swaps
            .into_iter()
            .filter(|&(a, b)| a < n && b < n && a != b)
            .collect();
        for &(a, b) in &valid {
            lay.swap_phys(PhysicalQubit(a as u32), PhysicalQubit(b as u32));
            prop_assert!(lay.is_consistent());
        }
        for &(a, b) in valid.iter().rev() {
            lay.swap_phys(PhysicalQubit(a as u32), PhysicalQubit(b as u32));
        }
        prop_assert_eq!(lay, orig);
    }

    /// Both IE modes verify on lattice surgery for any m.
    #[test]
    fn lattice_both_ie_modes_verify(m in 2usize..8) {
        for mode in [IeMode::Relaxed, IeMode::Strict] {
            let l = LatticeSurgery::new(m);
            let mc = compile_lattice(&l, mode);
            verify_qft_mapping(&mc, l.graph()).unwrap();
        }
    }

    /// SABRE produces a verifying kernel on *arbitrary* connected coupling
    /// graphs (random spanning tree + extra edges) — differential coverage
    /// beyond the paper's three topologies.
    #[test]
    fn sabre_verifies_on_random_connected_graphs(
        n in 3usize..10,
        extra_edges in proptest::collection::vec((0usize..10, 0usize..10), 0..8),
        tree_seed in 0u64..1000,
        sabre_seed in 0u64..100,
    ) {
        use qft_kernels::arch::graph::CouplingGraph;
        use qft_kernels::ir::latency::LinkClass;
        // Random spanning tree: attach node i to a pseudo-random earlier node.
        let mut edges: Vec<(u32, u32, LinkClass)> = Vec::new();
        let mut x = tree_seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
        for i in 1..n as u32 {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let parent = (x % u64::from(i)) as u32;
            edges.push((parent, i, LinkClass::Uniform));
        }
        for (a, b) in extra_edges {
            let (a, b) = ((a % n) as u32, (b % n) as u32);
            if a != b && !edges.iter().any(|&(x, y, _)| (x, y) == (a.min(b), a.max(b))) {
                edges.push((a.min(b), a.max(b), LinkClass::Uniform));
            }
        }
        let g = CouplingGraph::new("random", n, &edges);
        prop_assume!(g.is_connected());
        let cfg = SabreConfig { seed: sabre_seed, random_initial: true, ..Default::default() };
        let mc = sabre_qft(n, &g, DagMode::Strict, &cfg);
        verify_qft_mapping(&mc, &g).unwrap();
    }

    /// Truncation monotonicity: walking the AQFT degree *down* never
    /// increases the op count or the two-qubit depth of a compiled kernel
    /// (each analytical mapper, on its own family).
    #[test]
    fn aqft_truncation_is_monotone_in_degree(
        which in 0usize..4,
        param in 0usize..5,
    ) {
        let (compiler, target) = match which {
            0 => ("lnn", Target::lnn(4 + param * 3).unwrap()),
            1 => ("sycamore", Target::sycamore(2 + 2 * (param % 2)).unwrap()),
            2 => ("heavyhex", Target::heavy_hex_groups(1 + param).unwrap()),
            _ => ("lattice", Target::lattice_surgery(2 + param % 3).unwrap()),
        };
        let n = target.n_qubits() as u32;
        let mut prev: Option<qft_kernels::ir::Metrics> = None;
        // Ascending degrees, so each step compares d against d-1.
        for d in 1..=n {
            let r = registry()
                .compile(compiler, &target, &CompileOptions::default().with_approximation(d))
                .unwrap();
            if let Some(lower) = &prev {
                prop_assert!(
                    lower.total_ops <= r.metrics.total_ops,
                    "{compiler} n={n}: ops grew when truncating {d} -> {}", d - 1
                );
                prop_assert!(
                    lower.two_qubit_depth <= r.metrics.two_qubit_depth,
                    "{compiler} n={n}: 2q depth grew when truncating {d} -> {}", d - 1
                );
            }
            prev = Some(r.metrics);
        }
        // The exact QFT (no approximation) caps the whole chain.
        let full = registry()
            .compile(compiler, &target, &CompileOptions::default())
            .unwrap();
        let last = prev.unwrap();
        prop_assert!(last.total_ops <= full.metrics.total_ops);
        prop_assert!(last.two_qubit_depth <= full.metrics.two_qubit_depth);
    }

    /// Truncating twice at the same degree is the same as truncating once,
    /// on every compiler's raw construct-stage output.
    #[test]
    fn aqft_truncation_is_idempotent(
        n in 4usize..12,
        degree in 1u32..12,
    ) {
        for compiler in ["lnn", "sabre", "lnn-path"] {
            let target = Target::lnn(n).unwrap();
            let raw = registry()
                .compile(compiler, &target, &CompileOptions::default().with_opt_level(0))
                .unwrap()
                .circuit;
            let truncate = AqftTruncate { degree };
            let mut once = raw.clone();
            let first = truncate.run(&mut once, &PassCtx::new()).unwrap();
            let mut twice = once.clone();
            let second = truncate.run(&mut twice, &PassCtx::new()).unwrap();
            prop_assert_eq!(second.dropped_rotations, 0);
            prop_assert_eq!(once.ops(), twice.ops());
            prop_assert_eq!(once.final_layout(), twice.final_layout());
            prop_assert_eq!(first.dropped_rotations, raw.cphase_count() - once.cphase_count());
        }
    }

    /// Every truncated compile stays equivalent to the logical reference —
    /// the harness property, fuzzed over degree and size.
    #[test]
    fn truncated_compiles_match_the_reference(n in 4usize..9, degree in 1u32..10) {
        for compiler in ["lnn", "sabre"] {
            let target = Target::lnn(n).unwrap();
            let r = registry()
                .compile(compiler, &target, &CompileOptions::default().with_approximation(degree))
                .unwrap();
            common::assert_matches_logical_qft(&r, Some(degree), compiler);
        }
    }

    /// Strict and relaxed DAG frontiers both drain completely on any QFT.
    #[test]
    fn dag_frontiers_drain(n in 1usize..16) {
        for mode in [DagMode::Strict, DagMode::Relaxed] {
            let c = qft_kernels::ir::qft::qft_circuit(n);
            let dag = CircuitDag::build(&c, mode);
            let mut f = dag.frontier();
            let mut executed = 0;
            while !f.is_done() {
                let node = f.front()[0];
                f.execute(&dag, node);
                executed += 1;
            }
            prop_assert_eq!(executed, dag.len());
        }
    }
}

/// The tally-table QFT-order check that the in-cache check replaced: one
/// count, first position and first rotation order per qubit and per pair,
/// judged after the whole stream in the canonical order. Extended by the
/// degree rule: a pair with `j - i >= degree` needs zero CPHASEs and is
/// judged on nothing else.
fn reference_order_check(gates: &[Gate], n: usize, degree: u32) -> Result<(), QftOrderError> {
    #[derive(Clone, Copy, Default)]
    struct Tally {
        count: usize,
        first: usize,
        k: u32,
    }
    let mut hadamards = vec![Tally::default(); n];
    let mut pairs = vec![vec![Tally::default(); n]; n];
    for (t, g) in gates.iter().enumerate() {
        let (slot, k) = match g.kind {
            GateKind::H => (&mut hadamards[g.a.index()], 0),
            GateKind::Cphase { k } => {
                let (a, b) = (g.a.index(), g.b.unwrap().index());
                if a == b {
                    continue;
                }
                (&mut pairs[a.min(b)][a.max(b)], k)
            }
            _ => return Err(QftOrderError::ForeignGate { position: t }),
        };
        if slot.count == 0 {
            (slot.first, slot.k) = (t, k);
        }
        slot.count += 1;
    }
    if let Some(q) = (0..n).find(|&q| hadamards[q].count != 1) {
        return Err(QftOrderError::HadamardCount {
            qubit: q as u32,
            count: hadamards[q].count,
        });
    }
    for i in 0..n {
        for j in (i + 1)..n {
            let (pair, p) = ((i as u32, j as u32), pairs[i][j]);
            let expected = usize::from(j - i < degree as usize);
            if p.count != expected {
                return Err(QftOrderError::PairCount {
                    pair,
                    count: p.count,
                    expected,
                });
            }
            if expected == 0 {
                continue;
            }
            if p.k != rotation_order(pair.0, pair.1) {
                return Err(QftOrderError::WrongAngle {
                    pair,
                    found: p.k,
                    expected: rotation_order(pair.0, pair.1),
                });
            }
            if !(hadamards[i].first < p.first && p.first < hadamards[j].first) {
                return Err(QftOrderError::TypeII { pair });
            }
        }
    }
    Ok(())
}

/// One random edit of a gate stream: each kind of edit tends to produce
/// one kind of order error, and some produce none.
fn mutate(rng: &mut StdRng, gates: &mut Vec<Gate>, n: usize) {
    let len = gates.len();
    let at = |rng: &mut StdRng, len: usize| rng.gen_range(0..len.max(1));
    let q = |rng: &mut StdRng| LogicalQubit(rng.gen_range(0..n as u32));
    match rng.gen_range(0u32..8) {
        0 if len > 0 => {
            gates.remove(at(rng, len));
        }
        1 if len > 0 => {
            let g = gates[at(rng, len)];
            gates.insert(at(rng, len + 1), g);
        }
        2 if len > 0 => {
            let i = at(rng, len);
            if let GateKind::Cphase { .. } = gates[i].kind {
                gates[i].kind = GateKind::Cphase {
                    k: rng.gen_range(1..n as u32 + 2),
                };
            }
        }
        3 if len > 0 => {
            let g = gates.remove(at(rng, len));
            gates.insert(at(rng, len), g);
        }
        4 if len > 1 => {
            let (i, j) = (at(rng, len), at(rng, len));
            gates.swap(i, j);
        }
        5 => {
            let foreign = match rng.gen_range(0u32..2) {
                0 => Gate::one(GateKind::X, q(rng)),
                _ => Gate {
                    kind: GateKind::Swap,
                    a: q(rng),
                    b: Some(q(rng)),
                },
            };
            gates.insert(at(rng, len + 1), foreign);
        }
        6 if len > 0 => {
            let i = at(rng, len);
            if gates[i].b.is_some() {
                gates[i].b = Some(gates[i].a);
            }
        }
        _ => {
            let (a, b) = (q(rng), q(rng));
            let k = rng.gen_range(1..n as u32 + 1);
            gates.insert(
                at(rng, len + 1),
                Gate {
                    kind: GateKind::Cphase { k },
                    a,
                    b: Some(b),
                },
            );
        }
    }
}

#[test]
fn the_in_cache_order_check_reports_the_reference_first_error() {
    let mut rng = StdRng::seed_from_u64(0x0dd5);
    let mut seen = std::collections::BTreeMap::new();
    for _ in 0..6_000 {
        let n = rng.gen_range(1usize..11);
        let degree = rng.gen_range(1u32..n as u32 + 2);
        // A valid order of the degree-`degree` AQFT: a random partition
        // order with the truncated pairs dropped.
        let parts = rng.gen_range(1u32..n as u32 + 1);
        let c = qft_partitioned(&Partition::even(n as u32, parts));
        let mut gates: Vec<Gate> = c
            .gates()
            .iter()
            .copied()
            .filter(|g| g.kind.cphase_order().is_none_or(|k| k <= degree))
            .collect();
        for _ in 0..rng.gen_range(0usize..3) {
            mutate(&mut rng, &mut gates, n);
        }
        let got = check_qft_order(gates.iter().copied(), n, degree);
        let want = reference_order_check(&gates, n, degree);
        assert_eq!(got, want, "n={n} degree={degree} gates={gates:?}");
        let variant = match &got {
            Ok(()) => "ok",
            Err(QftOrderError::HadamardCount { .. }) => "hadamard-count",
            Err(QftOrderError::PairCount { expected: 0, .. }) => "truncated-pair",
            Err(QftOrderError::PairCount { .. }) => "pair-count",
            Err(QftOrderError::WrongAngle { .. }) => "wrong-angle",
            Err(QftOrderError::TypeII { .. }) => "type-ii",
            Err(QftOrderError::ForeignGate { .. }) => "foreign-gate",
        };
        *seen.entry(variant).or_insert(0usize) += 1;
    }
    assert_eq!(seen.len(), 7, "every verdict must occur: {seen:?}");
}
