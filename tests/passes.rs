//! Pass-pipeline invariants: byte-identity of the default tail with the
//! pre-pass-pipeline compilers, semantics preservation of every shared
//! pass (property-tested against the symbolic verifier and the
//! state-vector simulator), the serde contract of the per-pass report,
//! and differential tests of the one-walk rewrites (`asap-layering`,
//! `Metrics::of`) against the walks they replaced.

use proptest::prelude::*;
use qft_kernels::ir::circuit::{MappedCircuit, PhysOp};
use qft_kernels::ir::dag::DagMode;
use qft_kernels::ir::gate::GateKind;
use qft_kernels::ir::passes::{
    AsapLayering, CancelAdjacentSwaps, Pass, PassCtx, PassError, PassManager, PassReport,
};
use qft_kernels::ir::{Layout, MappedCircuitBuilder, Metrics, PhysicalQubit};
use qft_kernels::sim::equiv::mapped_equals_qft;
use qft_kernels::sim::symbolic::verify_qft_mapping;
use qft_kernels::{registry, CompileError, CompileOptions, CompileResult, Target};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A stable digest of everything observable about a mapped circuit: both
/// layouts and the full op stream (kinds, operands, annotations). Each op
/// is written in the `Debug` text of the `PhysOp` that stored its logical
/// annotations, with the annotations the SWAP replay derives, so digests
/// taken before annotations were derived still apply.
fn digest(mc: &MappedCircuit) -> u64 {
    use std::fmt::Write;
    let mut s = String::new();
    write!(s, "{:?}|{:?}|", mc.initial_layout(), mc.final_layout()).unwrap();
    for op in mc.replay() {
        write!(
            s,
            "PhysOp {{ kind: {:?}, p1: {:?}, p2: {:?}, l1: {:?}, l2: {:?} }};",
            op.kind, op.p1, op.p2, op.l1, op.l2
        )
        .unwrap();
    }
    fnv(s.as_bytes())
}

/// Digests of every compiler's output on the quickstart/table1 cases,
/// captured from the pre-pass-pipeline compilers (commit 48b5a1d, before
/// the construct/optimize split). `opt_level = 1` must reproduce these
/// byte-for-byte.
const PRE_REFACTOR_DIGESTS: &[(&str, &str, u64)] = &[
    ("lnn", "lnn:16", 0x3080a5b95b6f3707),
    ("sycamore", "sycamore:4", 0xd63099956efa89d9),
    ("heavyhex", "heavyhex:4", 0xe19fb76a29a32b18),
    ("lattice", "lattice:6", 0x9d7c36683ccc9da4),
    ("sycamore", "sycamore:2", 0xae5d610590a90ecd),
    ("sycamore", "sycamore:6", 0x472bc53928151350),
    ("heavyhex", "heavyhex:2", 0x693f77b11d24bec5),
    ("heavyhex", "heavyhex:6", 0x9739d01a917e8e81),
    ("lattice", "lattice:10", 0x357e2133c48b7bcf),
    ("sabre", "sycamore:2", 0x0883e621ae056580),
    ("sabre", "sycamore:4", 0x85d57ed7db6d9a6a),
    ("sabre", "heavyhex:2", 0x75384e5d049f574a),
    ("sabre", "heavyhex:4", 0x8eb0c019bf4d7c4b),
    ("sabre", "lattice:6", 0xca45de1afa892850),
    ("sabre", "lnn:16", 0x87a8743ca0ce70f7),
    ("lnn-path", "lnn:16", 0x3080a5b95b6f3707),
    ("lnn-path", "lattice:6", 0xd8db0ca520187d20),
    ("optimal", "lnn:4", 0xcd41cb61f43c873a),
    ("optimal", "sycamore:2", 0xe2e9596bd46360c2),
];

#[test]
fn opt_level_1_is_byte_identical_to_the_pre_refactor_compilers() {
    for &(compiler, spec, expected) in PRE_REFACTOR_DIGESTS {
        let t = Target::parse(spec).unwrap();
        let r = registry()
            .compile(compiler, &t, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{compiler} on {spec}: {e}"));
        assert_eq!(
            digest(&r.circuit),
            expected,
            "{compiler} on {spec}: opt_level=1 output diverged from the pre-refactor compiler"
        );
        assert!(
            !r.passes.is_empty(),
            "{compiler} on {spec}: per-pass report must be non-empty"
        );
    }
}

/// Digests of the constructs the registry defaults above do not reach —
/// the strict lattice IE, both 2×N blocks, irregular heavy-hex dangler
/// patterns and a descending line — plus three larger registry cells,
/// captured at commit ca67b24, before the line schedule streamed and the
/// Sycamore and lattice unit loops became one driver.
#[rustfmt::skip]
const CONSTRUCT_DIGESTS: &[(&str, u64)] = &[
    ("lattice-strict:3", 0x69083ba262228bc8),
    ("lattice-strict:4", 0x2d772f1126dd9795),
    ("lattice-strict:5", 0x7fe3e8635748d807),
    ("lattice-strict:6", 0xd281c73bc93f5b48),
    ("lattice-strict:7", 0x3fc8facd45f65a2a),
    ("lattice-strict:8", 0x989bf2a186c031ee),
    ("two-row:2", 0x97ac2fafd9ba9a49),
    ("two-row-interleaved:2", 0xf71dd009c4101349),
    ("two-row:3", 0x8090a56713208fb0),
    ("two-row-interleaved:3", 0x671a88889641d2f1),
    ("two-row:4", 0x7c352c77b418c2e1),
    ("two-row-interleaved:4", 0x8d34f8ca4d2d3fed),
    ("two-row:5", 0x1a32444bf82d1b73),
    ("two-row-interleaved:5", 0x2793e6d6f8342774),
    ("two-row:6", 0x2255d6f58be2ef45),
    ("two-row-interleaved:6", 0x35b84291d278bc11),
    ("two-row:7", 0x760e7706362cc839),
    ("two-row-interleaved:7", 0x6ab26547525b1602),
    ("two-row:8", 0x51d279a602b5804f),
    ("two-row-interleaved:8", 0xe766bb876fcdfca5),
    ("heavyhex:6[0]", 0x8ce79aa1afa65a54),
    ("heavyhex:6[5]", 0xc34eef19a18c7818),
    ("heavyhex:8[2, 3]", 0xc29094fbf6d4b7ea),
    ("heavyhex:10[0, 4, 9]", 0xdb1149d237e4ab0e),
    ("heavyhex:12[1, 2, 3, 4]", 0xbf0a2ba3814195ff),
    ("heavyhex:9[]", 0x210d83a7de521df0),
    ("line-descending:7", 0x2a0fe7eb805d6fce),
    ("line-descending:12", 0x77520a39d713c91f),
    ("sycamore@sycamore:8", 0xb35cea27216d5586),
    ("lattice@lattice:12", 0xfb5f06c9d28da20f),
    ("lnn@lnn:64", 0x14aba519c5ce241c),
];

/// The circuits [`CONSTRUCT_DIGESTS`] pins, labelled in table order.
fn construct_cells() -> Vec<(String, MappedCircuit)> {
    use qft_kernels::arch::heavyhex::HeavyHex;
    use qft_kernels::arch::lattice::LatticeSurgery;
    use qft_kernels::core::{
        compile_heavyhex, compile_lattice, compile_two_row, compile_two_row_interleaved,
        run_line_qft, IeMode, PathOrder,
    };
    use qft_kernels::ir::Layout;

    let mut cells = Vec::new();
    for m in 3..=8 {
        let mc = compile_lattice(&LatticeSurgery::new(m), IeMode::Strict);
        cells.push((format!("lattice-strict:{m}"), mc));
    }
    for cols in 2..=8 {
        cells.push((format!("two-row:{cols}"), compile_two_row(cols)));
        let mc = compile_two_row_interleaved(cols);
        cells.push((format!("two-row-interleaved:{cols}"), mc));
    }
    let danglers: [(usize, &[usize]); 6] = [
        (6, &[0]),
        (6, &[5]),
        (8, &[2, 3]),
        (10, &[0, 4, 9]),
        (12, &[1, 2, 3, 4]),
        (9, &[]),
    ];
    for (n_main, ds) in danglers {
        let mc = compile_heavyhex(&HeavyHex::with_danglers(n_main, ds));
        cells.push((format!("heavyhex:{n_main}{ds:?}"), mc));
    }
    for n in [7u32, 12] {
        let phys_of = (0..n).map(|l| PhysicalQubit(n - 1 - l)).collect();
        let mut b = MappedCircuitBuilder::new(Layout::from_assignment(phys_of, n as usize));
        let path: Vec<PhysicalQubit> = (0..n).map(PhysicalQubit).collect();
        run_line_qft(&mut b, &path, 0, PathOrder::Descending);
        cells.push((format!("line-descending:{n}"), b.finish()));
    }
    for (compiler, spec) in [
        ("sycamore", "sycamore:8"),
        ("lattice", "lattice:12"),
        ("lnn", "lnn:64"),
    ] {
        let t = Target::parse(spec).unwrap();
        let r = registry()
            .compile(compiler, &t, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{compiler} on {spec}: {e}"));
        cells.push((format!("{compiler}@{spec}"), r.circuit));
    }
    cells
}

#[test]
fn constructs_are_byte_identical_to_the_materialized_schedule() {
    let cells = construct_cells();
    let labels: Vec<&str> = cells.iter().map(|(label, _)| label.as_str()).collect();
    let pinned: Vec<&str> = CONSTRUCT_DIGESTS.iter().map(|&(label, _)| label).collect();
    assert_eq!(labels, pinned, "construct table out of step with its cells");
    let diverged: Vec<String> = cells
        .iter()
        .zip(CONSTRUCT_DIGESTS)
        .filter_map(|((label, mc), &(_, expected))| {
            let got = digest(mc);
            (got != expected).then(|| format!("{label}: {got:#018x}"))
        })
        .collect();
    assert!(
        diverged.is_empty(),
        "constructs diverged on {} of {} cells:\n{}",
        diverged.len(),
        CONSTRUCT_DIGESTS.len(),
        diverged.join("\n")
    );
}

/// One SABRE cell: target, DAG mode, random initial layout seed (`None`
/// is the identity layout), AQFT degree (`None` is the exact QFT),
/// opt_level, and the digest of the routed circuit.
type SabreCell = (&'static str, DagMode, Option<u64>, Option<u32>, u8, u64);

/// SABRE's output across the options that steer its router, captured
/// from commit c71a218, whose router rescored every candidate SWAP over
/// the whole front and lookahead window. Scoring by distance deltas must
/// reproduce every circuit byte-for-byte (same scores, same tie order,
/// same RNG draws). `lattice:9` Relaxed exact is the smallest registry
/// cell found that fires the stall release valve.
#[rustfmt::skip]
const SABRE_DIGESTS: &[SabreCell] = &[
    ("lattice:6", DagMode::Strict, None, None, 1, 0xca45de1afa892850),
    ("lattice:6", DagMode::Strict, None, Some(3), 1, 0x03a9699ab8165f47),
    ("lattice:6", DagMode::Strict, Some(7), None, 1, 0x99fb5dd26e4d1751),
    ("lattice:6", DagMode::Strict, Some(7), Some(3), 1, 0x51c488cae28387ad),
    ("lattice:6", DagMode::Relaxed, None, None, 1, 0xd4fb6826321c16a9),
    ("lattice:6", DagMode::Relaxed, None, Some(3), 1, 0x8b1e65f46cb4f99b),
    ("lattice:6", DagMode::Relaxed, Some(7), None, 1, 0x3dcd17fbbe6018c1),
    ("lattice:6", DagMode::Relaxed, Some(7), Some(3), 1, 0xf3496911a51723e7),
    ("heavyhex:4", DagMode::Strict, None, None, 1, 0x8eb0c019bf4d7c4b),
    ("heavyhex:4", DagMode::Strict, None, Some(3), 1, 0xdb5cc9144d86da8a),
    ("heavyhex:4", DagMode::Strict, Some(7), None, 1, 0xe968977efa343ff5),
    ("heavyhex:4", DagMode::Strict, Some(7), Some(3), 1, 0x50ebea1e94fba584),
    ("heavyhex:4", DagMode::Relaxed, None, None, 1, 0xe7107ecaab8612e1),
    ("heavyhex:4", DagMode::Relaxed, None, Some(3), 1, 0xc7c1aa9c6e975eb6),
    ("heavyhex:4", DagMode::Relaxed, Some(7), None, 1, 0xce76de11cef71342),
    ("heavyhex:4", DagMode::Relaxed, Some(7), Some(3), 1, 0x866d54f668a4fa95),
    ("lattice:6", DagMode::Relaxed, Some(7), None, 2, 0xf103a56fa3a22b9f),
    ("heavyhex:4", DagMode::Strict, None, Some(3), 2, 0x10649e29d8b6f944),
    ("lattice:9", DagMode::Relaxed, None, None, 1, 0x5a2057c0f05d5fae),
];

#[test]
fn sabre_output_is_byte_identical_across_dag_modes_layouts_and_degrees() {
    let diverged: Vec<String> = SABRE_DIGESTS
        .iter()
        .filter_map(|&(spec, mode, initial_seed, degree, opt_level, expected)| {
            let mut opts = CompileOptions::default()
                .with_dag_mode(mode)
                .with_opt_level(opt_level);
            if let Some(seed) = initial_seed {
                opts = opts.with_seed(seed);
                opts.random_initial = true;
            }
            if let Some(d) = degree {
                opts = opts.with_approximation(d);
            }
            let t = Target::parse(spec).unwrap();
            let r = registry()
                .compile("sabre", &t, &opts)
                .unwrap_or_else(|e| panic!("sabre on {spec}: {e}"));
            let got = digest(&r.circuit);
            (got != expected).then(|| {
                format!(
                    "{spec} {mode:?} seed={initial_seed:?} degree={degree:?} \
                     opt_level={opt_level}: {got:#018x}"
                )
            })
        })
        .collect();
    assert!(
        diverged.is_empty(),
        "SABRE output diverged on {} of {} cells:\n{}",
        diverged.len(),
        SABRE_DIGESTS.len(),
        diverged.join("\n")
    );
}

#[test]
fn opt_level_0_matches_opt_level_1_on_every_compiler() {
    // The default tail only runs rewrites that are no-ops on real compiler
    // output, so "construct only" and "default passes" agree on the
    // circuit (and differ exactly in the report).
    for (compiler, spec) in [
        ("lnn", "lnn:12"),
        ("sycamore", "sycamore:4"),
        ("heavyhex", "heavyhex:3"),
        ("lattice", "lattice:4"),
        ("sabre", "heavyhex:3"),
        ("optimal", "lnn:4"),
        ("lnn-path", "lattice:4"),
    ] {
        let t = Target::parse(spec).unwrap();
        let raw = registry()
            .compile(compiler, &t, &CompileOptions::default().with_opt_level(0))
            .unwrap();
        let opt = registry()
            .compile(compiler, &t, &CompileOptions::default())
            .unwrap();
        assert_eq!(raw.circuit.ops(), opt.circuit.ops(), "{compiler} on {spec}");
        assert!(raw.passes.is_empty(), "opt_level=0 runs no passes");
        assert_eq!(
            opt.passes
                .iter()
                .map(|p| p.pass.as_str())
                .collect::<Vec<_>>(),
            vec!["cancel-adjacent-swaps", "check-layout"],
            "{compiler} on {spec}"
        );
    }
}

#[test]
fn opt_level_2_fuses_swaps_and_keeps_kernels_verified() {
    for (compiler, spec) in [
        ("lnn", "lnn:16"),
        ("sycamore", "sycamore:4"),
        ("heavyhex", "heavyhex:3"),
        ("lattice", "lattice:4"),
        ("sabre", "sycamore:4"),
        ("lnn-path", "lattice:4"),
    ] {
        let t = Target::parse(spec).unwrap();
        let base = registry()
            .compile(compiler, &t, &CompileOptions::verified())
            .unwrap();
        let opts = CompileOptions::verified().with_opt_level(2);
        let merged = registry().compile(compiler, &t, &opts).unwrap();
        assert!(
            merged.metrics.swaps < base.metrics.swaps,
            "{compiler} on {spec}: fusion must absorb SWAPs ({} vs {})",
            merged.metrics.swaps,
            base.metrics.swaps
        );
        assert!(
            merged.metrics.depth <= base.metrics.depth,
            "{compiler} on {spec}: fusion must not worsen depth"
        );
        assert_eq!(
            merged.metrics.cphases,
            merged.n * (merged.n - 1) / 2,
            "{compiler} on {spec}: every pair interaction survives fusion"
        );
        let fused = merged
            .circuit
            .ops()
            .iter()
            .filter(|o| matches!(o.kind, GateKind::CphaseSwap { .. }))
            .count();
        assert!(fused > 0, "{compiler} on {spec}: no fused interactions");
    }
}

#[test]
fn per_pass_report_roundtrips_through_serde() {
    let t = Target::heavy_hex_groups(2).unwrap();
    let r = registry()
        .compile("heavyhex", &t, &CompileOptions::default().with_opt_level(2))
        .unwrap();
    assert!(r.passes.len() >= 3);
    let json = serde_json::to_string(&r).unwrap();
    let back: CompileResult = serde_json::from_str(&json).unwrap();
    assert_eq!(back.passes, r.passes);
    assert_eq!(back.circuit.ops(), r.circuit.ops());
    assert!(r.pass_s() >= 0.0);
}

#[test]
fn extra_passes_append_to_the_default_tail() {
    let t = Target::lnn(12).unwrap();
    let opts = CompileOptions::verified().with_extra_pass("merge-swap-cphase");
    let r = registry().compile("lnn", &t, &opts).unwrap();
    assert_eq!(
        r.passes.iter().map(|p| p.pass.as_str()).collect::<Vec<_>>(),
        vec!["cancel-adjacent-swaps", "merge-swap-cphase", "check-layout"]
    );
    assert_eq!(r.metrics.swaps, 0, "the LNN schedule fuses completely");
}

#[test]
fn unknown_extra_pass_is_a_described_error() {
    let t = Target::lnn(4).unwrap();
    let opts = CompileOptions::default().with_extra_pass("loop-unrolling");
    match registry().compile("lnn", &t, &opts) {
        Err(CompileError::UnsupportedOption { option, .. }) => {
            assert!(option.contains("loop-unrolling"), "{option}");
            assert!(option.contains("cancel-adjacent-swaps"), "{option}");
        }
        other => panic!("expected UnsupportedOption, got {other:?}"),
    }
}

#[test]
fn option_builders_cover_the_new_knobs() {
    let opts = CompileOptions::default()
        .with_approximation(3)
        .with_ie_mode(qft_kernels::IeMode::Strict)
        .with_opt_level(2)
        .with_extra_pass("asap-layering");
    assert_eq!(opts.approximation, Some(3));
    assert_eq!(opts.opt_level, 2);
    assert_eq!(opts.extra_passes, vec!["asap-layering".to_string()]);
    // The AQFT builder actually shrinks sabre circuits.
    let t = Target::lnn(8).unwrap();
    let full = registry()
        .compile("sabre", &t, &CompileOptions::default())
        .unwrap();
    let approx = registry()
        .compile(
            "sabre",
            &t,
            &CompileOptions::default().with_approximation(3),
        )
        .unwrap();
    assert!(approx.metrics.cphases < full.metrics.cphases);
}

/// Streams `mc` through a fresh builder, injecting a redundant SWAP pair
/// (on physical qubits `pair`, `pair + 1`) before each op index in
/// `at_indices`. The injected pairs are net identity, so annotations of
/// the original ops are unchanged.
fn inject_redundant_swaps(mc: &MappedCircuit, at_indices: &[usize], pair: u32) -> MappedCircuit {
    let mut b = MappedCircuitBuilder::new(mc.initial_layout().clone());
    let inject = |b: &mut MappedCircuitBuilder| {
        b.push_swap_phys(PhysicalQubit(pair), PhysicalQubit(pair + 1));
        b.push_swap_phys(PhysicalQubit(pair), PhysicalQubit(pair + 1));
    };
    for (i, op) in mc.ops().iter().enumerate() {
        if at_indices.contains(&i) {
            inject(&mut b);
        }
        match (op.kind, op.p2) {
            (GateKind::Swap, Some(p2)) => b.push_swap_phys(op.p1, p2),
            (GateKind::CphaseSwap { k }, Some(p2)) => b.push_cphase_swap_phys(k, op.p1, p2),
            (kind, Some(p2)) => b.push_2q_phys(kind, op.p1, p2),
            (kind, None) => b.push_1q_phys(kind, op.p1),
        }
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cancel_adjacent_swaps_removes_injected_redundancy(
        n in 3usize..12,
        raw_positions in collection::vec(0u32..1000, 1..5),
        raw_pair in 0u32..1000,
    ) {
        let t = Target::lnn(n).unwrap();
        let original = registry()
            .compile("lnn", &t, &CompileOptions::default().with_opt_level(0))
            .unwrap()
            .circuit;
        let at: Vec<usize> = raw_positions
            .iter()
            .map(|&p| p as usize % (original.ops().len() + 1))
            .collect();
        let pair = raw_pair % (n as u32 - 1);
        let mut noisy = inject_redundant_swaps(&original, &at, pair);
        prop_assert!(noisy.ops().len() > original.ops().len());

        let report = CancelAdjacentSwaps.run(&mut noisy, &PassCtx::new()).unwrap();
        prop_assert!(report.rewrites >= 1);
        // The pass restores the original cost exactly (an injected swap
        // adjacent to an original same-pair swap may cancel against it,
        // leaving an equal op at the same depth rather than the identical
        // stream).
        prop_assert_eq!(noisy.ops().len(), original.ops().len());
        prop_assert_eq!(Metrics::of(&noisy, |_| 1), Metrics::of(&original, |_| 1));
        prop_assert_eq!(noisy.final_layout(), original.final_layout());
        let graph = qft_kernels::arch::lnn::lnn(n);
        prop_assert!(verify_qft_mapping(&noisy, &graph).is_ok());
    }

    #[test]
    fn merged_kernels_stay_unitarily_equivalent(n in 2usize..8) {
        // opt_level=2 (fusion + re-layering) must preserve the QFT unitary:
        // checked against the state-vector reference, which exercises the
        // CphaseSwap replay semantics end to end.
        let t = Target::lnn(n).unwrap();
        let r = registry()
            .compile("lnn", &t, &CompileOptions::verified().with_opt_level(2))
            .unwrap();
        prop_assert!(mapped_equals_qft(&r.circuit, 2), "n={n}");
    }

    #[test]
    fn asap_layering_preserves_depth_and_semantics(n in 3usize..10, seed in 0u64..8) {
        // SABRE emits in routing order; re-layering must never worsen the
        // uniform depth and must keep the kernel verified.
        let t = Target::lnn(n).unwrap();
        let base_opts = CompileOptions::verified().with_seed(seed);
        let base = registry().compile("sabre", &t, &base_opts).unwrap();
        let relaid = registry()
            .compile("sabre", &t, &base_opts.clone().with_extra_pass("asap-layering"))
            .unwrap();
        prop_assert!(relaid.circuit.depth_uniform() <= base.circuit.depth_uniform());
        prop_assert_eq!(relaid.metrics.swaps, base.metrics.swaps);
    }
}

/// A random well-formed stream on `n` physical qubits (`n >= 2`): single-
/// and two-qubit gates, SWAPs and fused interactions on random pairs.
fn random_stream(rng: &mut StdRng, n: u32, len: usize) -> MappedCircuit {
    let mut b = MappedCircuitBuilder::new(Layout::identity(n as usize, n as usize));
    for _ in 0..len {
        let p1 = PhysicalQubit(rng.gen_range(0..n));
        let p2 = PhysicalQubit((p1.0 + rng.gen_range(1..n)) % n);
        match rng.gen_range(0u32..5) {
            0 => b.push_1q_phys(GateKind::H, p1),
            1 => b.push_2q_phys(
                GateKind::Cphase {
                    k: rng.gen_range(2..6),
                },
                p1,
                p2,
            ),
            2 => b.push_swap_phys(p1, p2),
            3 => b.push_cphase_swap_phys(rng.gen_range(2..6), p1, p2),
            _ => b.push_2q_phys(GateKind::Cnot, p1, p2),
        }
    }
    b.finish()
}

/// What `asap-layering` did before it became one walk: flatten the
/// uniform ASAP layers, and count the positions whose annotated op moved.
fn reference_layering(mc: &MappedCircuit) -> (Vec<PhysOp>, usize) {
    let mut relaid = mc.clone();
    relaid.set_ops(mc.layers_uniform().into_iter().flatten().collect());
    let moved = relaid
        .replay()
        .zip(mc.replay())
        .filter(|(a, b)| a != b)
        .count();
    let ops = if moved > 0 { relaid.ops() } else { mc.ops() };
    (ops.to_vec(), moved)
}

#[test]
fn asap_layering_matches_the_flattened_layers_and_their_moved_count() {
    let mut rng = StdRng::seed_from_u64(0xa5a9);
    let mut unmoved = 0;
    for case in 0..400 {
        let n = rng.gen_range(2u32..9);
        let len = rng.gen_range(0usize..60);
        let random = random_stream(&mut rng, n, len);
        // The same stream already in layer order: a rewrite of nothing.
        let (layered, _) = reference_layering(&random);
        let mut ordered = random.clone();
        ordered.set_ops(layered);
        for original in [random, ordered] {
            let (want_ops, want_moved) = reference_layering(&original);
            let mut mc = original.clone();
            let report = AsapLayering.run(&mut mc, &PassCtx::new()).unwrap();
            assert_eq!(mc.ops(), &want_ops[..], "case {case}");
            assert_eq!(report.rewrites, want_moved, "case {case}");
            unmoved += usize::from(want_moved == 0);
        }
    }
    assert!(unmoved >= 400, "every layered stream is left alone");
}

#[test]
fn metrics_of_matches_the_separate_walks() {
    let mut rng = StdRng::seed_from_u64(0x3e7c);
    for case in 0..400 {
        let n = rng.gen_range(2u32..9);
        let len = rng.gen_range(0usize..60);
        let mc = random_stream(&mut rng, n, len);
        let latency = |op: &PhysOp| match op.kind {
            GateKind::Swap => 3,
            GateKind::H => 1,
            _ => 2 + u64::from(op.p1.0 % 3),
        };
        let m = Metrics::of(&mc, latency);
        let count = |f: fn(GateKind) -> bool| mc.ops().iter().filter(|op| f(op.kind)).count();
        assert_eq!(m.depth, mc.depth_with(latency), "case {case}");
        assert_eq!(m.two_qubit_depth, mc.two_qubit_depth(), "case {case}");
        assert_eq!(m.swaps, mc.swap_count(), "case {case}");
        assert_eq!(m.cphases, mc.cphase_count(), "case {case}");
        assert_eq!(m.hadamards, count(|k| k == GateKind::H), "case {case}");
        assert_eq!(m.total_ops, len, "case {case}");
    }
}

/// A pass that breaks the [`Pass`] contract: it drops the last op and
/// reports no rewrites.
struct SilentlyDropsTheLastOp;

impl Pass for SilentlyDropsTheLastOp {
    fn name(&self) -> &'static str {
        "silently-drops-the-last-op"
    }

    fn description(&self) -> &'static str {
        "test pass that edits the stream and reports no rewrites"
    }

    fn run(&self, circuit: &mut MappedCircuit, _ctx: &PassCtx) -> Result<PassReport, PassError> {
        let mut ops = circuit.take_ops();
        ops.pop();
        circuit.set_ops(ops);
        Ok(PassReport::new(self.name()))
    }
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "reported no rewrites but changed the stream")]
fn a_pass_that_edits_without_reporting_trips_the_debug_re_measure() {
    let mut mc = random_stream(&mut StdRng::seed_from_u64(7), 4, 12);
    let pm = PassManager::new().with_pass(Box::new(SilentlyDropsTheLastOp));
    let _ = pm.run(&mut mc, &PassCtx::new());
}
