//! The cross-compiler AQFT equivalence harness (ISSUE 3's headline test):
//! every (compiler × degree × n) cell is compiled through the registry and
//! proven state-vector-equivalent to the truncated logical reference
//! `logical_qft(n, Some(d))` — so analytical-mapper AQFT is semantically
//! identical to the search compilers' AQFT, not just plausible.

mod common;

use common::{assert_matches_logical_qft, check_cell};
use qft_kernels::ir::gate::GateKind;
use qft_kernels::ir::passes::{CheckLayout, Pass, PassCtx};
use qft_kernels::ir::qft::{aqft_pair_count, QftOrderError};
use qft_kernels::sim::{verify_aqft_mapping, verify_qft_mapping, VerifyError};
use qft_kernels::{registry, CompileError, CompileOptions, Target};

/// The degrees every cell is checked at: the paper's shallow truncations
/// plus `n` (the exact QFT expressed through the truncation path).
fn degrees(n: usize) -> [u32; 4] {
    [1, 2, 3, n as u32]
}

/// The (compiler, target) cells of the differential matrix. Each compiler
/// runs on its device family at every feasible size with 4..=10 qubits
/// (widened from the original 4..=8 now that the batched engine makes
/// cells cheap); the exact-search `optimal` stops at 6 qubits so the
/// full-QFT (degree = n) column stays inside its budget under debug
/// builds.
fn matrix() -> Vec<(&'static str, Target)> {
    let mut cells: Vec<(&'static str, Target)> = Vec::new();
    for n in 4..=10 {
        cells.push(("lnn", Target::lnn(n).unwrap()));
        cells.push(("sabre", Target::lnn(n).unwrap()));
        cells.push(("lnn-path", Target::lnn(n).unwrap()));
    }
    for n in 4..=6 {
        cells.push(("optimal", Target::lnn(n).unwrap()));
    }
    // The other families' devices inside 4..=10 qubits: sycamore 2x2 = 4,
    // heavy-hex 1 group = 5 / 2 groups = 10, lattice 2x2 = 4 / 3x3 = 9.
    cells.push(("sycamore", Target::sycamore(2).unwrap()));
    cells.push(("heavyhex", Target::heavy_hex_groups(1).unwrap()));
    cells.push(("heavyhex", Target::heavy_hex_groups(2).unwrap()));
    cells.push(("lattice", Target::lattice_surgery(2).unwrap()));
    cells.push(("lattice", Target::lattice_surgery(3).unwrap()));
    cells.push(("sabre", Target::sycamore(2).unwrap()));
    cells.push(("sabre", Target::heavy_hex_groups(1).unwrap()));
    cells.push(("sabre", Target::lattice_surgery(2).unwrap()));
    cells.push(("optimal", Target::sycamore(2).unwrap()));
    cells.push(("optimal", Target::heavy_hex_groups(1).unwrap()));
    cells.push(("lnn-path", Target::lattice_surgery(2).unwrap()));
    cells.push(("lnn-path", Target::lattice_surgery(3).unwrap()));
    cells
}

#[test]
fn every_compiler_degree_cell_matches_the_logical_reference() {
    let mut checked = 0;
    for (compiler, target) in matrix() {
        for degree in degrees(target.n_qubits()) {
            check_cell(compiler, &target, degree, CompileOptions::default());
            checked += 1;
        }
    }
    assert!(checked >= 4 * 36, "matrix shrank: only {checked} cells");
}

#[test]
fn aqft_survives_the_aggressive_fusion_tail() {
    // opt_level = 2 fuses surviving CPHASEs with their SWAPs *after*
    // truncation; the fused kernels must still match the reference.
    for (compiler, target) in [
        ("lnn", Target::lnn(8).unwrap()),
        ("sycamore", Target::sycamore(2).unwrap()),
        ("heavyhex", Target::heavy_hex_groups(1).unwrap()),
        ("lattice", Target::lattice_surgery(2).unwrap()),
        ("sabre", Target::lnn(6).unwrap()),
    ] {
        for degree in [2, 3] {
            let r = check_cell(
                compiler,
                &target,
                degree,
                CompileOptions::default().with_opt_level(2),
            );
            assert!(
                r.passes.iter().any(|p| p.pass == "merge-swap-cphase"),
                "{compiler}: fusion must run at opt_level 2"
            );
        }
    }
}

#[test]
fn analytical_aqft_agrees_with_search_aqft_per_cell() {
    // The cross-compiler claim, stated directly: on the same device at the
    // same degree, the analytical mapper and SABRE produce equivalent
    // kernels (both are checked against the same reference states).
    for (analytical, target) in [
        ("lnn", Target::lnn(7).unwrap()),
        ("sycamore", Target::sycamore(2).unwrap()),
        ("heavyhex", Target::heavy_hex_groups(1).unwrap()),
        ("lattice", Target::lattice_surgery(2).unwrap()),
    ] {
        for degree in [2u32, 3] {
            let a = check_cell(analytical, &target, degree, CompileOptions::default());
            let b = check_cell("sabre", &target, degree, CompileOptions::default());
            assert_eq!(a.metrics.cphases, b.metrics.cphases);
            assert_eq!(a.metrics.hadamards, b.metrics.hadamards);
        }
    }
}

#[test]
fn truncated_kernels_drop_every_high_order_rotation() {
    for (compiler, target) in matrix() {
        let degree = 2u32;
        let r = registry()
            .compile(
                compiler,
                &target,
                &CompileOptions::default().with_approximation(degree),
            )
            .unwrap();
        for op in r.circuit.ops() {
            if let Some(k) = op.kind.cphase_order() {
                assert!(
                    k <= degree,
                    "{compiler} on {} kept R_{k} above degree {degree}",
                    target.name()
                );
            }
        }
    }
}

#[test]
fn symbolic_verification_checks_every_truncated_kernel() {
    for (compiler, target) in matrix() {
        for degree in degrees(target.n_qubits()) {
            let opts = CompileOptions::verified().with_approximation(degree);
            registry()
                .compile(compiler, &target, &opts)
                .unwrap_or_else(|e| panic!("{compiler} on {} at {degree}: {e}", target.name()));
        }
    }
}

#[test]
fn the_aqft_order_check_refuses_right_counts_on_wrong_pairs() {
    // n = 64, degree 3: delete one kept R_2 and give one SWAP on a pair
    // the truncation drops a fused R_4. The rotation count, the layout
    // replay and the depth law all still pass; only the pair-by-pair
    // order check refuses.
    let (n, degree) = (64, 3);
    let t = Target::lnn(n).unwrap();
    let graph = t.graph();
    let r = registry()
        .compile(
            "lnn",
            &t,
            &CompileOptions::default().with_approximation(degree),
        )
        .unwrap();
    verify_aqft_mapping(&r.circuit, graph, degree).expect("the degree-3 AQFT verifies");
    assert!(verify_qft_mapping(&r.circuit, graph).is_err());

    let replay: Vec<_> = r.circuit.replay().collect();
    let kept = replay
        .iter()
        .position(|op| op.kind == GateKind::Cphase { k: 2 })
        .expect("a kept R_2");
    let truncated = replay
        .iter()
        .position(|op| match (op.kind, op.l1, op.l2) {
            (GateKind::Swap, Some(a), Some(b)) => a.0.abs_diff(b.0) + 1 > degree,
            _ => false,
        })
        .expect("a SWAP on a truncated pair");
    let mut ops = r.circuit.ops().to_vec();
    ops[truncated].kind = GateKind::CphaseSwap { k: 4 };
    ops.remove(kept);
    let mut mutant = r.circuit.clone();
    mutant.set_ops(ops);

    assert_eq!(mutant.cphase_count(), aqft_pair_count(n, degree));
    let adjacent = |a, b| graph.are_adjacent(a, b);
    CheckLayout
        .run(&mut mutant, &PassCtx::with_adjacency(&adjacent))
        .expect("the layout replay still passes");
    assert!(mutant.two_qubit_depth() <= 4 * n as u64 - 6);
    match verify_aqft_mapping(&mutant, graph, degree) {
        Err(VerifyError::Semantics(QftOrderError::PairCount {
            count, expected, ..
        })) => assert_ne!(count, expected),
        other => panic!("expected a pair-count refusal, got {other:?}"),
    }
}

#[test]
fn degree_zero_is_a_descriptive_error_for_every_compiler() {
    for (compiler, target) in matrix() {
        let err = registry()
            .compile(
                compiler,
                &target,
                &CompileOptions::default().with_approximation(0),
            )
            .expect_err("degree 0 must be rejected");
        match err {
            CompileError::UnsupportedOption { option, .. } => {
                assert!(option.contains("degree 0"), "{compiler}: {option}");
                assert!(option.contains("degree >= 1"), "{compiler}: {option}");
            }
            other => panic!("{compiler}: expected UnsupportedOption, got {other:?}"),
        }
    }
}

#[test]
fn degree_above_n_is_a_noop_that_still_matches_the_exact_qft() {
    for (compiler, target) in [
        ("lnn", Target::lnn(6).unwrap()),
        ("sycamore", Target::sycamore(2).unwrap()),
        ("heavyhex", Target::heavy_hex_groups(1).unwrap()),
        ("lattice", Target::lattice_surgery(2).unwrap()),
        ("sabre", Target::lnn(6).unwrap()),
        ("lnn-path", Target::lnn(6).unwrap()),
        ("optimal", Target::lnn(4).unwrap()),
    ] {
        let n = target.n_qubits() as u32;
        let r = registry()
            .compile(
                compiler,
                &target,
                &CompileOptions::default().with_approximation(n + 10),
            )
            .unwrap_or_else(|e| panic!("{compiler}: {e}"));
        assert_eq!(
            r.passes.iter().map(|p| p.dropped_rotations).sum::<usize>(),
            0,
            "{compiler}: nothing to truncate above degree n"
        );
        // Equivalent to the untruncated reference (degree None).
        assert_matches_logical_qft(&r, None, compiler);
        assert_eq!(r.metrics.cphases, r.n * (r.n - 1) / 2);
    }
}

#[test]
fn sim_crate_aqft_verifier_agrees_with_the_harness() {
    // One spot-check per family wires `mapped_equals_aqft` (the sim
    // crate's public AQFT verifier) into the integration surface; the
    // per-cell matrix uses the equivalent logical_qft reference directly.
    use qft_kernels::sim::equiv::mapped_equals_aqft;
    for (compiler, target) in [
        ("lnn", Target::lnn(6).unwrap()),
        ("heavyhex", Target::heavy_hex_groups(1).unwrap()),
    ] {
        let r = registry()
            .compile(
                compiler,
                &target,
                &CompileOptions::default().with_approximation(2),
            )
            .unwrap();
        assert!(mapped_equals_aqft(&r.circuit, 2, 3), "{compiler}");
        assert!(
            !mapped_equals_aqft(&r.circuit, target.n_qubits() as u32, 2),
            "{compiler}: a truncated kernel must not pass as the exact QFT"
        );
    }
}

#[test]
fn truncation_is_visible_in_the_pass_report() {
    let t = Target::lnn(8).unwrap();
    let r = registry()
        .compile("lnn", &t, &CompileOptions::default().with_approximation(3))
        .unwrap();
    let names: Vec<&str> = r.passes.iter().map(|p| p.pass.as_str()).collect();
    assert_eq!(
        names,
        vec![
            "aqft-truncate",
            "cancel-adjacent-swaps",
            "prune-dead-swap-chains",
            "check-layout"
        ]
    );
    // n=8, degree 3: pairs at distance >= 3 are dropped: 6+5+4+3+2+1 = 15.
    assert_eq!(r.passes[0].dropped_rotations, 15);
    assert_eq!(r.passes[0].note, "degree 3");
    // At opt_level 0 the truncation still runs (it is semantics, not an
    // optimization) but the cleanups and checks do not.
    let raw = registry()
        .compile(
            "lnn",
            &t,
            &CompileOptions::default()
                .with_approximation(3)
                .with_opt_level(0),
        )
        .unwrap();
    assert_eq!(
        raw.passes
            .iter()
            .map(|p| p.pass.as_str())
            .collect::<Vec<_>>(),
        vec!["aqft-truncate"]
    );
    assert_matches_logical_qft(&raw, Some(3), "lnn raw");
}

#[test]
fn extra_pass_form_matches_the_option_form() {
    // `aqft-truncate(3)` via extra_passes produces the same surviving
    // rotations as `with_approximation(3)` — the string registry and the
    // option knob drive the same pass.
    let t = Target::lnn(8).unwrap();
    let via_option = registry()
        .compile("lnn", &t, &CompileOptions::default().with_approximation(3))
        .unwrap();
    let via_pass = registry()
        .compile(
            "lnn",
            &t,
            &CompileOptions::default().with_extra_pass("aqft-truncate(3)"),
        )
        .unwrap();
    let rotations = |r: &qft_kernels::CompileResult| -> Vec<_> {
        r.circuit
            .logical_interactions()
            .filter(|g| matches!(g.kind, GateKind::Cphase { .. }))
            .collect()
    };
    assert_eq!(rotations(&via_option), rotations(&via_pass));
    assert_matches_logical_qft(&via_pass, Some(3), "lnn via extra pass");
}
