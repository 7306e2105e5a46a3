//! Pipeline adapters: the three baseline compilers as [`QftCompiler`]s,
//! interchangeable with the paper's analytical mappers through the
//! registry.

use crate::lnn_path::{lnn_on_lattice, lnn_on_path};
use crate::optimal::{optimal_compile, OptimalConfig, OptimalResult};
use crate::sabre::{sabre_compile, SabreConfig};
use qft_arch::hamiltonian::{find_hamiltonian_path, HamiltonianResult};
use qft_core::pipeline::{
    finish_result, validate_approximation, CompileError, CompileOptions, CompileResult, QftCompiler,
};
use qft_core::target::{Target, TargetSpec};
use qft_ir::circuit::Circuit;
use qft_ir::dag::CircuitDag;
use qft_ir::gate::PhysicalQubit;
use std::time::{Duration, Instant};

/// The logical (possibly AQFT-truncated) circuit search-based compilers
/// route: the textbook QFT with `R_k` rotations above `degree` dropped.
/// Delegates to [`qft_ir::qft::aqft_circuit`], the same truncation
/// definition the analytical mappers apply post-mapping through the
/// `aqft-truncate` pass — so both compiler families agree on the reference
/// semantics by construction.
pub fn logical_qft(n: usize, approximation: Option<u32>) -> Circuit {
    match approximation {
        None => qft_ir::qft::qft_circuit(n),
        Some(degree) => qft_ir::qft::aqft_circuit(n, degree),
    }
}

/// SABRE (Li, Ding, Xie — ASPLOS'19) as a pipeline compiler. Runs on any
/// connected target; `opts.dag_mode`, `opts.seed`, `opts.random_initial`,
/// and `opts.approximation` are honored.
#[derive(Debug, Clone, Copy, Default)]
pub struct SabreMapper;

impl QftCompiler for SabreMapper {
    fn name(&self) -> &'static str {
        "sabre"
    }

    fn description(&self) -> &'static str {
        "SABRE heuristic mapper (front layer + lookahead + decay, seeded)"
    }

    fn compile(
        &self,
        target: &Target,
        opts: &CompileOptions,
    ) -> Result<CompileResult, CompileError> {
        validate_approximation(self.name(), opts)?;
        let config = SabreConfig {
            seed: opts.seed,
            random_initial: opts.random_initial,
            ..SabreConfig::default()
        };
        let t0 = Instant::now();
        let circuit = logical_qft(target.n_qubits(), opts.approximation);
        let dag = CircuitDag::build(&circuit, opts.dag_mode);
        let mc = sabre_compile(&dag, target.graph(), &config);
        finish_result(self.name(), target, opts, mc, t0)
    }
}

/// The exact minimum-SWAP A* search (SATMAP substitute) as a pipeline
/// compiler. Bounded by `opts.deadline_s` / `opts.max_nodes`; exhausting
/// either yields [`CompileError::Timeout`] — the paper's "TLE".
#[derive(Debug, Clone, Copy, Default)]
pub struct OptimalMapper;

impl QftCompiler for OptimalMapper {
    fn name(&self) -> &'static str {
        "optimal"
    }

    fn description(&self) -> &'static str {
        "exact minimum-SWAP A* search with a deadline (SATMAP substitute)"
    }

    fn compile(
        &self,
        target: &Target,
        opts: &CompileOptions,
    ) -> Result<CompileResult, CompileError> {
        validate_approximation(self.name(), opts)?;
        let deadline = Duration::try_from_secs_f64(opts.deadline_s.max(0.0)).map_err(|_| {
            CompileError::UnsupportedOption {
                compiler: self.name().to_string(),
                option: format!(
                    "deadline_s = {} (a deadline must be a finite number of seconds)",
                    opts.deadline_s
                ),
            }
        })?;
        let config = OptimalConfig {
            deadline,
            max_nodes: opts.max_nodes,
        };
        let t0 = Instant::now();
        let circuit = logical_qft(target.n_qubits(), opts.approximation);
        let dag = CircuitDag::build(&circuit, opts.dag_mode);
        match optimal_compile(&dag, target.graph(), &config) {
            OptimalResult::Solved { circuit, .. } => {
                finish_result(self.name(), target, opts, circuit, t0)
            }
            OptimalResult::TimedOut { nodes } => Err(CompileError::Timeout {
                compiler: self.name().to_string(),
                budget_s: opts.deadline_s,
                elapsed_s: t0.elapsed().as_secs_f64(),
                nodes,
            }),
        }
    }
}

/// Node budget for the Hamiltonian-path search on targets without a known
/// path shape. Generous: the serpentine families never reach it.
const HAMILTONIAN_BUDGET: u64 = 5_000_000;

/// The LNN-on-a-Hamiltonian-path baseline as a pipeline compiler. Uses the
/// serpentine on lattice-surgery targets, the identity path on LNN, and a
/// bounded path search elsewhere (heavy-hex danglers make a path
/// impossible, which is reported as an unsupported target — exactly the
/// limitation §2.2 demonstrates).
#[derive(Debug, Clone, Copy, Default)]
pub struct LnnPathMapper;

impl LnnPathMapper {
    fn path_for(&self, target: &Target) -> Result<Vec<PhysicalQubit>, CompileError> {
        let unsupported = |reason: String| CompileError::UnsupportedTarget {
            compiler: "lnn-path".to_string(),
            target: target.name().to_string(),
            reason,
        };
        match target.spec() {
            TargetSpec::Lnn { n } => Ok((0..n as u32).map(PhysicalQubit).collect()),
            _ => match find_hamiltonian_path(target.graph(), HAMILTONIAN_BUDGET) {
                HamiltonianResult::Found(path) => Ok(path),
                HamiltonianResult::NotFound => Err(unsupported(
                    "the coupling graph has no Hamiltonian path (cf. §2.2)".to_string(),
                )),
                HamiltonianResult::BudgetExhausted => Err(unsupported(format!(
                    "Hamiltonian-path search exhausted its {HAMILTONIAN_BUDGET}-node budget"
                ))),
            },
        }
    }
}

impl QftCompiler for LnnPathMapper {
    fn name(&self) -> &'static str {
        "lnn-path"
    }

    fn description(&self) -> &'static str {
        "analytical LNN QFT along a Hamiltonian path (latency-blind)"
    }

    fn supports(&self, target: &Target) -> bool {
        // Cheap necessary condition only; `compile` runs the real search.
        !qft_arch::hamiltonian::ruled_out_by_degree(target.graph())
    }

    fn compile(
        &self,
        target: &Target,
        opts: &CompileOptions,
    ) -> Result<CompileResult, CompileError> {
        let t0 = Instant::now();
        // The line schedule is constructed as a full-QFT kernel;
        // `opts.approximation` is honored by the `aqft-truncate` stage of
        // the shared pass tail, like the analytical mappers.
        // The lattice serpentine is the paper's Fig. 19 configuration; use
        // it directly instead of searching.
        let mc = if let Some(l) = target.as_lattice_surgery() {
            lnn_on_lattice(l)
        } else {
            let path = self.path_for(target)?;
            lnn_on_path(target.graph(), &path)
        };
        finish_result(self.name(), target, opts, mc, t0)
    }
}

/// Registers the three baseline compilers (`sabre`, `optimal`, `lnn-path`)
/// into `registry`.
pub fn register_baselines(registry: &mut qft_core::Registry) {
    registry.register(Box::new(SabreMapper));
    registry.register(Box::new(OptimalMapper));
    registry.register(Box::new(LnnPathMapper));
}

#[cfg(test)]
mod tests {
    use super::*;
    use qft_core::LatencyModel;

    fn verified() -> CompileOptions {
        CompileOptions::verified()
    }

    #[test]
    fn sabre_compiles_any_family() {
        for t in [
            Target::lnn(6).unwrap(),
            Target::sycamore(2).unwrap(),
            Target::heavy_hex_groups(2).unwrap(),
            Target::lattice_surgery(3).unwrap(),
        ] {
            let r = SabreMapper.compile(&t, &verified()).unwrap();
            assert_eq!(r.metrics.cphases, r.n * (r.n - 1) / 2, "{}", t.name());
        }
    }

    #[test]
    fn sabre_seed_flows_through_options() {
        let t = Target::heavy_hex_groups(2).unwrap();
        let base = CompileOptions {
            random_initial: true,
            ..verified()
        };
        let a = SabreMapper
            .compile(
                &t,
                &CompileOptions {
                    seed: 1,
                    ..base.clone()
                },
            )
            .unwrap();
        let b = SabreMapper
            .compile(
                &t,
                &CompileOptions {
                    seed: 1,
                    ..base.clone()
                },
            )
            .unwrap();
        let c = SabreMapper
            .compile(&t, &CompileOptions { seed: 2, ..base })
            .unwrap();
        assert_eq!(a.circuit.ops(), b.circuit.ops(), "same seed must reproduce");
        assert!(
            a.circuit.ops() != c.circuit.ops()
                || a.circuit.initial_layout() != c.circuit.initial_layout(),
            "different seeds should differ"
        );
    }

    #[test]
    fn optimal_solves_tiny_and_times_out_big() {
        let tiny = Target::lnn(4).unwrap();
        let r = OptimalMapper.compile(&tiny, &verified()).unwrap();
        assert!(r.metrics.swaps <= 6);
        let forever = CompileOptions {
            deadline_s: f64::INFINITY,
            ..Default::default()
        };
        assert!(matches!(
            OptimalMapper.compile(&tiny, &forever),
            Err(CompileError::UnsupportedOption { .. })
        ));

        let big = Target::lnn(10).unwrap();
        let opts = CompileOptions {
            deadline_s: 0.05,
            max_nodes: 50_000,
            ..Default::default()
        };
        match OptimalMapper.compile(&big, &opts) {
            Err(CompileError::Timeout { nodes, .. }) => assert!(nodes > 0),
            Ok(r) => assert_eq!(r.metrics.cphases, 45), // solved anyway: fine
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn lnn_path_uses_serpentine_on_lattice_and_identity_on_line() {
        let lat = Target::lattice_surgery(4).unwrap();
        let r = LnnPathMapper.compile(&lat, &verified()).unwrap();
        assert_eq!(r.n, 16);

        let line = Target::lnn(8).unwrap();
        let r = LnnPathMapper.compile(&line, &verified()).unwrap();
        assert_eq!(r.metrics.swaps, 8 * 7 / 2);
    }

    #[test]
    fn lnn_path_rejects_pathless_heavyhex() {
        // 3+ danglers ⇒ 3+ degree-1 vertices ⇒ no Hamiltonian path (§2.2).
        let t = Target::heavy_hex_groups(3).unwrap();
        assert!(!LnnPathMapper.supports(&t));
        assert!(matches!(
            LnnPathMapper.compile(&t, &CompileOptions::default()),
            Err(CompileError::UnsupportedTarget { .. })
        ));
    }

    #[test]
    fn aqft_truncation_shrinks_sabre_circuits() {
        let t = Target::lnn(8).unwrap();
        let full = SabreMapper.compile(&t, &CompileOptions::default()).unwrap();
        let opts = CompileOptions {
            approximation: Some(3),
            ..Default::default()
        };
        let approx = SabreMapper.compile(&t, &opts).unwrap();
        assert!(approx.metrics.cphases < full.metrics.cphases);
        // Degree-3 AQFT keeps pairs with |i-j| <= 2: 7 + 6 pairs on n=8.
        assert_eq!(approx.metrics.cphases, 13);
        assert_eq!(approx.metrics.hadamards, 8);
    }

    #[test]
    fn aqft_truncation_reaches_lnn_path_through_the_pass_tail() {
        let t = Target::lnn(8).unwrap();
        let opts = CompileOptions::default().with_approximation(3);
        let r = LnnPathMapper.compile(&t, &opts).unwrap();
        // Same degree-3 pair count as SABRE's pre-truncated input.
        assert_eq!(r.metrics.cphases, 13);
        assert_eq!(r.metrics.hadamards, 8);
        let full = LnnPathMapper
            .compile(&t, &CompileOptions::default())
            .unwrap();
        // On the line every SWAP still feeds a later nearest-neighbor
        // interaction, so routing survives; only the rotations go.
        assert!(r.metrics.total_ops < full.metrics.total_ops);
        assert!(r.metrics.swaps <= full.metrics.swaps);
        assert_eq!(
            r.passes.iter().map(|p| p.dropped_rotations).sum::<usize>(),
            full.metrics.cphases - r.metrics.cphases
        );
    }

    #[test]
    fn search_compilers_reject_degree_zero_before_searching() {
        let t = Target::lnn(6).unwrap();
        let opts = CompileOptions::default().with_approximation(0);
        for c in [
            &SabreMapper as &dyn QftCompiler,
            &OptimalMapper,
            &LnnPathMapper,
        ] {
            match c.compile(&t, &opts) {
                Err(CompileError::UnsupportedOption { option, .. }) => {
                    assert!(option.contains("degree 0"), "{}: {option}", c.name());
                }
                other => panic!("{}: expected UnsupportedOption, got {other:?}", c.name()),
            }
        }
    }

    #[test]
    fn approximate_kernels_are_symbolically_verified_as_the_aqft() {
        let t = Target::lnn(6).unwrap();
        let opts = CompileOptions {
            approximation: Some(2),
            ..CompileOptions::verified()
        };
        for c in [
            &SabreMapper as &dyn QftCompiler,
            &OptimalMapper,
            &LnnPathMapper,
        ] {
            let r = c
                .compile(&t, &opts)
                .unwrap_or_else(|e| panic!("{}: {e}", c.name()));
            assert_eq!(r.metrics.cphases, 5, "{}", c.name());
        }
    }

    #[test]
    fn uniform_latency_matches_depth_uniform_on_lattice() {
        let t = Target::lattice_surgery(4).unwrap();
        let opts = CompileOptions {
            latency: LatencyModel::Uniform,
            ..Default::default()
        };
        let r = SabreMapper.compile(&t, &opts).unwrap();
        assert_eq!(r.metrics.depth, r.circuit.depth_uniform());
    }
}
