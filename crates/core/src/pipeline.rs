//! The open compilation pipeline: [`QftCompiler`] trait, [`CompileOptions`],
//! [`CompileResult`], and [`CompileError`].
//!
//! Every compiler — the paper's four analytical mappers here, and the
//! search-based baselines in `qft-baselines` — implements the same
//! `compile(&Target, &CompileOptions) -> Result<CompileResult, _>` contract,
//! so the bench harness, examples, and any future serving layer drive them
//! interchangeably (resolved by name through a
//! [`Registry`](crate::registry::Registry)).
//!
//! Compilation is two-stage: a *construct* stage (the mapper/search proper,
//! which emits an unoptimized [`MappedCircuit`]) followed by a shared
//! [`PassManager`] tail assembled by [`pass_manager_for`] from
//! [`CompileOptions::opt_level`] and [`CompileOptions::extra_passes`].
//! Every compiler funnels through [`finish_result`], which runs the tail,
//! optional symbolic verification, and metrics, and records the per-pass
//! breakdown in [`CompileResult::passes`].

use crate::target::{Target, TargetSpec};
use crate::{compile_heavyhex, compile_lattice_with, compile_lnn, compile_sycamore, IeMode};
use qft_ir::circuit::MappedCircuit;
use qft_ir::dag::DagMode;
use qft_ir::metrics::Metrics;
use qft_ir::passes::{self, PassCtx, PassManager, PassReport};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Instant;

/// How depth/metrics are accounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum LatencyModel {
    /// Use the target's per-link latency classes (heterogeneous on the FT
    /// lattice; equal to uniform on NISQ backends). The default.
    #[default]
    TargetDefault,
    /// Charge every gate one cycle regardless of link class — the paper's
    /// concession to latency-blind baselines (§7.2).
    Uniform,
}

/// How much checking to run on the compiled kernel before returning it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum VerifyLevel {
    /// Trust the compiler (fastest; the old façade's behaviour).
    #[default]
    None,
    /// Run the scalable symbolic verifier (adjacency, SWAP-replay layout
    /// consistency, QFT interaction semantics). Works at thousands of
    /// qubits.
    Symbolic,
}

/// Options shared by every compiler. Compilers ignore knobs that do not
/// apply to them and reject (with [`CompileError::UnsupportedOption`]) the
/// ones they cannot honor.
///
/// Serializes as a JSON object with one entry per field, in declaration
/// order (a canonical rendering, so option sets are usable as cache-key
/// material). Deserialization is lenient about *missing* fields — they take
/// their [`Default`] value, so `{}` is the default option set — but strict
/// about *unknown* ones, which are rejected with the known field list (a
/// serving layer wants typos loud, not silently ignored).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CompileOptions {
    /// Approximate-QFT truncation: drop `R_k` rotations with `k` above this
    /// degree (must be `>= 1`; `>= n` is the exact QFT). Every compiler
    /// honors it: the search-based compilers consume a pre-truncated
    /// logical circuit, while the analytical mappers (which emit full-QFT
    /// schedules) get the `aqft-truncate` pass prepended to their tail,
    /// followed by the stranded-routing cleanups
    /// (`cancel-adjacent-swaps` + `prune-dead-swap-chains`).
    pub approximation: Option<u32>,
    /// Depth/metrics accounting.
    pub latency: LatencyModel,
    /// Post-compile checking.
    pub verify: VerifyLevel,
    /// Dependency-DAG mode for search-based compilers (§3.1's strict vs
    /// relaxed ablation).
    pub dag_mode: DagMode,
    /// RNG seed for stochastic compilers (SABRE).
    pub seed: u64,
    /// Start stochastic compilers from a random initial layout instead of
    /// the identity.
    pub random_initial: bool,
    /// Wall-clock budget in seconds for bounded searches (optimal A*).
    pub deadline_s: f64,
    /// Node budget for bounded searches (optimal A*).
    pub max_nodes: u64,
    /// Inter-unit interaction schedule on the lattice mapper (§3.3).
    pub ie_mode: IeMode,
    /// Optimization level of the shared pass tail:
    ///
    /// * `0` — construct only: the mapper's raw output, no passes;
    /// * `1` — default: the safe peepholes plus the layout-replay check.
    ///   Reproduces the pre-pass-pipeline compilers byte-for-byte (the
    ///   analytical schedules contain no cancellable SWAP pairs);
    /// * `2` — aggressive: additionally fuses CPHASE+SWAP pairs into the
    ///   paper's combined two-qubit interaction and re-layers the stream
    ///   ASAP. Changes gate counts (fewer standalone SWAPs) and depth.
    pub opt_level: u8,
    /// Extra passes appended after the `opt_level` defaults, by registry
    /// name (see [`qft_ir::passes::PASS_NAMES`] and
    /// [`qft_ir::passes::named`]). Unknown names are reported as
    /// [`CompileError::UnsupportedOption`].
    pub extra_passes: Vec<String>,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            approximation: None,
            latency: LatencyModel::TargetDefault,
            verify: VerifyLevel::None,
            dag_mode: DagMode::Strict,
            seed: 0,
            random_initial: false,
            deadline_s: 10.0,
            max_nodes: 20_000_000,
            ie_mode: IeMode::Relaxed,
            opt_level: 1,
            extra_passes: Vec::new(),
        }
    }
}

impl CompileOptions {
    /// Options with symbolic verification switched on.
    pub fn verified() -> Self {
        CompileOptions {
            verify: VerifyLevel::Symbolic,
            ..Default::default()
        }
    }

    /// Builder-style: set the verification level.
    pub fn with_verify(mut self, verify: VerifyLevel) -> Self {
        self.verify = verify;
        self
    }

    /// Builder-style: set the latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Builder-style: set the DAG mode for search-based compilers.
    pub fn with_dag_mode(mut self, dag_mode: DagMode) -> Self {
        self.dag_mode = dag_mode;
        self
    }

    /// Builder-style: set the stochastic seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: truncate to a degree-`degree` approximate QFT (drop
    /// `R_k` rotations with `k > degree`). Honored by every compiler;
    /// `degree = 0` is rejected at compile time with a descriptive error.
    pub fn with_approximation(mut self, degree: u32) -> Self {
        self.approximation = Some(degree);
        self
    }

    /// Builder-style: set the lattice mapper's inter-unit interaction
    /// schedule (§3.3).
    pub fn with_ie_mode(mut self, ie_mode: IeMode) -> Self {
        self.ie_mode = ie_mode;
        self
    }

    /// Builder-style: set the pass-tail optimization level.
    pub fn with_opt_level(mut self, opt_level: u8) -> Self {
        self.opt_level = opt_level;
        self
    }

    /// Builder-style: append an extra pass (by registry name) to the tail.
    pub fn with_extra_pass(mut self, pass: impl Into<String>) -> Self {
        self.extra_passes.push(pass.into());
        self
    }
}

/// The JSON field names of [`CompileOptions`], in declaration order —
/// the vocabulary [`CompileOptions::from_value`] accepts (anything else is
/// rejected with this list).
pub const COMPILE_OPTION_FIELDS: [&str; 11] = [
    "approximation",
    "latency",
    "verify",
    "dag_mode",
    "seed",
    "random_initial",
    "deadline_s",
    "max_nodes",
    "ie_mode",
    "opt_level",
    "extra_passes",
];

impl serde::Deserialize for CompileOptions {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        // `null` (an absent `options` field in a request) is the default set.
        if matches!(v, serde::Value::Null) {
            return Ok(CompileOptions::default());
        }
        let entries = v.as_object().ok_or_else(|| {
            serde::Error::msg(format!("expected object for CompileOptions, got {v:?}"))
        })?;
        if let Some((key, _)) = entries
            .iter()
            .find(|(k, _)| !COMPILE_OPTION_FIELDS.contains(&k.as_str()))
        {
            return Err(serde::Error::msg(format!(
                "unknown CompileOptions field '{key}' (known fields: {})",
                COMPILE_OPTION_FIELDS.join(", ")
            )));
        }
        /// Missing (`null`) fields fall back to the default's value.
        fn get<T: serde::Deserialize>(
            entries: &[(String, serde::Value)],
            name: &str,
            default: T,
        ) -> Result<T, serde::Error> {
            match serde::field(entries, name) {
                serde::Value::Null => Ok(default),
                present => T::from_value(present)
                    .map_err(|e| serde::Error::msg(format!("CompileOptions field '{name}': {e}"))),
            }
        }
        let d = CompileOptions::default();
        Ok(CompileOptions {
            approximation: get(entries, "approximation", d.approximation)?,
            latency: get(entries, "latency", d.latency)?,
            verify: get(entries, "verify", d.verify)?,
            dag_mode: get(entries, "dag_mode", d.dag_mode)?,
            seed: get(entries, "seed", d.seed)?,
            random_initial: get(entries, "random_initial", d.random_initial)?,
            deadline_s: get(entries, "deadline_s", d.deadline_s)?,
            max_nodes: get(entries, "max_nodes", d.max_nodes)?,
            ie_mode: get(entries, "ie_mode", d.ie_mode)?,
            opt_level: get(entries, "opt_level", d.opt_level)?,
            extra_passes: get(entries, "extra_passes", d.extra_passes)?,
        })
    }
}

/// Everything that can go wrong in the pipeline.
#[derive(Debug, Clone)]
pub enum CompileError {
    /// Device parameters describe no valid target.
    InvalidTarget {
        /// What was wrong.
        reason: String,
    },
    /// The compiler does not handle this device family.
    UnsupportedTarget {
        /// Compiler name.
        compiler: String,
        /// Target name.
        target: String,
        /// Why it cannot compile for it.
        reason: String,
    },
    /// An option was set that this compiler cannot honor.
    UnsupportedOption {
        /// Compiler name.
        compiler: String,
        /// The offending option and why.
        option: String,
    },
    /// A bounded search ran out of budget (the paper's "TLE").
    Timeout {
        /// Compiler name.
        compiler: String,
        /// The configured wall-clock budget.
        budget_s: f64,
        /// Wall-clock seconds actually spent before giving up (can be far
        /// below `budget_s` when the node budget ran out first).
        elapsed_s: f64,
        /// Search nodes expanded before giving up.
        nodes: u64,
    },
    /// A pass in the tail failed (an invariant it depends on, or — for
    /// verify passes — the property it checks).
    Pass {
        /// Compiler name.
        compiler: String,
        /// Name of the failing pass.
        pass: String,
        /// What went wrong.
        reason: String,
    },
    /// The compiled kernel failed post-compile verification.
    Verification {
        /// Compiler name.
        compiler: String,
        /// The verifier's report.
        report: String,
    },
    /// No compiler with this name is registered.
    UnknownCompiler {
        /// The requested name.
        name: String,
        /// Names that are registered.
        available: Vec<String>,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::InvalidTarget { reason } => write!(f, "invalid target: {reason}"),
            CompileError::UnsupportedTarget {
                compiler,
                target,
                reason,
            } => {
                write!(f, "{compiler} cannot compile for {target}: {reason}")
            }
            CompileError::UnsupportedOption { compiler, option } => {
                write!(f, "{compiler} does not support option: {option}")
            }
            CompileError::Timeout {
                compiler,
                budget_s,
                elapsed_s,
                nodes,
            } => {
                write!(
                    f,
                    "{compiler} gave up after {elapsed_s:.2}s ({nodes} nodes expanded, \
                     budget {budget_s}s)"
                )
            }
            CompileError::Pass {
                compiler,
                pass,
                reason,
            } => {
                write!(f, "{compiler}: pass '{pass}' failed: {reason}")
            }
            CompileError::Verification { compiler, report } => {
                write!(f, "{compiler} produced an invalid kernel: {report}")
            }
            CompileError::UnknownCompiler { name, available } => {
                write!(
                    f,
                    "unknown compiler '{name}' (available: {})",
                    available.join(", ")
                )
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// The compiler output artifact: mapped circuit, cost metrics, provenance,
/// wall-clock compile time, and on-demand QASM export.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompileResult {
    /// Name of the compiler that produced this result.
    pub compiler: String,
    /// Architecture name of the target (e.g. `sycamore-6x6`).
    pub target: String,
    /// Number of logical qubits.
    pub n: usize,
    /// Cost metrics under the requested latency model.
    pub metrics: Metrics,
    /// Wall-clock compile time in seconds (construct stage + pass tail +
    /// verification).
    pub compile_s: f64,
    /// Per-pass breakdown of the tail: one report per pass run, in order,
    /// with wall time and op/SWAP/depth deltas.
    pub passes: Vec<PassReport>,
    /// Free-form annotation (e.g. accounting concessions).
    pub note: String,
    /// The hardware-mapped circuit itself.
    pub circuit: MappedCircuit,
}

impl CompileResult {
    /// OpenQASM 2.0 text of the mapped circuit. Generated lazily — the
    /// export walks the op stream only when asked for.
    pub fn qasm(&self) -> String {
        qft_ir::qasm::mapped_to_qasm(&self.circuit)
    }

    /// Uniform-latency depth of the circuit (independent of the metrics'
    /// latency model).
    pub fn depth_uniform(&self) -> u64 {
        self.circuit.depth_uniform()
    }

    /// Total wall-clock seconds spent in the pass tail.
    pub fn pass_s(&self) -> f64 {
        self.passes.iter().map(|p| p.wall_s).sum()
    }

    /// Zeroes every wall-clock field (`compile_s` and the per-pass
    /// `wall_s` columns) in place. Wall times are the only
    /// non-deterministic part of a result: with them stripped, compiling
    /// the same request twice yields byte-identical serialized artifacts,
    /// which is what lets a serving layer cache results and hand them
    /// across threads while still promising determinism (the timings move
    /// to response metadata instead).
    pub fn strip_wall_times(&mut self) {
        self.compile_s = 0.0;
        for p in &mut self.passes {
            p.wall_s = 0.0;
        }
    }
}

/// A QFT kernel compiler: anything that maps the full-device QFT onto a
/// [`Target`]. Implemented by the paper's four analytical mappers and all
/// three baselines; open for new compilers without touching this crate.
pub trait QftCompiler: Send + Sync {
    /// Registry name (e.g. `"sabre"`).
    fn name(&self) -> &'static str;

    /// One-line description for listings.
    fn description(&self) -> &'static str;

    /// Whether this compiler can target `target` at all.
    fn supports(&self, target: &Target) -> bool {
        let _ = target;
        true
    }

    /// Compiles the full-device QFT kernel for `target` under `opts`.
    fn compile(
        &self,
        target: &Target,
        opts: &CompileOptions,
    ) -> Result<CompileResult, CompileError>;
}

/// Assembles the pass tail for one compile: the AQFT truncation stage
/// (when [`CompileOptions::approximation`] is set), the `opt_level`
/// defaults, then `extra_passes` (resolved through
/// [`qft_ir::passes::named`]), then the layout-replay check as the final
/// gate (levels ≥ 1).
///
/// The truncation stage is semantic, not an optimization, so
/// `aqft-truncate` runs at *every* opt level (for the search compilers,
/// which already routed a truncated logical circuit, it is a no-op); its
/// stranded-routing cleanup (`prune-dead-swap-chains`, after the shared
/// `cancel-adjacent-swaps` peephole) joins at levels ≥ 1. A requested
/// degree of 0 is rejected here with a descriptive error for every
/// compiler.
///
/// Without approximation, level 1 runs only rewrites that are no-ops on
/// every compiler's construct-stage output (the analytical schedules and
/// both searches emit no cancellable SWAP pairs), so default-option
/// compiles are byte-for-byte identical to the pre-pass-pipeline
/// compilers.
pub fn pass_manager_for(
    compiler: &str,
    opts: &CompileOptions,
) -> Result<PassManager, CompileError> {
    let mut pm = PassManager::new();
    validate_approximation(compiler, opts)?;
    if let Some(degree) = opts.approximation {
        pm.push(Box::new(passes::AqftTruncate { degree }));
    }
    if opts.opt_level >= 1 {
        pm.push(Box::new(passes::CancelAdjacentSwaps));
        if opts.approximation.is_some() {
            pm.push(Box::new(passes::PruneDeadSwapChains));
        }
    }
    if opts.opt_level >= 2 {
        pm.push(Box::new(passes::MergeSwapCphase));
        pm.push(Box::new(passes::AsapLayering));
    }
    for name in &opts.extra_passes {
        pm.push(
            passes::named(name).ok_or_else(|| CompileError::UnsupportedOption {
                compiler: compiler.to_string(),
                option: format!(
                    "unknown pass '{name}' (available: {}, aqft-truncate(k))",
                    passes::PASS_NAMES.join(", ")
                ),
            })?,
        );
    }
    if opts.opt_level >= 1 {
        pm.push(Box::new(passes::CheckLayout));
    }
    Ok(pm)
}

/// Shared post-construct plumbing: the [`PassManager`] tail, optional
/// symbolic verification, metrics under the requested latency model, and
/// result assembly. Every implementation funnels through here so the
/// artifact semantics — including the per-pass breakdown and a compile
/// time that covers the whole pipeline — stay uniform. `started` is when
/// the construct stage began.
pub fn finish_result(
    compiler: &'static str,
    target: &Target,
    opts: &CompileOptions,
    mut circuit: MappedCircuit,
    started: Instant,
) -> Result<CompileResult, CompileError> {
    let pm = pass_manager_for(compiler, opts)?;
    let graph = target.graph();
    let adjacent = |a, b| graph.are_adjacent(a, b);
    let ctx = PassCtx::with_adjacency(&adjacent);
    let pass_reports = pm.run(&mut circuit, &ctx).map_err(|e| CompileError::Pass {
        compiler: compiler.to_string(),
        pass: e.pass,
        reason: e.reason,
    })?;
    match opts.verify {
        VerifyLevel::None => {}
        VerifyLevel::Symbolic => {
            if opts.approximation.is_some() {
                return Err(CompileError::UnsupportedOption {
                    compiler: compiler.to_string(),
                    option: "symbolic verification of approximate (truncated) QFT kernels"
                        .to_string(),
                });
            }
            qft_sim::symbolic::verify_qft_mapping(&circuit, target.graph()).map_err(|e| {
                CompileError::Verification {
                    compiler: compiler.to_string(),
                    report: e.to_string(),
                }
            })?;
        }
    }
    let metrics = match opts.latency {
        LatencyModel::TargetDefault => target.graph().metrics_of(&circuit),
        LatencyModel::Uniform => Metrics::of(&circuit),
    };
    Ok(CompileResult {
        compiler: compiler.to_string(),
        target: target.name().to_string(),
        n: circuit.n_logical(),
        metrics,
        compile_s: started.elapsed().as_secs_f64(),
        passes: pass_reports,
        note: String::new(),
        circuit,
    })
}

/// Rejects a requested AQFT degree of 0 with a descriptive error. Part of
/// [`pass_manager_for`]'s assembly, and also called *before* the construct
/// stage by compilers that consume a truncated logical circuit (SABRE, the
/// optimal A*), so the error fires before any search work — and before
/// [`qft_ir::qft::aqft_circuit`]'s degree assertion could trip.
pub fn validate_approximation(compiler: &str, opts: &CompileOptions) -> Result<(), CompileError> {
    if opts.approximation == Some(0) {
        return Err(CompileError::UnsupportedOption {
            compiler: compiler.to_string(),
            option: "approximation degree 0 (a degree-0 AQFT truncates every rotation; \
                     use degree >= 1, or no approximation for the exact QFT)"
                .to_string(),
        });
    }
    Ok(())
}

fn wrong_family(compiler: &'static str, target: &Target, expected: &str) -> CompileError {
    CompileError::UnsupportedTarget {
        compiler: compiler.to_string(),
        target: target.name().to_string(),
        reason: format!("this analytical mapper only handles {expected} targets"),
    }
}

// ---------------------------------------------------------------------------
// The paper's four analytical mappers as pipeline compilers.
// ---------------------------------------------------------------------------

/// The LNN wavefront mapper (§2.2): 4N−6 two-qubit layers on a line.
#[derive(Debug, Clone, Copy, Default)]
pub struct LnnMapper;

impl LnnMapper {
    /// The construct stage: emits the raw wavefront schedule with no pass
    /// tail (what `opt_level = 0` compiles reduce to).
    pub fn construct(&self, target: &Target) -> Result<MappedCircuit, CompileError> {
        let TargetSpec::Lnn { n } = target.spec() else {
            return Err(wrong_family(self.name(), target, "LNN"));
        };
        Ok(compile_lnn(n))
    }
}

impl QftCompiler for LnnMapper {
    fn name(&self) -> &'static str {
        "lnn"
    }

    fn description(&self) -> &'static str {
        "analytical LNN wavefront schedule (4N-6 two-qubit layers)"
    }

    fn supports(&self, target: &Target) -> bool {
        matches!(target.spec(), TargetSpec::Lnn { .. })
    }

    fn compile(
        &self,
        target: &Target,
        opts: &CompileOptions,
    ) -> Result<CompileResult, CompileError> {
        let t0 = Instant::now();
        let mc = self.construct(target)?;
        finish_result(self.name(), target, opts, mc, t0)
    }
}

/// The Sycamore two-row-unit mapper (§5).
#[derive(Debug, Clone, Copy, Default)]
pub struct SycamoreMapper;

impl SycamoreMapper {
    /// The construct stage: emits the raw two-row-unit schedule.
    pub fn construct(&self, target: &Target) -> Result<MappedCircuit, CompileError> {
        let s = target
            .as_sycamore()
            .ok_or_else(|| wrong_family(self.name(), target, "Sycamore"))?;
        Ok(compile_sycamore(s))
    }
}

impl QftCompiler for SycamoreMapper {
    fn name(&self) -> &'static str {
        "sycamore"
    }

    fn description(&self) -> &'static str {
        "analytical Sycamore two-row-unit mapper (7N + O(sqrt N) depth)"
    }

    fn supports(&self, target: &Target) -> bool {
        target.as_sycamore().is_some()
    }

    fn compile(
        &self,
        target: &Target,
        opts: &CompileOptions,
    ) -> Result<CompileResult, CompileError> {
        let t0 = Instant::now();
        let mc = self.construct(target)?;
        finish_result(self.name(), target, opts, mc, t0)
    }
}

/// The heavy-hex main-line-plus-danglers mapper (§4).
#[derive(Debug, Clone, Copy, Default)]
pub struct HeavyHexMapper;

impl HeavyHexMapper {
    /// The construct stage: emits the raw main-line-plus-danglers schedule.
    pub fn construct(&self, target: &Target) -> Result<MappedCircuit, CompileError> {
        let hh = target
            .as_heavy_hex()
            .ok_or_else(|| wrong_family(self.name(), target, "heavy-hex"))?;
        Ok(compile_heavyhex(hh))
    }
}

impl QftCompiler for HeavyHexMapper {
    fn name(&self) -> &'static str {
        "heavyhex"
    }

    fn description(&self) -> &'static str {
        "analytical heavy-hex mapper (5N depth on 4+1 groups, <= 6N general)"
    }

    fn supports(&self, target: &Target) -> bool {
        target.as_heavy_hex().is_some()
    }

    fn compile(
        &self,
        target: &Target,
        opts: &CompileOptions,
    ) -> Result<CompileResult, CompileError> {
        let t0 = Instant::now();
        let mc = self.construct(target)?;
        finish_result(self.name(), target, opts, mc, t0)
    }
}

/// The lattice-surgery unit mapper (§6), latency-aware by construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatticeMapper;

impl LatticeMapper {
    /// The construct stage: emits the raw unit schedule under `ie_mode`.
    pub fn construct(
        &self,
        target: &Target,
        ie_mode: IeMode,
    ) -> Result<MappedCircuit, CompileError> {
        let l = target
            .as_lattice_surgery()
            .ok_or_else(|| wrong_family(self.name(), target, "lattice-surgery"))?;
        Ok(compile_lattice_with(l, ie_mode))
    }
}

impl QftCompiler for LatticeMapper {
    fn name(&self) -> &'static str {
        "lattice"
    }

    fn description(&self) -> &'static str {
        "analytical lattice-surgery unit mapper (heterogeneous-latency aware)"
    }

    fn supports(&self, target: &Target) -> bool {
        target.as_lattice_surgery().is_some()
    }

    fn compile(
        &self,
        target: &Target,
        opts: &CompileOptions,
    ) -> Result<CompileResult, CompileError> {
        let t0 = Instant::now();
        let mc = self.construct(target, opts.ie_mode)?;
        finish_result(self.name(), target, opts, mc, t0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytical_mappers_compile_their_families() {
        let cases: [(&dyn QftCompiler, Target); 4] = [
            (&LnnMapper, Target::lnn(8).unwrap()),
            (&SycamoreMapper, Target::sycamore(4).unwrap()),
            (&HeavyHexMapper, Target::heavy_hex_groups(2).unwrap()),
            (&LatticeMapper, Target::lattice_surgery(4).unwrap()),
        ];
        for (c, t) in cases {
            assert!(c.supports(&t), "{} must support {}", c.name(), t.name());
            let r = c.compile(&t, &CompileOptions::verified()).unwrap();
            assert_eq!(r.n, t.n_qubits());
            assert_eq!(r.compiler, c.name());
            assert_eq!(r.target, t.name());
            assert_eq!(r.metrics.cphases, r.n * (r.n - 1) / 2);
            assert!(r.compile_s >= 0.0);
        }
    }

    #[test]
    fn mappers_reject_foreign_targets() {
        let lattice = Target::lattice_surgery(3).unwrap();
        let err = SycamoreMapper.compile(&lattice, &CompileOptions::default());
        assert!(matches!(err, Err(CompileError::UnsupportedTarget { .. })));
        assert!(!SycamoreMapper.supports(&lattice));
    }

    #[test]
    fn analytical_mappers_accept_aqft_truncation() {
        let degree = 2u32;
        let cases: [(&dyn QftCompiler, Target); 4] = [
            (&LnnMapper, Target::lnn(8).unwrap()),
            (&SycamoreMapper, Target::sycamore(4).unwrap()),
            (&HeavyHexMapper, Target::heavy_hex_groups(2).unwrap()),
            (&LatticeMapper, Target::lattice_surgery(4).unwrap()),
        ];
        for (c, t) in cases {
            let opts = CompileOptions::default().with_approximation(degree);
            let r = c
                .compile(&t, &opts)
                .unwrap_or_else(|e| panic!("{}: {e}", c.name()));
            let full = c.compile(&t, &CompileOptions::default()).unwrap();
            // Degree 2 keeps exactly the n-1 nearest-neighbor rotations.
            assert_eq!(r.metrics.cphases, r.n - 1, "{}", c.name());
            assert_eq!(r.metrics.hadamards, r.n, "{}", c.name());
            assert!(r.metrics.depth < full.metrics.depth, "{}", c.name());
            let dropped: usize = r.passes.iter().map(|p| p.dropped_rotations).sum();
            assert_eq!(
                dropped,
                full.metrics.cphases - r.metrics.cphases,
                "{}: PassReport must account for every dropped rotation",
                c.name()
            );
            assert!(
                r.passes.iter().any(|p| p.pass == "prune-dead-swap-chains"),
                "{}: the stranded-routing cleanup must run",
                c.name()
            );
        }
    }

    #[test]
    fn aqft_degree_zero_is_a_described_error() {
        let t = Target::lnn(6).unwrap();
        let opts = CompileOptions::default().with_approximation(0);
        match LnnMapper.compile(&t, &opts) {
            Err(CompileError::UnsupportedOption { option, .. }) => {
                assert!(option.contains("degree 0"), "{option}");
                assert!(option.contains("degree >= 1"), "{option}");
            }
            other => panic!("expected UnsupportedOption, got {other:?}"),
        }
    }

    #[test]
    fn aqft_degree_above_n_truncates_nothing() {
        let t = Target::lnn(6).unwrap();
        let r = LnnMapper
            .compile(&t, &CompileOptions::default().with_approximation(99))
            .unwrap();
        assert_eq!(r.metrics.cphases, 6 * 5 / 2);
        assert_eq!(
            r.passes.iter().map(|p| p.dropped_rotations).sum::<usize>(),
            0
        );
    }

    #[test]
    fn compile_options_serde_roundtrip_and_defaults() {
        let opts = CompileOptions::default()
            .with_approximation(3)
            .with_opt_level(2)
            .with_seed(7)
            .with_ie_mode(IeMode::Strict)
            .with_extra_pass("asap-layering");
        let json = serde_json::to_string(&opts).unwrap();
        let back: CompileOptions = serde_json::from_str(&json).unwrap();
        assert_eq!(back, opts);
        // Missing fields default; `null` is the default set; unknown
        // fields are rejected with the vocabulary.
        let sparse: CompileOptions = serde_json::from_str(r#"{"opt_level": 2}"#).unwrap();
        assert_eq!(sparse, CompileOptions::default().with_opt_level(2));
        let empty: CompileOptions = serde_json::from_str("{}").unwrap();
        assert_eq!(empty, CompileOptions::default());
        let null: CompileOptions = serde_json::from_str("null").unwrap();
        assert_eq!(null, CompileOptions::default());
        let err = serde_json::from_str::<CompileOptions>(r#"{"optlevel": 2}"#).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("unknown CompileOptions field 'optlevel'"),
            "{msg}"
        );
        assert!(msg.contains("opt_level"), "{msg}");
    }

    #[test]
    fn strip_wall_times_zeroes_every_timing_field() {
        let t = Target::lnn(8).unwrap();
        let mut r = LnnMapper
            .compile(&t, &CompileOptions::default().with_approximation(3))
            .unwrap();
        assert!(!r.passes.is_empty());
        r.strip_wall_times();
        assert_eq!(r.compile_s, 0.0);
        assert_eq!(r.pass_s(), 0.0);
        assert!(r.passes.iter().all(|p| p.wall_s == 0.0));
    }

    #[test]
    fn lattice_metrics_respect_latency_model() {
        let t = Target::lattice_surgery(6).unwrap();
        let weighted = LatticeMapper
            .compile(&t, &CompileOptions::default())
            .unwrap();
        let uniform = LatticeMapper
            .compile(
                &t,
                &CompileOptions::default().with_latency(LatencyModel::Uniform),
            )
            .unwrap();
        assert!(weighted.metrics.depth > uniform.metrics.depth);
        assert_eq!(weighted.metrics.swaps, uniform.metrics.swaps);
    }

    #[test]
    fn qasm_export_is_available_on_demand() {
        let t = Target::lnn(4).unwrap();
        let r = LnnMapper.compile(&t, &CompileOptions::default()).unwrap();
        let qasm = r.qasm();
        assert!(qasm.starts_with("OPENQASM 2.0;"));
        assert!(qasm.contains("qreg q[4];"));
    }
}
