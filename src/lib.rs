//! # qft-kernels — linear-depth QFT compilation for NISQ and FT backends
//!
//! A full reproduction of "Optimizing Quantum Fourier Transformation (QFT)
//! Kernels for Modern NISQ and FT Architectures" (SC 2024): analytical
//! (search-free) qubit mapping that produces linear-depth hardware QFT
//! circuits on IBM heavy-hex, Google Sycamore, and surface-code lattice
//! surgery, plus the baselines, simulator, and program-synthesis tooling
//! the paper's evaluation depends on.
//!
//! Crate map:
//! * [`ir`] — circuit IR, dependency DAGs (Type I/II), metrics, QASM, and
//!   the pass subsystem ([`PassManager`] + shared peephole/verify passes);
//! * [`arch`] — coupling-graph models of every backend;
//! * [`sim`] — fast state-vector engine (branch-free kernels, lazy
//!   SWAPs, batched multi-state verification with a retained `naive`
//!   differential oracle) + scalable symbolic verifier;
//! * [`synth`] — enumerative SKETCH-substitute for movement patterns;
//! * [`baselines`] — SABRE, exact-optimal A* (SATMAP substitute), LNN path;
//! * [`core`] — the paper's compilers and the pipeline API ([`Target`],
//!   [`QftCompiler`], [`CompileOptions`] → [`CompileResult`]);
//! * [`serve`] — the batched/concurrent compile service: JSON
//!   [`CompileRequest`]/[`CompileResponse`] types, a [`CompileService`]
//!   with a bounded worker pool and a keyed LRU result cache, the TCP
//!   front end ([`NetServer`]/[`NetClient`]), a consistent-hash
//!   [`Router`] for multi-backend scale-out, and the process-wide shared
//!   registry behind [`registry()`].
//!
//! Every compiler — the four analytical mappers *and* the three baselines —
//! implements the same [`QftCompiler`] trait and is resolvable by name
//! through [`registry()`], so harnesses drive them interchangeably. Each
//! compile runs construct → optimize → verify: the compiler's construct
//! stage emits a raw schedule, then a shared [`PassManager`] tail (chosen
//! by [`CompileOptions::opt_level`] and `extra_passes`) applies the
//! peephole/scheduling/verify passes, and the per-pass breakdown lands in
//! [`CompileResult::passes`].
//!
//! ## Quickstart
//!
//! ```
//! use qft_kernels::{registry, CompileOptions, Target, VerifyLevel};
//!
//! // A validated target: 2 heavy-hex groups = a 10-qubit device.
//! let target = Target::heavy_hex_groups(2).unwrap();
//!
//! // Resolve any registered compiler by name and run the same pipeline.
//! let opts = CompileOptions { verify: VerifyLevel::Symbolic, ..Default::default() };
//! let result = registry().get("heavyhex").unwrap().compile(&target, &opts).unwrap();
//!
//! assert_eq!(result.metrics.cphases, 10 * 9 / 2);
//! assert!(result.qasm().starts_with("OPENQASM 2.0;"));
//!
//! // The baselines answer to the same API:
//! let sabre = registry().get("sabre").unwrap().compile(&target, &opts).unwrap();
//! assert!(result.metrics.depth < sabre.metrics.depth);
//! ```

#![warn(missing_docs)]

pub use qft_arch as arch;
pub use qft_baselines as baselines;
pub use qft_core as core;
pub use qft_ir as ir;
pub use qft_serve as serve;
pub use qft_sim as sim;
pub use qft_synth as synth;

pub use qft_core::{
    pass_manager_for, CompileError, CompileOptions, CompileResult, IeMode, LatencyModel,
    QftCompiler, Registry, Target, TargetSpec, VerifyLevel,
};
pub use qft_ir::passes::{Pass, PassCtx, PassError, PassManager, PassReport};
pub use qft_serve::{
    Backpressure, ClientConfig, CompileRequest, CompileResponse, CompileService, NetClient,
    NetServer, PoolClient, RetryPolicy, Routed, Router, RouterConfig, ServeError, ServeStats,
    ServerConfig,
};

/// The process-wide compiler registry: the paper's four analytical mappers
/// (`lnn`, `sycamore`, `heavyhex`, `lattice`) plus the three baselines
/// (`sabre`, `optimal`, `lnn-path`) — one shared instance behind a
/// `OnceLock` ([`qft_serve::shared_registry`]), never rebuilt per call, so
/// every caller (bench bins, the serve layer, tests) resolves through the
/// same compilers.
///
/// For a custom set (overrides, extra compilers), build a
/// [`Registry`] directly: `Registry::with_core()` +
/// [`qft_baselines::register_baselines`] + your own
/// [`Registry::register`] calls.
pub fn registry() -> &'static Registry {
    qft_serve::shared_registry()
}

/// Names of every registered compiler, in registration order.
pub fn available_compilers() -> Vec<&'static str> {
    registry().names()
}
