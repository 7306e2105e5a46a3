//! Shared helpers for the integration suites: the cross-compiler AQFT
//! equivalence harness, and the serving suites' requests, fleets and
//! waits.
//!
//! Every (compiler × degree × n) cell funnels through [`check_cell`]:
//! compile through the registry, then prove the mapped kernel
//! state-vector-equivalent to the truncated logical reference
//! `logical_qft(n, degree)` from `crates/baselines` (the same circuit the
//! search compilers route, and — by delegation to
//! `qft_ir::qft::aqft_circuit` — the same truncation the `aqft-truncate`
//! pass applies post-mapping, so `qft_sim::equiv::mapped_equals_aqft`
//! checks the identical property and is not re-run per cell).

// Each integration-test crate compiles its own copy of this module and
// uses a different subset of the helpers.
#![allow(dead_code)]

use qft_kernels::baselines::pipeline::logical_qft;
use qft_kernels::serve::NetServer;
use qft_kernels::sim::equiv::{self, ReferenceChecker, SparseChecker, FIDELITY_EPS};
use qft_kernels::sim::state::StateVector;
use qft_kernels::{
    registry, CompileOptions, CompileRequest, CompileResponse, CompileResult, CompileService,
    IeMode, Target,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Random probe states per equivalence check (plus `|0…0⟩` and `|1…1⟩`).
pub const N_RANDOM_STATES: u64 = 3;

/// Random probe *pairs* per sparse matrix-element check (on top of the
/// three canonical pairs); odd-indexed ones carry 6-term superposition
/// kets, so the sparse peak-occupancy bound for a checker run is
/// `2 × 6 = 12` nonzeros.
pub const N_RANDOM_PAIRS: usize = 4;

/// The documented sparsity bound for checker probes: one branching H per
/// qubit live at a time × the largest probe ket (6 terms).
pub const SPARSE_PEAK_BOUND: usize = 12;

/// Every compiler the serve suites replay, in registration order.
pub const SERVE_COMPILERS: [&str; 7] = [
    "lnn", "sycamore", "heavyhex", "lattice", "sabre", "optimal", "lnn-path",
];

/// Request builder: a serve request for `compiler` on `target` with the
/// given options.
pub fn serve_request(compiler: &str, target: &str, opts: CompileOptions) -> CompileRequest {
    CompileRequest::new(compiler, target).with_options(opts)
}

/// The request the concurrency and byte-identity tests hammer: a
/// stochastic search compiler (so determinism is a property of the
/// pipeline, not just of analytical construction) with truncation and the
/// aggressive pass tail switched on.
pub fn contended_request() -> CompileRequest {
    serve_request(
        "sabre",
        "lattice:4",
        CompileOptions::default()
            .with_seed(7)
            .with_opt_level(2)
            .with_approximation(3),
    )
}

/// Distinct cheap requests: `lnn` on sizes 4..4+n (every size is its own
/// cache key and its own digest, so they spread across the ring).
pub fn distinct_requests(n: usize) -> Vec<CompileRequest> {
    (0..n)
        .map(|i| serve_request("lnn", &format!("lnn:{}", 4 + i), CompileOptions::default()))
        .collect()
}

/// The serialized artifact of a response: the bytes the determinism
/// contract compares.
pub fn artifact_bytes(resp: &CompileResponse) -> String {
    serde_json::to_string(&resp.result).expect("serialize artifact")
}

/// Backends for one test fleet: small worker pools (the suites run many
/// fleets under `--test-threads=8`), each service independent — shared
/// state between backends would hide affinity bugs.
pub fn spawn_fleet(n: usize) -> Vec<NetServer> {
    (0..n)
        .map(|_| {
            let service = CompileService::builder().workers(2).build();
            NetServer::bind("127.0.0.1:0", Arc::new(service)).expect("bind backend")
        })
        .collect()
}

pub fn fleet_addrs(fleet: &[NetServer]) -> Vec<SocketAddr> {
    fleet.iter().map(|s| s.local_addr()).collect()
}

/// Spins until `check` passes or the deadline expires — for counters that
/// are bumped by server threads asynchronously to what a client observed.
pub fn wait_until(what: &str, mut check: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !check() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Request builder for the property suites: deterministically maps
/// sampled field values onto a *valid* request — the compiler index picks
/// the name, `param` becomes a family-appropriate target spec (search
/// compilers get small LNN/lattice targets they can route), and the
/// remaining fields land in [`CompileOptions`]. Distinct field tuples may
/// only collide when they produce equal requests, which is exactly the
/// property the cache-key tests pin down.
pub fn serve_request_from_fields(
    compiler_idx: usize,
    param: usize,
    opt_level: u8,
    degree: Option<u32>,
    ie_strict: bool,
    seed: u64,
) -> CompileRequest {
    let compiler = SERVE_COMPILERS[compiler_idx % SERVE_COMPILERS.len()];
    let target = match compiler {
        "lnn" | "sabre" | "optimal" => format!("lnn:{}", 4 + param),
        "sycamore" => format!("sycamore:{}", 2 * (1 + param)),
        "heavyhex" => format!("heavyhex:{}", 1 + param),
        _ => format!("lattice:{}", 2 + param),
    };
    let mut opts = CompileOptions::default()
        .with_opt_level(opt_level)
        .with_seed(seed);
    opts.approximation = degree;
    if ie_strict {
        opts = opts.with_ie_mode(IeMode::Strict);
    }
    serve_request(compiler, &target, opts)
}

/// The probe inputs every equivalence check runs over (delegates to the
/// sim crate's canonical probe set).
pub fn probe_states(n: usize) -> Vec<StateVector> {
    equiv::probe_states(n, N_RANDOM_STATES)
}

/// Asserts that a compiled kernel's logical gate stream implements
/// `logical_qft(n, degree)` on every probe state, up to global phase.
///
/// Routed through the batched [`ReferenceChecker`]: the probe set is
/// packed once, the kernel's gate stream is decoded once for all states,
/// and the reference circuit is built once, not per input.
pub fn assert_matches_logical_qft(r: &CompileResult, degree: Option<u32>, label: &str) {
    let reference = logical_qft(r.n, degree);
    let mut checker = ReferenceChecker::new(&reference, probe_states(r.n));
    for (i, fidelity) in checker.logical_fidelities(&r.circuit).iter().enumerate() {
        assert!(
            (fidelity - 1.0).abs() < FIDELITY_EPS,
            "{label}: probe state #{i} diverges from the logical reference \
             (fidelity {fidelity})"
        );
    }
}

/// Compiles one (compiler × target × degree) cell through the registry and
/// verifies it against the truncated reference. Returns the result so
/// callers can make further per-cell assertions.
pub fn check_cell(
    compiler: &str,
    target: &Target,
    degree: u32,
    opts: CompileOptions,
) -> CompileResult {
    let label = format!("{compiler} on {} at degree {degree}", target.name());
    let r = registry()
        .compile(compiler, target, &opts.with_approximation(degree))
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_matches_logical_qft(&r, Some(degree), &label);
    // Structural sanity alongside the semantic check: the surviving
    // rotation multiset is exactly the degree-d pair set, and every
    // Hadamard survives truncation.
    assert_eq!(
        r.metrics.cphases,
        qft_kernels::ir::qft::aqft_pair_count(r.n, degree),
        "{label}: wrong surviving-rotation count"
    );
    assert_eq!(r.metrics.hadamards, r.n, "{label}: Hadamards must survive");
    r
}

/// The sparse-tier analogue of [`check_cell`], for registers far beyond
/// any `2^n` plane: compiles the cell, then proves the kernel equivalent
/// to the degree-`degree` AQFT by closed-form matrix elements — both the
/// logical interaction stream and the full physical op-stream replay —
/// and asserts the sparse engine stayed within [`SPARSE_PEAK_BOUND`].
pub fn check_sparse_cell(
    compiler: &str,
    target: &Target,
    degree: u32,
    opts: CompileOptions,
) -> CompileResult {
    let label = format!("{compiler} on {} at degree {degree}", target.name());
    let r = registry()
        .compile(compiler, target, &opts.with_approximation(degree))
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let mut checker = SparseChecker::for_aqft(r.n, degree, N_RANDOM_PAIRS)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    assert!(
        checker
            .matches_logical(&r.circuit)
            .unwrap_or_else(|e| panic!("{label}: {e}")),
        "{label}: logical stream diverges from the closed-form AQFT"
    );
    assert!(
        checker
            .matches_physically(&r.circuit)
            .unwrap_or_else(|e| panic!("{label}: {e}")),
        "{label}: physical replay diverges from the closed-form AQFT"
    );
    assert!(
        checker.peak_nonzeros() <= SPARSE_PEAK_BOUND,
        "{label}: sparse peak {} exceeds the documented bound {}",
        checker.peak_nonzeros(),
        SPARSE_PEAK_BOUND
    );
    assert_eq!(
        r.metrics.cphases,
        qft_kernels::ir::qft::aqft_pair_count(r.n, degree),
        "{label}: wrong surviving-rotation count"
    );
    assert_eq!(r.metrics.hadamards, r.n, "{label}: Hadamards must survive");
    r
}
