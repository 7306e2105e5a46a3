//! The service's serde surface: requests, responses, errors, and counters.

use qft_core::{
    validate_approximation, CompileError, CompileOptions, CompileResult, QftCompiler, Registry,
    Target,
};
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// Most `extra_passes` a served request may name: each extra pass re-walks
/// the whole op stream on a pool worker (tens of milliseconds a pass on a
/// 1,024-qubit kernel), so an uncapped list could hold a worker for
/// minutes.
pub const MAX_EXTRA_PASSES: usize = 16;

/// One compile request: a compiler name (resolved through the shared
/// [`Registry`]), a compact target spec (`family:param`, e.g. `"lnn:16"`
/// or `"sycamore:6"` — parsed and validated by [`Target::parse`]), and a
/// full option set (missing JSON fields take their defaults, so
/// `{"compiler": "lnn", "target": "lnn:16"}` is a complete request).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompileRequest {
    /// Registry name of the compiler (`lnn`, `sycamore`, `heavyhex`,
    /// `lattice`, `sabre`, `optimal`, `lnn-path`).
    pub compiler: String,
    /// Compact target spec, `family:param` (see [`Target::parse`]).
    pub target: String,
    /// The option set forwarded to [`QftCompiler::compile`].
    pub options: CompileOptions,
}

impl CompileRequest {
    /// A request for `compiler` on `target` with default options.
    pub fn new(compiler: impl Into<String>, target: impl Into<String>) -> Self {
        CompileRequest {
            compiler: compiler.into(),
            target: target.into(),
            options: CompileOptions::default(),
        }
    }

    /// Builder-style: replace the option set.
    pub fn with_options(mut self, options: CompileOptions) -> Self {
        self.options = options;
        self
    }

    /// The request's cache key: the canonical (compact, declaration-order)
    /// JSON serialization of every request field — compiler, target spec,
    /// and the full option set. Two requests differing in *any* field get
    /// distinct keys; response-side timing (`compile_s`, per-pass
    /// `wall_s`/`pass_s`) is not a request field, so it can never leak
    /// into the key.
    pub fn cache_key(&self) -> String {
        serde_json::to_string(self).expect("a CompileRequest always serializes")
    }

    /// The 128-bit FNV-1a digest of [`CompileRequest::cache_key`] — what
    /// the cache actually indexes by, and what the router places on its
    /// ring. The JSON string is the canonical pre-image; the digest is
    /// its fixed-width stand-in, so lookups hash and compare 16 bytes
    /// however large the option set grows (debug builds audit every hit
    /// against the retained pre-image; see [`crate::digest`]).
    pub fn key_digest(&self) -> u128 {
        crate::digest::fnv1a_128(self.cache_key().as_bytes())
    }

    /// Validates the request against `registry` without compiling:
    /// resolves the compiler name (descriptive
    /// [`CompileError::UnknownCompiler`] listing what *is* registered),
    /// parses the target spec through [`Target::parse`] (reusing the
    /// `Target` constructors' validation — odd Sycamore `m`, zero
    /// heavy-hex groups, … come back as [`CompileError::InvalidTarget`]),
    /// and runs [`validate_approximation`] so a degree-0 AQFT is rejected
    /// before any work. It also bounds what one request may spend on a
    /// pool worker: a `deadline_s` above the default's (10 s) and more
    /// than [`MAX_EXTRA_PASSES`] extra passes are refused as
    /// [`CompileError::UnsupportedOption`]. In-process [`CompileOptions`]
    /// stay uncapped.
    pub fn validate<'r>(
        &self,
        registry: &'r Registry,
    ) -> Result<(&'r dyn QftCompiler, Target), CompileError> {
        let compiler = registry.resolve(&self.compiler)?;
        let target = Target::parse(&self.target)?;
        validate_approximation(&self.compiler, &self.options)?;
        let refuse = |option: String| CompileError::UnsupportedOption {
            compiler: self.compiler.clone(),
            option,
        };
        let deadline_cap = CompileOptions::default().deadline_s;
        if self.options.deadline_s > deadline_cap {
            return Err(refuse(format!(
                "deadline_s {} (a served compile may search for at most {deadline_cap} s)",
                self.options.deadline_s
            )));
        }
        if self.options.extra_passes.len() > MAX_EXTRA_PASSES {
            return Err(refuse(format!(
                "extra_passes naming {} passes (a served request may name at most \
                 {MAX_EXTRA_PASSES})",
                self.options.extra_passes.len()
            )));
        }
        Ok((compiler, target))
    }
}

/// One compile response: the artifact plus cache/timing metadata.
///
/// The embedded [`CompileResult`] has its wall-clock fields stripped
/// ([`CompileResult::strip_wall_times`]) before entering the cache, so it
/// is byte-deterministic: a hit serializes identically to the cold miss
/// that populated the entry. The timings live here instead.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompileResponse {
    /// Whether this response was served without compiling: a cache hit,
    /// or a follower of another request's in-flight compile.
    pub cached: bool,
    /// Whether this response *followed an in-flight compile*: its lookup
    /// found the key absent but already being compiled for another
    /// request, so it waited for that flight and received its artifact
    /// instead of recompiling.
    pub deduped: bool,
    /// The request's cache key (see [`CompileRequest::cache_key`]).
    pub cache_key: String,
    /// Service-side wall-clock seconds for *this* request: the cache
    /// lookup on a hit, the full compile on a miss.
    pub wall_s: f64,
    /// Wall-clock seconds of the cold compile that produced the artifact
    /// (preserved on cache hits, so clients always see the real cost).
    pub compile_s: f64,
    /// The compiled kernel, wall times stripped. Shared (`Arc`) with the
    /// cache entry, so a hit costs a reference bump, not a deep copy of
    /// the mapped circuit.
    pub result: Arc<CompileResult>,
}

/// A serve-layer error: a stable machine-readable `kind` plus the
/// underlying descriptive message. Serializes to JSON so the service can
/// answer malformed input with a diagnosis instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeError {
    /// Stable error class: the [`CompileError`] variant in kebab-case
    /// (`unknown-compiler`, `invalid-target`, `unsupported-option`,
    /// `unsupported-target`, `timeout`, `pass`, `verification`),
    /// `bad-request` for input that never parsed into a request,
    /// `draining` for a request that arrived after the server began a
    /// graceful shutdown, `after-goodbye` for a request pipelined behind
    /// the client's own goodbye frame, `unavailable` for a routed request
    /// that found no live backend (see [`crate::router`]), `protocol`
    /// for a connection whose byte stream violated the wire framing (see
    /// [`crate::proto`]), `too-large` for a compiled artifact whose
    /// response cannot fit a response frame, `invalid-config` for a
    /// router membership operation that can never be correct
    /// (empty/duplicate backend lists, removing the last member), or
    /// `internal` for a compile that panicked (a bug in a compiler,
    /// caught so the service keeps serving; never cached).
    pub kind: String,
    /// Human-readable diagnosis (the [`CompileError`] display text).
    pub error: String,
}

impl ServeError {
    /// An error for input that did not parse into a [`CompileRequest`].
    pub fn bad_request(reason: impl fmt::Display) -> Self {
        ServeError {
            kind: "bad-request".to_string(),
            error: reason.to_string(),
        }
    }

    /// A request refused because the server is draining: it stopped
    /// accepting new work, finishes what it already accepted, and closes
    /// each connection with a goodbye frame once its in-flight responses
    /// are delivered.
    pub fn draining() -> Self {
        ServeError {
            kind: "draining".to_string(),
            error: "server is draining: new requests are refused while accepted work finishes; \
                    reconnect to another instance or retry after the restart"
                .to_string(),
        }
    }

    /// A request refused because it arrived *after* the same client's
    /// goodbye frame. A goodbye announces "no further requests"; the
    /// session stays open only to drain responses already accepted, so a
    /// request pipelined behind it is a contract violation answered with
    /// this error — the session still closes once pending responses
    /// drain, instead of being held open indefinitely.
    pub fn after_goodbye() -> Self {
        ServeError {
            kind: "after-goodbye".to_string(),
            error: "request received after this connection's goodbye frame: a goodbye announces \
                    no further requests, and the session closes once already-accepted responses \
                    drain — open a new connection to submit more work"
                .to_string(),
        }
    }

    /// A routed request that exhausted every backend: each candidate on
    /// the ring was either already marked down or failed over during this
    /// request. `detail` names the backends tried and how each failed.
    pub fn unavailable(detail: impl fmt::Display) -> Self {
        ServeError {
            kind: "unavailable".to_string(),
            error: format!("no live backend could serve the request: {detail}"),
        }
    }

    /// A connection-level protocol violation (bad framing, malformed
    /// payload, a slow or stalled client). The diagnosis comes from the
    /// wire layer; the server sends it as a final error frame where the
    /// stream is still framed, then closes.
    pub fn protocol(diagnosis: impl fmt::Display) -> Self {
        ServeError {
            kind: "protocol".to_string(),
            error: diagnosis.to_string(),
        }
    }

    /// A response the server cannot send: its JSON takes `size` (exact,
    /// or a lower bound from the artifact's op count), over the `cap` of
    /// a response frame. Request-shaped: every backend would answer the
    /// same, so a router passes it through, and the connection keeps
    /// serving.
    pub fn too_large(size: impl fmt::Display, cap: usize) -> Self {
        ServeError {
            kind: "too-large".to_string(),
            error: format!(
                "the response takes {size} of JSON, over the {cap}-byte cap of a response \
                 frame: the artifact compiled but cannot be sent"
            ),
        }
    }

    /// A configuration that can never route or serve correctly — an
    /// empty backend list, a duplicate backend address, removing the
    /// last ring member. Raised at construction or membership-change
    /// time, before any socket is touched, so a misconfigured fleet
    /// fails loudly instead of degenerating silently.
    pub fn invalid_config(reason: impl fmt::Display) -> Self {
        ServeError {
            kind: "invalid-config".to_string(),
            error: reason.to_string(),
        }
    }

    /// A compile that panicked, from the panic's `payload`. The service
    /// catches the panic on the serving thread, so the pool keeps its
    /// worker and the flight's followers receive this error.
    pub(crate) fn internal(payload: &(dyn Any + Send)) -> Self {
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("(no message)");
        ServeError {
            kind: "internal".to_string(),
            error: format!("the compile panicked: {message}"),
        }
    }
}

impl From<CompileError> for ServeError {
    fn from(e: CompileError) -> Self {
        let kind = match e {
            CompileError::InvalidTarget { .. } => "invalid-target",
            CompileError::UnsupportedTarget { .. } => "unsupported-target",
            CompileError::UnsupportedOption { .. } => "unsupported-option",
            CompileError::Timeout { .. } => "timeout",
            CompileError::Pass { .. } => "pass",
            CompileError::Verification { .. } => "verification",
            CompileError::UnknownCompiler { .. } => "unknown-compiler",
        };
        ServeError {
            kind: kind.to_string(),
            error: e.to_string(),
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind, self.error)
    }
}

impl std::error::Error for ServeError {}

/// A serde-able snapshot of the service's admission metrics.
///
/// The cache counts each admission decision under its lock, and the
/// snapshot reads those counts with the occupancy in one critical
/// section, so the accounting identity holds in every snapshot, even
/// while compiles are in flight: `requests == hits + misses +
/// dedup_joins` — a request is answered from the cache, answered by
/// joining another thread's in-flight compile, or compiles itself
/// (`misses`, which includes failed compiles and compiles still
/// running).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Persistent worker threads draining the admission queue.
    pub workers: usize,
    /// Result-cache capacity (entries).
    pub cache_capacity: usize,
    /// Result-cache occupancy right now.
    pub cache_entries: usize,
    /// Admission-queue capacity (jobs).
    pub queue_capacity: usize,
    /// Jobs waiting in the admission queue right now.
    pub queue_depth: u64,
    /// Distinct keys being compiled right now: the flights held in the
    /// cache, one per leader.
    pub in_flight: u64,
    /// Requests accepted (`hits + misses + dedup_joins`).
    pub requests: u64,
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that lead a compile themselves: counted when they lead,
    /// so a compile still running (or one that failed) is a miss.
    pub misses: u64,
    /// Requests that followed another request's in-flight compile instead
    /// of recompiling.
    pub dedup_joins: u64,
    /// Entries dropped by LRU eviction.
    pub evictions: u64,
    /// Requests that ended in a [`ServeError`].
    pub errors: u64,
    /// Median service-side wall time over the most recent ~4096 requests
    /// (milliseconds; 0 before any traffic).
    pub p50_ms: f64,
    /// 99th-percentile service-side wall time over the same window
    /// (milliseconds).
    pub p99_ms: f64,
}

impl ServeStats {
    /// Fraction of accepted requests answered without compiling —
    /// cache hits plus followed flights over all requests. 0 before
    /// any traffic.
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        (self.hits + self.dedup_joins) as f64 / self.requests as f64
    }
}

/// A [`ServeStats`] snapshot tagged with the backend's identity — the
/// payload of a wire-level `stats` frame.
///
/// With one server per process the snapshot alone was enough; behind a
/// [`Router`][crate::router::Router] a stats answer is meaningless
/// without knowing *which* backend produced it, so the server stamps
/// every snapshot with its identity: its resolved listen address.
/// `ServeStats` itself stays `Copy` — the identity lives in this
/// envelope, not the counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackendStats {
    /// The answering server's identity: its resolved listen address.
    pub identity: String,
    /// The service counters, exactly the in-process snapshot.
    pub stats: ServeStats,
}
