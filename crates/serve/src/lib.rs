//! # qft-serve — the compile service at production concurrency
//!
//! The ROADMAP's serving layer over the pipeline API: one process-wide
//! [`Registry`] shared by every request, wrapped in serde
//! request/response types so the whole surface speaks JSON, and built to
//! stay fast when many threads pile on at once:
//!
//! * **Sharded result cache** ([`crate::cache`]) — N independently-locked
//!   LRU shards with O(1) recency, keyed by a 128-bit digest of the
//!   canonical request JSON ([`crate::digest`]), so cached hits scale
//!   with threads instead of convoying on one global mutex;
//! * **Singleflight miss dedup** ([`crate::flight`]) — a duplicate storm
//!   of N identical concurrent requests performs exactly **one** compile;
//!   the other N−1 block on the in-flight entry and share the same
//!   `Arc<CompileResult>`;
//! * **Persistent worker pool** — `workers` threads spawned once at
//!   service construction drain a bounded admission queue; a full queue
//!   blocks the submitter or sheds with a descriptive `overloaded`
//!   error per the [`Backpressure`] policy;
//! * **Streaming + batch traffic** — [`CompileService::compile`] for
//!   synchronous single requests, [`CompileService::submit`] for
//!   pipelined traffic (the caller's seq and reply channel, so one
//!   thread can submit while another receives), and
//!   [`CompileService::compile_batch`] for order-preserving batches;
//! * [`ServeStats`] — lock-free admission metrics: hits, misses,
//!   dedup joins, evictions, sheds, queue depth, in-flight compiles, and
//!   a p50/p99 latency window, serde-able for dashboards, plus a
//!   [`ServeStats::hit_rate`] helper;
//! * **Network front end** ([`crate::proto`]/[`crate::server`]/
//!   [`crate::client`]) — a std-only TCP layer speaking length-prefixed
//!   JSON frames (spec in `crates/serve/PROTOCOL.md`): [`NetServer`]
//!   runs a thread-per-connection accept loop over one shared service
//!   with graceful drain, a wire-level `stats` kind, and shed
//!   backpressure surfaced as a structured `overloaded` frame with a
//!   retry-after hint; [`NetClient`] is the blocking client with a
//!   retry-after-honoring [`RetryPolicy`];
//! * **Front-tier router** ([`crate::router`]/[`crate::pool`]) —
//!   horizontal scale-out: a [`Router`] consistent-hashes
//!   [`CompileRequest::key_digest`] across N backend [`NetServer`]
//!   addresses (digest affinity concentrates each key's cache entry and
//!   singleflight in one process), multiplexing a bounded [`PoolClient`]
//!   per backend, marking backends down on transport failure, probing
//!   them back, and replaying failed requests to the next backend on
//!   the ring — killing a backend mid-traffic loses zero accepted
//!   requests;
//! * **Elastic ring membership + warm-up replay** ([`crate::warmup`]) —
//!   [`Router::add_backend`]/[`Router::remove_backend`] resize a *live*
//!   ring under a versioned snapshot with the minimal-remap guarantee
//!   (only keys the joiner now owns change owner; removal drains
//!   in-flight requests first), and a joining backend bulk-fetches the
//!   cache entries for keys it now owns from the previous owners over
//!   the wire (`warmup-request`/`warmup-batch` frames, chunked under the
//!   frame cap, each entry integrity-checked by re-digest at import) —
//!   so a scale-out event starts warm instead of recompiling the
//!   working set.
//!
//! Cached results are **byte-deterministic**: wall times are stripped
//! from the artifact (they live in the response metadata instead), so a
//! cache hit — or a singleflight join — returns bytes identical to the
//! cold miss, and N threads compiling the same request all serialize the
//! same artifact.
//!
//! ```
//! use qft_serve::{CompileRequest, CompileService};
//!
//! let service = CompileService::new();
//! let req = CompileRequest::new("heavyhex", "heavyhex:2");
//! let cold = service.compile(&req).unwrap();
//! let warm = service.compile(&req).unwrap();
//! assert!(!cold.cached && warm.cached);
//! assert_eq!(
//!     serde_json::to_string(&cold.result).unwrap(),
//!     serde_json::to_string(&warm.result).unwrap(),
//! );
//! assert!(service.stats().hit_rate() > 0.0);
//! ```

#![warn(missing_docs)]

mod cache;
pub mod client;
pub mod digest;
mod flight;
mod metrics;
pub mod pool;
pub mod proto;
mod queue;
pub mod router;
pub mod server;
pub mod service;
pub mod types;
pub mod warmup;

pub use client::{ClientConfig, ClientError, NetClient, NetEvent, RetryPolicy};
pub use pool::PoolClient;
pub use router::{BackendState, Routed, Router, RouterConfig};
pub use server::{DrainSummary, NetServer, NetStats, ServerConfig};
pub use service::{
    Backpressure, CompileService, Reply, ServiceBuilder, DEFAULT_CACHE_CAPACITY,
    DEFAULT_QUEUE_CAPACITY,
};
pub use types::{BackendStats, CompileRequest, CompileResponse, ServeError, ServeStats};
pub use warmup::{DonorOutcome, OwnedPredicate, WarmupEntry, WarmupImport, WarmupReport};

use qft_core::Registry;
use std::sync::OnceLock;

/// The process-wide shared compiler registry: the paper's four analytical
/// mappers plus the three baselines, built once behind a `OnceLock` and
/// shared by every service, thread, and caller for the life of the
/// process. `qft_kernels::registry()` delegates here, so the facade crate
/// and the service always agree on the instance.
pub fn shared_registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut r = Registry::with_core();
        qft_baselines::register_baselines(&mut r);
        r
    })
}
