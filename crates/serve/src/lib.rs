//! # qft-serve — the compile service at production concurrency
//!
//! The ROADMAP's serving layer over the pipeline API: one process-wide
//! [`Registry`] shared by every request, wrapped in serde
//! request/response types so the whole surface speaks JSON, and built to
//! stay fast when many threads pile on at once:
//!
//! * **One result cache** — an exact LRU with O(1) recency behind one
//!   lock, keyed by a 128-bit digest of the canonical request JSON
//!   ([`crate::digest`]);
//! * **Miss dedup in the cache** — the cache holds each key's in-flight
//!   compile beside its resident entries, and one lookup under its lock
//!   decides, and counts, hit, follow or lead: a duplicate storm of N
//!   identical concurrent requests performs exactly **one** compile, and
//!   the other N−1 follow its flight and share the same
//!   `Arc<CompileResult>`;
//! * **Persistent worker pool** — `workers` threads spawned once at
//!   service construction drain a bounded admission queue; a full queue
//!   blocks the submitter until a worker frees a slot;
//! * **Two entry points** — [`CompileService::compile`] serves one
//!   request on the caller's thread, and [`CompileService::submit`]
//!   queues one for the pool (the caller's seq and reply channel, so
//!   one thread can submit while another receives);
//! * [`ServeStats`] — admission metrics: hits, misses, dedup joins and
//!   evictions (read with the occupancy under the cache lock, so
//!   `requests = hits + misses + dedup_joins` in every snapshot), queue
//!   depth, in-flight compiles, and a lock-free p50/p99 latency window,
//!   serde-able for dashboards, plus a [`ServeStats::hit_rate`] helper;
//! * **Network front end** ([`crate::proto`]/[`crate::server`]/
//!   [`crate::client`]) — a std-only TCP layer speaking length-prefixed
//!   JSON frames (spec in `crates/serve/PROTOCOL.md`): [`NetServer`]
//!   runs a thread-per-connection accept loop over one shared service
//!   with graceful drain and a wire-level `stats` kind; [`NetClient`] is
//!   the blocking client;
//! * **Front-tier router** ([`crate::router`]/[`crate::pool`]) —
//!   horizontal scale-out: a [`Router`] consistent-hashes
//!   [`CompileRequest::key_digest`] across N backend [`NetServer`]
//!   addresses (digest affinity concentrates each key's cache entry and
//!   flight in one process), multiplexing a bounded [`PoolClient`]
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
//! cache hit — or a joined flight — returns bytes identical to the
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
mod metrics;
pub mod pool;
pub mod proto;
mod queue;
pub mod router;
pub mod server;
pub mod service;
pub mod types;
pub mod warmup;

pub use client::{ClientConfig, ClientError, NetClient, NetEvent};
pub use pool::PoolClient;
pub use router::{BackendState, Routed, Router, RouterConfig};
pub use server::{DrainSummary, NetServer, NetStats, ServerConfig};
pub use service::{CompileService, Reply, ServiceBuilder, DEFAULT_CACHE_CAPACITY, QUEUE_CAPACITY};
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
