//! The serving suite: concurrency determinism, cache semantics,
//! singleflight dedup, and the negative paths of the compile service.
//!
//! The determinism contract under test: because the service caches
//! results and hands them across threads, compiling the same
//! [`CompileRequest`] must yield **byte-identical** serialized
//! [`qft_kernels::CompileResult`]s — whichever thread compiled it,
//! whether it was a cold miss, a cache hit, or a singleflight join, and
//! whichever service instance served it (wall times are stripped from
//! the artifact and live in the [`qft_kernels::CompileResponse`]
//! metadata instead).
//!
//! The concurrency contract: a duplicate storm of N identical concurrent
//! requests performs **exactly one** compile (`stats.misses == 1`), with
//! every response sharing one `Arc`.

mod common;

use common::{
    contended_request, serve_request, serve_request_from_fields, wait_until, SERVE_COMPILERS,
};
use proptest::prelude::*;
use qft_kernels::serve::{shared_registry, Reply};
use qft_kernels::{
    registry, CompileError, CompileOptions, CompileRequest, CompileResponse, CompileResult,
    CompileService, IeMode, QftCompiler, Registry, ServeError, ServeStats, Target,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier, Condvar, Mutex};
use std::time::Duration;

#[test]
fn registry_is_one_process_wide_instance() {
    // The facade and the serve layer hand out the same shared instance…
    assert!(std::ptr::eq(registry(), shared_registry()));
    // …from every thread (OnceLock, not a per-call rebuild).
    let here = registry() as *const _ as usize;
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(move || {
                assert_eq!(registry() as *const _ as usize, here);
                assert_eq!(shared_registry() as *const _ as usize, here);
            });
        }
    });
    assert_eq!(registry().names(), SERVE_COMPILERS);
}

#[test]
fn n_threads_compile_byte_identical_results() {
    let service = CompileService::new();
    let req = contended_request();
    let n_threads = 8;
    let mut bytes: Vec<String> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_threads)
            .map(|_| {
                let service = &service;
                let req = &req;
                scope.spawn(move || {
                    let resp = service.compile(req).expect("contended compile");
                    serde_json::to_string(&resp.result).expect("serialize artifact")
                })
            })
            .collect();
        bytes.extend(handles.into_iter().map(|h| h.join().expect("worker")));
    });
    assert_eq!(bytes.len(), n_threads);
    for b in &bytes[1..] {
        assert_eq!(b, &bytes[0], "threads must serialize identical artifacts");
    }
    // Every request was served, and the admission identity holds: each
    // request either hit the cache, joined the in-flight compile, or
    // compiled — and singleflight guarantees exactly one compile.
    let stats = service.stats();
    assert_eq!(stats.requests, n_threads as u64);
    assert_eq!(
        stats.hits + stats.misses + stats.dedup_joins,
        n_threads as u64
    );
    assert_eq!(stats.misses, 1, "singleflight: exactly one compile");

    // Determinism is a pipeline property, not a cache artifact: a fresh
    // service (cold cache) reproduces the same bytes.
    let fresh = CompileService::new();
    let resp = fresh.compile(&req).expect("fresh compile");
    assert!(!resp.cached);
    assert_eq!(
        serde_json::to_string(&resp.result).unwrap(),
        bytes[0],
        "a cold compile in a fresh service must reproduce the cached bytes"
    );
}

/// The acceptance-criterion storm: 64 identical concurrent requests,
/// exactly 1 compile, all 64 responses sharing one `Arc` (byte-identical
/// by construction, pointer-identical by assertion).
#[test]
fn duplicate_storm_of_64_performs_exactly_one_compile() {
    let service = CompileService::new();
    let req = contended_request();
    let n_threads = 64;
    let barrier = Barrier::new(n_threads);
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_threads)
            .map(|_| {
                let (service, req, barrier) = (&service, &req, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let resp = service.compile(req).expect("storm compile");
                    (resp.cached, resp.deduped, resp.result)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let stats = service.stats();
    // The compile-count probe: misses counts requests that performed the
    // compile themselves, and singleflight admits exactly one leader.
    assert_eq!(stats.misses, 1, "64-duplicate storm must compile once");
    assert_eq!(stats.requests, n_threads as u64);
    assert_eq!(
        stats.hits + stats.dedup_joins,
        n_threads as u64 - 1,
        "the other 63 are hits or in-flight joins"
    );
    let leader = results.iter().filter(|(cached, _, _)| !cached).count();
    assert_eq!(leader, 1, "exactly one response reports the cold compile");
    let reference = &results[0].2;
    for (cached, deduped, result) in &results {
        assert!(
            Arc::ptr_eq(result, reference),
            "all 64 responses must share one Arc (cached={cached}, deduped={deduped})"
        );
    }
}

#[test]
fn cache_hit_returns_bytes_identical_to_the_cold_miss() {
    let service = CompileService::new();
    let req = contended_request();
    let cold = service.compile(&req).expect("cold compile");
    let hot = service.compile(&req).expect("cache hit");
    assert!(!cold.cached && hot.cached);
    assert_eq!(
        serde_json::to_string(&cold.result).unwrap(),
        serde_json::to_string(&hot.result).unwrap(),
        "a hit must return the cold miss's bytes"
    );
    // Wall times are response metadata, not artifact fields: the artifact
    // carries none (so `pass_s` et al. cannot make two compiles of the
    // same request diverge), while the response preserves the real cold
    // compile cost and its own (much smaller) service wall.
    assert_eq!(cold.result.compile_s, 0.0);
    assert_eq!(cold.result.pass_s(), 0.0);
    assert!(cold.compile_s > 0.0);
    assert_eq!(hot.compile_s, cold.compile_s);
    // And the key is over request fields only — no timing can enter it.
    assert_eq!(cold.cache_key, req.cache_key());
    for timing_field in ["pass_s", "wall_s", "compile_s"] {
        assert!(
            !cold.cache_key.contains(timing_field),
            "cache key must not contain '{timing_field}': {}",
            cold.cache_key
        );
    }
}

#[test]
fn batched_duplicates_are_deduplicated_across_the_pool() {
    let service = CompileService::new();
    let req = contended_request();
    let (tx, rx) = mpsc::channel::<Reply>();
    for seq in 0..12 {
        service.submit(seq, req.clone(), &tx).expect("queued");
    }
    drop(tx);
    let responses: Vec<CompileResponse> = rx
        .iter()
        .map(|(_, resp)| resp.expect("batched compile"))
        .collect();
    assert_eq!(responses.len(), 12);
    let reference = serde_json::to_string(&responses[0].result).unwrap();
    for resp in &responses {
        assert_eq!(
            serde_json::to_string(&resp.result).unwrap(),
            reference,
            "batch workers must serialize identical artifacts"
        );
    }
    assert!(
        responses.iter().any(|r| r.cached),
        "a 12-duplicate batch must be served from cache or in-flight joins"
    );
    // Singleflight reaches through the pool too: one compile, period.
    assert_eq!(service.stats().misses, 1);
}

#[test]
fn streaming_submit_recv_serves_mixed_traffic() {
    let service = CompileService::builder().workers(2).build();
    let (replies, completions) = mpsc::channel();
    // Interleave distinct and duplicate requests, streamed not batched.
    let mut seqs = Vec::new();
    for (seq, n) in [6usize, 7, 6, 8, 7, 6].into_iter().enumerate() {
        let seq = seq as u64;
        service
            .submit(
                seq,
                serve_request("lnn", &format!("lnn:{n}"), CompileOptions::default()),
                &replies,
            )
            .expect("stream submit");
        seqs.push((seq, n));
    }
    drop(replies);
    let mut received = Vec::new();
    for (seq, resp) in completions {
        let resp = resp.expect("streamed compile");
        received.push((seq, resp.result.n));
    }
    assert_eq!(received.len(), seqs.len());
    // Responses arrive in completion order, but every tag must map back
    // to the n it was submitted with.
    received.sort_unstable();
    assert_eq!(received, seqs);
    // 3 distinct kernels behind 6 requests.
    let stats = service.stats();
    assert_eq!(stats.requests, 6);
    assert_eq!(stats.misses, 3);
    assert_eq!(stats.hits + stats.dedup_joins, 3);
}

#[test]
fn malformed_requests_are_descriptive_json_errors_not_panics() {
    let service = CompileService::new();
    // (request, expected kind, fragments the diagnosis must contain)
    let cases: Vec<(CompileRequest, &str, Vec<&str>)> = vec![
        (
            serve_request("nope", "lnn:8", CompileOptions::default()),
            "unknown-compiler",
            vec!["nope", "available", "sycamore"],
        ),
        (
            serve_request("sycamore", "sycamore:3", CompileOptions::default()),
            "invalid-target",
            vec!["even m", "got m=3"],
        ),
        (
            serve_request(
                "lnn",
                "lnn:8",
                CompileOptions::default().with_approximation(0),
            ),
            "unsupported-option",
            vec!["degree 0", "degree >= 1"],
        ),
        (
            serve_request("lnn", "toric:3", CompileOptions::default()),
            "invalid-target",
            vec!["unknown target family", "toric"],
        ),
        (
            serve_request("lnn", "lattice:4", CompileOptions::default()),
            "unsupported-target",
            vec!["analytical mapper", "LNN"],
        ),
    ];
    for (req, kind, fragments) in cases {
        let err = service.compile(&req).expect_err("must be rejected");
        assert_eq!(err.kind, kind, "{req:?}");
        for fragment in fragments {
            assert!(
                err.error.contains(fragment),
                "{kind} diagnosis {:?} missing {fragment:?}",
                err.error
            );
        }
        // The error is itself a serde artifact: it round-trips as JSON, so
        // the service can answer malformed input with a diagnosis.
        let json = serde_json::to_string(&err).expect("errors serialize");
        assert!(json.contains(&format!("\"kind\":\"{kind}\"")), "{json}");
        let back: ServeError = serde_json::from_str(&json).expect("errors round-trip");
        assert_eq!(back, err);
    }
    // Nothing broken reaches the cache; every rejection is counted.
    let stats = service.stats();
    assert_eq!(stats.errors, 5);
    assert_eq!(stats.cache_entries, 0);
}

/// A gate a test compiler parks at until its test opens it.
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
    entered: AtomicUsize,
}

impl Gate {
    const fn new() -> Self {
        Gate {
            open: Mutex::new(false),
            cv: Condvar::new(),
            entered: AtomicUsize::new(0),
        }
    }

    fn pass(&self) {
        self.entered.fetch_add(1, Ordering::SeqCst);
        let mut open = self.open.lock().expect("gate mutex");
        while !*open {
            open = self.cv.wait(open).expect("gate condvar");
        }
    }

    fn open(&self) {
        *self.open.lock().expect("gate mutex") = true;
        self.cv.notify_all();
    }
}

/// Opens its gate when dropped, so a failed assertion cannot leave a pool
/// worker parked while the service's drop joins it.
struct OpenOnDrop(&'static Gate);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.open();
    }
}

/// A service whose one pool worker resolves names through the shared
/// compilers plus `compiler`.
fn one_worker_service_with(compiler: Box<dyn QftCompiler>) -> Arc<CompileService> {
    let mut registry = Registry::with_core();
    registry.register(compiler);
    let service = CompileService::builder()
        .registry(Box::leak(Box::new(registry)))
        .workers(1)
        .build();
    Arc::new(service)
}

static PANIC_GATE: Gate = Gate::new();

/// A compiler with a bug: it blocks until its gate opens, then panics.
struct PanickingCompiler;

impl QftCompiler for PanickingCompiler {
    fn name(&self) -> &'static str {
        "panics"
    }
    fn description(&self) -> &'static str {
        "test compiler that panics once its gate opens"
    }
    fn compile(&self, _: &Target, _: &CompileOptions) -> Result<CompileResult, CompileError> {
        PANIC_GATE.pass();
        panic!("deliberate compiler bug");
    }
}

#[test]
fn a_panicking_compile_fails_its_flight_and_keeps_the_worker() {
    let service = one_worker_service_with(Box::new(PanickingCompiler));
    let _unpark = OpenOnDrop(&PANIC_GATE);
    let req = CompileRequest::new("panics", "lnn:4");
    // Every wait is bounded, so a service that never answers fails the
    // test instead of hanging it.
    let within = Duration::from_secs(10);
    let (tx, rx) = mpsc::channel::<Reply>();

    // The leader parks at the gate on the pool's one worker; a concurrent
    // request for the same key on another thread joins its flight.
    service.submit(0, req.clone(), &tx).unwrap();
    wait_until("the leader to enter the compile", || {
        PANIC_GATE.entered.load(Ordering::SeqCst) == 1
    });
    let follower = {
        let (service, req, tx) = (Arc::clone(&service), req.clone(), tx.clone());
        std::thread::spawn(move || drop(tx.send((1, service.compile(&req)))))
    };
    wait_until("the follower to join the flight", || {
        service.stats().dedup_joins == 1
    });
    PANIC_GATE.open();
    for _ in 0..2 {
        let (seq, outcome) = rx
            .recv_timeout(within)
            .expect("leader and follower answered");
        let err = outcome.expect_err("a panicking compile fails");
        assert_eq!(err.kind, "internal", "seq {seq}: {err}");
        assert!(err.error.contains("deliberate compiler bug"), "{err}");
    }
    follower.join().unwrap();

    // The failure is not cached: the next request for the key leads a
    // fresh flight. And the pool's one worker still serves valid work.
    service.submit(2, req, &tx).unwrap();
    let (_, outcome) = rx.recv_timeout(within).expect("a fresh flight answered");
    assert_eq!(outcome.unwrap_err().kind, "internal");
    service
        .submit(3, CompileRequest::new("lnn", "lnn:8"), &tx)
        .unwrap();
    let (_, outcome) = rx.recv_timeout(within).expect("the worker survived");
    assert_eq!(outcome.unwrap().result.n, 8);
    let stats = service.stats();
    assert_eq!((stats.misses, stats.dedup_joins, stats.errors), (3, 1, 3));
    assert_eq!((stats.in_flight, stats.cache_entries), (0, 1));
}

static LNN_GATE: Gate = Gate::new();

/// The `lnn` mapper behind a gate: it blocks until the gate opens, then
/// really compiles.
struct GatedLnn;

impl QftCompiler for GatedLnn {
    fn name(&self) -> &'static str {
        "gated-lnn"
    }
    fn description(&self) -> &'static str {
        "test compiler that runs the lnn mapper once its gate opens"
    }
    fn compile(
        &self,
        target: &Target,
        opts: &CompileOptions,
    ) -> Result<CompileResult, CompileError> {
        LNN_GATE.pass();
        registry().resolve("lnn")?.compile(target, opts)
    }
}

#[test]
fn a_parked_flight_hands_its_followers_the_leaders_artifact() {
    let service = one_worker_service_with(Box::new(GatedLnn));
    let _unpark = OpenOnDrop(&LNN_GATE);
    let req = CompileRequest::new("gated-lnn", "lnn:4");
    let within = Duration::from_secs(10);
    let (tx, rx) = mpsc::channel::<Reply>();

    // The leader parks mid-compile on the pool's one worker; three
    // requests for the same key on other threads follow its flight.
    service.submit(0, req.clone(), &tx).unwrap();
    wait_until("the leader to enter the compile", || {
        LNN_GATE.entered.load(Ordering::SeqCst) == 1
    });
    let followers: Vec<_> = (1..4)
        .map(|seq| {
            let (service, req, tx) = (Arc::clone(&service), req.clone(), tx.clone());
            std::thread::spawn(move || drop(tx.send((seq, service.compile(&req)))))
        })
        .collect();
    wait_until("three followers to join the flight", || {
        service.stats().dedup_joins == 3
    });
    assert_eq!(service.stats().in_flight, 1);
    // The parked leader already counts as the miss it leads, so the
    // identity holds mid-flight.
    let parked = service.stats();
    assert_eq!(
        (parked.requests, parked.misses, parked.dedup_joins),
        (4, 1, 3)
    );

    LNN_GATE.open();
    let mut responses: Vec<(u64, CompileResponse)> = (0..4)
        .map(|_| {
            let (seq, outcome) = rx.recv_timeout(within).expect("every request answered");
            (seq, outcome.expect("the gated compile succeeds"))
        })
        .collect();
    for follower in followers {
        follower.join().unwrap();
    }
    responses.sort_by_key(|&(seq, _)| seq);
    let leader = &responses[0].1;
    assert!(!leader.cached && !leader.deduped);
    for (seq, follower) in &responses[1..] {
        assert!(follower.cached && follower.deduped, "follower {seq}");
        assert!(
            Arc::ptr_eq(&follower.result, &leader.result),
            "follower {seq}"
        );
    }
    let stats = service.stats();
    assert_eq!((stats.requests, stats.misses, stats.dedup_joins), (4, 1, 3));
    assert_eq!((stats.in_flight, stats.cache_entries), (0, 1));

    // The flight left the artifact resident: the next request is a hit.
    let hit = service.compile(&req).unwrap();
    assert!(hit.cached && !hit.deduped);
    assert!(Arc::ptr_eq(&hit.result, &leader.result));
    assert_eq!(service.stats().hits, 1);
}

#[test]
fn served_compile_budgets_are_capped_at_the_defaults() {
    let service = CompileService::with_config(8, 1);
    let with = |deadline_s: f64, passes: usize| {
        let options = CompileOptions {
            deadline_s,
            extra_passes: vec!["check-layout".to_string(); passes],
            ..CompileOptions::default()
        };
        service.compile(&serve_request("lnn", "lnn:4", options))
    };
    // The default deadline and 16 extra passes are served...
    assert!(with(10.0, 16).is_ok());
    // ...half a second more, or one pass more, is refused naming the cap.
    for (refused, fragments) in [
        (with(10.5, 0), ["deadline_s 10.5", "at most 10 s"]),
        (with(10.0, 17), ["extra_passes naming 17", "at most 16"]),
    ] {
        let err = refused.expect_err("over the served cap");
        assert_eq!(err.kind, "unsupported-option", "{err}");
        for fragment in fragments {
            assert!(err.error.contains(fragment), "{err} lacks {fragment:?}");
        }
    }
    assert_eq!(service.stats().errors, 2);
}

#[test]
fn unknown_option_fields_are_rejected_at_the_json_boundary() {
    let line = r#"{"compiler": "lnn", "target": "lnn:8", "options": {"degree": 1}}"#;
    let err = serde_json::from_str::<CompileRequest>(line).expect_err("typo must be rejected");
    let msg = err.to_string();
    assert!(
        msg.contains("unknown CompileOptions field 'degree'"),
        "{msg}"
    );
    assert!(msg.contains("approximation"), "{msg}");
    // A terse request is complete: missing options default.
    let terse: CompileRequest =
        serde_json::from_str(r#"{"compiler": "lnn", "target": "lnn:8"}"#).unwrap();
    assert_eq!(terse.options, CompileOptions::default());
    assert_eq!(terse, CompileRequest::new("lnn", "lnn:8"));
}

#[test]
fn request_roundtrips_and_key_is_canonical() {
    let req = serve_request(
        "lattice",
        "lattice:6",
        CompileOptions::default()
            .with_opt_level(2)
            .with_ie_mode(IeMode::Strict)
            .with_approximation(4)
            .with_extra_pass("asap-layering"),
    );
    let json = serde_json::to_string(&req).unwrap();
    let back: CompileRequest = serde_json::from_str(&json).unwrap();
    assert_eq!(back, req);
    // The key IS the canonical serialization: stable across round-trips,
    // and the digest is a pure function of it.
    assert_eq!(back.cache_key(), req.cache_key());
    assert_eq!(req.cache_key(), json);
    assert_eq!(back.key_digest(), req.key_digest());
}

#[test]
fn lru_eviction_respects_capacity_and_recency() {
    // The cache is one exact LRU — this pins the O(1) recency
    // structure's behavior.
    let service = CompileService::with_config(4, 1);
    let req_for = |n: usize| serve_request("lnn", &format!("lnn:{n}"), CompileOptions::default());
    for n in 4..12 {
        service.compile(&req_for(n)).expect("fill the cache");
    }
    let stats = service.stats();
    assert_eq!(stats.cache_entries, 4, "capacity is a hard ceiling");
    assert_eq!(stats.evictions, 4, "8 distinct fills through capacity 4");
    // LRU order: the four newest survive, the four oldest are gone.
    for n in 8..12 {
        assert!(service.is_cached(&req_for(n)), "lnn:{n} must be resident");
    }
    for n in 4..8 {
        assert!(!service.is_cached(&req_for(n)), "lnn:{n} must be evicted");
    }
    // Touching an entry protects it: hit lnn:8, insert one more, and the
    // eviction falls on lnn:9 (now the stalest) instead.
    assert!(service.compile(&req_for(8)).unwrap().cached);
    service.compile(&req_for(12)).unwrap();
    assert!(service.is_cached(&req_for(8)));
    assert!(!service.is_cached(&req_for(9)));
}

#[test]
fn a_serving_size_cache_bounds_occupancy() {
    let service = CompileService::builder()
        .cache_capacity(64)
        .workers(2)
        .build();
    let stats = service.stats();
    assert_eq!(stats.cache_capacity, 64);
    for n in 4..40 {
        service
            .compile(&serve_request(
                "lnn",
                &format!("lnn:{n}"),
                CompileOptions::default(),
            ))
            .unwrap();
    }
    let stats = service.stats();
    assert_eq!(stats.misses, 36);
    assert!(
        stats.cache_entries <= 64,
        "occupancy stays bounded: {}",
        stats.cache_entries
    );
    // Everything resident still round-trips through the digest path.
    let hot = service
        .compile(&serve_request("lnn", "lnn:39", CompileOptions::default()))
        .unwrap();
    assert!(hot.cached);
}

#[test]
fn serve_stats_roundtrip_and_hit_rate() {
    let service = CompileService::with_config(8, 2);
    let req = serve_request("lnn", "lnn:6", CompileOptions::default());
    service.compile(&req).unwrap();
    service.compile(&req).unwrap();
    service.compile(&req).unwrap();
    let stats = service.stats();
    assert_eq!((stats.requests, stats.hits, stats.misses), (3, 2, 1));
    assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    assert!(stats.p50_ms >= 0.0 && stats.p99_ms >= stats.p50_ms);
    // The snapshot is a serde artifact: it round-trips bit-exactly, and
    // the derived hit rate survives the trip.
    let json = serde_json::to_string(&stats).expect("stats serialize");
    let back: ServeStats = serde_json::from_str(&json).expect("stats round-trip");
    assert_eq!(back, stats);
    assert_eq!(back.hit_rate(), stats.hit_rate());
    // An idle service divides zero by zero gracefully.
    assert_eq!(CompileService::with_config(2, 1).stats().hit_rate(), 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Cache-key injectivity: two requests get the same key exactly when
    /// they are the same request — any difference in any field (compiler,
    /// target size, opt_level, degree, ie_mode, seed) separates the keys.
    /// The digest path must agree: distinct canonical keys get distinct
    /// 128-bit digests over this entire request population.
    #[test]
    fn distinct_requests_get_distinct_cache_keys(
        a in (0usize..7, 0usize..6, 0u8..3, 0u32..5, 0usize..2, 0u64..3),
        b in (0usize..7, 0usize..6, 0u8..3, 0u32..5, 0usize..2, 0u64..3),
    ) {
        let build = |(ci, param, opt, deg, ie, seed): (usize, usize, u8, u32, usize, u64)| {
            serve_request_from_fields(
                ci,
                param,
                opt,
                (deg > 0).then_some(deg),
                ie == 1,
                seed,
            )
        };
        let (ra, rb) = (build(a), build(b));
        prop_assert_eq!(ra == rb, ra.cache_key() == rb.cache_key());
        prop_assert_eq!(ra == rb, ra.key_digest() == rb.key_digest());
    }
}

proptest! {
    // Threaded cases are comparatively expensive; 16 cases × ~10 keys ×
    // 8 threads still hammers every interleaving class that matters.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Concurrent cache discipline: 8 threads interleave get/insert
    /// traffic over a small key space through one service. Afterwards
    /// the cache must respect capacity, serve byte-identical artifacts
    /// per key, reuse the resident `Arc` on consecutive hits, and
    /// preserve exact LRU recency under a deterministic sequential tail.
    #[test]
    fn the_cache_survives_an_8_thread_hammer(
        per_thread in proptest::collection::vec(
            proptest::collection::vec(0usize..10, 4..12),
            8..9,
        ),
    ) {
        let capacity = 6;
        let service = CompileService::builder()
            .cache_capacity(capacity)
            .workers(1)
            .build();
        let req_for =
            |k: usize| serve_request("lnn", &format!("lnn:{}", 4 + k), CompileOptions::default());
        let total_ops: usize = per_thread.iter().map(Vec::len).sum();
        // Phase 1: the hammer. Every thread records (key, serialized
        // artifact) for every op.
        let mut by_key: Vec<Vec<String>> = vec![Vec::new(); 10];
        std::thread::scope(|scope| {
            let handles: Vec<_> = per_thread
                .iter()
                .map(|keys| {
                    let service = &service;
                    scope.spawn(move || {
                        keys.iter()
                            .map(|&k| {
                                let resp = service.compile(&req_for(k)).expect("hammer compile");
                                (k, serde_json::to_string(&resp.result).unwrap())
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                for (k, bytes) in h.join().expect("hammer thread") {
                    by_key[k].push(bytes);
                }
            }
        });
        // Byte-identical artifacts per key, across threads, hits, misses,
        // and re-compiles after eviction.
        for versions in &by_key {
            for v in versions.iter().skip(1) {
                prop_assert_eq!(v, &versions[0]);
            }
        }
        let stats = service.stats();
        prop_assert!(stats.cache_entries <= capacity);
        prop_assert_eq!(stats.requests, total_ops as u64);
        prop_assert_eq!(
            stats.hits + stats.misses + stats.dedup_joins,
            total_ops as u64
        );
        // Consecutive hits on a resident key reuse one Arc — the cache
        // shares, never clones, the artifact.
        let resident = service.compile(&req_for(0)).expect("warm key 0");
        let again = service.compile(&req_for(0)).expect("hit key 0");
        prop_assert!(again.cached);
        prop_assert!(Arc::ptr_eq(&resident.result, &again.result));
        // Phase 2: deterministic recency tail. Fill with exactly
        // `capacity` distinct keys; they must all be resident in LRU
        // order, so one more distinct insert evicts precisely the oldest.
        for k in 10..10 + capacity {
            service.compile(&req_for(k)).expect("tail fill");
        }
        for k in 10..10 + capacity {
            prop_assert!(service.is_cached(&req_for(k)));
        }
        service.compile(&req_for(10 + capacity)).expect("overflow");
        prop_assert!(!service.is_cached(&req_for(10)), "oldest tail key evicted");
        for k in 11..=10 + capacity {
            prop_assert!(service.is_cached(&req_for(k)));
        }
    }
}
