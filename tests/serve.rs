//! The serving suite: concurrency determinism, sharded-cache semantics,
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

use common::{serve_request, serve_request_from_fields, SERVE_COMPILERS};
use proptest::prelude::*;
use qft_kernels::serve::shared_registry;
use qft_kernels::{
    registry, CompileOptions, CompileRequest, CompileService, IeMode, ServeError, ServeStats,
};
use std::sync::{mpsc, Arc, Barrier};

/// The request the concurrency tests hammer: a stochastic search compiler
/// (so determinism is a property of the pipeline, not just of analytical
/// construction) with truncation and the aggressive pass tail switched on.
fn contended_request() -> CompileRequest {
    serve_request(
        "sabre",
        "lattice:4",
        CompileOptions::default()
            .with_seed(7)
            .with_opt_level(2)
            .with_approximation(3),
    )
}

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
    let batch: Vec<CompileRequest> = (0..12).map(|_| req.clone()).collect();
    let responses = service.compile_batch(&batch);
    let reference = serde_json::to_string(&responses[0].as_ref().unwrap().result).unwrap();
    for resp in &responses {
        let resp = resp.as_ref().expect("batched compile");
        assert_eq!(
            serde_json::to_string(&resp.result).unwrap(),
            reference,
            "batch workers must serialize identical artifacts"
        );
    }
    assert!(
        responses.iter().any(|r| r.as_ref().unwrap().cached),
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
    // Tiny capacities degenerate to a single shard, so global LRU order
    // is exact — this pins the O(1) recency structure's behavior.
    let service = CompileService::with_config(4, 1);
    assert_eq!(service.stats().cache_shards, 1);
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
fn sharded_cache_spreads_and_bounds_occupancy() {
    let service = CompileService::builder()
        .cache_capacity(64)
        .workers(2)
        .build();
    let stats = service.stats();
    assert!(stats.cache_shards > 1, "serving capacities shard");
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
        "sharded occupancy stays bounded: {}",
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

    /// Concurrent cache discipline on one shard: 8 threads interleave
    /// get/insert traffic over a small key space through a single-shard
    /// service. Afterwards the shard must respect capacity, serve
    /// byte-identical artifacts per key, reuse the resident `Arc` on
    /// consecutive hits, and preserve exact LRU recency under a
    /// deterministic sequential tail.
    #[test]
    fn one_shard_survives_an_8_thread_hammer(
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
        prop_assert_eq!(service.stats().cache_shards, 1);
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
