//! The elastic-membership chaos matrix (ISSUE 10): live ring resize with
//! zero-loss cache hand-off, under fault injection.
//!
//! Contracts under test:
//!
//! * **Warm join** — a backend joining a warmed fleet bulk-fetches the
//!   cache entries for the keys it now owns from their previous owners
//!   (the `warmup-request`/`warmup-batch` protocol) and answers them as
//!   cache hits, byte-identical to the donors' artifacts.
//! * **Donor killed mid-transfer** — a donor that dies partway through a
//!   batch costs three attempts with doubling backoff and then a *cold*
//!   joiner: every
//!   owned key still compiles correctly, nothing hangs, and no partial
//!   artifact is ever served.
//! * **Corruption containment** — tampered or truncated entries are
//!   rejected entry-by-entry by the re-digest integrity check; the rest
//!   of the batch imports, and rejected keys recompile to the honest
//!   bytes.
//! * **Oversize entries stay home** — an artifact too large for a batch
//!   frame is left out of the transfer; the rest of the donor's entries
//!   still arrive in one attempt.
//! * **Resize under traffic** — growing and shrinking the ring while 4
//!   threads hammer it loses zero accepted requests and never changes a
//!   key's bytes; the ring version records both membership changes.
//! * **Export/import round-trip** (property) — random cache populations
//!   survive export → chunked wire frames → bulk import byte-identically
//!   and idempotently, with resident entries winning over replays.

mod common;

use common::{
    artifact_bytes, distinct_requests, fleet_addrs, oversize_registry, spawn_fleet, wait_until,
};
use proptest::prelude::*;
use qft_kernels::serve::proto::{self, Frame, WireWarmupBatch};
use qft_kernels::serve::router::RouterConfig;
use qft_kernels::serve::warmup::{self, OwnedPredicate, WarmupEntry};
use qft_kernels::serve::{ClientConfig, NetServer, Router};
use qft_kernels::{CompileRequest, CompileService};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A predicate that claims every digest — for exporting a whole cache.
fn own_everything() -> OwnedPredicate {
    OwnedPredicate {
        member_points: vec![0],
        other_points: Vec::new(),
    }
}

/// The client timeouts the fault-injection tests use: short, so a test
/// donor that misbehaves costs milliseconds, not the default 30 s read
/// timeout.
fn chaos_client_config() -> ClientConfig {
    ClientConfig {
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
    }
}

/// A scripted fake donor: accepts connections forever and runs `script`
/// on each with its 0-based connection index. The thread parks in
/// `accept` and is reaped at process exit, like every fixture listener.
fn fake_donor(script: impl Fn(usize, TcpStream) + Send + 'static) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake donor");
    let addr = listener.local_addr().expect("fake donor addr");
    std::thread::spawn(move || {
        for (i, stream) in listener.incoming().enumerate() {
            let Ok(stream) = stream else { break };
            script(i, stream);
        }
    });
    addr
}

/// Reads one whole frame off the socket (the joiner's `warmup-request`),
/// so a scripted donor answers a request that was actually received.
fn read_one_frame(stream: &mut TcpStream) {
    let mut header = [0u8; 10];
    stream
        .read_exact(&mut header)
        .expect("request frame header");
    let len = u32::from_be_bytes(header[6..10].try_into().expect("4-byte slice")) as usize;
    let mut payload = vec![0u8; len];
    stream
        .read_exact(&mut payload)
        .expect("request frame payload");
}

/// Honest warm-up entries for `n` distinct keys, exported from a real
/// (local) service's cache.
fn honest_entries(n: usize) -> Vec<WarmupEntry> {
    let donor = CompileService::builder().workers(1).build();
    for req in distinct_requests(n) {
        donor.compile(&req).expect("donor compile");
    }
    let entries = donor.export_warmup(&own_everything());
    assert_eq!(entries.len(), n, "the export must cover the whole cache");
    entries
}

// ---------------------------------------------------------------------------
// Happy path: a joiner replays its owned keys and serves them warm.
// ---------------------------------------------------------------------------

#[test]
fn warm_join_replays_owned_entries_and_serves_cache_hits() {
    let fleet = spawn_fleet(2);
    let donor_addrs = fleet_addrs(&fleet);
    let router = Router::new(donor_addrs.clone()).expect("distinct backend addresses");

    // Warm the donors through the ring, remembering each key's bytes.
    let requests = distinct_requests(20);
    let reference: Vec<String> = requests
        .iter()
        .map(|req| artifact_bytes(&router.request(req).expect("warm pass").response))
        .collect();

    // The joiner binds, learns its owned-key predicate from the
    // pre-join ring, and replays from the donors *before* joining.
    let joiner = spawn_fleet(1).pop().unwrap();
    let predicate = router.warmup_predicate(joiner.local_addr());
    let owned: Vec<usize> = (0..requests.len())
        .filter(|&k| predicate.owns(requests[k].key_digest()))
        .collect();
    assert!(
        !owned.is_empty(),
        "20 keys across 64 virtual points must give the joiner at least one"
    );

    let report = warmup::replay_into(
        joiner.service(),
        &donor_addrs,
        &predicate,
        &chaos_client_config(),
    );
    for donor in &report.donors {
        assert_eq!(donor.error, None, "healthy donors must transfer cleanly");
    }
    // Each key lives in exactly one donor's cache (digest affinity), so
    // the imports sum to the owned set with nothing rejected.
    assert_eq!(report.import.imported, owned.len() as u64, "{report:?}");
    assert_eq!(report.import.rejected, 0, "{report:?}");
    assert_eq!(report.import.already_present, 0, "{report:?}");

    let index = router.add_backend(joiner.local_addr()).expect("join");
    assert_eq!(router.version(), 1, "the join must bump the ring version");

    // Every owned key now routes to the joiner and is answered from its
    // cache — the ≥ 80% warm-join acceptance bar, met at 100% — with
    // bytes identical to the pre-join fleet's.
    let mut hits = 0usize;
    for &k in &owned {
        let routed = router.request(&requests[k]).expect("post-join request");
        assert_eq!(routed.backend, index, "key {k} must remap to the joiner");
        assert_eq!(
            artifact_bytes(&routed.response),
            reference[k],
            "key {k} must survive the hand-off byte-identically"
        );
        if routed.response.cached {
            hits += 1;
        }
    }
    assert!(
        hits * 100 >= owned.len() * 80,
        "warm joiner answered {hits}/{} owned keys from cache",
        owned.len()
    );

    // Non-owned keys never moved: they still route to their donors.
    for (k, req) in requests.iter().enumerate() {
        if !owned.contains(&k) {
            let routed = router.request(req).expect("unmoved request");
            assert_ne!(routed.backend, index, "key {k} must stay with its donor");
            assert!(routed.response.cached, "key {k} stays warm on its donor");
        }
    }

    joiner.shutdown();
    for server in fleet {
        server.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Donor killed mid-transfer: capped retries, then a cold-but-correct join.
// ---------------------------------------------------------------------------

#[test]
fn donor_killed_mid_transfer_leaves_joiner_cold_but_correct() {
    // The donor reads the request, starts an honest batch frame, and
    // dies after shipping all but the last 10 bytes — a truncated
    // payload, not a clean close.
    let entries = honest_entries(6);
    let donor_addr = fake_donor(move |_, mut stream| {
        read_one_frame(&mut stream);
        let bytes = Frame::warmup_batch(0, 0, true, entries.clone())
            .encode()
            .expect("batch encodes");
        stream
            .write_all(&bytes[..bytes.len() - 10])
            .expect("partial write");
        // Dropping the stream here is the kill.
    });

    let joiner = CompileService::builder().workers(2).build();
    let t0 = Instant::now();
    let report = warmup::replay_into(
        &joiner,
        &[donor_addr],
        &own_everything(),
        &chaos_client_config(),
    );
    // All three attempts were made (doubling backoff between them), the
    // failure is descriptive, and nothing partial was imported.
    assert_eq!(report.donors.len(), 1);
    assert_eq!(report.donors[0].attempts, 3, "{report:?}");
    let error = report.donors[0].error.as_deref().expect("the fetch failed");
    assert!(
        error.contains("truncated") || error.contains("ended"),
        "the diagnosis must name the truncation: {error}"
    );
    assert_eq!(report.import, Default::default(), "nothing may import");
    assert!(
        t0.elapsed() < Duration::from_secs(8),
        "retries must be capped, not hung: {:?}",
        t0.elapsed()
    );

    // Degraded to cold, not broken: every key compiles on first use,
    // byte-identical to an honest reference.
    let reference = CompileService::builder().workers(1).build();
    for req in distinct_requests(6) {
        let resp = joiner.compile(&req).expect("cold compile");
        assert!(
            !resp.cached,
            "{} must be cold after the failed join",
            req.target
        );
        assert_eq!(
            artifact_bytes(&resp),
            artifact_bytes(&reference.compile(&req).expect("reference")),
            "{} must still produce honest bytes",
            req.target
        );
    }
}

#[test]
fn complete_batch_then_cut_imports_nothing_partial() {
    // A donor that ships one *complete* non-final batch, then dies: the
    // client is still owed the `done` chunk, so the whole fetch fails
    // and the complete-looking prefix must not leak into the cache.
    let entries = honest_entries(4);
    let donor_addr = fake_donor(move |_, mut stream| {
        read_one_frame(&mut stream);
        proto::write_frame(
            &mut &stream,
            &Frame::warmup_batch(0, 0, false, entries.clone()),
        )
        .expect("write the non-final batch");
        // Dropping the stream here cuts the transfer before `done`.
    });

    let joiner = CompileService::builder().workers(1).build();
    let report = warmup::replay_into(
        &joiner,
        &[donor_addr],
        &own_everything(),
        &chaos_client_config(),
    );
    assert!(report.donors[0].error.is_some(), "{report:?}");
    assert_eq!(report.import, Default::default(), "{report:?}");
    assert_eq!(
        joiner.stats().cache_entries,
        0,
        "an aborted transfer must leave the cache untouched"
    );
}

// ---------------------------------------------------------------------------
// Corruption containment: per-entry rejection over a live transfer.
// ---------------------------------------------------------------------------

#[test]
fn corrupt_batch_entries_are_rejected_per_entry_and_never_poison_the_cache() {
    let mut entries = honest_entries(6);
    let requests = distinct_requests(6);

    // Three distinct corruptions among six entries, of the keys lnn:5,
    // lnn:7 and lnn:8: a bit-flipped artifact, a tampered key pre-image,
    // and a truncated digest field. Export order is the cache's, so each
    // entry is found by its key.
    let corrupted = [1usize, 3, 4];
    let [flipped, tampered, truncated] = corrupted.map(|k| {
        let key_json = requests[k].cache_key();
        entries
            .iter()
            .position(|e| e.key_json == key_json)
            .expect("every key is exported")
    });
    {
        let mut result = (*entries[flipped].result).clone();
        result.metrics.swaps += 1;
        entries[flipped].result = Arc::new(result);
    }
    entries[tampered].key_json.push(' ');
    entries[truncated].artifact_digest.truncate(16);

    // The donor ships the mixed batch over a real socket.
    let wire_entries = entries.clone();
    let donor_addr = fake_donor(move |_, mut stream| {
        read_one_frame(&mut stream);
        proto::write_frame(
            &mut &stream,
            &Frame::warmup_batch(0, 0, true, wire_entries.clone()),
        )
        .expect("write the mixed batch");
    });

    let joiner = CompileService::builder().workers(1).build();
    let report = warmup::replay_into(
        &joiner,
        &[donor_addr],
        &own_everything(),
        &chaos_client_config(),
    );
    assert_eq!(report.donors[0].attempts, 1, "{report:?}");
    assert_eq!(report.donors[0].fetched, 6, "{report:?}");
    assert_eq!(report.import.imported, 3, "{report:?}");
    assert_eq!(report.import.rejected, 3, "{report:?}");

    // Honest entries serve warm; corrupted keys stayed cold and
    // recompile to honest bytes — the tampered artifact never surfaces.
    let reference = CompileService::builder().workers(1).build();
    for (k, req) in requests.iter().enumerate() {
        let resp = joiner.compile(req).expect("serve after mixed import");
        assert_eq!(
            resp.cached,
            !corrupted.contains(&k),
            "key {k} cache state after the mixed import"
        );
        assert_eq!(
            artifact_bytes(&resp),
            artifact_bytes(&reference.compile(req).expect("reference")),
            "key {k} must serve honest bytes"
        );
    }
}

#[test]
fn an_entry_too_large_for_a_batch_frame_stays_with_its_donor() {
    // A donor holds three small entries and one whose artifact cannot fit
    // a frame (it stays cached after its `too-large` refusal). The other
    // three must still transfer, in one attempt.
    let service = CompileService::builder()
        .registry(oversize_registry())
        .workers(1)
        .build();
    let small = distinct_requests(3);
    for req in &small {
        service.compile(req).expect("donor compile");
    }
    let oversize = CompileRequest::new("oversize-note", "lnn:4");
    service
        .compile(&oversize)
        .expect("an over-cap artifact compiles");
    assert_eq!(service.stats().cache_entries, 4);
    let donor = NetServer::bind("127.0.0.1:0", Arc::new(service)).expect("bind donor");

    let (attempts, fetched) = warmup::fetch_from_donor(
        donor.local_addr(),
        &chaos_client_config(),
        &own_everything(),
    );
    let mut keys: Vec<String> = fetched
        .expect("the donor's other entries transfer")
        .into_iter()
        .map(|e| e.key_json)
        .collect();
    keys.sort();
    let mut want: Vec<String> = small.iter().map(CompileRequest::cache_key).collect();
    want.sort();
    assert_eq!((attempts, keys), (1, want));
    donor.shutdown();
}

// ---------------------------------------------------------------------------
// Resize under concurrent traffic: zero loss, stable bytes.
// ---------------------------------------------------------------------------

#[test]
fn ring_resize_under_concurrent_traffic_loses_zero_requests() {
    let fleet = spawn_fleet(2);
    let donor_addrs = fleet_addrs(&fleet);
    let router = Router::with_config(
        donor_addrs.clone(),
        RouterConfig {
            probe_interval: Duration::from_secs(60),
            ..RouterConfig::default()
        },
    )
    .expect("distinct backend addresses");

    let requests = distinct_requests(16);
    let rounds = 6;
    let n_threads = 4;
    let completed = AtomicUsize::new(0);

    let outcomes: Vec<Vec<(usize, String)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_threads)
            .map(|_| {
                let (router, requests, completed) = (&router, &requests, &completed);
                scope.spawn(move || {
                    let mut log = Vec::new();
                    for round in 0..rounds {
                        for (k, req) in requests.iter().enumerate() {
                            let routed = router.request(req).unwrap_or_else(|e| {
                                panic!("request lost in round {round} during a resize: {e}")
                            });
                            completed.fetch_add(1, Ordering::SeqCst);
                            log.push((k, artifact_bytes(&routed.response)));
                        }
                    }
                    log
                })
            })
            .collect();

        // Grow mid-traffic: bind a joiner, hand it the warm entries for
        // its owned keys, then splice it into the live ring.
        wait_until("the first wave of traffic", || {
            completed.load(Ordering::SeqCst) >= requests.len()
        });
        let joiner = spawn_fleet(1).pop().unwrap();
        let predicate = router.warmup_predicate(joiner.local_addr());
        warmup::replay_into(
            joiner.service(),
            &donor_addrs,
            &predicate,
            &chaos_client_config(),
        );
        router
            .add_backend(joiner.local_addr())
            .expect("grow the live ring");

        // Shrink mid-traffic: the first donor leaves gracefully (drains
        // its in-flight requests before its pool drops).
        wait_until("traffic over the grown ring", || {
            completed.load(Ordering::SeqCst) >= 3 * requests.len()
        });
        router
            .remove_backend(donor_addrs[0])
            .expect("shrink the live ring");

        let logs = handles.into_iter().map(|h| h.join().unwrap()).collect();
        joiner.shutdown();
        logs
    });

    // Zero loss, exactly: every request every thread made returned Ok.
    let total: usize = outcomes.iter().map(Vec::len).sum();
    assert_eq!(total, n_threads * rounds * requests.len());
    assert_eq!(
        router.version(),
        2,
        "one join and one leave must bump the ring version twice"
    );
    let states = router.backend_states();
    assert!(
        !states[0].member,
        "the leaver is out of the ring: {states:?}"
    );
    assert!(states[2].member, "the joiner is in the ring: {states:?}");

    // Bytes never changed hands dirtily: every answer for a key equals
    // the first answer for that key, across both membership changes.
    let mut first: Vec<Option<&String>> = vec![None; requests.len()];
    for (k, bytes) in outcomes.iter().flatten() {
        match first[*k] {
            None => first[*k] = Some(bytes),
            Some(reference) => assert_eq!(
                bytes, reference,
                "key {k} bytes must survive the resizes unchanged"
            ),
        }
    }

    for server in fleet {
        server.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Property: export → chunked frames → import round-trips byte-identically.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn export_chunk_import_roundtrip(
        mask in 1u16..(1 << 12),
        budget in 1usize..4096,
        precompile in 0u8..2,
    ) {
        let all = distinct_requests(12);
        let subset: Vec<&CompileRequest> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, req)| req)
            .collect();

        let donor = CompileService::builder().workers(1).build();
        let mut donor_bytes = Vec::new();
        for req in &subset {
            donor_bytes.push(artifact_bytes(&donor.compile(req).expect("donor compile")));
        }
        let entries = donor.export_warmup(&own_everything());
        prop_assert_eq!(entries.len(), subset.len());

        // The target may have compiled one of the keys itself while the
        // transfer was in flight — its resident entry must win.
        let target = CompileService::builder().workers(1).build();
        let precompile_first = precompile == 1;
        if precompile_first {
            target.compile(subset[0]).expect("local compile");
        }

        // Export → chunk → *wire* (encode/decode each batch frame) →
        // bulk import.
        let chunks = warmup::chunk_entries(entries, budget);
        let mut shipped: Vec<WarmupEntry> = Vec::new();
        let last = chunks.len() - 1;
        for (index, chunk) in chunks.into_iter().enumerate() {
            let frame = Frame::warmup_batch(7, index as u64, index == last, chunk);
            let bytes = frame.encode().expect("batch encodes under the cap");
            let decoded = proto::read_frame(&mut &bytes[..]).expect("batch reads back");
            let wire: WireWarmupBatch = decoded.decode().expect("batch decodes");
            prop_assert_eq!(wire.seq, 7);
            prop_assert_eq!(wire.index, index as u64);
            prop_assert_eq!(wire.done, index == last);
            shipped.extend(wire.entries);
        }

        let resident = u64::from(precompile_first);
        let import = target.import_warmup(&shipped);
        prop_assert_eq!(import.rejected, 0);
        prop_assert_eq!(import.already_present, resident);
        prop_assert_eq!(import.imported, subset.len() as u64 - resident);

        // Idempotence: a double import is a complete no-op.
        let again = target.import_warmup(&shipped);
        prop_assert_eq!(again.imported, 0);
        prop_assert_eq!(again.already_present, subset.len() as u64);
        prop_assert_eq!(again.rejected, 0);

        // Byte identity: every key serves from cache with the donor's
        // exact bytes.
        for (req, bytes) in subset.iter().zip(&donor_bytes) {
            let resp = target.compile(req).expect("serve imported");
            prop_assert!(resp.cached, "{} must be warm after the import", req.target);
            prop_assert_eq!(&artifact_bytes(&resp), bytes);
        }
    }
}
