//! The front-tier router suite (ISSUE 9): consistent-hash scale-out over
//! real localhost sockets — N backend `NetServer` processes-worth of
//! threads, one `Router`, real failures.
//!
//! Contracts under test:
//!
//! * **Digest affinity** — the same request key lands on the same
//!   backend every time (and on the one `Router::route` predicts), so
//!   each key's cache entry lives in exactly one process: fleet-wide
//!   misses equal distinct keys, not keys × backends.
//! * **Fleet-wide singleflight** — an 8-client storm on one key through
//!   the router performs exactly one compile *across the whole fleet*,
//!   proven by wire-level stats summed over every backend.
//! * **Kill-one-backend drain** — killing one of three backends
//!   mid-traffic loses zero accepted requests: every `Router::request`
//!   still returns `Ok`, the dead backend is marked down, and its keys
//!   remap to live backends (byte-identically, by determinism).
//! * **Probe recovery** — a downed backend that comes back is probed
//!   back into rotation and its original keys return to it.
//! * **Constructor validation** — empty and duplicate backend lists are
//!   refused with a descriptive `invalid-config` error, not a panic or
//!   a silently degenerate ring.
//! * **Pool permit accounting** — the discard-on-transport-failure path
//!   releases its checkout permit every time: cycling failures past the
//!   pool cap never wedges a checkout, and the pool serves again the
//!   moment the backend recovers.
//! * **Request-shaped refusals pass through** — a response too large to
//!   send comes back as `too-large` with no failover and no backend
//!   marked down.

mod common;

use common::{
    artifact_bytes, distinct_requests, fleet_addrs, oversize_registry, serve_request, spawn_fleet,
    wait_until,
};
use qft_kernels::serve::router::RouterConfig;
use qft_kernels::serve::{ClientConfig, ClientError, NetServer, PoolClient, Router};
use qft_kernels::{CompileOptions, CompileRequest, CompileService};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Digest affinity: one key, one backend, one cache entry fleet-wide.
// ---------------------------------------------------------------------------

#[test]
fn same_key_requests_show_digest_affinity_to_one_backend() {
    let fleet = spawn_fleet(3);
    let router = Router::new(fleet_addrs(&fleet)).expect("distinct backend addresses");
    let requests = distinct_requests(12);

    // Three passes over twelve distinct keys: each key must land on the
    // backend `route` predicts, every pass, and only the first pass may
    // compile.
    let mut owners = Vec::new();
    for req in &requests {
        let predicted = router.route(req).expect("all backends are live");
        let mut backends = Vec::new();
        for pass in 0..3 {
            let routed = router.request(req).expect("routed request");
            assert_eq!(
                routed.response.cached,
                pass > 0,
                "pass {pass} cache state for {}",
                req.target
            );
            backends.push(routed.backend);
        }
        assert_eq!(
            backends,
            vec![predicted; 3],
            "{} must stick to its ring owner",
            req.target
        );
        owners.push(predicted);
    }

    // Fleet-wide accounting, proven over the wire: misses == distinct
    // keys (no key compiled on two backends), requests == every routed
    // call, and each backend's share matches the ring ownership.
    let mut misses = 0;
    let mut total_requests = 0;
    for (index, stats) in router.backend_stats().into_iter().enumerate() {
        let tagged = stats.expect("wire stats from a live backend");
        assert_eq!(tagged.identity, fleet[index].local_addr().to_string());
        misses += tagged.stats.misses;
        total_requests += tagged.stats.requests;
        let owned = owners.iter().filter(|&&o| o == index).count() as u64;
        assert_eq!(
            tagged.stats.requests,
            owned * 3,
            "backend {index} must serve exactly its owned keys"
        );
    }
    assert_eq!(misses, 12, "every key compiles exactly once fleet-wide");
    assert_eq!(total_requests, 36);

    for server in fleet {
        server.shutdown();
    }
}

// ---------------------------------------------------------------------------
// A response too large to send is request-shaped: no failover.
// ---------------------------------------------------------------------------

#[test]
fn an_oversize_response_passes_through_and_marks_no_backend_down() {
    // The backend once dropped the connection, which failed over: both
    // backends compiled, dropped the response and were marked down, and
    // the caller got `unavailable`.
    let fleet: Vec<NetServer> = (0..2)
        .map(|_| {
            let service = CompileService::builder()
                .registry(oversize_registry())
                .workers(2)
                .build();
            NetServer::bind("127.0.0.1:0", Arc::new(service)).expect("bind backend")
        })
        .collect();
    let router = Router::new(fleet_addrs(&fleet)).expect("distinct backend addresses");
    let req = serve_request("oversize-note", "lnn:4", CompileOptions::default());
    match router.request(&req) {
        Err(ClientError::Server(e)) => assert_eq!(e.kind, "too-large", "{e}"),
        other => panic!("expected a too-large refusal, got {other:?}"),
    }
    for state in router.backend_states() {
        assert!(state.healthy, "{state:?}");
        assert_eq!((state.failovers, state.downs), (0, 0), "{state:?}");
    }
    let routed = router
        .request(&serve_request("lnn", "lnn:8", CompileOptions::default()))
        .expect("the fleet keeps serving");
    assert_eq!(routed.failovers, 0);
    // One backend compiled the oversize request and counted its refusal.
    let (misses, errors) = router
        .backend_stats()
        .into_iter()
        .map(|s| s.expect("wire stats from a live backend").stats)
        .fold((0, 0), |(m, e), s| (m + s.misses, e + s.errors));
    assert_eq!((misses, errors), (2, 1));
    for server in fleet {
        server.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Fleet-wide singleflight: a storm through the router is one compile.
// ---------------------------------------------------------------------------

#[test]
fn storm_through_the_router_performs_exactly_one_compile_fleet_wide() {
    let fleet = spawn_fleet(3);
    let router = Router::new(fleet_addrs(&fleet)).expect("distinct backend addresses");
    // The stochastic-search request the byte-identity suites hammer:
    // wire determinism under dedup is a pipeline property, not an
    // analytical-construction artifact.
    let req = serve_request(
        "sabre",
        "lattice:4",
        CompileOptions::default()
            .with_seed(7)
            .with_opt_level(2)
            .with_approximation(3),
    );
    let n_clients = 8;
    let barrier = Barrier::new(n_clients);

    let results: Vec<(usize, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_clients)
            .map(|_| {
                let (router, req, barrier) = (&router, &req, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let routed = router.request(req).expect("storm request");
                    (routed.backend, artifact_bytes(&routed.response))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Affinity under concurrency: every client landed on the same
    // backend with identical bytes.
    let (owner, reference) = &results[0];
    for (backend, bytes) in &results {
        assert_eq!(backend, owner, "the storm must converge on one backend");
        assert_eq!(bytes, reference, "every client gets identical bytes");
    }

    // The fleet-wide proof, over the wire: one compile total, and the
    // two non-owner backends never saw a request.
    let mut misses = 0;
    let mut requests = 0;
    for (index, stats) in router.backend_stats().into_iter().enumerate() {
        let stats = stats.expect("wire stats").stats;
        misses += stats.misses;
        requests += stats.requests;
        if index != *owner {
            assert_eq!(stats.requests, 0, "backend {index} is not the owner");
        }
    }
    assert_eq!(misses, 1, "singleflight must hold across the whole fleet");
    assert_eq!(requests, n_clients as u64);

    for server in fleet {
        server.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Kill one of three backends mid-traffic: zero accepted requests lost.
// ---------------------------------------------------------------------------

#[test]
fn killing_one_backend_mid_traffic_loses_zero_accepted_requests() {
    let fleet = spawn_fleet(3);
    let addrs = fleet_addrs(&fleet);
    let mut fleet: Vec<Option<NetServer>> = fleet.into_iter().map(Some).collect();
    // A long probe interval keeps the killed backend down for the whole
    // test, so post-kill affinity is observable.
    let router = Router::with_config(
        addrs,
        RouterConfig {
            probe_interval: Duration::from_secs(60),
            ..RouterConfig::default()
        },
    )
    .expect("distinct backend addresses");

    let requests = distinct_requests(18);
    let rounds = 5;
    let n_threads = 4;
    let completed = AtomicUsize::new(0);
    // (round, key, backend, bytes) per successful request.
    let victim = 1usize;

    let outcomes: Vec<Vec<(usize, usize, usize, String)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_threads)
            .map(|_| {
                let (router, requests, completed) = (&router, &requests, &completed);
                scope.spawn(move || {
                    let mut log = Vec::new();
                    for round in 0..rounds {
                        for (k, req) in requests.iter().enumerate() {
                            let routed = router
                                .request(req)
                                .unwrap_or_else(|e| panic!("request lost in round {round}: {e}"));
                            completed.fetch_add(1, Ordering::SeqCst);
                            log.push((round, k, routed.backend, artifact_bytes(&routed.response)));
                        }
                    }
                    log
                })
            })
            .collect();

        // Kill the victim mid-traffic: after roughly one round's worth
        // of aggregate completions, while requests are in flight. The
        // ring follows the backends' ephemeral ports, so the victim's
        // first key can come late in a round; wait for its first
        // connection too rather than racing it.
        wait_until("the first wave of traffic to reach the victim", || {
            completed.load(Ordering::SeqCst) >= requests.len()
                && fleet[victim]
                    .as_ref()
                    .is_some_and(|victim| victim.net_stats().accepted > 0)
        });
        let summary = fleet[victim].take().unwrap().shutdown();
        assert!(summary.net.accepted > 0, "the victim saw traffic first");

        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Zero loss: every request every thread made returned Ok (a panic
    // above would have failed the join). Exact count:
    let total: usize = outcomes.iter().map(Vec::len).sum();
    assert_eq!(total, n_threads * rounds * requests.len());

    // The victim is marked down, with failover(s) recorded.
    let states = router.backend_states();
    assert!(
        !states[victim].healthy,
        "the killed backend must be marked down: {states:?}"
    );
    assert!(
        states[victim].failovers >= 1,
        "at least one request must have failed over: {states:?}"
    );

    // Affinity after the kill: in the final round (well after the kill
    // settled), each key sticks to one *live* backend, and bytes match
    // the earliest answer for that key — replays are byte-identical.
    let mut first_bytes: Vec<Option<&String>> = vec![None; requests.len()];
    let mut final_owner: Vec<Option<usize>> = vec![None; requests.len()];
    for (round, k, backend, bytes) in outcomes.iter().flatten() {
        match first_bytes[*k] {
            None => first_bytes[*k] = Some(bytes),
            Some(reference) => assert_eq!(
                bytes, reference,
                "key {k} bytes must survive the remap unchanged"
            ),
        }
        if *round == rounds - 1 {
            assert_ne!(*backend, victim, "a dead backend answered round {round}");
            match final_owner[*k] {
                None => final_owner[*k] = Some(*backend),
                Some(owner) => assert_eq!(
                    *backend, owner,
                    "key {k} must stick to one live backend after the kill"
                ),
            }
        }
    }

    for server in fleet.into_iter().flatten() {
        server.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Probe recovery: a backend that comes back rejoins the ring.
// ---------------------------------------------------------------------------

#[test]
fn downed_backend_rejoins_after_a_successful_probe() {
    // Reserve an address for the not-yet-started backend by binding and
    // immediately dropping a listener (nothing else in this process
    // binds explicit ports, so the reuse race is negligible).
    let live = spawn_fleet(1).pop().unwrap();
    let reserved = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };
    let router = Router::with_config(
        vec![live.local_addr(), reserved],
        RouterConfig {
            probe_interval: Duration::from_millis(100),
            client: ClientConfig::default(),
            ..RouterConfig::default()
        },
    )
    .expect("distinct backend addresses");

    // Find keys the ring assigns to the (dead) second backend.
    let requests = distinct_requests(24);
    let orphaned: Vec<&CompileRequest> = requests
        .iter()
        .filter(|req| router.route(req) == Some(1))
        .collect();
    assert!(
        !orphaned.is_empty(),
        "24 keys must give the second backend at least one"
    );

    // Its keys fail over to the live backend (connect refused → mark
    // down), and every request still succeeds.
    for req in &orphaned {
        let routed = router.request(req).expect("failover request");
        assert_eq!(routed.backend, 0, "the dead backend cannot answer");
    }
    let states = router.backend_states();
    assert!(!states[1].healthy && states[1].downs >= 1, "{states:?}");

    // The backend comes back on its reserved address...
    let service = CompileService::builder().workers(2).build();
    let revived = NetServer::bind(reserved, Arc::new(service)).expect("rebind the reserved port");

    // ...and after the probe interval, its keys return to it.
    let req = orphaned[0];
    wait_until("the probe to restore the backend", || {
        std::thread::sleep(Duration::from_millis(25));
        router.request(req).expect("routed request").backend == 1
    });
    assert!(router.backend_states()[1].healthy);
    // Affinity is restored for *every* orphaned key, not just the probe
    // trigger.
    for req in &orphaned {
        assert_eq!(router.request(req).expect("restored request").backend, 1);
    }

    revived.shutdown();
    live.shutdown();
}

// ---------------------------------------------------------------------------
// Constructor validation: degenerate backend lists are refused, described.
// ---------------------------------------------------------------------------

#[test]
fn router_constructors_reject_empty_and_duplicate_backend_lists() {
    let assert_invalid = |err: ClientError, needle: &str| match err {
        ClientError::Server(e) => {
            assert_eq!(e.kind, "invalid-config", "{e}");
            assert!(
                e.error.contains(needle),
                "{:?} must mention {needle:?}",
                e.error
            );
        }
        other => panic!("expected an invalid-config server error, got {other}"),
    };

    assert_invalid(
        Router::new(Vec::new()).expect_err("an empty backend list cannot form a ring"),
        "at least one backend",
    );

    let addr: SocketAddr = "127.0.0.1:4242".parse().unwrap();
    let other: SocketAddr = "127.0.0.1:4243".parse().unwrap();
    assert_invalid(
        Router::new(vec![addr, other, addr])
            .expect_err("a duplicated backend address cannot join the ring twice"),
        "duplicate backend address 127.0.0.1:4242",
    );

    // The same validation guards the tuned constructor.
    assert_invalid(
        Router::with_config(Vec::new(), RouterConfig::default())
            .expect_err("with_config applies the same validation"),
        "at least one backend",
    );
}

// ---------------------------------------------------------------------------
// Pool permit accounting: discards release their checkout, every time.
// ---------------------------------------------------------------------------

#[test]
fn discard_path_never_leaks_checkout_permits() {
    let real = spawn_fleet(1).pop().unwrap();
    let real_addr = real.local_addr();

    // A rogue listener the pool dials instead of the backend. In fail
    // mode it accepts and immediately slams the connection shut (the
    // client sees a transport-layer EOF, the pool's discard path). In
    // recover mode it turns into a transparent byte proxy to the real
    // backend, so the *same pool address* comes back healthy.
    let rogue = TcpListener::bind("127.0.0.1:0").unwrap();
    let rogue_addr = rogue.local_addr().unwrap();
    let healthy = Arc::new(AtomicBool::new(false));
    let mode = Arc::clone(&healthy);
    std::thread::spawn(move || {
        for stream in rogue.incoming() {
            let Ok(stream) = stream else { break };
            if !mode.load(Ordering::SeqCst) {
                drop(stream);
                continue;
            }
            let upstream = TcpStream::connect(real_addr).expect("proxy upstream");
            let (mut up_r, mut up_w) = (upstream.try_clone().unwrap(), upstream);
            let (mut down_r, mut down_w) = (stream.try_clone().unwrap(), stream);
            std::thread::spawn(move || {
                let _ = std::io::copy(&mut down_r, &mut up_w);
                let _ = up_w.shutdown(std::net::Shutdown::Write);
            });
            std::thread::spawn(move || {
                let _ = std::io::copy(&mut up_r, &mut down_w);
                let _ = down_w.shutdown(std::net::Shutdown::Write);
            });
            break; // one proxied connection is all the recovery needs
        }
    });

    let cap = 2;
    let pool = PoolClient::new(
        rogue_addr,
        ClientConfig {
            read_timeout: Duration::from_secs(2),
            ..ClientConfig::default()
        },
        cap,
    );
    let req = serve_request("lnn", "lnn:6", CompileOptions::default());

    // 3× the cap: every cycle checks out a permit, fails at the
    // transport/framing layer, and must give the permit back via
    // `discard`. A single leaked permit wedges the pool at `cap`
    // checkouts and a later cycle blocks forever — caught here by the
    // watchdog deadline rather than a hung test.
    let done = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for cycle in 0..3 * cap {
                let err = pool
                    .request(&req)
                    .expect_err("the rogue listener answers nothing");
                assert!(
                    matches!(
                        err,
                        ClientError::Proto(_) | ClientError::Io { .. } | ClientError::Closed { .. }
                    ),
                    "cycle {cycle} must fail transport-shaped, got: {err}"
                );
                done.fetch_add(1, Ordering::SeqCst);
            }
        });
        wait_until("3x-cap failing cycles to complete without wedging", || {
            done.load(Ordering::SeqCst) == 3 * cap
        });
    });
    assert_eq!(
        pool.idle_connections(),
        0,
        "a discarded connection must never return to the idle set"
    );

    // Recovery on the same pool: the next checkout must find a permit
    // free and a fresh dial must complete a compile end to end.
    healthy.store(true, Ordering::SeqCst);
    let resp = pool
        .request(&req)
        .expect("the pool serves again after cycling failures past its cap");
    assert_eq!(resp.result.n, 6);

    real.shutdown();
}
