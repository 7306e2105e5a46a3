//! Network serving bench: replays the mixed serving workload through the
//! wire protocol — a real `NetServer` on a localhost ephemeral port, real
//! `NetClient` connections — and writes `BENCH_net.json` in the working
//! directory. A cold pass (one connection, every request a miss) and a
//! warm pass (a **fresh** connection, every request a hit) measure the
//! wire round-trip latency on top of the in-process numbers that
//! `BENCH_serve.json` reports; a duplicate storm then fans the same
//! request across concurrent connections.
//!
//! The run doubles as an executable acceptance check; the binary exits
//! non-zero if any of these regress:
//!
//! * every workload request must compile over the wire, and the warm pass
//!   must return bytes identical to the cold pass from a different
//!   connection (the determinism contract crosses the socket);
//! * the warm pass must hit the cache on every request;
//! * the duplicate storm must cost exactly one compile (wire-level stats:
//!   one miss, every other storm request a hit or an in-flight join);
//! * the wire stats must keep `requests == hits + misses + dedup_joins`
//!   and agree with the in-process snapshot;
//! * shutdown must drain cleanly: every connection joined, zero protocol
//!   errors, and the port refused afterward.
//!
//! `--fast` shrinks the target sizes (used by CI).

use qft_bench::PhaseStats;
use qft_serve::{CompileService, NetClient, NetServer, NetStats, ServeStats};
use serde::Serialize;
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// The duplicate-storm leg: `clients` concurrent connections all asking
/// for the same uncached artifact.
#[derive(Debug, Serialize)]
struct StormStats {
    clients: usize,
    misses: u64,
    dedup_joins: u64,
    hits: u64,
}

/// The committed artifact.
#[derive(Debug, Serialize)]
struct NetBench {
    requests: usize,
    workers: usize,
    cold: PhaseStats,
    warm: PhaseStats,
    storm: StormStats,
    stats: ServeStats,
    net: NetStats,
    connections_joined: usize,
}

/// One pass over the workload on a fresh connection; returns per-request
/// round-trip walls, the serialized result bytes, and the cached flags.
fn run_pass(
    addr: std::net::SocketAddr,
    reqs: &[qft_serve::CompileRequest],
    violations: &mut usize,
) -> (Vec<f64>, Vec<String>, Vec<bool>, f64) {
    let mut client = NetClient::connect(addr).expect("connect to bench server");
    let mut walls = Vec::with_capacity(reqs.len());
    let mut bytes = Vec::with_capacity(reqs.len());
    let mut cached = Vec::with_capacity(reqs.len());
    let t0 = Instant::now();
    for req in reqs {
        let t = Instant::now();
        match client.request(req) {
            Ok(resp) => {
                walls.push(t.elapsed().as_secs_f64());
                bytes.push(serde_json::to_string(&resp.result).expect("serialize result"));
                cached.push(resp.cached);
            }
            Err(e) => {
                eprintln!("WORKLOAD FAILURE: {} on {}: {e}", req.compiler, req.target);
                *violations += 1;
                bytes.push(String::new());
                cached.push(false);
            }
        }
    }
    let total_s = t0.elapsed().as_secs_f64();
    let _ = client.goodbye();
    (walls, bytes, cached, total_s)
}

fn main() {
    let fast = qft_bench::has_flag("--fast");
    let reqs = qft_bench::serve_workload(fast);
    let service = Arc::new(CompileService::with_config(reqs.len() * 2, 4));
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("bind server");
    let addr = server.local_addr();
    let mut violations = 0usize;

    let (cold_walls, cold_bytes, cold_cached, cold_total) = run_pass(addr, &reqs, &mut violations);
    let (warm_walls, warm_bytes, warm_cached, warm_total) = run_pass(addr, &reqs, &mut violations);

    for (i, req) in reqs.iter().enumerate() {
        if cold_cached[i] || !warm_cached[i] {
            eprintln!(
                "CACHE-DISCIPLINE VIOLATION: {} on {} (cold cached={}, warm cached={})",
                req.compiler, req.target, cold_cached[i], warm_cached[i]
            );
            violations += 1;
        }
        if cold_bytes[i] != warm_bytes[i] {
            eprintln!(
                "DETERMINISM VIOLATION: {} on {}: warm bytes differ across connections",
                req.compiler, req.target
            );
            violations += 1;
        }
    }

    // Duplicate storm: concurrent connections, one uncached artifact.
    let before = service.stats();
    let clients = 8usize;
    let storm_req = qft_serve::CompileRequest {
        compiler: "sabre".into(),
        target: "lattice:4".into(),
        options: qft_core::CompileOptions {
            opt_level: 2,
            seed: 99,
            ..Default::default()
        },
    };
    let barrier = Arc::new(Barrier::new(clients));
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let (addr, req, barrier) = (addr, storm_req.clone(), Arc::clone(&barrier));
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).expect("storm connect");
                barrier.wait();
                let resp = client.request(&req).expect("storm request");
                let bytes = serde_json::to_string(&resp.result).expect("serialize result");
                let _ = client.goodbye();
                bytes
            })
        })
        .collect();
    let storm_bytes: Vec<String> = handles
        .into_iter()
        .map(|h| h.join().expect("storm thread"))
        .collect();
    if storm_bytes.iter().any(|b| b != &storm_bytes[0]) {
        eprintln!("DETERMINISM VIOLATION: storm responses are not byte-identical");
        violations += 1;
    }

    // Wire stats: fetched over a socket, checked against the in-process
    // snapshot and the stats invariant.
    let mut stats_client = NetClient::connect(addr).expect("stats connect");
    let wire = stats_client.stats().expect("wire stats");
    let _ = stats_client.goodbye();
    let storm = StormStats {
        clients,
        misses: wire.misses - before.misses,
        dedup_joins: wire.dedup_joins - before.dedup_joins,
        hits: wire.hits - before.hits,
    };
    if storm.misses != 1 {
        eprintln!(
            "DEDUP VIOLATION: storm of {clients} duplicates cost {} compiles, expected 1",
            storm.misses
        );
        violations += 1;
    }
    if storm.misses + storm.dedup_joins + storm.hits != clients as u64 {
        eprintln!(
            "STATS VIOLATION: storm accounting {} + {} + {} != {clients}",
            storm.misses, storm.dedup_joins, storm.hits
        );
        violations += 1;
    }
    if wire.requests != wire.hits + wire.misses + wire.dedup_joins {
        eprintln!(
            "STATS VIOLATION: requests {} != hits {} + misses {} + dedup_joins {}",
            wire.requests, wire.hits, wire.misses, wire.dedup_joins
        );
        violations += 1;
    }
    let local = service.stats();
    if (wire.requests, wire.hits, wire.misses, wire.dedup_joins)
        != (local.requests, local.hits, local.misses, local.dedup_joins)
    {
        eprintln!("STATS VIOLATION: wire snapshot disagrees with the in-process snapshot");
        violations += 1;
    }

    // Clean drain: every connection joined, no protocol errors, port
    // refused afterward.
    let summary = server.shutdown();
    if summary.net.proto_errors != 0 || summary.net.slow_timeouts != 0 {
        eprintln!(
            "DRAIN VIOLATION: {} protocol error(s), {} slowloris timeout(s) on a clean workload",
            summary.net.proto_errors, summary.net.slow_timeouts
        );
        violations += 1;
    }
    if TcpStream::connect(addr).is_ok() {
        eprintln!("DRAIN VIOLATION: port still accepting after shutdown");
        violations += 1;
    }

    let bench = NetBench {
        requests: reqs.len(),
        workers: service.workers(),
        cold: PhaseStats::from_walls(&cold_walls, cold_total),
        warm: PhaseStats::from_walls(&warm_walls, warm_total),
        storm,
        stats: local,
        net: summary.net,
        connections_joined: summary.connections_joined,
    };
    println!(
        "{} wire requests × {} workers: cold p50 {:.3}ms p95 {:.3}ms ({:.0} req/s), \
         warm p50 {:.4}ms p95 {:.4}ms ({:.0} req/s)",
        bench.requests,
        bench.workers,
        bench.cold.p50_ms,
        bench.cold.p95_ms,
        bench.cold.throughput_rps,
        bench.warm.p50_ms,
        bench.warm.p95_ms,
        bench.warm.throughput_rps,
    );
    println!(
        "storm: {} clients → {} miss / {} join / {} hit; drained {} connection(s), \
         accepted {} goodbyes {}",
        bench.storm.clients,
        bench.storm.misses,
        bench.storm.dedup_joins,
        bench.storm.hits,
        bench.connections_joined,
        bench.net.accepted,
        bench.net.goodbyes,
    );

    let json = serde_json::to_string_pretty(&bench).expect("serialize bench");
    std::fs::write("BENCH_net.json", &json).expect("write BENCH_net.json");
    println!("[wrote BENCH_net.json]");
    if violations > 0 {
        eprintln!("{violations} network serving violation(s)");
        std::process::exit(1);
    }
}
