//! Serving-stack bench: the compile service measured at each of its three
//! entry points — in-process ([`CompileService::compile`]), over one
//! socket ([`NetClient`] to a [`NetServer`]) and through the
//! consistent-hash [`Router`] over fleets of 1, 2 and 4 backends — plus a
//! warm join. Every leg runs on one harness: [`Fleet`] binds the
//! backends and owns the one teardown check, [`closed_loop`] is the one
//! driver (a barrier storm is a closed loop over one key), and
//! [`Report`] collects the named gates and the rows of
//! `BENCH_stack.json`, written in the working directory.
//!
//! The legs, and the gates each enforces (any failed gate exits 1):
//!
//! * **in-process** — a cold and a cached pass over the mixed workload
//!   ([`qft_bench::serve_workload`]): every request compiles, the cold
//!   pass is all misses and the cached pass all hits with byte-identical
//!   artifacts, and cached p50 is below cold p50 (at least 10× below
//!   outside `--fast`). Then 1/2/4/8 producers replay the warmed
//!   workload: no uncached answer, bytes unchanged afterwards, and the
//!   8-vs-1 throughput ratio is at least 3× with 8 or more cores, 0.4×
//!   (no contention collapse) otherwise. A 64-thread storm on one key
//!   against a fresh service performs 1 compile, and all 64 answers
//!   share one `Arc`.
//! * **wire** — the same cold and warm passes, each on a fresh
//!   connection to one server (bytes compared across connections); an
//!   8-client storm costs 1 miss with misses + joins + hits = 8 and
//!   byte-identical answers; the wire stats keep
//!   `requests == hits + misses + dedup_joins` and equal the in-process
//!   snapshot.
//! * **routed-1/2/4** — the same two passes through the router, then 4
//!   producers on at most 2 connections per backend replay the keys:
//!   all hits with 0 errors, [`Router::route`] names the answering
//!   backend on every request, every backend ends healthy with 0
//!   failovers and 0 downs, and fleet misses equal the key count (digest
//!   affinity compiles each key once). The 4-vs-1 throughput ratio is at
//!   least 1.5× with 8 or more cores, 0.4× otherwise.
//! * **warm join / cold join** — a 2-donor fleet grows to 3, once after
//!   the warm-up replay and once cold: the joiner owns a key, answers
//!   every key it owns, the replay meets no donor error and rejects no
//!   entry, and the warm hit rate is at least 0.8 while the cold one is
//!   at most 0.2 (a cold miss rate of at least 0.8).
//! * **every fleet's shutdown** — 0 denied, 0 protocol errors, 0 slow
//!   timeouts, and the port refused afterwards.
//!
//! The routed and join legs replay the fast-size keys in both modes: a
//! full-size routed run spends its time in the client's artifact decode,
//! not in routing. `--fast` shrinks the in-process and wire workload and
//! the lap counts (used by CI).

use qft_bench::PhaseStats;
use qft_core::CompileOptions;
use qft_serve::{
    warmup, ClientConfig, CompileRequest, CompileResponse, CompileService, NetClient, NetServer,
    Router, RouterConfig, ServeStats,
};
use serde::Serialize;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Producer threads behind the router in every routed leg.
const ROUTED_PRODUCERS: usize = 4;
/// Checkout bound per backend pool: small enough that one backend is a
/// real bottleneck for [`ROUTED_PRODUCERS`], so fleet width — not
/// producer count — is what the routed legs vary.
const CONNECTIONS_PER_BACKEND: usize = 2;
/// Cache entries per service: room for every workload key twice over,
/// because the legs measure affinity and hit paths, not eviction.
const CACHE_CAPACITY: usize = 256;

/// One row of `BENCH_stack.json`. `floor` is the lower bound the run
/// enforced on `value`, or `None` for a row that is reported, not gated.
#[derive(Debug, Serialize)]
struct Row {
    leg: String,
    metric: String,
    value: f64,
    floor: Option<f64>,
    effective_cores: usize,
}

/// The gate collector: the report rows plus every named check and the
/// ones that failed.
struct Report {
    effective_cores: usize,
    rows: Vec<Row>,
    checked: usize,
    failed: Vec<String>,
}

impl Report {
    fn new() -> Report {
        Report {
            effective_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rows: Vec::new(),
            checked: 0,
            failed: Vec::new(),
        }
    }

    /// One named gate: a failure is printed with its detail and makes
    /// the run exit 1.
    fn check(&mut self, leg: &str, gate: &str, ok: bool, detail: String) {
        self.checked += 1;
        if !ok {
            eprintln!("GATE FAILED [{leg}] {gate}: {detail}");
            self.failed.push(format!("[{leg}] {gate}"));
        }
    }

    /// One report row; a `floor` also makes it a gate on `value`.
    fn metric(&mut self, leg: &str, metric: &str, value: f64, floor: Option<f64>) {
        if let Some(floor) = floor {
            let detail = format!("{value:.4} is below the floor {floor}");
            self.check(leg, &format!("{metric} floor"), value >= floor, detail);
        }
        self.rows.push(Row {
            leg: leg.to_string(),
            metric: metric.to_string(),
            value,
            floor,
            effective_cores: self.effective_cores,
        });
    }

    /// The scale-out floor: `full` on a host with the 8 cores to show
    /// it, else 0.4 — no contention collapse.
    fn scaling_floor(&self, full: f64) -> Option<f64> {
        Some(if self.effective_cores >= 8 { full } else { 0.4 })
    }

    /// Prints the table, writes `BENCH_stack.json`, and exits 1 if any
    /// gate failed.
    fn finish(self) {
        println!("{:<12} {:<28} {:>14} floor", "leg", "metric", "value");
        for r in &self.rows {
            let floor = r.floor.map_or(String::new(), |f| f.to_string());
            println!("{:<12} {:<28} {:>14.4} {floor}", r.leg, r.metric, r.value);
        }
        let json = serde_json::to_string_pretty(&self.rows).expect("serialize the rows");
        std::fs::write("BENCH_stack.json", json).expect("write BENCH_stack.json");
        println!(
            "[wrote BENCH_stack.json: {} rows; {} gates checked on {} core(s)]",
            self.rows.len(),
            self.checked,
            self.effective_cores
        );
        if !self.failed.is_empty() {
            eprintln!(
                "{} gate(s) failed: {}",
                self.failed.len(),
                self.failed.join(", ")
            );
            std::process::exit(1);
        }
    }
}

/// What a sender answers: the response, or the failure as text.
type Answer = Result<CompileResponse, String>;

/// One closed-loop pass: its span and every answer with its own wall
/// time in seconds, producer by producer in send order.
struct Pass {
    elapsed_s: f64,
    answers: Vec<(f64, Answer)>,
}

impl Pass {
    /// Whether every request was answered with a response meeting `ok`.
    fn all(&self, ok: impl Fn(&CompileResponse) -> bool) -> bool {
        self.answers.iter().all(|(_, a)| a.as_ref().is_ok_and(&ok))
    }

    /// Answers that are not cache hits, failures included.
    fn uncached(&self) -> usize {
        let hit = |a: &Answer| a.as_ref().is_ok_and(|r| r.cached);
        self.answers.iter().filter(|(_, a)| !hit(a)).count()
    }

    /// The artifact bytes of every answer (empty for a failure).
    fn bytes(&self) -> Vec<String> {
        let bytes = |a: &Answer| a.as_ref().map_or(String::new(), artifact_bytes);
        self.answers.iter().map(|(_, a)| bytes(a)).collect()
    }

    /// Latency over the answered requests, throughput over the span.
    fn phase(&self) -> PhaseStats {
        let walls: Vec<f64> = self
            .answers
            .iter()
            .filter(|(_, a)| a.is_ok())
            .map(|(wall, _)| *wall)
            .collect();
        PhaseStats::from_walls(&walls, self.elapsed_s)
    }
}

fn artifact_bytes(resp: &CompileResponse) -> String {
    serde_json::to_string(&resp.result).expect("serialize an artifact")
}

/// How many artifacts differ between two passes over the same keys.
fn drifted(a: &[String], b: &[String]) -> usize {
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

/// The one closed-loop driver: `producers` threads each build their own
/// sender with `connect`, meet at a barrier, and replay `reqs` `laps`
/// times, each lap from a staggered first key so producers fan out
/// across backends instead of convoying on one. A single key is a
/// barrier storm. Each producer stamps its own start after the barrier
/// and its own finish, and the pass spans the earliest start to the
/// latest finish: a clock started by a coordinating thread after the
/// barrier could start after the producers had already run.
fn closed_loop<S>(
    producers: usize,
    laps: usize,
    reqs: &[CompileRequest],
    connect: impl Fn() -> S + Sync,
) -> Pass
where
    S: FnMut(&CompileRequest) -> Answer,
{
    let barrier = Barrier::new(producers);
    let runs: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..producers)
            .map(|t| {
                let (barrier, connect) = (&barrier, &connect);
                scope.spawn(move || {
                    let mut send = connect();
                    let mut answers = Vec::with_capacity(laps * reqs.len());
                    barrier.wait();
                    let start = Instant::now();
                    for lap in 0..laps {
                        let shift = t * 7 + lap * 3;
                        for i in 0..reqs.len() {
                            let sent = Instant::now();
                            let answer = send(&reqs[(i + shift) % reqs.len()]);
                            answers.push((sent.elapsed().as_secs_f64(), answer));
                        }
                    }
                    (start, Instant::now(), answers)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("producer thread"))
            .collect()
    });
    let start = runs.iter().map(|r| r.0).min().expect("a producer");
    let finish = runs.iter().map(|r| r.1).max().expect("a producer");
    Pass {
        elapsed_s: (finish - start).as_secs_f64(),
        answers: runs.into_iter().flat_map(|r| r.2).collect(),
    }
}

/// The cold and warm passes every entry point shares: one producer
/// replays the workload on a fresh sender twice. Every request must be
/// answered, the cold pass must miss on every key and the warm pass hit,
/// and the warm bytes must equal the cold bytes. Records the latency
/// rows and returns both phases plus the cold bytes.
fn cold_then_warm<S>(
    report: &mut Report,
    leg: &str,
    reqs: &[CompileRequest],
    connect: impl Fn() -> S + Sync,
) -> (PhaseStats, PhaseStats, Vec<String>)
where
    S: FnMut(&CompileRequest) -> Answer,
{
    let cold = closed_loop(1, 1, reqs, &connect);
    let warm = closed_loop(1, 1, reqs, &connect);
    let answers = cold.answers.iter().chain(&warm.answers);
    let failures: Vec<_> = answers.filter_map(|(_, a)| a.as_ref().err()).collect();
    let detail = format!("{} failed, first: {:?}", failures.len(), failures.first());
    report.check(leg, "every request answered", failures.is_empty(), detail);
    let detail = format!("{} cold answers were cached", reqs.len() - cold.uncached());
    report.check(leg, "cold pass all misses", cold.all(|r| !r.cached), detail);
    let uncached = warm.uncached();
    let detail = format!("{uncached} warm answers were not hits");
    report.check(leg, "warm pass all hits", uncached == 0, detail);
    let cold_bytes = cold.bytes();
    let drifted = drifted(&cold_bytes, &warm.bytes());
    let detail = format!("{drifted} artifacts differ");
    report.check(leg, "warm bytes equal cold bytes", drifted == 0, detail);
    let (cold, warm) = (cold.phase(), warm.phase());
    for (pass, s) in [("cold", &cold), ("warm", &warm)] {
        report.metric(leg, &format!("{pass}.p50_ms"), s.p50_ms, None);
        report.metric(leg, &format!("{pass}.p95_ms"), s.p95_ms, None);
        report.metric(leg, &format!("{pass}.rps"), s.throughput_rps, None);
    }
    (cold, warm, cold_bytes)
}

/// One backend's service; the in-process legs use the same shape.
fn new_service() -> CompileService {
    CompileService::builder()
        .cache_capacity(CACHE_CAPACITY)
        .workers(2)
        .build()
}

/// The storm's key: a search compiler with the aggressive pass tail, so
/// the one deduplicated compile is long enough for the storm to overlap
/// it. No workload request shares its key.
fn storm_request() -> CompileRequest {
    CompileRequest::new("sabre", "lattice:4").with_options(
        CompileOptions::default()
            .with_seed(7)
            .with_opt_level(2)
            .with_approximation(3),
    )
}

/// Backends on ephemeral localhost ports, each with its own service:
/// state shared between backends would hide affinity bugs.
struct Fleet(Vec<NetServer>);

impl Fleet {
    fn new(n: usize) -> Fleet {
        let bind =
            |_| NetServer::bind("127.0.0.1:0", Arc::new(new_service())).expect("bind a backend");
        Fleet((0..n).map(bind).collect())
    }

    fn addrs(&self) -> Vec<SocketAddr> {
        self.0.iter().map(NetServer::local_addr).collect()
    }

    /// The one teardown check: every backend drains with 0 denied, 0
    /// protocol errors and 0 slow timeouts, and refuses its port after.
    fn teardown(self, report: &mut Report, leg: &str) {
        let mut faults = Vec::new();
        for server in self.0 {
            let addr = server.local_addr();
            let net = server.shutdown().net;
            let refused = TcpStream::connect(addr).is_err();
            if net.denied + net.proto_errors + net.slow_timeouts != 0 || !refused {
                faults.push(format!("{addr}: {net:?}, port refused: {refused}"));
            }
        }
        report.check(leg, "clean drain", faults.is_empty(), faults.join("; "));
    }
}

/// A router over `addrs` with the bench's connection bound.
fn router(addrs: Vec<SocketAddr>) -> Router {
    let config = RouterConfig {
        connections_per_backend: CONNECTIONS_PER_BACKEND,
        ..RouterConfig::default()
    };
    Router::with_config(addrs, config).expect("distinct ephemeral backend addresses")
}

/// The in-process leg: cold and cached passes, the producer sweep, the
/// determinism sweep and the 64-thread storm.
fn in_process(report: &mut Report, reqs: &[CompileRequest], fast: bool) {
    let leg = "in-process";
    let service = new_service();
    let serve = || |req: &CompileRequest| service.compile(req).map_err(|e| e.to_string());
    let (cold, cached, reference) = cold_then_warm(report, leg, reqs, serve);
    let detail = format!("cached {:.4} ms, cold {:.4} ms", cached.p50_ms, cold.p50_ms);
    let below = cached.p50_ms < cold.p50_ms;
    report.check(leg, "cached p50 below cold p50", below, detail);
    let speedup = cold.p50_ms / cached.p50_ms.max(f64::EPSILON);
    report.metric(leg, "speedup_p50", speedup, (!fast).then_some(10.0));

    let laps = if fast { 3 } else { 10 };
    let (mut uncached, mut rps) = (0, Vec::new());
    for producers in [1, 2, 4, 8] {
        let pass = closed_loop(producers, laps, reqs, serve);
        uncached += pass.uncached();
        rps.push(pass.phase().throughput_rps);
        let metric = format!("producers.{producers}");
        report.metric(leg, &format!("{metric}.rps"), rps[rps.len() - 1], None);
        report.metric(leg, &format!("{metric}.elapsed_s"), pass.elapsed_s, None);
    }
    let detail = format!("{uncached} answers were not hits on a warmed service");
    report.check(
        leg,
        "no uncached answer at 1/2/4/8 producers",
        uncached == 0,
        detail,
    );
    let floor = report.scaling_floor(3.0);
    report.metric(leg, "speedup_8v1", rps[3] / rps[0], floor);
    let drifted = drifted(&reference, &closed_loop(1, 1, reqs, serve).bytes());
    let detail = format!("{drifted} cached artifacts drifted");
    report.check(leg, "bytes unchanged after the sweep", drifted == 0, detail);

    let fresh = new_service();
    let storm = closed_loop(64, 1, &[storm_request()], || {
        |req: &CompileRequest| fresh.compile(req).map_err(|e| e.to_string())
    });
    let stats = fresh.stats();
    let arcs: Vec<_> = storm
        .answers
        .iter()
        .filter_map(|(_, a)| a.as_ref().ok())
        .collect();
    let shared = arcs.len() == 64 && arcs.iter().all(|r| Arc::ptr_eq(&r.result, &arcs[0].result));
    let detail = format!("{} compiles, one shared Arc: {shared}", stats.misses);
    let ok = stats.misses == 1 && shared;
    report.check(leg, "64-thread storm: 1 compile, one Arc", ok, detail);
    report.metric(leg, "storm.compiles", stats.misses as f64, None);
    report.metric(leg, "storm.dedup_joins", stats.dedup_joins as f64, None);
    report.metric(leg, "storm.hits", stats.hits as f64, None);
}

/// The wire leg: one server, cold and warm passes on fresh connections,
/// the 8-client storm, the stats round trip and the drain.
fn wire(report: &mut Report, reqs: &[CompileRequest]) {
    let leg = "wire";
    let fleet = Fleet::new(1);
    let (addr, service) = (fleet.0[0].local_addr(), Arc::clone(fleet.0[0].service()));
    let connect = || {
        let mut client = NetClient::connect(addr).expect("connect to the bench server");
        move |req: &CompileRequest| client.request(req).map_err(|e| e.to_string())
    };
    cold_then_warm(report, leg, reqs, connect);

    let before = service.stats();
    let clients = 8;
    let storm = closed_loop(clients, 1, &[storm_request()], connect);
    let bytes = storm.bytes();
    let identical = storm.all(|_| true) && bytes.iter().all(|b| *b == bytes[0]);
    let detail = "a storm answer failed or differs".to_string();
    report.check(leg, "storm answers byte-identical", identical, detail);
    let mut stats_client = NetClient::connect(addr).expect("connect for stats");
    let wire = stats_client.stats().expect("wire stats");
    let _ = stats_client.goodbye();
    let (misses, joins, hits) = (
        wire.misses - before.misses,
        wire.dedup_joins - before.dedup_joins,
        wire.hits - before.hits,
    );
    let detail = format!("{misses} misses + {joins} joins + {hits} hits");
    let ok = misses == 1 && misses + joins + hits == clients as u64;
    report.check(
        leg,
        "8-client storm: 1 miss, misses + joins + hits = 8",
        ok,
        detail,
    );
    report.metric(leg, "storm.misses", misses as f64, None);
    report.metric(leg, "storm.dedup_joins", joins as f64, None);
    report.metric(leg, "storm.hits", hits as f64, None);
    let counters = |s: &ServeStats| (s.requests, s.hits, s.misses, s.dedup_joins);
    let (wire_counts, local) = (counters(&wire), counters(&service.stats()));
    let detail = format!("wire {wire_counts:?}, in-process {local:?}");
    let ok = wire.requests == wire.hits + wire.misses + wire.dedup_joins && wire_counts == local;
    report.check(
        leg,
        "wire stats keep the invariant, equal in-process",
        ok,
        detail,
    );
    report.metric(leg, "requests", wire.requests as f64, None);
    fleet.teardown(report, leg);
}

/// One routed leg over `backends` fresh backends; returns the measured
/// pass's throughput.
fn routed(report: &mut Report, keys: &[CompileRequest], backends: usize, laps: usize) -> f64 {
    let leg = &format!("routed-{backends}");
    let fleet = Fleet::new(backends);
    let router = router(fleet.addrs());
    let misrouted = AtomicUsize::new(0);
    let send = || {
        |req: &CompileRequest| {
            let predicted = router.route(req);
            let routed = router.request(req).map_err(|e| e.to_string())?;
            if predicted != Some(routed.backend) {
                misrouted.fetch_add(1, Ordering::Relaxed);
            }
            Ok(routed.response)
        }
    };
    cold_then_warm(report, leg, keys, send);
    let pass = closed_loop(ROUTED_PRODUCERS, laps, keys, send);
    let uncached = pass.uncached();
    let detail = format!("{uncached} answers failed or were not hits");
    report.check(
        leg,
        "measured pass all hits, 0 errors",
        uncached == 0,
        detail,
    );
    let misrouted = misrouted.load(Ordering::Relaxed);
    let detail = format!("{misrouted} answers came from another backend");
    report.check(
        leg,
        "route() names the answering backend",
        misrouted == 0,
        detail,
    );
    let states = router.backend_states();
    let sick: Vec<_> = states
        .iter()
        .filter(|s| !s.healthy || s.failovers + s.downs != 0)
        .collect();
    let detail = format!("{sick:?}");
    report.check(
        leg,
        "every backend healthy, 0 failovers, 0 downs",
        sick.is_empty(),
        detail,
    );
    let stats: Result<Vec<_>, _> = router
        .backend_stats()
        .into_iter()
        .map(|s| s.map(|t| t.stats))
        .collect();
    let fleet_misses: u64 = stats.iter().flatten().map(|s| s.misses).sum();
    let detail = format!(
        "{fleet_misses} misses for {} keys {:?}",
        keys.len(),
        stats.as_ref().err()
    );
    let ok = fleet_misses == keys.len() as u64;
    report.check(leg, "fleet misses equal the key count", ok, detail);
    for (i, (s, state)) in stats.iter().flatten().zip(&states).enumerate() {
        report.metric(leg, &format!("backend[{i}].hit_rate"), s.hit_rate(), None);
        report.metric(
            leg,
            &format!("backend[{i}].served"),
            state.served as f64,
            None,
        );
    }
    let rps = pass.phase().throughput_rps;
    report.metric(leg, "rps", rps, None);
    report.metric(leg, "elapsed_s", pass.elapsed_s, None);
    drop(router);
    fleet.teardown(report, leg);
    rps
}

/// One join run: warm a 2-donor fleet, grow it to 3 (after the warm-up
/// replay when `warm`), replay the joiner's owned keys, and return its
/// cache-hit rate over them.
fn join(report: &mut Report, keys: &[CompileRequest], warm: bool) -> f64 {
    let leg = if warm { "warm join" } else { "cold join" };
    let mut fleet = Fleet::new(2);
    let donors = fleet.addrs();
    let router = router(donors.clone());
    let failed = keys
        .iter()
        .filter(|req| router.request(req).is_err())
        .count();
    let detail = format!("{failed} donor warm-pass requests failed");
    report.check(leg, "donors answer every key", failed == 0, detail);

    let joiner = Fleet::new(1).0.remove(0);
    let addr = joiner.local_addr();
    let predicate = router.warmup_predicate(addr);
    let owned: Vec<_> = keys
        .iter()
        .filter(|r| predicate.owns(r.key_digest()))
        .collect();
    let detail = "the joiner owns no workload key, so the leg measures nothing".to_string();
    report.check(leg, "the joiner owns a key", !owned.is_empty(), detail);
    if warm {
        let config = ClientConfig::default();
        let replay = warmup::replay_into(joiner.service(), &donors, &predicate, &config);
        let errors: Vec<_> = replay
            .donors
            .iter()
            .filter_map(|d| d.error.as_ref())
            .collect();
        let rejected = replay.import.rejected;
        let detail = format!("{errors:?}, {rejected} rejected");
        let ok = errors.is_empty() && rejected == 0;
        report.check(leg, "no donor errors, 0 entries rejected", ok, detail);
        let imported = replay.import.imported as f64;
        report.metric(leg, "transferred_entries", imported, None);
    }
    let index = router.add_backend(addr).expect("join a fresh address");
    let (mut answered, mut hits) = (0, 0);
    for req in &owned {
        if let Ok(routed) = router.request(req) {
            answered += usize::from(routed.backend == index);
            hits += usize::from(routed.backend == index && routed.response.cached);
        }
    }
    let detail = format!(
        "the joiner answered {answered} of {} owned keys",
        owned.len()
    );
    report.check(
        leg,
        "the joiner answers every owned key",
        answered == owned.len(),
        detail,
    );
    report.metric(leg, "owned_keys", owned.len() as f64, None);
    drop(router);
    fleet.0.push(joiner);
    fleet.teardown(report, leg);
    hits as f64 / owned.len().max(1) as f64
}

fn main() {
    let fast = qft_bench::has_flag("--fast");
    let mut report = Report::new();
    let reqs = qft_bench::serve_workload(fast);
    in_process(&mut report, &reqs, fast);
    wire(&mut report, &reqs);

    let keys = qft_bench::serve_workload(true);
    let laps = if fast { 2 } else { 5 };
    let rps = [1, 2, 4].map(|backends| routed(&mut report, &keys, backends, laps));
    let floor = report.scaling_floor(1.5);
    report.metric("routed", "speedup_4v1", rps[2] / rps[0], floor);

    let warm = join(&mut report, &keys, true);
    let cold = join(&mut report, &keys, false);
    report.metric("warm join", "hit_rate", warm, Some(0.8));
    report.metric("cold join", "miss_rate", 1.0 - cold, Some(0.8));
    report.finish();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn closed_loop_spans_every_producers_whole_run() {
        let spin = Duration::from_millis(2);
        let reqs: Vec<_> = (4..9)
            .map(|n| CompileRequest::new("lnn", format!("lnn:{n}")))
            .collect();
        let pass = closed_loop(3, 2, &reqs, || {
            |_: &CompileRequest| {
                let t0 = Instant::now();
                while t0.elapsed() < spin {}
                Err("spun".to_string())
            }
        });
        let one_producer = spin.as_secs_f64() * (2 * reqs.len()) as f64;
        assert_eq!(pass.answers.len(), 3 * 2 * reqs.len());
        assert!(
            pass.elapsed_s >= one_producer,
            "pass spans {:.4} s but one producer spun {one_producer:.4} s",
            pass.elapsed_s
        );
    }
}
