//! `wire-hot` and `wire-churn`: two client threads send compile requests
//! through one `Router` to two in-process `NetServer` backends on the
//! default `ServerConfig`, in a closed loop.
//!
//! * `wire-hot` draws keys from the fast-size serve workload and warms
//!   both caches in set-up, so every measured request is a cache hit.
//! * `wire-churn` draws keys from the full-size serve workload against
//!   caches smaller than the working set, with near repeats and
//!   concurrent duplicates, so hits, misses, singleflight joins and LRU
//!   evictions all recur.
//!
//! A cycle sends every key of the mix once (plus the churn repeats and
//! duplicates) in an order drawn from the seed; a window measures whole
//! cycles. Every artifact received is checked against the paper's
//! invariants the first time its key arrives and for byte identity with
//! that first arrival afterwards.

use crate::stats::{median, Block, Ratio, RequestMetrics};
use crate::trace::Tracer;
use crate::{paper, Args, Report, Rng, Window, MIN_SAMPLES, SETUP_REPS};
use qft_kernels::serve::proto::{read_frame, Frame, FrameKind, WireResponse, HEADER_LEN};
use qft_kernels::serve::Routed;
use qft_kernels::{
    CompileRequest, CompileResponse, CompileService, NetClient, NetServer, Router, ServeStats,
    Target,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Hot,
    Churn,
}

/// Client threads, each with its own connections (at most `nproc` = 2 on
/// the reference host).
const CLIENTS: usize = 2;
const BACKENDS: usize = 2;
/// Per-backend cache entries under churn: each backend owns about half
/// of the 90 full-size keys, so every cycle evicts.
const CHURN_CACHE: usize = 24;

/// Times each traced request's frame stages are replayed.
const FRAME_REPLAYS: usize = 2;

/// Two backends and the router in front of them.
struct Fleet {
    servers: Vec<NetServer>,
    router: Router,
}

impl Fleet {
    fn start(mix: Mix) -> Result<Fleet, String> {
        let mut servers = Vec::new();
        for _ in 0..BACKENDS {
            let mut service = CompileService::builder();
            if mix == Mix::Churn {
                service = service.cache_capacity(CHURN_CACHE);
            }
            let server = NetServer::bind("127.0.0.1:0", Arc::new(service.build()))
                .map_err(|e| format!("bind backend: {e}"))?;
            servers.push(server);
        }
        let router = Router::new(servers.iter().map(NetServer::local_addr).collect())
            .map_err(|e| format!("router: {e}"))?;
        Ok(Fleet { servers, router })
    }

    fn stats(&self) -> Vec<ServeStats> {
        self.servers.iter().map(|s| s.service().stats()).collect()
    }

    /// Closes the router's connections, then drains every backend;
    /// returns the protocol errors the backends saw.
    fn stop(self) -> u64 {
        drop(self.router);
        self.servers
            .into_iter()
            .map(|s| s.shutdown().net.proto_errors)
            .sum()
    }
}

/// The first artifact received for a key, which later ones must equal.
struct Reference {
    bytes: String,
    depth: u64,
    swaps: usize,
}

/// Checks every artifact received against its key's first arrival, and
/// that first arrival against the paper.
struct Checker {
    keys: Vec<CompileRequest>,
    refs: Mutex<Vec<Option<Arc<Reference>>>>,
}

impl Checker {
    fn new(keys: Vec<CompileRequest>) -> Checker {
        let refs = Mutex::new(vec![None; keys.len()]);
        Checker { keys, refs }
    }

    fn reference(&self, k: usize) -> Option<Arc<Reference>> {
        self.refs.lock().expect("reference table")[k].clone()
    }

    fn receive(&self, k: usize, response: &CompileResponse) -> Result<(), String> {
        let bytes = serde_json::to_string(&*response.result).map_err(|e| e.to_string())?;
        let first = match self.reference(k) {
            Some(first) => first,
            None => {
                let req = &self.keys[k];
                let target = Target::parse(&req.target).map_err(|e| e.to_string())?;
                let mut result = (*response.result).clone();
                paper::check(
                    &mut result,
                    &target,
                    &req.compiler,
                    req.options.approximation,
                    req.options.opt_level,
                    &mut Tracer::off(),
                    None,
                    0,
                )?;
                let fresh = Arc::new(Reference {
                    bytes: bytes.clone(),
                    depth: result.metrics.depth,
                    swaps: result.metrics.swaps,
                });
                let mut refs = self.refs.lock().expect("reference table");
                Arc::clone(refs[k].get_or_insert(fresh))
            }
        };
        if first.bytes != bytes {
            return Err("artifact bytes differ from the key's first arrival".into());
        }
        Ok(())
    }

    fn key(&self, k: usize) -> String {
        let r = &self.keys[k];
        format!(
            "{} {} opt{} degree {:?}",
            r.compiler, r.target, r.options.opt_level, r.options.approximation
        )
    }
}

/// The mix: every key once per cycle, plus (under churn) a fixed quarter
/// of the keys again 1–4 requests later. The seed draws the order and the
/// repeat distances; the composition of a cycle never changes.
struct Mixer {
    repeats: Vec<bool>,
    rng: Rng,
}

impl Mixer {
    fn new(mix: Mix, keys: usize, seed: u64) -> Mixer {
        Mixer {
            repeats: (0..keys).map(|k| mix == Mix::Churn && k % 4 == 1).collect(),
            rng: Rng::new(seed),
        }
    }

    /// The keys of one cycle, as a multiset.
    fn composition(&self) -> Vec<usize> {
        let repeats = (0..self.repeats.len()).filter(|&k| self.repeats[k]);
        (0..self.repeats.len()).chain(repeats).collect()
    }

    fn next_cycle(&mut self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.repeats.len()).collect();
        self.rng.shuffle(&mut order);
        // Position 2i holds the i-th key; its repeat lands 1–4 keys later.
        let mut slots: Vec<(usize, usize)> = Vec::new();
        for (i, &k) in order.iter().enumerate() {
            slots.push((2 * i, k));
            if self.repeats[k] {
                slots.push((2 * (i + 1 + self.rng.below(4)) + 1, k));
            }
        }
        slots.sort_unstable();
        slots.into_iter().map(|(_, k)| k).collect()
    }
}

/// The cycle the clients are drawing keys from.
struct Queue {
    mixer: Mixer,
    cycle: Vec<usize>,
    next: usize,
    cycles: usize,
}

/// One traced request: the real router call, plus replays of its stages.
struct Stages {
    router_ms: f64,
    digest_ms: f64,
    service_ms: f64,
    cached: bool,
    client_ms: f64,
    client_service_ms: f64,
    encode_ms: f64,
    decode_ms: f64,
    payload_bytes: usize,
}

/// What one client thread measured in one window.
#[derive(Default)]
struct ClientRun {
    /// (start, end) of each request in seconds from the window's start.
    requests: Vec<(f64, f64)>,
    failed: u64,
    stages: Vec<Stages>,
}

/// State the client threads share during one window.
struct Shared<'a> {
    fleet: &'a Fleet,
    checker: &'a Checker,
    mix: Mix,
    window: &'a Window,
    /// Keys both clients send at once when the window opens.
    storms: Vec<usize>,
    start: Instant,
    barrier: Barrier,
    done: AtomicUsize,
    queue: Mutex<Queue>,
    /// Held by a traced client from its router call to the end of its
    /// replays: traced requests go one at a time, so each replayed stage
    /// runs under the same load as the real one.
    turn: Mutex<()>,
}

impl Shared<'_> {
    /// The next key to send, or `None` once the window has run its time
    /// and its samples and the current cycle is used up.
    fn next_key(&self) -> Option<usize> {
        let mut q = self.queue.lock().expect("key queue");
        if q.next == q.cycle.len() {
            if q.cycles > 0
                && self.start.elapsed().as_secs_f64() >= self.window.seconds
                && self.done.load(Ordering::Relaxed) >= MIN_SAMPLES
            {
                return None;
            }
            q.cycle = q.mixer.next_cycle();
            q.next = 0;
            q.cycles += 1;
        }
        q.next += 1;
        Some(q.cycle[q.next - 1])
    }
}

struct Client<'a> {
    shared: &'a Shared<'a>,
    tracer: Tracer,
    /// One connection per backend, for the traced replays.
    conns: Vec<NetClient>,
    run: ClientRun,
}

impl Client<'_> {
    fn request(&mut self, k: usize) {
        let shared = self.shared;
        let req = &shared.checker.keys[k];
        let id = shared.done.fetch_add(1, Ordering::Relaxed) as u64;
        let _turn = shared
            .window
            .traced
            .then(|| shared.turn.lock().expect("trace turn"));
        let root = self.tracer.begin("serve.router.request", None, id);
        let start = shared.start.elapsed().as_secs_f64();
        let routed = shared.fleet.router.request(req);
        let end = shared.start.elapsed().as_secs_f64();
        self.tracer.end(root);
        let rtt_ms = (end - start) * 1e3;
        self.run.requests.push((start, end));
        let outcome = routed.map_err(|e| e.to_string()).and_then(|routed| {
            if shared.mix == Mix::Hot && !routed.response.cached {
                return Err("a warmed key missed the cache".into());
            }
            shared.checker.receive(k, &routed.response)?;
            if shared.window.traced {
                let stages = self.replay(req, &routed, rtt_ms, id)?;
                self.run.stages.push(stages);
            }
            Ok(())
        });
        if let Err(e) = outcome {
            eprintln!("request {} failed: {e}", shared.checker.key(k));
            self.run.failed += 1;
        }
    }

    /// Replays the stages of one routed request from outside, on the same
    /// request and response, timing each under its own span. The frame
    /// stages run [`FRAME_REPLAYS`] times and keep their fastest time, the
    /// closest a replay gets to the uncontended in-request stage.
    fn replay(
        &mut self,
        req: &CompileRequest,
        routed: &Routed,
        router_ms: f64,
        id: u64,
    ) -> Result<Stages, String> {
        let tr = &mut self.tracer;
        let ms = |tr: &Tracer, s: usize| tr.get(s).map_or(0.0, |s| s.ms());

        let s_digest = tr.begin("serve.digest.key", None, id);
        std::hint::black_box(req.key_digest());
        tr.end(s_digest);

        let s_client = tr.begin("serve.client.request", None, id);
        let again = self.conns[routed.backend].request(req);
        tr.end(s_client);
        let again = again.map_err(|e| format!("replayed client request: {e}"))?;

        // The replay must be the frame the server sends.
        let sent = Frame::response(0, &routed.response)
            .encode()
            .map_err(|e| e.to_string())?;
        let (mut encode_ms, mut decode_ms) = (f64::MAX, f64::MAX);
        for _ in 0..FRAME_REPLAYS {
            let s_enc = tr.begin("serve.proto.encode", None, id);
            let s_json = tr.begin("serde_json.encode", Some(s_enc), id);
            let response = routed.response.clone();
            let payload = serde_json::to_string(&WireResponse { seq: 0, response });
            tr.end(s_json);
            let wire = payload.map(|p| Frame::new(FrameKind::Response, p.into_bytes()).encode());
            tr.end(s_enc);
            let wire = wire
                .map_err(|e| e.to_string())?
                .map_err(|e| e.to_string())?;

            let s_dec = tr.begin("serve.proto.decode", None, id);
            let frame = read_frame(&mut wire.as_slice());
            let s_json = tr.begin("serde_json.decode", Some(s_dec), id);
            let decoded = frame.as_ref().map(|f| f.decode::<WireResponse>());
            tr.end(s_json);
            tr.end(s_dec);
            let decoded = decoded
                .map_err(|e| e.to_string())?
                .map_err(|e| e.to_string())?;
            if wire != sent || decoded.response.result.n != routed.response.result.n {
                return Err("replayed frame differs from Frame::response".into());
            }
            encode_ms = encode_ms.min(ms(tr, s_enc));
            decode_ms = decode_ms.min(ms(tr, s_dec));
        }
        Ok(Stages {
            router_ms,
            digest_ms: ms(tr, s_digest),
            service_ms: routed.response.wall_s * 1e3,
            cached: routed.response.cached,
            client_ms: ms(tr, s_client),
            client_service_ms: again.wall_s * 1e3,
            encode_ms,
            decode_ms,
            payload_bytes: sent.len() - HEADER_LEN,
        })
    }

    fn run(mut self) -> (ClientRun, Tracer) {
        let shared = self.shared;
        for &k in &shared.storms {
            shared.barrier.wait();
            self.request(k);
        }
        while let Some(k) = shared.next_key() {
            self.request(k);
        }
        for conn in self.conns {
            let _ = conn.goodbye();
        }
        (self.run, self.tracer)
    }
}

/// What one window measured, over both clients.
struct WindowRun {
    /// Every request of the window, as one block.
    block: Block,
    failed: u64,
    cycles: usize,
    elapsed_s: f64,
    stages: Vec<Stages>,
    tracer: Tracer,
    before: Vec<ServeStats>,
    after: Vec<ServeStats>,
}

fn run_window(
    fleet: &Fleet,
    checker: &Checker,
    mix: Mix,
    window: &Window,
    seed: u64,
    epoch: Instant,
) -> Result<WindowRun, String> {
    let before = fleet.stats();
    let shared = Shared {
        fleet,
        checker,
        mix,
        window,
        storms: storm_keys(mix, checker)?,
        start: Instant::now(),
        barrier: Barrier::new(CLIENTS),
        done: AtomicUsize::new(0),
        queue: Mutex::new(Queue {
            mixer: Mixer::new(mix, checker.keys.len(), seed),
            cycle: Vec::new(),
            next: 0,
            cycles: 0,
        }),
        turn: Mutex::new(()),
    };
    let mut conns = Vec::new();
    for _ in 0..CLIENTS {
        let mut per_backend = Vec::new();
        if window.traced {
            for server in &fleet.servers {
                let conn = NetClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
                per_backend.push(conn);
            }
        }
        conns.push(per_backend);
    }
    let results: Vec<(ClientRun, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .map(|conns| {
                let client = Client {
                    shared: &shared,
                    tracer: Tracer::new(epoch, window.traced),
                    conns,
                    run: ClientRun::default(),
                };
                scope.spawn(move || client.run())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed_s = shared.start.elapsed().as_secs_f64();
    let mut run = WindowRun {
        block: Block {
            ms: Vec::new(),
            seconds: 0.0,
        },
        failed: 0,
        cycles: shared.queue.lock().expect("key queue").cycles,
        elapsed_s,
        stages: Vec::new(),
        tracer: Tracer::new(epoch, false),
        before,
        after: fleet.stats(),
    };
    for (client, tracer) in results {
        for (start, end) in client.requests {
            run.block.ms.push((end - start) * 1e3);
            run.block.seconds = run.block.seconds.max(end);
        }
        run.failed += client.failed;
        run.stages.extend(client.stages);
        run.tracer.absorb(tracer);
    }
    Ok(run)
}

/// Keys both clients send at once when a churn window opens: the exact
/// SABRE kernels, the slowest compiles and so the likeliest duplicates to
/// join one compile in flight, and the largest artifact, so that two
/// concurrent decodes of it set the peak memory in every run.
fn storm_keys(mix: Mix, checker: &Checker) -> Result<Vec<usize>, String> {
    if mix == Mix::Hot {
        return Ok(Vec::new());
    }
    let exact = |k: &usize| checker.keys[*k].options.approximation.is_none();
    let mut storms: Vec<usize> = (0..checker.keys.len())
        .filter(|k| exact(k) && checker.keys[*k].compiler == "sabre")
        .collect();
    let mut widest = None;
    for k in (0..checker.keys.len()).filter(|k| exact(k) && checker.keys[*k].compiler == "lnn") {
        let req = &checker.keys[k];
        let n = Target::parse(&req.target)
            .map_err(|e| e.to_string())?
            .n_qubits();
        if req.options.opt_level == 1 && widest.is_none_or(|(w, _)| n > w) {
            widest = Some((n, k));
        }
    }
    storms.extend(widest.map(|(_, k)| k));
    Ok(storms)
}

/// Service counters summed over backends, as deltas across a window.
struct Counters {
    requests: u64,
    hits: u64,
    misses: u64,
    dedup_joins: u64,
    evictions: u64,
}

impl WindowRun {
    fn counters(&self) -> Counters {
        let delta = |f: fn(&ServeStats) -> u64| -> u64 {
            let sum = |v: &[ServeStats]| v.iter().map(f).sum::<u64>();
            sum(&self.after) - sum(&self.before)
        };
        Counters {
            requests: delta(|s| s.requests),
            hits: delta(|s| s.hits),
            misses: delta(|s| s.misses),
            dedup_joins: delta(|s| s.dedup_joins),
            evictions: delta(|s| s.evictions),
        }
    }
}

/// Starts a fleet; under `Hot`, warms both caches by sending every key
/// once through the router (the cold misses every later hit must equal).
fn setup(mix: Mix, checker: &Checker) -> Result<Fleet, String> {
    let fleet = Fleet::start(mix)?;
    match mix {
        Mix::Churn => {
            for stats in fleet.router.backend_stats() {
                stats.map_err(|e| format!("backend stats: {e}"))?;
            }
        }
        Mix::Hot => {
            let next = AtomicUsize::new(0);
            let warm = || -> Result<(), String> {
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = checker.keys.get(k) else {
                        return Ok(());
                    };
                    let routed = fleet.router.request(req);
                    routed
                        .map_err(|e| e.to_string())
                        .and_then(|routed| checker.receive(k, &routed.response))
                        .map_err(|e| format!("warming {}: {e}", checker.key(k)))?;
                }
            };
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..CLIENTS).map(|_| scope.spawn(warm)).collect();
                handles
                    .into_iter()
                    .try_for_each(|h| h.join().expect("warm-up thread"))
            })?;
        }
    }
    Ok(fleet)
}

pub fn run(args: &Args, mix: Mix) -> Result<Report, String> {
    let checker = Checker::new(qft_bench::serve_workload(mix == Mix::Hot));
    let mut setups = Vec::new();
    let mut fleet: Option<Fleet> = None;
    let mut proto_errors = 0;
    // A churn set-up is sub-millisecond; more repetitions steady its median.
    let reps = if mix == Mix::Churn {
        8 * SETUP_REPS
    } else {
        SETUP_REPS
    };
    for _ in 0..reps {
        if let Some(old) = fleet.take() {
            proto_errors += old.stop();
        }
        let t0 = Instant::now();
        fleet = Some(setup(mix, &checker)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let fleet = fleet.expect("at least one set-up");

    let epoch = Instant::now();
    let mut runs = Vec::new();
    for window in Window::plan(args) {
        runs.push(run_window(
            &fleet, &checker, mix, &window, args.seed, epoch,
        )?);
    }
    let plain = &runs[0];
    let counters = plain.counters();
    let mut failed = plain.failed;
    let served = plain.block.ms.len() as u64;
    if counters.requests != counters.hits + counters.misses + counters.dedup_joins
        || counters.requests != served
    {
        eprintln!("service counters disagree with the {served} requests routed");
        failed += 1;
    }
    if mix == Mix::Hot && counters.misses != 0 {
        eprintln!("{} misses in a window of warmed keys", counters.misses);
        failed += 1;
    }
    for state in fleet.router.backend_states() {
        if state.failovers + state.downs != 0 {
            eprintln!(
                "backend {} failed over {} times and went down {} times",
                state.addr, state.failovers, state.downs
            );
            failed += 1;
        }
    }
    let refs: Vec<Arc<Reference>> = (0..checker.keys.len())
        .map(|k| {
            checker
                .reference(k)
                .ok_or_else(|| format!("{} never arrived", checker.key(k)))
        })
        .collect::<Result<_, _>>()?;
    let depth_sum: u64 = refs.iter().map(|r| r.depth).sum();
    let swap_sum: usize = refs.iter().map(|r| r.swaps).sum();
    // The mean artifact size over one cycle of the mix: exact per seed,
    // whatever the number of cycles a window fits.
    let cycle = Mixer::new(mix, refs.len(), args.seed).composition();
    let bytes_mean =
        cycle.iter().map(|&k| refs[k].bytes.len()).sum::<usize>() as f64 / cycle.len() as f64;

    let mut report = Report::new(served, failed);
    report.note(format!(
        "{}: {} keys, {CLIENTS} client threads, {BACKENDS} backends, closed loop, \
         {} cycles in {:.2}s",
        args.workload,
        checker.keys.len(),
        plain.cycles,
        plain.elapsed_s
    ));
    let hit_ratio = Ratio {
        part: counters.hits + counters.dedup_joins,
        base: counters.requests,
    };
    report.note(format!(
        "service: hit ratio {hit_ratio}, {} misses, {} joins, {} evictions",
        counters.misses, counters.dedup_joins, counters.evictions
    ));
    let measured = RequestMetrics::pooled(&plain.block).ok_or("too few requests")?;

    if !args.trace {
        proto_errors += fleet.stop();
        if proto_errors != 0 {
            return Err(format!(
                "{proto_errors} protocol errors on a clean workload"
            ));
        }
        report.timing("setup_s", median(&setups), "s", setups.len());
        report.measured(&measured);
        report.metric("depth_sum", depth_sum as f64, "count");
        report.metric("swap_sum", swap_sum as f64, "count");
        report.metric("resp_bytes_mean", bytes_mean, "bytes");
        return Ok(report);
    }

    let traced = &runs[1];
    let stages = &traced.stages;
    let by_name = traced.tracer.self_ms_by_name();
    let med = |v: Vec<f64>| if v.is_empty() { 0.0 } else { median(&v) };
    let self_med = |name: &str| by_name.get(name).map_or(0.0, |v| median(v));
    let pick = |f: fn(&Stages) -> f64| med(stages.iter().map(f).collect());
    let hits: Vec<f64> = stages
        .iter()
        .filter(|s| s.cached)
        .map(|s| s.service_ms)
        .collect();
    let misses: Vec<f64> = stages
        .iter()
        .filter(|s| !s.cached)
        .map(|s| s.service_ms)
        .collect();
    let overruns = stages
        .iter()
        .filter(|s| s.digest_ms + s.service_ms + s.encode_ms + s.decode_ms > s.router_ms)
        .count();
    report.note(format!(
        "traced: {} requests, {} hits, {} misses, {overruns} stage overruns",
        stages.len(),
        hits.len(),
        misses.len()
    ));
    report.metric("serve.digest.key_us", pick(|s| s.digest_ms) * 1e3, "us");
    report.metric("serve.service.hit_us", med(hits) * 1e3, "us");
    report.metric("serve.service.miss_ms", med(misses), "ms");
    report.metric("serve.service.hit_ratio", hit_ratio.value(), "ratio");
    report.metric("serve.service.requests", counters.requests as f64, "count");
    report.metric(
        "serve.service.evictions",
        counters.evictions as f64,
        "count",
    );
    report.metric(
        "serve.service.dedup_joins",
        counters.dedup_joins as f64,
        "count",
    );
    report.metric("serde_json.encode_ms", self_med("serde_json.encode"), "ms");
    report.metric("serde_json.decode_ms", self_med("serde_json.decode"), "ms");
    let payload_mean =
        stages.iter().map(|s| s.payload_bytes as f64).sum::<f64>() / stages.len().max(1) as f64;
    report.metric("serde_json.bytes", payload_mean, "bytes");
    report.metric(
        "serve.proto.encode_ms",
        self_med("serve.proto.encode"),
        "ms",
    );
    report.metric(
        "serve.proto.decode_ms",
        self_med("serve.proto.decode"),
        "ms",
    );
    report.metric("serve.client.rtt_ms", pick(|s| s.client_ms), "ms");
    report.metric(
        "serve.server.turnaround_ms",
        pick(|s| s.client_ms - s.client_service_ms - s.encode_ms - s.decode_ms),
        "ms",
    );
    report.metric("serve.router.rtt_ms", pick(|s| s.router_ms), "ms");
    report.metric(
        "serve.router.overhead_ms",
        pick(|s| s.router_ms - s.client_ms),
        "ms",
    );
    proto_errors += fleet.stop();
    report.metric("serve.server.proto_errors", proto_errors as f64, "count");
    let traced_p50 = RequestMetrics::pooled(&traced.block)
        .ok_or("too few traced requests")?
        .p50;
    report.metric("trace.overhead_ms", traced_p50 - measured.p50, "ms");
    report.metric("trace.stage_overruns", overruns as f64, "count");
    report.write_spans(args, &traced.tracer);
    Ok(report)
}
