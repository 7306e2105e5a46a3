//! `qft_serve` — the compile service as a JSON-lines CLI.
//!
//! Reads one [`CompileRequest`] per stdin line, serves it through a shared
//! [`CompileService`] (so repeated requests hit the LRU result cache), and
//! writes one JSON object per stdout line: a compact summary row by
//! default, the full [`qft_serve::CompileResponse`] (mapped circuit
//! included) under `--full`, or a [`ServeError`] (`kind` + `error`) for
//! anything malformed — bad JSON, unknown compilers, invalid targets. The
//! final [`ServeStats`] snapshot goes to stderr.
//!
//! By default each request is compiled inline, in order. Under `--stream`
//! the example instead submits every request to the service's persistent
//! worker pool with [`CompileService::submit`] and prints rows as they
//! complete — completion order, each row tagged with the submission
//! sequence number (`seq`) so callers can re-correlate. Duplicate
//! requests in a streamed batch are deduplicated in flight: one compile,
//! every duplicate served the same shared artifact.
//!
//! Two network modes front the same service over TCP (the framing is
//! specified in `crates/serve/PROTOCOL.md`):
//!
//! * `--listen <addr>` — serve the compile service on a socket (e.g.
//!   `--listen 127.0.0.1:7878`) until the process is killed; stats go to
//!   stderr on an interval.
//! * `--connect <addr>` — instead of compiling in-process, forward each
//!   stdin request to a running `--listen` instance over one connection
//!   and print the rows it answers; the final stderr stats snapshot is
//!   fetched over the wire.
//! * `--route <addr,addr,...>` — front a whole fleet of `--listen`
//!   instances through the consistent-hash [`Router`]: each request is
//!   hashed to its owning backend (cache affinity), transport failures
//!   fail over to the next backend on the ring, and every row is tagged
//!   with the answering backend. The final stderr snapshot reports
//!   per-backend routing state and wire-level stats.
//!
//! Two elastic-membership flags modify `--route` mode:
//!
//! * `--join <addr>` — before serving, bind a *new* in-process backend
//!   on `<addr>` (port 0 for ephemeral), warm it up by replaying the
//!   cache entries for the keys it will own from the existing backends
//!   (the wire-level `warmup-request`/`warmup-batch` protocol), then
//!   grow the ring with it; the warm-up report goes to stderr.
//! * `--leave <addr>` — before serving, remove `<addr>` from the ring:
//!   it stops receiving new keys, in-flight requests drain, then its
//!   pooled connections drop. The backend process itself keeps running.
//!
//! ```text
//! $ cargo run --release --example qft_serve <<'EOF'
//! {"compiler": "heavyhex", "target": "heavyhex:4"}
//! {"compiler": "lattice", "target": "lattice:6", "options": {"opt_level": 2, "approximation": 3}}
//! {"compiler": "heavyhex", "target": "heavyhex:4"}
//! EOF
//! {"compiler":"heavyhex","target":"heavyhex-20",...,"cached":false,...}
//! {"compiler":"lattice","target":"lattice-surgery-6x6",...,"cached":false,...}
//! {"compiler":"heavyhex","target":"heavyhex-20",...,"cached":true,...}
//! ```

use qft_kernels::serve::{
    warmup, ClientConfig, CompileRequest, CompileResponse, CompileService, NetClient, NetServer,
    Router, ServeError,
};
use serde::Serialize;
use std::io::{BufRead, Write};
use std::net::SocketAddr;
use std::sync::Arc;

/// The default per-request output row: headline metrics plus the cache
/// and timing metadata.
#[derive(Debug, Serialize)]
struct Summary {
    compiler: String,
    target: String,
    n: usize,
    depth: u64,
    swaps: usize,
    cphases: usize,
    cached: bool,
    wall_s: f64,
    compile_s: f64,
}

impl Summary {
    fn of(resp: &CompileResponse) -> Summary {
        Summary {
            compiler: resp.result.compiler.clone(),
            target: resp.result.target.clone(),
            n: resp.result.n,
            depth: resp.result.metrics.depth,
            swaps: resp.result.metrics.swaps,
            cphases: resp.result.metrics.cphases,
            cached: resp.cached,
            wall_s: resp.wall_s,
            compile_s: resp.compile_s,
        }
    }
}

/// A streamed row: the summary plus the submission sequence number, so
/// completion-order output can be re-correlated with input order.
#[derive(Debug, Serialize)]
struct StreamedRow {
    seq: u64,
    row: Summary,
}

fn render(outcome: &Result<CompileResponse, ServeError>, full: bool) -> String {
    match outcome {
        Ok(resp) if full => serde_json::to_string(resp),
        Ok(resp) => serde_json::to_string(&Summary::of(resp)),
        Err(e) => serde_json::to_string(e),
    }
    .expect("responses always serialize")
}

/// Inline mode: compile each request on this thread, in input order.
fn serve_inline(service: &CompileService, lines: &[String], full: bool) {
    let mut out = std::io::stdout().lock();
    for line in lines {
        let outcome = serde_json::from_str::<CompileRequest>(line)
            .map_err(ServeError::bad_request)
            .and_then(|req| service.compile(&req));
        writeln!(out, "{}", render(&outcome, full)).expect("write stdout");
    }
}

/// Streaming mode: submit everything up front to the worker pool, then
/// drain completions as they land (completion order, `seq`-tagged).
fn serve_stream(service: &CompileService, lines: &[String], full: bool) {
    let mut out = std::io::stdout().lock();
    let (replies, completions) = std::sync::mpsc::channel();
    let mut seq = 0;
    for line in lines {
        match serde_json::from_str::<CompileRequest>(line).map_err(ServeError::bad_request) {
            Ok(req) => {
                service
                    .submit(seq, req, &replies)
                    .expect("submit to worker pool");
                seq += 1;
            }
            // Malformed lines never reach the pool; report them inline.
            Err(e) => writeln!(out, "{}", render(&Err(e), full)).expect("write stdout"),
        }
    }
    drop(replies);
    for (seq, outcome) in completions {
        let json = match &outcome {
            Ok(resp) if full => serde_json::to_string(resp).expect("responses always serialize"),
            Ok(resp) => serde_json::to_string(&StreamedRow {
                seq,
                row: Summary::of(resp),
            })
            .expect("responses always serialize"),
            Err(e) => serde_json::to_string(e).expect("responses always serialize"),
        };
        writeln!(out, "{json}").expect("write stdout");
    }
}

/// `--listen` mode: front the service with a [`NetServer`] and run until
/// killed, reporting stats to stderr every few seconds.
fn serve_listen(addr: &str) -> ! {
    let service = Arc::new(CompileService::new());
    let server = NetServer::bind(addr, Arc::clone(&service))
        .unwrap_or_else(|e| panic!("cannot listen on {addr}: {e}"));
    eprintln!("listening on {}", server.local_addr());
    loop {
        std::thread::sleep(std::time::Duration::from_secs(5));
        eprintln!(
            "{}",
            serde_json::to_string(&service.stats()).expect("stats always serialize")
        );
    }
}

/// `--connect` mode: forward each stdin request over one connection to a
/// `--listen` instance; rows come back in submission order.
fn serve_connect(addr: &str, lines: &[String], full: bool) {
    let mut client =
        NetClient::connect(addr).unwrap_or_else(|e| panic!("cannot connect to {addr}: {e}"));
    let mut out = std::io::stdout().lock();
    for line in lines {
        let outcome = match serde_json::from_str::<CompileRequest>(line) {
            Ok(req) => client
                .request(&req)
                .map_err(|e| ServeError::bad_request(format!("wire request failed: {e}"))),
            // Malformed lines never reach the wire; report them inline.
            Err(e) => Err(ServeError::bad_request(e)),
        };
        writeln!(out, "{}", render(&outcome, full)).expect("write stdout");
    }
    let stats = client
        .stats()
        .unwrap_or_else(|e| panic!("wire stats failed: {e}"));
    let _ = client.goodbye();
    eprintln!(
        "{}",
        serde_json::to_string_pretty(&stats).expect("stats always serialize")
    );
}

/// A routed row: the summary plus which backend answered and how many
/// backends failed over before the answer.
#[derive(Debug, Serialize)]
struct RoutedRow {
    backend: String,
    failovers: u32,
    row: Summary,
}

/// `--route` mode: consistent-hash each stdin request across a fleet of
/// `--listen` backends, tagging every row with the answering backend.
/// `--join` grows the ring with a freshly bound, warm-up-replayed
/// backend first; `--leave` shrinks it with a drain.
fn serve_route(addrs: &str, join: Option<&str>, leave: Option<&str>, lines: &[String], full: bool) {
    let donor_addrs: Vec<SocketAddr> = addrs
        .split(',')
        .map(|a| {
            a.trim()
                .parse()
                .unwrap_or_else(|e| panic!("bad backend address {a:?}: {e}"))
        })
        .collect();
    let router =
        Router::new(donor_addrs.clone()).unwrap_or_else(|e| panic!("bad backend list: {e}"));

    // Held for the process lifetime so the joined backend keeps serving.
    let mut joined: Option<NetServer> = None;
    if let Some(addr) = join {
        let service = Arc::new(CompileService::new());
        let server = NetServer::bind(addr, Arc::clone(&service))
            .unwrap_or_else(|e| panic!("cannot bind the joining backend on {addr}: {e}"));
        let join_addr = server.local_addr();
        let predicate = router.warmup_predicate(join_addr);
        let report =
            warmup::replay_into(&service, &donor_addrs, &predicate, &ClientConfig::default());
        router
            .add_backend(join_addr)
            .unwrap_or_else(|e| panic!("cannot join {join_addr}: {e}"));
        eprintln!(
            "joined {join_addr} warm: {}",
            serde_json::to_string(&report).expect("reports always serialize")
        );
        joined = Some(server);
    }
    if let Some(addr) = leave {
        let addr: SocketAddr = addr
            .parse()
            .unwrap_or_else(|e| panic!("bad --leave address {addr:?}: {e}"));
        router
            .remove_backend(addr)
            .unwrap_or_else(|e| panic!("cannot leave {addr}: {e}"));
        eprintln!("left {addr}: drained and out of the ring");
    }

    let mut out = std::io::stdout().lock();
    for line in lines {
        let json = match serde_json::from_str::<CompileRequest>(line) {
            Ok(req) => match router.request(&req) {
                Ok(routed) if full => {
                    serde_json::to_string(&routed.response).expect("responses always serialize")
                }
                Ok(routed) => serde_json::to_string(&RoutedRow {
                    backend: routed.addr.to_string(),
                    failovers: routed.failovers,
                    row: Summary::of(&routed.response),
                })
                .expect("responses always serialize"),
                Err(e) => serde_json::to_string(&ServeError::bad_request(format!(
                    "routed request failed: {e}"
                )))
                .expect("responses always serialize"),
            },
            // Malformed lines never reach the wire; report them inline.
            Err(e) => serde_json::to_string(&ServeError::bad_request(e))
                .expect("responses always serialize"),
        };
        writeln!(out, "{json}").expect("write stdout");
    }
    eprintln!(
        "{}",
        serde_json::to_string_pretty(&router.backend_states()).expect("states always serialize")
    );
    for tagged in router.backend_stats() {
        match tagged {
            Ok(tagged) => eprintln!(
                "{}",
                serde_json::to_string(&tagged).expect("stats always serialize")
            ),
            Err(e) => eprintln!("{{\"error\": \"backend stats failed: {e}\"}}"),
        }
    }
    drop(joined);
}

/// The value following `flag` on the command line, if present.
fn flag_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let stream = std::env::args().any(|a| a == "--stream");
    if let Some(addr) = flag_value("--listen") {
        serve_listen(&addr);
    }
    let stdin = std::io::stdin();
    let lines: Vec<String> = stdin
        .lock()
        .lines()
        .map(|l| l.expect("read stdin"))
        .filter(|l| !l.trim().is_empty())
        .collect();
    if let Some(addr) = flag_value("--connect") {
        serve_connect(&addr, &lines, full);
        return;
    }
    if let Some(addrs) = flag_value("--route") {
        let join = flag_value("--join");
        let leave = flag_value("--leave");
        serve_route(&addrs, join.as_deref(), leave.as_deref(), &lines, full);
        return;
    }
    let service = CompileService::new();
    if stream {
        serve_stream(&service, &lines, full);
    } else {
        serve_inline(&service, &lines, full);
    }
    eprintln!(
        "{}",
        serde_json::to_string_pretty(&service.stats()).expect("stats always serialize")
    );
}
