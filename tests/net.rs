//! The network-serving suite (ISSUE 8): the TCP front end exercised over
//! real localhost sockets — ephemeral ports, real threads, real bytes.
//!
//! Contracts under test:
//!
//! * **Byte identity over the wire** — the serialized artifact for one
//!   request is identical across connections, across cache states, and
//!   across a full server restart (fresh service, cold cache).
//! * **Exactly one compile under a multi-client storm** — N clients on N
//!   connections hammering the same request perform one compile, proven
//!   by *wire-level* stats (`misses == 1`), not in-process inspection.
//! * **Graceful drain** — `shutdown()` finishes in-flight streams
//!   (responses delivered, goodbye frames sent) while refusing new
//!   requests (`draining` errors) and new connections, and joins every
//!   thread before returning.
//! * **Fault injection never takes the server down** — mid-stream
//!   disconnects, garbage bytes, a slowloris half-written header, a
//!   header that declares 16 MiB and stalls, a hostile length prefix and
//!   a JSON nesting bomb each cost at most one connection, answered with
//!   a descriptive error frame where the stream is still framed; a
//!   request delivered one byte at a time inside the per-frame deadline
//!   is served; healthy clients keep compiling throughout.
//! * **Payloads never panic the decoder** — arbitrary Unicode strings
//!   (stray quotes, backslashes and `\u` fragments included) and
//!   byte-level mutations of real encoded payloads decode through
//!   `Frame::decode` as a value or a `ProtoError::Json`, never a panic.
//!
//! Plus the serve-layer regression pins: a clean shutdown counts
//! zero denied connections (the drain's self-wake is not a client), a
//! request pipelined behind the client's goodbye is refused instead of
//! admitted, and `NetClient::stats` correlates its round-trip (no stale
//! snapshot returned, no spurious one left queued).
//!
//! And the forward-compatibility pin: a frame with an *unknown
//! kind byte* (a future protocol revision, or the reserved byte 4) is
//! refused per-frame with a descriptive error naming the byte — the
//! payload is consumed, the stream stays framed, and the same connection
//! keeps serving.

mod common;

use common::{artifact_bytes, contended_request, serve_request, wait_until};
use proptest::prelude::*;
use qft_kernels::serve::proto::{
    self, Frame, FrameKind, ProtoError, WireFault, WireRequest, WireResponse, WireWarmupBatch,
    HEADER_LEN, MAGIC, MAX_PAYLOAD, VERSION,
};
use qft_kernels::serve::warmup::OwnedPredicate;
use qft_kernels::serve::{shared_registry, NetEvent, NetServer, ServerConfig};
use qft_kernels::{
    ClientConfig, CompileOptions, CompileRequest, CompileService, NetClient, QftCompiler, Registry,
    Target,
};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Byte identity: across connections, cache states, and a server restart.
// ---------------------------------------------------------------------------

#[test]
fn artifacts_are_byte_identical_across_connections_and_restart() {
    let req = contended_request();

    let server = NetServer::bind("127.0.0.1:0", Arc::new(CompileService::new())).unwrap();
    let addr = server.local_addr();

    // Connection A compiles cold; connection B hits the cache. Same bytes.
    let mut a = NetClient::connect(addr).unwrap();
    let resp_a = a.request(&req).unwrap();
    assert!(!resp_a.cached, "first request must be the cold miss");
    let mut b = NetClient::connect(addr).unwrap();
    let resp_b = b.request(&req).unwrap();
    assert!(resp_b.cached, "second connection must hit the shared cache");
    assert_eq!(artifact_bytes(&resp_a), artifact_bytes(&resp_b));

    // Both close gracefully; the server drains cleanly.
    assert_eq!(a.goodbye().unwrap().served, 1);
    assert_eq!(b.goodbye().unwrap().served, 1);
    let summary = server.shutdown();
    assert_eq!(summary.net.accepted, 2);
    assert_eq!(summary.net.goodbyes, 2);

    // A *restarted* server — fresh service, cold cache, new port — must
    // reproduce the identical bytes: determinism is a pipeline property,
    // not a cache artifact.
    let server = NetServer::bind("127.0.0.1:0", Arc::new(CompileService::new())).unwrap();
    let mut c = NetClient::connect(server.local_addr()).unwrap();
    let resp_c = c.request(&req).unwrap();
    assert!(!resp_c.cached, "restarted server starts cold");
    assert_eq!(
        artifact_bytes(&resp_a),
        artifact_bytes(&resp_c),
        "a server restart must not change a single artifact byte"
    );
    drop(c);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Multi-client duplicate storm: exactly one compile, proven over the wire.
// ---------------------------------------------------------------------------

#[test]
fn multi_client_storm_performs_exactly_one_compile_by_wire_stats() {
    let server = NetServer::bind("127.0.0.1:0", Arc::new(CompileService::new())).unwrap();
    let addr = server.local_addr();
    let req = contended_request();
    let n_clients = 8;
    let barrier = Barrier::new(n_clients);

    let bytes: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_clients)
            .map(|_| {
                let (req, barrier) = (&req, &barrier);
                scope.spawn(move || {
                    let mut client = NetClient::connect(addr).expect("storm connect");
                    barrier.wait();
                    let resp = client.request(req).expect("storm request");
                    client.goodbye().expect("storm goodbye");
                    artifact_bytes(&resp)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(bytes.len(), n_clients);
    for b in &bytes[1..] {
        assert_eq!(b, &bytes[0], "every client must receive identical bytes");
    }

    // The proof is wire-level: a fresh connection asks the server itself.
    let mut observer = NetClient::connect(addr).unwrap();
    let stats = observer.stats().unwrap();
    assert_eq!(stats.requests, n_clients as u64);
    assert_eq!(stats.misses, 1, "singleflight must hold across sockets");
    assert_eq!(stats.hits + stats.dedup_joins, n_clients as u64 - 1);
    drop(observer);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Wire-level stats: the accounting identity, and equality with in-process.
// ---------------------------------------------------------------------------

#[test]
fn wire_stats_keep_the_invariant_and_match_in_process_stats() {
    let server = NetServer::bind("127.0.0.1:0", Arc::new(CompileService::new())).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    // One miss, one hit, one more miss.
    let warm = serve_request("lnn", "lnn:6", CompileOptions::default());
    client.request(&warm).unwrap();
    client.request(&warm).unwrap();
    client
        .request(&serve_request("lnn", "lnn:7", CompileOptions::default()))
        .unwrap();

    let wire = client.stats().unwrap();
    assert_eq!(
        wire.requests,
        wire.hits + wire.misses + wire.dedup_joins,
        "the accounting identity must hold over the wire"
    );
    assert_eq!((wire.requests, wire.hits, wire.misses), (3, 1, 2));

    // Quiescent, the wire snapshot equals the in-process one: counters
    // exactly, latency floats up to JSON round-trip.
    let local = server.service().stats();
    assert_eq!(
        (wire.requests, wire.hits, wire.misses, wire.dedup_joins),
        (local.requests, local.hits, local.misses, local.dedup_joins),
    );
    assert_eq!(
        (wire.evictions, wire.errors, wire.queue_depth),
        (local.evictions, local.errors, local.queue_depth),
    );
    assert_eq!(
        (wire.workers, wire.cache_capacity, wire.cache_entries),
        (local.workers, local.cache_capacity, local.cache_entries),
    );
    assert_eq!(
        (wire.cache_shards, wire.queue_capacity, wire.in_flight),
        (local.cache_shards, local.queue_capacity, local.in_flight),
    );
    assert!((wire.p50_ms - local.p50_ms).abs() < 1e-6, "p50 drifted");
    assert!((wire.p99_ms - local.p99_ms).abs() < 1e-6, "p99 drifted");

    drop(client);
    server.shutdown();
}

#[test]
fn pipelined_submissions_correlate_by_seq() {
    let server = NetServer::bind("127.0.0.1:0", Arc::new(CompileService::new())).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    // Three submissions in flight at once; responses arrive in completion
    // order, each tagged with its seq — seq k carried lnn:(4+k).
    let seqs: Vec<u64> = (4..7)
        .map(|n| {
            client
                .submit(&serve_request(
                    "lnn",
                    &format!("lnn:{n}"),
                    CompileOptions::default(),
                ))
                .unwrap()
        })
        .collect();
    assert_eq!(seqs, vec![0, 1, 2]);
    let mut seen = Vec::new();
    for _ in 0..3 {
        match client.next_event().unwrap() {
            NetEvent::Response { seq, response } => {
                assert_eq!(response.result.n, 4 + seq as usize, "seq mismatch");
                seen.push(seq);
            }
            other => panic!("expected a response, got {other:?}"),
        }
    }
    seen.sort_unstable();
    assert_eq!(seen, seqs);

    let bye = client.goodbye().unwrap();
    assert_eq!(bye.served, 3, "the goodbye reports the served count");
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Graceful drain: in-flight work finishes, new work is refused, threads join.
// ---------------------------------------------------------------------------

/// A test-only compiler that parks inside `compile` until its gate opens —
/// the deterministic way to hold a worker busy. Each test that needs one
/// gets its own gate statics so parallel test threads never cross-release.
struct GateCompiler {
    name: &'static str,
    open: &'static Mutex<bool>,
    cv: &'static Condvar,
    entered: &'static AtomicUsize,
}

impl QftCompiler for GateCompiler {
    fn name(&self) -> &'static str {
        self.name
    }
    fn description(&self) -> &'static str {
        "test compiler that blocks until its gate opens"
    }
    fn compile(
        &self,
        target: &Target,
        opts: &CompileOptions,
    ) -> Result<qft_kernels::CompileResult, qft_kernels::CompileError> {
        self.entered.fetch_add(1, Ordering::SeqCst);
        let mut open = self.open.lock().expect("gate mutex");
        while !*open {
            open = self.cv.wait(open).expect("gate condvar");
        }
        drop(open);
        shared_registry().resolve("lnn")?.compile(target, opts)
    }
}

static DRAIN_OPEN: Mutex<bool> = Mutex::new(false);
static DRAIN_CV: Condvar = Condvar::new();
static DRAIN_ENTERED: AtomicUsize = AtomicUsize::new(0);

fn drain_registry() -> &'static Registry {
    static GATED: OnceLock<&'static Registry> = OnceLock::new();
    GATED.get_or_init(|| {
        let mut r = Registry::with_core();
        r.register(Box::new(GateCompiler {
            name: "gate-drain",
            open: &DRAIN_OPEN,
            cv: &DRAIN_CV,
            entered: &DRAIN_ENTERED,
        }));
        Box::leak(Box::new(r))
    })
}

#[test]
fn graceful_drain_finishes_in_flight_and_refuses_new_work() {
    let service = CompileService::builder()
        .registry(drain_registry())
        .workers(1)
        .build();
    let server = NetServer::bind("127.0.0.1:0", Arc::new(service)).unwrap();
    let addr = server.local_addr();

    // Park the single worker inside a gated compile submitted over the
    // wire — the in-flight stream the drain must finish.
    let mut client = NetClient::connect(addr).unwrap();
    let gated_seq = client
        .submit(&CompileRequest::new("gate-drain", "lnn:4"))
        .unwrap();
    wait_until("the gated compile to start", || {
        DRAIN_ENTERED.load(Ordering::SeqCst) > 0
    });

    // Begin the drain on its own thread (shutdown blocks until complete:
    // it cannot finish while the gate holds the compile in flight).
    let drain = std::thread::spawn(move || server.shutdown());

    // The drain closes the listener almost immediately — long before the
    // in-flight compile finishes. Once connects are refused, the drain
    // flag is definitely visible to every connection thread.
    wait_until("the drained listener to refuse connections", || {
        TcpStream::connect(addr).is_err()
    });

    // A request submitted *during* the drain is refused with a structured
    // `draining` error on a connection that stays open — never a reset.
    // (No response can precede the refusal: the single worker is parked.)
    let refused_seq = client
        .submit(&CompileRequest::new("gate-drain", "lnn:5"))
        .unwrap();
    match client.next_event().unwrap() {
        NetEvent::Fail { seq, error } => {
            assert_eq!(seq, Some(refused_seq));
            assert_eq!(error.kind, "draining");
            assert!(
                error.error.contains("draining"),
                "the refusal must explain itself: {error}"
            );
        }
        other => panic!("expected a draining refusal, got {other:?}"),
    }

    // Release the gate: the in-flight compile must now complete and be
    // delivered, then the server says goodbye.
    *DRAIN_OPEN.lock().unwrap() = true;
    DRAIN_CV.notify_all();

    let mut delivered = Vec::new();
    let goodbye = loop {
        match client.next_event().unwrap() {
            NetEvent::Response { seq, response } => {
                assert_eq!(response.result.n, 4 + seq as usize);
                delivered.push(seq);
            }
            NetEvent::Goodbye(g) => break g,
            other => panic!("unexpected drain event: {other:?}"),
        }
    };
    assert_eq!(
        delivered,
        vec![gated_seq],
        "exactly the in-flight compile is delivered before the goodbye"
    );
    assert!(goodbye.reason.contains("draining"));
    assert_eq!(goodbye.served, 1);

    // shutdown() returns only after every thread is joined; afterwards
    // the port is still genuinely closed.
    let summary = drain.join().unwrap();
    assert!(summary.connections_joined >= 1);
    assert!(summary.net.goodbyes >= 1);
    assert!(
        TcpStream::connect(addr).is_err(),
        "the drained server's port must refuse connections"
    );
}

// ---------------------------------------------------------------------------
// Fault injection: the server survives everything.
// ---------------------------------------------------------------------------

#[test]
fn fault_injection_matrix_never_takes_the_server_down() {
    // A short per-frame deadline so the slowloris cases settle quickly;
    // idle (between-frames) connections are unaffected by it.
    let deadline = Duration::from_millis(250);
    let config = ServerConfig {
        read_timeout: deadline,
        ..ServerConfig::default()
    };
    let server =
        NetServer::bind_with("127.0.0.1:0", Arc::new(CompileService::new()), config).unwrap();
    let addr = server.local_addr();
    let healthy_req = serve_request("lnn", "lnn:5", CompileOptions::default());
    let healthy = |label: &str| {
        let mut c = NetClient::connect(addr).unwrap_or_else(|e| panic!("{label}: {e}"));
        let resp = c
            .request(&healthy_req)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(resp.result.n, 5, "{label}: wrong artifact");
    };
    let raw_read_frame = |stream: &TcpStream| {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        proto::read_frame(&mut &*stream)
    };

    // (a) Mid-stream disconnect: a valid request, then the client vanishes
    // before its response. The worker's reply lands in a dropped channel
    // or a dead socket; either way the server records a disconnect.
    {
        let stream = TcpStream::connect(addr).unwrap();
        proto::write_frame(&mut &stream, &Frame::request(0, &healthy_req)).unwrap();
        drop(stream);
        wait_until("the disconnect to be recorded", || {
            server.net_stats().disconnects >= 1
        });
    }
    healthy("after mid-stream disconnect");

    // (b) Garbage on connect: an HTTP request is answered with a
    // descriptive protocol error naming the expected magic, then closed.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET /compile HTTP/1.1\r\n\r\n").unwrap();
        stream.flush().unwrap();
        let frame = raw_read_frame(&stream).expect("a protocol error frame");
        let fault: WireFault = frame.decode().unwrap();
        assert_eq!(fault.seq, None, "a framing fault is connection-level");
        assert_eq!(fault.error.kind, "protocol");
        assert!(
            fault.error.error.contains("QFTW"),
            "the diagnosis must name the expected magic: {}",
            fault.error.error
        );
        // The connection is closed behind the diagnosis.
        assert!(raw_read_frame(&stream).is_err());
    }
    healthy("after garbage bytes");

    // (c) Slowloris: half a header, then silence — and (c') a header
    // that declares the largest legal payload (16 MiB), then silence.
    // The per-frame deadline closes each connection with a timeout
    // diagnosis — without costing a worker, so the healthy client below
    // is served instantly.
    let mut stalled_16_mib = Vec::new();
    stalled_16_mib.extend_from_slice(&MAGIC);
    stalled_16_mib.push(VERSION);
    stalled_16_mib.push(1); // request kind
    stalled_16_mib.extend_from_slice(&(MAX_PAYLOAD as u32).to_be_bytes());
    stalled_16_mib.extend_from_slice(b"{\"seq\":");
    for (label, opening) in [
        ("slowloris", &MAGIC[..2]),
        ("stalled 16 MiB payload", &stalled_16_mib[..]),
    ] {
        let slow_before = server.net_stats().slow_timeouts;
        let mut stream = TcpStream::connect(addr).unwrap();
        let started = Instant::now();
        stream.write_all(opening).unwrap();
        stream.flush().unwrap();
        let frame = raw_read_frame(&stream).expect("a timeout error frame");
        assert!(
            started.elapsed() >= deadline,
            "{label}: closed after {:?}, before the {deadline:?} deadline",
            started.elapsed()
        );
        let fault: WireFault = frame.decode().unwrap();
        assert_eq!(fault.error.kind, "protocol");
        assert!(
            fault.error.error.contains("timed out") && fault.error.error.contains("deadline"),
            "{label}: the diagnosis must name the deadline: {}",
            fault.error.error
        );
        assert!(raw_read_frame(&stream).is_err());
        assert_eq!(server.net_stats().slow_timeouts, slow_before + 1, "{label}");
        healthy(&format!("after {label}"));
    }

    // (c'') The legitimate slow client: a valid request written one byte
    // at a time, pausing inside the header, at its end and mid-payload,
    // but finishing inside the per-frame deadline, is served.
    {
        let bytes = Frame::request(9, &healthy_req).encode().unwrap();
        let pauses = [2, HEADER_LEN, HEADER_LEN + (bytes.len() - HEADER_LEN) / 2];
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let started = Instant::now();
        for (at, byte) in bytes.iter().enumerate() {
            if pauses.contains(&at) {
                std::thread::sleep(Duration::from_millis(10));
            }
            stream.write_all(std::slice::from_ref(byte)).unwrap();
        }
        assert!(
            started.elapsed() < deadline,
            "the trickle took {:?}, past the deadline it was meant to beat",
            started.elapsed()
        );
        let frame = raw_read_frame(&stream).expect("the trickled request's response");
        assert_eq!(frame.kind, proto::FrameKind::Response);
        let wire: proto::WireResponse = frame.decode().unwrap();
        assert_eq!((wire.seq, wire.response.result.n), (9, 5));
    }
    healthy("after a byte-at-a-time request");

    // (d) A hostile length prefix (4 GiB) is refused at header-parse time
    // — before any allocation — with the cap named.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut header = Vec::new();
        header.extend_from_slice(&MAGIC);
        header.push(VERSION);
        header.push(1); // request kind
        header.extend_from_slice(&u32::MAX.to_be_bytes());
        stream.write_all(&header).unwrap();
        stream.flush().unwrap();
        let frame = raw_read_frame(&stream).expect("an oversize error frame");
        let fault: WireFault = frame.decode().unwrap();
        assert_eq!(fault.error.kind, "protocol");
        assert!(
            fault.error.error.contains("cap"),
            "the diagnosis must name the cap: {}",
            fault.error.error
        );
        assert!(raw_read_frame(&stream).is_err());
    }
    healthy("after oversize length prefix");

    // (e) An unknown frame kind is refused *per frame*, not per
    // connection: the server names the byte in a structured error, skips
    // the payload, and keeps serving the same socket — proven by
    // pipelining a valid request behind the alien frame and reading its
    // response after the refusal. Byte 200 stands for a hypothetical
    // future protocol revision; byte 4 is reserved (it carried the
    // withdrawn `overloaded` kind) and is refused the same way.
    for (seq, kind) in [(3u64, 200u8), (4, 4)] {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut alien = Vec::new();
        alien.extend_from_slice(&MAGIC);
        alien.push(VERSION);
        alien.push(kind);
        let payload = br#"{"future":"frame"}"#;
        alien.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        alien.extend_from_slice(payload);
        stream.write_all(&alien).unwrap();
        proto::write_frame(&mut &stream, &Frame::request(seq, &healthy_req)).unwrap();
        stream.flush().unwrap();

        let frame = raw_read_frame(&stream).expect("an unknown-kind error frame");
        let fault: WireFault = frame.decode().unwrap();
        assert_eq!(fault.seq, None, "an unframeable kind has no seq");
        assert_eq!(fault.error.kind, "protocol");
        assert!(
            fault
                .error
                .error
                .contains(&format!("unknown frame kind {kind}:")),
            "the refusal must name the alien byte: {}",
            fault.error.error
        );
        // The connection survived: the pipelined request is answered.
        let frame = raw_read_frame(&stream).expect("the pipelined response");
        assert_eq!(frame.kind, proto::FrameKind::Response);
        let wire: proto::WireResponse = frame.decode().unwrap();
        assert_eq!(wire.seq, seq);
        assert_eq!(wire.response.result.n, 5);
    }
    healthy("after an unknown frame kind");

    // (f) A nesting bomb: one request frame of 20,000 `[` once overflowed
    // the JSON parser's recursion and aborted the whole process. Now it
    // is a malformed payload like any other: refused per frame with the
    // nesting cap named.
    {
        let stream = TcpStream::connect(addr).unwrap();
        let bomb = Frame::new(proto::FrameKind::Request, vec![b'['; 20_000]);
        proto::write_frame(&mut &stream, &bomb).unwrap();
        let frame = raw_read_frame(&stream).expect("a malformed-payload error frame");
        let fault: WireFault = frame.decode().unwrap();
        assert_eq!(fault.error.kind, "protocol");
        assert!(
            fault.error.error.contains("nest deeper than 128 levels"),
            "the diagnosis must name the nesting cap: {}",
            fault.error.error
        );
    }
    healthy("after a JSON nesting bomb");

    // The server recorded every fault class and is still fully alive.
    let net = server.net_stats();
    assert!(net.disconnects >= 1, "net stats: {net:?}");
    assert!(net.proto_errors >= 3, "net stats: {net:?}");
    assert!(net.slow_timeouts >= 2, "net stats: {net:?}");
    let summary = server.shutdown();
    assert!(summary.net.accepted >= 16, "net stats: {:?}", summary.net);
}

// ---------------------------------------------------------------------------
// Payload fuzzing: whatever a peer puts in a frame's JSON, decoding it
// yields a value or a `ProtoError::Json`, never a panic.
// ---------------------------------------------------------------------------

/// Real encoded payloads of the three kinds a peer's JSON reaches the
/// decoder through: a request, a response and a warm-up batch.
fn real_payloads() -> &'static [(FrameKind, Vec<u8>)] {
    static PAYLOADS: OnceLock<Vec<(FrameKind, Vec<u8>)>> = OnceLock::new();
    PAYLOADS.get_or_init(|| {
        let service = CompileService::builder().workers(1).build();
        let req = serve_request("lnn", "lnn:4", CompileOptions::default());
        let response = service.compile(&req).expect("compile lnn:4");
        let entries = service.export_warmup(&OwnedPredicate {
            member_points: vec![0],
            other_points: Vec::new(),
        });
        assert_eq!(entries.len(), 1, "the compiled entry is exported");
        [
            Frame::request(7, &req),
            Frame::response(7, &response),
            Frame::warmup_batch(7, 0, true, entries),
        ]
        .into_iter()
        .map(|frame| (frame.kind, frame.payload))
        .collect()
    })
}

/// What the fuzzer splices into payloads besides random characters: the
/// bytes the string scanner stops at, escape heads (complete, truncated
/// and invalid), structural JSON, and multi-byte text.
const FRAGMENTS: [&str; 21] = [
    "\"",
    "\\",
    "\\u",
    "\\u00e9",
    "\\ud83d",
    "\\ude00",
    "\\ud83d\\ude00",
    "\\u12",
    "\\x",
    "\\n",
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "null",
    "-1e999",
    "\u{e9}",
    "\u{1F600}",
    "\u{4E2D}",
];

/// Text from fuzzer tokens: a fragment, any Unicode scalar value, or a
/// printable ASCII character.
fn fuzz_text(tokens: &[(u8, u32)]) -> String {
    tokens
        .iter()
        .map(|&(pick, raw)| match pick % 3 {
            0 => FRAGMENTS[raw as usize % FRAGMENTS.len()].to_string(),
            1 => char::from_u32(raw % 0x11_0000)
                .unwrap_or('\u{FFFD}')
                .to_string(),
            _ => char::from(b' ' + (raw % 95) as u8).to_string(),
        })
        .collect()
}

/// Decodes `payload` as every payload type a peer can send; each must be
/// a value or a JSON refusal.
fn decodes_or_refuses(kind: FrameKind, payload: &[u8]) -> Result<(), TestCaseError> {
    let frame = Frame::new(kind, payload.to_vec());
    let outcomes = [
        frame.decode::<WireRequest>().map(drop),
        frame.decode::<WireResponse>().map(drop),
        frame.decode::<WireWarmupBatch>().map(drop),
    ];
    for outcome in outcomes {
        match outcome {
            Ok(()) | Err(ProtoError::Json { .. }) => {}
            Err(other) => {
                return Err(TestCaseError::Fail(format!(
                    "payload {:?} decoded to a non-JSON error: {other}",
                    String::from_utf8_lossy(payload)
                )))
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary Unicode text as a whole payload, as a JSON string, and
    /// spliced into each real payload at any byte.
    #[test]
    fn arbitrary_text_payloads_decode_or_refuse(
        tokens in collection::vec((0u8..3, 0u32..0x11_0000), 0..48),
        at in 0usize..1_000_000,
    ) {
        let text = fuzz_text(&tokens);
        decodes_or_refuses(FrameKind::Request, text.as_bytes())?;
        decodes_or_refuses(FrameKind::Request, format!("\"{text}\"").as_bytes())?;
        for (kind, real) in real_payloads() {
            let mut spliced = real.clone();
            let at = at % (spliced.len() + 1);
            spliced.splice(at..at, text.bytes());
            decodes_or_refuses(*kind, &spliced)?;
        }
    }

    /// Byte-level mutations of real payloads: flips, insertions,
    /// deletions and truncations, up to four per case.
    #[test]
    fn mutated_real_payloads_decode_or_refuse(
        which in 0usize..3,
        edits in collection::vec((0u8..4, 0usize..1_000_000, 1u16..256), 1..5),
    ) {
        let (kind, real) = &real_payloads()[which];
        let mut bytes = real.clone();
        for &(op, at, value) in &edits {
            if bytes.is_empty() {
                break;
            }
            let i = at % bytes.len();
            match op {
                0 => bytes[i] ^= value as u8,
                1 => bytes.insert(i, value as u8),
                2 => {
                    bytes.remove(i);
                }
                _ => bytes.truncate(i),
            }
        }
        decodes_or_refuses(*kind, &bytes)?;
    }
}

// ---------------------------------------------------------------------------
// Regression pins for the serve-layer bug sweep.
// ---------------------------------------------------------------------------

#[test]
fn clean_shutdown_counts_zero_denied_connections() {
    // Pre-fix, the drain's own wake-up connect was counted as a denied
    // connection, so `denied >= 1` after *every* shutdown — making the
    // counter useless for telling whether a real client was turned away.
    let server = NetServer::bind("127.0.0.1:0", Arc::new(CompileService::new())).unwrap();
    let summary = server.shutdown();
    assert_eq!(
        summary.net.denied, 0,
        "an untouched server turned no one away: {:?}",
        summary.net
    );
    assert_eq!(summary.net.accepted, 0);

    // Same with real traffic beforehand: served-and-said-goodbye clients
    // are not denials either.
    let server = NetServer::bind("127.0.0.1:0", Arc::new(CompileService::new())).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    client
        .request(&serve_request("lnn", "lnn:4", CompileOptions::default()))
        .unwrap();
    client.goodbye().unwrap();
    let summary = server.shutdown();
    assert_eq!(
        summary.net.denied, 0,
        "no client raced this drain: {:?}",
        summary.net
    );
    assert_eq!((summary.net.accepted, summary.net.goodbyes), (1, 1));
}

static BYE_OPEN: Mutex<bool> = Mutex::new(false);
static BYE_CV: Condvar = Condvar::new();
static BYE_ENTERED: AtomicUsize = AtomicUsize::new(0);

fn bye_registry() -> &'static Registry {
    static GATED: OnceLock<&'static Registry> = OnceLock::new();
    GATED.get_or_init(|| {
        let mut r = Registry::with_core();
        r.register(Box::new(GateCompiler {
            name: "gate-bye",
            open: &BYE_OPEN,
            cv: &BYE_CV,
            entered: &BYE_ENTERED,
        }));
        Box::leak(Box::new(r))
    })
}

#[test]
fn requests_pipelined_behind_a_goodbye_are_refused() {
    // Pre-fix, `handle_frame` checked `draining` but never `client_done`,
    // so `goodbye` + more requests kept the session admitting work
    // indefinitely after the client announced it was done. The gate
    // parks the first request in flight so the session provably stays
    // open (pending > 0) while the post-goodbye request arrives.
    let service = CompileService::builder()
        .registry(bye_registry())
        .workers(1)
        .build();
    let server = NetServer::bind("127.0.0.1:0", Arc::new(service)).unwrap();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let gated = CompileRequest::new("gate-bye", "lnn:4");
    proto::write_frame(&mut &stream, &Frame::request(0, &gated)).unwrap();
    wait_until("the gated compile to start", || {
        BYE_ENTERED.load(Ordering::SeqCst) > 0
    });
    proto::write_frame(&mut &stream, &Frame::goodbye("client done", 0)).unwrap();
    proto::write_frame(&mut &stream, &Frame::request(1, &gated)).unwrap();

    // The post-goodbye request is answered with a descriptive refusal —
    // before the gated response, which the gate still holds.
    let frame = proto::read_frame(&mut &stream).expect("a refusal frame");
    let fault: WireFault = frame.decode().unwrap();
    assert_eq!(fault.seq, Some(1), "the refusal names the refused seq");
    assert_eq!(fault.error.kind, "after-goodbye");
    assert!(
        fault.error.error.contains("goodbye"),
        "the refusal must explain itself: {}",
        fault.error.error
    );

    // The accepted (pre-goodbye) response still drains, then the server
    // answers the goodbye with served == 1: the refused request was
    // never admitted.
    *BYE_OPEN.lock().unwrap() = true;
    BYE_CV.notify_all();
    let frame = proto::read_frame(&mut &stream).expect("the gated response");
    assert_eq!(frame.kind, proto::FrameKind::Response);
    let frame = proto::read_frame(&mut &stream).expect("the server goodbye");
    assert_eq!(frame.kind, proto::FrameKind::Goodbye);
    let bye: qft_kernels::serve::proto::WireGoodbye = frame.decode().unwrap();
    assert_eq!(bye.served, 1, "only the pre-goodbye request was served");
    server.shutdown();
}

#[test]
fn stats_round_trips_correlate_after_a_bare_submit_stats() {
    let server = NetServer::bind("127.0.0.1:0", Arc::new(CompileService::new())).unwrap();
    let addr = server.local_addr();

    // Observer with a short read timeout so the no-spurious-event check
    // below settles fast.
    let mut observer = NetClient::connect_with(
        addr,
        ClientConfig {
            read_timeout: Duration::from_millis(300),
            ..ClientConfig::default()
        },
    )
    .unwrap();

    // A bare submit_stats leaves snapshot A (requests == 0) in flight,
    // never read.
    observer.submit_stats().unwrap();

    // The counters move: another client performs one compile.
    let mut worker = NetClient::connect(addr).unwrap();
    worker
        .request(&serve_request("lnn", "lnn:9", CompileOptions::default()))
        .unwrap();

    // Pre-fix, stats() returned the *stale* snapshot A off the socket
    // (requests == 0); correlated, it must skip A and return the fresh
    // answer to its own request.
    let stats = observer.stats().unwrap();
    assert_eq!(
        stats.requests, 1,
        "stats() must answer with a snapshot taken after its own request"
    );

    // ... and it must not leave a spurious Stats event queued: the next
    // event is a timeout (nothing on the wire), not a phantom snapshot.
    match observer.next_event() {
        Err(_) => {}
        Ok(event) => panic!("expected no queued event, got {event:?}"),
    }

    // The identity-tagged form stamps which backend answered — the
    // router's way of telling N otherwise identical backends apart.
    let tagged = observer.backend_stats().unwrap();
    assert_eq!(tagged.identity, addr.to_string());
    assert_eq!(tagged.stats.requests, 1);

    drop(observer);
    drop(worker);
    server.shutdown();
}
