//! The TCP front end: a thread-per-connection accept loop in front of a
//! shared [`CompileService`].
//!
//! Each accepted connection submits its compiles to the service's one
//! queued entry point ([`CompileService::submit`]), so the wire surface
//! inherits the in-process contracts verbatim: byte-deterministic cached
//! artifacts, singleflight dedup across connections (two sockets asking
//! for the same key still perform one compile), and admission
//! backpressure — a full queue blocks the connection's reader, so a
//! client that outruns the workers is slowed through TCP.
//!
//! A connection is a blocking frame reader plus completion-driven
//! writes:
//!
//! 1. **The reader** — the connection's own thread — reads one frame at
//!    a time with [`proto::read_frame`] under a per-frame deadline: a
//!    frame whose first byte has arrived must complete within
//!    [`ServerConfig::read_timeout`] or the connection is closed with a
//!    diagnosis (so a slowloris client costs one connection thread for
//!    one deadline, not a worker), while an idle connection waits as
//!    long as it likes. The reader admits compiles and answers every
//!    other frame (stats, warm-up, refusals) itself.
//! 2. **The writer** — spawned when the connection admits its first
//!    compile, never for a connection that only asks for stats — blocks
//!    on the connection's reply channel and writes each compile outcome
//!    as it completes (completion order, tagged with the client's seq).
//!    The pool worker that served a compile encodes its frame and sends
//!    the bytes on that channel; workers never touch a socket, so a peer
//!    that stops reading stalls its own connection only.
//!
//! Reader and writer share one lock per connection, held across every
//! frame write so frames never interleave, and with it the close state:
//! compiles in flight, responses served, whether the client said
//! goodbye. Whichever side sees the last admitted response delivered
//! after a client goodbye or a drain writes the server goodbye; a reader
//! blocked on an idle socket is woken by shutting down the socket's read
//! half.
//!
//! **Graceful drain** ([`NetServer::shutdown`]): stop accepting (late
//! connections get a goodbye frame, then the listener closes so further
//! connects are refused outright), close idle connections with a goodbye
//! at once, refuse new requests on busy connections with a `draining`
//! error, deliver every response already accepted, close each busy
//! connection with a goodbye frame carrying its served count, and join
//! every thread — accept loop and all connection threads, each of which
//! joins its writer — before returning. Nothing is detached. A
//! connection whose peer vanished exits without waiting for the compiles
//! it abandoned; their outcomes land in a closed connection and are
//! dropped.

use crate::metrics::{Metrics, NetCounters};
use crate::proto::{self, Frame, FrameKind, ProtoError, WireRequest, WireWarmupRequest};
use crate::service::{CompileService, Reply};
use crate::types::{CompileResponse, ServeError};
use crate::warmup;
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for one [`NetServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-frame completion deadline: a frame whose first byte has
    /// arrived must complete within this window or the connection is
    /// closed with a `protocol` diagnosis (the slow-client defense). An
    /// *idle* connection — no partial frame pending — is never timed out.
    pub read_timeout: Duration,
    /// Socket write timeout: a client that stops reading while the
    /// server writes to it is disconnected instead of wedging its
    /// connection.
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(5),
        }
    }
}

/// A serde-able snapshot of the connection-level counters — the network
/// analogue of [`crate::ServeStats`] (which keeps counting *requests*
/// underneath this layer, unchanged).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetStats {
    /// Connections the accept loop admitted.
    pub accepted: u64,
    /// Connections turned away at accept time during a drain.
    pub denied: u64,
    /// Connections closed by a protocol violation.
    pub proto_errors: u64,
    /// Connections closed by the per-frame read deadline.
    pub slow_timeouts: u64,
    /// Connections whose peer vanished without a goodbye.
    pub disconnects: u64,
    /// Connections closed gracefully with a server goodbye frame.
    pub goodbyes: u64,
}

/// What a completed [`NetServer::shutdown`] drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DrainSummary {
    /// Connection threads joined by the drain (every one that was ever
    /// accepted and had not already been reaped).
    pub connections_joined: usize,
    /// Final connection-level counters at the moment the drain finished.
    pub net: NetStats,
}

/// Where the drain's self-wake connect stands, from the accept loop's
/// point of view. Written by [`NetServer::drain`], read by the accept
/// loop to tell the wake apart from a real client racing the drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WakeMark {
    /// No drain wake has been attempted yet.
    NotYet,
    /// The wake connect succeeded from this local address; an accepted
    /// connection whose peer matches it is the wake, not a client.
    Addr(SocketAddr),
    /// The wake was attempted but its address is unknowable (connect
    /// failed, or the OS would not report the local address). Whatever
    /// the acceptor sees next is treated as a real client — the pre-fix
    /// behavior, kept only for this unreachable-in-practice corner.
    Unknown,
}

#[derive(Debug)]
struct Shared {
    service: Arc<CompileService>,
    config: ServerConfig,
    /// The resolved listen address, stamped on wire-level stats answers
    /// (the [`BackendStats`][crate::types::BackendStats] envelope):
    /// resolved once at bind, so an ephemeral port 0 stamps the *actual*
    /// port. Behind a [`Router`][crate::router::Router] this is what
    /// tells N otherwise identical backends apart.
    identity: String,
    draining: AtomicBool,
    wake: Mutex<WakeMark>,
    net: NetCounters,
    conns: Mutex<Vec<Connection>>,
}

/// One accepted connection, as the accept loop and the drain see it.
/// The link is weak so that the socket closes as soon as the connection
/// thread (its owner) exits.
#[derive(Debug)]
struct Connection {
    link: Weak<Link>,
    thread: JoinHandle<()>,
}

/// What a connection's reader, its writer and the drain share: the
/// socket, and the close state behind the lock every frame write holds.
#[derive(Debug)]
struct Link {
    stream: TcpStream,
    state: Mutex<LinkState>,
}

#[derive(Debug, Default)]
struct LinkState {
    /// Compiles admitted on this connection whose outcome is not yet
    /// written.
    in_flight: u64,
    /// Compile outcomes written (the goodbye frame's `served`).
    served: u64,
    /// The client sent goodbye: no further requests are admitted.
    client_done: bool,
    /// The conversation is over — a server goodbye or fatal error was
    /// written, or the peer is gone. Nothing more is written.
    closed: bool,
}

impl Link {
    fn lock(&self) -> MutexGuard<'_, LinkState> {
        self.state.lock().expect("connection state mutex")
    }
}

impl Shared {
    fn net_stats(&self) -> NetStats {
        NetStats {
            accepted: self.net.accepted.load(Ordering::Relaxed),
            denied: self.net.denied.load(Ordering::Relaxed),
            proto_errors: self.net.proto_errors.load(Ordering::Relaxed),
            slow_timeouts: self.net.slow_timeouts.load(Ordering::Relaxed),
            disconnects: self.net.disconnects.load(Ordering::Relaxed),
            goodbyes: self.net.goodbyes.load(Ordering::Relaxed),
        }
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Writes one frame. Taking the held state proves the caller holds
    /// the connection's lock, which keeps the reader's and the writer's
    /// frames whole.
    fn send(&self, link: &Link, st: &mut LinkState, frame: &Frame) -> bool {
        self.write(link, st, frame.encode())
    }

    /// Writes one encoded frame under the connection's lock. A failed
    /// write means the peer is gone or stopped reading: the connection
    /// is closed and counted as a disconnect.
    fn write(&self, link: &Link, st: &mut LinkState, frame: Result<Vec<u8>, ProtoError>) -> bool {
        if st.closed {
            return false;
        }
        if let Ok(bytes) = frame {
            if (&link.stream).write_all(&bytes).is_ok() {
                return true;
            }
        }
        st.closed = true;
        Metrics::bump(&self.net.disconnects);
        false
    }

    /// Closes the conversation with a server goodbye if it is over: no
    /// compile in flight, and the client said goodbye or the server is
    /// draining. Returns whether the connection is (now) closed.
    fn close_if_done(&self, link: &Link, st: &mut LinkState) -> bool {
        if st.closed || st.in_flight > 0 {
            return st.closed;
        }
        let reason = if self.draining() {
            "server draining: all accepted responses delivered"
        } else if st.client_done {
            "goodbye acknowledged: session complete"
        } else {
            return false;
        };
        if self.send(link, st, &Frame::goodbye(reason, st.served)) {
            Metrics::bump(&self.net.goodbyes);
        }
        st.closed = true;
        true
    }
}

/// A TCP compile server over one shared [`CompileService`].
///
/// ```no_run
/// use qft_serve::{CompileRequest, CompileService, NetClient, NetServer};
/// use std::sync::Arc;
///
/// let service = Arc::new(CompileService::new());
/// let server = NetServer::bind("127.0.0.1:0", Arc::clone(&service)).unwrap();
/// let mut client = NetClient::connect(server.local_addr()).unwrap();
/// let resp = client.request(&CompileRequest::new("lnn", "lnn:8")).unwrap();
/// assert_eq!(resp.result.n, 8);
/// let summary = server.shutdown();
/// assert_eq!(summary.net.goodbyes, 1);
/// ```
#[derive(Debug)]
pub struct NetServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop over `service` with the default [`ServerConfig`].
    pub fn bind(addr: impl ToSocketAddrs, service: Arc<CompileService>) -> io::Result<NetServer> {
        NetServer::bind_with(addr, service, ServerConfig::default())
    }

    /// [`NetServer::bind`] with explicit timeouts.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        service: Arc<CompileService>,
        config: ServerConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            service,
            config,
            identity: local_addr.to_string(),
            draining: AtomicBool::new(false),
            wake: Mutex::new(WakeMark::NotYet),
            net: NetCounters::default(),
            conns: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("qft-net-accept".to_string())
            .spawn(move || accept_loop(listener, &accept_shared))
            .expect("spawn qft-net accept loop");
        Ok(NetServer {
            local_addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The address the server is actually listening on (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The service behind this front end — the same instance every
    /// connection compiles through, so in-process
    /// [`CompileService::stats`] and the wire-level `stats` frame read
    /// the same counters.
    pub fn service(&self) -> &Arc<CompileService> {
        &self.shared.service
    }

    /// A snapshot of the connection-level counters.
    pub fn net_stats(&self) -> NetStats {
        self.shared.net_stats()
    }

    /// Whether a graceful drain has begun.
    pub fn is_draining(&self) -> bool {
        self.shared.draining()
    }

    /// Graceful drain: stop accepting, let every live connection deliver
    /// its in-flight responses and close with a goodbye frame, join the
    /// accept loop and every connection thread, then return. Blocks
    /// until the drain completes.
    pub fn shutdown(mut self) -> DrainSummary {
        self.drain()
    }

    fn drain(&mut self) -> DrainSummary {
        self.shared.draining.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            // Wake the (blocking) acceptor and publish the wake's local
            // address first, so the accept loop can tell this connect
            // apart from a real client racing the drain: the wake is
            // internal plumbing and must not count as `denied`. (The
            // loop exits after one draining accept either way, dropping
            // the listener so later connects are refused at the OS
            // level.)
            let wake = match TcpStream::connect(self.local_addr) {
                Ok(stream) => stream
                    .local_addr()
                    .map(WakeMark::Addr)
                    .unwrap_or(WakeMark::Unknown),
                Err(_) => WakeMark::Unknown,
            };
            *self.shared.wake.lock().expect("wake mutex") = wake;
            let _ = accept.join();
        }
        let conns: Vec<Connection> =
            std::mem::take(&mut *self.shared.conns.lock().expect("conns mutex"));
        for link in conns.iter().filter_map(|c| c.link.upgrade()) {
            // An idle connection closes now: waking its reader with an
            // end-of-stream lets it write the goodbye. The check and the
            // reader's admission share the lock, so a compile admitted
            // before the flag was seen keeps its connection open until
            // its writer delivers it and says goodbye.
            let st = link.lock();
            if !st.closed && st.in_flight == 0 {
                let _ = link.stream.shutdown(Shutdown::Read);
            }
        }
        let connections_joined = conns.len();
        for conn in conns {
            let _ = conn.thread.join();
        }
        DrainSummary {
            connections_joined,
            net: self.shared.net_stats(),
        }
    }
}

impl Drop for NetServer {
    /// A dropped server drains exactly like [`NetServer::shutdown`] —
    /// no detached accept loop or connection threads survive it.
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.drain();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let mut conn_id = 0u64;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) if shared.draining() => break,
            Err(_) => continue,
        };
        if shared.draining() {
            // Either the drain's own wake-up connect or a real client
            // racing the drain. The drain publishes the wake's local
            // address right after connecting, so wait for the mark
            // (briefly — the publish races the accept by microseconds)
            // and compare peers: only a *real* client counts as denied,
            // and it is told why, not reset.
            let wake = {
                let deadline = std::time::Instant::now() + Duration::from_secs(2);
                loop {
                    match *shared.wake.lock().expect("wake mutex") {
                        WakeMark::NotYet if std::time::Instant::now() < deadline => {
                            std::thread::yield_now();
                        }
                        mark => break mark,
                    }
                }
            };
            let is_wake = match (wake, stream.peer_addr()) {
                (WakeMark::Addr(wake_addr), Ok(peer)) => peer == wake_addr,
                _ => false,
            };
            if !is_wake {
                Metrics::bump(&shared.net.denied);
                let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
                let _ = proto::write_frame(
                    &mut &stream,
                    &Frame::goodbye(
                        "server is draining: connection refused before any request",
                        0,
                    ),
                );
            }
            break;
        }
        Metrics::bump(&shared.net.accepted);
        let link = Arc::new(Link {
            stream,
            state: Mutex::new(LinkState::default()),
        });
        let mut conns = shared.conns.lock().expect("conns mutex");
        conns.retain(|c| !c.thread.is_finished());
        let (conn_shared, weak) = (Arc::clone(shared), Arc::downgrade(&link));
        let thread = std::thread::Builder::new()
            .name(format!("qft-net-conn-{conn_id}"))
            .spawn(move || serve_connection(&conn_shared, &link, conn_id))
            .expect("spawn qft-net connection thread");
        conns.push(Connection { link: weak, thread });
        drop(conns);
        conn_id += 1;
    }
    // Listener drops here: post-drain connects are refused by the OS.
}

/// One frame's read side: the first read waits as long as the
/// connection stays idle, and every later read of the same frame waits
/// only for what is left of the per-frame deadline, counted from the
/// frame's first byte.
struct FrameDeadline<'a> {
    stream: &'a TcpStream,
    limit: Duration,
    first_byte: Option<Instant>,
}

impl Read for FrameDeadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let wait = match self.first_byte {
            None => None,
            Some(t0) => match self.limit.checked_sub(t0.elapsed()) {
                Some(left) if !left.is_zero() => Some(left),
                _ => return Err(io::ErrorKind::TimedOut.into()),
            },
        };
        self.stream.set_read_timeout(wait)?;
        let mut stream = self.stream;
        let n = stream.read(buf)?;
        if n > 0 && self.first_byte.is_none() {
            self.first_byte = Some(Instant::now());
        }
        Ok(n)
    }
}

/// A compile outcome as the frame bytes its connection's writer puts on
/// the wire. The conversion runs on the pool worker that served the
/// request (see [`CompileService::submit`]), so the writer only writes.
struct Encoded {
    frame: Result<Vec<u8>, ProtoError>,
    /// Whether the frame refuses a response too large to send, an error
    /// the service's counters have not seen.
    too_large: bool,
}

impl From<Reply> for Encoded {
    fn from((seq, outcome): Reply) -> Self {
        let (frame, too_large) = match outcome.as_ref().map(|resp| response_frame(seq, resp)) {
            Ok(Ok(frame)) => (frame, false),
            Ok(Err(e)) => (Frame::error(Some(seq), &e), true),
            Err(e) => (Frame::error(Some(seq), e), false),
        };
        Encoded {
            frame: frame.encode(),
            too_large,
        }
    }
}

/// The response frame for `resp`, or the `too-large` refusal when it
/// cannot fit one. An artifact whose op count alone bounds its JSON past
/// the cap is refused without encoding it.
fn response_frame(seq: u64, resp: &CompileResponse) -> Result<Frame, ServeError> {
    let cap = FrameKind::Response.max_payload();
    let at_least = resp.result.circuit.ops().len() * proto::MIN_OP_JSON_BYTES;
    if at_least > cap {
        return Err(ServeError::too_large(
            format_args!("at least {at_least} bytes"),
            cap,
        ));
    }
    let frame = Frame::response(seq, resp);
    match frame.payload.len() {
        len if len > cap => Err(ServeError::too_large(format_args!("{len} bytes"), cap)),
        _ => Ok(frame),
    }
}

/// One connection's whole life on its own thread: the frame reader.
/// Returns once the conversation is over, having joined its writer.
fn serve_connection(shared: &Arc<Shared>, link: &Arc<Link>, id: u64) {
    link.stream.set_nodelay(true).ok();
    let (replies, writer_rx) = mpsc::channel();
    let mut conn = Conn {
        shared,
        link,
        id,
        replies,
        writer_rx: Some(writer_rx),
        writer: None,
    };
    let configured = link
        .stream
        .set_write_timeout(Some(shared.config.write_timeout));
    while configured.is_ok() && conn.step() {}
    conn.link.lock().closed = true;
    if let Some(writer) = conn.writer {
        // Wake the writer if it still waits on compiles this connection
        // abandoned. The message itself is dropped: the connection is
        // closed, so the writer returns without writing it.
        let _ = conn.replies.send(Encoded {
            frame: Ok(Vec::new()),
            too_large: false,
        });
        let _ = writer.join();
    }
}

/// The reader's side of one connection.
struct Conn<'a> {
    shared: &'a Arc<Shared>,
    link: &'a Arc<Link>,
    id: u64,
    /// Where the pool sends this connection's compile outcomes.
    replies: mpsc::Sender<Encoded>,
    /// The other end of `replies`, until the first admitted compile
    /// hands it to the writer thread.
    writer_rx: Option<mpsc::Receiver<Encoded>>,
    writer: Option<JoinHandle<()>>,
}

impl Conn<'_> {
    /// Reads and answers one frame; `false` once the connection closed.
    fn step(&mut self) -> bool {
        let mut deadline = FrameDeadline {
            stream: &self.link.stream,
            limit: self.shared.config.read_timeout,
            first_byte: None,
        };
        let frame = match proto::read_frame(&mut deadline) {
            Ok(frame) => frame,
            Err(e) => return self.read_failed(e),
        };
        let shared = &**self.shared;
        match frame.kind {
            FrameKind::Request => self.admit(&frame),
            FrameKind::StatsRequest => {
                self.reply(&Frame::stats(&shared.identity, &shared.service.stats()));
            }
            FrameKind::WarmupRequest => self.warm_up(&frame),
            // The client is done submitting; responses in flight still
            // arrive before the server's answering goodbye.
            FrameKind::Goodbye => self.link.lock().client_done = true,
            kind => {
                self.protocol_error(&ProtoError::Unexpected {
                    kind,
                    context: "the server accepts request, stats-request, warmup-request, and \
                              goodbye frames"
                        .to_string(),
                });
                return false;
            }
        }
        !shared.close_if_done(self.link, &mut self.link.lock())
    }

    /// Writes one frame under the connection's lock.
    fn reply(&self, frame: &Frame) {
        self.shared.send(self.link, &mut self.link.lock(), frame);
    }

    /// Counts a protocol violation and tells the peer what it was.
    fn protocol_error(&self, e: &ProtoError) {
        Metrics::bump(&self.shared.net.proto_errors);
        self.reply(&Frame::error(None, &ServeError::protocol(e)));
    }

    fn admit(&mut self, frame: &Frame) {
        let wire: WireRequest = match frame.decode() {
            Ok(wire) => wire,
            // The stream is still framed (the header parsed), so a
            // malformed payload is refused per frame, not fatally.
            Err(e) => return self.protocol_error(&e),
        };
        let shared = &**self.shared;
        {
            // The flags are read under the lock the drain also takes, so
            // a request that races the drain is either refused here or
            // counted in flight before the drain looks.
            let mut st = self.link.lock();
            let refusal = if shared.draining() {
                Some(ServeError::draining())
            } else if st.client_done {
                // A goodbye is a promise of "no further requests": a
                // request pipelined behind one is refused, so a client
                // cannot keep its connection open after announcing it
                // was done.
                Some(ServeError::after_goodbye())
            } else {
                None
            };
            if let Some(e) = refusal {
                shared.send(self.link, &mut st, &Frame::error(Some(wire.seq), &e));
                return;
            }
            st.in_flight += 1;
        }
        match shared.service.submit(wire.seq, wire.request, &self.replies) {
            Ok(()) => {
                if let Some(rx) = self.writer_rx.take() {
                    let (shared, link) = (Arc::clone(self.shared), Arc::clone(self.link));
                    let writer = std::thread::Builder::new()
                        .name(format!("qft-net-write-{}", self.id))
                        .spawn(move || write_replies(&shared, &link, rx))
                        .expect("spawn qft-net writer thread");
                    self.writer = Some(writer);
                }
            }
            Err(e) => {
                let mut st = self.link.lock();
                st.in_flight -= 1;
                shared.send(self.link, &mut st, &Frame::error(Some(wire.seq), &e));
            }
        }
    }

    /// Answers a warm-up request straight from the cache snapshot — the
    /// worker pool is never touched, so a warm-up costs a donor no
    /// compile capacity. Deliberately answered even while draining: the
    /// hand-off *is* the leave path, and refusing it would turn every
    /// graceful leave into a cold join elsewhere.
    fn warm_up(&self, frame: &Frame) {
        let wire: WireWarmupRequest = match frame.decode() {
            Ok(wire) => wire,
            Err(e) => return self.protocol_error(&e),
        };
        let entries = self.shared.service.export_warmup(&wire.predicate);
        let chunks = warmup::chunk_entries(entries, warmup::WARMUP_CHUNK_BUDGET);
        let last = chunks.len() - 1;
        let mut st = self.link.lock();
        for (index, chunk) in chunks.into_iter().enumerate() {
            let batch = Frame::warmup_batch(wire.seq, index as u64, index == last, chunk);
            if !self.shared.send(self.link, &mut st, &batch) {
                return;
            }
        }
    }

    /// Ends the connection after a failed read, unless the failure was
    /// one unknown frame kind.
    fn read_failed(&self, e: ProtoError) -> bool {
        let shared = &**self.shared;
        match e {
            // Forward compatibility: a peer speaking a newer protocol
            // revision sent a kind byte this build does not know. The
            // payload was consumed (the length field parsed), so the
            // stream is still framed — refuse the *frame* and keep the
            // connection.
            ProtoError::UnknownKind { .. } => {
                self.protocol_error(&e);
                !self.link.lock().closed
            }
            ProtoError::Truncated { have, .. } => {
                let mut st = self.link.lock();
                // Woken by this server: the writer closed the
                // conversation, or the drain found the connection idle.
                if shared.close_if_done(self.link, &mut st) {
                    return false;
                }
                // The peer vanished; compiles in flight are abandoned.
                if have > 0 {
                    Metrics::bump(&shared.net.proto_errors);
                }
                Metrics::bump(&shared.net.disconnects);
                st.closed = true;
                false
            }
            ProtoError::Timeout { .. } => {
                // A partial frame outlived the deadline: the slow-client
                // defense. Closing costs this connection thread, never a
                // pool worker.
                Metrics::bump(&shared.net.slow_timeouts);
                let e = ProtoError::Timeout {
                    context: format!(
                        "the rest of a frame (the per-frame deadline, counted from its first \
                         byte, is {:?})",
                        shared.config.read_timeout
                    ),
                };
                self.reply(&Frame::error(None, &ServeError::protocol(&e)));
                false
            }
            e => {
                if !self.link.lock().closed {
                    self.protocol_error(&e);
                }
                false
            }
        }
    }
}

/// The writer thread of one connection: writes each compile outcome as
/// it completes, and the server goodbye once the last admitted response
/// is delivered after a client goodbye or a drain.
fn write_replies(shared: &Shared, link: &Link, replies: mpsc::Receiver<Encoded>) {
    for Encoded { frame, too_large } in replies {
        if too_large {
            shared.service.count_error();
        }
        let mut st = link.lock();
        if st.closed {
            return;
        }
        st.in_flight -= 1;
        if !shared.write(link, &mut st, frame) {
            // The peer stopped reading: end the reader's wait too.
            let _ = link.stream.shutdown(Shutdown::Both);
            return;
        }
        st.served += 1;
        if shared.close_if_done(link, &mut st) {
            // Wake the reader, blocked on the socket, to end the
            // connection.
            let _ = link.stream.shutdown(Shutdown::Read);
            return;
        }
    }
}
