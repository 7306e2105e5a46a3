//! The blocking TCP client for a [`NetServer`][crate::NetServer].
//!
//! [`NetClient`] is deliberately small: one socket, one frame at a time,
//! no background threads. Requests are pipelined by seq tag —
//! [`NetClient::submit`] writes a request frame and returns its seq;
//! [`NetClient::next_event`] reads whatever the server sends next
//! (responses arrive in *completion* order, so the seq is how a caller
//! re-correlates). [`NetClient::request`] wraps the two into the common
//! call-and-wait shape.

use crate::proto::{
    self, Frame, FrameKind, ProtoError, WireFault, WireGoodbye, WireResponse, WireWarmupBatch,
};
use crate::types::{BackendStats, CompileRequest, CompileResponse, ServeError, ServeStats};
use crate::warmup::{OwnedPredicate, WarmupEntry};
use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Tuning for one [`NetClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// How long one [`NetClient::next_event`] read may wait for the next
    /// frame. Compiles run server-side, so this bounds *server silence*,
    /// not compile time only — keep it comfortably above the slowest
    /// expected compile.
    pub read_timeout: Duration,
    /// Socket write timeout for outgoing frames.
    pub write_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(5),
        }
    }
}

/// What a [`NetClient`] can fail with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Connecting or configuring the socket failed.
    Io {
        /// What was being done when the I/O failed.
        context: String,
        /// The `io::Error` display text.
        detail: String,
    },
    /// The wire layer rejected a frame (truncation, corruption, timeout —
    /// see [`ProtoError`]).
    Proto(ProtoError),
    /// The server answered the request with a [`ServeError`]
    /// (unknown compiler, invalid target, `draining`, …).
    Server(ServeError),
    /// The server closed the conversation with a goodbye frame while a
    /// response was still awaited.
    Closed {
        /// The server's stated reason.
        reason: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io { context, detail } => {
                write!(f, "i/o failure during {context}: {detail}")
            }
            ClientError::Proto(e) => write!(f, "protocol failure: {e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::Closed { reason } => {
                write!(f, "server closed the connection: {reason}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// One frame from the server, decoded. What [`NetClient::next_event`]
/// yields.
#[derive(Debug, Clone)]
pub enum NetEvent {
    /// A completed compile for the submission tagged `seq`.
    Response {
        /// The seq [`NetClient::submit`] returned for this request.
        seq: u64,
        /// The response, exactly the in-process serde type.
        response: CompileResponse,
    },
    /// A failure: request-level when `seq` is present, connection-level
    /// otherwise.
    Fail {
        /// The failed submission's seq, if the failure is scoped to one.
        seq: Option<u64>,
        /// The error.
        error: ServeError,
    },
    /// A stats snapshot (answering [`NetClient::submit_stats`]), tagged
    /// with the answering server's identity.
    Stats(BackendStats),
    /// The server's half of a graceful close — its final frame.
    Goodbye(WireGoodbye),
    /// One chunk of a warm-up reply (answering [`NetClient::warm_up`]'s
    /// request frame).
    WarmupBatch(WireWarmupBatch),
}

/// A blocking client over one TCP connection to a
/// [`NetServer`][crate::NetServer]. See the module docs for the
/// submit/next-event model; [`NetClient::request`], [`NetClient::stats`],
/// and [`NetClient::goodbye`] are the common shapes pre-assembled.
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    next_seq: u64,
    /// Events read past while waiting for something specific (e.g.
    /// responses that completed while [`NetClient::stats`] waited for its
    /// snapshot). Drained by [`NetClient::next_event`] before the socket
    /// is touched again.
    backlog: VecDeque<NetEvent>,
    /// Stats answers still expected off the socket: incremented per
    /// stats-request written, decremented per stats frame read. This is
    /// how [`NetClient::stats`] correlates its round-trip — snapshots
    /// answering *earlier* bare [`NetClient::submit_stats`] calls are
    /// stale and must be skipped, not returned as if fresh.
    stats_inflight: u64,
}

impl NetClient {
    /// Connects with the default [`ClientConfig`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<NetClient, ClientError> {
        NetClient::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit timeouts.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> Result<NetClient, ClientError> {
        let io_err = |context: &'static str| {
            move |e: io::Error| ClientError::Io {
                context: context.to_string(),
                detail: e.to_string(),
            }
        };
        let stream = TcpStream::connect(addr).map_err(io_err("connecting"))?;
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(config.read_timeout))
            .map_err(io_err("configuring the read timeout"))?;
        stream
            .set_write_timeout(Some(config.write_timeout))
            .map_err(io_err("configuring the write timeout"))?;
        Ok(NetClient {
            stream,
            next_seq: 0,
            backlog: VecDeque::new(),
            stats_inflight: 0,
        })
    }

    /// Writes one request frame and returns the seq its response will
    /// carry. Does not wait for anything.
    pub fn submit(&mut self, req: &CompileRequest) -> Result<u64, ClientError> {
        let seq = self.next_seq;
        proto::write_frame(&mut &self.stream, &Frame::request(seq, req))?;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Writes one stats-request frame; the snapshot arrives as
    /// [`NetEvent::Stats`].
    pub fn submit_stats(&mut self) -> Result<(), ClientError> {
        proto::write_frame(&mut &self.stream, &Frame::stats_request())?;
        self.stats_inflight += 1;
        Ok(())
    }

    /// The next server event: the backlog first, then one blocking frame
    /// read (bounded by [`ClientConfig::read_timeout`]).
    pub fn next_event(&mut self) -> Result<NetEvent, ClientError> {
        if let Some(event) = self.backlog.pop_front() {
            return Ok(event);
        }
        self.read_event()
    }

    /// One frame off the socket, decoded into a [`NetEvent`].
    fn read_event(&mut self) -> Result<NetEvent, ClientError> {
        let frame = proto::read_frame(&mut &self.stream)?;
        match frame.kind {
            FrameKind::Response => {
                let wire: WireResponse = frame.decode()?;
                Ok(NetEvent::Response {
                    seq: wire.seq,
                    response: wire.response,
                })
            }
            FrameKind::Error => {
                let wire: WireFault = frame.decode()?;
                Ok(NetEvent::Fail {
                    seq: wire.seq,
                    error: wire.error,
                })
            }
            FrameKind::Stats => {
                self.stats_inflight = self.stats_inflight.saturating_sub(1);
                Ok(NetEvent::Stats(frame.decode()?))
            }
            FrameKind::Goodbye => Ok(NetEvent::Goodbye(frame.decode()?)),
            FrameKind::WarmupBatch => Ok(NetEvent::WarmupBatch(frame.decode()?)),
            kind => Err(ClientError::Proto(ProtoError::Unexpected {
                kind,
                context: "a client receives response, error, stats, warmup-batch, and goodbye \
                          frames"
                    .to_string(),
            })),
        }
    }

    /// Submit-and-wait: writes the request, then reads until its answer
    /// arrives. Responses for *other* pipelined seqs observed while
    /// waiting are preserved for later [`NetClient::next_event`] calls.
    pub fn request(&mut self, req: &CompileRequest) -> Result<CompileResponse, ClientError> {
        let seq = self.submit(req)?;
        let mut deferred: Vec<NetEvent> = Vec::new();
        let outcome = loop {
            match self.next_event() {
                Ok(NetEvent::Response { seq: s, response }) if s == seq => break Ok(response),
                Ok(NetEvent::Fail { seq: s, error }) if s == Some(seq) || s.is_none() => {
                    break Err(ClientError::Server(error));
                }
                Ok(NetEvent::Goodbye(g)) => break Err(ClientError::Closed { reason: g.reason }),
                Ok(other) => deferred.push(other),
                Err(e) => break Err(e),
            }
        };
        self.backlog.extend(deferred);
        outcome
    }

    /// One warm-up transfer: send the joiner's owned-digest predicate,
    /// collect every [`WarmupEntry`] the donor's cache holds for keys the
    /// predicate claims, across however many `warmup-batch` chunks the
    /// donor needs to stay under the frame cap. Returns once the chunk
    /// marked `done` arrives. Responses for pipelined compiles observed
    /// while waiting are preserved for later [`NetClient::next_event`]
    /// calls. Entries are returned *unverified* — importers must run
    /// [`WarmupEntry::verify`] (the service's bulk import does) so a
    /// corrupt donor can never poison a cache.
    pub fn warm_up(&mut self, predicate: &OwnedPredicate) -> Result<Vec<WarmupEntry>, ClientError> {
        let seq = self.next_seq;
        proto::write_frame(&mut &self.stream, &Frame::warmup_request(seq, predicate))?;
        self.next_seq += 1;
        let mut deferred: Vec<NetEvent> = Vec::new();
        let mut entries: Vec<WarmupEntry> = Vec::new();
        let outcome = loop {
            match self.next_event() {
                Ok(NetEvent::WarmupBatch(batch)) if batch.seq == seq => {
                    entries.extend(batch.entries);
                    if batch.done {
                        break Ok(std::mem::take(&mut entries));
                    }
                }
                Ok(NetEvent::Fail { seq: s, error }) if s == Some(seq) || s.is_none() => {
                    break Err(ClientError::Server(error));
                }
                Ok(NetEvent::Goodbye(g)) => break Err(ClientError::Closed { reason: g.reason }),
                Ok(other) => deferred.push(other),
                Err(e) => break Err(e),
            }
        };
        self.backlog.extend(deferred);
        outcome
    }

    /// A [`ServeStats`] snapshot over the wire — fresh, not a leftover.
    /// See [`NetClient::backend_stats`] for the correlation contract;
    /// this is the identity-stripped convenience form.
    pub fn stats(&mut self) -> Result<ServeStats, ClientError> {
        self.backend_stats().map(|tagged| tagged.stats)
    }

    /// An identity-tagged stats snapshot over the wire, correlated to
    /// *this* call: any snapshot still owed to an earlier bare
    /// [`NetClient::submit_stats`] — queued in the backlog or still in
    /// flight on the socket — is discarded as stale, and exactly the
    /// answer to the request written here is returned. (Stats carry no
    /// seq on the wire, so the correlation is positional: the server
    /// answers stats-requests in order on one connection.) Responses for
    /// pipelined compiles observed while waiting are preserved for later
    /// [`NetClient::next_event`] calls; no spurious stats event is ever
    /// left queued behind this call.
    pub fn backend_stats(&mut self) -> Result<BackendStats, ClientError> {
        self.backlog
            .retain(|event| !matches!(event, NetEvent::Stats(_)));
        let stale = self.stats_inflight;
        self.submit_stats()?;
        let mut deferred: Vec<NetEvent> = Vec::new();
        let mut skipped = 0u64;
        let outcome = loop {
            match self.read_event() {
                Ok(NetEvent::Stats(tagged)) => {
                    if skipped < stale {
                        skipped += 1;
                        continue;
                    }
                    break Ok(tagged);
                }
                Ok(NetEvent::Goodbye(g)) => break Err(ClientError::Closed { reason: g.reason }),
                Ok(other) => deferred.push(other),
                Err(e) => break Err(e),
            }
        };
        self.backlog.extend(deferred);
        outcome
    }

    /// Graceful close: announce no further requests, then drain events
    /// until the server's answering goodbye (every already-submitted
    /// response arrives first, per the drain contract). Consumes the
    /// client; the returned goodbye carries the server's reason and the
    /// connection's served count.
    pub fn goodbye(mut self) -> Result<WireGoodbye, ClientError> {
        proto::write_frame(&mut &self.stream, &Frame::goodbye("client done", 0))?;
        loop {
            match self.next_event()? {
                NetEvent::Goodbye(g) => return Ok(g),
                _other => {} // late responses; the caller said they are done
            }
        }
    }

    /// The local socket address (useful in tests).
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, ClientError> {
        self.stream.local_addr().map_err(|e| ClientError::Io {
            context: "reading the local address".to_string(),
            detail: e.to_string(),
        })
    }
}
