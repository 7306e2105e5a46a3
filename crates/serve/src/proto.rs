//! The wire protocol: length-prefixed frames over a byte stream.
//!
//! Every message on a `qft-serve` connection is one **frame**:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"QFTW"
//! 4       1     version (currently 1)
//! 5       1     kind    (see [`FrameKind`])
//! 6       4     payload length, u32 big-endian, <= the kind's cap
//! 10      len   payload: UTF-8 JSON (the crate's serde types)
//! ```
//!
//! Payloads reuse the service's existing serde surface —
//! [`CompileRequest`]/[`CompileResponse`]/[`ServeError`]/[`ServeStats`] —
//! wrapped in the small `Wire*` envelopes below so responses carry the
//! client's sequence tag. The protocol is deliberately dumb: no
//! compression, no multiplexed channels, no negotiation beyond the
//! version byte. What it *is* careful about:
//!
//! * **Bounded allocation** — the length field is validated against the
//!   kind's cap ([`FrameKind::max_payload`]: 1 MiB for the kinds a server
//!   receives, [`MAX_PAYLOAD`] otherwise) *before* anything is read past
//!   the header, so a hostile length prefix costs a 10-byte header read
//!   and a descriptive [`ProtoError::Oversize`], never an allocation; and
//!   a payload buffer grows with the bytes that actually arrive, so a
//!   header that declares the cap and then stalls costs what was sent.
//! * **Descriptive decode errors** — bad magic, unknown version/kind,
//!   truncation, and malformed JSON each get their own [`ProtoError`]
//!   variant whose message names what was expected; the server answers
//!   with an error frame instead of a bare connection reset wherever the
//!   stream is still framed.
//! * **One reader for every peer** — [`read_frame`] serves clients,
//!   tests and the server alike; the server enforces its per-frame
//!   (slowloris) deadline in the `Read` it passes in.

use crate::types::{BackendStats, CompileRequest, CompileResponse, ServeError, ServeStats};
use crate::warmup::{OwnedPredicate, WarmupEntry};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{self, Read, Write};

/// The four magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"QFTW";

/// The protocol version this build speaks.
pub const VERSION: u8 = 1;

/// Frame-header size: magic + version + kind + payload length.
pub const HEADER_LEN: usize = 10;

/// Hard cap on a frame payload (16 MiB): the cap of the kinds a client
/// receives (`response`, `error`, `stats`, `warmup-batch`) and of unknown
/// kinds. Checked against the length field before any allocation is
/// sized from it.
pub const MAX_PAYLOAD: usize = 16 << 20;

/// Cap on the payload of the four kinds a server receives — `request`,
/// `stats-request`, `goodbye` and `warmup-request` (1 MiB). None is
/// legitimately more than a few KB (the largest, a warm-up predicate, is
/// about 1.4 KB), so a peer can never make a server parse 16 MiB of JSON.
pub const MAX_SERVER_BOUND_PAYLOAD: usize = 1 << 20;

/// What a frame carries. The numeric value is the wire byte. Byte 4 is
/// reserved: it carried a withdrawn `overloaded` kind and is never
/// reused, so a peer that sends it gets the unknown-kind refusal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server: one [`WireRequest`] to compile.
    Request = 1,
    /// Server → client: one [`WireResponse`] (a completed compile).
    Response = 2,
    /// Server → client: one [`WireFault`] — a request-level
    /// [`ServeError`] (tagged with the request's seq) or a
    /// connection-level protocol diagnosis (seq absent).
    Error = 3,
    /// Client → server: ask for a [`ServeStats`] snapshot (payload `{}`).
    StatsRequest = 5,
    /// Server → client: the snapshot wrapped in a [`BackendStats`]
    /// envelope — the answering server's identity plus the counters — so
    /// a router aggregating several backends can tell the answers apart.
    Stats = 6,
    /// Either direction: the sender is done. From a client it announces
    /// no further requests; from the server it is the final frame of a
    /// graceful close ([`WireGoodbye`]) — after the drain contract has
    /// delivered every accepted response.
    Goodbye = 7,
    /// Client → server: a [`WireWarmupRequest`] — a joining (or
    /// probe-recovered) backend asking for the cache entries matching
    /// its owned-digest predicate. Answered from the cache snapshot,
    /// never the worker pool, and honored even during a drain (the
    /// hand-off *is* the leave path).
    WarmupRequest = 8,
    /// Server → client: one chunk of a warm-up reply
    /// ([`WireWarmupBatch`]). Chunks respect [`MAX_PAYLOAD`]; the final
    /// chunk carries `done = true` (possibly with zero entries).
    WarmupBatch = 9,
}

impl FrameKind {
    /// Every kind, in wire-byte order (fuzz harnesses iterate this).
    pub const ALL: [FrameKind; 8] = [
        FrameKind::Request,
        FrameKind::Response,
        FrameKind::Error,
        FrameKind::StatsRequest,
        FrameKind::Stats,
        FrameKind::Goodbye,
        FrameKind::WarmupRequest,
        FrameKind::WarmupBatch,
    ];

    /// Decodes the wire byte.
    pub fn from_wire(byte: u8) -> Option<FrameKind> {
        FrameKind::ALL.into_iter().find(|k| *k as u8 == byte)
    }

    /// This kind's payload cap: [`MAX_SERVER_BOUND_PAYLOAD`] for the
    /// kinds a server receives, [`MAX_PAYLOAD`] for the rest.
    pub fn max_payload(self) -> usize {
        match self {
            FrameKind::Request
            | FrameKind::StatsRequest
            | FrameKind::Goodbye
            | FrameKind::WarmupRequest => MAX_SERVER_BOUND_PAYLOAD,
            FrameKind::Response | FrameKind::Error | FrameKind::Stats | FrameKind::WarmupBatch => {
                MAX_PAYLOAD
            }
        }
    }
}

impl fmt::Display for FrameKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FrameKind::Request => "request",
            FrameKind::Response => "response",
            FrameKind::Error => "error",
            FrameKind::StatsRequest => "stats-request",
            FrameKind::Stats => "stats",
            FrameKind::Goodbye => "goodbye",
            FrameKind::WarmupRequest => "warmup-request",
            FrameKind::WarmupBatch => "warmup-batch",
        };
        f.write_str(name)
    }
}

/// Why a frame could not be read or decoded. Every variant's display text
/// names what was expected, so a client (or a test) can diagnose the
/// stream without a packet capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The stream did not open with [`MAGIC`].
    BadMagic {
        /// The four bytes that arrived instead.
        got: [u8; 4],
    },
    /// The version byte is one this build does not speak.
    Version {
        /// The version byte that arrived.
        got: u8,
    },
    /// The kind byte maps to no [`FrameKind`] this build speaks. The
    /// length field was still validated and the payload consumed, so the
    /// stream stays framed: receivers treat this as a *per-frame*
    /// refusal (answer with a descriptive error frame, keep the
    /// connection) — the forward-compat contract for peers speaking a
    /// newer protocol revision.
    UnknownKind {
        /// The kind byte that arrived.
        got: u8,
    },
    /// The length field exceeds the kind's cap
    /// ([`FrameKind::max_payload`]); nothing was allocated.
    Oversize {
        /// The declared payload length.
        len: u64,
        /// The cap it exceeded.
        max: usize,
    },
    /// The stream ended (or a blocking read hit EOF) mid-frame.
    Truncated {
        /// What was being read when the stream ended.
        context: String,
        /// Bytes of the frame that did arrive.
        have: usize,
        /// Bytes the frame needed.
        need: usize,
    },
    /// A blocking read timed out before the frame completed.
    Timeout {
        /// What was being read when the deadline passed.
        context: String,
    },
    /// The payload was not the JSON the frame kind promises.
    Json {
        /// The frame kind whose payload failed to parse.
        kind: FrameKind,
        /// The underlying serde diagnosis.
        detail: String,
    },
    /// A syntactically valid frame of a kind the receiver never accepts
    /// (e.g. a client sending the server a `response` frame).
    Unexpected {
        /// The kind that arrived.
        kind: FrameKind,
        /// Who rejected it and what it accepts.
        context: String,
    },
    /// A non-timeout I/O failure underneath the framing.
    Io {
        /// What was happening when the I/O failed.
        context: String,
        /// The `io::Error` display text.
        detail: String,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::BadMagic { got } => write!(
                f,
                "bad frame magic {got:?}: every qft-serve frame opens with {MAGIC:?} (\"QFTW\") — \
                 is the peer speaking this protocol?"
            ),
            ProtoError::Version { got } => write!(
                f,
                "unsupported protocol version {got}: this build speaks version {VERSION}"
            ),
            ProtoError::UnknownKind { got } => {
                write!(
                    f,
                    "unknown frame kind {got}: valid kinds in protocol version {VERSION} are"
                )?;
                for (i, kind) in FrameKind::ALL.iter().enumerate() {
                    let sep = if i == 0 { " " } else { ", " };
                    write!(f, "{sep}{} ({kind})", *kind as u8)?;
                }
                write!(
                    f,
                    " — a newer-revision peer should treat this refusal as per-frame, not \
                     fatal: the frame was consumed and the stream is still framed"
                )
            }
            ProtoError::Oversize { len, max } => write!(
                f,
                "frame payload length {len} exceeds the {max}-byte cap: the length field is \
                 validated before any allocation, so the frame was refused unread"
            ),
            ProtoError::Truncated {
                context,
                have,
                need,
            } => write!(
                f,
                "stream ended mid-frame while reading {context}: got {have} of {need} bytes"
            ),
            ProtoError::Timeout { context } => {
                write!(f, "read timed out while waiting for {context}")
            }
            ProtoError::Json { kind, detail } => write!(
                f,
                "malformed {kind} payload: {detail} (payload must be the JSON the frame kind \
                 promises; see PROTOCOL.md)"
            ),
            ProtoError::Unexpected { kind, context } => {
                write!(f, "unexpected {kind} frame: {context}")
            }
            ProtoError::Io { context, detail } => {
                write!(f, "i/o failure during {context}: {detail}")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

/// One decoded frame: its kind and raw payload bytes. Typed payload
/// access goes through [`Frame::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the payload is.
    pub kind: FrameKind,
    /// The payload bytes (UTF-8 JSON for every kind this crate emits).
    pub payload: Vec<u8>,
}

/// A client → server compile request, tagged with the client's sequence
/// number so the (completion-order) response can be re-correlated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireRequest {
    /// The client's tag for this request; echoed on the response frame.
    pub seq: u64,
    /// The request itself, exactly the in-process serde type.
    pub request: CompileRequest,
}

/// A server → client compile response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireResponse {
    /// The seq of the [`WireRequest`] this answers.
    pub seq: u64,
    /// The response, exactly the in-process serde type (artifact wall
    /// times stripped, so bytes are deterministic across connections).
    pub response: CompileResponse,
}

/// A server → client failure: request-level when `seq` is present,
/// connection-level (a protocol diagnosis) when absent.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireFault {
    /// The seq of the request that failed, if the failure is scoped to
    /// one request.
    pub seq: Option<u64>,
    /// The error, exactly the in-process serde type.
    pub error: ServeError,
}

/// A client → server warm-up request: the joiner's owned-digest
/// predicate, seq-tagged like a compile request so the chunked reply
/// can be correlated on a pipelined connection.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireWarmupRequest {
    /// The client's tag for this transfer; echoed on every batch frame.
    pub seq: u64,
    /// Which digests the joiner claims. The donor exports matching
    /// cache entries; it never compiles anything on this path.
    pub predicate: OwnedPredicate,
}

/// One server → client chunk of a warm-up reply.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireWarmupBatch {
    /// The seq of the [`WireWarmupRequest`] this answers.
    pub seq: u64,
    /// 0-based chunk index, so a receiver can detect a gap.
    pub index: u64,
    /// Whether this is the final chunk. A transfer with nothing to ship
    /// is exactly one batch: `index = 0`, `done = true`, no entries.
    pub done: bool,
    /// The entries in this chunk, each self-verifying (see
    /// [`WarmupEntry::verify`]).
    pub entries: Vec<WarmupEntry>,
}

/// The final frame of a graceful close, from either side.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireGoodbye {
    /// Why the sender is closing (`"server draining"`, `"client done"`…).
    pub reason: String,
    /// Responses the server delivered on this connection (0 from a
    /// client).
    pub served: u64,
}

impl Frame {
    /// A frame from a kind and an already-serialized payload.
    pub fn new(kind: FrameKind, payload: Vec<u8>) -> Frame {
        Frame { kind, payload }
    }

    fn json<T: Serialize>(kind: FrameKind, value: &T) -> Frame {
        let payload = serde_json::to_string(value)
            .expect("wire payloads always serialize")
            .into_bytes();
        Frame { kind, payload }
    }

    /// A [`FrameKind::Request`] frame.
    pub fn request(seq: u64, request: &CompileRequest) -> Frame {
        Frame::json(
            FrameKind::Request,
            &WireRequest {
                seq,
                request: request.clone(),
            },
        )
    }

    /// A [`FrameKind::Response`] frame.
    pub fn response(seq: u64, response: &CompileResponse) -> Frame {
        Frame::json(
            FrameKind::Response,
            &WireResponse {
                seq,
                response: response.clone(),
            },
        )
    }

    /// A [`FrameKind::Error`] frame (request-level when `seq` is given).
    pub fn error(seq: Option<u64>, error: &ServeError) -> Frame {
        Frame::json(
            FrameKind::Error,
            &WireFault {
                seq,
                error: error.clone(),
            },
        )
    }

    /// A [`FrameKind::StatsRequest`] frame.
    pub fn stats_request() -> Frame {
        Frame::new(FrameKind::StatsRequest, b"{}".to_vec())
    }

    /// A [`FrameKind::Stats`] frame: the snapshot stamped with the
    /// answering server's identity.
    pub fn stats(identity: &str, stats: &ServeStats) -> Frame {
        Frame::json(
            FrameKind::Stats,
            &BackendStats {
                identity: identity.to_string(),
                stats: *stats,
            },
        )
    }

    /// A [`FrameKind::WarmupRequest`] frame.
    pub fn warmup_request(seq: u64, predicate: &OwnedPredicate) -> Frame {
        Frame::json(
            FrameKind::WarmupRequest,
            &WireWarmupRequest {
                seq,
                predicate: predicate.clone(),
            },
        )
    }

    /// A [`FrameKind::WarmupBatch`] frame.
    pub fn warmup_batch(seq: u64, index: u64, done: bool, entries: Vec<WarmupEntry>) -> Frame {
        Frame::json(
            FrameKind::WarmupBatch,
            &WireWarmupBatch {
                seq,
                index,
                done,
                entries,
            },
        )
    }

    /// A [`FrameKind::Goodbye`] frame.
    pub fn goodbye(reason: impl Into<String>, served: u64) -> Frame {
        Frame::json(
            FrameKind::Goodbye,
            &WireGoodbye {
                reason: reason.into(),
                served,
            },
        )
    }

    /// Decodes the payload as the JSON type the kind promises.
    pub fn decode<T: Deserialize>(&self) -> Result<T, ProtoError> {
        let text = std::str::from_utf8(&self.payload).map_err(|e| ProtoError::Json {
            kind: self.kind,
            detail: format!("payload is not UTF-8: {e}"),
        })?;
        serde_json::from_str(text).map_err(|e| ProtoError::Json {
            kind: self.kind,
            detail: e.to_string(),
        })
    }

    /// The frame as wire bytes (header + payload). Fails with
    /// [`ProtoError::Oversize`] instead of emitting a frame no peer
    /// would accept.
    pub fn encode(&self) -> Result<Vec<u8>, ProtoError> {
        let max = self.kind.max_payload();
        if self.payload.len() > max {
            return Err(ProtoError::Oversize {
                len: self.payload.len() as u64,
                max,
            });
        }
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(self.kind as u8);
        out.extend_from_slice(&(self.payload.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.payload);
        Ok(out)
    }
}

/// Validates a complete 10-byte header. The kind's length cap is
/// enforced here — before any caller sizes a buffer from it — and an
/// unknown kind is held to [`MAX_PAYLOAD`] but not yet refused, so one
/// with a sane length is **skippable**: the inner `Result` carries the
/// raw byte and callers consume the payload, then surface
/// [`ProtoError::UnknownKind`] as a per-frame (not connection-fatal)
/// refusal. That is the forward-compat story for peers speaking a newer
/// protocol revision.
#[allow(clippy::type_complexity)]
fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(Result<FrameKind, u8>, usize), ProtoError> {
    let got: [u8; 4] = header[..4].try_into().expect("4-byte slice");
    if got != MAGIC {
        return Err(ProtoError::BadMagic { got });
    }
    if header[4] != VERSION {
        return Err(ProtoError::Version { got: header[4] });
    }
    let len = u32::from_be_bytes(header[6..10].try_into().expect("4-byte slice")) as usize;
    let kind = FrameKind::from_wire(header[5]).ok_or(header[5]);
    let max = kind.map_or(MAX_PAYLOAD, FrameKind::max_payload);
    if len > max {
        return Err(ProtoError::Oversize {
            len: len as u64,
            max,
        });
    }
    Ok((kind, len))
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// A read failure as a protocol error: a socket timeout becomes
/// [`ProtoError::Timeout`], anything else [`ProtoError::Io`].
fn read_error(e: io::Error, context: &str) -> ProtoError {
    if is_timeout(&e) {
        ProtoError::Timeout {
            context: context.to_string(),
        }
    } else {
        ProtoError::Io {
            context: context.to_string(),
            detail: e.to_string(),
        }
    }
}

/// Blocking frame read, shared by clients, the server, tests and
/// in-memory fuzzing. Nothing past the header is read unless the length
/// field passes the kind's cap, and the payload buffer grows
/// with the bytes received rather than being sized from the declared
/// length. A clean close *between* frames is a [`ProtoError::Truncated`]
/// with `have == 0`.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, ProtoError> {
    let mut header = [0u8; HEADER_LEN];
    let mut have = 0;
    while have < HEADER_LEN {
        match r.read(&mut header[have..]) {
            Ok(0) => {
                return Err(ProtoError::Truncated {
                    context: "frame header".to_string(),
                    have,
                    need: HEADER_LEN,
                })
            }
            Ok(k) => have += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(read_error(e, "frame header")),
        }
    }
    let (kind, len) = parse_header(&header)?;
    let mut payload = Vec::new();
    r.take(len as u64)
        .read_to_end(&mut payload)
        .map_err(|e| read_error(e, "frame payload"))?;
    if payload.len() < len {
        // Payload truncation reports whole-frame progress.
        return Err(ProtoError::Truncated {
            context: match kind {
                Ok(kind) => format!("{kind} frame payload"),
                Err(got) => format!("unknown-kind-{got} frame payload"),
            },
            have: HEADER_LEN + payload.len(),
            need: HEADER_LEN + len,
        });
    }
    // An unknown kind is reported only now, with its payload consumed,
    // so the caller's stream is positioned at the next frame.
    let kind = kind.map_err(|got| ProtoError::UnknownKind { got })?;
    Ok(Frame { kind, payload })
}

/// Blocking frame write.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), ProtoError> {
    let bytes = frame.encode()?;
    w.write_all(&bytes).map_err(|e| {
        if is_timeout(&e) {
            ProtoError::Timeout {
                context: format!("writing a {} frame", frame.kind),
            }
        } else {
            ProtoError::Io {
                context: format!("writing a {} frame", frame.kind),
                detail: e.to_string(),
            }
        }
    })?;
    w.flush().map_err(|e| ProtoError::Io {
        context: "flushing the stream".to_string(),
        detail: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;

    #[test]
    fn typed_frames_roundtrip_their_payloads() {
        let req = CompileRequest::new("lnn", "lnn:8");
        let frame = Frame::request(7, &req);
        let bytes = frame.encode().unwrap();
        let back = read_frame(&mut Cursor::new(&bytes)).unwrap();
        assert_eq!(back, frame);
        let wire: WireRequest = back.decode().unwrap();
        assert_eq!(wire.seq, 7);
        assert_eq!(wire.request, req);

        let bye = Frame::goodbye("server draining", 3);
        let back = read_frame(&mut Cursor::new(&bye.encode().unwrap())).unwrap();
        let wire: WireGoodbye = back.decode().unwrap();
        assert_eq!((wire.reason.as_str(), wire.served), ("server draining", 3));
    }

    #[test]
    fn oversize_length_is_refused_before_any_allocation() {
        let mut bytes = Frame::stats_request().encode().unwrap();
        // Forge the length field far past the cap; supply no payload.
        bytes[6..10].copy_from_slice(&u32::MAX.to_be_bytes());
        bytes.truncate(HEADER_LEN);
        let err = read_frame(&mut Cursor::new(&bytes)).unwrap_err();
        match err {
            ProtoError::Oversize { len, max } => {
                assert_eq!(len, u32::MAX as u64);
                assert_eq!(max, MAX_SERVER_BOUND_PAYLOAD);
            }
            other => panic!("expected Oversize, got {other}"),
        }
        assert!(err.to_string().contains("before any allocation"));
        // An unknown kind keeps the 16 MiB cap, so a newer peer's larger
        // frame stays skippable: past 1 MiB it is read, not refused.
        bytes[5] = 200;
        bytes[6..10].copy_from_slice(&(MAX_SERVER_BOUND_PAYLOAD as u32 + 1).to_be_bytes());
        match read_frame(&mut Cursor::new(&bytes)).unwrap_err() {
            ProtoError::Truncated { need, .. } => {
                assert_eq!(need, HEADER_LEN + MAX_SERVER_BOUND_PAYLOAD + 1)
            }
            other => panic!("expected Truncated, got {other}"),
        }
    }

    #[test]
    fn payload_buffers_grow_with_the_bytes_received() {
        // A peer that declares the largest legal request payload (1 MiB),
        // sends 100 bytes of it, then ends the stream. The reader records
        // the largest buffer it was handed: the payload buffer must never
        // have been sized from the declared length.
        struct Stall {
            bytes: Vec<u8>,
            at: usize,
            widest: usize,
        }
        impl Read for Stall {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.widest = self.widest.max(buf.len());
                let k = buf.len().min(self.bytes.len() - self.at);
                buf[..k].copy_from_slice(&self.bytes[self.at..self.at + k]);
                self.at += k;
                Ok(k)
            }
        }
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(FrameKind::Request as u8);
        bytes.extend_from_slice(&(MAX_SERVER_BOUND_PAYLOAD as u32).to_be_bytes());
        bytes.extend_from_slice(&[b' '; 100]);
        let mut stall = Stall {
            bytes,
            at: 0,
            widest: 0,
        };
        match read_frame(&mut stall).unwrap_err() {
            ProtoError::Truncated { have, need, .. } => {
                assert_eq!(
                    (have, need),
                    (HEADER_LEN + 100, HEADER_LEN + MAX_SERVER_BOUND_PAYLOAD)
                );
            }
            other => panic!("expected Truncated, got {other}"),
        }
        assert!(
            stall.widest <= 64 << 10,
            "a {}-byte buffer was sized from the declared length",
            stall.widest
        );

        // A complete payload of several megabytes still arrives byte-exact.
        let payload: Vec<u8> = (0..(5 << 20) + 17).map(|i| i as u8).collect();
        let frame = Frame::new(FrameKind::WarmupBatch, payload);
        let back = read_frame(&mut Cursor::new(frame.encode().unwrap())).unwrap();
        assert_eq!(back, frame);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Encode→decode round-trip: any payload bytes under any kind
        /// survive the wire byte-exactly.
        #[test]
        fn arbitrary_payloads_roundtrip(
            kind_idx in 0..FrameKind::ALL.len(),
            raw in collection::vec(0u16..256, 0..512),
        ) {
            let payload: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
            let frame = Frame::new(FrameKind::ALL[kind_idx], payload);
            let bytes = frame.encode().unwrap();
            prop_assert_eq!(bytes.len(), HEADER_LEN + frame.payload.len());
            let back = read_frame(&mut Cursor::new(&bytes)).unwrap();
            prop_assert_eq!(back, frame);
        }

        /// Truncating a valid frame anywhere yields a descriptive
        /// `Truncated` error naming the progress — never a panic.
        #[test]
        fn truncation_anywhere_is_a_descriptive_error(
            kind_idx in 0..FrameKind::ALL.len(),
            raw in collection::vec(0u16..256, 1..256),
            cut_at in 0usize..10_000,
        ) {
            let payload: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
            let frame = Frame::new(FrameKind::ALL[kind_idx], payload);
            let bytes = frame.encode().unwrap();
            let cut = cut_at % bytes.len(); // strictly short of a full frame
            let err = read_frame(&mut Cursor::new(&bytes[..cut])).unwrap_err();
            match err {
                ProtoError::Truncated { have, need, .. } => {
                    prop_assert_eq!(have, cut);
                    // A cut inside the header can only report the header's
                    // size (the payload length is unknowable); past it, the
                    // error reports whole-frame progress.
                    let expect_need = if cut < HEADER_LEN { HEADER_LEN } else { bytes.len() };
                    prop_assert_eq!(need, expect_need);
                }
                other => return Err(TestCaseError::Fail(
                    format!("expected Truncated at cut {cut}, got {other}"),
                )),
            }
        }

        /// Corrupting any single header byte never panics: the decoder
        /// either still produces a frame (the corrupt byte landed on a
        /// value that stays valid) or reports a descriptive error.
        #[test]
        fn header_corruption_never_panics(
            raw in collection::vec(0u16..256, 0..64),
            at in 0usize..HEADER_LEN,
            value in 0u16..256,
        ) {
            let payload: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
            let frame = Frame::new(FrameKind::Goodbye, payload);
            let mut bytes = frame.encode().unwrap();
            bytes[at] = value as u8;
            match read_frame(&mut Cursor::new(&bytes)) {
                Ok(f) => {
                    // Only a corrupt byte that restores a valid header can
                    // decode; the payload is still delivered intact unless
                    // the length field shrank.
                    prop_assert!(f.payload.len() <= frame.payload.len());
                }
                Err(e) => {
                    let msg = e.to_string();
                    prop_assert!(!msg.is_empty());
                    match at {
                        0..=3 => prop_assert!(
                            msg.contains("magic") || msg.contains("mid-frame"),
                            "byte {at}: {msg}"
                        ),
                        4 => prop_assert!(msg.contains("version"), "{msg}"),
                        5 => prop_assert!(msg.contains("kind"), "{msg}"),
                        _ => prop_assert!(
                            msg.contains("mid-frame") || msg.contains("cap"),
                            "byte {at}: {msg}"
                        ),
                    }
                }
            }
        }

        /// Any length field past its kind's cap is refused with that cap
        /// named, for every kind byte and tail length — and the refusal
        /// happens at header-parse time, so no payload-sized buffer
        /// exists.
        #[test]
        fn oversize_lengths_are_always_refused(
            kind_idx in 0..FrameKind::ALL.len(),
            over in 1u64..1_000_000,
            tail_len in 0usize..64,
        ) {
            let kind = FrameKind::ALL[kind_idx];
            let len = (kind.max_payload() as u64 + over).min(u32::MAX as u64) as u32;
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&MAGIC);
            bytes.push(VERSION);
            bytes.push(kind as u8);
            bytes.extend_from_slice(&len.to_be_bytes());
            bytes.extend_from_slice(&vec![0u8; tail_len]);
            let err = read_frame(&mut Cursor::new(&bytes)).unwrap_err();
            match err {
                ProtoError::Oversize { len: got, max } => {
                    prop_assert_eq!(got, len as u64);
                    prop_assert_eq!(max, kind.max_payload());
                }
                other => return Err(TestCaseError::Fail(
                    format!("expected Oversize, got {other}"),
                )),
            }
        }
    }
}
