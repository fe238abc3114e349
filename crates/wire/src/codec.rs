//! The framed wire codec.
//!
//! Every protocol message travels as one *frame*:
//!
//! ```text
//! ┌────────────┬─────────────┬──────────────┬──────────────┬─────────┐
//! │ magic: u32 │ version:u16 │ pay_len: u32 │ checksum:u32 │ payload │
//! └────────────┴─────────────┴──────────────┴──────────────┴─────────┘
//! ```
//!
//! (all little-endian). The payload starts with one *kind* byte:
//!
//! * [`PAYLOAD_PROTOCOL`] frames carry the binary serde encoding of
//!   `(from, from_incarnation, to_incarnation, msg, book)` — the routed
//!   [`Envelope`] plus the **incarnation tags** the lifecycle refactor
//!   added (the sender stamps which of its own lives produced the frame
//!   and which life of the destination it believes it is talking to, so
//!   receivers can reject traffic from (or addressed to) a previous life
//!   as stale instead of delivering it to the wrong incarnation) plus —
//!   since codec v4 — an **address book**: membership frames piggyback
//!   the sender's peer roster as `(id, addr, incarnation)` entries so a
//!   receiver can open routes to members it learned about through gossip
//!   but has never exchanged wiring with — already tagged for the right
//!   life. Non-membership traffic ships an empty book.
//! * [`PAYLOAD_ANNOUNCE`] frames carry `(from, incarnation, AnyInstance)`,
//!   the problem announce a root sends so peers started with
//!   `--problem wire` can solve an instance they never had locally.
//! * [`PAYLOAD_JOIN`] frames carry a [`JoinFrame`]: the (id, incarnation,
//!   listen address) of a node entering a live mesh — a brand-new node
//!   introducing itself to its gossip servers before `Start`
//!   (incarnation 0), or a node restored from a checkpoint announcing its
//!   new life to every peer (incarnation > 0). The receiver registers the
//!   sender — new writer if the address moved, raised incarnation tag
//!   either way. For a joiner this is the wire-level half of the §5.2
//!   join handshake; the protocol-level `MembershipMsg::Join`/`Welcome`
//!   exchange then rides ordinary protocol frames over the route this
//!   one opened.
//! * [`PAYLOAD_SUBMIT`] frames carry a [`WireFrame::SubmitJob`]: a client
//!   (`ftbb-submit`) handing a job — a [`JobId`] plus a materialized
//!   [`AnyInstance`] — to a service-mode pool's gateway node over the
//!   same port the mesh uses.
//! * [`PAYLOAD_ACCEPTED`] frames carry a [`WireFrame::JobAccepted`]: the
//!   gateway's admission acknowledgement back to the submitter.
//! * [`PAYLOAD_RESULT`] frames carry a [`WireFrame::JobResult`]: streamed
//!   incumbent improvements (`finished: false`) and the final optimum
//!   (`finished: true`) flowing back to the submitter as the pool solves.
//!
//! Since codec **v5** every frame kind that participates in solving is
//! stamped with the [`JobId`] it belongs to, so one service pool can
//! multiplex any number of concurrent jobs over one shared transport:
//! protocol frames route to the matching per-job engine, announces are
//! job admissions. Single-run deployments stamp [`JobId::DEFAULT`].
//!
//! The decoder is **fuzz-resistant**: arbitrary bytes fed to
//! [`FrameDecoder`] produce frames or [`WireError`]s, never panics or
//! unbounded allocations (payload length is bounded by
//! [`MAX_FRAME_PAYLOAD`], the checksum rejects corruption before the
//! payload decoder runs, and decoded instances are re-validated
//! structurally).
//!
//! Per-message size accounting reuses the protocol's own bookkeeping:
//! [`encode_frame`] reports both the *estimated* protocol bytes
//! (`Msg::wire_size`, the quantity the paper's report compression
//! minimizes) and the *actual* encoded bytes, so
//! [`ftbb_runtime::TransportCounters`] can expose the framing overhead.
//!
//! Delivery is **at most once**: a frame is written to a socket at most
//! one time, and one that cannot be written when its turn comes — no
//! connection, or a `write` that fails — is dropped and counted, never
//! held back or replayed ([`crate::tcp`]). That holds from the first
//! frame on; what keeps startup from losing frames is the readiness
//! barrier that runs before it, not a retry.

use ftbb_bnb::AnyInstance;
use ftbb_core::{JobId, Msg};
use ftbb_runtime::Envelope;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::SocketAddr;
use std::sync::Arc;

/// Frame magic: `"FTWB"` (ftbb wire, binary).
pub const MAGIC: u32 = 0x4654_5742;

/// Codec version; bumped on any payload-format change. Decoders reject
/// frames from other versions rather than guessing. (v2 added the
/// payload kind byte and the problem-announce frame; v3 added the
/// incarnation tags and the rejoin frame; v4 added the piggybacked
/// id→addr book on protocol frames and the join frame; v5 added the
/// job-id stamp on protocol and announce frames plus the job-submission
/// frames — service mode; v6 added the explicit bound-announce message
/// tag — suppressed bound dissemination; v7 retired the rejoin frame,
/// kind byte 2: a restarted node introduces itself with the join frame,
/// at its new incarnation.)
pub const VERSION: u16 = 7;

/// Payload kind byte of a protocol envelope frame.
pub const PAYLOAD_PROTOCOL: u8 = 0;

/// Payload kind byte of a problem-announce frame.
pub const PAYLOAD_ANNOUNCE: u8 = 1;

/// Payload kind byte of a join frame.
pub const PAYLOAD_JOIN: u8 = 3;

/// Payload kind byte of a job-submission frame (client → gateway).
pub const PAYLOAD_SUBMIT: u8 = 4;

/// Payload kind byte of a job-admission acknowledgement (gateway →
/// client).
pub const PAYLOAD_ACCEPTED: u8 = 5;

/// Payload kind byte of a job-result frame (gateway → client): streamed
/// incumbents and the final optimum.
pub const PAYLOAD_RESULT: u8 = 6;

/// Fixed frame header size in bytes.
pub const HEADER_LEN: usize = 4 + 2 + 4 + 4;

/// Upper bound on a frame payload. Protocol messages are small (a work
/// grant carries tens of codes, each a few dozen bytes); anything larger
/// is corruption or an attack, and is rejected before allocation.
pub const MAX_FRAME_PAYLOAD: usize = 4 << 20;

/// Errors surfaced by the decoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// First four bytes were not [`MAGIC`]. The stream is garbage or
    /// desynchronized; the connection should be dropped.
    BadMagic(u32),
    /// Frame from an incompatible codec version — typically a pre-v5
    /// (pre-service-mode) peer. The typed error carries the version the
    /// peer spoke so operators can see *what* to upgrade; the frame is
    /// never misparsed as current-version traffic.
    UnsupportedVersion(u16),
    /// Claimed payload length exceeds [`MAX_FRAME_PAYLOAD`].
    Oversize(usize),
    /// Payload bytes do not match the header checksum.
    Checksum {
        /// Checksum the header claimed.
        expected: u32,
        /// Checksum of the bytes actually received.
        actual: u32,
    },
    /// Checksummed payload failed structural decoding (e.g. invalid
    /// enum tag).
    Payload(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported codec version {v}"),
            WireError::Oversize(n) => write!(f, "frame payload of {n} bytes exceeds limit"),
            WireError::Checksum { expected, actual } => {
                write!(
                    f,
                    "payload checksum {actual:#010x} != header {expected:#010x}"
                )
            }
            WireError::Payload(e) => write!(f, "payload decode failed: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// FNV-1a over the payload — cheap corruption detection, not security.
pub fn checksum(data: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in data {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// The one introduction handshake: a node entering a live mesh. A
/// brand-new node (`ftbb-noded --join --gossip-servers`) sends it to the
/// gossip servers it was pointed at, so the protocol-level membership
/// join can flow; gossip then spreads the newcomer (and its address, via
/// the piggybacked book) epidemically. A node restored from a checkpoint
/// (`--resume`) sends it to every peer under its new incarnation, so they
/// re-point their writers at its (possibly new) address.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinFrame {
    /// The entering node's id.
    pub from: u32,
    /// Its incarnation: 0 for a first life, `checkpoint.incarnation + 1`
    /// for a resumed one.
    pub incarnation: u32,
    /// Where its listener lives (a restarted daemon may come back on a
    /// different port).
    pub addr: SocketAddr,
}

/// Everything a frame can carry: a routed protocol message, or one of the
/// lifecycle handshakes (problem announce, join).
#[derive(Debug, Clone, PartialEq)]
pub enum WireFrame {
    /// A routed protocol message (the steady-state traffic).
    Protocol {
        /// The routed message.
        env: Envelope,
        /// Which of the sender's lives produced this frame.
        from_incarnation: u32,
        /// Which life of the destination the sender believes it is
        /// talking to.
        to_incarnation: u32,
        /// The sender's address book, `(id, addr, incarnation)` per
        /// known peer (empty on non-membership traffic): how peers
        /// discovered through gossip become routable — at the right
        /// incarnation — without ever having been wired.
        book: Vec<(u32, SocketAddr, u32)>,
    },
    /// A problem announce: the sender's materialized workload, shipped
    /// before `Start` so `--problem wire` peers can join a computation
    /// whose instance they never generated. In service mode this *is*
    /// job admission: the gateway announces each submitted job to its
    /// peers, stamped with the job it opens.
    Announce {
        /// Announcing node's id.
        from: u32,
        /// Announcing node's incarnation.
        incarnation: u32,
        /// Which job this announce opens ([`JobId::DEFAULT`] on the
        /// single-run path).
        job: JobId,
        /// The materialized (validated) workload.
        instance: AnyInstance,
    },
    /// A node entering a live mesh: a brand-new one, or a restarted one
    /// under its new incarnation.
    Join(JoinFrame),
    /// A client submitting a job to a service-mode gateway.
    SubmitJob {
        /// Client-chosen job id (must be unique within the pool's
        /// lifetime; 0 is reserved for the single-run path).
        job: JobId,
        /// The materialized (validated) workload to solve.
        instance: AnyInstance,
    },
    /// The gateway's admission acknowledgement back to the submitter.
    JobAccepted {
        /// The admitted job.
        job: JobId,
        /// The gateway node that admitted it.
        node: u32,
    },
    /// A result update for a submitted job: incumbent improvements
    /// stream back with `finished: false`; the final optimum arrives
    /// with `finished: true`.
    JobResult {
        /// The job this result belongs to.
        job: JobId,
        /// True exactly once, when the pool detected termination.
        finished: bool,
        /// Best solution value known at this point.
        incumbent: f64,
        /// Subproblems expanded so far on the reporting node.
        expanded: u64,
    },
}

impl WireFrame {
    /// The protocol envelope, if this is a protocol frame.
    pub fn into_envelope(self) -> Option<Envelope> {
        match self {
            WireFrame::Protocol { env, .. } => Some(env),
            WireFrame::Announce { .. }
            | WireFrame::Join(_)
            | WireFrame::SubmitJob { .. }
            | WireFrame::JobAccepted { .. }
            | WireFrame::JobResult { .. } => None,
        }
    }
}

/// An encoded frame plus its size accounting. `bytes` is refcounted, so
/// cloning a frame for each peer of a broadcast shares one encoding.
#[derive(Debug, Clone)]
pub struct EncodedFrame {
    /// The full frame (header + payload), ready for the socket.
    pub bytes: Arc<Vec<u8>>,
    /// The message's own estimate of its protocol size
    /// ([`Msg::wire_size`]), used for paper-faithful accounting.
    pub wire_size: usize,
}

impl EncodedFrame {
    /// Actual encoded length, header included.
    pub fn encoded_len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the payload exceeds [`MAX_FRAME_PAYLOAD`] — receivers
    /// would reject this frame, so it must not be transmitted.
    pub fn exceeds_limit(&self) -> bool {
        self.bytes.len() - HEADER_LEN > MAX_FRAME_PAYLOAD
    }
}

/// Encode one envelope into a frame, stamped with the sender's
/// incarnation and the destination incarnation the sender believes in,
/// plus an `(id, addr, incarnation)` address `book` (pass `&[]` for
/// non-membership traffic — the mesh piggybacks its roster only on
/// membership frames, where discovery belongs and the amortized cost is
/// a few bytes per gossip tick).
///
/// Frames whose payload exceeds [`MAX_FRAME_PAYLOAD`] are still encoded
/// (the caller owns the policy), but every receiver will reject them as
/// [`WireError::Oversize`] and drop the connection — senders must check
/// [`EncodedFrame::exceeds_limit`] and drop such messages instead of
/// transmitting them (the TCP mesh does, counting them as full-queue
/// drops).
pub fn encode_frame(
    env: &Envelope,
    from_incarnation: u32,
    to_incarnation: u32,
    book: &[(u32, SocketAddr, u32)],
) -> EncodedFrame {
    encode_with(
        29 + env.msg.wire_size(),
        Some(env.msg.wire_size()),
        |payload| {
            payload.push(PAYLOAD_PROTOCOL);
            env.from.ser(payload);
            from_incarnation.ser(payload);
            to_incarnation.ser(payload);
            env.job.ser(payload);
            env.msg.ser(payload);
            let book: Vec<(u32, String, u32)> = book
                .iter()
                .map(|&(id, a, inc)| (id, a.to_string(), inc))
                .collect();
            book.ser(payload);
        },
    )
}

/// Encode a problem-announce frame, stamped with the job it opens
/// ([`JobId::DEFAULT`] on the single-run path). The announce is a
/// handshake, not protocol traffic, so its `wire_size` accounting is
/// simply the payload length (there is no protocol-level estimate to
/// compare against).
pub fn encode_announce(
    from: u32,
    incarnation: u32,
    job: JobId,
    instance: &AnyInstance,
) -> EncodedFrame {
    encode_with(64, None, |payload| {
        payload.push(PAYLOAD_ANNOUNCE);
        from.ser(payload);
        incarnation.ser(payload);
        job.ser(payload);
        instance.ser(payload);
    })
}

/// Encode a job-submission frame (client → gateway). A handshake:
/// `wire_size` is the payload length.
pub fn encode_submit(job: JobId, instance: &AnyInstance) -> EncodedFrame {
    encode_with(64, None, |payload| {
        payload.push(PAYLOAD_SUBMIT);
        job.ser(payload);
        instance.ser(payload);
    })
}

/// Encode a job-admission acknowledgement (gateway → client).
pub fn encode_accepted(job: JobId, node: u32) -> EncodedFrame {
    encode_with(16, None, |payload| {
        payload.push(PAYLOAD_ACCEPTED);
        job.ser(payload);
        node.ser(payload);
    })
}

/// Encode a job-result frame (gateway → client): a streamed incumbent
/// (`finished: false`) or the final optimum (`finished: true`).
pub fn encode_result(job: JobId, finished: bool, incumbent: f64, expanded: u64) -> EncodedFrame {
    encode_with(32, None, |payload| {
        payload.push(PAYLOAD_RESULT);
        job.ser(payload);
        (finished as u8).ser(payload);
        incumbent.ser(payload);
        expanded.ser(payload);
    })
}

/// Encode a join frame (a handshake: `wire_size` is the payload length).
pub fn encode_join(join: &JoinFrame) -> EncodedFrame {
    encode_with(32, None, |payload| {
        payload.push(PAYLOAD_JOIN);
        join.from.ser(payload);
        join.incarnation.ser(payload);
        join.addr.to_string().ser(payload);
    })
}

/// Encode one frame: header and payload go down in **one** buffer (no
/// separate payload vector, no header-prepend copy), allocated per frame
/// at `size_hint`; the length and checksum fields are patched in place
/// once the payload is down, and the buffer itself becomes the refcounted
/// frame. `fill` writes the payload (kind byte first); `wire_size` is the
/// protocol-size estimate, defaulting to the payload length (the
/// handshake convention).
fn encode_with(
    size_hint: usize,
    wire_size: Option<usize>,
    fill: impl FnOnce(&mut Vec<u8>),
) -> EncodedFrame {
    let mut buf = Vec::with_capacity(HEADER_LEN + size_hint);
    MAGIC.ser(&mut buf);
    VERSION.ser(&mut buf);
    0u32.ser(&mut buf); // pay_len, patched below
    0u32.ser(&mut buf); // checksum, patched below
    fill(&mut buf);
    let pay_len = buf.len() - HEADER_LEN;
    let sum = checksum(&buf[HEADER_LEN..]);
    buf[6..10].copy_from_slice(&(pay_len as u32).to_le_bytes());
    buf[10..14].copy_from_slice(&sum.to_le_bytes());
    EncodedFrame {
        bytes: Arc::new(buf),
        wire_size: wire_size.unwrap_or(pay_len),
    }
}

/// Wrap a finished payload in the frame header (for tests that
/// hand-build payloads).
#[cfg(test)]
fn frame_bytes(payload: Vec<u8>, wire_size: usize) -> EncodedFrame {
    let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
    MAGIC.ser(&mut bytes);
    VERSION.ser(&mut bytes);
    (payload.len() as u32).ser(&mut bytes);
    checksum(&payload).ser(&mut bytes);
    bytes.extend_from_slice(&payload);
    EncodedFrame {
        bytes: bytes.into(),
        wire_size,
    }
}

/// Decode one complete frame from `data` (exactly one frame's bytes).
/// Mostly useful in tests; streams use [`FrameDecoder`].
pub fn decode_frame(data: &[u8]) -> Result<WireFrame, WireError> {
    let mut dec = FrameDecoder::new();
    dec.push(data);
    match dec.try_next()? {
        Some(frame) if dec.buffered() == 0 => Ok(frame),
        Some(_) => Err(WireError::Payload("trailing bytes after frame".into())),
        None => Err(WireError::Payload("incomplete frame".into())),
    }
}

/// Incremental frame decoder: feed arbitrary byte chunks (as delivered by
/// the socket — frames may arrive split or coalesced), pull decoded
/// frames. Payloads are decoded by **borrowing** the buffered bytes in
/// place; a consumed-prefix cursor steps past each decoded frame and
/// compaction is deferred, so steady-state decoding does no per-frame
/// copying beyond the socket read itself.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; the undecoded bytes are `buf[start..]`.
    start: usize,
    /// Frames decoded so far (for accounting/tests).
    pub frames_decoded: u64,
    /// Payload + header bytes consumed by successful decodes.
    pub bytes_decoded: u64,
}

impl FrameDecoder {
    /// Fresh decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed received bytes.
    pub fn push(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Bytes buffered but not yet decoded.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Step past `n` decoded bytes. The dead prefix is reclaimed at once
    /// when nothing live remains, and otherwise only when it outweighs
    /// the live remainder, so the memmove is amortized O(1) per byte.
    fn consume(&mut self, n: usize) {
        self.start += n;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 64 * 1024 && self.start > self.buf.len() - self.start {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    /// Try to decode the next frame. `Ok(None)` means "need more bytes".
    /// After an error the stream is desynchronized; the caller should
    /// drop the connection (this matches the Crash model — a corrupt peer
    /// is indistinguishable from a dead one).
    pub fn try_next(&mut self) -> Result<Option<WireFrame>, WireError> {
        let avail = &self.buf[self.start..];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        let magic = u32::from_le_bytes(avail[0..4].try_into().expect("sized"));
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = u16::from_le_bytes(avail[4..6].try_into().expect("sized"));
        if version != VERSION {
            // Pre-v5 peers (and future versions alike) surface as a typed
            // error carrying the offending version — never a panic, never
            // a misparse of old-layout bytes as current-version fields.
            return Err(WireError::UnsupportedVersion(version));
        }
        let pay_len = u32::from_le_bytes(avail[6..10].try_into().expect("sized")) as usize;
        if pay_len > MAX_FRAME_PAYLOAD {
            return Err(WireError::Oversize(pay_len));
        }
        let expected = u32::from_le_bytes(avail[10..14].try_into().expect("sized"));
        if avail.len() < HEADER_LEN + pay_len {
            return Ok(None);
        }
        let payload = &avail[HEADER_LEN..HEADER_LEN + pay_len];
        let actual = checksum(payload);
        if actual != expected {
            return Err(WireError::Checksum { expected, actual });
        }
        let mut r = payload;
        let bad = |e: serde::DecodeError| WireError::Payload(e.to_string());
        let kind = serde::read_u8(&mut r).map_err(bad)?;
        let frame = match kind {
            PAYLOAD_PROTOCOL => {
                let from = u32::de(&mut r).map_err(bad)?;
                let from_incarnation = u32::de(&mut r).map_err(bad)?;
                let to_incarnation = u32::de(&mut r).map_err(bad)?;
                let job = JobId::de(&mut r).map_err(bad)?;
                let msg = Msg::de(&mut r).map_err(bad)?;
                let raw_book = Vec::<(u32, String, u32)>::de(&mut r).map_err(bad)?;
                let mut book = Vec::with_capacity(raw_book.len());
                for (id, addr, inc) in raw_book {
                    let addr: SocketAddr = addr
                        .parse()
                        .map_err(|_| WireError::Payload(format!("bad book address `{addr}`")))?;
                    book.push((id, addr, inc));
                }
                WireFrame::Protocol {
                    env: Envelope { job, from, msg },
                    from_incarnation,
                    to_incarnation,
                    book,
                }
            }
            PAYLOAD_ANNOUNCE => {
                let from = u32::de(&mut r).map_err(bad)?;
                let incarnation = u32::de(&mut r).map_err(bad)?;
                let job = JobId::de(&mut r).map_err(bad)?;
                let instance = AnyInstance::de(&mut r).map_err(bad)?;
                // The serde derive decodes structure, not invariants; an
                // instance off the network must also be *valid* before
                // the expander is allowed to trust it.
                instance
                    .validate()
                    .map_err(|e| WireError::Payload(format!("invalid announced instance: {e}")))?;
                WireFrame::Announce {
                    from,
                    incarnation,
                    job,
                    instance,
                }
            }
            PAYLOAD_JOIN => {
                let from = u32::de(&mut r).map_err(bad)?;
                let incarnation = u32::de(&mut r).map_err(bad)?;
                let addr = String::de(&mut r).map_err(bad)?;
                let addr: SocketAddr = addr
                    .parse()
                    .map_err(|_| WireError::Payload(format!("bad join address `{addr}`")))?;
                WireFrame::Join(JoinFrame {
                    from,
                    incarnation,
                    addr,
                })
            }
            PAYLOAD_SUBMIT => {
                let job = JobId::de(&mut r).map_err(bad)?;
                let instance = AnyInstance::de(&mut r).map_err(bad)?;
                instance
                    .validate()
                    .map_err(|e| WireError::Payload(format!("invalid submitted instance: {e}")))?;
                WireFrame::SubmitJob { job, instance }
            }
            PAYLOAD_ACCEPTED => {
                let job = JobId::de(&mut r).map_err(bad)?;
                let node = u32::de(&mut r).map_err(bad)?;
                WireFrame::JobAccepted { job, node }
            }
            PAYLOAD_RESULT => {
                let job = JobId::de(&mut r).map_err(bad)?;
                let finished = match serde::read_u8(&mut r).map_err(bad)? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(WireError::Payload(format!(
                            "bad finished flag byte {other}"
                        )));
                    }
                };
                let incumbent = f64::de(&mut r).map_err(bad)?;
                let expanded = u64::de(&mut r).map_err(bad)?;
                WireFrame::JobResult {
                    job,
                    finished,
                    incumbent,
                    expanded,
                }
            }
            other => {
                return Err(WireError::Payload(format!(
                    "unknown payload kind byte {other}"
                )));
            }
        };
        if !r.is_empty() {
            return Err(WireError::Payload(format!(
                "{} trailing payload bytes",
                r.len()
            )));
        }
        self.consume(HEADER_LEN + pay_len);
        self.frames_decoded += 1;
        self.bytes_decoded += (HEADER_LEN + pay_len) as u64;
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A MAX-SAT instance with an empty clause, decoded from the raw
    /// `(num_vars, clauses)` shape: `MaxSatInstance::new` refuses it, the
    /// serde derive does not.
    fn empty_clause_instance() -> ftbb_bnb::MaxSatInstance {
        let mut clauses = ftbb_bnb::MaxSatInstance::generate(4, 8, 1)
            .clauses()
            .to_vec();
        clauses[0].literals.clear();
        serde::decode(&serde::encode(&(4u16, clauses))).expect("raw MAX-SAT shape decodes")
    }

    fn sample() -> Envelope {
        Envelope {
            job: JobId(77),
            from: 3,
            msg: Msg::WorkRequest { incumbent: 42.5 },
        }
    }

    #[test]
    fn frame_round_trip() {
        let frame = encode_frame(&sample(), 2, 5, &[]);
        assert_eq!(frame.wire_size, 9);
        assert_eq!(frame.encoded_len(), frame.bytes.len());
        match decode_frame(&frame.bytes).unwrap() {
            WireFrame::Protocol {
                env,
                from_incarnation,
                to_incarnation,
                book,
            } => {
                assert_eq!(env.from, 3);
                assert_eq!(env.job, JobId(77), "the job stamp survives the wire");
                assert_eq!(env.msg, sample().msg);
                assert_eq!(from_incarnation, 2);
                assert_eq!(to_incarnation, 5);
                assert!(book.is_empty());
            }
            other => panic!("expected protocol frame, got {other:?}"),
        }
    }

    #[test]
    fn address_book_rides_protocol_frames() {
        let book: Vec<(u32, SocketAddr, u32)> = vec![
            (4, "127.0.0.1:4504".parse().unwrap(), 0),
            (9, "10.0.0.9:45109".parse().unwrap(), 3),
        ];
        let frame = encode_frame(&sample(), 0, 0, &book);
        match decode_frame(&frame.bytes).unwrap() {
            WireFrame::Protocol { book: got, env, .. } => {
                assert_eq!(got, book);
                assert_eq!(env.msg, sample().msg);
            }
            other => panic!("expected protocol frame, got {other:?}"),
        }
        // The book rides outside the protocol-size accounting (it is
        // transport bookkeeping, not §5 traffic) but inside the encoded
        // bytes.
        assert_eq!(frame.wire_size, sample().msg.wire_size());
        assert!(frame.encoded_len() > encode_frame(&sample(), 0, 0, &[]).encoded_len());
    }

    #[test]
    fn book_with_bad_address_is_rejected() {
        let mut payload = vec![PAYLOAD_PROTOCOL];
        3u32.ser(&mut payload);
        0u32.ser(&mut payload);
        0u32.ser(&mut payload);
        JobId::DEFAULT.ser(&mut payload);
        sample().msg.ser(&mut payload);
        vec![(7u32, "not-an-addr".to_string(), 0u32)].ser(&mut payload);
        let frame = frame_bytes(payload, 9);
        match decode_frame(&frame.bytes) {
            Err(WireError::Payload(e)) => assert!(e.contains("book address"), "{e}"),
            other => panic!("expected payload error, got {other:?}"),
        }
    }

    #[test]
    fn join_frame_round_trip() {
        let join = JoinFrame {
            from: 6,
            incarnation: 0,
            addr: "127.0.0.1:45106".parse().unwrap(),
        };
        let frame = encode_join(&join);
        match decode_frame(&frame.bytes).unwrap() {
            WireFrame::Join(got) => assert_eq!(got, join),
            other => panic!("expected join, got {other:?}"),
        }
        // A join is a handshake, not protocol traffic.
        assert_eq!(decode_frame(&frame.bytes).unwrap().into_envelope(), None);
    }

    #[test]
    fn rejoin_frame_round_trip() {
        // A node resumed from a checkpoint introduces itself with the
        // join frame, at its new incarnation.
        let rejoin = JoinFrame {
            from: 2,
            incarnation: 3,
            addr: "127.0.0.1:45107".parse().unwrap(),
        };
        match decode_frame(&encode_join(&rejoin).bytes).unwrap() {
            WireFrame::Join(got) => assert_eq!(got, rejoin),
            other => panic!("expected join, got {other:?}"),
        }
    }

    #[test]
    fn announce_frame_round_trip() {
        let instance = ftbb_bnb::AnyInstance::from(ftbb_bnb::MaxSatInstance::generate(6, 12, 3));
        let frame = encode_announce(7, 4, JobId(13), &instance);
        assert!(!frame.exceeds_limit());
        match decode_frame(&frame.bytes).unwrap() {
            WireFrame::Announce {
                from,
                incarnation,
                job,
                instance: got,
            } => {
                assert_eq!(from, 7);
                assert_eq!(incarnation, 4);
                assert_eq!(job, JobId(13), "the announce opens a specific job");
                assert_eq!(got, instance);
            }
            other => panic!("expected announce, got {other:?}"),
        }
    }

    #[test]
    fn submit_frame_round_trip() {
        let instance = ftbb_bnb::AnyInstance::from(ftbb_bnb::MaxSatInstance::generate(5, 10, 2));
        let frame = encode_submit(JobId(42), &instance);
        match decode_frame(&frame.bytes).unwrap() {
            WireFrame::SubmitJob { job, instance: got } => {
                assert_eq!(job, JobId(42));
                assert_eq!(got, instance);
            }
            other => panic!("expected submit, got {other:?}"),
        }
        assert_eq!(decode_frame(&frame.bytes).unwrap().into_envelope(), None);
    }

    #[test]
    fn submit_of_invalid_instance_is_rejected_on_decode() {
        let m = empty_clause_instance();
        let frame = encode_submit(JobId(1), &ftbb_bnb::AnyInstance::MaxSat(m));
        match decode_frame(&frame.bytes) {
            Err(WireError::Payload(e)) => assert!(e.contains("invalid submitted instance"), "{e}"),
            other => panic!("expected payload error, got {other:?}"),
        }
    }

    #[test]
    fn submit_of_knapsack_out_of_density_order_is_rejected_on_decode() {
        // The fields are public, so a client can skip `new`'s sort; on
        // unsorted items the fractional tail is no bound.
        let item = |weight, profit| ftbb_bnb::Item { weight, profit };
        let k = ftbb_bnb::KnapsackInstance {
            capacity: 6,
            items: vec![item(4, 4), item(3, 9), item(2, 8)],
            cost_per_item: 1e-5,
        };
        let frame = encode_submit(JobId(1), &ftbb_bnb::AnyInstance::Knapsack(k));
        match decode_frame(&frame.bytes) {
            Err(WireError::Payload(e)) => {
                assert!(e.contains("invalid submitted instance"), "{e}");
                assert!(e.contains("profit density"), "{e}");
            }
            other => panic!("expected payload error, got {other:?}"),
        }
    }

    #[test]
    fn accepted_frame_round_trip() {
        let frame = encode_accepted(JobId(42), 0);
        match decode_frame(&frame.bytes).unwrap() {
            WireFrame::JobAccepted { job, node } => {
                assert_eq!(job, JobId(42));
                assert_eq!(node, 0);
            }
            other => panic!("expected accepted, got {other:?}"),
        }
    }

    #[test]
    fn result_frame_round_trip() {
        for (finished, incumbent, expanded) in [
            (false, -17.25, 120u64),
            (true, -31.0, 4096),
            (false, f64::INFINITY, 0),
        ] {
            let frame = encode_result(JobId(9), finished, incumbent, expanded);
            match decode_frame(&frame.bytes).unwrap() {
                WireFrame::JobResult {
                    job,
                    finished: f,
                    incumbent: i,
                    expanded: e,
                } => {
                    assert_eq!(job, JobId(9));
                    assert_eq!(f, finished);
                    assert_eq!(i.to_bits(), incumbent.to_bits());
                    assert_eq!(e, expanded);
                }
                other => panic!("expected result, got {other:?}"),
            }
        }
    }

    #[test]
    fn result_with_bad_finished_flag_is_rejected() {
        let mut payload = vec![PAYLOAD_RESULT];
        JobId(1).ser(&mut payload);
        payload.push(7); // not a bool
        0.0f64.ser(&mut payload);
        0u64.ser(&mut payload);
        let wire = payload.len();
        let frame = frame_bytes(payload, wire);
        match decode_frame(&frame.bytes) {
            Err(WireError::Payload(e)) => assert!(e.contains("finished flag"), "{e}"),
            other => panic!("expected payload error, got {other:?}"),
        }
    }

    #[test]
    fn rejoin_with_bad_address_is_rejected() {
        // A resumed node's join frame, re-encoded by hand with a garbage
        // address string.
        let mut payload = vec![PAYLOAD_JOIN];
        2u32.ser(&mut payload);
        1u32.ser(&mut payload);
        "not-an-addr".to_string().ser(&mut payload);
        let wire = payload.len();
        let frame = frame_bytes(payload, wire);
        match decode_frame(&frame.bytes) {
            Err(WireError::Payload(e)) => assert!(e.contains("join address"), "{e}"),
            other => panic!("expected payload error, got {other:?}"),
        }
    }

    #[test]
    fn announce_of_invalid_instance_is_rejected_on_decode() {
        // Corrupt instance (empty clause) hand-encoded past the
        // constructor's asserts: the decoder must refuse it.
        let m = empty_clause_instance();
        let frame = encode_announce(0, 0, JobId::DEFAULT, &ftbb_bnb::AnyInstance::MaxSat(m));
        match decode_frame(&frame.bytes) {
            Err(WireError::Payload(e)) => assert!(e.contains("invalid announced instance"), "{e}"),
            other => panic!("expected payload error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_payload_kind_is_rejected() {
        // 2 is the retired rejoin frame's kind byte.
        for kind in [2, 0x7F] {
            let frame = frame_bytes(vec![kind, 0, 0, 0, 0], 5);
            match decode_frame(&frame.bytes) {
                Err(WireError::Payload(e)) => assert!(e.contains("payload kind"), "{e}"),
                other => panic!("expected payload error, got {other:?}"),
            }
        }
    }

    #[test]
    fn split_reads_reassemble() {
        let frame = encode_frame(&sample(), 0, 0, &[]);
        let mut dec = FrameDecoder::new();
        for chunk in frame.bytes.chunks(3) {
            dec.push(chunk);
        }
        let env = dec.try_next().unwrap().unwrap().into_envelope().unwrap();
        assert_eq!(env.msg, sample().msg);
        assert_eq!(dec.try_next().unwrap(), None);
    }

    #[test]
    fn coalesced_frames_split_apart() {
        let mut stream = Vec::new();
        for i in 0..5u32 {
            stream.extend_from_slice(
                &encode_frame(
                    &Envelope {
                        job: JobId(i as u64),
                        from: i,
                        msg: Msg::WorkDeny {
                            incumbent: i as f64,
                        },
                    },
                    0,
                    0,
                    &[],
                )
                .bytes,
            );
        }
        let mut dec = FrameDecoder::new();
        dec.push(&stream);
        for i in 0..5u32 {
            let env = dec.try_next().unwrap().unwrap().into_envelope().unwrap();
            assert_eq!(env.from, i);
        }
        assert_eq!(dec.try_next().unwrap(), None);
        assert_eq!(dec.frames_decoded, 5);
        assert_eq!(dec.bytes_decoded as usize, stream.len());
    }

    #[test]
    fn a_long_coalesced_stream_decodes_across_compaction() {
        // One push far larger than the 64 KiB compaction threshold: the
        // cursor walks it frame by frame, the dead prefix is reclaimed
        // once it outweighs what is left, and nothing is lost around it.
        let frame = encode_frame(&sample(), 0, 0, &[]).bytes;
        let count = 4 * 64 * 1024 / frame.len();
        let stream = frame.repeat(count);
        let mut dec = FrameDecoder::new();
        dec.push(&stream);
        let mut compacted = false;
        for left in (0..count).rev() {
            let env = dec.try_next().unwrap().unwrap().into_envelope().unwrap();
            assert_eq!(env.msg, sample().msg);
            assert_eq!(dec.buffered(), left * frame.len());
            compacted |= dec.start == 0 && left > 0;
        }
        assert!(compacted, "the consumed prefix was never reclaimed");
        assert_eq!(dec.try_next().unwrap(), None);
        assert!(dec.buf.is_empty() && dec.start == 0);
    }

    #[test]
    fn corruption_is_an_error_not_a_panic() {
        let frame = encode_frame(&sample(), 1, 2, &[]).bytes.to_vec();
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0xA5;
            let mut dec = FrameDecoder::new();
            dec.push(&bad);
            match dec.try_next() {
                Err(_) => {}
                // A flip inside the length field can make the frame claim
                // more payload than provided: legitimately "need more".
                Ok(None) => assert!((6..10).contains(&i), "byte {i} silently pended"),
                Ok(Some(WireFrame::Protocol {
                    env,
                    from_incarnation,
                    to_incarnation,
                    ..
                })) => {
                    // Incarnation tags are outside the checksum-protected
                    // message, but inside the checksummed payload — a flip
                    // there must have been caught. If the frame decoded,
                    // everything must be intact (i.e. unreachable).
                    assert!(
                        env == sample() && from_incarnation == 1 && to_incarnation == 2,
                        "corrupt byte {i} decoded to different data"
                    );
                    panic!("corrupt byte {i} decoded successfully");
                }
                Ok(Some(_)) => panic!("corrupt byte {i} decoded successfully"),
            }
        }
    }

    #[test]
    fn oversize_rejected_without_allocation() {
        let mut bytes = Vec::new();
        MAGIC.ser(&mut bytes);
        VERSION.ser(&mut bytes);
        (u32::MAX).ser(&mut bytes);
        0u32.ser(&mut bytes);
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        assert!(matches!(dec.try_next(), Err(WireError::Oversize(_))));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut frame = encode_frame(&sample(), 0, 0, &[]).bytes.to_vec();
        frame[4] = 0xFE;
        frame[5] = 0xFF;
        let mut dec = FrameDecoder::new();
        dec.push(&frame);
        assert!(matches!(
            dec.try_next(),
            Err(WireError::UnsupportedVersion(0xFFFE))
        ));
    }

    #[test]
    fn every_prior_version_is_a_typed_error() {
        // A current frame rebadged with each historical version number:
        // the decoder must refuse it as UnsupportedVersion carrying that
        // exact version — never misparse an old layout as current fields.
        for v in 1u16..VERSION {
            let mut frame = encode_frame(&sample(), 0, 0, &[]).bytes.to_vec();
            frame[4..6].copy_from_slice(&v.to_le_bytes());
            let mut dec = FrameDecoder::new();
            dec.push(&frame);
            assert_eq!(
                dec.try_next(),
                Err(WireError::UnsupportedVersion(v)),
                "version {v}"
            );
        }
    }

    #[test]
    fn garbage_prefix_rejected() {
        let mut dec = FrameDecoder::new();
        dec.push(b"GET / HTTP/1.1\r\n\r\n");
        assert!(matches!(dec.try_next(), Err(WireError::BadMagic(_))));
    }
}
