//! Message transports: the [`Transport`] abstraction and the virtual
//! network of the in-process cluster driver.
//!
//! A transport delivers [`Envelope`]s between numbered endpoints under the
//! paper's Crash failure model: sends to dead or unknown destinations are
//! *silently dropped* (the protocol tolerates lost messages by design),
//! but never silently *un*counted — every attempt lands in the transport's
//! [`TransportCounters`]. The same pump ([`crate::ServiceEngine`]) drives
//! the protocol over any transport: the virtual network here, under
//! [`crate::run_cluster`], or `ftbb-wire`'s TCP mesh across real OS
//! processes.
//!
//! A node's inbox carries [`Inbound`] items: the frames its transport
//! delivers, the closes of peer connections it sees, and the jobs a
//! deployment admits into the running pump. The pump blocks on that one
//! channel when it is idle, so any of them wakes it.

use crate::service::JobEngine;
use ftbb_core::{JobId, Msg};
use ftbb_des::SimTime;
use ftbb_net::LatencyModel;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// A routed protocol message.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Which job the message belongs to ([`JobId::DEFAULT`] for a single
    /// run). The engine routes inbound traffic to the matching per-job
    /// engine by this stamp.
    pub job: JobId,
    /// Sender node id.
    pub from: u32,
    /// The message.
    pub msg: Msg,
}

/// One item on a node's inbox.
pub enum Inbound {
    /// A protocol message from a peer (or from the node itself).
    Frame(Envelope),
    /// A job to admit, start and snapshot on the running pump (a service
    /// node's submissions and peer announces).
    Admit(Box<JobEngine>),
    /// The connection from this peer closed (`ftbb-wire`'s reader saw EOF
    /// or a read error after admitting the peer's frames; the in-process
    /// cluster's driver when the peer crashes or exits). The pump hands
    /// every live job [`ftbb_core::Event::PeerClosed`].
    PeerClosed(u32),
}

/// Anything that can carry protocol messages between nodes.
///
/// Implementations must be cheap to share across threads (`&self` send)
/// and must follow Crash-model semantics: a send may vanish without an
/// error, but must then be visible in [`Transport::counters`].
pub trait Transport: Send + Sync {
    /// Send `msg` from node `from` to node `to`, scoped to `job`
    /// ([`JobId::DEFAULT`] for single-run deployments). Never blocks on a
    /// dead destination; undeliverable messages are dropped and counted.
    fn send(&self, job: JobId, from: u32, to: u32, msg: Msg);

    /// Readiness barrier: block (up to `timeout`) until the transport can
    /// carry traffic to every endpoint, returning whether it is fully
    /// ready. Harnesses call this *before* injecting `PEvent::Start`, so
    /// the protocol never opens fire on a half-formed mesh. The default
    /// is a no-op returning `true` — in-process transports are born
    /// ready; `ftbb-wire`'s TCP mesh overrides it to pre-establish its
    /// peer connections.
    fn ready(&self, timeout: Duration) -> bool {
        let _ = timeout;
        true
    }

    /// Number of endpoints this transport routes to.
    fn endpoints(&self) -> usize;

    /// The transport's shared counters.
    fn counters(&self) -> &TransportCounters;

    /// Convenience snapshot of [`Transport::counters`].
    fn stats(&self) -> TransportStats {
        self.counters().snapshot()
    }
}

/// Declares the transport counters once — field, doc, and the key the
/// counter carries on `FTBB-*` stdout lines — and derives both structs
/// ([`TransportCounters`], the shared atomics a transport bumps, and
/// [`TransportStats`], their plain-value snapshot), the snapshot itself,
/// and the keyed view line codecs render and parse. Declaration order is
/// the `FTBB-OUTCOME` line's field order. The counters after the `;`
/// have no key: they are in both structs but outside the key group, and
/// a line that carries one gives it a row of its own, so lines written
/// before it existed still parse.
macro_rules! transport_counters {
    (
        $( $(#[$fmeta:meta])* $field:ident = $key:literal ),* ;
        $( $(#[$umeta:meta])* $ufield:ident ),* $(,)?
    ) => {
        /// Shared counters maintained by a transport implementation
        /// (`ftbb-runtime`'s virtual network, `ftbb-wire`'s TCP mesh).
        ///
        /// The paper's Crash failure model makes "the send was silently
        /// dropped" a *correct* behaviour, which historically meant
        /// transports swallowed `Full`/`Disconnected` without a trace.
        /// These counters keep the silence observable: every send attempt
        /// lands in exactly one bucket.
        #[derive(Debug, Default)]
        pub struct TransportCounters {
            $( $(#[$fmeta])* pub $field: AtomicU64, )*
            $( $(#[$umeta])* pub $ufield: AtomicU64, )*
        }

        /// Point-in-time values of [`TransportCounters`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct TransportStats {
            $( $(#[$fmeta])* pub $field: u64, )*
            $( $(#[$umeta])* pub $ufield: u64, )*
        }

        impl TransportCounters {
            /// A plain-value snapshot for reporting/serialization.
            pub fn snapshot(&self) -> TransportStats {
                TransportStats {
                    $( $field: self.$field.load(Ordering::Relaxed), )*
                    $( $ufield: self.$ufield.load(Ordering::Relaxed), )*
                }
            }
        }

        impl TransportStats {
            /// The line key of every counter, in declaration order.
            pub const KEYS: &'static [&'static str] = &[$( $key, )*];

            /// Every counter with its line key, in [`Self::KEYS`] order.
            pub fn keyed(&self) -> [(&'static str, u64); Self::KEYS.len()] {
                [$( ($key, self.$field), )*]
            }

            /// Rebuild from a per-key lookup (the parse side of
            /// [`Self::keyed`]); `None` as soon as one key is missing. The
            /// unkeyed counters are 0.
            pub fn from_keyed(mut get: impl FnMut(&'static str) -> Option<u64>) -> Option<Self> {
                Some(TransportStats {
                    $( $field: get($key)?, )*
                    $( $ufield: 0, )*
                })
            }
        }
    };
}

transport_counters! {
    /// Messages handed to the wire (or the virtual network) successfully.
    sent = "sent",
    /// Estimated protocol bytes of successful sends (`Msg::wire_size`).
    sent_wire_bytes = "wire_bytes",
    /// Actual encoded bytes of successful sends, frame headers included
    /// (equals `sent_wire_bytes` for the virtual network, which ships no
    /// frames).
    sent_encoded_bytes = "encoded_bytes",
    /// Sends dropped because the destination queue was full.
    dropped_full = "dropped_full",
    /// Sends dropped because the destination is disconnected/dead.
    dropped_disconnected = "dropped_disconnected",
    /// Sends dropped because no route to the destination id exists.
    dropped_no_route = "dropped_no_route",
    /// Always 0: the TCP mesh has no startup retry window, so a send to a
    /// never-connected peer is a `dropped_disconnected`. The key stays
    /// because `benchmark/` parses it; retire it with the next change to
    /// the benchmark.
    dropped_startup = "dropped_startup",
    /// Inbound frames dropped because they belonged to a stale
    /// incarnation — addressed to this node's previous life, or sent by a
    /// peer's previous life. A *receive*-side drop, so it is excluded from
    /// [`TransportStats::dropped`] (which sums send-side drops).
    dropped_stale = "dropped_stale",
    /// Always 0: no frame is ever held back for a retry. The key stays
    /// because `benchmark/` reads `transport.retried` by name; retire it
    /// with the next change to the benchmark.
    retried = "retried",
    /// Failed dial attempts that were waited out and retried during the
    /// pre-establishment barrier.
    connect_waits = "connect_waits",
    /// Connections re-established after a drop (TCP transports only).
    reconnects = "reconnects",
    /// Problem-announce frames handed to the transport (root side of the
    /// `--problem wire` handshake); one per peer per announce.
    announces_sent = "announces_sent",
    /// Problem-announce frames received and routed to the announce
    /// channel.
    announces_recv = "announces_recv",
    /// Join frames received from a peer's later life: it came back under
    /// a new incarnation and was (re)registered.
    rejoins = "rejoins",
    /// Join frames received at incarnation 0: a brand-new node introduced
    /// itself through this node (gossip-server side of the elastic-join
    /// handshake) and was registered.
    joins = "joins",
    /// Previously-unknown peers learned from the id→addr book piggybacked
    /// on membership frames (codec v4) and registered dynamically.
    peers_discovered = "discovered",
    /// Socket flushes: `write` calls that put one *or more* coalesced
    /// frames on the wire (TCP transports only). `frames_flushed /
    /// flushes` is the batching factor — 1.0 means every frame paid its
    /// own syscall.
    flushes = "flushes",
    /// Frames carried by those flushes (equals `sent` when every written
    /// frame was also counted sent).
    frames_flushed = "frames_flushed",
    /// Membership frames handed to the wire — the denominator for the
    /// per-frame book/digest entry ratios the scale regression asserts.
    membership_frames_sent = "membership_frames",
    /// Address-book entries piggybacked on those membership frames
    /// (codec v4 id→addr book, after the per-frame cap,
    /// `ftbb_wire::tcp::BOOK_MAX_ENTRIES`).
    book_entries_sent = "book_entries",
    /// View-digest entries carried inside those membership frames (after
    /// delta suppression and the digest cap).
    digest_entries_sent = "digest_entries",
    /// Explicit bound-announce frames handed to the wire.
    bound_broadcasts = "bound_frames";
    /// Control frames (announce, submit, join) lost because the
    /// bounded control queue was full or its consumer gone (TCP
    /// transports only). A receive-side loss, excluded from
    /// [`TransportStats::dropped`].
    control_shed,
}

impl TransportCounters {
    /// Record a successful send of a message whose protocol size is
    /// `wire_bytes` and whose on-the-wire encoding is `encoded_bytes`.
    pub fn record_send(&self, wire_bytes: usize, encoded_bytes: usize) {
        self.sent.fetch_add(1, Ordering::Relaxed);
        self.sent_wire_bytes
            .fetch_add(wire_bytes as u64, Ordering::Relaxed);
        self.sent_encoded_bytes
            .fetch_add(encoded_bytes as u64, Ordering::Relaxed);
    }

    /// Record a send dropped on a full destination queue.
    pub fn record_dropped_full(&self) {
        self.dropped_full.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a send dropped on a dead/disconnected destination.
    pub fn record_dropped_disconnected(&self) {
        self.dropped_disconnected.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a send dropped because the destination id is unknown.
    pub fn record_dropped_no_route(&self) {
        self.dropped_no_route.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a failed dial attempt that will be waited out and retried.
    pub fn record_connect_wait(&self) {
        self.connect_waits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a connection re-established after a failure.
    pub fn record_reconnect(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one announce frame handed to the transport.
    pub fn record_announce_sent(&self) {
        self.announces_sent.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one announce frame received.
    pub fn record_announce_recv(&self) {
        self.announces_recv.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one join frame received from a peer's later life.
    pub fn record_rejoin(&self) {
        self.rejoins.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one join frame received at incarnation 0.
    pub fn record_join(&self) {
        self.joins.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one peer learned from a piggybacked address book.
    pub fn record_peer_discovered(&self) {
        self.peers_discovered.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one socket flush that carried `frames` coalesced frames.
    pub fn record_flush(&self, frames: u64) {
        self.flushes.fetch_add(1, Ordering::Relaxed);
        self.frames_flushed.fetch_add(frames, Ordering::Relaxed);
    }

    /// Record an inbound frame dropped as belonging to a stale incarnation.
    pub fn record_dropped_stale(&self) {
        self.dropped_stale.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one membership frame carrying `book_entries` piggybacked
    /// address-book entries and `digest_entries` view-digest entries.
    pub fn record_membership_frame(&self, book_entries: u64, digest_entries: u64) {
        self.membership_frames_sent.fetch_add(1, Ordering::Relaxed);
        self.book_entries_sent
            .fetch_add(book_entries, Ordering::Relaxed);
        self.digest_entries_sent
            .fetch_add(digest_entries, Ordering::Relaxed);
    }

    /// Record one explicit bound-announce frame handed to the wire.
    pub fn record_bound_broadcast(&self) {
        self.bound_broadcasts.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one control frame lost before its consumer took it.
    pub fn record_control_shed(&self) {
        self.control_shed.fetch_add(1, Ordering::Relaxed);
    }
}

impl TransportStats {
    /// Total send attempts, delivered or not.
    pub fn attempts(&self) -> u64 {
        self.sent + self.dropped()
    }

    /// Total dropped sends across all causes.
    pub fn dropped(&self) -> u64 {
        self.dropped_full + self.dropped_disconnected + self.dropped_no_route + self.dropped_startup
    }

    /// Average frames per socket flush — the write-batching factor
    /// (0 when nothing was flushed; 1.0 means one syscall per frame).
    pub fn frames_per_flush(&self) -> f64 {
        if self.flushes == 0 {
            0.0
        } else {
            self.frames_flushed as f64 / self.flushes as f64
        }
    }

    /// Average piggybacked address-book entries per membership frame —
    /// the number the book cap must hold below the roster size (0 when no
    /// membership frames were sent).
    pub fn book_entries_per_frame(&self) -> f64 {
        if self.membership_frames_sent == 0 {
            0.0
        } else {
            self.book_entries_sent as f64 / self.membership_frames_sent as f64
        }
    }

    /// Average view-digest entries per membership frame (0 when none).
    pub fn digest_entries_per_frame(&self) -> f64 {
        if self.membership_frames_sent == 0 {
            0.0
        } else {
            self.digest_entries_sent as f64 / self.membership_frames_sent as f64
        }
    }
}

/// Transit time on the virtual network: a LAN's, against the protocol's
/// millisecond timers.
const LATENCY: LatencyModel = LatencyModel::lan();

/// How long `bytes` of protocol payload take to cross the virtual network
/// (0 for a connection's close, which carries none).
pub(crate) fn transit(bytes: usize) -> SimTime {
    SimTime::from_millis_f64(LATENCY.mean_ms(bytes))
}

/// The in-process cluster's network: a send waits in an outbox, with the
/// transit time for its size, until the driver schedules its delivery. A
/// send to a node that crashed or exited counts as `dropped_disconnected`,
/// one to an id outside the cluster as `dropped_no_route`.
pub(crate) struct SimNet {
    counters: TransportCounters,
    /// Per node: does it still receive?
    open: Vec<AtomicBool>,
    /// Sends not yet scheduled: `(to, transit, envelope)`.
    outbox: Mutex<Vec<(u32, SimTime, Envelope)>>,
}

impl SimNet {
    pub(crate) fn new(n: usize) -> SimNet {
        let open = (0..n).map(|_| AtomicBool::new(true)).collect();
        let (counters, outbox) = Default::default();
        SimNet {
            counters,
            open,
            outbox,
        }
    }

    /// The outbox; each update is one push or take, so a panic cannot
    /// leave it half-made.
    fn outbox(&self) -> MutexGuard<'_, Vec<(u32, SimTime, Envelope)>> {
        self.outbox.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Node `id` crashed or exited: sends to it are dropped from now on.
    pub(crate) fn close(&self, id: u32) {
        if let Some(open) = self.open.get(id as usize) {
            open.store(false, Ordering::Relaxed);
        }
    }

    /// Take the sends made since the last call, in the order made.
    pub(crate) fn take_outbox(&self) -> Vec<(u32, SimTime, Envelope)> {
        std::mem::take(&mut self.outbox())
    }
}

impl Transport for SimNet {
    fn send(&self, job: JobId, from: u32, to: u32, msg: Msg) {
        match self.open.get(to as usize) {
            None => self.counters.record_dropped_no_route(),
            Some(open) if !open.load(Ordering::Relaxed) => {
                self.counters.record_dropped_disconnected()
            }
            Some(_) => {
                let wire = msg.wire_size();
                self.counters.record_send(wire, wire); // no frames: encoded == wire
                let env = Envelope { job, from, msg };
                self.outbox().push((to, transit(wire), env));
            }
        }
    }

    fn endpoints(&self) -> usize {
        self.open.len()
    }

    fn counters(&self) -> &TransportCounters {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_counters_snapshot() {
        let c = TransportCounters::default();
        c.record_send(9, 19);
        c.record_send(11, 21);
        c.record_dropped_full();
        c.record_dropped_disconnected();
        c.record_dropped_disconnected();
        c.record_dropped_no_route();
        c.record_connect_wait();
        c.record_reconnect();
        c.record_announce_sent();
        c.record_announce_sent();
        c.record_announce_recv();
        c.record_rejoin();
        c.record_join();
        c.record_join();
        c.record_peer_discovered();
        c.record_dropped_stale();
        c.record_dropped_stale();
        c.record_dropped_stale();
        c.record_flush(1);
        c.record_flush(3);
        c.record_membership_frame(16, 3);
        c.record_membership_frame(16, 0);
        c.record_bound_broadcast();
        c.record_control_shed();
        let s = c.snapshot();
        assert_eq!(s.sent, 2);
        assert_eq!(s.sent_wire_bytes, 20);
        assert_eq!(s.sent_encoded_bytes, 40);
        assert_eq!(s.dropped(), 4);
        assert_eq!((s.dropped_startup, s.retried), (0, 0));
        assert_eq!(s.connect_waits, 1);
        assert_eq!(s.attempts(), 6);
        assert_eq!(s.reconnects, 1);
        assert_eq!(s.announces_sent, 2);
        assert_eq!(s.announces_recv, 1);
        assert_eq!(s.rejoins, 1);
        assert_eq!(s.joins, 2);
        assert_eq!(s.peers_discovered, 1);
        assert_eq!(s.dropped_stale, 3);
        // Stale drops are receive-side: they do not inflate the send-side
        // drop total.
        assert_eq!(s.dropped(), 4);
        assert_eq!(s.flushes, 2);
        assert_eq!(s.frames_flushed, 4);
        assert!((s.frames_per_flush() - 2.0).abs() < 1e-12);
        assert_eq!(TransportStats::default().frames_per_flush(), 0.0);
        assert_eq!(s.membership_frames_sent, 2);
        assert_eq!(s.book_entries_sent, 32);
        assert_eq!(s.digest_entries_sent, 3);
        assert_eq!(s.bound_broadcasts, 1);
        assert_eq!(s.control_shed, 1);
        assert!((s.book_entries_per_frame() - 16.0).abs() < 1e-12);
        assert!((s.digest_entries_per_frame() - 1.5).abs() < 1e-12);
        assert_eq!(TransportStats::default().book_entries_per_frame(), 0.0);
        assert_eq!(TransportStats::default().digest_entries_per_frame(), 0.0);
    }

    #[test]
    fn mesh_routes_messages() {
        let net = SimNet::new(2);
        let deny = Msg::WorkDeny {
            incumbent: f64::INFINITY,
        };
        net.send(JobId(9), 0, 1, deny.clone());
        let [(to, transit, env)] = &net.take_outbox()[..] else {
            panic!("one frame is on its way");
        };
        assert_eq!((*to, env.from), (1, 0));
        assert_eq!(env.job, JobId(9), "the job stamp rides the envelope");
        assert_eq!(env.msg, deny);
        assert_eq!(*transit, SimTime::from_millis_f64(LATENCY.mean_ms(9)));
        assert!(net.take_outbox().is_empty(), "taken once");
        let stats = net.stats();
        assert_eq!(stats.sent, 1);
        assert_eq!(stats.sent_wire_bytes, 9);
        assert_eq!(stats.dropped(), 0);
    }

    #[test]
    fn send_to_dead_endpoint_is_silent_but_counted() {
        let net = SimNet::new(2);
        net.close(1); // crashed
        net.send(
            JobId::DEFAULT,
            0,
            1,
            Msg::WorkDeny {
                incumbent: f64::INFINITY,
            },
        );
        // no panic, and the drop is visible in the counters
        assert!(net.take_outbox().is_empty());
        let stats = net.stats();
        assert_eq!(stats.sent, 0);
        assert_eq!(stats.dropped_disconnected, 1);
    }

    #[test]
    fn send_to_unknown_endpoint_counts_no_route() {
        let net = SimNet::new(1);
        net.send(JobId::DEFAULT, 0, 7, Msg::WorkRequest { incumbent: 1.0 });
        assert!(net.take_outbox().is_empty());
        assert_eq!(net.stats().dropped_no_route, 1);
    }

    #[test]
    fn mesh_is_a_transport_object() {
        let net = SimNet::new(2);
        let t: &dyn Transport = &net;
        t.send(JobId::DEFAULT, 1, 0, Msg::WorkRequest { incumbent: 2.0 });
        assert_eq!(t.endpoints(), 2);
        assert_eq!(net.take_outbox().len(), 1);
        assert_eq!(t.stats().sent, 1);
    }

    #[test]
    fn in_process_mesh_is_born_ready() {
        let net = SimNet::new(3);
        let start = std::time::Instant::now();
        assert!(net.ready(Duration::from_secs(60)));
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "default ready() must not block"
        );
    }
}
