//! Per-process protocol counters.
//!
//! Time-category accounting (BB / communication / contraction / load
//! balancing / idle — the stack of the paper's Figure 3) lives in the
//! harness, which knows costs; these counters capture protocol-level
//! events: expansions, eliminations, reports, recoveries, redundancy.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Declares a metrics struct from one list of fields and derives `absorb`
/// (the element-wise merge used for cluster-level aggregation) from the
/// same list, so a counter added to the struct cannot be forgotten there.
macro_rules! mergeable_struct {
    (
        $(#[$meta:meta])*
        pub struct $Name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident: $ty:ty, )*
        }
    ) => {
        $(#[$meta])*
        pub struct $Name {
            $( $(#[$fmeta])* pub $field: $ty, )*
        }

        impl $Name {
            /// Element-wise merge (for cluster-level aggregation):
            /// counters add, flags OR.
            pub fn absorb(&mut self, other: &$Name) {
                $( Merge::merge(&mut self.$field, &other.$field); )*
            }
        }
    };
}

/// How one field of a [`mergeable_struct!`] combines with its peer.
trait Merge {
    fn merge(&mut self, other: &Self);
}

impl Merge for u64 {
    fn merge(&mut self, other: &u64) {
        *self += other;
    }
}

impl Merge for bool {
    fn merge(&mut self, other: &bool) {
        *self |= other;
    }
}

mergeable_struct! {
    /// Counters maintained by one protocol process.
    #[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
    pub struct ProcMetrics {
        /// Subproblems expanded (bounded + decomposed).
        pub expanded: u64,
        /// Children eliminated at creation (`l(v) ≥ U`).
        pub eliminated_at_insert: u64,
        /// Pool entries eliminated at selection.
        pub eliminated_at_pop: u64,
        /// Pool entries lazily pruned at `Pool::pop` because their bound could
        /// no longer improve the incumbent — discarded without expansion (the
        /// subtrees still complete into the table for termination detection).
        pub pruned_at_pop: u64,
        /// Pool entries skipped because the table already covered them.
        pub skipped_covered: u64,
        /// Leaves fathomed (solved or infeasible).
        pub fathomed: u64,
        /// Local incumbent improvements.
        pub incumbent_updates: u64,
        /// Work reports sent.
        pub reports_sent: u64,
        /// Work reports received.
        pub reports_received: u64,
        /// Codes shipped in sent reports, after compression, counted once
        /// per flush that reached at least one recipient (a flush with no
        /// recipient compresses nothing and counts nothing).
        pub report_codes_sent: u64,
        /// Codes that compression removed from sent reports (paper: "the
        /// taller the subtree completed locally, the larger the number of
        /// codes that do not need to be sent"); like `report_codes_sent`,
        /// only flushes that reached a recipient count.
        pub report_codes_saved: u64,
        /// Table gossips sent.
        pub table_gossips_sent: u64,
        /// Work requests sent.
        pub work_requests_sent: u64,
        /// Work grants sent.
        pub grants_sent: u64,
        /// Subproblems donated.
        pub items_granted: u64,
        /// Work denials sent.
        pub denies_sent: u64,
        /// Work-request timeouts suffered.
        pub lb_timeouts: u64,
        /// Complement recoveries performed (§5.3.2 failure repair).
        pub recoveries: u64,
        /// Expansions interrupted because gossip revealed them redundant.
        pub redundant_interrupts: u64,
        /// Contraction merge operations (code insertions processed).
        pub merge_codes_processed: u64,
        /// Contractions performed while merging.
        pub merge_contractions: u64,
        /// Members this process suspected via heartbeat timeout (§5.2) —
        /// each transition to Suspected counts once; a member that recovers
        /// and goes silent again counts again.
        pub peers_suspected: u64,
        /// Members forgotten (swept after `t_cleanup`) from this process's
        /// membership view.
        pub peers_forgotten: u64,
        /// Membership events silently discarded because the process's bounded
        /// event buffer (driven by a harness that was not draining it) was
        /// full. Non-zero means the harness missed suspicion/forget
        /// transitions.
        pub membership_events_dropped: u64,
        /// Explicit bound-announce frames this process broadcast (one per
        /// member per flush window that carried a strictly better incumbent).
        pub bound_broadcasts: u64,
        /// Incumbent improvements that were *coalesced* into a flush window
        /// already armed — they rode a pending broadcast instead of causing
        /// one of their own (the batching win of bound suppression).
        pub bound_coalesced: u64,
        /// Outgoing frames whose incumbent piggyback was suppressed (stamped
        /// with the no-news sentinel) because every member had already been
        /// told the current bound.
        pub bound_piggybacks_suppressed: u64,
        /// Did this process detect termination?
        pub terminated: bool,
    }
}

impl ProcMetrics {
    /// Total eliminations.
    pub fn eliminated(&self) -> u64 {
        self.eliminated_at_insert + self.eliminated_at_pop + self.pruned_at_pop
    }

    /// Compression ratio of sent reports (saved / (saved + sent)); 0 when
    /// nothing was sent.
    pub fn compression_ratio(&self) -> f64 {
        let total = self.report_codes_sent + self.report_codes_saved;
        if total == 0 {
            0.0
        } else {
            self.report_codes_saved as f64 / total as f64
        }
    }
}

/// Declares the transport counters once — field, doc, and the key the
/// counter carries on `FTBB-*` stdout lines — and derives both structs
/// ([`TransportCounters`], the shared atomics a transport bumps, and
/// [`TransportStats`], their plain-value snapshot), the snapshot itself,
/// and the keyed view line codecs render and parse. Declaration order is
/// the `FTBB-OUTCOME` line's field order.
macro_rules! transport_counters {
    ( $( $(#[$fmeta:meta])* $field:ident = $key:literal, )* ) => {
        /// Shared counters maintained by a transport implementation
        /// (`ftbb-runtime`'s in-process mesh, `ftbb-wire`'s TCP mesh).
        ///
        /// The paper's Crash failure model makes "the send was silently
        /// dropped" a *correct* behaviour, which historically meant
        /// transports swallowed `Full`/`Disconnected` without a trace.
        /// These counters keep the silence observable: every send attempt
        /// lands in exactly one bucket.
        #[derive(Debug, Default)]
        pub struct TransportCounters {
            $( $(#[$fmeta])* pub $field: AtomicU64, )*
        }

        /// Point-in-time values of [`TransportCounters`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
        pub struct TransportStats {
            $( $(#[$fmeta])* pub $field: u64, )*
        }

        impl TransportCounters {
            /// A plain-value snapshot for reporting/serialization.
            pub fn snapshot(&self) -> TransportStats {
                TransportStats {
                    $( $field: self.$field.load(Ordering::Relaxed), )*
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
            /// [`Self::keyed`]); `None` as soon as one key is missing.
            pub fn from_keyed(mut get: impl FnMut(&'static str) -> Option<u64>) -> Option<Self> {
                Some(TransportStats {
                    $( $field: get($key)?, )*
                })
            }
        }
    };
}

transport_counters! {
    /// Messages handed to the wire (or in-process queue) successfully.
    sent = "sent",
    /// Estimated protocol bytes of successful sends (`Msg::wire_size`).
    sent_wire_bytes = "wire_bytes",
    /// Actual encoded bytes of successful sends, frame headers included
    /// (equals `sent_wire_bytes` for in-process transports, which ship no
    /// frames).
    sent_encoded_bytes = "encoded_bytes",
    /// Sends dropped because the destination queue was full.
    dropped_full = "dropped_full",
    /// Sends dropped because the destination is disconnected/dead.
    dropped_disconnected = "dropped_disconnected",
    /// Sends dropped because no route to the destination id exists.
    dropped_no_route = "dropped_no_route",
    /// Always 0 since PR 19 (the TCP startup retry window is gone; a send
    /// to a never-connected peer is a `dropped_disconnected`). The key
    /// stays because `benchmark/` parses it; retire with the next
    /// `[benchmark]` PR.
    dropped_startup = "dropped_startup",
    /// Inbound frames dropped because they belonged to a stale
    /// incarnation — addressed to this node's previous life, or sent by a
    /// peer's previous life. A *receive*-side drop, so it is excluded from
    /// [`TransportStats::dropped`] (which sums send-side drops).
    dropped_stale = "dropped_stale",
    /// Always 0 since PR 19 (no frame is ever held back for a retry). The
    /// key stays because `benchmark/` reads `transport.retried` by name;
    /// retire with the next `[benchmark]` PR.
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
    /// Rejoin frames received: a peer came back under a new incarnation
    /// and was (re)registered.
    rejoins = "rejoins",
    /// Join frames received: a brand-new node introduced itself through
    /// this node (gossip-server side of the elastic-join handshake) and
    /// was registered.
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
    /// (codec v4 id→addr book, after the `book_max_entries` cap).
    book_entries_sent = "book_entries",
    /// View-digest entries carried inside those membership frames (after
    /// delta suppression and the digest cap).
    digest_entries_sent = "digest_entries",
    /// Explicit bound-announce frames handed to the wire.
    bound_broadcasts = "bound_frames",
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

    /// Record one rejoin frame received.
    pub fn record_rejoin(&self) {
        self.rejoins.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one join frame received.
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

    /// Framing overhead of the encoding, as actual/estimated bytes
    /// (1.0 when the transport ships no frames; 0 when nothing was sent).
    pub fn encoding_overhead(&self) -> f64 {
        if self.sent_wire_bytes == 0 {
            0.0
        } else {
            self.sent_encoded_bytes as f64 / self.sent_wire_bytes as f64
        }
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
        assert!((s.encoding_overhead() - 2.0).abs() < 1e-12);
        assert_eq!(s.flushes, 2);
        assert_eq!(s.frames_flushed, 4);
        assert!((s.frames_per_flush() - 2.0).abs() < 1e-12);
        assert_eq!(TransportStats::default().frames_per_flush(), 0.0);
        assert_eq!(s.membership_frames_sent, 2);
        assert_eq!(s.book_entries_sent, 32);
        assert_eq!(s.digest_entries_sent, 3);
        assert_eq!(s.bound_broadcasts, 1);
        assert!((s.book_entries_per_frame() - 16.0).abs() < 1e-12);
        assert!((s.digest_entries_per_frame() - 1.5).abs() < 1e-12);
        assert_eq!(TransportStats::default().book_entries_per_frame(), 0.0);
        assert_eq!(TransportStats::default().digest_entries_per_frame(), 0.0);
    }

    #[test]
    fn compression_ratio() {
        let mut m = ProcMetrics::default();
        assert_eq!(m.compression_ratio(), 0.0);
        m.report_codes_sent = 3;
        m.report_codes_saved = 1;
        assert!((m.compression_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn absorb_sums() {
        let mut a = ProcMetrics {
            expanded: 5,
            recoveries: 1,
            ..Default::default()
        };
        let b = ProcMetrics {
            expanded: 7,
            terminated: true,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.expanded, 12);
        assert_eq!(a.recoveries, 1);
        assert!(a.terminated);
    }
}
