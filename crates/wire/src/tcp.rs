//! [`TcpMesh`] — the [`Transport`] over real sockets.
//!
//! Topology: every node listens on one TCP address and keeps one
//! *outgoing* connection per peer (so a pair of nodes shares two
//! simplex connections, one per direction). Incoming connections only
//! feed the inbox; the envelope's `from` field identifies the sender.
//! The inbox is the pump's one channel ([`Inbound`]): a service node's
//! control thread admits jobs on it too ([`TcpMesh::inbox_sender`]).
//! The peer roster is **dynamic**: it is seeded at construction, but a
//! peer can be (re)registered at any time — which is how a node enters a
//! live mesh: a brand-new node, or one killed and restarted from a
//! checkpoint, sends one [`JoinFrame`] carrying its address and
//! incarnation ([`TcpMesh::ready_and_join`]), and every receiver registers
//! it or re-points its writer.
//!
//! **Incarnations**: the mesh belongs to one life of its node. Outgoing
//! protocol frames are stamped with the sender's incarnation and the
//! destination incarnation the sender currently believes in; inbound
//! frames whose tags disagree with reality — addressed to this node's
//! previous life, or sent by a peer's previous life — are dropped and
//! counted as `dropped_stale` instead of being delivered to the wrong
//! incarnation. Incarnation knowledge flows through join (and announce)
//! frames; a fresh mesh assumes incarnation 0 for everyone, which is
//! correct for first lives.
//!
//! Failure semantics are the paper's Crash model on real infrastructure,
//! at startup exactly as in steady state:
//!
//! * **One startup mechanism, the readiness barrier**
//!   ([`Transport::ready`]): writer threads eagerly dial their peers with
//!   retry until connected or a deadline. Harnesses run the barrier
//!   *before* injecting `Start`, so the protocol never opens fire on a
//!   half-formed mesh and the root's first work grants cannot vanish into
//!   a listener that is still coming up. A restarted node replays exactly
//!   this barrier for itself, with its join frame queued behind each
//!   writer's dialling.
//! * **Delivery is at most once, and every loss is counted**: a send to a
//!   peer that is not connected gets one dial attempt (paced by a short
//!   backoff so dead peers cost microseconds, not round-trips) and is
//!   otherwise **dropped** — counted as `dropped_disconnected` in
//!   [`TransportCounters`], before and after first contact alike. Nothing
//!   is parked for later; the protocol tolerates lost messages. Writers
//!   **reconnect on drop**, and successful re-establishment is counted.
//! * A reader that sees a corrupt frame drops the connection — a corrupt
//!   peer is indistinguishable from a dead one.
//! * **A closed connection is crash evidence**: a reader remembers the
//!   last peer it admitted a protocol frame from, and when its connection
//!   ends (EOF, a read error, a corrupt frame) it puts
//!   [`Inbound::PeerClosed`] on the inbox — a SIGKILLed daemon's sockets
//!   close at once, long before its heartbeats are missed. Not on a read
//!   timeout, not while this mesh shuts down, not for a submit client or
//!   a connection that never carried a protocol frame, and not once a
//!   newer life of that peer, or a newer connection from it, has been
//!   admitted. The protocol stops addressing the peer until its next
//!   frame; a host that dies without closing its sockets is still found
//!   by the protocol's timeouts and suspicion.
//!
//! **Live peer discovery** (codec v4): outgoing membership frames
//! piggyback this node's address book — `(id, addr, incarnation)` per
//! known peer plus itself — and inbound books open routes to members
//! this mesh has never been wired with, already tagged for the right
//! life (counted as `peers_discovered`). A *relayed* entry never
//! re-points a known peer's route; the sender's *own* entry is
//! authoritative (the admitted frame proves its current address and
//! incarnation), like a join frame — which is how a route learned from
//! a book that later went stale heals itself on the next membership
//! frame from that peer. A brand-new node sends its [`JoinFrame`] to its
//! gossip servers only; gossip then spreads its existence — and, via the
//! books, its address — epidemically.
//!
//! **Control plane**: everything a reader decodes that is not protocol
//! traffic — problem announces, job submissions, join handshakes —
//! surfaces as one [`Control`] value on one bounded channel
//! ([`TcpMesh::recv_control`]), after the registry has acted on it. The
//! inbox never sees these frames. A consumer that falls
//! `CONTROL_QUEUE_CAP` frames behind loses the overflow, counted as
//! `control_shed` (a submission is also refused by closing its stream),
//! rather than stalling the readers.
//!
//! **Transport constants**: one socket write coalesces at most
//! [`BATCH_MAX_FRAMES`] queued frames, and one membership frame carries at
//! most [`BOOK_MAX_ENTRIES`] address-book entries. Neither is a setting.
//!
//! **Locks**: every update under a lock here leaves its data valid at
//! every step — the maps change by single `insert`/`remove` calls, and a
//! book rebuild stays marked dirty until it completes — so a thread that
//! panics while holding one leaves nothing half-written. The mesh takes
//! its guards through one poison-tolerant accessor, and a panic in one
//! thread never turns into a panic in every other thread that touches
//! the mesh.

use crate::codec::{
    encode_announce, encode_frame, encode_join, EncodedFrame, FrameDecoder, JoinFrame, WireFrame,
};
use ftbb_bnb::AnyInstance;
use ftbb_core::{JobId, Msg};
use ftbb_gossip::MembershipMsg;
use ftbb_runtime::{Envelope, Inbound, Transport, TransportCounters};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{
    channel, sync_channel, Receiver, Sender, SyncSender, TryRecvError, TrySendError,
};
use std::sync::{Arc, LockResult, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Soft bound on frames queued toward one peer; beyond it sends are
/// dropped as `Full` (backpressure against a stalled or dead peer).
const PEER_QUEUE_CAP: usize = 4096;

/// How long a writer waits for a connection attempt.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

/// After a failed connect, drop sends for this long before dialing
/// again — keeps send() latency flat while a peer is down.
const RECONNECT_BACKOFF: Duration = Duration::from_millis(50);

/// Pacing of dial attempts while the readiness barrier waits for a
/// listener.
const PRECONNECT_POLL: Duration = Duration::from_millis(10);

/// Bound on control frames ([`Control`]) waiting for
/// [`TcpMesh::recv_control`]. A consumer this far behind loses the
/// overflow instead of stalling the readers.
const CONTROL_QUEUE_CAP: usize = 256;

/// Cap on frames coalesced into one socket write. Batching is purely
/// opportunistic — a writer only coalesces frames *already queued* when
/// it wakes, so a lone latency-sensitive frame (bound announcement,
/// membership beat) is never parked waiting for company; the cap merely
/// bounds the coalescing buffer.
pub const BATCH_MAX_FRAMES: usize = 64;

/// Cap on piggybacked address-book entries per membership frame, which
/// keeps per-frame book bytes O(1) instead of O(roster). The sender's own
/// entry always rides; the rest rotate through a round-robin cursor so
/// every entry still circulates epidemically.
pub const BOOK_MAX_ENTRIES: usize = 16;

/// The argument of [`TcpMesh::from_listener_incarnated_with`], which
/// ignores it. The struct has no fields: the transport runs on
/// [`BATCH_MAX_FRAMES`] and [`BOOK_MAX_ENTRIES`]. It remains only because
/// the benchmark harness passes `WireConfig::default()` to that
/// constructor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireConfig;

/// A lock's guard, whether or not a thread panicked while holding it
/// (see the module doc's **Locks**).
fn unpoisoned<G>(guard: LockResult<G>) -> G {
    guard.unwrap_or_else(PoisonError::into_inner)
}

/// What a peer's writer thread is asked to do. Frames are queued as
/// encoded ([`EncodedFrame::bytes`] is refcounted: a broadcast queues
/// clones of one encoding).
enum WriterCmd {
    Frame(EncodedFrame),
    /// Pre-establishment: dial eagerly until connected or `deadline`,
    /// then say so on `done`.
    Preconnect {
        deadline: Instant,
        done: Sender<()>,
    },
}

/// One non-protocol frame, surfaced by [`TcpMesh::recv_control`] after
/// the registry has acted on it (sender admitted, routes re-pointed).
#[derive(Debug, Clone, PartialEq)]
pub enum Control {
    /// A peer announced a problem instance: the `--problem wire`
    /// handshake of a single run, a job admission in service mode.
    Announce {
        /// The announcing node.
        from: u32,
        /// The job the instance belongs to.
        job: JobId,
        /// The decoded, already-validated instance.
        instance: AnyInstance,
    },
    /// An `ftbb-submit` client handed this node a job. Its stream is
    /// held for [`TcpMesh::send_submit_reply`] until the consumer
    /// releases it (after the job's last result, or to refuse the job).
    Submit {
        /// The job id the client chose.
        job: JobId,
        /// The decoded, already-validated instance.
        instance: AnyInstance,
    },
    /// A node entered the mesh (already registered): a brand-new one at
    /// incarnation 0, or a restarted one under its new incarnation.
    Join(JoinFrame),
}

struct Peer {
    addr: SocketAddr,
    /// Destination's latest known incarnation; stamps outgoing frames.
    incarnation: Arc<AtomicU32>,
    queue_tx: Sender<WriterCmd>,
    depth: Arc<AtomicUsize>,
    connected: Arc<AtomicBool>,
}

impl Peer {
    /// Hand a frame to the writer thread. The depth reservation is
    /// released here if the writer is gone (its queue disconnected) —
    /// otherwise the writer settles it once the frame's fate is known.
    fn enqueue(&self, frame: EncodedFrame, counters: &TransportCounters) {
        self.depth.fetch_add(1, Ordering::AcqRel);
        if self.queue_tx.send(WriterCmd::Frame(frame)).is_err() {
            // Undo the reservation: nobody will ever settle this frame,
            // and a leaked depth would make `drain` spin to timeout.
            self.depth.fetch_sub(1, Ordering::AcqRel);
            counters.record_dropped_disconnected();
        }
    }
}

/// The roster cache behind [`Registry::membership_book`]: the sorted
/// `(id, addr, incarnation)` book, rebuilt only when the peer *roster*
/// changes. Incarnations are shared atomics loaded at selection time, so
/// `fetch_max` bumps (rejoins, life proofs) never invalidate the cache.
struct BookCache {
    /// Sorted by id; includes this node's own entry.
    entries: Vec<(u32, SocketAddr, Arc<AtomicU32>)>,
    /// Roster changed since the last rebuild.
    dirty: bool,
    /// Round-robin start for capped selections, an index into `entries`.
    cursor: usize,
}

/// The state readers and the mesh share: the dynamic peer map, the
/// inbound incarnation filter, the control plane's sending end with the
/// submitters' streams, and the counters.
struct Registry {
    me: u32,
    my_incarnation: u32,
    local_addr: SocketAddr,
    peers: RwLock<HashMap<u32, Peer>>,
    /// Highest incarnation seen per sender; frames from lower ones are a
    /// previous life's stragglers and are dropped as stale.
    seen: RwLock<HashMap<u32, u32>>,
    /// Lazily rebuilt piggyback book. Lock order: `book` before `peers`
    /// (the rebuild reads the peer map); invalidators must not hold
    /// `peers` when they take `book`.
    book: Mutex<BookCache>,
    /// Where readers surface non-protocol frames; `None` is
    /// [`TcpMesh::close_control`]'s wake-up.
    control: SyncSender<Option<Control>>,
    /// Control frames queued for [`TcpMesh::recv_control`]. A slot is
    /// reserved before the frame is sent and released when it is taken
    /// (or fails to send), like [`Peer`]'s `depth`.
    control_depth: AtomicUsize,
    /// Per-job back-channel to the submitting client, for
    /// [`TcpMesh::send_submit_reply`].
    submitters: Mutex<HashMap<JobId, TcpStream>>,
    counters: Arc<TransportCounters>,
    /// Set when the owning [`TcpMesh`] drops; the acceptor and the readers
    /// exit on it.
    shutdown: AtomicBool,
    /// Numbers the accepted connections, in accept order.
    next_conn: AtomicU64,
    /// Per sender: the newest connection that admitted a protocol frame
    /// from it. Only that connection's close reports the sender closed.
    latest_conn: Mutex<HashMap<u32, u64>>,
}

impl Registry {
    /// (Re)register `id` at `addr` with (at least) `incarnation`. A new
    /// address replaces the writer (the old writer thread exits when its
    /// queue disconnects); a known address just bumps the outbound
    /// incarnation tag, keeping the live connection.
    fn register(&self, id: u32, addr: SocketAddr, incarnation: u32) {
        if id == self.me {
            return;
        }
        {
            let peers = unpoisoned(self.peers.read());
            if let Some(peer) = peers.get(&id) {
                if peer.addr == addr {
                    peer.incarnation.fetch_max(incarnation, Ordering::AcqRel);
                    return;
                }
            }
        }
        let peer = spawn_peer(addr, incarnation, Arc::clone(&self.counters));
        unpoisoned(self.peers.write()).insert(id, peer);
        self.mark_book_dirty();
    }

    /// Learn a peer from a *relayed* (third-party) address-book entry:
    /// unknown ids are registered at the book's incarnation; for known
    /// ids only the outbound incarnation tag is raised (monotone). A
    /// relayed entry never re-points an existing writer — address
    /// changes are authoritative only through join frames or the
    /// sender's *own* book entry (see the reader), so a stale relayed
    /// book cannot hijack a live route.
    fn learn_peer(&self, id: u32, addr: SocketAddr, incarnation: u32) {
        if id == self.me {
            return;
        }
        {
            let peers = unpoisoned(self.peers.read());
            if let Some(peer) = peers.get(&id) {
                peer.incarnation.fetch_max(incarnation, Ordering::AcqRel);
                return;
            }
        }
        {
            let mut peers = unpoisoned(self.peers.write());
            if peers.contains_key(&id) {
                return; // raced another reader; first learner wins
            }
            peers.insert(
                id,
                spawn_peer(addr, incarnation, Arc::clone(&self.counters)),
            );
        }
        self.mark_book_dirty();
        self.counters.record_peer_discovered();
    }

    /// Invalidate the piggyback-book cache after a roster change. Callers
    /// must have released the `peers` lock (see the lock-order note on
    /// [`Registry::book`]).
    fn mark_book_dirty(&self) {
        unpoisoned(self.book.lock()).dirty = true;
    }

    /// The address book to piggyback on one membership frame: the full
    /// sorted roster when it fits [`BOOK_MAX_ENTRIES`], otherwise this
    /// node's own entry (always — it is the authoritative route back to
    /// the sender) plus a rotating window of the rest, so every entry
    /// still circulates within `⌈roster/cap⌉` frames. The
    /// roster is cached and rebuilt only when the peer map changes;
    /// incarnations are loaded from the shared atomics at selection time.
    fn membership_book(&self) -> Vec<(u32, SocketAddr, u32)> {
        let mut cache = unpoisoned(self.book.lock());
        if cache.dirty {
            let peers = unpoisoned(self.peers.read());
            cache.entries = peers
                .iter()
                .map(|(&id, p)| (id, p.addr, Arc::clone(&p.incarnation)))
                .collect();
            drop(peers);
            cache.entries.push((
                self.me,
                self.local_addr,
                Arc::new(AtomicU32::new(self.my_incarnation)),
            ));
            cache.entries.sort_unstable_by_key(|&(id, _, _)| id);
            cache.dirty = false;
        }
        let load = |&(id, addr, ref inc): &(u32, SocketAddr, Arc<AtomicU32>)| {
            (id, addr, inc.load(Ordering::Acquire))
        };
        let n = cache.entries.len();
        if n <= BOOK_MAX_ENTRIES {
            return cache.entries.iter().map(load).collect();
        }
        let self_idx = cache
            .entries
            .binary_search_by_key(&self.me, |&(id, _, _)| id)
            .expect("own entry is always in the book");
        let mut out = Vec::with_capacity(BOOK_MAX_ENTRIES);
        out.push(load(&cache.entries[self_idx]));
        let mut idx = cache.cursor % n;
        while out.len() < BOOK_MAX_ENTRIES {
            if idx != self_idx {
                out.push(load(&cache.entries[idx]));
            }
            idx = (idx + 1) % n;
        }
        cache.cursor = idx;
        drop(cache);
        out.sort_unstable_by_key(|&(id, _, _)| id);
        out
    }

    /// An admitted frame from `from` at `incarnation` is proof of that
    /// life: raise our *outbound* tag for the peer to match, so frames
    /// we send it stop being addressed to an older life. This is how a
    /// restarted node — born assuming incarnation 0 for everyone —
    /// relearns the current incarnation of peers that restarted before
    /// it did: join frames teach the roster once, and every ordinary
    /// frame after that self-heals stragglers.
    fn note_sender_life(&self, from: u32, incarnation: u32) {
        if let Some(peer) = unpoisoned(self.peers.read()).get(&from) {
            peer.incarnation.fetch_max(incarnation, Ordering::AcqRel);
        }
    }

    /// Surface one control frame to [`TcpMesh::recv_control`]. A full
    /// queue (or a mesh that is gone — its readers exit on the shutdown
    /// flag) loses the frame, counted as shed, which, for a submission,
    /// refuses the job: its stream closes.
    fn surface(&self, control: Control) {
        self.control_depth.fetch_add(1, Ordering::AcqRel);
        if let Err(TrySendError::Full(lost) | TrySendError::Disconnected(lost)) =
            self.control.try_send(Some(control))
        {
            self.control_depth.fetch_sub(1, Ordering::AcqRel);
            self.counters.record_control_shed();
            if let Some(Control::Submit { job, .. }) = lost {
                self.close_submitter(job);
            }
        }
    }

    /// Drop `job`'s submitter stream, closing the connection both ways
    /// (the reader that accepted it sees EOF and exits).
    fn close_submitter(&self, job: JobId) {
        let stream = unpoisoned(self.submitters.lock()).remove(&job);
        if let Some(stream) = stream {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Admit (or reject) an inbound frame from `from` at `incarnation`,
    /// advancing the per-sender high-water mark.
    fn admit_sender(&self, from: u32, incarnation: u32) -> bool {
        {
            let seen = unpoisoned(self.seen.read());
            match seen.get(&from) {
                Some(&cur) if incarnation < cur => return false,
                Some(&cur) if incarnation == cur => return true,
                _ => {}
            }
        }
        let mut seen = unpoisoned(self.seen.write());
        let cur = seen.entry(from).or_insert(incarnation);
        if incarnation < *cur {
            return false;
        }
        *cur = incarnation;
        true
    }

    /// Connection `conn` admitted a protocol frame from `from`: it is the
    /// sender's connection now, unless a newer one already is.
    fn claim_connection(&self, from: u32, conn: u64) {
        let mut latest = unpoisoned(self.latest_conn.lock());
        let newest = latest.entry(from).or_insert(conn);
        *newest = (*newest).max(conn);
    }

    /// Connection `conn` ended, its last admitted protocol sender being
    /// `sender` (`(id, incarnation)`): the peer to report closed, unless
    /// this mesh is shutting down or a newer life of the peer, or a newer
    /// connection from it, has been admitted since.
    fn closed_sender(&self, conn: u64, sender: Option<(u32, u32)>) -> Option<u32> {
        let (id, incarnation) = sender?;
        if self.shutdown.load(Ordering::Acquire) {
            return None;
        }
        let newer_life = unpoisoned(self.seen.read())
            .get(&id)
            .is_some_and(|&seen| seen > incarnation);
        let newer_conn = unpoisoned(self.latest_conn.lock()).get(&id) != Some(&conn);
        (!newer_life && !newer_conn).then_some(id)
    }
}

/// The TCP transport: one listener, one writer thread per peer.
pub struct TcpMesh {
    registry: Arc<Registry>,
    inbox_tx: Sender<Inbound>,
    /// The control plane's receiving end; readers hold the senders (in
    /// the registry). `None` is [`TcpMesh::close_control`]'s wake-up.
    /// Locked only by its one consumer, and by `close_control` when the
    /// queue is full; the lock keeps the mesh `Sync`.
    control_rx: Mutex<Receiver<Option<Control>>>,
}

impl TcpMesh {
    /// Build the mesh around an already-bound listener as a specific
    /// incarnation of its node (`--resume` bumps the checkpointed
    /// incarnation by one; a first life is 0). This is the two-phase
    /// entry point `ftbb-noded` uses: bind first (resolving `:0` to a
    /// real port), announce the address, learn the peer map, *then* start
    /// routing. `peers` lists every *other* node's `(id, address)`; the
    /// returned receiver is this node's inbox (messages from peers and
    /// from self-sends). The [`WireConfig`] argument is ignored.
    pub fn from_listener_incarnated_with(
        me: u32,
        incarnation: u32,
        listener: TcpListener,
        peers: &[(u32, SocketAddr)],
        _: WireConfig,
    ) -> std::io::Result<(TcpMesh, Receiver<Inbound>)> {
        let local_addr = listener.local_addr()?;
        let (inbox_tx, inbox_rx) = channel();
        let (control_tx, control_rx) = sync_channel(CONTROL_QUEUE_CAP);

        let registry = Arc::new(Registry {
            me,
            my_incarnation: incarnation,
            local_addr,
            peers: RwLock::new(HashMap::new()),
            seen: RwLock::new(HashMap::new()),
            book: Mutex::new(BookCache {
                entries: Vec::new(),
                dirty: true,
                cursor: 0,
            }),
            control: control_tx,
            control_depth: AtomicUsize::new(0),
            submitters: Mutex::new(HashMap::new()),
            counters: Arc::new(TransportCounters::default()),
            shutdown: AtomicBool::new(false),
            next_conn: AtomicU64::new(0),
            latest_conn: Mutex::new(HashMap::new()),
        });
        for &(id, addr) in peers {
            registry.register(id, addr, 0);
        }

        spawn_acceptor(listener, Arc::clone(&registry), inbox_tx.clone());

        Ok((
            TcpMesh {
                registry,
                inbox_tx,
                control_rx: Mutex::new(control_rx),
            },
            inbox_rx,
        ))
    }

    /// Queue one pre-encoded handshake frame toward every registered
    /// peer, under the rules [`Transport::send`] applies to one: a peer
    /// whose queue is at `PEER_QUEUE_CAP`, or a frame receivers would
    /// reject as oversize, is a counted `dropped_full`. Returns how many
    /// peers the frame was queued for.
    fn broadcast(&self, frame: &EncodedFrame) -> usize {
        let registry = &self.registry;
        let mut queued = 0;
        for peer in unpoisoned(registry.peers.read()).values() {
            if frame.exceeds_limit() || peer.depth.load(Ordering::Acquire) >= PEER_QUEUE_CAP {
                registry.counters.record_dropped_full();
                continue;
            }
            peer.enqueue(frame.clone(), &registry.counters);
            queued += 1;
        }
        queued
    }

    /// Ship this node's materialized workload to every peer as a
    /// problem-announce frame (the `--problem wire` handshake). Returns
    /// `false` (sending nothing) when the encoded instance exceeds
    /// [`crate::codec::MAX_FRAME_PAYLOAD`] — receivers would reject the
    /// frame and drop the connection, so an oversize workload must travel
    /// out of band (e.g. a shared tree file) instead.
    pub fn announce_instance(&self, job: JobId, instance: &AnyInstance) -> bool {
        let registry = &self.registry;
        let frame = encode_announce(registry.me, registry.my_incarnation, job, instance);
        for _ in 0..self.broadcast(&frame) {
            registry.counters.record_announce_sent();
        }
        !frame.exceeds_limit()
    }

    /// The sending end of this node's inbox, through which the control
    /// thread admits a job into the running pump ([`Inbound::Admit`]).
    pub fn inbox_sender(&self) -> Sender<Inbound> {
        self.inbox_tx.clone()
    }

    /// Wait (up to `timeout`) for the next control frame — a peer's
    /// problem announce, a client's job submission or a join.
    /// The registry has already acted on it by the time it surfaces here
    /// (sender admitted, writer re-pointed, submitter's stream held for
    /// [`TcpMesh::send_submit_reply`]). `None` on timeout.
    pub fn recv_control(&self, timeout: Duration) -> Option<Control> {
        let rx = unpoisoned(self.control_rx.lock());
        let control = rx.recv_timeout(timeout).ok().flatten();
        if control.is_some() {
            self.registry.control_depth.fetch_sub(1, Ordering::AcqRel);
        }
        control
    }

    /// Wake the thread blocked in [`TcpMesh::recv_control`]: once it has
    /// consumed what is queued before this call, it gets `None`. Never
    /// blocks: the caller is shutting down, so a full queue gives up its
    /// oldest frames to make room.
    pub(crate) fn close_control(&self) {
        // The consumer may hold the receiver's lock while it waits, but
        // not while the queue is full: only then is the lock needed.
        while self.registry.control.try_send(None).is_err() {
            if let Ok(Some(_)) = unpoisoned(self.control_rx.lock()).try_recv() {
                self.registry.control_depth.fetch_sub(1, Ordering::AcqRel);
            }
        }
    }

    /// Control frames waiting for [`TcpMesh::recv_control`].
    pub(crate) fn control_depth(&self) -> usize {
        self.registry.control_depth.load(Ordering::Acquire)
    }

    /// Write an already-encoded frame back to the client that submitted
    /// `job`. Returns `false` when no submitter is registered for the job
    /// (it never submitted here, or its stream was closed); a failed
    /// write also closes the stream so later replies fail fast instead
    /// of blocking on a dead socket.
    pub fn send_submit_reply(&self, job: JobId, frame: &EncodedFrame) -> bool {
        let mut submitters = unpoisoned(self.registry.submitters.lock());
        let Some(stream) = submitters.get_mut(&job) else {
            return false;
        };
        if stream.write_all(&frame.bytes).is_err() {
            submitters.remove(&job);
            return false;
        }
        true
    }

    /// Close the stream to whoever submitted `job` and forget it: after
    /// the job's last result (a held stream is a held socket), or at once
    /// to refuse a job this node will not run — the client then reports
    /// that the gateway closed the stream.
    pub(crate) fn close_submitter(&self, job: JobId) {
        self.registry.close_submitter(job);
    }

    /// The readiness barrier ([`Transport::ready`]) of a node entering a
    /// live mesh: it introduces itself to every registered peer with a
    /// join frame carrying its id, incarnation, and listen address, queued
    /// behind each writer's dialling. So a peer gets the join as soon as
    /// its own connection is up, not when the barrier lifts, which a dead
    /// peer holds for the whole budget. Receivers register the sender:
    /// for a joining node (whose peers are its gossip servers) that opens
    /// the reverse route the membership Welcome needs; for a node resumed
    /// under a new incarnation it re-points their writers and starts
    /// tagging traffic for the new life.
    pub fn ready_and_join(&self, timeout: Duration) -> bool {
        self.barrier(timeout, true)
    }

    /// Pre-establish a connection to every peer, waiting up to `timeout`,
    /// with this node's join frame queued behind the dialling if `join`.
    /// Writer threads dial with retry (failed attempts are counted as
    /// `connect_waits`); returns `true` once every peer has accepted a
    /// connection, `false` if the deadline passed first. Each writer
    /// reports back when its dialling ends, so the barrier lifts as soon
    /// as the last connection is up, not on the next tick of a poll.
    fn barrier(&self, timeout: Duration, join: bool) -> bool {
        let deadline = Instant::now() + timeout;
        let (done, dialled) = channel();
        let mut dialling = 0;
        for peer in unpoisoned(self.registry.peers.read()).values() {
            if !peer.connected.load(Ordering::Acquire) {
                let cmd = WriterCmd::Preconnect {
                    deadline,
                    done: done.clone(),
                };
                dialling += usize::from(peer.queue_tx.send(cmd).is_ok());
            }
        }
        drop(done);
        if join {
            self.broadcast(&encode_join(&JoinFrame {
                from: self.registry.me,
                incarnation: self.registry.my_incarnation,
                addr: self.registry.local_addr,
            }));
        }
        for _ in 0..dialling {
            let left = deadline.saturating_duration_since(Instant::now());
            if dialled.recv_timeout(left).is_err() {
                break;
            }
        }
        unpoisoned(self.registry.peers.read())
            .values()
            .all(|p| p.connected.load(Ordering::Acquire))
    }

    /// Wait (up to `timeout`) for every peer queue to flush to the
    /// sockets, so [`Transport::stats`] reflects all completed sends.
    /// Returns `true` if fully drained.
    pub fn drain(&self, timeout: Duration) -> bool {
        self.await_peers(Instant::now() + timeout, |p| {
            p.depth.load(Ordering::Acquire) == 0
        })
    }

    /// Poll until `done` holds for every registered peer (`true`) or
    /// `deadline` passes (`false`).
    fn await_peers(&self, deadline: Instant, done: impl Fn(&Peer) -> bool) -> bool {
        loop {
            let peers = unpoisoned(self.registry.peers.read());
            if peers.values().all(&done) {
                return true;
            }
            drop(peers);
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Transport for TcpMesh {
    fn send(&self, job: JobId, from: u32, to: u32, msg: Msg) {
        let registry = &self.registry;
        if to == registry.me {
            // Self-sends short-circuit the network, like the in-process
            // mesh delivering to the sender's own inbox.
            let wire = msg.wire_size();
            let env = Envelope { job, from, msg };
            if self.inbox_tx.send(Inbound::Frame(env)).is_ok() {
                registry.counters.record_send(wire, wire);
            } else {
                registry.counters.record_dropped_disconnected();
            }
            return;
        }
        // Membership traffic piggybacks this node's address book (codec
        // v4) — `(id, addr, incarnation)` entries — so the receiver opens
        // routes to members it only knows from gossip, tagged for the
        // right life. The book comes from the roster cache, capped to
        // `BOOK_MAX_ENTRIES` with a rotating window (built before taking
        // the peer read lock: `book` orders before `peers`). Work/report
        // traffic ships an empty book: discovery belongs to the
        // membership plane.
        let is_bound_announce = matches!(msg, Msg::BoundAnnounce { .. });
        let (book, digest_entries) = match &msg {
            Msg::Membership(m) => {
                let digest_entries = match m {
                    MembershipMsg::Gossip(d) | MembershipMsg::Welcome(d) => d.entries.len() as u64,
                    MembershipMsg::Join { .. } => 0,
                };
                (registry.membership_book(), Some(digest_entries))
            }
            _ => (Vec::new(), None),
        };
        let peers = unpoisoned(registry.peers.read());
        let Some(peer) = peers.get(&to) else {
            registry.counters.record_dropped_no_route();
            return;
        };
        if peer.depth.load(Ordering::Acquire) >= PEER_QUEUE_CAP {
            registry.counters.record_dropped_full();
            return;
        }
        let frame = encode_frame(
            &Envelope { job, from, msg },
            registry.my_incarnation,
            peer.incarnation.load(Ordering::Acquire),
            &book,
        );
        if frame.exceeds_limit() {
            // Receivers reject oversize frames and drop the connection;
            // transmitting would only sever the link. Dropping here keeps
            // the Crash-model contract (a lost message, counted).
            registry.counters.record_dropped_full();
            return;
        }
        if let Some(digest_entries) = digest_entries {
            registry
                .counters
                .record_membership_frame(book.len() as u64, digest_entries);
        }
        if is_bound_announce {
            registry.counters.record_bound_broadcast();
        }
        // Success/drop is recorded by the writer thread once the frame
        // actually reaches (or fails to reach) the socket.
        peer.enqueue(frame, &registry.counters);
    }

    /// The readiness barrier: pre-establish a connection to every peer,
    /// waiting up to `timeout` (see [`TcpMesh::ready_and_join`] for the
    /// mechanism). Safe to call again — already-connected peers are
    /// skipped.
    fn ready(&self, timeout: Duration) -> bool {
        self.barrier(timeout, false)
    }

    fn endpoints(&self) -> usize {
        unpoisoned(self.registry.peers.read()).len() + 1
    }

    fn counters(&self) -> &TransportCounters {
        &self.registry.counters
    }
}

impl Drop for TcpMesh {
    fn drop(&mut self) {
        self.registry.shutdown.store(true, Ordering::Release);
        // Wake the acceptor so it observes the flag and exits.
        let _ = TcpStream::connect_timeout(&self.registry.local_addr, CONNECT_TIMEOUT);
        // Writer threads exit once their queue senders drop — with the
        // peer map, when the last reader releases the registry.
    }
}

fn spawn_acceptor(listener: TcpListener, registry: Arc<Registry>, inbox: Sender<Inbound>) {
    std::thread::spawn(move || {
        while !registry.shutdown.load(Ordering::Acquire) {
            match listener.accept() {
                Ok((stream, _)) => {
                    if registry.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    spawn_reader(stream, Arc::clone(&registry), inbox.clone());
                }
                Err(_) => {
                    // Transient accept failures (e.g. ECONNABORTED when a
                    // peer dies mid-handshake — exactly what SIGKILL plans
                    // produce) must not cost us the listener: pause and
                    // keep accepting until shutdown.
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    });
}

/// Read one accepted connection until it ends; then, if it carried a
/// peer's protocol frames, report that peer closed (see the module doc's
/// failure semantics).
fn spawn_reader(stream: TcpStream, registry: Arc<Registry>, inbox: Sender<Inbound>) {
    std::thread::spawn(move || {
        let conn = registry.next_conn.fetch_add(1, Ordering::Relaxed);
        let mut sender = None;
        if read_frames(stream, &registry, &inbox, conn, &mut sender) {
            if let Some(peer) = registry.closed_sender(conn, sender) {
                let _ = inbox.send(Inbound::PeerClosed(peer));
            }
        }
    });
}

/// Serve connection `conn` until it ends. Returns whether it ended from
/// the far side (EOF, a read error, a corrupt frame), rather than by this
/// mesh's shutdown or its node's inbox going away. `sender` tracks the
/// last `(id, incarnation)` a protocol frame was admitted from.
fn read_frames(
    mut stream: TcpStream,
    registry: &Registry,
    inbox: &Sender<Inbound>,
    conn: u64,
    sender: &mut Option<(u32, u32)>,
) -> bool {
    // Periodic read timeouts let the reader notice shutdown even on
    // an idle connection.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 16 * 1024];
    loop {
        if registry.shutdown.load(Ordering::Acquire) {
            return false;
        }
        match stream.read(&mut buf) {
            Ok(0) => return true, // EOF: peer closed
            Ok(n) => {
                decoder.push(&buf[..n]);
                loop {
                    match decoder.try_next() {
                        Ok(Some(WireFrame::Protocol {
                            env,
                            from_incarnation,
                            to_incarnation,
                            book,
                        })) => {
                            // Frames from a sender's previous life are
                            // stale — count and drop, never deliver.
                            if !registry.admit_sender(env.from, from_incarnation) {
                                registry.counters.record_dropped_stale();
                                continue;
                            }
                            if *sender != Some((env.from, from_incarnation)) {
                                *sender = Some((env.from, from_incarnation));
                                registry.claim_connection(env.from, conn);
                            }
                            // The sender's current life is now proven;
                            // tag our own traffic to it accordingly —
                            // even when the frame below turns out to
                            // be addressed to OUR previous life (its
                            // from-tag is truthful regardless).
                            registry.note_sender_life(env.from, from_incarnation);
                            // A live sender's address book teaches us
                            // routes to gossip-discovered members —
                            // valid whichever of our lives the frame
                            // below was addressed to. The sender's
                            // *own* entry is authoritative (the frame
                            // proves its current address and life, so
                            // it may re-point a stale route); relayed
                            // entries only open new routes or raise
                            // incarnation tags.
                            for (id, addr, inc) in book {
                                if id == env.from {
                                    registry.register(id, addr, from_incarnation.max(inc));
                                } else {
                                    registry.learn_peer(id, addr, inc);
                                }
                            }
                            // Frames for another of this node's lives
                            // are stale too.
                            if to_incarnation != registry.my_incarnation {
                                registry.counters.record_dropped_stale();
                                continue;
                            }
                            if inbox.send(Inbound::Frame(env)).is_err() {
                                return false; // local node gone
                            }
                        }
                        Ok(Some(WireFrame::Announce {
                            from,
                            incarnation,
                            job,
                            instance,
                        })) => {
                            if !registry.admit_sender(from, incarnation) {
                                registry.counters.record_dropped_stale();
                                continue;
                            }
                            registry.note_sender_life(from, incarnation);
                            registry.counters.record_announce_recv();
                            registry.surface(Control::Announce {
                                from,
                                job,
                                instance,
                            });
                        }
                        Ok(Some(WireFrame::SubmitJob { job, instance })) => {
                            // A submit client is not a pool member: no
                            // registry entry, no incarnation gate. Keep
                            // its stream so accepted/result frames can
                            // travel back on the same connection.
                            if let Ok(back) = stream.try_clone() {
                                unpoisoned(registry.submitters.lock()).insert(job, back);
                            }
                            registry.surface(Control::Submit { job, instance });
                        }
                        Ok(Some(WireFrame::JobAccepted { .. }))
                        | Ok(Some(WireFrame::JobResult { .. })) => {
                            // Pool nodes never expect these (they flow
                            // gateway -> submit client); tolerate and
                            // drop rather than severing the stream.
                        }
                        Ok(Some(WireFrame::Join(frame))) => {
                            if !registry.admit_sender(frame.from, frame.incarnation) {
                                registry.counters.record_dropped_stale();
                                continue;
                            }
                            // A later life is a restart: `--join` is
                            // refused with `--resume`, so a brand-new
                            // node is always incarnation 0.
                            if frame.incarnation > 0 {
                                registry.counters.record_rejoin();
                            } else {
                                registry.counters.record_join();
                            }
                            // A join IS authoritative for the sender's
                            // address (it announces itself), unlike a
                            // relayed book entry.
                            registry.register(frame.from, frame.addr, frame.incarnation);
                            registry.surface(Control::Join(frame));
                        }
                        Ok(None) => break,
                        Err(_) => {
                            // Corrupt stream: treat the peer as dead.
                            let _ = stream.shutdown(Shutdown::Both);
                            return true;
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return true,
        }
    }
}

/// Build one peer entry: its queue, its shared flags, and its writer
/// thread. The thread exits when the owning [`TcpMesh`] drops (queue
/// disconnects) or the peer is re-registered at a new address (its entry
/// — and queue sender — is replaced).
fn spawn_peer(addr: SocketAddr, incarnation: u32, counters: Arc<TransportCounters>) -> Peer {
    let (queue_tx, queue_rx) = channel();
    let depth = Arc::new(AtomicUsize::new(0));
    let connected = Arc::new(AtomicBool::new(false));
    let writer = Writer {
        addr,
        depth: Arc::clone(&depth),
        connected: Arc::clone(&connected),
        counters,
        conn: None,
        had_connection: false,
        last_attempt: None,
        batch_buf: Vec::new(),
    };
    std::thread::spawn(move || writer.run(queue_rx));
    Peer {
        addr,
        incarnation: Arc::new(AtomicU32::new(incarnation)),
        queue_tx,
        depth,
        connected,
    }
}

/// One peer's writer: owns the outgoing connection and the settlement of
/// every queued frame's depth reservation.
struct Writer {
    addr: SocketAddr,
    depth: Arc<AtomicUsize>,
    connected: Arc<AtomicBool>,
    counters: Arc<TransportCounters>,
    conn: Option<TcpStream>,
    had_connection: bool,
    last_attempt: Option<Instant>,
    /// Reused coalescing buffer: multi-frame batches are gathered here
    /// and flushed with one `write_all`.
    batch_buf: Vec<u8>,
}

impl Writer {
    /// One dial attempt.
    fn dial(&mut self) -> bool {
        self.last_attempt = Some(Instant::now());
        match TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                if self.had_connection {
                    self.counters.record_reconnect();
                }
                self.had_connection = true;
                self.conn = Some(stream);
                self.connected.store(true, Ordering::Release);
                true
            }
            Err(_) => false,
        }
    }

    /// Flush a batch of frames with **one** `write_all`; records each
    /// send plus the flush on success, clears the connection on failure
    /// (the whole batch is lost — caller attributes it). A single-frame
    /// batch writes straight from the frame, skipping the coalescing
    /// copy.
    fn write_batch(&mut self, frames: &[EncodedFrame]) -> bool {
        debug_assert!(!frames.is_empty(), "write_batch requires frames");
        let stream = self.conn.as_mut().expect("write_batch requires a conn");
        let result = if frames.len() == 1 {
            stream.write_all(&frames[0].bytes)
        } else {
            self.batch_buf.clear();
            for frame in frames {
                self.batch_buf.extend_from_slice(&frame.bytes);
            }
            stream.write_all(&self.batch_buf)
        };
        match result {
            Ok(()) => {
                for frame in frames {
                    self.counters
                        .record_send(frame.wire_size, frame.bytes.len());
                }
                self.counters.record_flush(frames.len() as u64);
                true
            }
            Err(_) => {
                self.conn = None;
                self.connected.store(false, Ordering::Release);
                false
            }
        }
    }

    /// Eager pre-establishment: dial with retry until connected or
    /// `deadline`. Waited-out failures are counted as `connect_waits`.
    fn preconnect(&mut self, deadline: Instant) {
        while self.conn.is_none() {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return;
            }
            if self.dial() {
                return;
            }
            self.counters.record_connect_wait();
            std::thread::sleep(PRECONNECT_POLL.min(remaining));
        }
    }

    /// Deliver a freshly dequeued batch of frames in one coalesced write,
    /// or count every one of them dropped, and release their depth
    /// reservations either way. A frame is written at most once: without
    /// a connection the batch gets one backed-off dial, and a batch whose
    /// write fails is lost (the Crash model's lost datagrams) — the next
    /// send dials afresh.
    fn on_frames(&mut self, frames: &[EncodedFrame]) {
        debug_assert!(!frames.is_empty(), "on_frames requires frames");
        let backing_off = self
            .last_attempt
            .is_some_and(|t| t.elapsed() < RECONNECT_BACKOFF);
        let connected = self.conn.is_some() || (!backing_off && self.dial());
        let delivered = connected && self.write_batch(frames);
        for _ in frames {
            if !delivered {
                self.counters.record_dropped_disconnected();
            }
            self.depth.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Serve the queue until it disconnects. The depth counter is
    /// decremented only after a frame's fate is settled (written or
    /// dropped), so `drain` can await the flush.
    fn run(mut self, queue: Receiver<WriterCmd>) {
        while let Ok(cmd) = queue.recv() {
            match cmd {
                WriterCmd::Frame(first) => {
                    // Opportunistic coalescing: greedily take whatever is
                    // *already* queued behind the first frame (up to the
                    // batch cap) and flush it all in one write. Never
                    // waits for more frames, so a lone frame ships
                    // immediately — the max-delay bound is zero.
                    let mut batch = vec![first];
                    let mut deferred_preconnect = None;
                    while batch.len() < BATCH_MAX_FRAMES {
                        match queue.try_recv() {
                            Ok(WriterCmd::Frame(frame)) => batch.push(frame),
                            Ok(WriterCmd::Preconnect { deadline, done }) => {
                                // Keep command order: flush the frames
                                // queued before it first.
                                deferred_preconnect = Some((deadline, done));
                                break;
                            }
                            Err(TryRecvError::Empty | TryRecvError::Disconnected) => break,
                        }
                    }
                    self.on_frames(&batch);
                    if let Some((deadline, done)) = deferred_preconnect {
                        self.preconnect(deadline);
                        let _ = done.send(());
                    }
                }
                WriterCmd::Preconnect { deadline, done } => {
                    self.preconnect(deadline);
                    let _ = done.send(());
                }
            }
        }
    }
}

/// A loopback address that was free a moment ago (bound, read back,
/// released) — for tests that must know a node's port before it binds.
#[cfg(test)]
pub(crate) fn free_addr() -> SocketAddr {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    l.local_addr().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::RecvTimeoutError;

    /// The next frame `rx` delivers within `within`, passing over closes
    /// (the close tests below pin those).
    fn recv_msg(rx: &Receiver<Inbound>, within: Duration) -> Option<Envelope> {
        let end = Instant::now() + within;
        loop {
            match rx.recv_timeout(end.saturating_duration_since(Instant::now())) {
                Ok(Inbound::Frame(env)) => return Some(env),
                Ok(Inbound::PeerClosed(_)) => continue,
                Ok(Inbound::Admit(_)) => panic!("nothing admits jobs here"),
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                    return None
                }
            }
        }
    }

    /// The next peer `rx` reports closed within `within`, passing over
    /// frames.
    fn recv_close(rx: &Receiver<Inbound>, within: Duration) -> Option<u32> {
        let end = Instant::now() + within;
        loop {
            match rx.recv_timeout(end.saturating_duration_since(Instant::now())) {
                Ok(Inbound::PeerClosed(peer)) => return Some(peer),
                Ok(Inbound::Frame(_)) => continue,
                Ok(Inbound::Admit(_)) => panic!("nothing admits jobs here"),
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                    return None
                }
            }
        }
    }

    /// A raw connection to `addr` that has written one protocol frame as
    /// life `incarnation` of node `from`.
    fn speak_as(addr: SocketAddr, from: u32, incarnation: u32) -> TcpStream {
        let mut stream = TcpStream::connect(addr).unwrap();
        let msg = Msg::WorkDeny { incumbent: 1.0 };
        let env = Envelope {
            job: JobId::DEFAULT,
            from,
            msg,
        };
        let frame = encode_frame(&env, incarnation, 0, &[]);
        stream.write_all(&frame.bytes).unwrap();
        stream
    }

    /// A raw connection to `addr` that has written one join frame for
    /// life `incarnation` of node `from`, once `mesh` has taken it in.
    fn join_as(mesh: &TcpMesh, addr: SocketAddr, from: u32, incarnation: u32) -> TcpStream {
        let mut stream = TcpStream::connect(addr).unwrap();
        let join = JoinFrame {
            from,
            incarnation,
            addr: free_addr(),
        };
        stream.write_all(&encode_join(&join).bytes).unwrap();
        let control = mesh.recv_control(Duration::from_secs(5));
        assert_eq!(control, Some(Control::Join(join)));
        stream
    }

    /// How long a test waits to see that no close is reported: longer
    /// than a reader's 200 ms read timeout.
    const NO_CLOSE: Duration = Duration::from_millis(400);

    #[test]
    fn a_reader_reports_a_close_only_after_a_protocol_frame() {
        let addr = free_addr();
        let (mesh, rx) = mesh_at(0, 0, addr, &[]);
        // A dial that never speaks, and a join: no protocol frame, no
        // close.
        drop(TcpStream::connect(addr).unwrap());
        drop(join_as(&mesh, addr, 5, 0));
        assert_eq!(recv_close(&rx, NO_CLOSE), None);
        // A peer mesh that spoke, then went away.
        let addr_b = free_addr();
        let (mesh_b, _rx_b) = mesh_at(1, 0, addr_b, &[(0, addr)]);
        mesh_b.send(JobId::DEFAULT, 1, 0, Msg::WorkRequest { incumbent: 1.0 });
        assert!(recv_msg(&rx, Duration::from_secs(5)).is_some());
        drop(mesh_b);
        assert_eq!(recv_close(&rx, Duration::from_secs(5)), Some(1));
        assert_eq!(recv_close(&rx, NO_CLOSE), None, "one close per connection");
    }

    #[test]
    fn a_submit_stream_never_reports_a_close() {
        let addr = free_addr();
        let (mesh, rx) = mesh_at(0, 0, addr, &[]);
        let instance = ftbb_bnb::AnyInstance::from(ftbb_bnb::MaxSatInstance::generate(6, 12, 9));
        let mut client = TcpStream::connect(addr).unwrap();
        let submit = crate::codec::encode_submit(JobId::from(3), &instance);
        client.write_all(&submit.bytes).unwrap();
        let control = mesh.recv_control(Duration::from_secs(5));
        assert!(
            matches!(control, Some(Control::Submit { .. })),
            "{control:?}"
        );
        drop(client);
        assert_eq!(recv_close(&rx, NO_CLOSE), None);
    }

    #[test]
    fn a_reader_reports_no_close_while_its_mesh_shuts_down() {
        let addr = free_addr();
        let (mesh, rx) = mesh_at(0, 0, addr, &[]);
        let peer = speak_as(addr, 1, 0);
        assert!(recv_msg(&rx, Duration::from_secs(5)).is_some());
        mesh.registry.shutdown.store(true, Ordering::Release);
        drop(peer);
        assert_eq!(recv_close(&rx, NO_CLOSE), None);
    }

    #[test]
    fn a_superseded_connection_reports_no_close() {
        let addr = free_addr();
        let (mesh, rx) = mesh_at(0, 0, addr, &[]);
        let first = speak_as(addr, 1, 0);
        assert!(recv_msg(&rx, Duration::from_secs(5)).is_some());
        let second = speak_as(addr, 1, 0);
        assert!(recv_msg(&rx, Duration::from_secs(5)).is_some());
        drop(first);
        assert_eq!(
            recv_close(&rx, NO_CLOSE),
            None,
            "a newer connection speaks for node 1"
        );
        // Node 1's next life joins: its previous life's connection closes
        // unreported too.
        let join = join_as(&mesh, addr, 1, 1);
        drop(second);
        assert_eq!(recv_close(&rx, NO_CLOSE), None, "a newer life joined");
        drop(join);
        let third = speak_as(addr, 1, 1);
        assert!(recv_msg(&rx, Duration::from_secs(5)).is_some());
        drop(third);
        assert_eq!(recv_close(&rx, Duration::from_secs(5)), Some(1));
    }

    /// A mesh listening on `listen` as `incarnation` of node `me`.
    /// Binding retries for a while: the acceptor thread of a just-dropped
    /// mesh on the same address may hold the listener for a few more
    /// scheduler slices.
    fn mesh_at(
        me: u32,
        incarnation: u32,
        listen: SocketAddr,
        peers: &[(u32, SocketAddr)],
    ) -> (TcpMesh, Receiver<Inbound>) {
        let end = Instant::now() + Duration::from_secs(5);
        let listener = loop {
            match TcpListener::bind(listen) {
                Ok(l) => break l,
                Err(_) if Instant::now() < end => std::thread::sleep(Duration::from_millis(10)),
                Err(e) => panic!("cannot bind {listen}: {e}"),
            }
        };
        TcpMesh::from_listener_incarnated_with(me, incarnation, listener, peers, WireConfig)
            .expect("mesh starts")
    }

    #[test]
    fn a_queued_batch_flushes_in_one_write() {
        use std::io::Read;

        // Drive a Writer directly (no writer thread) so the batch shape
        // is deterministic: ten frames in one `on_frames` call must
        // coalesce into one flush, arrive in order, and settle every
        // depth reservation.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let depth = Arc::new(AtomicUsize::new(11));
        let counters = Arc::new(TransportCounters::default());
        let mut w = Writer {
            addr: listener.local_addr().unwrap(),
            depth: Arc::clone(&depth),
            connected: Arc::new(AtomicBool::new(false)),
            counters: Arc::clone(&counters),
            conn: None,
            had_connection: false,
            last_attempt: None,
            batch_buf: Vec::new(),
        };
        let frames: Vec<EncodedFrame> = (0..10u8)
            .map(|i| EncodedFrame {
                wire_size: 4,
                bytes: vec![i; 4].into(),
            })
            .collect();
        let expected: Vec<u8> = frames.iter().flat_map(|f| f.bytes.to_vec()).collect();
        w.on_frames(&frames);

        let (mut conn, _) = listener.accept().unwrap();
        let mut got = vec![0u8; expected.len()];
        conn.read_exact(&mut got).unwrap();
        assert_eq!(got, expected, "coalescing preserves frame order");

        let stats = counters.snapshot();
        assert_eq!(stats.sent, 10);
        assert_eq!(stats.flushes, 1, "ten frames, one write: {stats:?}");
        assert_eq!(stats.frames_flushed, 10);
        assert!((stats.frames_per_flush() - 10.0).abs() < 1e-9);
        assert_eq!(depth.load(Ordering::Acquire), 1, "batch fully settled");

        // A lone frame ships immediately as its own flush — batching
        // never parks a frame to wait for company.
        w.on_frames(&[EncodedFrame {
            wire_size: 4,
            bytes: vec![99; 4].into(),
        }]);
        let mut one = vec![0u8; 4];
        conn.read_exact(&mut one).unwrap();
        assert_eq!(one, vec![99; 4]);
        let stats = counters.snapshot();
        assert_eq!(stats.flushes, 2);
        assert_eq!(stats.frames_flushed, 11);
        assert_eq!(depth.load(Ordering::Acquire), 0);
    }

    /// Deadline-bounded wait for a counter condition — no fixed sleeps.
    fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
        let end = Instant::now() + deadline;
        loop {
            if cond() {
                return true;
            }
            if Instant::now() >= end {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn two_meshes_exchange_messages() {
        let addr_a = free_addr();
        let addr_b = free_addr();
        let (mesh_a, _rx_a) = mesh_at(0, 0, addr_a, &[(1, addr_b)]);
        let (mesh_b, rx_b) = mesh_at(1, 0, addr_b, &[(0, addr_a)]);

        mesh_a.send(JobId::DEFAULT, 0, 1, Msg::WorkRequest { incumbent: 7.0 });
        let env = recv_msg(&rx_b, Duration::from_secs(5)).expect("message arrives");
        assert_eq!(env.from, 0);
        assert_eq!(env.msg, Msg::WorkRequest { incumbent: 7.0 });

        mesh_b.send(JobId::DEFAULT, 1, 0, Msg::WorkDeny { incumbent: 7.0 });
        // Flushed queues mean settled counters (the drain happy path).
        assert!(mesh_a.drain(Duration::from_secs(5)));
        assert!(mesh_b.drain(Duration::from_secs(5)));
        assert_eq!(mesh_a.stats().sent, 1);
        assert_eq!(mesh_b.stats().sent, 1);
        assert!(mesh_a.stats().sent_encoded_bytes > mesh_a.stats().sent_wire_bytes);
        // First lives both ways: nothing is stale.
        assert_eq!(mesh_a.stats().dropped_stale, 0);
        assert_eq!(mesh_b.stats().dropped_stale, 0);
    }

    #[test]
    fn self_send_delivers_locally() {
        let addr = free_addr();
        let (mesh, rx) = mesh_at(4, 0, addr, &[]);
        mesh.send(JobId::DEFAULT, 4, 4, Msg::WorkDeny { incumbent: 1.0 });
        let env = recv_msg(&rx, Duration::from_secs(1)).expect("self-send arrives");
        assert_eq!(env.from, 4);
        assert_eq!(mesh.stats().sent, 1);
    }

    #[test]
    fn connect_all_waits_for_a_late_listener() {
        let addr_a = free_addr();
        let addr_b = free_addr();
        let (mesh_a, _rx_a) = mesh_at(0, 0, addr_a, &[(1, addr_b)]);

        // Nothing listening yet: a short readiness deadline elapses.
        assert!(!mesh_a.ready(Duration::from_millis(80)));

        // Bring the listener up late, behind the barrier's back.
        let late = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            mesh_at(1, 0, addr_b, &[(0, addr_a)])
        });
        assert!(
            mesh_a.ready(Duration::from_secs(10)),
            "ready() must observe the late listener"
        );
        assert!(
            mesh_a.stats().connect_waits >= 1,
            "waited-out dials must be counted: {:?}",
            mesh_a.stats()
        );

        // Traffic after the barrier flows without a single drop.
        let (_mesh_b, rx_b) = late.join().expect("peer thread");
        mesh_a.send(JobId::DEFAULT, 0, 1, Msg::WorkRequest { incumbent: 4.0 });
        assert!(recv_msg(&rx_b, Duration::from_secs(5)).is_some());
        assert!(mesh_a.drain(Duration::from_secs(5)));
        let stats = mesh_a.stats();
        assert_eq!(stats.sent, 1);
        assert_eq!(stats.dropped(), 0);
    }

    #[test]
    fn sends_to_an_absent_peer_are_counted_drops_not_parked() {
        // The one delivery rule, at startup as in steady state: a frame
        // for a peer that is not connected gets one (paced) dial and is
        // otherwise a counted drop. Nothing is held for a listener that
        // may come up later, so `drain` has no window to wait out.
        let addr_a = free_addr();
        let addr_b = free_addr(); // nothing listens here yet
        let (mesh_a, _rx_a) = mesh_at(0, 0, addr_a, &[(1, addr_b)]);
        for _ in 0..5 {
            mesh_a.send(JobId::DEFAULT, 0, 1, Msg::WorkRequest { incumbent: 0.0 });
        }
        let asked = Instant::now();
        assert!(mesh_a.drain(Duration::from_secs(5)));
        assert!(
            asked.elapsed() < Duration::from_millis(500),
            "drops settle at once: {:?}",
            asked.elapsed()
        );
        let stats = mesh_a.stats();
        assert_eq!(stats.sent, 0);
        assert_eq!(stats.dropped_disconnected, 5, "{stats:?}");
        assert_eq!(stats.dropped(), 5, "one bucket only: {stats:?}");
        assert_eq!((stats.retried, stats.dropped_startup), (0, 0));

        // The dropped frames are gone for good: a listener that comes up
        // afterwards receives only what is sent once it is there.
        let (_mesh_b, rx_b) = mesh_at(1, 0, addr_b, &[(0, addr_a)]);
        assert!(mesh_a.ready(Duration::from_secs(10)));
        mesh_a.send(JobId::DEFAULT, 0, 1, Msg::WorkRequest { incumbent: 7.0 });
        let env = recv_msg(&rx_b, Duration::from_secs(5)).expect("post-barrier frame arrives");
        assert_eq!(env.msg, Msg::WorkRequest { incumbent: 7.0 });
        assert!(recv_msg(&rx_b, Duration::from_millis(100)).is_none());
        assert!(mesh_a.drain(Duration::from_secs(5)));
        assert_eq!(mesh_a.stats().sent, 1);
        assert_eq!(mesh_a.stats().dropped(), 5);
    }

    #[test]
    fn failed_enqueue_releases_the_depth_reservation() {
        // Build a peer whose writer is gone (queue receiver dropped) and
        // enqueue into the void: the depth must come back to zero, or
        // `drain` would spin to timeout forever.
        let (queue_tx, queue_rx) = channel();
        drop(queue_rx);
        let peer = Peer {
            addr: free_addr(),
            incarnation: Arc::new(AtomicU32::new(0)),
            queue_tx,
            depth: Arc::new(AtomicUsize::new(0)),
            connected: Arc::new(AtomicBool::new(false)),
        };
        let counters = TransportCounters::default();
        peer.enqueue(
            EncodedFrame {
                wire_size: 3,
                bytes: vec![1, 2, 3].into(),
            },
            &counters,
        );
        assert_eq!(peer.depth.load(Ordering::Acquire), 0);
        assert_eq!(counters.snapshot().dropped_disconnected, 1);
    }

    #[test]
    fn announce_reaches_every_peer_but_not_the_inbox() {
        let addr_a = free_addr();
        let addr_b = free_addr();
        let addr_c = free_addr();
        let (mesh_a, rx_a) = mesh_at(0, 0, addr_a, &[(1, addr_b), (2, addr_c)]);
        let (mesh_b, rx_b) = mesh_at(1, 0, addr_b, &[(0, addr_a), (2, addr_c)]);
        let (mesh_c, _rx_c) = mesh_at(2, 0, addr_c, &[(0, addr_a), (1, addr_b)]);
        assert!(mesh_a.ready(Duration::from_secs(10)));

        let instance = ftbb_bnb::AnyInstance::from(ftbb_bnb::MaxSatInstance::generate(6, 12, 9));
        assert!(mesh_a.announce_instance(JobId::from(9), &instance));
        assert_eq!(mesh_a.stats().announces_sent, 2);

        for mesh in [&mesh_b, &mesh_c] {
            assert_eq!(
                mesh.recv_control(Duration::from_secs(5)),
                Some(Control::Announce {
                    from: 0,
                    job: JobId::from(9),
                    instance: instance.clone(),
                })
            );
            assert_eq!(mesh.stats().announces_recv, 1);
        }
        // The handshake must not leak into the protocol inbox.
        assert!(recv_msg(&rx_b, Duration::from_millis(100)).is_none());
        // Nor does the announcer hear its own announce.
        assert!(mesh_a.recv_control(Duration::from_millis(100)).is_none());
        drop(rx_a);
    }

    #[test]
    fn a_full_control_queue_sheds_the_overflow_and_still_closes() {
        // Nobody consumes: readers must not stall behind the cap, and
        // closing the stream must not block on it either.
        let (mesh, _rx) = mesh_at(0, 0, free_addr(), &[]);
        let cap = CONTROL_QUEUE_CAP as u32;
        for from in 0..cap + 10 {
            mesh.registry.surface(Control::Join(JoinFrame {
                from,
                incarnation: 0,
                addr: mesh.registry.local_addr,
            }));
        }
        assert_eq!(mesh.control_depth(), CONTROL_QUEUE_CAP);
        assert_eq!(mesh.stats().control_shed, 10, "every frame past the cap");
        mesh.close_control();

        // The oldest frame made room for the wake-up; the rest arrive in
        // order, then the `None` — at once, not after the timeout.
        let asked = Instant::now();
        let mut expected = 1..cap;
        while let Some(control) = mesh.recv_control(Duration::from_secs(30)) {
            let Control::Join(frame) = control else {
                panic!("only joins were queued: {control:?}");
            };
            assert_eq!(Some(frame.from), expected.next());
        }
        assert_eq!(expected.next(), None, "everything queued was delivered");
        assert_eq!(mesh.control_depth(), 0, "each taken frame freed its slot");
        assert!(asked.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn oversize_announce_is_refused_and_counted_not_transmitted() {
        // ~150k nodes encode past MAX_FRAME_PAYLOAD; receivers would
        // reject the frame and drop the connection, so the mesh must
        // refuse to send it (per-peer counted drops) instead.
        let tree = ftbb_tree::generator::random_basic_tree(&ftbb_tree::generator::TreeConfig {
            target_nodes: 150_001,
            ..Default::default()
        });
        let instance = ftbb_bnb::AnyInstance::from(tree);
        assert!(crate::codec::encode_announce(0, 0, JobId::DEFAULT, &instance).exceeds_limit());

        let addr = free_addr();
        let (mesh, _rx) = mesh_at(0, 0, addr, &[(1, free_addr()), (2, free_addr())]);
        assert!(!mesh.announce_instance(JobId::DEFAULT, &instance));
        assert_eq!(mesh.stats().dropped_full, 2);
        assert_eq!(mesh.stats().announces_sent, 0);
        assert_eq!(mesh.stats().sent, 0);
    }

    #[test]
    fn unknown_destination_counts_no_route() {
        let addr = free_addr();
        let (mesh, _rx) = mesh_at(0, 0, addr, &[]);
        mesh.send(JobId::DEFAULT, 0, 9, Msg::WorkRequest { incumbent: 0.0 });
        assert_eq!(mesh.stats().dropped_no_route, 1);
    }

    #[test]
    fn reconnects_after_peer_restart() {
        let addr_a = free_addr();
        let addr_b = free_addr();
        let (mesh_a, _rx_a) = mesh_at(0, 0, addr_a, &[(1, addr_b)]);

        // First incarnation of peer 1, reached through the readiness
        // barrier instead of send-and-hope.
        let (mesh_b, rx_b) = mesh_at(1, 0, addr_b, &[(0, addr_a)]);
        assert!(mesh_a.ready(Duration::from_secs(10)));
        mesh_a.send(JobId::DEFAULT, 0, 1, Msg::WorkRequest { incumbent: 1.0 });
        assert!(recv_msg(&rx_b, Duration::from_secs(5)).is_some());
        drop(rx_b);
        drop(mesh_b);

        // Probe until the stale connection's death is observed — the
        // first writes may still land in the dead socket's buffer, so
        // keep probing under a deadline instead of sleeping blind.
        assert!(
            wait_until(Duration::from_secs(10), || {
                mesh_a.send(JobId::DEFAULT, 0, 1, Msg::WorkRequest { incumbent: 2.0 });
                mesh_a.drain(Duration::from_millis(50));
                mesh_a.stats().dropped_disconnected > 0
            }),
            "no drop recorded while peer down: {:?}",
            mesh_a.stats()
        );

        // Second incarnation on the same address: mesh_a still tags its
        // frames for incarnation 0, so deliveries reach the new listener
        // but must NOT reach its inbox — they belong to the previous
        // life, and are counted as stale drops instead.
        let (mesh_b2, rx_b2) = mesh_at(1, 1, addr_b, &[(0, addr_a)]);
        assert_eq!(mesh_b2.registry.my_incarnation, 1);
        assert!(
            wait_until(Duration::from_secs(10), || {
                mesh_a.send(JobId::DEFAULT, 0, 1, Msg::WorkDeny { incumbent: 3.0 });
                mesh_a.drain(Duration::from_millis(50));
                mesh_b2.stats().dropped_stale > 0
            }),
            "frames addressed to the previous life must be counted stale: {:?}",
            mesh_b2.stats()
        );
        assert!(
            recv_msg(&rx_b2, Duration::from_millis(100)).is_none(),
            "a restarted listener must not receive frames addressed to its previous life"
        );
        assert!(
            mesh_a.stats().reconnects >= 1,
            "reconnect not counted: {:?}",
            mesh_a.stats()
        );

        // Once mesh_a learns the new incarnation (the test wires it
        // directly; daemons learn it from the join frame), deliveries
        // resume.
        mesh_a.registry.register(1, addr_b, 1);
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut delivered = false;
        while Instant::now() < deadline {
            mesh_a.send(JobId::DEFAULT, 0, 1, Msg::WorkDeny { incumbent: 4.0 });
            if let Some(env) = recv_msg(&rx_b2, Duration::from_millis(100)) {
                assert!(matches!(env.msg, Msg::WorkDeny { .. }));
                delivered = true;
                break;
            }
        }
        assert!(delivered, "no delivery after the incarnation was learned");
    }

    #[test]
    fn two_restarted_peers_relearn_each_other_from_ordinary_traffic() {
        // Both nodes are later lives (A is incarnation 2, B incarnation
        // 3) but each was just (re)born assuming incarnation 0 for the
        // other — the double-restart scenario, where no join exchange
        // happened between the two new lives. The first frames cross
        // stale, but every admitted frame proves the sender's current
        // life, so the pair must converge to mutual delivery instead of
        // staying unidirectionally partitioned.
        let addr_a = free_addr();
        let addr_b = free_addr();
        let (mesh_a, rx_a) = mesh_at(11, 2, addr_a, &[(12, addr_b)]);
        let (mesh_b, rx_b) = mesh_at(12, 3, addr_b, &[(11, addr_a)]);
        assert!(mesh_a.ready(Duration::from_secs(10)));
        assert!(mesh_b.ready(Duration::from_secs(10)));

        // Keep probing in both directions until both inboxes deliver.
        let deadline = Instant::now() + Duration::from_secs(10);
        let (mut a_heard, mut b_heard) = (false, false);
        while Instant::now() < deadline && !(a_heard && b_heard) {
            mesh_a.send(JobId::DEFAULT, 11, 12, Msg::WorkRequest { incumbent: 1.0 });
            mesh_b.send(JobId::DEFAULT, 12, 11, Msg::WorkRequest { incumbent: 2.0 });
            b_heard |= recv_msg(&rx_b, Duration::from_millis(50)).is_some();
            a_heard |= recv_msg(&rx_a, Duration::from_millis(50)).is_some();
        }
        assert!(
            a_heard && b_heard,
            "both directions must heal (a_heard={a_heard}, b_heard={b_heard}): A {:?} / B {:?}",
            mesh_a.stats(),
            mesh_b.stats()
        );
        // The healing is visible: at least one side's early frames were
        // counted stale before the incarnations were learned.
        assert!(
            mesh_a.stats().dropped_stale + mesh_b.stats().dropped_stale >= 1,
            "the first crossing frames must have been stale: A {:?} / B {:?}",
            mesh_a.stats(),
            mesh_b.stats()
        );
    }

    /// One frame introduces every node that enters a live mesh: node 7
    /// sends it to server 0 and the server must count it by the
    /// entering life's incarnation, register it and route back to it.
    /// `known`: the server already routes to node 7's first life, which
    /// received traffic and died; `moved`: the entering life binds a new
    /// address.
    fn introduce(known: bool, incarnation: u32, moved: bool, joins: u64, rejoins: u64) {
        let addr_server = free_addr();
        let first_addr = free_addr();
        let roster = if known { vec![(7, first_addr)] } else { vec![] };
        let (server, _rx_server) = mesh_at(0, 0, addr_server, &roster);
        if known {
            let (first_life, rx_first) = mesh_at(7, 0, first_addr, &[(0, addr_server)]);
            assert!(server.ready(Duration::from_secs(10)));
            server.send(JobId::DEFAULT, 0, 7, Msg::WorkRequest { incumbent: 1.0 });
            assert!(recv_msg(&rx_first, Duration::from_secs(5)).is_some());
            drop(first_life);
        }
        let addr = if moved { free_addr() } else { first_addr };
        let (node, rx_node) = mesh_at(7, incarnation, addr, &[(0, addr_server)]);
        assert!(node.ready_and_join(Duration::from_secs(10)));

        let Some(Control::Join(frame)) = server.recv_control(Duration::from_secs(5)) else {
            panic!("join arrives");
        };
        let expected = JoinFrame {
            from: 7,
            incarnation,
            addr,
        };
        assert_eq!(frame, expected);
        let stats = server.stats();
        assert_eq!(
            (stats.joins, stats.rejoins),
            (joins, rejoins),
            "{expected:?}"
        );
        assert_eq!(server.endpoints(), 2, "the entering node is registered");

        // The reverse route reaches the entering life (the membership
        // Welcome travels exactly this way), tagged for it.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut delivered = false;
        while Instant::now() < deadline {
            server.send(JobId::DEFAULT, 0, 7, Msg::WorkDeny { incumbent: 2.0 });
            if recv_msg(&rx_node, Duration::from_millis(100)).is_some() {
                delivered = true;
                break;
            }
        }
        assert!(delivered, "{expected:?} must open the route: {:?}", {
            server.stats()
        });
        assert_eq!(node.stats().dropped_stale, 0, "its frames are not stale");
    }

    #[test]
    fn join_frame_registers_the_newcomer_and_opens_the_reverse_route() {
        // A brand-new node at the address it always had, unknown to a
        // server born with an empty roster: a join.
        introduce(false, 0, false, 1, 0);
    }

    #[test]
    fn rejoin_frame_reregisters_the_peer_and_resumes_delivery() {
        // Node 7 restarted as incarnation 1 on a NEW address, its first
        // life dead: the same frame is a rejoin, and the server's writer
        // must follow it to the new address.
        introduce(true, 1, true, 0, 1);
    }

    #[test]
    fn membership_books_teach_gossip_discovered_peers() {
        use ftbb_gossip::MembershipMsg;
        // A knows B and C; B knows only A. A's membership gossip to B
        // piggybacks A's book, which teaches B a route to C — a peer B
        // has never exchanged wiring with.
        let addr_a = free_addr();
        let addr_b = free_addr();
        let addr_c = free_addr();
        let (mesh_a, _rx_a) = mesh_at(0, 0, addr_a, &[(1, addr_b), (2, addr_c)]);
        let (mesh_b, rx_b) = mesh_at(1, 0, addr_b, &[(0, addr_a)]);
        let (_mesh_c, rx_c) = mesh_at(2, 0, addr_c, &[(0, addr_a)]);
        assert!(mesh_a.ready(Duration::from_secs(10)));
        assert_eq!(
            mesh_b.endpoints(),
            2,
            "B starts knowing only A (and itself)"
        );

        mesh_a.send(
            JobId::DEFAULT,
            0,
            1,
            Msg::Membership(MembershipMsg::Join { member: 0 }),
        );
        assert!(recv_msg(&rx_b, Duration::from_secs(5)).is_some());
        assert_eq!(
            mesh_b.stats().peers_discovered,
            1,
            "C was learned from A's book: {:?}",
            mesh_b.stats()
        );
        assert_eq!(mesh_b.endpoints(), 3);

        // …and the learned route carries traffic.
        mesh_b.send(JobId::DEFAULT, 1, 2, Msg::WorkRequest { incumbent: 4.0 });
        assert!(
            recv_msg(&rx_c, Duration::from_secs(5)).is_some(),
            "B must reach C through the discovered route"
        );

        // Non-membership traffic ships no book: a fresh mesh that only
        // ever saw work traffic discovers nothing.
        mesh_a.send(JobId::DEFAULT, 0, 2, Msg::WorkRequest { incumbent: 1.0 });
        assert!(recv_msg(&rx_c, Duration::from_secs(5)).is_some());
        assert_eq!(_mesh_c.stats().peers_discovered, 0);
    }

    #[test]
    fn senders_own_book_entry_repoints_a_stale_route() {
        use ftbb_gossip::MembershipMsg;
        // C believes A lives at a dead address (e.g. learned from a book
        // that went stale when A moved). A's own membership frame to C
        // carries A's self-entry, which is authoritative: C must
        // re-point its writer to A's real address and deliver again.
        let addr_a_stale = free_addr(); // nothing ever listens here
        let addr_a_real = free_addr();
        let addr_c = free_addr();
        let (mesh_a, rx_a) = mesh_at(0, 0, addr_a_real, &[(2, addr_c)]);
        let (mesh_c, rx_c) = mesh_at(2, 0, addr_c, &[]);
        mesh_c.registry.register(0, addr_a_stale, 0); // the stale route
        assert!(mesh_a.ready(Duration::from_secs(10)));

        mesh_a.send(
            JobId::DEFAULT,
            0,
            2,
            Msg::Membership(MembershipMsg::Join { member: 0 }),
        );
        assert!(recv_msg(&rx_c, Duration::from_secs(5)).is_some());

        // C's writer now points at addr_a_real: traffic flows again.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut delivered = false;
        while Instant::now() < deadline {
            mesh_c.send(JobId::DEFAULT, 2, 0, Msg::WorkDeny { incumbent: 2.0 });
            if recv_msg(&rx_a, Duration::from_millis(100)).is_some() {
                delivered = true;
                break;
            }
        }
        assert!(
            delivered,
            "the sender's own book entry must heal the stale route: {:?}",
            mesh_c.stats()
        );
    }

    #[test]
    fn book_discovered_peers_inherit_the_relayed_incarnation() {
        use ftbb_gossip::MembershipMsg;
        // A knows B is at incarnation 2 (taught directly); C learns B
        // purely from A's book and must tag its first frames for B's
        // CURRENT life, not incarnation 0 — otherwise everything C says
        // until B happens to answer would be dropped as stale.
        let addr_a = free_addr();
        let addr_b = free_addr();
        let addr_c = free_addr();
        let (mesh_a, _rx_a) = mesh_at(0, 0, addr_a, &[(2, addr_c)]);
        mesh_a.registry.register(1, addr_b, 2);
        let (mesh_b, rx_b) = mesh_at(1, 2, addr_b, &[]);
        let (mesh_c, rx_c) = mesh_at(2, 0, addr_c, &[(0, addr_a)]);
        assert!(mesh_a.ready(Duration::from_secs(10)));

        mesh_a.send(
            JobId::DEFAULT,
            0,
            2,
            Msg::Membership(MembershipMsg::Join { member: 0 }),
        );
        assert!(recv_msg(&rx_c, Duration::from_secs(5)).is_some());
        assert_eq!(mesh_c.stats().peers_discovered, 1, "{:?}", mesh_c.stats());

        // C's very first frame to B is admitted by incarnation-2 B.
        mesh_c.send(JobId::DEFAULT, 2, 1, Msg::WorkRequest { incumbent: 1.0 });
        assert!(
            recv_msg(&rx_b, Duration::from_secs(5)).is_some(),
            "frames to a discovered peer must carry its relayed incarnation: {:?}",
            mesh_b.stats()
        );
        assert_eq!(mesh_b.stats().dropped_stale, 0, "{:?}", mesh_b.stats());
    }

    #[test]
    fn membership_book_is_capped_cached_and_rotates() {
        // A 41-member roster is larger than the cap: each frame carries
        // this node's own entry plus a rotating window of 15 others.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peers: Vec<(u32, SocketAddr)> = (1..=40).map(|id| (id, free_addr())).collect();
        let (mesh, _rx) =
            TcpMesh::from_listener_incarnated_with(0, 7, listener, &peers, WireConfig).unwrap();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..3 {
            let book = mesh.registry.membership_book();
            assert_eq!(
                book.len(),
                BOOK_MAX_ENTRIES,
                "every frame carries exactly the cap"
            );
            let me = book.iter().find(|&&(id, _, _)| id == 0);
            assert_eq!(
                me,
                Some(&(0, mesh.registry.local_addr, 7)),
                "own entry always rides, at this life's incarnation"
            );
            assert!(book.windows(2).all(|w| w[0].0 < w[1].0), "sorted by id");
            seen.extend(book.iter().map(|&(id, _, _)| id));
        }
        // Three frames of 1 self + 15 rotated entries cover the whole
        // roster.
        assert_eq!(seen.len(), 41, "rotation covers the roster: {seen:?}");

        // A roster change invalidates the cache: the new peer enters the
        // rotation within one full revolution.
        mesh.registry.register(41, free_addr(), 0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..3 {
            seen.extend(mesh.registry.membership_book().iter().map(|&(id, _, _)| id));
        }
        assert!(seen.contains(&41), "new peer enters the book: {seen:?}");
    }

    #[test]
    fn register_peer_adds_unknown_peers_dynamically() {
        // A mesh born with an empty roster learns a peer at runtime.
        let addr_a = free_addr();
        let addr_b = free_addr();
        let (mesh_a, _rx_a) = mesh_at(0, 0, addr_a, &[]);
        let (_mesh_b, rx_b) = mesh_at(1, 0, addr_b, &[(0, addr_a)]);

        mesh_a.send(JobId::DEFAULT, 0, 1, Msg::WorkRequest { incumbent: 0.0 });
        assert_eq!(
            mesh_a.stats().dropped_no_route,
            1,
            "unknown before registration"
        );
        assert_eq!(mesh_a.endpoints(), 1);

        mesh_a.registry.register(1, addr_b, 0);
        assert_eq!(mesh_a.endpoints(), 2);
        assert!(mesh_a.ready(Duration::from_secs(10)));
        mesh_a.send(JobId::DEFAULT, 0, 1, Msg::WorkRequest { incumbent: 1.0 });
        assert!(recv_msg(&rx_b, Duration::from_secs(5)).is_some());
    }

    #[test]
    fn a_dead_peer_does_not_hold_back_the_join_to_a_live_one() {
        // A restarted node 1 is wired to live node 0 and to node 3, which
        // never comes back. Its barrier waits out the whole budget
        // dialling node 3, but node 0 must get the join as soon as its
        // own connection is up.
        const BUDGET: Duration = Duration::from_secs(3);
        let addr_live = free_addr();
        let addr_node = free_addr();
        let addr_dead = free_addr();
        let (live, _rx_live) = mesh_at(0, 0, addr_live, &[(1, addr_node)]);
        let wiring = [(0, addr_live), (3, addr_dead)];
        let (node, _rx_node) = mesh_at(1, 1, addr_node, &wiring);
        let started = Instant::now();
        let barrier = std::thread::spawn(move || (node.ready_and_join(BUDGET), node));

        let join = live.recv_control(BUDGET);
        let took = started.elapsed();
        assert!(
            matches!(
                join,
                Some(Control::Join(JoinFrame {
                    from: 1,
                    incarnation: 1,
                    ..
                }))
            ),
            "{join:?}"
        );
        assert!(took < BUDGET / 4, "the join took {took:?}");
        let (ready, _node) = barrier.join().expect("barrier thread");
        assert!(!ready, "node 3 never answers");
        assert!(started.elapsed() >= BUDGET, "the barrier waited for node 3");
    }

    #[test]
    fn stale_senders_are_filtered_once_a_newer_life_is_seen() {
        // B has seen A's incarnation 1; a lingering incarnation-0 mesh of
        // A (its previous life's sockets) keeps sending — those frames
        // must be dropped as stale, not delivered.
        let addr_a_old = free_addr();
        let addr_a_new = free_addr();
        let addr_b = free_addr();
        let (mesh_a_old, _rx_old) = mesh_at(3, 0, addr_a_old, &[(4, addr_b)]);
        let (mesh_b, rx_b) = mesh_at(4, 0, addr_b, &[(3, addr_a_old)]);
        assert!(mesh_a_old.ready(Duration::from_secs(10)));

        let (mesh_a_new, _rx_new) = mesh_at(3, 1, addr_a_new, &[(4, addr_b)]);
        assert!(mesh_a_new.ready_and_join(Duration::from_secs(10)));
        assert!(matches!(
            mesh_b.recv_control(Duration::from_secs(5)),
            Some(Control::Join(_))
        ));

        // The previous life keeps talking into its established socket.
        mesh_a_old.send(JobId::DEFAULT, 3, 4, Msg::WorkRequest { incumbent: 9.0 });
        assert!(mesh_a_old.drain(Duration::from_secs(5)));
        assert!(
            wait_until(Duration::from_secs(5), || mesh_b.stats().dropped_stale >= 1),
            "stragglers from the previous life must be counted stale: {:?}",
            mesh_b.stats()
        );
        assert!(
            recv_msg(&rx_b, Duration::from_millis(100)).is_none(),
            "stragglers from the previous life must not be delivered"
        );
    }

    #[test]
    fn a_panic_under_the_peer_map_lock_leaves_the_mesh_working() {
        let addr_a = free_addr();
        let addr_b = free_addr();
        let (mesh_a, _rx_a) = mesh_at(0, 0, addr_a, &[(1, addr_b)]);
        let (_mesh_b, rx_b) = mesh_at(1, 0, addr_b, &[(0, addr_a)]);
        assert!(mesh_a.ready(Duration::from_secs(10)));

        let registry = Arc::clone(&mesh_a.registry);
        let died = std::thread::spawn(move || {
            let _peers = registry.peers.write().unwrap();
            panic!("a thread dies holding the peer map");
        })
        .join();
        assert!(died.is_err());
        assert!(mesh_a.registry.peers.is_poisoned());

        mesh_a.send(JobId::DEFAULT, 0, 1, Msg::WorkRequest { incumbent: 5.0 });
        let env = recv_msg(&rx_b, Duration::from_secs(5)).expect("send still delivers");
        assert_eq!(env.msg, Msg::WorkRequest { incumbent: 5.0 });
        assert!(mesh_a.drain(Duration::from_secs(5)), "drain still settles");
        let stats = mesh_a.stats();
        assert_eq!((stats.sent, stats.dropped()), (1, 0), "{stats:?}");
    }
}
