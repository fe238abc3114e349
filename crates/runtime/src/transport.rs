//! Message transports: the [`Transport`] abstraction and the in-process
//! crossbeam-channel mesh.
//!
//! A transport delivers [`Envelope`]s between numbered endpoints under the
//! paper's Crash failure model: sends to dead or unknown destinations are
//! *silently dropped* (the protocol tolerates lost messages by design),
//! but never silently *un*counted — every attempt lands in the transport's
//! [`TransportCounters`]. The same pump ([`crate::ServiceEngine`]) drives
//! the protocol over any transport: the in-process [`Mesh`] here, or
//! `ftbb-wire`'s TCP mesh across real OS processes.

use crossbeam::channel::{unbounded, Receiver, Sender, TrySendError};
use ftbb_core::{JobId, Msg, TransportCounters, TransportStats};
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

/// The in-process mesh: one unbounded channel per node.
pub struct Mesh {
    senders: Vec<Sender<Envelope>>,
    counters: TransportCounters,
}

impl Mesh {
    /// Build a mesh for `n` nodes; returns the mesh and each node's inbox.
    pub fn new(n: usize) -> (Mesh, Vec<Receiver<Envelope>>) {
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        (
            Mesh {
                senders,
                counters: TransportCounters::default(),
            },
            receivers,
        )
    }

    /// Number of endpoints.
    pub fn len(&self) -> usize {
        self.senders.len()
    }

    /// True if the mesh has no endpoints.
    pub fn is_empty(&self) -> bool {
        self.senders.is_empty()
    }

    /// Send a message; silently drops (but counts) if the destination has
    /// shut down — crashed or terminated nodes close their inbox, exactly
    /// the lost-message behaviour the protocol tolerates.
    pub fn send(&self, job: JobId, from: u32, to: u32, msg: Msg) {
        let Some(tx) = self.senders.get(to as usize) else {
            self.counters.record_dropped_no_route();
            return;
        };
        let wire = msg.wire_size();
        match tx.try_send(Envelope { job, from, msg }) {
            // No frame encoding in-process: encoded == estimated bytes.
            Ok(()) => self.counters.record_send(wire, wire),
            Err(TrySendError::Full(_)) => self.counters.record_dropped_full(),
            Err(TrySendError::Disconnected(_)) => self.counters.record_dropped_disconnected(),
        }
    }
}

impl Transport for Mesh {
    fn send(&self, job: JobId, from: u32, to: u32, msg: Msg) {
        Mesh::send(self, job, from, to, msg);
    }

    fn endpoints(&self) -> usize {
        self.len()
    }

    fn counters(&self) -> &TransportCounters {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_routes_messages() {
        let (mesh, rxs) = Mesh::new(2);
        mesh.send(
            JobId(9),
            0,
            1,
            Msg::WorkDeny {
                incumbent: f64::INFINITY,
            },
        );
        let env = rxs[1].try_recv().unwrap();
        assert_eq!(env.from, 0);
        assert_eq!(env.job, JobId(9), "the job stamp rides the envelope");
        assert!(matches!(env.msg, Msg::WorkDeny { .. }));
        let stats = mesh.stats();
        assert_eq!(stats.sent, 1);
        assert_eq!(stats.sent_wire_bytes, 9);
        assert_eq!(stats.dropped(), 0);
    }

    #[test]
    fn send_to_dead_endpoint_is_silent_but_counted() {
        let (mesh, rxs) = Mesh::new(2);
        drop(rxs); // all inboxes closed
        mesh.send(
            JobId::DEFAULT,
            0,
            1,
            Msg::WorkDeny {
                incumbent: f64::INFINITY,
            },
        );
        // no panic, and the drop is visible in the counters
        assert_eq!(mesh.len(), 2);
        let stats = mesh.stats();
        assert_eq!(stats.sent, 0);
        assert_eq!(stats.dropped_disconnected, 1);
    }

    #[test]
    fn send_to_unknown_endpoint_counts_no_route() {
        let (mesh, _rxs) = Mesh::new(1);
        mesh.send(JobId::DEFAULT, 0, 7, Msg::WorkRequest { incumbent: 1.0 });
        assert_eq!(mesh.stats().dropped_no_route, 1);
    }

    #[test]
    fn mesh_is_a_transport_object() {
        let (mesh, rxs) = Mesh::new(2);
        let t: &dyn Transport = &mesh;
        t.send(JobId::DEFAULT, 1, 0, Msg::WorkRequest { incumbent: 2.0 });
        assert_eq!(t.endpoints(), 2);
        assert!(rxs[0].try_recv().is_ok());
        assert_eq!(t.stats().sent, 1);
    }

    #[test]
    fn in_process_mesh_is_born_ready() {
        let (mesh, _rxs) = Mesh::new(3);
        let start = std::time::Instant::now();
        assert!(mesh.ready(Duration::from_secs(60)));
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "default ready() must not block"
        );
    }
}
