//! Traffic accounting: messages and bytes, per process and total.
//!
//! Feeds the paper's communication metrics: Table 1's "Communication
//! (MB/hour/processor)" column and Figure 4's communication curve.

use ftbb_des::{ProcId, SimTime};
use serde::{Deserialize, Serialize};

/// Cumulative traffic counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NetStats {
    /// Messages handed to the network.
    pub messages_sent: u64,
    /// Messages actually delivered.
    pub messages_delivered: u64,
    /// Messages dropped by the loss model.
    pub messages_lost: u64,
    /// Messages dropped by a partition.
    pub messages_partitioned: u64,
    /// Total payload bytes handed to the network.
    pub bytes_sent: u64,
    /// Per-process bytes sent (indexed by process id).
    pub bytes_sent_by: Vec<u64>,
    /// Per-process messages sent.
    pub messages_sent_by: Vec<u64>,
}

impl NetStats {
    /// Create counters for `nprocs` processes.
    pub fn new(nprocs: usize) -> Self {
        NetStats {
            bytes_sent_by: vec![0; nprocs],
            messages_sent_by: vec![0; nprocs],
            ..Default::default()
        }
    }

    pub(crate) fn on_send(&mut self, from: ProcId, bytes: usize) {
        self.messages_sent += 1;
        self.bytes_sent += bytes as u64;
        if let Some(b) = self.bytes_sent_by.get_mut(from.index()) {
            *b += bytes as u64;
        }
        if let Some(m) = self.messages_sent_by.get_mut(from.index()) {
            *m += 1;
        }
    }

    /// Megabytes sent in total (SI: 1 MB = 1e6 bytes, matching the paper's
    /// coarse reporting granularity).
    pub fn total_mb(&self) -> f64 {
        self.bytes_sent as f64 / 1e6
    }

    /// The paper's Table 1 communication metric: MB per hour per processor.
    pub fn mb_per_hour_per_proc(&self, exec: SimTime, nprocs: usize) -> f64 {
        let hours = exec.as_hours_f64();
        if hours <= 0.0 || nprocs == 0 {
            return 0.0;
        }
        self.total_mb() / hours / nprocs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting() {
        let mut s = NetStats::new(2);
        s.on_send(ProcId(0), 100);
        s.on_send(ProcId(1), 50);
        s.on_send(ProcId(0), 25);
        assert_eq!(s.messages_sent, 3);
        assert_eq!(s.bytes_sent, 175);
        assert_eq!(s.bytes_sent_by, vec![125, 50]);
        assert_eq!(s.messages_sent_by, vec![2, 1]);
    }

    #[test]
    fn mb_per_hour_per_proc() {
        let mut s = NetStats::new(4);
        for _ in 0..10 {
            s.on_send(ProcId(0), 1_000_000); // 1 MB each
        }
        // 10 MB over 2 hours over 4 procs = 1.25 MB/h/proc.
        let v = s.mb_per_hour_per_proc(SimTime::from_secs(7200), 4);
        assert!((v - 1.25).abs() < 1e-9);
    }

    #[test]
    fn degenerate_rates() {
        let s = NetStats::new(1);
        assert_eq!(s.mb_per_hour_per_proc(SimTime::ZERO, 1), 0.0);
    }
}
