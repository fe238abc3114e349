//! State shared by all simulated processes: the network, the redundancy
//! oracle, and system-wide storage accounting.
//!
//! The DES is single-threaded, so sharing is a plain `Rc<RefCell<…>>`.

use ftbb_des::SimTime;
use ftbb_net::Network;
use ftbb_tree::Code;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashSet};

/// Overhead model: how much process time the protocol machinery costs.
/// These are the knobs behind the paper's Figure 3 cost breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverheadModel {
    /// Seconds of list-contraction work per code processed during a merge
    /// (receiving a work report requires a contraction pass, §6.3.1).
    pub contract_per_code_s: f64,
    /// Fraction of a message's network latency charged to the sender as
    /// busy "communication time" (1.0 reproduces the paper's model, where
    /// the sender pays `1.5 + 0.005·L` ms per message).
    pub send_busy_factor: f64,
    /// Fixed receive-processing overhead per message, in seconds.
    pub recv_fixed_s: f64,
}

impl OverheadModel {
    /// Messages cost neither their sender nor their receiver any time.
    pub const ZERO: OverheadModel = OverheadModel {
        contract_per_code_s: 0.0,
        send_busy_factor: 0.0,
        recv_fixed_s: 0.0,
    };
}

impl Default for OverheadModel {
    fn default() -> Self {
        OverheadModel {
            contract_per_code_s: 100e-6,
            send_busy_factor: 1.0,
            recv_fixed_s: 20e-6,
        }
    }
}

/// Mutable state shared by every simulated process.
pub struct Shared {
    /// The network model (latency, loss, partitions, traffic stats).
    pub net: Network,
    /// Every code ever expanded anywhere — the redundancy oracle.
    pub expanded_global: HashSet<Code>,
    /// Expansions of a code some process had already expanded.
    pub redundant_expansions: u64,
    /// Latest table snapshot (minimal codes) per process.
    pub table_codes: Vec<Vec<Code>>,
    /// Latest pool+fresh wire bytes per process.
    pub aux_bytes: Vec<usize>,
    /// Peak of the summed storage (wire bytes of tables + aux).
    pub peak_storage_sum: usize,
    /// Duplicated information at the peak: bytes of table codes stored at
    /// more than one site (`Σ tables − distinct codes`).
    pub peak_storage_redundant: usize,
    /// Halt (termination-detected) time per process.
    pub halted_at: Vec<Option<SimTime>>,
    /// Crash time per process.
    pub crashed_at: Vec<Option<SimTime>>,
    /// Earliest termination detection.
    pub first_detection: Option<SimTime>,
    /// The overhead model.
    pub overheads: OverheadModel,
}

impl Shared {
    /// Fresh shared state for `nprocs` processes.
    pub fn new(net: Network, nprocs: usize, overheads: OverheadModel) -> Self {
        Shared {
            net,
            expanded_global: HashSet::new(),
            redundant_expansions: 0,
            table_codes: vec![Vec::new(); nprocs],
            aux_bytes: vec![0; nprocs],
            peak_storage_sum: 0,
            peak_storage_redundant: 0,
            halted_at: vec![None; nprocs],
            crashed_at: vec![None; nprocs],
            first_detection: None,
            overheads,
        }
    }

    /// Record a storage sample for one process and update the peaks.
    /// `table_codes` is the process's contracted table; `aux` the wire
    /// bytes of its pool and pending-report codes.
    pub fn sample_storage(&mut self, pid: usize, table_codes: Vec<Code>, aux: usize) {
        self.table_codes[pid] = table_codes;
        self.aux_bytes[pid] = aux;
        let wire = |codes: &[Code]| codes.iter().map(|c| c.wire_size()).sum::<usize>();
        let tables: usize = self.table_codes.iter().map(|c| wire(c)).sum();
        let sum = tables + self.aux_bytes.iter().sum::<usize>();
        if sum > self.peak_storage_sum {
            self.peak_storage_sum = sum;
            // Bytes of codes stored at more than one site.
            let distinct: BTreeSet<&Code> = self.table_codes.iter().flatten().collect();
            let distinct_bytes: usize = distinct.iter().map(|c| c.wire_size()).sum();
            self.peak_storage_redundant = tables.saturating_sub(distinct_bytes);
        }
    }

    /// Record that `pid` expanded `code`; returns true if it was redundant.
    pub fn record_expansion(&mut self, code: &Code) -> bool {
        if self.expanded_global.insert(code.clone()) {
            false
        } else {
            self.redundant_expansions += 1;
            true
        }
    }

    /// Record a termination detection.
    pub fn record_halt(&mut self, pid: usize, at: SimTime) {
        self.halted_at[pid] = Some(at);
        if self.first_detection.is_none() {
            self.first_detection = Some(at);
        }
    }

    /// Record a crash.
    pub fn record_crash(&mut self, pid: usize, at: SimTime) {
        self.crashed_at[pid] = Some(at);
        self.table_codes[pid].clear();
        self.aux_bytes[pid] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbb_net::NetworkConfig;

    fn shared(n: usize) -> Shared {
        Shared::new(
            Network::new(NetworkConfig::paper(), n),
            n,
            OverheadModel::default(),
        )
    }

    #[test]
    fn storage_peak_tracking() {
        let mut s = shared(2);
        let code = Code::from_decisions(&[(1, true)]); // 4 wire bytes
        s.sample_storage(0, vec![code.clone()], 100);
        s.sample_storage(1, vec![code.clone()], 50);
        assert_eq!(s.peak_storage_sum, 158);
        // Both procs store the same code: its bytes count as redundant once.
        assert_eq!(s.peak_storage_redundant, 4);
        s.sample_storage(0, vec![], 0);
        assert_eq!(s.peak_storage_sum, 158); // peak retained
    }

    #[test]
    fn redundancy_oracle() {
        let mut s = shared(1);
        let c = Code::from_decisions(&[(1, true)]);
        assert!(!s.record_expansion(&c));
        assert!(s.record_expansion(&c));
        assert_eq!(s.redundant_expansions, 1);
    }

    #[test]
    fn first_detection_is_earliest() {
        let mut s = shared(3);
        s.record_halt(1, SimTime::from_secs(5));
        s.record_halt(0, SimTime::from_secs(9));
        assert_eq!(s.first_detection, Some(SimTime::from_secs(5)));
    }
}
