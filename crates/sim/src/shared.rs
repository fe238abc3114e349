//! State shared by all simulated processes: the network, the redundancy
//! oracle, and system-wide storage accounting.
//!
//! The DES is single-threaded, so sharing is a plain `Rc<RefCell<…>>`.
//!
//! The two maps keyed by [`Code`] hash with `FxHasher`, not the
//! standard library's SipHash. Every expansion looks its code up in the
//! redundancy oracle and every storage sample updates one entry per code
//! of two tables; with SipHash, hashing took a tenth of a hundred-process
//! run's time. SipHash's resistance to chosen keys buys nothing here: the
//! keys are the simulation's own codes. Neither map is ever iterated, so
//! the hasher cannot change any output.

use ftbb_des::SimTime;
use ftbb_net::Network;
use ftbb_tree::Code;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The Fx hash (Firefox, rustc): per word, rotate, xor and multiply.
/// A [`Code`] hashes as a length and then a `u16` and a `u8` per
/// decision, so a word at a time is all it needs.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    fn finish(&self) -> u64 {
        // The multiply leaves its best bits at the top; the table indexes
        // by the low ones.
        self.hash.rotate_left(26)
    }
}

pub(crate) type CodeHash = BuildHasherDefault<FxHasher>;

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
    pub(crate) expanded_global: HashSet<Code, CodeHash>,
    /// Expansions of a code some process had already expanded.
    pub redundant_expansions: u64,
    /// Latest table snapshot (minimal codes) per process.
    table_codes: Vec<Vec<Code>>,
    /// Latest pool+fresh wire bytes per process.
    aux_bytes: Vec<usize>,
    /// How many of the latest table snapshots hold each code (a code no
    /// snapshot holds has no entry). Only looked up, never iterated.
    holders: HashMap<Code, u32, CodeHash>,
    /// Σ wire bytes of the latest table snapshots.
    table_bytes: usize,
    /// Σ wire bytes of the distinct codes in those snapshots.
    distinct_bytes: usize,
    /// Σ `aux_bytes`.
    aux_total: usize,
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
            expanded_global: HashSet::default(),
            redundant_expansions: 0,
            table_codes: vec![Vec::new(); nprocs],
            aux_bytes: vec![0; nprocs],
            holders: HashMap::default(),
            table_bytes: 0,
            distinct_bytes: 0,
            aux_total: 0,
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
    /// bytes of its pool and pending-report codes. The totals are kept by
    /// delta: a sample costs a hash-map update per code of this table and
    /// of the process's previous one, and a new peak costs nothing more.
    pub fn sample_storage(&mut self, pid: usize, table_codes: Vec<Code>, aux: usize) {
        // Count the new snapshot in before the old one out, so a code
        // held in both never drops to zero holders and leaves the map.
        for code in &table_codes {
            let size = code.wire_size();
            self.table_bytes += size;
            match self.holders.get_mut(code) {
                Some(n) => *n += 1,
                None => {
                    self.holders.insert(code.clone(), 1);
                    self.distinct_bytes += size;
                }
            }
        }
        let old = std::mem::replace(&mut self.table_codes[pid], table_codes);
        self.forget_table(old);
        self.aux_total = self.aux_total - self.aux_bytes[pid] + aux;
        self.aux_bytes[pid] = aux;
        let sum = self.table_bytes + self.aux_total;
        if sum > self.peak_storage_sum {
            self.peak_storage_sum = sum;
            // Bytes of codes stored at more than one site.
            self.peak_storage_redundant = self.table_bytes - self.distinct_bytes;
        }
    }

    /// Take one table snapshot's codes out of the storage totals.
    fn forget_table(&mut self, codes: Vec<Code>) {
        for code in codes {
            let size = code.wire_size();
            self.table_bytes -= size;
            let n = self
                .holders
                .get_mut(&code)
                .expect("a snapshot's codes are counted");
            *n -= 1;
            if *n == 0 {
                self.holders.remove(&code);
                self.distinct_bytes -= size;
            }
        }
    }

    /// Record that `pid` expanded `code`; returns true if it was redundant.
    pub fn record_expansion(&mut self, code: Code) -> bool {
        if self.expanded_global.insert(code) {
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
        let table = std::mem::take(&mut self.table_codes[pid]);
        self.forget_table(table);
        self.aux_total -= std::mem::take(&mut self.aux_bytes[pid]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbb_net::NetworkConfig;
    use std::collections::BTreeSet;

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

    /// The accounting before it kept totals by delta: every sample sums
    /// every table, and a new peak builds the set of distinct codes.
    struct Recount {
        tables: Vec<Vec<Code>>,
        aux: Vec<usize>,
        peak_sum: usize,
        peak_redundant: usize,
    }

    impl Recount {
        fn tables_and_distinct(&self) -> (usize, usize) {
            let wire = |codes: &[Code]| codes.iter().map(|c| c.wire_size()).sum::<usize>();
            let tables = self.tables.iter().map(|c| wire(c)).sum();
            let distinct: BTreeSet<&Code> = self.tables.iter().flatten().collect();
            (tables, distinct.iter().map(|c| c.wire_size()).sum())
        }

        fn sample(&mut self, pid: usize, codes: Vec<Code>, aux: usize) {
            self.tables[pid] = codes;
            self.aux[pid] = aux;
            let (tables, distinct) = self.tables_and_distinct();
            let sum = tables + self.aux.iter().sum::<usize>();
            if sum > self.peak_sum {
                self.peak_sum = sum;
                self.peak_redundant = tables.saturating_sub(distinct);
            }
        }

        fn crash(&mut self, pid: usize) {
            self.tables[pid].clear();
            self.aux[pid] = 0;
        }
    }

    #[test]
    fn delta_accounting_matches_a_full_recount() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        for seed in 0..16 {
            let mut rng = SmallRng::seed_from_u64(seed);
            // A small pool of codes, some 16 decisions deep, so the
            // processes' tables overlap heavily.
            let pool: Vec<Code> = (0..24)
                .map(|_| {
                    let depth = rng.gen_range(0..=16);
                    let pairs: Vec<_> = (0..depth)
                        .map(|_| (rng.gen_range(0..6), rng.gen_bool(0.5)))
                        .collect();
                    Code::from_decisions(&pairs)
                })
                .collect();
            let n = 5;
            let mut s = shared(n);
            let mut r = Recount {
                tables: vec![Vec::new(); n],
                aux: vec![0; n],
                peak_sum: 0,
                peak_redundant: 0,
            };
            let mut pid = 0;
            for step in 0..400 {
                // Often the same process again; sometimes a crash, after
                // which that process may still be sampled.
                if rng.gen_bool(0.6) {
                    pid = rng.gen_range(0..n);
                }
                if rng.gen_bool(0.1) {
                    s.record_crash(pid, SimTime::from_millis(step));
                    r.crash(pid);
                } else {
                    let len = if rng.gen_bool(0.15) {
                        0
                    } else {
                        rng.gen_range(1..=8)
                    };
                    let codes: Vec<Code> = (0..len)
                        .map(|_| pool[rng.gen_range(0..pool.len())].clone())
                        .collect();
                    let aux = rng.gen_range(0..64);
                    s.sample_storage(pid, codes.clone(), aux);
                    r.sample(pid, codes, aux);
                }
                let at = format!("seed {seed}, step {step}");
                assert_eq!(s.peak_storage_sum, r.peak_sum, "{at}");
                assert_eq!(s.peak_storage_redundant, r.peak_redundant, "{at}");
                let now = r.tables_and_distinct();
                assert_eq!((s.table_bytes, s.distinct_bytes), now, "{at}");
                assert_eq!(s.aux_total, r.aux.iter().sum::<usize>(), "{at}");
            }
        }
    }

    #[test]
    fn redundancy_oracle() {
        let mut s = shared(1);
        let c = Code::from_decisions(&[(1, true)]);
        assert!(!s.record_expansion(c.clone()));
        assert!(s.record_expansion(c));
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
