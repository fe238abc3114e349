//! The pool of active problems and the Select operator (§2).
//!
//! "Selection may depend on bound values, such as in the best-first
//! selection rule, or not, as in the case of depth-first or breadth-first
//! rules."
//!
//! Every search in this workspace selects depth-first, so the pool is a
//! deque: `pop` takes the newest entry from the back, and
//! [`Pool::split_off`] donates the oldest — typically the shallowest,
//! largest subtrees — from the front.

use std::collections::VecDeque;

/// Which subproblem the Select operator picks next. Depth-first is the
/// only rule; the type remains for callers that still name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectRule {
    /// Most recently inserted first (LIFO) — memory-frugal.
    #[default]
    DepthFirst,
}

/// An entry in the pool.
#[derive(Debug, Clone)]
pub struct PoolEntry<N> {
    /// The subproblem's lower bound (compared with the incumbent).
    pub bound: f64,
    /// Depth in the search tree (informational).
    pub depth: u32,
    /// The subproblem itself.
    pub node: N,
}

/// The pool of active problems: a depth-first deque.
pub struct Pool<N> {
    entries: VecDeque<PoolEntry<N>>,
    peak_len: usize,
}

impl<N> Pool<N> {
    /// An empty pool. The rule argument is ignored: the pool is always
    /// depth-first.
    pub fn new(_rule: SelectRule) -> Self {
        Pool {
            entries: VecDeque::new(),
            peak_len: 0,
        }
    }

    /// Insert a subproblem.
    pub fn push(&mut self, entry: PoolEntry<N>) {
        self.entries.push_back(entry);
        self.peak_len = self.peak_len.max(self.entries.len());
    }

    /// Select and remove the newest subproblem.
    pub fn pop(&mut self) -> Option<PoolEntry<N>> {
        self.entries.pop_back()
    }

    /// Select the next subproblem whose bound can still improve
    /// `incumbent`, lazily discarding provably non-improving entries
    /// (`bound >= incumbent`) into `pruned` in pop order. The caller
    /// decides their fate: the distributed process completes them (their
    /// subtrees count toward termination detection), the sequential
    /// engine just counts them.
    pub fn pop_improving(
        &mut self,
        incumbent: f64,
        pruned: &mut Vec<PoolEntry<N>>,
    ) -> Option<PoolEntry<N>> {
        loop {
            let next = self.pop()?;
            if next.bound >= incumbent {
                pruned.push(next);
            } else {
                return Some(next);
            }
        }
    }

    /// Number of active subproblems.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no subproblems are active.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Largest size the pool ever reached (storage metric).
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Iterate over the pool's entries, oldest first.
    pub fn iter(&self) -> std::collections::vec_deque::Iter<'_, PoolEntry<N>> {
        self.entries.iter()
    }

    /// Remove the oldest `k` entries (all of them if fewer) for donation
    /// to another process, oldest first — the classic work-stealing
    /// choice.
    pub fn split_off(&mut self, k: usize) -> Vec<PoolEntry<N>> {
        let k = k.min(self.entries.len());
        self.entries.drain(..k).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(bound: f64, tag: u32) -> PoolEntry<u32> {
        PoolEntry {
            bound,
            depth: 0,
            node: tag,
        }
    }

    #[test]
    fn depth_first_is_lifo() {
        let mut p = Pool::new(SelectRule::DepthFirst);
        p.push(entry(1.0, 1));
        p.push(entry(2.0, 2));
        p.push(entry(3.0, 3));
        let order: Vec<u32> = std::iter::from_fn(|| p.pop().map(|e| e.node)).collect();
        assert_eq!(order, vec![3, 2, 1]);
    }

    #[test]
    fn split_off_deque_donates_oldest() {
        let mut p = Pool::new(SelectRule::DepthFirst);
        p.push(entry(1.0, 1));
        p.push(entry(2.0, 2));
        p.push(entry(3.0, 3));
        let donated = p.split_off(2);
        let tags: Vec<u32> = donated.iter().map(|e| e.node).collect();
        assert_eq!(tags, vec![1, 2]);
        assert_eq!(p.pop().unwrap().node, 3);
    }

    #[test]
    fn split_off_more_than_len() {
        let mut p = Pool::new(SelectRule::DepthFirst);
        p.push(entry(1.0, 1));
        let donated = p.split_off(10);
        assert_eq!(donated.len(), 1);
        assert!(p.is_empty());
    }

    #[test]
    fn peak_len_tracks_high_water() {
        let mut p = Pool::new(SelectRule::DepthFirst);
        for i in 0..5 {
            p.push(entry(i as f64, i));
        }
        for _ in 0..3 {
            p.pop();
        }
        p.push(entry(9.0, 9));
        assert_eq!(p.peak_len(), 5);
    }

    #[test]
    fn pop_improving_prunes_and_counts() {
        let mut p = Pool::new(SelectRule::DepthFirst);
        for (b, t) in [(6.0, 6), (5.0, 5), (4.0, 4), (2.0, 2), (1.0, 1)] {
            p.push(entry(b, t));
        }
        let mut pruned = Vec::new();
        // Incumbent 3.0: 1 and 2 improve; 4, 5, 6 are dead weight.
        assert_eq!(p.pop_improving(3.0, &mut pruned).unwrap().node, 1);
        assert!(pruned.is_empty());
        assert_eq!(p.pop_improving(3.0, &mut pruned).unwrap().node, 2);
        assert!(pruned.is_empty());
        // Third call drains the non-improving rest in pop order.
        assert!(p.pop_improving(3.0, &mut pruned).is_none());
        let tags: Vec<u32> = pruned.iter().map(|e| e.node).collect();
        assert_eq!(tags, vec![4, 5, 6]);
        assert!(p.is_empty());
    }

    #[test]
    fn pop_improving_deque_scans_in_pop_order() {
        let mut p = Pool::new(SelectRule::DepthFirst);
        for (b, t) in [(1.0, 1), (9.0, 9), (2.0, 2)] {
            p.push(entry(b, t));
        }
        let mut pruned = Vec::new();
        // LIFO: pops 2 (improving), then 9 (pruned), then 1 (improving).
        assert_eq!(p.pop_improving(3.0, &mut pruned).unwrap().node, 2);
        assert_eq!(p.pop_improving(3.0, &mut pruned).unwrap().node, 1);
        assert_eq!(pruned.len(), 1);
        assert_eq!(pruned[0].node, 9);
    }

    #[test]
    fn iter_visits_every_entry_without_boxing() {
        let mut p = Pool::new(SelectRule::DepthFirst);
        for i in 0..7 {
            p.push(entry(i as f64, i));
        }
        let tags: Vec<u32> = p.iter().map(|e| e.node).collect();
        assert_eq!(tags, (0..7).collect::<Vec<_>>());
        assert_eq!(p.iter().len(), 7);
    }

    /// Randomized interleaving of push / pop / split_off / pop_improving
    /// against a reference `Vec` model: the deque must agree with the
    /// model at every step.
    #[test]
    fn deque_matches_reference_model() {
        // Deterministic LCG; no external rand needed here.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut pool: Pool<u32> = Pool::new(SelectRule::DepthFirst);
        // Model: (bound, tag), oldest first; the newest is last.
        let mut model: Vec<(f64, u32)> = Vec::new();
        let mut peak = 0;
        for step in 0..4000u32 {
            match rng() % 10 {
                0..=5 => {
                    // Push, with deliberately clustered bounds for ties.
                    let bound = (rng() % 50) as f64;
                    pool.push(entry(bound, step));
                    model.push((bound, step));
                    peak = peak.max(model.len());
                }
                6 | 7 => {
                    let got = pool.pop().map(|e| e.node);
                    let want = model.pop().map(|m| m.1);
                    assert_eq!(got, want, "pop diverged at step {step}");
                }
                8 => {
                    let k = (rng() % 4) as usize;
                    let got: Vec<u32> = pool.split_off(k).iter().map(|e| e.node).collect();
                    let take = k.min(model.len());
                    let want: Vec<u32> = model.drain(..take).map(|m| m.1).collect();
                    assert_eq!(got, want, "split_off diverged at step {step}");
                }
                _ => {
                    let mut pruned = Vec::new();
                    let cutoff = (rng() % 50) as f64;
                    let got = pool.pop_improving(cutoff, &mut pruned).map(|e| e.node);
                    let mut want = None;
                    let mut want_pruned = Vec::new();
                    while let Some(m) = model.pop() {
                        if m.0 >= cutoff {
                            want_pruned.push(m.1);
                        } else {
                            want = Some(m.1);
                            break;
                        }
                    }
                    assert_eq!(got, want, "pop_improving diverged at step {step}");
                    let got_pruned: Vec<u32> = pruned.iter().map(|e| e.node).collect();
                    assert_eq!(got_pruned, want_pruned);
                }
            }
            assert_eq!(pool.len(), model.len());
            assert_eq!(pool.peak_len(), peak);
            let contents: Vec<u32> = pool.iter().map(|e| e.node).collect();
            let want: Vec<u32> = model.iter().map(|m| m.1).collect();
            assert_eq!(contents, want, "contents diverged at step {step}");
        }
    }
}
