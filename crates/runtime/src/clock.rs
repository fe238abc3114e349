//! Where the pump reads time. On the wall clock time passes by itself; a
//! virtual clock moves only when its driver moves it to an event's time,
//! and by the summed [`WorkUnit::cost`] of each unit the pump runs.

use ftbb_core::{AnyExpander, Expander, WorkUnit};
use ftbb_des::SimTime;
use ftbb_tree::Code;
use std::time::{Duration, Instant};

/// Expansions between two reads of the wall clock inside a unit.
pub(crate) const DEADLINE_POLL: u64 = 64;

/// `d` in nanoseconds, saturating at [`SimTime::MAX`].
pub(crate) fn sim_time(d: Duration) -> SimTime {
    SimTime::from_nanos(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
}

/// A pump's clock: wall time since an instant, or virtual time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Clock {
    Wall(Instant),
    Virtual(SimTime),
}

impl Clock {
    /// Time since the pump started.
    pub(crate) fn now(&self) -> SimTime {
        match *self {
            Clock::Wall(epoch) => sim_time(epoch.elapsed()),
            Clock::Virtual(now) => now,
        }
    }

    /// One work unit below `code` ([`Expander::explore`]) for at most
    /// `budget` of this clock's time: on the wall clock until the budget
    /// has passed, read every [`DEADLINE_POLL`] expansions; on a virtual
    /// clock until the unit's summed cost reaches it, which then advances
    /// the clock.
    pub(crate) fn explore(
        &mut self,
        expander: &mut AnyExpander,
        code: &Code,
        incumbent: f64,
        budget: Duration,
    ) -> WorkUnit {
        match self {
            Clock::Wall(_) => {
                let deadline = Instant::now() + budget;
                let mut keep_going = |expanded: u64, _| {
                    !expanded.is_multiple_of(DEADLINE_POLL) || Instant::now() < deadline
                };
                expander.explore(code, incumbent, &mut keep_going)
            }
            Clock::Virtual(now) => {
                let budget = budget.as_secs_f64();
                let unit = expander.explore(code, incumbent, &mut |_, cost| cost < budget);
                *now += SimTime::from_secs_f64(unit.cost);
                unit
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbb_bnb::{AnyInstance, BasicTreeProblem, SolveConfig, SolveResult};
    use ftbb_tree::{random_basic_tree, BasicTree, TreeConfig};

    /// A random basic tree with its depth-first engine solve.
    fn dfs_tree(seed: u64) -> (BasicTree, SolveResult) {
        let tree = random_basic_tree(&TreeConfig {
            target_nodes: 3001,
            seed,
            ..Default::default()
        });
        let solved = ftbb_bnb::solve(
            &BasicTreeProblem::new(tree.clone()),
            &SolveConfig::default(),
        );
        (tree, solved)
    }

    fn replay(tree: BasicTree) -> AnyExpander {
        AnyExpander::new(AnyInstance::from(tree))
    }

    #[test]
    fn an_unbounded_wall_clock_unit_is_the_engine_solve() {
        let (tree, solved) = dfs_tree(3);
        let mut inline = replay(tree.clone());
        let want = Expander::explore(&mut inline, &Code::root(), f64::INFINITY, &mut |_, _| true);
        assert_eq!(want.done, vec![Code::root()]);
        assert!(want.frontier.is_empty());
        assert_eq!(want.expanded, solved.stats.expanded);
        assert_eq!(want.solution, solved.best);
        assert_eq!(want.cost, solved.stats.total_cost);

        let hour = Duration::from_secs(3600);
        let mut clock = Clock::Wall(Instant::now());
        let got = clock.explore(&mut replay(tree), &Code::root(), f64::INFINITY, hour);
        assert_eq!(got, want);
    }

    #[test]
    fn a_zero_budget_wall_clock_unit_stops_at_the_first_clock_read() {
        let (tree, _) = dfs_tree(8);
        let mut inline = replay(tree.clone());
        let mut first_read = |n: u64, _| !n.is_multiple_of(DEADLINE_POLL);
        let root = Expander::explore(&mut inline, &Code::root(), f64::INFINITY, &mut first_read);
        assert_eq!(root.expanded, DEADLINE_POLL, "the tree outlasts one poll");

        let mut walled = replay(tree);
        let mut clock = Clock::Wall(Instant::now());
        let frontier = root.frontier.iter().map(|(code, _)| code.clone());
        for code in std::iter::once(Code::root()).chain(frontier) {
            let got = clock.explore(&mut walled, &code, f64::INFINITY, Duration::ZERO);
            let want = Expander::explore(&mut inline, &code, f64::INFINITY, &mut first_read);
            assert_eq!(got, want, "code {code}");
        }
    }
}
