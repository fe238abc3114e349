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
