//! Seeded instance search and the sequential reference.
//!
//! A generated knapsack or MAX-SAT instance can take a hundred or ten
//! million expansions depending on its seed, so a workload does not name an
//! instance but a *band* of sequential depth-first expansion counts. The
//! benchmark seed `S` selects candidates `1000·S + i`, `i = 0, 1, …`; each
//! is solved with the sequential engine (the selection rule the nodes use,
//! capped just above the band) and the first inside the band is taken, so
//! every seed gives a comparably sized tree. The program under test never
//! sees the search: `ftbb-noded` receives only the chosen `--problem-*`
//! flags.

use ftbb_bnb::{solve, AnyInstance, Correlation, SelectRule, SolveConfig, SolveResult, SolveStats};
use ftbb_wire::{KnapsackSpec, MaxSatSpec, ProblemSpec};

/// A generator family: everything about an instance except its seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Family {
    /// Strongly correlated 0/1 knapsack, capacity half the total weight.
    Knapsack {
        /// Number of items.
        n: usize,
        /// Coefficient range.
        range: u64,
    },
    /// Random weighted MAX-SAT.
    MaxSat {
        /// Number of variables.
        vars: u16,
        /// Number of clauses.
        clauses: usize,
    },
}

impl Family {
    /// The problem spec of this family's instance with generator seed
    /// `instance_seed` — what the launcher renders as `--problem-*` flags.
    pub fn spec(&self, instance_seed: u64) -> ProblemSpec {
        match *self {
            Family::Knapsack { n, range } => ProblemSpec::Knapsack(KnapsackSpec {
                n,
                range,
                correlation: Correlation::Strong,
                frac: 0.5,
                seed: instance_seed,
            }),
            Family::MaxSat { vars, clauses } => ProblemSpec::MaxSat(MaxSatSpec {
                vars,
                clauses,
                seed: instance_seed,
            }),
        }
    }
}

/// A family plus the accepted range of sequential depth-first expansions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    /// The generator family.
    pub family: Family,
    /// Fewest expansions accepted.
    pub lo: u64,
    /// Most expansions accepted.
    pub hi: u64,
}

impl Band {
    /// The band's centre: the tree size times are scaled to, so that two
    /// seeds' instances from opposite ends of the band compare.
    pub fn nominal(&self) -> f64 {
        (self.lo + self.hi) as f64 / 2.0
    }
}

/// A chosen instance with its sequential reference.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The spec the program receives.
    pub spec: ProblemSpec,
    /// The generator seed inside `spec`.
    pub instance_seed: u64,
    /// The materialised instance (for in-process probes and submission).
    pub any: AnyInstance,
    /// The sequential optimum every run is checked against.
    pub optimum: f64,
    /// Sequential depth-first statistics (expansions, peak pool).
    pub stats: SolveStats,
    /// Candidates solved before this one was accepted (it included).
    pub candidates: u32,
}

/// Candidates tried before the search gives up: a band nothing falls into
/// is a mistake in the workload table, not something to wait out.
const MAX_CANDIDATES: u32 = 20_000;

/// Solve `any` sequentially with the rule protocol nodes use.
pub fn reference(any: &AnyInstance, max_expanded: Option<u64>) -> SolveResult {
    solve(
        any,
        &SolveConfig {
            rule: SelectRule::DepthFirst,
            initial_incumbent: None,
            max_expanded,
        },
    )
}

/// Find the first candidate of benchmark seed `seed` inside `band`.
pub fn search(band: &Band, seed: u64) -> Result<Instance, String> {
    for i in 0..MAX_CANDIDATES {
        let instance_seed = seed.wrapping_mul(1000).wrapping_add(u64::from(i));
        let spec = band.family.spec(instance_seed);
        let any = spec.instance().map_err(|e| e.to_string())?;
        // One past the band: a capped solve reports exactly `hi + 1`
        // expansions and is rejected without being finished.
        let solved = reference(&any, Some(band.hi + 1));
        if !(band.lo..=band.hi).contains(&solved.stats.expanded) {
            continue;
        }
        let Some(optimum) = solved.best else { continue };
        return Ok(Instance {
            spec,
            instance_seed,
            any,
            optimum,
            stats: solved.stats,
            candidates: i + 1,
        });
    }
    Err(format!(
        "no instance of {:?} with {}..={} expansions among {MAX_CANDIDATES} candidates of seed {seed}",
        band.family, band.lo, band.hi
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Band = Band {
        family: Family::Knapsack { n: 30, range: 120 },
        lo: 2_000,
        hi: 6_000,
    };

    #[test]
    fn search_is_deterministic_and_inside_the_band() {
        let a = search(&SMALL, 3).unwrap();
        let b = search(&SMALL, 3).unwrap();
        assert_eq!(a.instance_seed, b.instance_seed);
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.stats.expanded, b.stats.expanded);
        assert_eq!(a.optimum.to_bits(), b.optimum.to_bits());
        assert!((SMALL.lo..=SMALL.hi).contains(&a.stats.expanded));
        assert!((3000..3000 + u64::from(a.candidates)).contains(&a.instance_seed));
        // The uncapped reference agrees with the capped search solve.
        let full = reference(&a.any, None);
        assert_eq!(full.stats.expanded, a.stats.expanded);
        assert_eq!(full.best, Some(a.optimum));
    }

    #[test]
    fn seeds_select_different_instances() {
        let a = search(&SMALL, 1).unwrap();
        let b = search(&SMALL, 2).unwrap();
        assert_ne!(a.instance_seed, b.instance_seed);
    }

    #[test]
    fn maxsat_family_renders_its_own_flags() {
        let spec = Family::MaxSat {
            vars: 12,
            clauses: 30,
        }
        .spec(7);
        let flags = spec.flag_args();
        assert!(flags.contains(&"maxsat".to_string()));
        assert!(flags.contains(&"--problem-vars".to_string()));
        assert_eq!(flags.last(), Some(&"7".to_string()));
    }

    #[test]
    fn an_empty_band_is_an_error() {
        let none = Band {
            family: Family::Knapsack { n: 4, range: 10 },
            lo: 1_000_000,
            hi: 1_000_001,
        };
        assert!(search(&none, 1).is_err());
    }
}
