//! The paper's evaluation checks itself (`src/paper.rs`): every cheap row
//! runs in full here, every verdict must equal its declared status, the
//! rendering must be what `PAPER_RESULTS.md` records, and every row has a
//! claim that a deliberately broken config turns.

use ftbb::des::SimTime;
use ftbb::paper::{Cost, Experiment, Profile, EXPERIMENTS};
use ftbb::sim::SimConfig;

const RESULTS: &str = include_str!("../PAPER_RESULTS.md");

/// Run `row`; every verdict must be as declared (the rendering marks the
/// ones that are not). Returns the rendering.
fn assert_as_declared(row: &Experiment, profile: Profile) -> String {
    let (rendered, as_declared) = row.render(&(row.run)(profile));
    assert!(as_declared, "{rendered}");
    rendered
}

#[test]
fn every_paper_experiment_is_a_row_with_cited_claims() {
    let names: Vec<_> = EXPERIMENTS.iter().map(|e| e.name).collect();
    let expected = "fig3 table1 fig5_fig6 granularity fault_sweep dib central reports recovery \
                    adaptive heterogeneity scale";
    assert_eq!(names.join(" "), expected);
    // The README's claim table quotes every claim; its prose is
    // line-wrapped, so compare with whitespace collapsed.
    let readme: Vec<_> = include_str!("../README.md").split_whitespace().collect();
    let readme = readme.join(" ");
    for row in EXPERIMENTS {
        assert!(!row.claims.is_empty(), "{} has no claim", row.name);
        assert!(RESULTS.contains(&format!("\n## {} — ", row.name)));
        for claim in row.claims {
            let cited = ["§", "Fig. ", "Table 1"]
                .iter()
                .any(|c| claim.paper.contains(c));
            assert!(
                cited,
                "{}: cites no part of the paper: {}",
                row.name, claim.paper
            );
            assert!(
                readme.contains(claim.paper),
                "README lacks: {}",
                claim.paper
            );
        }
    }
}

#[test]
fn cheap_rows_are_as_declared_and_as_recorded() {
    for row in EXPERIMENTS.iter().filter(|e| e.cost == Cost::Cheap) {
        let rendered = assert_as_declared(row, Profile::FULL);
        assert!(
            RESULTS.contains(&rendered),
            "PAPER_RESULTS.md is stale for row {}; regenerate it with \
             `cargo run --release --bin ftbb-paper > PAPER_RESULTS.md`. Now:\n{rendered}",
            row.name
        );
    }
}

fn stop_at(c: &mut SimConfig, secs: u64) {
    c.horizon = Some(SimTime::from_secs(secs));
}

/// Complement recovery never starts; the horizon ends the run instead.
fn never_recover(c: &mut SimConfig) {
    c.protocol.recovery_quiet_s = 1e9;
    stop_at(c, 200);
}

type Tweak = fn(&mut SimConfig);

/// Row, index of one of its claims, and a config edit that turns it.
const SABOTAGE: &[(&str, usize, Tweak)] = &[
    // Stopped after one virtual second, no run reaches the optimum.
    ("fig3", 0, |c| stop_at(c, 1)),
    // Complement recovery never allowed: the Fig. 6 survivor cannot
    // re-solve what the crashed processors held.
    ("fig5_fig6", 1, never_recover),
    // Report and table-gossip intervals scaled with the node cost (what
    // the two-node ROADMAP item will do properly): messages per node stay
    // near 0.5 instead of rising to 2.6.
    ("granularity", 1, |c| {
        c.protocol.report_interval_s *= c.granularity;
        c.protocol.table_gossip_interval_s *= c.granularity;
    }),
    ("fault_sweep", 0, never_recover),
    // No crash scheduled: DIB's root survives and DIB finishes.
    ("dib", 1, |c| c.failures.clear()),
    ("central", 2, |c| c.failures.clear()),
    // One batch size everywhere: c = 32 no longer sends less than c = 2.
    ("reports", 1, |c| c.protocol.report_batch = 8),
    ("recovery", 0, never_recover),
    // The adaptive arm switched off: both policies are the same run.
    ("adaptive", 1, |c| c.protocol.adaptive_reports = false),
    // The machines the row calls fastest run slowest.
    ("heterogeneity", 1, |c| c.speeds.reverse()),
];

#[test]
fn every_claim_can_fail() {
    for row in EXPERIMENTS.iter().filter(|e| e.cost == Cost::Cheap) {
        let (_, index, tweak) = SABOTAGE
            .iter()
            .find(|(name, ..)| *name == row.name)
            .unwrap_or_else(|| panic!("no sabotage for row {}", row.name));
        let table = (row.run)(Profile {
            tweak: *tweak,
            ..Profile::FULL
        });
        let claim = &row.claims[*index];
        let verdict = (claim.check)(&table);
        assert!(
            !claim.as_declared(verdict),
            "{}: the broken config did not turn the claim: {}",
            row.name,
            claim.paper
        );
    }
}

/// The two 100-process rows at `--quick`, as `ftbb-paper --quick` runs
/// them (about 10 s in release; run with
/// `cargo test --release --test paper -- --ignored`).
#[test]
#[ignore]
fn heavy_rows_quick() {
    for row in EXPERIMENTS.iter().filter(|e| e.cost == Cost::Heavy) {
        assert_as_declared(row, Profile::QUICK);
    }
}
