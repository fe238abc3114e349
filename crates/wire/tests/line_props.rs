//! Property tests of the `FTBB-*` stdout line codec and the trace JSONL
//! codec: every report/snapshot round-trips through its line, and the
//! parsers are total — truncated, corrupted, or arbitrary input yields
//! `None`, never a panic. Launchers scan whole stdout streams (and whole
//! trace files) that also carry arbitrary diagnostic output, so the
//! parsers must shrug at anything.

use ftbb_core::{JobId, PhaseTimes, ProcMetrics, TimeCategory, TraceEvent};
use ftbb_runtime::{JobOutcome, MetricsSnapshot, ServiceOutcome, TransportStats};
use ftbb_wire::noded::NodeReport;
use ftbb_wire::{
    job_line, metrics_line, outcome_line, parse_job_line, parse_metrics_line, parse_outcome_line,
    parse_service_line, service_line,
};
use proptest::collection;
use proptest::prelude::*;
use std::time::Duration;

/// Seconds that survive the lines' `{:.6}` decimal formatting exactly:
/// whole microseconds.
fn micros_strategy() -> impl Strategy<Value = f64> {
    (0u64..10_000_000_000).prop_map(|us| us as f64 / 1e6)
}

/// Printable-ASCII garbage to splice into lines.
fn garbage_strategy() -> impl Strategy<Value = String> {
    collection::vec(0x20u32..0x7f, 0..24).prop_map(|codes| {
        codes
            .into_iter()
            .filter_map(char::from_u32)
            .collect::<String>()
    })
}

/// Arbitrary unicode text — including quotes, backslashes, newlines, and
/// control characters.
fn text_strategy(max: usize) -> impl Strategy<Value = String> {
    collection::vec(any::<u32>(), 0..max).prop_map(|codes| {
        codes
            .into_iter()
            .filter_map(|c| char::from_u32(c % 0x11_0000))
            .collect::<String>()
    })
}

/// Lowercase identifier-ish field keys.
fn key_strategy() -> impl Strategy<Value = String> {
    collection::vec(0u8..27, 1..12).prop_map(|bytes| {
        bytes
            .into_iter()
            .map(|b| if b == 26 { '_' } else { (b'a' + b) as char })
            .collect::<String>()
    })
}

/// One draw per Figure-3 category, in [`TimeCategory::ALL`] order — a
/// category added to the clock is drawn (and round-tripped) too.
fn phase_strategy() -> impl Strategy<Value = PhaseTimes> {
    collection::vec(micros_strategy(), TimeCategory::ALL.len()).prop_map(|secs| {
        let mut phase = PhaseTimes::default();
        for (cat, s) in TimeCategory::ALL.into_iter().zip(secs) {
            phase.add(cat, s);
        }
        phase
    })
}

/// One draw per declared transport counter, in [`TransportStats::KEYS`]
/// order — a counter added to the declaration is drawn (and
/// round-tripped) without touching this file.
fn transport_strategy() -> impl Strategy<Value = TransportStats> {
    collection::vec(any::<u32>(), TransportStats::KEYS.len()).prop_map(|draws| {
        let mut draws = draws.into_iter();
        TransportStats::from_keyed(|_| draws.next().map(u64::from)).expect("one draw per key")
    })
}

/// The counters that ride on lines, with arbitrary values.
fn metrics_strategy() -> impl Strategy<Value = ProcMetrics> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u32>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(
                (expanded, pruned, rec, sus),
                (forg, bcast, coal, supp),
                (mev, rep, req),
                (grants, wait_us, silent, closed),
            )| {
                ProcMetrics {
                    expanded,
                    pruned_at_pop: pruned,
                    recoveries: rec,
                    peers_suspected: sus,
                    peers_forgotten: forg,
                    bound_broadcasts: bcast,
                    bound_coalesced: coal,
                    bound_piggybacks_suppressed: supp,
                    membership_events_dropped: mev,
                    reports_sent: rep,
                    work_requests_sent: req,
                    grants_received: grants,
                    grant_wait_s: f64::from(wait_us) / 1e6,
                    silent_rounds: silent,
                    peers_closed: closed,
                    ..Default::default()
                }
            },
        )
}

fn job_strategy() -> impl Strategy<Value = JobOutcome> {
    (
        (any::<u32>(), any::<u64>()),
        0u32..8,
        any::<bool>(),
        any::<u64>(), // incumbent bits: any f64 including NaN/∞ must survive
        metrics_strategy(),
    )
        .prop_map(
            |((id, job), incarnation, terminated, bits, metrics)| JobOutcome {
                job: JobId::from(job),
                id,
                incarnation,
                terminated,
                incumbent: f64::from_bits(bits),
                metrics,
            },
        )
}

/// A daemon report holding 1..4 jobs at exit (a single run has exactly
/// one), beside up to 1 000 retired ones, which had all finished.
fn report_strategy() -> impl Strategy<Value = NodeReport> {
    (
        collection::vec(job_strategy(), 1..4),
        0u64..1000,
        phase_strategy(),
        transport_strategy(),
        any::<u64>(),
        1usize..10,
    )
        .prop_map(|(jobs, retired, phase, transport, tev, workers)| {
            let held_finished = jobs.iter().filter(|j| j.terminated).count() as u64;
            NodeReport {
                outcome: ServiceOutcome {
                    id: jobs[0].id,
                    incarnation: jobs[0].incarnation,
                    admitted: jobs.len() as u64 + retired,
                    finished: held_finished + retired,
                    late_frames: 0,
                    jobs,
                    phase,
                    lifetime: Duration::from_millis(5),
                },
                transport,
                trace_events_dropped: tev,
                workers,
            }
        })
}

fn snapshot_strategy() -> impl Strategy<Value = MetricsSnapshot> {
    (
        (any::<u32>(), any::<u64>()),
        0u32..8,
        any::<u64>(),
        micros_strategy(),
        phase_strategy(),
        metrics_strategy(),
        any::<u64>(),
        transport_strategy(),
    )
        .prop_map(
            |((id, job), inc, seq, elapsed, phase, metrics, tev, t)| MetricsSnapshot {
                id,
                job,
                incarnation: inc,
                seq,
                elapsed_s: elapsed,
                phase,
                metrics,
                transport: t,
                trace_events_dropped: tev,
                workers: (seq % 9) as usize + 1,
            },
        )
}

/// Splice `garbage` over a slice of `line` (at a char boundary), or
/// truncate — the mangled stream a launcher might actually see.
fn mangle(line: &str, at_seed: u64, garbage: &str) -> String {
    let cuts: Vec<usize> = line
        .char_indices()
        .map(|(i, _)| i)
        .chain([line.len()])
        .collect();
    let cut = cuts[(at_seed as usize) % cuts.len()];
    let mut out = line[..cut].to_string();
    out.push_str(garbage);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every outcome — including NaN/infinite incumbents, which ride as
    /// exact bits — survives its stdout line.
    #[test]
    fn outcome_line_round_trips(report in report_strategy()) {
        let o = &report.outcome.jobs[0];
        let line = outcome_line(&report, o);
        let parsed = parse_outcome_line(&line).expect("own line parses");
        prop_assert_eq!(parsed.id, o.id);
        prop_assert_eq!(parsed.incarnation, o.incarnation);
        prop_assert_eq!(parsed.terminated, o.terminated);
        prop_assert_eq!(parsed.incumbent.to_bits(), o.incumbent.to_bits(),
            "incumbent must round-trip bit-for-bit");
        prop_assert_eq!(parsed.expanded, o.metrics.expanded);
        prop_assert_eq!(parsed.pruned_at_pop, o.metrics.pruned_at_pop);
        prop_assert_eq!(parsed.recoveries, o.metrics.recoveries);
        prop_assert_eq!(parsed.suspected, o.metrics.peers_suspected);
        prop_assert_eq!(parsed.forgotten, o.metrics.peers_forgotten);
        prop_assert_eq!(parsed.membership_events_dropped,
            o.metrics.membership_events_dropped);
        prop_assert_eq!(parsed.bound_broadcasts, o.metrics.bound_broadcasts);
        prop_assert_eq!(parsed.bound_coalesced, o.metrics.bound_coalesced);
        prop_assert_eq!(parsed.bound_suppressed, o.metrics.bound_piggybacks_suppressed);
        prop_assert_eq!(parsed.trace_events_dropped, report.trace_events_dropped);
        prop_assert_eq!(parsed.workers, report.workers as u64);
        prop_assert_eq!(parsed.transport, report.transport);
    }

    /// Every per-job line and the service summary over the same report
    /// survive their stdout lines.
    #[test]
    fn job_and_service_lines_round_trip(report in report_strategy()) {
        for o in &report.outcome.jobs {
            let parsed = parse_job_line(&job_line(o)).expect("own line parses");
            prop_assert_eq!(parsed.id, o.id);
            prop_assert_eq!(parsed.job, o.job.raw());
            prop_assert_eq!(parsed.incarnation, o.incarnation);
            prop_assert_eq!(parsed.terminated, o.terminated);
            prop_assert_eq!(parsed.incumbent.to_bits(), o.incumbent.to_bits());
            prop_assert_eq!(parsed.expanded, o.metrics.expanded);
            prop_assert_eq!(parsed.recoveries, o.metrics.recoveries);
        }
        let parsed = parse_service_line(&service_line(&report)).expect("own line parses");
        prop_assert_eq!(parsed.id, report.outcome.id);
        prop_assert_eq!(parsed.incarnation, report.outcome.incarnation);
        prop_assert_eq!(parsed.jobs, report.outcome.admitted);
        prop_assert_eq!(parsed.finished, report.outcome.finished);
        prop_assert_eq!(parsed.trace_events_dropped, report.trace_events_dropped);
        prop_assert_eq!(parsed.sent, report.transport.sent);
        prop_assert_eq!(parsed.dropped, report.transport.dropped());
    }

    /// Every interval snapshot survives its stdout line; microsecond
    /// phase times round-trip exactly through the `{:.6}` formatting.
    #[test]
    fn metrics_line_round_trips(snap in snapshot_strategy()) {
        let line = metrics_line(&snap);
        let parsed = parse_metrics_line(&line).expect("own line parses");
        prop_assert_eq!(parsed.id, snap.id);
        prop_assert_eq!(parsed.job, snap.job);
        prop_assert_eq!(parsed.incarnation, snap.incarnation);
        prop_assert_eq!(parsed.seq, snap.seq);
        prop_assert_eq!(parsed.elapsed_s, snap.elapsed_s);
        prop_assert_eq!(parsed.phase, snap.phase);
        prop_assert_eq!(parsed.expanded, snap.metrics.expanded);
        prop_assert_eq!(parsed.pruned_at_pop, snap.metrics.pruned_at_pop);
        prop_assert_eq!(parsed.recoveries, snap.metrics.recoveries);
        prop_assert_eq!(parsed.reports, snap.metrics.reports_sent);
        prop_assert_eq!(parsed.requests, snap.metrics.work_requests_sent);
        prop_assert_eq!(parsed.grants, snap.metrics.grants_received);
        prop_assert_eq!(parsed.grant_wait_s.to_bits(), snap.metrics.grant_wait_s.to_bits());
        prop_assert_eq!(parsed.silent_rounds, snap.metrics.silent_rounds);
        prop_assert_eq!(parsed.peers_closed, snap.metrics.peers_closed);
        prop_assert_eq!(parsed.suspected, snap.metrics.peers_suspected);
        prop_assert_eq!(parsed.forgotten, snap.metrics.peers_forgotten);
        prop_assert_eq!(parsed.membership_events_dropped,
            snap.metrics.membership_events_dropped);
        prop_assert_eq!(parsed.trace_events_dropped, snap.trace_events_dropped);
        prop_assert_eq!(parsed.bound_broadcasts, snap.metrics.bound_broadcasts);
        prop_assert_eq!(parsed.bound_coalesced, snap.metrics.bound_coalesced);
        prop_assert_eq!(parsed.bound_suppressed, snap.metrics.bound_piggybacks_suppressed);
        prop_assert_eq!(parsed.workers, snap.workers as u64);
        prop_assert_eq!(parsed.sent, snap.transport.sent);
        prop_assert_eq!(parsed.dropped, snap.transport.dropped());
        prop_assert_eq!(parsed.flushes, snap.transport.flushes);
        prop_assert_eq!(parsed.frames_flushed, snap.transport.frames_flushed);
        prop_assert_eq!(parsed.membership_frames, snap.transport.membership_frames_sent);
        prop_assert_eq!(parsed.book_entries, snap.transport.book_entries_sent);
        prop_assert_eq!(parsed.digest_entries, snap.transport.digest_entries_sent);
        prop_assert_eq!(parsed.bound_frames, snap.transport.bound_broadcasts);
    }

    /// A valid line mangled anywhere — truncated mid-token, spliced with
    /// garbage — never panics either parser; a parse that still succeeds
    /// is fine (the mangling may hit redundant tail fields), a failed one
    /// must be `None`, not a crash.
    #[test]
    fn mangled_lines_never_panic(
        report in report_strategy(),
        snap in snapshot_strategy(),
        at in any::<u64>(),
        garbage in garbage_strategy(),
    ) {
        let job = &report.outcome.jobs[0];
        let _ = parse_outcome_line(&mangle(&outcome_line(&report, job), at, &garbage));
        let _ = parse_metrics_line(&mangle(&metrics_line(&snap), at, &garbage));
        let _ = parse_job_line(&mangle(&job_line(job), at, &garbage));
        let _ = parse_service_line(&mangle(&service_line(&report), at, &garbage));
    }

    /// Arbitrary text never panics any line parser, and a line missing
    /// its tag never parses.
    #[test]
    fn arbitrary_text_never_parses_or_panics(text in text_strategy(64)) {
        let _ = parse_outcome_line(&text);
        let _ = parse_metrics_line(&text);
        let _ = parse_job_line(&text);
        let _ = parse_service_line(&text);
        let _ = ftbb_wire::parse_ready_line(&text);
        let _ = TraceEvent::parse_jsonl(&text);
        if !text.contains("FTBB-OUTCOME") {
            prop_assert!(parse_outcome_line(&text).is_none());
        }
        if !text.contains("FTBB-METRICS") {
            prop_assert!(parse_metrics_line(&text).is_none());
        }
    }

    /// Trace events with arbitrary kinds and field values — quotes,
    /// backslashes, newlines, control characters — survive the JSONL
    /// encoding, and mangled JSONL never panics the parser.
    #[test]
    fn trace_event_jsonl_round_trips(
        t_us in any::<u64>(),
        node in any::<u32>(),
        inc in any::<u32>(),
        job in any::<u64>(),
        kind in text_strategy(24),
        fields in collection::vec((key_strategy(), text_strategy(24)), 0..5),
        at in any::<u64>(),
        garbage in garbage_strategy(),
    ) {
        let event = TraceEvent {
            t_us,
            node,
            incarnation: inc,
            job,
            kind,
            fields: fields
                .into_iter()
                // Reserved keys would be reabsorbed into the header on
                // parse; real emitters never use them as field names.
                .filter(|(k, _)| !matches!(k.as_str(), "t_us" | "node" | "inc" | "job" | "kind"))
                .collect(),
        };
        let line = event.to_jsonl();
        prop_assert!(!line.contains('\n'), "JSONL events are single lines");
        let parsed = TraceEvent::parse_jsonl(&line).expect("own line parses");
        prop_assert_eq!(parsed, event);
        let _ = TraceEvent::parse_jsonl(&mangle(&line, at, &garbage));
    }
}
