//! Service soak: one in-process `--service` node, hundreds of tiny jobs
//! back to back over real sockets. A job must leave nothing behind — no
//! socket held for a client that is gone, no control frame parked unread.
//!
//! Alone in its test binary on purpose: `/proc/self/fd` counts the whole
//! process, and a sibling test opening sockets would show up in it.

use ftbb_bnb::{solve, AnyInstance, Correlation, KnapsackInstance, MaxSatInstance, SolveConfig};
use ftbb_core::{JobId, TraceEvent};
use ftbb_wire::{noded, submit_job, NodeConfig};
use std::net::TcpListener;
use std::time::{Duration, Instant};

const JOBS: u64 = 300;

/// The node's lifetime. A service node runs to its deadline whatever its
/// jobs do, so this is also the test's wall time; the soak itself takes a
/// fraction of it.
const DEADLINE_S: f64 = 8.0;

/// Open descriptors of this process, once the count has held still for
/// 200 ms: a finished job's reader thread closes its socket a moment
/// after the client has its result.
fn settled_fd_count() -> usize {
    let count = || std::fs::read_dir("/proc/self/fd").expect("procfs").count();
    let end = Instant::now() + Duration::from_secs(5);
    let (mut last, mut since) = (count(), Instant::now());
    while since.elapsed() < Duration::from_millis(200) && Instant::now() < end {
        std::thread::sleep(Duration::from_millis(20));
        let now = count();
        if now != last {
            (last, since) = (now, Instant::now());
        }
    }
    last
}

/// Field `field` of the latest `kind` event in the node's trace.
fn last_traced(trace: &std::path::Path, kind: &str, field: &str) -> usize {
    let text = std::fs::read_to_string(trace).expect("trace file");
    text.lines()
        .filter_map(TraceEvent::parse_jsonl)
        .rfind(|ev| ev.kind == kind)
        .and_then(|ev| ev.field(field)?.parse().ok())
        .unwrap_or_else(|| panic!("a {kind} event with {field}"))
}

/// `control_depth` as the node traced it when it took up its latest
/// submission.
fn last_control_depth(trace: &std::path::Path) -> usize {
    last_traced(trace, "job_submitted", "control_depth")
}

fn tiny_instance(job: u64) -> AnyInstance {
    if job.is_multiple_of(2) {
        AnyInstance::from(KnapsackInstance::generate(
            8,
            30,
            Correlation::Uncorrelated,
            0.5,
            job,
        ))
    } else {
        AnyInstance::from(MaxSatInstance::generate(6, 14, job))
    }
}

#[test]
fn three_hundred_jobs_leave_no_socket_and_no_queued_frame_behind() {
    let addr = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let trace = std::env::temp_dir().join(format!("ftbb-soak-{}.jsonl", std::process::id()));
    std::fs::remove_file(&trace).ok();
    let cfg = NodeConfig {
        id: 0,
        listen: addr,
        service: true,
        deadline_s: DEADLINE_S,
        seed: 11,
        trace_file: Some(trace.clone()),
        ..Default::default()
    };
    let node = std::thread::spawn(move || noded::run(&cfg).expect("service runs"));

    let submit = |job: u64| {
        let instance = tiny_instance(job);
        let started = Instant::now();
        let outcome = loop {
            match submit_job(addr, JobId::from(job), &instance, Duration::from_secs(10)) {
                // Only the very first job can race the node's bind.
                Err(e)
                    if e.kind() == std::io::ErrorKind::ConnectionRefused
                        && started.elapsed() < Duration::from_secs(5) =>
                {
                    std::thread::sleep(Duration::from_millis(5));
                }
                result => break result.unwrap_or_else(|e| panic!("job {job}: {e}")),
            }
        };
        assert!(outcome.finished, "job {job} must finish");
        let reference = solve(&instance, &SolveConfig::default());
        assert_eq!(
            Some(outcome.incumbent.to_bits()),
            reference.best.map(f64::to_bits),
            "job {job} must match the sequential optimum bit for bit"
        );
        outcome
    };

    // One job to bring everything up (listener, trace file, first
    // reader), then the reference readings.
    let first = submit(1);
    let fds_before = settled_fd_count();
    let depth_before = last_control_depth(&trace);

    let soak = Instant::now();
    for job in 2..=JOBS + 1 {
        submit(job);
    }
    let soak = soak.elapsed();
    let fds_after = settled_fd_count();
    let depth_after = last_control_depth(&trace);
    eprintln!(
        "soak: {JOBS} jobs in {:.2}s ({:.1} ms/job); open fds {fds_before} -> {fds_after}; \
         control-queue depth {depth_before} -> {depth_after}",
        soak.as_secs_f64(),
        soak.as_secs_f64() * 1e3 / JOBS as f64,
    );
    assert_eq!(
        fds_after, fds_before,
        "every finished job must release its client's socket"
    );
    assert_eq!(
        depth_after, depth_before,
        "the control queue must be drained"
    );
    // Finished jobs leave the pump: the last admission finds the jobs
    // still running, not every job served.
    let running = last_traced(&trace, "job_admitted", "jobs_running");
    assert!(
        running <= 2,
        "the last of {JOBS} sequential jobs was admitted beside {running} held jobs"
    );

    // A finished job's id submitted again gets that job's final result
    // back at once, and its stream is released like any other.
    let again = submit_job(
        addr,
        JobId::from(1),
        &tiny_instance(1),
        Duration::from_secs(1),
    )
    .unwrap_or_else(|e| panic!("resubmitted job 1: {e}"));
    assert!(again.finished, "the resubmitted job reports finished");
    assert_eq!(
        (again.incumbent.to_bits(), again.expanded),
        (first.incumbent.to_bits(), first.expanded),
        "the resubmission returns job 1's final result bit for bit"
    );
    assert_eq!(
        settled_fd_count(),
        fds_before,
        "the resubmission's stream must be released"
    );

    let report = node.join().expect("node thread");
    assert_eq!(report.outcome.admitted, JOBS + 1);
    assert_eq!(report.outcome.finished, JOBS + 1);
    assert!(
        report.outcome.jobs.is_empty(),
        "every finished job was retired"
    );
    assert_eq!(report.transport.dropped(), 0);
    std::fs::remove_file(&trace).ok();
}
