//! `ftbb-submit` — hand a job to a running `ftbb-noded --service` pool.
//!
//! ```text
//! ftbb-submit --to 127.0.0.1:4500 --job 7 --problem maxsat \
//!             --problem-vars 14 --problem-clauses 40
//! ```
//!
//! Connects to one pool node, sends the materialized instance as a
//! `SubmitJob` frame, and blocks streaming results: one
//! `FTBB-SUBMIT-ACCEPTED` line, `FTBB-SUBMIT-INCUMBENT` lines as the
//! pool improves the bound, and a final `FTBB-SUBMIT-RESULT` line when
//! termination is detected. Exits non-zero if the pool never finishes
//! the job within `--timeout-s`.

use ftbb_wire::lines::{render_f64_bits, render_line};
use ftbb_wire::submit::submit_job;
use std::net::SocketAddr;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprint!("{}", help());
        return;
    }
    match run(&args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("ftbb-submit: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut to: Option<SocketAddr> = None;
    let mut job: u64 = 0;
    let mut timeout_s: f64 = 60.0;
    // Everything else is a problem flag, parsed by the shared config
    // machinery (so ftbb-submit and ftbb-noded agree on specs).
    let mut problem_args: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let take = |name: &str| -> Result<String, String> {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match args[i].as_str() {
            "--to" => {
                to = Some(
                    take("--to")?
                        .parse()
                        .map_err(|_| "bad --to address".to_string())?,
                );
            }
            "--job" => {
                job = take("--job")?
                    .parse()
                    .map_err(|_| "bad --job id".to_string())?;
            }
            "--timeout-s" => {
                timeout_s = take("--timeout-s")?
                    .parse()
                    .map_err(|_| "bad --timeout-s".to_string())?;
            }
            flag if flag.starts_with("--problem") => {
                problem_args.push(flag.to_string());
                problem_args.push(take(flag)?);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 2;
    }
    let Some(addr) = to else {
        return Err("--to HOST:PORT is required".to_string());
    };
    if job == 0 {
        return Err("--job must be a positive id (0 is reserved for single-run nodes)".to_string());
    }
    if !(timeout_s.is_finite() && timeout_s > 0.0) {
        return Err("--timeout-s must be a positive number".to_string());
    }
    let cfg = ftbb_wire::parse_args(&problem_args).map_err(|e| e.to_string())?;
    let instance = cfg.problem.instance().map_err(|e| e.to_string())?;

    let outcome = submit_job(
        addr,
        ftbb_core::JobId::from(job),
        &instance,
        Duration::from_secs_f64(timeout_s),
    )
    .map_err(|e| e.to_string())?;

    println!(
        "{}",
        render_line(
            "FTBB-SUBMIT-ACCEPTED",
            &[
                ("job", job.to_string()),
                ("node", outcome.accepted_by.to_string()),
            ],
        )
    );
    for incumbent in &outcome.incumbents {
        println!(
            "{}",
            render_line(
                "FTBB-SUBMIT-INCUMBENT",
                &[
                    ("job", job.to_string()),
                    ("incumbent", incumbent.to_string())
                ],
            )
        );
    }
    println!(
        "{}",
        render_line(
            "FTBB-SUBMIT-RESULT",
            &[
                ("job", job.to_string()),
                ("finished", outcome.finished.to_string()),
                ("incumbent_bits", render_f64_bits(outcome.incumbent)),
                ("incumbent", outcome.incumbent.to_string()),
                ("expanded", outcome.expanded.to_string()),
            ],
        )
    );
    Ok(())
}

/// The client's own flags, the PROBLEM block generated from the config
/// key table (the same flags `ftbb-noded` takes), and the output lines.
fn help() -> String {
    format!(
        "\
ftbb-submit — submit one job to a running ftbb-noded --service pool

USAGE:
    ftbb-submit --to HOST:PORT --job N [--timeout-s SECS] [PROBLEM FLAGS]

FLAGS:
    --to HOST:PORT                any pool node (it becomes the job's
                                  gateway: holds the root and announces
                                  the instance to its peers)
    --job N                       job id, positive and unique per pool
                                  (0 is reserved for single-run nodes)
    --timeout-s SECS              give up waiting for the final result
                                  after SECS (default 60)
{}
OUTPUT (machine-parseable, one per line):
    FTBB-SUBMIT-ACCEPTED job=N node=ID
    FTBB-SUBMIT-INCUMBENT job=N incumbent=X          (streamed)
    FTBB-SUBMIT-RESULT job=N finished=BOOL incumbent_bits=… incumbent=X expanded=M
",
        ftbb_wire::config::problem_help()
    )
}
