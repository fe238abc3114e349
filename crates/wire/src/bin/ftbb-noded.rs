//! `ftbb-noded` — one fault-tolerant branch-and-bound node per OS process.
//!
//! ```text
//! ftbb-noded --id 0 --listen 127.0.0.1:4500 \
//!            --peer 1=127.0.0.1:4501 --peer 2=127.0.0.1:4502 \
//!            --problem-n 24 --problem-seed 11
//! ftbb-noded --config node0.toml
//! ```
//!
//! Prints one `FTBB-READY id=… addr=…` line the moment its listener is
//! bound (machine-parseable; with `--listen 127.0.0.1:0` this is how the
//! chosen port escapes), interval `FTBB-METRICS` snapshots when
//! `--metrics-every-s` is set, then one `FTBB-OUTCOME` line on stdout when the
//! node terminates (or hits its deadline) — with `--service`, one `FTBB-JOB`
//! line per completed job and a closing `FTBB-SERVICE` line instead; prints
//! no outcome when the process is killed — which is the point. With `--peers-from-stdin` the
//! peer map arrives as `peer ID=HOST:PORT` stdin lines ended by `start`,
//! letting a launcher wire a whole cluster without pre-allocating ports.

use ftbb_wire::noded;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprint!("{}", help());
        return;
    }
    let cfg = match ftbb_wire::parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("ftbb-noded: {e}");
            eprint!("{}", help());
            std::process::exit(2);
        }
    };
    match noded::run(&cfg) {
        // Per-job FTBB-JOB lines were already streamed as jobs completed;
        // a pool member closes with the service summary.
        Ok(report) if cfg.service => println!("{}", noded::service_line(&report)),
        Ok(report) => {
            let job = report
                .outcome
                .jobs
                .first()
                .expect("a single run admits its job");
            println!("{}", noded::outcome_line(&report, job));
            if report.outcome.jobs.iter().any(|job| !job.terminated) {
                // Deadline hit without termination: report, but fail.
                std::process::exit(3);
            }
        }
        Err(e) => {
            eprintln!("ftbb-noded: {e}");
            std::process::exit(1);
        }
    }
}

/// The usage banner plus the option reference generated from the
/// config key table (`ftbb_wire::config::help`).
fn help() -> String {
    format!(
        "ftbb-noded — one fault-tolerant B&B protocol node per OS process\n\n\
         USAGE:\n    ftbb-noded [--config FILE] [FLAGS]\n{}",
        ftbb_wire::config::help()
    )
}
