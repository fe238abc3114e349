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
        eprint!("{}", HELP);
        return;
    }
    let cfg = match ftbb_wire::parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("ftbb-noded: {e}");
            eprint!("{}", HELP);
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

const HELP: &str = "\
ftbb-noded — one fault-tolerant B&B protocol node per OS process

USAGE:
    ftbb-noded [--config FILE] [FLAGS]

FLAGS (override --config values):
    --id N                        node id
    --listen HOST:PORT            listen address (port 0 picks a free
                                  port, announced on the FTBB-READY line)
    --peer ID=HOST:PORT           peer (repeatable)
    --peers-from-stdin            read `peer ID=HOST:PORT` lines (ended
                                  by `start`) from stdin after binding
    --preconnect-s SECS           readiness-barrier budget: wait this
                                  long for peer connections before
                                  starting the protocol (default 5)
    --deadline-s SECS             wall-clock safety valve (default 30)
    --crash-at-s SECS             abort() after SECS (crash injection)
    --seed N                      protocol RNG seed

MEMBERSHIP (gossip protocol instead of a static member list):
    --gossip-servers LIST         comma-separated gossip servers, each
                                  ID (resolved from the peer wiring) or
                                  ID=HOST:PORT; presence enables the
                                  membership protocol, and a node whose
                                  own id is listed answers joins
    --join                        elastic join: start knowing only the
                                  gossip servers (no --peer wiring) and
                                  enter the live cluster through them;
                                  requires an ID=HOST:PORT server entry
    --gossip-interval-s SECS      heartbeat gossip tick (default 0.05)
    --suspect-after-s SECS        silence before suspicion (default 0.5)
    --forget-after-s SECS         suspicion before cleanup (default 3)

TRANSPORT:
    --retry-window-s SECS         startup retry window per peer
                                  (default 1)
    --retry-max-frames N          frames parked in that window
                                  (default 64)
    --batch-max-frames N          writer coalescing: frames merged into
                                  one write (default 64, 1 disables)
    --book-max-entries N          piggyback address-book cap per
                                  membership frame, round-robin over the
                                  roster (default 16, 0 ships the full
                                  roster every frame)

PERFORMANCE:
    --workers N                   expansion worker threads per node
                                  (default 1 = inline on the pump)
    --bound-flush-s SECS          coalesce incumbent improvements into
                                  one BoundAnnounce broadcast per window
                                  and omit unchanged bounds from
                                  load-balancing chatter (default 0.05;
                                  <= 0 disables suppression: every
                                  message piggybacks the bound eagerly)

SERVICE MODE (a long-lived multi-job solve pool):
    --service                     join a solve pool instead of running
                                  one configured problem: jobs arrive as
                                  ftbb-submit frames (this node becomes
                                  the job's gateway and announces its
                                  instance to the pool) or as peer
                                  announces; every admitted job is
                                  multiplexed over the one mesh until
                                  --deadline-s. Prints one FTBB-JOB line
                                  per completed job and a closing
                                  FTBB-SERVICE summary. --problem* flags
                                  are ignored; checkpoints and --resume
                                  work as under LIFECYCLE, one file per
                                  job

LIFECYCLE (checkpoint persistence and restart/rejoin):
    --checkpoint-dir DIR          persist one snapshot per job to
                                  DIR/node-<id>-job-<job>.ckpt (a single
                                  run is job 0; atomic write-rename; at
                                  admission, every cadence tick, and at
                                  completion)
    --checkpoint-every-s SECS     snapshot cadence (default 0.5)
    --resume                      restore every DIR/node-<id>-job-*.ckpt
                                  instead of starting fresh: come back as
                                  the next incarnation, take each problem
                                  binding from its checkpoint (--problem*
                                  flags are ignored), and send a rejoin
                                  frame so peers re-register this node

TELEMETRY (structured tracing and interval metrics):
    --trace-file PATH             append structured trace events (one
                                  JSON object per line: timestamp, node,
                                  incarnation, kind, fields) to PATH;
                                  never blocks the node — overflow is
                                  counted and reported, not waited on
    --metrics-every-s SECS        print an FTBB-METRICS line on stdout
                                  every SECS with the Figure-3 time
                                  accounting (expand/communicate/
                                  contract/load-balance/membership/idle/
                                  checkpoint), process counters, and
                                  transport counters

PROBLEM (tagged; --problem selects the kind, the rest are per-kind):
    --problem KIND                knapsack | maxsat | tree-file | wire
                                  (default knapsack; `wire` receives the
                                  instance from the root's announce frame
                                  instead of generating it locally)
  knapsack:
    --problem-n N                 knapsack items
    --problem-range N             value/weight range
    --problem-correlation KIND    uncorrelated|weak|strong|subsetsum
    --problem-frac F              capacity fraction
    --problem-seed N              instance seed (must match cluster-wide)
  maxsat:
    --problem-vars N              boolean variables (2..=64)
    --problem-clauses N           random weighted clauses
    --problem-seed N              instance seed (must match cluster-wide)
  tree-file:
    --problem-file PATH           recorded basic tree (ftbb_tree::io)
";
