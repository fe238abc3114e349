//! The service workload: a pool of `ftbb-noded --service` processes and a
//! closed-loop job stream through `ftbb_wire::submit_job`.
//!
//! `ftbb_wire::launch` can run a service pool, but it holds the pool to
//! its deadline and reports jobs only afterwards, which hides per-job
//! timing. So the benchmark spawns and wires the pool itself — the same
//! `FTBB-READY` / stdin-wiring handshake the launcher uses — and keeps the
//! clock on every `submit_job` call.

use crate::cluster::NodeTrace;
use crate::instances::Instance;
use ftbb_core::JobId;
use ftbb_wire::{parse_job_line, parse_metrics_line, parse_ready_line, submit_job};
use ftbb_wire::{ParsedJob, ParsedMetrics};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::time::{Duration, Instant};

/// How long a freshly spawned node may take to print `FTBB-READY`.
const READY_PATIENCE: Duration = Duration::from_secs(20);

/// How long one submitter waits for its job's final result.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

struct PoolNode {
    child: Child,
    lines: Receiver<String>,
    reader: Option<std::thread::JoinHandle<()>>,
}

/// A running service pool. Dropping it SIGKILLs and reaps every node and
/// joins the stdout readers — on success, failure and panic alike, so no
/// daemon outlives the benchmark.
pub struct Pool {
    nodes: Vec<PoolNode>,
    addrs: Vec<SocketAddr>,
}

impl Drop for Pool {
    fn drop(&mut self) {
        for node in &mut self.nodes {
            let _ = node.child.kill();
            let _ = node.child.wait();
        }
        for node in &mut self.nodes {
            if let Some(reader) = node.reader.take() {
                let _ = reader.join();
            }
        }
    }
}

impl Pool {
    /// Spawn `nodes` service daemons on loopback, wire them to each other
    /// and release them. `deadline_s` is each daemon's own lifetime — set
    /// well past the stream, the pool is torn down by `Drop` long before.
    pub fn spawn(
        noded: &Path,
        nodes: u32,
        seed: u64,
        deadline_s: f64,
        trace: Option<&NodeTrace>,
    ) -> Result<Pool, String> {
        if let Some(t) = trace {
            std::fs::create_dir_all(&t.dir).map_err(|e| e.to_string())?;
        }
        let mut pool = Pool {
            nodes: Vec::new(),
            addrs: Vec::new(),
        };
        for id in 0..nodes {
            let mut cmd = Command::new(noded);
            cmd.args(["--service", "--peers-from-stdin"])
                .args(["--listen", "127.0.0.1:0"])
                .args(["--id", &id.to_string()])
                .args(["--seed", &seed.to_string()])
                .args(["--deadline-s", &deadline_s.to_string()]);
            if let Some(t) = trace {
                cmd.arg("--trace-file")
                    .arg(t.dir.join(format!("node-{id}.jsonl")))
                    .args(["--metrics-every-s", &t.metrics_every_s.to_string()]);
            }
            let mut child = cmd
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| format!("cannot spawn {}: {e}", noded.display()))?;
            let stdout = child.stdout.take().expect("stdout piped");
            let (tx, lines) = channel();
            let reader = std::thread::spawn(move || {
                for line in BufReader::new(stdout).lines() {
                    let Ok(line) = line else { break };
                    if tx.send(line).is_err() {
                        break;
                    }
                }
            });
            // Pushed before anything can fail, so Drop reaps it.
            pool.nodes.push(PoolNode {
                child,
                lines,
                reader: Some(reader),
            });
        }
        for (id, node) in pool.nodes.iter().enumerate() {
            let deadline = Instant::now() + READY_PATIENCE;
            let addr = loop {
                let left = deadline.saturating_duration_since(Instant::now());
                match node.lines.recv_timeout(left) {
                    Ok(line) => {
                        if let Some((_, addr)) = parse_ready_line(&line) {
                            break addr;
                        }
                    }
                    Err(_) => return Err(format!("service node {id} never reported ready")),
                }
            };
            pool.addrs.push(addr);
        }
        for (id, node) in pool.nodes.iter_mut().enumerate() {
            let mut wiring = String::new();
            for (peer, addr) in pool.addrs.iter().enumerate() {
                if peer != id {
                    wiring.push_str(&format!("peer {peer}={addr}\n"));
                }
            }
            wiring.push_str("start\n");
            let mut stdin = node.child.stdin.take().expect("stdin piped");
            stdin
                .write_all(wiring.as_bytes())
                .map_err(|e| format!("cannot wire service node {id}: {e}"))?;
        }
        Ok(pool)
    }

    /// Gateway addresses, by node id.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Drain what the nodes have printed so far: `FTBB-JOB` completion
    /// lines and `FTBB-METRICS` snapshots, per node id.
    pub fn drain_lines(&self) -> (Vec<Vec<ParsedJob>>, Vec<Vec<ParsedMetrics>>) {
        let mut jobs = Vec::new();
        let mut metrics = Vec::new();
        for node in &self.nodes {
            let (mut j, mut m) = (Vec::new(), Vec::new());
            for line in node.lines.try_iter() {
                if let Some(parsed) = parse_job_line(&line) {
                    j.push(parsed);
                } else if let Some(parsed) = parse_metrics_line(&line) {
                    m.push(parsed);
                }
            }
            jobs.push(j);
            metrics.push(m);
        }
        (jobs, metrics)
    }
}

/// One kind of job in the stream.
#[derive(Debug, Clone)]
pub struct JobKind {
    /// Short name used in metric names (`knap_m`, `sat_s`, …).
    pub name: &'static str,
    /// The instance every job of this kind submits.
    pub instance: Instance,
}

/// One completed submission.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSample {
    /// Job id (1-based position in the stream).
    pub job: u64,
    /// Index into the stream's kinds.
    pub kind: usize,
    /// `submit_job` call to return, seconds.
    pub latency_s: f64,
    /// Why the job failed, if it did.
    pub failure: Option<String>,
}

/// What a job stream produced.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Every submission, in completion order per client.
    pub samples: Vec<JobSample>,
    /// First submit to last result, seconds.
    pub wall_s: f64,
}

/// The kind and gateway of the `k`-th job (0-based): kinds round-robin
/// starting at `seed mod kinds`, gateways alternate.
pub fn placement(k: u64, seed: u64, kinds: usize, gateways: usize) -> (usize, usize) {
    (
        ((k + seed) % kinds as u64) as usize,
        (k % gateways as u64) as usize,
    )
}

/// Drive a closed loop of `clients` submitters — callers that each wait
/// for their result before sending the next job — for at least `budget`,
/// then to the end of the current round so every kind is submitted equally
/// often. `first_job` offsets job ids so successive streams on one pool
/// never reuse an id.
pub fn run_stream(
    addrs: &[SocketAddr],
    kinds: &[JobKind],
    clients: usize,
    budget: Duration,
    seed: u64,
    first_job: u64,
) -> Stream {
    let next = AtomicU64::new(0);
    // First job index that is no longer handed out; set once time is up.
    let end = AtomicU64::new(u64::MAX);
    let round = kinds.len() as u64;
    let started = Instant::now();
    let samples: Vec<JobSample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::SeqCst);
                        if started.elapsed() >= budget {
                            // Close at the end of the round `k` is in.
                            end.fetch_min(k.div_ceil(round) * round, Ordering::SeqCst);
                        }
                        if k >= end.load(Ordering::SeqCst) {
                            break;
                        }
                        let (kind, gateway) = placement(k, seed, kinds.len(), addrs.len());
                        let job = first_job + k;
                        let instance = &kinds[kind].instance;
                        let t = Instant::now();
                        let result = submit_job(
                            addrs[gateway],
                            JobId::from(job),
                            &instance.any,
                            JOB_TIMEOUT,
                        );
                        let latency_s = t.elapsed().as_secs_f64();
                        let failure = match result {
                            Err(e) => Some(format!("submit_job: {e}")),
                            Ok(o) if !o.finished => Some("result not final".to_string()),
                            Ok(o) if o.incumbent.to_bits() != instance.optimum.to_bits() => {
                                Some(format!(
                                    "incumbent {} differs from the sequential optimum {}",
                                    o.incumbent, instance.optimum
                                ))
                            }
                            Ok(_) => None,
                        };
                        mine.push(JobSample {
                            job,
                            kind,
                            latency_s,
                            failure,
                        });
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("submitter threads do not panic"))
            .collect()
    });
    Stream {
        samples,
        wall_s: started.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_round_robins_kinds_and_alternates_gateways() {
        let seq: Vec<_> = (0..8).map(|k| placement(k, 0, 4, 2)).collect();
        assert_eq!(
            seq,
            vec![
                (0, 0),
                (1, 1),
                (2, 0),
                (3, 1),
                (0, 0),
                (1, 1),
                (2, 0),
                (3, 1)
            ]
        );
        // The seed rotates which kind goes first, nothing else.
        assert_eq!(placement(0, 6, 4, 2), (2, 0));
        assert_eq!(placement(1, 6, 4, 2), (3, 1));
        // Every window of `kinds` consecutive jobs holds each kind once.
        for seed in 0..5 {
            let mut kinds: Vec<_> = (8..12).map(|k| placement(k, seed, 4, 2).0).collect();
            kinds.sort_unstable();
            assert_eq!(kinds, vec![0, 1, 2, 3]);
        }
    }
}
