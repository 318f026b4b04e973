//! The untraced run: a real `bayou-server` child process, the end-to-end
//! metrics and the correctness gate.

use crate::child::{ServerProcess, TempDir};
use crate::host;
use crate::load::{key_name, ConnRun, Workload, CLASSES, CONNS, WINDOW};
use crate::session::{
    check_replies, check_state, connect, timed_phase, warm_up, Readers, SETTLE_POLL,
};
use crate::stats::{median_f64, quantile, tail, trimmed_mean, Metrics};
use bayou_data::KvOp;
use bayou_server::Reply;
use bayou_types::Level;
use std::collections::HashSet;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Trials per run, each on a fresh deployment: the run's `--seconds`
/// are split evenly between their timed phases. Every metric is the mean
/// of the middle half of the kept trials (`trimmed_mean`), except
/// `setup_s`, their median. Throughput differs more between server
/// instances than between seconds of one instance, so many short trials
/// measure it more steadily than one long one.
const TRIALS: usize = 16;
/// Host CPU steal above which a trial is left out, as long as at least
/// half of the trials stay in; otherwise the half with the least steal
/// is kept.
const MAX_STEAL: f64 = 0.025;
const CONVERGE_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// A server and its data dir; the server is killed before the dir is
/// removed (fields drop in order).
struct Deployment {
    server: ServerProcess,
    dir: TempDir,
}

/// Spawns on a fresh data dir and warms up; returns the deployment, the
/// values written and the set-up time.
fn set_up(
    bin: &Path,
    work: &Path,
    w: Workload,
    seed: u64,
) -> io::Result<(Deployment, Vec<i64>, f64)> {
    let dir = TempDir::new(work, w.name)?;
    let t = Instant::now();
    let server = ServerProcess::spawn(bin, &dir.0, w.lease_ms)?;
    let addr = server.addr.clone();
    let (written, ready) = warm_up(&|| connect(&addr), w, seed)?;
    let secs = (ready - t).as_secs_f64();
    Ok((Deployment { server, dir }, written, secs))
}

/// Prints the per-class latency lines (only classes the workload issues)
/// with their sample counts.
fn print_classes(w: Workload, run: &mut ConnRun) {
    for class in CLASSES.into_iter().filter(|c| w.issues(*c)) {
        let samples = &mut run.latency[class.index()];
        let n = samples.len();
        let name = class.name();
        let Some(p50) = quantile(samples, 0.5) else {
            println!("  {name}: no samples");
            continue;
        };
        println!(
            "  {:<20} {:>10.3} ms     (n={n})",
            format!("{name}_p50_ms"),
            ms(p50)
        );
        match tail(samples) {
            Some((q, v)) => println!(
                "  {:<20} {:>10.3} ms     (p{}, {:.0} samples beyond, n={n})",
                format!("{name}_p99_ms"),
                ms(v),
                q * 100.0,
                (1.0 - q) * n as f64
            ),
            None => println!("  {name}: too few samples for a tail percentile"),
        }
    }
}

/// What one trial measured.
struct Trial {
    run: ConnRun,
    elapsed: Duration,
    p50_ms: f64,
    p99_ms: f64,
    setup_s: f64,
    recovery_s: f64,
    rss_mb: f64,
    drains: Vec<f64>,
    settle_s: f64,
    /// Share of CPU time the host stole during the timed phase.
    steal: f64,
}

/// One trial on a fresh data dir: set-up, timed phase, quiescence and
/// the convergence check, then `kill -9`, restart and the durability
/// check.
fn trial(
    bin: &Path,
    work: &Path,
    w: Workload,
    seed: u64,
    timed_for: Duration,
    problems: &mut Vec<String>,
) -> io::Result<Trial> {
    let (mut d, written, setup_s) = set_up(bin, work, w, seed)?;
    let addr = d.server.addr.clone();
    let conn = || connect(&addr);
    let cpu = host::cpu_times();
    let timed = timed_phase(&conn, w, seed, timed_for, false)?;
    let steal = host::steal_since(cpu);
    let written: HashSet<i64> = written
        .into_iter()
        .chain(timed.run.written.iter().copied())
        .collect();
    check_replies(&timed.run, &written, problems);

    // quiescence: all three replicas answer the same, valid state
    let t = Instant::now();
    let converged = Readers::open(&conn)?.converge(SETTLE_POLL, CONVERGE_TIMEOUT)?;
    let settle_s = t.elapsed().as_secs_f64();
    if let Err(e) = check_state(&converged, &written) {
        problems.push(e);
    }
    let rss_mb = d.server.peak_rss_mb()?;

    // recovery: kill -9, restart on the same dir, first strong op served
    d.server.kill();
    let t = Instant::now();
    d.server = ServerProcess::spawn(bin, &d.dir.0, w.lease_ms)?;
    match connect(&d.server.addr)?.call(Level::Strong, KvOp::get(key_name(0)))? {
        Reply::Ok(_) => {}
        other => {
            return Err(io::Error::other(format!(
                "strong op after restart: {other:?}"
            )))
        }
    }
    let recovery_s = t.elapsed().as_secs_f64();
    // committed writes are durable: the restarted replicas answer the
    // state they converged to before the kill
    let addr = d.server.addr.clone();
    if let Err(e) = Readers::open(&|| connect(&addr))?.expect(&converged, CONVERGE_TIMEOUT) {
        problems.push(e.to_string());
    }
    drop(d);

    let run = timed.run;
    let mut all: Vec<u64> = run.latency.iter().flatten().copied().collect();
    let p50_ms = quantile(&mut all, 0.5).map_or(0.0, ms);
    let p99_ms = tail(&mut all).map_or(0.0, |(_, v)| ms(v));
    Ok(Trial {
        run,
        elapsed: timed.elapsed,
        p50_ms,
        p99_ms,
        setup_s,
        recovery_s,
        rss_mb,
        drains: timed.drains.iter().map(Duration::as_secs_f64).collect(),
        settle_s,
        steal,
    })
}

pub fn run(bin: &Path, work: &Path, w: Workload, seed: u64, seconds: u64) -> io::Result<Outcome> {
    let timed_for = Duration::from_secs_f64(seconds as f64 / TRIALS as f64);
    let mut problems: Vec<String> = Vec::new();
    let mut trials = Vec::with_capacity(TRIALS);
    for k in 0..TRIALS as u64 {
        let trial_seed = seed.wrapping_mul(TRIALS as u64).wrapping_add(k);
        trials.push(trial(bin, work, w, trial_seed, timed_for, &mut problems)?);
    }
    // On a shared host, trials during which the host stole CPU time run
    // up to 2x slow for reasons outside the program: they are left out
    // (their ops still count as attempted, and failed ones as failed).
    trials.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    let clean = trials.iter().filter(|t| t.steal <= MAX_STEAL).count();
    let stolen = trials.split_off(clean.max(TRIALS / 2));
    let left_out: Vec<f64> = stolen.iter().map(|t| t.steal).collect();
    let mut left_out_run = ConnRun::default();
    for t in stolen {
        left_out_run.merge(t.run);
    }

    let each = |f: fn(&Trial) -> f64| -> Vec<f64> { trials.iter().map(f).collect() };
    let ok_per_s = each(|t| t.run.oks as f64 / t.elapsed.as_secs_f64());
    let p50 = each(|t| t.p50_ms);
    let p99 = each(|t| t.p99_ms);
    let setup = each(|t| t.setup_s);
    let recovery = each(|t| t.recovery_s);
    let rss = each(|t| t.rss_mb);
    let settle = each(|t| t.settle_s);
    let steal = each(|t| t.steal);
    let drains: Vec<f64> = trials
        .iter()
        .flat_map(|t| t.drains.iter().copied())
        .collect();
    let kept = trials.len();
    let under_load: f64 = trials.iter().map(|t| t.elapsed.as_secs_f64()).sum();
    let mut run = ConnRun::default();
    for t in trials {
        run.merge(t.run);
    }
    let failed = run.failed() + left_out_run.failed();
    let attempted = run.sent + left_out_run.sent;

    let shape = match w.burst_ms {
        Some(b) => format!("in bursts of {b} ms each followed by quiescence"),
        None => "continuous".into(),
    };
    println!(
        "workload {} (seed {seed}): {kept} of {TRIALS} trials kept, each timed for {:.2} s ({:.2} s of it under load), \
         {shape}, closed loop of {CONNS} conns x window {WINDOW}; metrics: mean of the middle half of the kept trials (listed by rising host steal), setup_s their median",
        w.name,
        timed_for.as_secs_f64(),
        under_load / kept as f64,
    );
    let line = |name: &str, unit: &str, centre: fn(&[f64]) -> f64, v: &[f64]| {
        println!("  {name:<16} {:>12.4} {unit:<6} trials {v:.4?}", centre(v));
    };
    line("ok_per_s", "ops/s", trimmed_mean, &ok_per_s);
    line("p50_ms", "ms", trimmed_mean, &p50);
    line("p99_ms", "ms", trimmed_mean, &p99);
    line("setup_s", "s", median_f64, &setup);
    line("recovery_s", "s", trimmed_mean, &recovery);
    line("server_rss_mb", "MiB", trimmed_mean, &rss);
    println!("  pooled over trials, per op class:");
    print_classes(w, &mut run);
    println!(
        "  {:<20} {:>10.6} ratio  ({failed} of {attempted} sent: busy, err, retry or unanswered)",
        "failed_frac",
        failed as f64 / attempted.max(1) as f64,
    );
    line("settle_s", "s", median_f64, &settle);
    line("host_steal", "ratio", median_f64, &steal);
    if !left_out.is_empty() {
        println!(
            "  {} trial(s) left out because the host stole CPU time: {left_out:.3?}",
            left_out.len()
        );
    }
    if !drains.is_empty() {
        println!(
            "  {:<16} {:>12.4} s      median over {} bursts, max {:.4} s",
            "drain_s",
            median_f64(&drains),
            drains.len(),
            drains.iter().copied().fold(0.0, f64::max)
        );
    }
    for p in &problems {
        println!("  CORRECTNESS FAILURE: {p}");
    }

    let mut metrics = Metrics::default();
    metrics.push("ok_per_s", trimmed_mean(&ok_per_s), "ops/s");
    metrics.push("p50_ms", trimmed_mean(&p50), "ms");
    metrics.push("setup_s", median_f64(&setup), "s");
    metrics.push("recovery_s", trimmed_mean(&recovery), "s");
    metrics.push("server_rss_mb", trimmed_mean(&rss), "MiB");
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
    })
}
