//! The repository benchmark: closed-loop serving workloads against a
//! real `bayou-server`, and a traced run that splits the same traffic
//! into per-layer stages. See `perfbench/README.md`.
//!
//! ```text
//! bayou-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                 --server-bin PATH --work-dir PATH
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`). Any error exits
//! non-zero without printing a result.

mod child;
mod e2e;
mod host;
mod load;
mod probe;
mod session;
mod stats;
mod traced;

use load::Workload;
use std::path::PathBuf;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server_bin: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server_bin = None;
    let mut work_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            "--server-bin" => server_bin = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        server_bin: server_bin.ok_or("--server-bin is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bayou-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = if args.trace {
        traced::run(&args.work_dir, args.workload, args.seed, args.seconds)
    } else {
        e2e::run(
            &args.server_bin,
            &args.work_dir,
            args.workload,
            args.seed,
            args.seconds,
        )
    };
    match outcome {
        Ok(o) => println!(
            "{}",
            stats::result_line(o.correct, o.attempted, o.failed, &o.metrics)
        ),
        Err(e) => {
            eprintln!("bayou-perfbench: {e}");
            std::process::exit(1);
        }
    }
}
