//! The repository benchmark's measuring program.
//!
//! ```text
//! perfbench --workload serve_mix|pipeline_scale|exec_ode --seed N
//!           --seconds S --trace 0|1 --ptsched PATH --out DIR
//! ```
//!
//! Runs one workload in this (fresh) process and prints one JSON object
//! as its last line: the correctness verdict, attempted and failed counts,
//! the metrics by name and unit, and context.  `perfbench/run.py` builds
//! this program and `ptsched`, runs it and reformats that line.

mod catalog;
mod checks;
mod exec_ode;
mod pipeline_scale;
mod serve_mix;
mod trace;
mod util;

use std::path::PathBuf;
use std::time::Instant;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    ptsched: Option<PathBuf>,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        ptsched: None,
        out: PathBuf::from("."),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => a.trace = value()? == "1",
            "--ptsched" => a.ptsched = Some(PathBuf::from(value()?)),
            "--out" => a.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

/// The CPUs this process may run on, taken once at start-up (before any
/// thread is pinned), and never empty.
fn cpus() -> Vec<usize> {
    let cpus = util::CpuMask::current().cpus();
    if cpus.is_empty() {
        (0..std::thread::available_parallelism().map_or(1, std::num::NonZero::get)).collect()
    } else {
        cpus
    }
}

/// A workload's traced run.  It reports the per-layer metrics of the
/// layers on the workload's own path; its spans are written to
/// `<out>/<workload>-seed<seed>.spans.json`.
fn traced(
    args: &Args,
    ptsched: &std::path::Path,
    cpus: &[usize],
    epoch: Instant,
) -> Result<util::Outcome, String> {
    let (mut out, spans) = match args.workload.as_str() {
        "serve_mix" => serve_mix::run_traced(args.seed, args.seconds, ptsched, cpus, epoch)?,
        "pipeline_scale" => pipeline_scale::run_traced(args.seed, epoch),
        "exec_ode" => exec_ode::run_traced(args.seed, args.seconds, cpus.len(), epoch),
        other => return Err(format!("unknown workload `{other}`")),
    };
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let path = args
        .out
        .join(format!("{}-seed{}.spans.json", args.workload, args.seed));
    let json = serde_json::to_string(&trace::spans_json(&spans)).expect("serialize spans");
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    out.info("spans_file", path.display().to_string());
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let epoch = Instant::now();
    let cpus = cpus();
    let ptsched = || {
        args.ptsched
            .clone()
            .ok_or_else(|| "--ptsched PATH is required".to_string())
    };
    let result = match ptsched() {
        Err(e) => Err(e),
        Ok(p) if args.trace => traced(&args, &p, &cpus, epoch),
        Ok(p) => match args.workload.as_str() {
            "serve_mix" => serve_mix::run(args.seed, args.seconds, &p, &cpus),
            "pipeline_scale" => Ok(pipeline_scale::run(args.seed, args.seconds)),
            "exec_ode" => Ok(exec_ode::run(args.seed, args.seconds, cpus.len())),
            other => Err(format!("unknown workload `{other}`")),
        },
    };
    match result {
        Ok(outcome) => println!("{}", outcome.to_json(&args.workload)),
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
