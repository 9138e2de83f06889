//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, a
//! JSON object with `correct`, `attempted`, `failed` and `metrics`
//! (end-to-end metrics untraced, per-layer metrics traced). `all` runs
//! every workload in turn and prints one such line each. Spans of a
//! traced run are written under the build directory.

use std::path::PathBuf;
use std::process::ExitCode;

use kvcsd_perfbench::run::{self, Params, Workload};
use kvcsd_perfbench::trace::to_jsonl;
use kvcsd_perfbench::{BenchError, Result};

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| BenchError(format!("{flag} needs a value")))?;
        let bad = |what: &str| BenchError(format!("bad {what}: {value}"));
        match flag.as_str() {
            "--workload" if value == "all" => workload = Some(Workload::ALL.to_vec()),
            "--workload" => {
                workload = Some(vec![Workload::parse(&value).ok_or_else(|| bad("workload"))?])
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            _ => return Err(BenchError(format!("unknown flag {flag}"))),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workloads: workload.ok_or_else(|| {
            BenchError(format!("--workload is all or one of {}", names.join(", ")))
        })?,
        seed: seed.ok_or_else(|| BenchError("--seed is required".into()))?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

/// Where spans go: one file per workload in the build directory, each
/// traced run replacing the last.
fn trace_path(w: Workload) -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    base.join("perfbench-trace")
        .join(format!("{}.jsonl", w.name()))
}

fn main_inner() -> Result<bool> {
    let a = parse_args()?;
    let mut correct = true;
    for &w in &a.workloads {
        correct &= run_one(w, &a)?;
    }
    Ok(correct)
}

fn run_one(w: Workload, a: &Args) -> Result<bool> {
    let outcome = run::run(w, &Params::standard(), a.seed, a.seconds, a.trace)?;
    if let Some(spans) = &outcome.spans {
        let path = trace_path(w);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| BenchError(format!("{}: {e}", dir.display())))?;
        }
        std::fs::write(&path, to_jsonl(spans))
            .map_err(|e| BenchError(format!("{}: {e}", path.display())))?;
        eprintln!(
            "perfbench: {} spans written to {}",
            spans.len(),
            path.display()
        );
    }
    for m in &outcome.metrics {
        eprintln!(
            "perfbench: {:<16} {:<34} {:>16.4} {}",
            w.name(),
            m.name,
            m.value,
            m.unit
        );
    }
    println!("{}", run::result_json(&outcome));
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: results were wrong or not reproducible");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
