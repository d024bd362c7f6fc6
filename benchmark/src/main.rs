//! `pod-bench`: the repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! pod-bench run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! pod-bench sensitivity [--seed N] [--out DIR]
//! pod-bench worker …        (internal: cxl-serve's worker process)
//! ```

mod host;
mod report;
mod run;
mod script;
mod sensitivity;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;

/// The seed a bare `pod-bench run` uses.
const DEFAULT_SEED: u64 = 1;
/// Seconds of rounds per workload; `BENCHMARK.json` records the same.
const DEFAULT_SECONDS: f64 = 20.0;

/// Parsed command line of `run` and `sensitivity`.
pub struct Args {
    /// `None` runs every workload in turn.
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub out_dir: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            out.traced = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value {value:?}");
        match flag.as_str() {
            "--workload" => {
                if !report::WORKLOADS.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload {value:?}; one of {}",
                        report::WORKLOADS.join(", ")
                    ));
                }
                out.workload = Some(value.clone());
            }
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad())?;
                if !(out.seconds > 0.0 && out.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                out.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => out.out_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(out)
}

fn main() {
    host::nproc();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("worker") => cxl_serve::main_from_args(&argv),
        Some(command @ ("run" | "sensitivity")) => match parse(&argv[1..]) {
            Ok(args) if command == "run" => run::main(&args),
            Ok(args) => sensitivity::main(&args),
            Err(e) => {
                eprintln!("pod-bench {command}: {e}");
                2
            }
        },
        _ => {
            eprintln!(
                "usage: pod-bench run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n       \
                 pod-bench sensitivity [--seed N] [--out DIR]\n\
                 workloads: {}",
                report::WORKLOADS.join(", ")
            );
            2
        }
    };
    std::process::exit(code);
}
