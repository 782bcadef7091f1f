//! The repository's benchmark: one process, one workload per run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload figures --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads are `figures`, `serve` and `store-rw` (see `WORKLOADS.md`).
//! `--trace 0` reports the end-to-end metrics with telemetry off;
//! `--trace 1` reports the per-layer metrics with telemetry on for the
//! traced passes. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Run from the
//! repository root: `figures` compares its tables against
//! `results/quick/*.tsv` (override with `--reference <dir>`).

mod common;
mod figures;
mod layers;
mod serve;
mod store;

use std::path::PathBuf;
use std::time::Duration;

use common::{result_json, Ledger, Metrics};

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub budget: Duration,
    pub trace: bool,
    pub reference: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut reference = PathBuf::from("results/quick");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--reference" => reference = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        budget: Duration::from_secs(seconds.max(1)),
        trace,
        reference,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench: {} seed {} on {} available CPUs",
        args.workload,
        args.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    // The untraced run measures with telemetry off; traced passes turn
    // it on themselves.
    multimap_telemetry::set_enabled(false);
    let mut ledger = Ledger::default();
    let mut metrics = Metrics::default();
    let run = match args.workload.as_str() {
        "figures" => figures::run,
        "serve" => serve::run,
        "store-rw" => store::run,
        other => {
            eprintln!("error: unknown workload {other:?} (figures | serve | store-rw)");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args, &mut ledger, &mut metrics) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    println!("{}", result_json(&ledger, &metrics));
    if !ledger.failures.is_empty() {
        std::process::exit(1);
    }
}
