//! Regression gate: holds a fresh BENCH file to a committed baseline.
//!
//! ```text
//! cargo run --release -p multimap-bench --bin benchgate -- BENCH_fresh.json BENCH_pr9.json
//! cargo run --release -p multimap-bench --bin benchgate -- BENCH_fresh_pr10.json BENCH_pr10.json
//! ```
//!
//! The rules follow the files' `"bench"` field (see
//! `multimap_bench::gate`). Exit status is 0 when every rule holds, 1
//! when any is broken (each is printed), and 2 when a file cannot be
//! read or parsed.

use multimap_bench::gate;
use multimap_telemetry::json::{self, Value};

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string());
    text.and_then(|text| json::parse(&text)).unwrap_or_else(|e| {
        eprintln!("error: {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [fresh_path, baseline_path] = args.as_slice() else {
        eprintln!("usage: benchgate <fresh.json> <baseline.json>");
        std::process::exit(2);
    };
    let (fresh, baseline) = (load(fresh_path), load(baseline_path));
    let violations = gate::check(&fresh, &baseline);
    for v in &violations {
        eprintln!("FAIL: {v}");
    }
    if !violations.is_empty() {
        std::process::exit(1);
    }
    let kind = fresh.get("bench").and_then(Value::as_str).unwrap_or_default();
    println!("benchgate: {fresh_path} holds every {kind} rule against {baseline_path}");
}
