//! The benchmark's own checks: a corrupted reference must fail the run,
//! a second seed must keep MultiMap ahead, and the metrics printed must
//! be exactly the ones `BENCHMARK.json` declares.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Run one workload for one second; returns the exit success and the
/// last line of standard output.
fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_multimap-perfbench"))
        .args(["--seconds", "1"])
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.success(), last)
}

/// The number after `"key": ` in a flat JSON text.
fn number(json: &str, key: &str) -> f64 {
    let at = json
        .find(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("{key} missing in {json}"));
    let rest = json[at + key.len() + 3..].trim_start();
    let rest = rest
        .strip_prefix("{\"value\":")
        .unwrap_or(rest)
        .trim_start();
    let end = rest.find([',', '}']).expect("number ends");
    rest[..end]
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("{key}: {e}"))
}

/// Metric names in the order the result line prints them.
fn printed_names(json: &str) -> Vec<String> {
    let chunks: Vec<&str> = json.split(": {\"value\":").collect();
    chunks[..chunks.len() - 1]
        .iter()
        .map(|c| {
            let c = c.strip_suffix('"').expect("name is quoted");
            c[c.rfind('"').expect("name opens") + 1..].to_string()
        })
        .collect()
}

/// Metric names of one section (`end_to_end` or `per_layer`) of
/// `BENCHMARK.json`, in declared order.
fn declared_names(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section closes");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

#[test]
fn a_corrupted_reference_table_fails_the_run() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("corrupted-reference");
    std::fs::create_dir_all(&dir).unwrap();
    let quick = repo_root().join("results/quick");
    for entry in std::fs::read_dir(&quick).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "tsv") {
            std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
        }
    }
    let target = dir.join("fig6a_synthetic_beams.tsv");
    let text = std::fs::read_to_string(&target).unwrap();
    let digit = text.rfind(|c: char| c.is_ascii_digit()).unwrap();
    let flipped = if &text[digit..digit + 1] == "1" {
        "2"
    } else {
        "1"
    };
    std::fs::write(
        &target,
        format!("{}{flipped}{}", &text[..digit], &text[digit + 1..]),
    )
    .unwrap();

    let (ok, last) = run(&[
        "--workload",
        "figures",
        "--seed",
        "1",
        "--trace",
        "0",
        "--reference",
        dir.to_str().unwrap(),
    ]);
    assert!(!ok, "a corrupted reference must fail the run: {last}");
    assert!(last.contains("\"correct\": false"), "{last}");
    assert!(number(&last, "failed") >= 1.0, "{last}");
}

#[test]
fn a_second_seed_keeps_multimap_ahead() {
    for workload in ["serve", "store-rw"] {
        let (ok, last) = run(&["--workload", workload, "--seed", "2", "--trace", "0"]);
        assert!(
            ok && last.contains("\"correct\": true"),
            "{workload}: {last}"
        );
        assert_eq!(number(&last, "failed"), 0.0, "{workload}: {last}");
        let speedup = number(&last, "multimap_speedup");
        assert!(speedup > 1.0, "{workload}: MultiMap speedup {speedup}");
    }
}

#[test]
fn printed_metrics_are_the_declared_ones() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let (ok, last) = run(&["--workload", "store-rw", "--seed", "3", "--trace", trace]);
        assert!(ok, "{last}");
        assert_eq!(
            printed_names(&last),
            declared_names(section),
            "--trace {trace}"
        );
    }
}

#[test]
fn unknown_arguments_are_rejected() {
    let (ok, last) = run(&["--workload", "nope"]);
    assert!(!ok && last.is_empty(), "{last}");
    let (ok, last) = run(&["--workload", "serve", "--trace", "2"]);
    assert!(!ok && last.is_empty(), "{last}");
}
