//! Serving smoke benchmark: runs the quick-scale multi-tenant serving
//! sweep (mapping × backend × tenant-count × policy) serially and in
//! parallel, checks the two runs are byte-identical, and writes
//! `BENCH_pr10.json` with per-tenant p50/p99/p999 and admission
//! counters for every cell.
//!
//! ```text
//! cargo run --release -p multimap-bench --bin serving -- \
//!     [--out BENCH_pr10.json] [--scale quick|large|paper]
//! ```
//!
//! Exit status is non-zero if the parallel sweep diverges from the
//! serial reference, the sweep covers fewer than 4 concurrent tenants,
//! or — the headline — MultiMap's merged p99 exceeds Naive's on the
//! rotating disk at any tenant count and policy (the adjacency
//! advantage must survive queueing, which is the research question the
//! paper never measured).

// staticcheck: allow-file(no-unwrap) — benchmark/CLI binary: aborting with a message on a malformed run is the intended failure mode.

use multimap_bench::serving::{serving_sweep, serving_table, TENANT_COUNTS};
use multimap_bench::Scale;
use multimap_telemetry::json::{obj, Value};

fn main() {
    let mut out_path = "BENCH_pr10.json".to_string();
    let mut scale = Scale::Quick;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--scale" => {
                scale = match args.next().expect("--scale needs a value").as_str() {
                    "quick" => Scale::Quick,
                    "large" => Scale::Large,
                    "paper" => Scale::Paper,
                    other => {
                        eprintln!("unknown scale {other}");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    // Serial reference, then a 4-worker replay: every report, trace
    // included, must be bit-identical at any thread count.
    multimap_engine::set_threads(1);
    let serial = serving_sweep(scale);
    multimap_engine::set_threads(4);
    let parallel = serving_sweep(scale);
    multimap_engine::set_threads(0);
    let identity = serial.len() == parallel.len()
        && serial.iter().zip(&parallel).all(|(s, p)| s.report.identical(&p.report));

    let table = serving_table(&serial);
    println!("{}", table.render());

    let max_tenants = serial.iter().map(|c| c.spec.tenants).max().unwrap_or(0);

    // Tail-advantage gate: fixed workload, swap only the mapping. On
    // the rotating disk MultiMap's merged p99 must not exceed Naive's
    // (bucketed quantiles can tie at an edge) and its exact mean must be
    // strictly lower, for every (tenants, policy) combination.
    let mut tail_advantage = true;
    let mut tail_rows = Vec::new();
    for c in serial.iter().filter(|c| {
        c.spec.backend == "disk" && c.spec.mapping == "MultiMap"
    }) {
        let naive = serial
            .iter()
            .find(|n| {
                n.spec.backend == "disk"
                    && n.spec.mapping == "Naive"
                    && n.spec.tenants == c.spec.tenants
                    && n.spec.policy == c.spec.policy
            })
            .expect("matching Naive cell");
        let (mp99, np99) = (c.merged_quantile(0.99), naive.merged_quantile(0.99));
        let (mmean, nmean) = (c.merged_mean(), naive.merged_mean());
        let holds = match (mp99, np99, mmean, nmean) {
            (Some(mq), Some(nq), Some(mm), Some(nm)) => mq <= nq && mm < nm,
            _ => false,
        };
        tail_advantage &= holds;
        tail_rows.push(obj([
            ("tenants", c.spec.tenants.into()),
            ("policy", c.spec.policy.slug().into()),
            ("multimap_p99_ms", Value::fixed(mp99, 3)),
            ("naive_p99_ms", Value::fixed(np99, 3)),
            ("multimap_mean_ms", Value::fixed(mmean, 3)),
            ("naive_mean_ms", Value::fixed(nmean, 3)),
            ("holds", holds.into()),
        ]));
    }
    let tail_rows = Value::Arr(tail_rows);
    let cells = serial.iter().map(|c| {
        let tenant_detail = c.report.tenants.iter().map(|t| {
            obj([
                ("name", t.name.as_str().into()),
                ("submitted", t.submitted.into()),
                ("completed", t.completed.into()),
                ("shed_deadline", t.shed_deadline.into()),
                ("rejected_queue_full", t.rejected_queue_full.into()),
                ("disk_requests", t.disk_requests.into()),
                ("p50_ms", Value::fixed(t.p50(), 3)),
                ("p99_ms", Value::fixed(t.p99(), 3)),
                ("p999_ms", Value::fixed(t.p999(), 3)),
            ])
        });
        obj([
            ("backend", c.spec.backend.into()),
            ("mapping", c.spec.mapping.into()),
            ("tenants", c.spec.tenants.into()),
            ("policy", c.spec.policy.slug().into()),
            ("completed", c.completed().into()),
            ("shed", c.shed().into()),
            ("rejected", c.rejected().into()),
            ("p50_ms", Value::fixed(c.merged_quantile(0.50), 3)),
            ("p99_ms", Value::fixed(c.merged_quantile(0.99), 3)),
            ("p999_ms", Value::fixed(c.merged_quantile(0.999), 3)),
            ("mean_ms", Value::fixed(c.merged_mean(), 3)),
            ("makespan_ms", Value::fixed(c.report.makespan_ms, 3)),
            ("digest", Value::Str(format!("{:016x}", c.report.digest))),
            ("tenant_detail", Value::Arr(tenant_detail.collect())),
        ])
    });
    let json = obj([
        ("bench", "pr10-serving".into()),
        ("scale", scale.slug().into()),
        (
            "gates",
            obj([
                ("serving_identity", identity.into()),
                ("max_concurrent_tenants", max_tenants.into()),
                ("tail_advantage_disk", tail_advantage.into()),
            ]),
        ),
        ("tail_advantage", tail_rows.clone()),
        ("cells", Value::Arr(cells.collect())),
    ])
    .to_pretty();

    std::fs::write(&out_path, &json).expect("write bench json");
    println!("wrote {out_path}");

    if !identity {
        eprintln!("GATE FAILED: parallel serving sweep diverged from serial reference");
        std::process::exit(1);
    }
    if max_tenants < TENANT_COUNTS[0].max(4) {
        eprintln!("GATE FAILED: sweep covers fewer than 4 concurrent tenants");
        std::process::exit(1);
    }
    if !tail_advantage {
        eprintln!(
            "GATE FAILED: MultiMap merged p99 exceeds Naive on the rotating disk: {}",
            tail_rows.to_pretty()
        );
        std::process::exit(1);
    }
    println!(
        "gates: serving_identity ok, {max_tenants} concurrent tenants, tail advantage holds"
    );
}
