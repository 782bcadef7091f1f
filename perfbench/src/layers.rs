//! Metric names, units and the measurements every workload shares.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use multimap_core::{
    hilbert_mapping, zorder_mapping, GridSpec, Mapping, MultiMapping, NaiveMapping,
};
use multimap_disksim::DiskGeometry;
use multimap_telemetry::{Counter, Metrics as Telemetry, Span};

use crate::common::{iqr, median, peak_rss_mb, timed, Metrics, Rng};

/// Every per-layer metric, in reporting order, with its unit. A
/// workload that does not reach a layer reports 0 for its metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.parallel_efficiency", "ratio"),
    ("engine.figure_ms.fig6a", "ms"),
    ("engine.figure_ms.fig6b", "ms"),
    ("engine.figure_ms.fig7a", "ms"),
    ("engine.figure_ms.fig7b", "ms"),
    ("engine.figure_ms.fig8", "ms"),
    ("engine.figure_ms.model", "ms"),
    ("query.plan_ms", "ms"),
    ("query.translate_ms", "ms"),
    ("query.schedule_ms", "ms"),
    ("query.service_ms", "ms"),
    ("query.translation_cache_hit_rate", "ratio"),
    ("core.lbn_of_ns.naive", "ns"),
    ("core.lbn_of_ns.zorder", "ns"),
    ("core.lbn_of_ns.hilbert", "ns"),
    ("core.lbn_of_ns.multimap", "ns"),
    ("core.mapping_build_ms.zorder", "ms"),
    ("core.mapping_build_ms.hilbert", "ms"),
    ("core.mapping_build_ms.multimap", "ms"),
    ("disksim.requests", "count"),
    ("disksim.sptf_candidates_per_decision", "count"),
    ("disksim.seek_memo_hit_rate", "ratio"),
    ("disksim.window_evictions_per_request", "ratio"),
    ("disksim.adjacency_hop_frac", "ratio"),
    ("server.scenario_ms", "ms"),
    ("server.batches", "count"),
    ("server.requests_per_batch", "count"),
    ("server.sim_device_frac", "ratio"),
    ("server.shed", "count"),
    ("server.rejected", "count"),
    ("server.sustained_rps", "1/s"),
    ("server.shed_frac", "ratio"),
    ("store.page_cache_hit_rate", "ratio"),
    ("store.prefetch_efficiency", "ratio"),
    ("store.evictions_per_op", "ratio"),
    ("store.writeback_pages", "count"),
    ("store.beam_us.p50", "us"),
    ("store.beam_us.p99", "us"),
    ("store.insert_us.p50", "us"),
    ("store.insert_us.p99", "us"),
    ("telemetry.trace_overhead_pct", "%"),
    ("telemetry.trace_overhead_iqr_pct", "%"),
];

/// Per-layer values collected by a traced run.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// Emit every per-layer metric in reporting order.
    pub fn emit(self, metrics: &mut Metrics) {
        for &(name, unit) in PER_LAYER {
            metrics.put(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn frac(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The wall-clock end-to-end metrics shared by every workload.
pub fn wall_metrics(metrics: &mut Metrics, setup_s: &[f64], pass_s: &[f64], ops_per_pass: &[u64]) {
    let rates: Vec<f64> = pass_s
        .iter()
        .zip(ops_per_pass)
        .map(|(&s, &n)| n as f64 / s)
        .collect();
    metrics.put("setup_s", median(setup_s), "s");
    metrics.put("peak_rss_mb", peak_rss_mb(), "MiB");
    metrics.put("sweep_s", median(pass_s), "s");
    metrics.put("ops_per_s", median(&rates), "1/s");
}

/// The simulated end-to-end metrics shared by every workload.
pub fn sim_metrics(metrics: &mut Metrics, mean_ms: f64, p50_ms: f64, p99_ms: f64, speedup: f64) {
    metrics.put("sim_ms_per_op", mean_ms, "ms");
    metrics.put("sim_p50_ms", p50_ms, "ms");
    metrics.put("sim_p99_ms", p99_ms, "ms");
    metrics.put("multimap_speedup", speedup, "ratio");
}

/// Run interleaved untraced/traced rounds until `budget` has elapsed
/// (at least `min_rounds`). Odd rounds run the traced pass first, so
/// neither side always pays the warmer or colder position. Returns the
/// per-round untraced and traced wall seconds.
pub fn interleaved(
    budget: std::time::Duration,
    min_rounds: usize,
    mut pass: impl FnMut(bool) -> f64,
) -> (Vec<f64>, Vec<f64>) {
    let started = Instant::now();
    let (mut off, mut on) = (Vec::new(), Vec::new());
    while off.len() < min_rounds || started.elapsed() < budget {
        let traced_first = off.len() % 2 == 1;
        for traced in [traced_first, !traced_first] {
            multimap_telemetry::set_enabled(traced);
            let s = pass(traced);
            if traced {
                on.push(s);
            } else {
                off.push(s);
            }
        }
    }
    multimap_telemetry::set_enabled(false);
    (off, on)
}

/// Tracing overhead from paired rounds: the median and the spread of
/// the per-pair relative slowdown, in percent.
pub fn trace_overhead(layers: &mut Layers, off: &[f64], on: &[f64]) {
    let pct: Vec<f64> = off
        .iter()
        .zip(on)
        .map(|(a, b)| (b - a) / a * 100.0)
        .collect();
    layers.set("telemetry.trace_overhead_pct", median(&pct));
    layers.set("telemetry.trace_overhead_iqr_pct", iqr(&pct));
}

/// Scheduler counters recorded in a telemetry fold.
pub fn disksim_layer(layers: &mut Layers, t: &Telemetry) {
    let c = |k: Counter| t.counter_value(k) as f64;
    let serviced = c(Counter::RequestsServiced);
    layers.set("disksim.requests", serviced);
    layers.set(
        "disksim.sptf_candidates_per_decision",
        frac(c(Counter::SptfCandidateExamined), serviced),
    );
    layers.set(
        "disksim.seek_memo_hit_rate",
        t.hit_rate(Counter::SeekMemoHit, Counter::SeekMemoMiss)
            .unwrap_or(0.0),
    );
    layers.set(
        "disksim.window_evictions_per_request",
        frac(c(Counter::SptfWindowEviction), serviced),
    );
    layers.set(
        "disksim.adjacency_hop_frac",
        frac(
            c(Counter::AdjacencyHop),
            c(Counter::AdjacencyHop) + c(Counter::SeekTransition),
        ),
    );
}

/// Executor span totals of one traced pass, in wall milliseconds.
pub fn span_ms(t: &Telemetry) -> [f64; 4] {
    Span::ALL.map(|s| t.span_stat(s).wall_ms)
}

/// Cells replayed through `lbn_of` per timing batch.
const LBN_CELLS: usize = 4096;
/// Passes over the cell set per timing batch.
const LBN_PASSES: usize = 32;

/// The core/sfc layer on `grid`: mapping construction time (median of
/// three builds) and `Mapping::lbn_of` over a fixed seeded cell set
/// (median of three batches).
pub fn core_layer(layers: &mut Layers, geom: &DiskGeometry, grid: &GridSpec, seed: u64) {
    // Three builds each; the last one is kept for the lookups.
    let build = |f: &dyn Fn() -> Box<dyn Mapping>| {
        let runs: Vec<(Box<dyn Mapping>, f64)> = (0..3).map(|_| timed(f)).collect();
        let ms: Vec<f64> = runs.iter().map(|(_, s)| s * 1e3).collect();
        (
            runs.into_iter().last().expect("three builds").0,
            median(&ms),
        )
    };
    let (zorder, z_ms) =
        build(&|| Box::new(zorder_mapping(grid.clone(), 0, 1).expect("grid fits a curve")));
    let (hilbert, h_ms) =
        build(&|| Box::new(hilbert_mapping(grid.clone(), 0, 1).expect("grid fits a curve")));
    let (multimap, m_ms) =
        build(&|| Box::new(MultiMapping::new(geom, grid.clone()).expect("grid fits the disk")));
    layers.set("core.mapping_build_ms.zorder", z_ms);
    layers.set("core.mapping_build_ms.hilbert", h_ms);
    layers.set("core.mapping_build_ms.multimap", m_ms);

    let naive: Box<dyn Mapping> = Box::new(NaiveMapping::new(grid.clone(), 0));
    let mut rng = Rng::new(seed ^ 0x1b0f);
    let cells: Vec<Vec<u64>> = (0..LBN_CELLS).map(|_| rng.coord(grid.extents())).collect();
    for (name, m) in [
        ("core.lbn_of_ns.naive", &naive),
        ("core.lbn_of_ns.zorder", &zorder),
        ("core.lbn_of_ns.hilbert", &hilbert),
        ("core.lbn_of_ns.multimap", &multimap),
    ] {
        let batch = || {
            let (_, s) = timed(|| {
                let mut acc = 0u64;
                for _ in 0..LBN_PASSES {
                    for c in &cells {
                        acc =
                            acc.wrapping_add(m.lbn_of(black_box(c)).expect("cell is in the grid"));
                    }
                }
                black_box(acc)
            });
            s * 1e9 / (LBN_CELLS * LBN_PASSES) as f64
        };
        let ns: Vec<f64> = (0..3).map(|_| batch()).collect();
        layers.set(name, median(&ns));
    }
}
