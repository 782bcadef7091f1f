//! `figures`: the six quick-scale paper tables, rendered by the figure
//! generators at two engine threads, plus a seeded set of beam queries
//! on the Figure 6 dataset for the simulated metrics.

use std::fmt::Write as _;

use multimap_bench::{fig6, fig7, fig8, model_fig, Scale, Table};
use multimap_core::{BoxRegion, GridSpec, Mapping, MultiMapping, NaiveMapping};
use multimap_disksim::{profiles, DiskGeometry};
use multimap_lvm::LogicalVolume;
use multimap_query::{QueryExecutor, QueryRequest};
use multimap_telemetry::Counter;

use crate::common::{median, rank_quantile, repeat_for, timed, Ledger, Metrics, Rng};
use crate::layers::{self, Layers};
use crate::Args;

/// Engine threads for every figure pass (the scaled-down host size).
const THREADS: usize = 2;
/// Seeded beam queries per (disk, dimension).
const BEAMS_PER_DIM: usize = 200;
/// Setup repetitions per run (the median is reported).
const SETUP_REPS: usize = 3;

/// One paper table: its id, its committed TSV, its generator.
struct Figure {
    id: &'static str,
    tsv: &'static str,
    layer: &'static str,
    run: fn(Scale) -> Table,
}

const FIGURES: [Figure; 6] = [
    Figure {
        id: "fig6a",
        tsv: "fig6a_synthetic_beams",
        layer: "engine.figure_ms.fig6a",
        run: fig6::run_beams,
    },
    Figure {
        id: "fig6b",
        tsv: "fig6b_synthetic_ranges",
        layer: "engine.figure_ms.fig6b",
        run: fig6::run_ranges,
    },
    Figure {
        id: "fig7a",
        tsv: "fig7a_earthquake_beams",
        layer: "engine.figure_ms.fig7a",
        run: fig7::run_beams,
    },
    Figure {
        id: "fig7b",
        tsv: "fig7b_earthquake_ranges",
        layer: "engine.figure_ms.fig7b",
        run: fig7::run_ranges,
    },
    Figure {
        id: "fig8",
        tsv: "fig8_olap_queries",
        layer: "engine.figure_ms.fig8",
        run: fig8::run,
    },
    Figure {
        id: "model",
        tsv: "model_validation",
        layer: "engine.figure_ms.model",
        run: model_fig::run,
    },
];

/// A table exactly as `Table::save_tsv` writes it.
fn tsv(table: &Table) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}", table.header.join("\t"));
    for row in &table.rows {
        let _ = writeln!(out, "{}", row.join("\t"));
    }
    out
}

/// Everything built before the timed phase.
struct Fixture {
    /// Committed TSV text of each figure, `FIGURES` order.
    references: Vec<String>,
    grid: GridSpec,
    disks: Vec<DiskGeometry>,
    /// `(naive, multimap)` per evaluation disk.
    mappings: Vec<(NaiveMapping, MultiMapping)>,
    /// Seeded `(dim, anchor)` beam queries.
    beams: Vec<(usize, Vec<u64>)>,
}

fn setup(args: &Args) -> Result<Fixture, String> {
    let references = FIGURES
        .iter()
        .map(|f| {
            let path = args.reference.join(format!("{}.tsv", f.tsv));
            std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read reference table {}: {e}", path.display()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let grid = Scale::Quick.synthetic_grid();
    let disks = profiles::evaluation_disks();
    let mappings = disks
        .iter()
        .map(|g| {
            let mm = MultiMapping::new(g, grid.clone()).map_err(|e| e.to_string())?;
            Ok((NaiveMapping::new(grid.clone(), 0), mm))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut rng = Rng::new(args.seed);
    let mut beams = Vec::new();
    for dim in 0..grid.ndims() {
        for _ in 0..BEAMS_PER_DIM {
            let mut anchor = rng.coord(grid.extents());
            anchor[dim] = 0;
            beams.push((dim, anchor));
        }
    }
    Ok(Fixture {
        references,
        grid,
        disks,
        mappings,
        beams,
    })
}

/// One pass over the six tables: wall ms per generator call and the
/// rows rendered. Every table is checked byte-for-byte.
fn pass(fx: &Fixture, ledger: &mut Ledger) -> (Vec<f64>, u64) {
    let mut ms = Vec::with_capacity(FIGURES.len());
    let mut rows = 0u64;
    for (f, reference) in FIGURES.iter().zip(&fx.references) {
        let (table, s) = timed(|| (f.run)(Scale::Quick));
        ledger.ops(1);
        ms.push(s * 1e3);
        rows += table.rows.len() as u64;
        let rendered = tsv(&table);
        ledger.check(rendered == *reference, || {
            format!("{} differs from the committed {}.tsv", f.id, f.tsv)
        });
    }
    (ms, rows)
}

/// Simulated time of every seeded beam, per mapping: `(naive, multimap)`
/// per query, in fixture order. Each (disk, mapping) pair runs on a
/// fresh volume so both mappings see the same starting state.
fn seeded_beams(fx: &Fixture, ledger: &mut Ledger) -> (Vec<f64>, Vec<f64>) {
    let mut naive_ms = Vec::new();
    let mut mm_ms = Vec::new();
    for (geom, (naive, mm)) in fx.disks.iter().zip(&fx.mappings) {
        for (m, out) in [
            (naive as &dyn Mapping, &mut naive_ms),
            (mm as &dyn Mapping, &mut mm_ms),
        ] {
            let volume = LogicalVolume::new(geom.clone(), 1);
            let exec = QueryExecutor::new(&volume, 0);
            for (dim, anchor) in &fx.beams {
                let region = BoxRegion::beam(&fx.grid, *dim, anchor);
                volume.idle_all(7.3);
                ledger.ops(1);
                match exec.execute(QueryRequest::beam(m, &region)) {
                    Ok(r) => {
                        ledger.check(r.cells == region.cells(), || {
                            format!(
                                "{} beam {anchor:?} fetched {} of {} cells",
                                m.name(),
                                r.cells,
                                region.cells()
                            )
                        });
                        out.push(r.total_io_ms);
                    }
                    Err(e) => ledger.check(false, || format!("{} beam {anchor:?}: {e}", m.name())),
                }
            }
        }
    }
    (naive_ms, mm_ms)
}

pub fn run(args: &Args, ledger: &mut Ledger, metrics: &mut Metrics) -> Result<(), String> {
    multimap_engine::set_threads(THREADS);
    // Set-up is the fixture plus one checked warm-up pass, repeated.
    let mut setup_s = Vec::new();
    let mut fixture = None;
    for _ in 0..SETUP_REPS {
        let (fx, s) = timed(|| {
            let fx = setup(args)?;
            pass(&fx, ledger);
            Ok::<_, String>(fx)
        });
        setup_s.push(s);
        fixture = Some(fx?);
    }
    let fx = fixture.expect("at least one setup");
    eprintln!(
        "figures: {} tables at {THREADS} threads; {} seeded beams on {:?} per disk and mapping",
        FIGURES.len(),
        fx.beams.len(),
        fx.grid.extents()
    );

    if args.trace {
        let mut layers = Layers::default();
        let mut fig_ms: Vec<Vec<f64>> = vec![Vec::new(); FIGURES.len()];
        let mut spans: Vec<[f64; 4]> = Vec::new();
        let mut traced = None;
        let (off, on) = layers::interleaved(args.budget, 3, |on| {
            if on {
                multimap_telemetry::global().clear();
            }
            let ((ms, _), s) = timed(|| pass(&fx, ledger));
            if on {
                let t = multimap_telemetry::global().merged();
                spans.push(layers::span_ms(&t));
                traced = Some(t);
            } else {
                for (acc, v) in fig_ms.iter_mut().zip(ms) {
                    acc.push(v);
                }
            }
            s
        });
        multimap_engine::set_threads(1);
        let serial: Vec<f64> = (0..off.len().min(3))
            .map(|_| timed(|| pass(&fx, ledger)).1)
            .collect();
        multimap_engine::set_threads(THREADS);
        eprintln!(
            "figures: median pass {:.3} s at {THREADS} threads, {:.3} s at 1 thread",
            median(&off),
            median(&serial)
        );
        layers.set(
            "engine.parallel_efficiency",
            median(&serial) / (THREADS as f64 * median(&off)),
        );
        for (f, ms) in FIGURES.iter().zip(&fig_ms) {
            layers.set(f.layer, median(ms));
        }
        for (i, name) in [
            "query.plan_ms",
            "query.translate_ms",
            "query.schedule_ms",
            "query.service_ms",
        ]
        .into_iter()
        .enumerate()
        {
            let v: Vec<f64> = spans.iter().map(|s| s[i]).collect();
            layers.set(name, median(&v));
        }
        let t = traced.expect("at least one traced pass");
        layers.set(
            "query.translation_cache_hit_rate",
            t.hit_rate(Counter::TranslationCacheHit, Counter::TranslationCacheMiss)
                .unwrap_or(0.0),
        );
        layers::disksim_layer(&mut layers, &t);
        layers::core_layer(&mut layers, &fx.disks[0], &fx.grid, args.seed);
        layers::trace_overhead(&mut layers, &off, &on);
        layers.emit(metrics);
        return Ok(());
    }

    let passes = repeat_for(args.budget, 3, |_| timed(|| pass(&fx, ledger)));
    let pass_s: Vec<f64> = passes.iter().map(|(_, s)| *s).collect();
    let rows: Vec<u64> = passes.iter().map(|((_, r), _)| *r).collect();

    // Simulated metrics: the seeded beams, run twice to check replay.
    let (naive_ms, mm_ms) = seeded_beams(&fx, ledger);
    let (naive_again, mm_again) = seeded_beams(&fx, ledger);
    ledger.check(naive_ms == naive_again && mm_ms == mm_again, || {
        "seeded beams did not replay identically".into()
    });
    let mut sorted = mm_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let mm_total: f64 = mm_ms.iter().sum();
    let naive_total: f64 = naive_ms.iter().sum();

    layers::wall_metrics(metrics, &setup_s, &pass_s, &rows);
    layers::sim_metrics(
        metrics,
        mm_total / mm_ms.len() as f64,
        rank_quantile(&sorted, 0.50),
        rank_quantile(&sorted, 0.99),
        naive_total / mm_total,
    );
    Ok(())
}
