//! `store-rw`: a seeded stream of beams and point inserts against a
//! `StorageManager` with the page cache on, once over a MultiMap table
//! and once over a Naive table, on the calling thread.

use std::sync::Barrier;
use std::time::Instant;

use multimap_core::{BoxRegion, GridSpec};
use multimap_disksim::{profiles, DiskGeometry};
use multimap_store::{
    CacheConfig, CacheStats, EvictionKind, LayoutChoice, PrefetchMode, StorageManager,
};
use multimap_telemetry::Metrics as Telemetry;

use crate::common::{
    quantile, rank_quantile, repeat_for, replicas, timed, Ledger, Metrics, Rng, REPLICAS,
};
use crate::layers::{self, frac, Layers};
use crate::Args;

/// The table: the Figure 6 chunk, 530,432 cells of one page each.
const GRID: [u64; 3] = [259, 64, 32];
const TABLE: &str = "chunk";
/// Page-cache capacity: well under the table, above the hot stream.
const CACHE_PAGES: usize = 4096;
const WRITEBACK_BATCH: usize = 64;
const FLUSH_QUEUE_DEPTH: usize = 64;
/// The hot stream: `HOT_WINDOWS` runs of `HOT_BEAMS` consecutive Dim1
/// beams (64 pages each, 3,072 pages in all), swept once per round.
const HOT_WINDOWS: usize = 4;
const HOT_BEAMS: u64 = 12;
/// Random beams per round, cycling through the three dimensions.
const COLD_BEAMS: usize = 18;
const ROUNDS: usize = 20;
/// One point insert follows a hot beam with probability 1/INSERT_ONE_IN.
const INSERT_ONE_IN: u64 = 3;
/// Client think time before each op is uniform in `[0, THINK_MS)`, so
/// each op meets the platter at a seeded rotational phase.
const THINK_MS: f64 = 10.0;
/// Layouts the stream runs over: MultiMap first, then Naive.
const LAYOUTS: [LayoutChoice; 2] = [LayoutChoice::MultiMap, LayoutChoice::Naive];

/// One operation of the stream, issued after `think_ms` of idle time.
struct Op {
    think_ms: f64,
    kind: OpKind,
}

enum OpKind {
    Beam { dim: usize, anchor: Vec<u64> },
    Insert(Vec<u64>),
}

/// The seeded op stream: `ROUNDS` sweeps of the hot stream with point
/// inserts into it, each followed by random beams.
fn op_stream(seed: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    let windows: Vec<(u64, u64)> = (0..HOT_WINDOWS)
        .map(|_| (rng.below(GRID[0] - HOT_BEAMS), rng.below(GRID[2])))
        .collect();
    let mut kinds = Vec::new();
    for _ in 0..ROUNDS {
        for &(x0, z) in &windows {
            for k in 0..HOT_BEAMS {
                kinds.push(OpKind::Beam {
                    dim: 1,
                    anchor: vec![x0 + k, 0, z],
                });
                if rng.below(INSERT_ONE_IN) == 0 {
                    kinds.push(OpKind::Insert(vec![
                        x0 + rng.below(HOT_BEAMS),
                        rng.below(GRID[1]),
                        z,
                    ]));
                }
            }
        }
        for c in 0..COLD_BEAMS {
            let dim = c % GRID.len();
            let mut anchor = rng.coord(&GRID);
            anchor[dim] = 0;
            kinds.push(OpKind::Beam { dim, anchor });
        }
    }
    kinds
        .into_iter()
        .map(|kind| Op {
            think_ms: rng.below(1 << 20) as f64 / (1u64 << 20) as f64 * THINK_MS,
            kind,
        })
        .collect()
}

fn cache_config() -> CacheConfig {
    CacheConfig {
        capacity_pages: CACHE_PAGES,
        eviction: EvictionKind::Clock,
        prefetch: PrefetchMode::Adjacency { depth: 1 },
        writeback_batch: WRITEBACK_BATCH,
        queue_depth: FLUSH_QUEUE_DEPTH,
    }
}

/// A bulk-loaded one-table store, with or without the page cache.
fn build(
    geom: &DiskGeometry,
    layout: LayoutChoice,
    cached: bool,
) -> Result<StorageManager, String> {
    let mut db = StorageManager::new(geom.clone(), 1);
    if cached {
        db.enable_cache(cache_config());
    }
    db.create_table(TABLE, GridSpec::new(GRID), layout)
        .map_err(|e| e.to_string())?;
    db.load(TABLE).map_err(|e| e.to_string())?;
    Ok(db)
}

/// What one op stream did to one store.
#[derive(Default)]
struct StreamOut {
    /// Payload checksum of every beam, stream order.
    payloads: Vec<u64>,
    /// Simulated device time charged to each op, stream order.
    device_ms: Vec<f64>,
    /// Device time of the final `flush_all`.
    flush_ms: f64,
    /// Wall microseconds of each `beam` and `insert` call.
    beam_us: Vec<f64>,
    insert_us: Vec<f64>,
    requests: u64,
    cache: CacheStats,
    /// Telemetry of the write-back flusher.
    writeback: Telemetry,
}

impl StreamOut {
    fn device_total(&self) -> f64 {
        self.device_ms.iter().sum::<f64>() + self.flush_ms
    }
}

/// Run the op stream, then `flush_all`. Each op's device time is the
/// disk's busy time across the call.
fn stream(db: &mut StorageManager, ops: &[Op], ledger: &mut Ledger) -> Result<StreamOut, String> {
    let busy = |db: &StorageManager| {
        db.volume()
            .stats(0)
            .map(|s| s.total_ms)
            .map_err(|e| e.to_string())
    };
    let grid = GridSpec::new(GRID);
    let mut out = StreamOut::default();
    let mut before = busy(db)?;
    for op in ops {
        db.volume().idle_all(op.think_ms);
        let started = Instant::now();
        match &op.kind {
            OpKind::Beam { dim, anchor } => {
                let r = db.beam(TABLE, *dim, anchor).map_err(|e| e.to_string())?;
                out.beam_us.push(started.elapsed().as_secs_f64() * 1e6);
                let cells = BoxRegion::beam(&grid, *dim, anchor).cells();
                ledger.check(r.cells == cells, || {
                    format!("beam {anchor:?} fetched {} of {cells} cells", r.cells)
                });
                out.payloads.push(r.payload);
            }
            OpKind::Insert(coord) => {
                db.insert(TABLE, coord).map_err(|e| e.to_string())?;
                out.insert_us.push(started.elapsed().as_secs_f64() * 1e6);
            }
        }
        let after = busy(db)?;
        out.device_ms.push(after - before);
        before = after;
    }
    db.flush_all().map_err(|e| e.to_string())?;
    out.flush_ms = busy(db)? - before;
    ledger.ops(ops.len() as u64 + 1);
    ledger.check(
        db.cache(0).is_none_or(|c| c.writeback_pending() == 0),
        || "dirty pages left after flush_all".into(),
    );
    out.requests = db.volume().stats(0).map_err(|e| e.to_string())?.requests;
    out.cache = db.cache_stats();
    out.writeback = db.cache_metrics().clone();
    Ok(out)
}

/// One pass: in each replica, fresh cached stores for both layouts (the
/// set-up), then the op stream over each, the replicas starting their
/// streams together. Returns the set-up and stream seconds (the slower
/// replica's) and each replica's per-layout outcomes; an error is a
/// failed check and leaves that replica's outcomes out.
fn pass(geom: &DiskGeometry, ops: &[Op], ledger: &mut Ledger) -> (f64, f64, Vec<Vec<StreamOut>>) {
    let barrier = Barrier::new(REPLICAS);
    let outs = replicas(ledger, |ledger| {
        let (dbs, setup_s) = timed(|| {
            LAYOUTS
                .map(|l| build(geom, l, true))
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
        });
        barrier.wait();
        let (outs, s) = timed(|| {
            dbs.and_then(|mut dbs| {
                dbs.iter_mut()
                    .map(|db| stream(db, ops, ledger))
                    .collect::<Result<Vec<_>, _>>()
            })
        });
        let outs = outs.unwrap_or_else(|e| {
            ledger.check(false, || e);
            Vec::new()
        });
        (setup_s, s, outs)
    });
    let slowest =
        |f: fn(&(f64, f64, Vec<StreamOut>)) -> f64| outs.iter().map(f).fold(0.0, f64::max);
    let (setup_s, s) = (slowest(|o| o.0), slowest(|o| o.1));
    (setup_s, s, outs.into_iter().map(|o| o.2).collect())
}

pub fn run(args: &Args, ledger: &mut Ledger, metrics: &mut Metrics) -> Result<(), String> {
    multimap_engine::set_threads(1);
    let geom = profiles::atlas_10k_iii();
    let ops = op_stream(args.seed);
    let beams = ops
        .iter()
        .filter(|o| matches!(o.kind, OpKind::Beam { .. }))
        .count();
    eprintln!(
        "store-rw: table {GRID:?} = {} pages, cache {CACHE_PAGES} pages, hot stream {} pages; {beams} beams + {} inserts per layout",
        GRID.iter().product::<u64>(),
        HOT_WINDOWS as u64 * HOT_BEAMS * GRID[1],
        ops.len() - beams
    );

    // Cache-off replay of the same stream: the payload reference.
    let mut expected = Vec::new();
    for layout in LAYOUTS {
        let mut db = build(&geom, layout, false)?;
        expected.push(stream(&mut db, &ops, ledger)?.payloads);
    }
    let check_payloads = |ledger: &mut Ledger, replicas: &[Vec<StreamOut>]| {
        for outs in replicas {
            for ((out, want), layout) in outs.iter().zip(&expected).zip(LAYOUTS) {
                let bad = out
                    .payloads
                    .iter()
                    .zip(want)
                    .filter(|(a, b)| a != b)
                    .count();
                ledger.check(bad == 0 && out.payloads.len() == want.len(), || {
                    format!("{layout:?}: {bad} beam payloads differ from the cache-off replay")
                });
            }
        }
    };

    // Warm-up pass: checked, and the source of the simulated metrics.
    let (first_setup, _, warm) = pass(&geom, &ops, ledger);
    check_payloads(ledger, &warm);
    let [mm, naive] = &warm[0][..] else {
        return Err("the warm-up pass did not complete".into());
    };
    let mut charged: Vec<f64> = mm
        .device_ms
        .iter()
        .copied()
        .chain([mm.flush_ms])
        .filter(|&v| v > 0.0)
        .collect();
    charged.sort_by(f64::total_cmp);
    eprintln!(
        "store-rw: MultiMap {:.3} sim ms/op, Naive {:.3}; MultiMap hit rate {:.4}; {} of {} ops reached the disk",
        mm.device_total() / ops.len() as f64,
        naive.device_total() / ops.len() as f64,
        frac(mm.cache.hits as f64, (mm.cache.hits + mm.cache.misses) as f64),
        charged.len(),
        ops.len() + 1
    );

    if args.trace {
        let mut layers = Layers::default();
        let (mut beam_us, mut insert_us) = (Vec::new(), Vec::new());
        let (off, on) = layers::interleaved(args.budget, 3, |traced| {
            let (_, s, outs) = pass(&geom, &ops, ledger);
            check_payloads(ledger, &outs);
            if !traced {
                for o in outs.iter().flatten() {
                    beam_us.extend_from_slice(&o.beam_us);
                    insert_us.extend_from_slice(&o.insert_us);
                }
            }
            s
        });
        let c = &mm.cache;
        layers.set(
            "store.page_cache_hit_rate",
            frac(c.hits as f64, (c.hits + c.misses) as f64),
        );
        layers.set(
            "store.prefetch_efficiency",
            frac(c.prefetch_used as f64, c.prefetch_issued as f64),
        );
        layers.set(
            "store.evictions_per_op",
            c.evictions as f64 / ops.len() as f64,
        );
        layers.set("store.writeback_pages", c.writeback_pages as f64);
        layers.set("store.beam_us.p50", quantile(&beam_us, 0.50));
        layers.set("store.beam_us.p99", quantile(&beam_us, 0.99));
        layers.set("store.insert_us.p50", quantile(&insert_us, 0.50));
        layers.set("store.insert_us.p99", quantile(&insert_us, 0.99));
        // Beams through the store record no telemetry; the write-back
        // flusher does, and the disk counts every request.
        layers::disksim_layer(&mut layers, &mm.writeback);
        layers.set("disksim.requests", mm.requests as f64);
        layers::core_layer(&mut layers, &geom, &GridSpec::new(GRID), args.seed);
        layers::trace_overhead(&mut layers, &off, &on);
        layers.emit(metrics);
        return Ok(());
    }

    let passes = repeat_for(args.budget, 3, |_| {
        let (setup, s, outs) = pass(&geom, &ops, ledger);
        check_payloads(ledger, &outs);
        (setup, s)
    });
    let (mut setup_s, pass_s): (Vec<f64>, Vec<f64>) = passes.into_iter().unzip();
    setup_s.push(first_setup);
    let done = vec![(REPLICAS * LAYOUTS.len() * (ops.len() + 1)) as u64; pass_s.len()];
    layers::wall_metrics(metrics, &setup_s, &pass_s, &done);
    layers::sim_metrics(
        metrics,
        mm.device_total() / ops.len() as f64,
        rank_quantile(&charged, 0.50),
        rank_quantile(&charged, 0.99),
        naive.device_total() / mm.device_total(),
    );
    Ok(())
}
