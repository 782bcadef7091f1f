//! `serve`: `serve_scenario` on the rotating-disk backend over a ladder
//! of open-loop offered rates, once for MultiMap and once for Naive at
//! every rung, on the calling thread.

use multimap_core::{GridSpec, Mapping, MultiMapping, NaiveMapping};
use multimap_disksim::{profiles, DiskGeometry};
use multimap_lvm::backend_volume;
use multimap_server::workload::ClientGen;
use multimap_server::{
    serve_scenario, FairnessPolicy, LoadModel, Outcome, Scenario, ServingReport, TenantSpec,
};
use multimap_telemetry::Metrics as Telemetry;

use crate::common::{median, rank_quantile, repeat_for, replicas, timed, Ledger, Metrics};
use crate::layers::{self, frac, Layers};
use crate::Args;

/// The serving dataset: small enough that a rung serves in well under a
/// second, large enough that non-primary beams reposition.
const GRID: [u64; 3] = [48, 24, 12];
const TENANTS: usize = 4;
/// Requests per tenant at each rung of the timed ladder: short enough
/// that a 30-second run measures some twenty ladder passes.
const LADDER_REQUESTS: usize = 1200;
/// Requests per tenant in the reference-rung scenario the latency
/// metrics come from: enough that its p99 (192 samples beyond it) moves
/// only a few percent between seeds.
const REFERENCE_REQUESTS: usize = 4800;
const DEADLINE_MS: f64 = 400.0;
const QUEUE_CAP: usize = 64;
const BATCH_WINDOW: usize = 8;
const QUEUE_DEPTH: usize = 4;
/// Total offered rate of each rung, requests per simulated second,
/// from well under to past saturation.
const LADDER_RPS: [f64; 6] = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0];
/// The rate the latency metrics are read at: the highest rung at which
/// neither mapping shed or rejected a request for any seed tried.
const REFERENCE_RPS: f64 = 20.0;
/// The latency objective a sustained rung must meet.
const SLO_P99_MS: f64 = 200.0;
/// Setup repetitions per run (the median is reported).
const SETUP_REPS: usize = 3;

struct Fixture {
    geom: DiskGeometry,
    grid: GridSpec,
    /// MultiMap first, then Naive.
    mappings: [Box<dyn Mapping>; 2],
    /// One scenario per rung, `LADDER_RPS` order.
    ladder: Vec<Scenario>,
    /// The long scenario at `REFERENCE_RPS`.
    reference: Scenario,
}

fn scenario(seed: u64, total_rps: f64, requests: usize, grid: &GridSpec) -> Scenario {
    Scenario {
        seed,
        tenants: (0..TENANTS)
            .map(|i| TenantSpec {
                name: format!("t{i}"),
                weight: 1.0,
                load: LoadModel::OpenLoop {
                    rate_rps: total_rps / TENANTS as f64,
                },
                requests,
                deadline_ms: DEADLINE_MS,
                dim: i % grid.ndims(),
            })
            .collect(),
        policy: FairnessPolicy::Fifo,
        queue_cap: QUEUE_CAP,
        batch_window: BATCH_WINDOW,
        queue_depth: QUEUE_DEPTH,
    }
}

fn setup(seed: u64) -> Result<Fixture, String> {
    let geom = profiles::small();
    let grid = GridSpec::new(GRID);
    let mm = MultiMapping::new(&geom, grid.clone()).map_err(|e| e.to_string())?;
    let mappings: [Box<dyn Mapping>; 2] =
        [Box::new(mm), Box::new(NaiveMapping::new(grid.clone(), 0))];
    let ladder = LADDER_RPS
        .iter()
        .map(|&r| scenario(seed, r, LADDER_REQUESTS, &grid))
        .collect();
    let reference = scenario(seed, REFERENCE_RPS, REFERENCE_REQUESTS, &grid);
    Ok(Fixture {
        geom,
        grid,
        mappings,
        ladder,
        reference,
    })
}

/// One scenario for one mapping on a fresh volume, with its wall time.
fn serve(
    fx: &Fixture,
    mapping: &dyn Mapping,
    scenario: &Scenario,
) -> Result<(ServingReport, f64), String> {
    let volume = backend_volume("disk", &fx.geom, 1).map_err(|e| e.to_string())?;
    let (report, s) = timed(|| serve_scenario(&volume, mapping, scenario));
    Ok((report.map_err(|e| e.to_string())?, s))
}

/// Serve `scenario` for every mapping, checking that each request's
/// fate is decided exactly once. Returns the reports and the wall time
/// of each call; a call that errors is a failed check and leaves its
/// report out.
fn serve_checked(
    fx: &Fixture,
    scenario: &Scenario,
    rps: f64,
    ledger: &mut Ledger,
) -> (Vec<ServingReport>, Vec<f64>) {
    let mut reports = Vec::new();
    let mut wall = Vec::new();
    let requests: usize = scenario.tenants.iter().map(|t| t.requests).sum();
    for m in &fx.mappings {
        let label = format!("{} at {rps} rps", m.name());
        ledger.ops(requests as u64);
        let (report, s) = match serve(fx, m.as_ref(), scenario) {
            Ok(served) => served,
            Err(e) => {
                ledger.check(false, || format!("{label}: {e}"));
                continue;
            }
        };
        for (t, spec) in report.tenants.iter().zip(&scenario.tenants) {
            ledger.check(
                t.submitted == spec.requests as u64
                    && t.submitted == t.completed + t.shed_deadline + t.rejected_queue_full,
                || {
                    format!(
                        "{label} {}: submitted {} != completed {} + shed {} + rejected {}",
                        t.name, t.submitted, t.completed, t.shed_deadline, t.rejected_queue_full
                    )
                },
            );
        }
        ledger.check(report.trace.len() == requests, || {
            format!(
                "{label}: {} fates for {requests} requests",
                report.trace.len()
            )
        });
        reports.push(report);
        wall.push(s);
    }
    (reports, wall)
}

/// Exact end-to-end latencies of completed requests, per tenant, in
/// resolution order. Arrival times are recovered by replaying each
/// tenant's generator against the trace; the histogram's exact count
/// and sum must agree with the replay.
fn exact_latencies(
    ledger: &mut Ledger,
    report: &ServingReport,
    scenario: &Scenario,
    grid: &GridSpec,
    label: &str,
) -> Vec<f64> {
    let mut gens: Vec<ClientGen> = scenario
        .tenants
        .iter()
        .enumerate()
        .map(|(t, spec)| ClientGen::new(spec, t, scenario.seed, grid))
        .collect();
    let mut arrivals: Vec<Vec<f64>> = vec![Vec::new(); gens.len()];
    let drain = |g: &mut ClientGen, out: &mut Vec<f64>| {
        while g.peek_arrival().is_some() {
            out.push(g.emit().arrival_ms);
        }
    };
    for (g, a) in gens.iter_mut().zip(arrivals.iter_mut()) {
        drain(g, a);
    }
    let mut per_tenant: Vec<Vec<f64>> = vec![Vec::new(); gens.len()];
    for e in &report.trace {
        gens[e.tenant].resolve(e.resolve_ms);
        drain(&mut gens[e.tenant], &mut arrivals[e.tenant]);
        if e.outcome == Outcome::Completed {
            match arrivals[e.tenant].get(e.seq) {
                Some(a) => per_tenant[e.tenant].push((e.resolve_ms - a).max(0.0)),
                None => ledger.check(false, || {
                    format!(
                        "{label}: tenant {} request {} never arrived",
                        e.tenant, e.seq
                    )
                }),
            }
        }
    }
    for (t, lat) in report.tenants.iter().zip(&per_tenant) {
        let sum = lat.iter().fold(0.0f64, |acc, v| acc + v);
        ledger.check(
            lat.len() as u64 == t.latency.count() && sum.to_bits() == t.latency.sum_ms().to_bits(),
            || {
                format!(
                    "{label} {}: replayed {} latencies summing {sum}, histogram {} summing {}",
                    t.name,
                    lat.len(),
                    t.latency.count(),
                    t.latency.sum_ms()
                )
            },
        );
    }
    per_tenant.concat()
}

/// What one rung served, for one mapping.
struct Rung {
    rps: f64,
    /// Exact latencies, sorted ascending.
    sorted_ms: Vec<f64>,
    shed: u64,
    rejected: u64,
    device_ms: f64,
}

impl Rung {
    fn mean(&self) -> f64 {
        self.sorted_ms.iter().sum::<f64>() / self.sorted_ms.len() as f64
    }
}

/// A whole ladder pass: reports in (rung, mapping) order and the wall
/// time of each `serve_scenario` call.
fn pass(fx: &Fixture, ledger: &mut Ledger) -> (Vec<ServingReport>, Vec<f64>) {
    let mut reports = Vec::new();
    let mut wall = Vec::new();
    for (scn, rps) in fx.ladder.iter().zip(LADDER_RPS) {
        let (r, w) = serve_checked(fx, scn, rps, ledger);
        reports.extend(r);
        wall.extend(w);
    }
    (reports, wall)
}

fn completed(reports: &[ServingReport]) -> u64 {
    reports
        .iter()
        .flat_map(|r| &r.tenants)
        .map(|t| t.completed)
        .sum()
}

/// The exact latencies of one report, sorted, with its counters.
fn rung(ledger: &mut Ledger, fx: &Fixture, r: &ServingReport, scn: &Scenario, rps: f64) -> Rung {
    let label = format!("{} at {rps} rps", r.mapping);
    let mut sorted_ms = exact_latencies(ledger, r, scn, &fx.grid, &label);
    sorted_ms.sort_by(f64::total_cmp);
    Rung {
        rps,
        sorted_ms,
        shed: r.tenants.iter().map(|t| t.shed_deadline).sum(),
        rejected: r.tenants.iter().map(|t| t.rejected_queue_full).sum(),
        device_ms: r.tenants.iter().map(|t| t.metrics.phase_sum_ms()).sum(),
    }
}

/// Whether two sets of reports served identically, digest for digest.
fn same_digests(a: &[ServingReport], b: &[ServingReport]) -> bool {
    a.iter().map(|r| r.digest).eq(b.iter().map(|r| r.digest))
}

pub fn run(args: &Args, ledger: &mut Ledger, metrics: &mut Metrics) -> Result<(), String> {
    multimap_engine::set_threads(1);
    // Set-up is the fixture plus the long reference-rung scenario for
    // both mappings, repeated; every repetition and replica must serve
    // identically, and its reports are the source of the latency
    // metrics (simulated time does not depend on the repetition).
    let mut setup_s = Vec::new();
    let mut fixture = None;
    let mut long: Vec<Vec<ServingReport>> = Vec::new();
    for _ in 0..SETUP_REPS {
        let (fx, s) = timed(|| {
            let fx = setup(args.seed)?;
            let served = replicas(ledger, |ledger| {
                serve_checked(&fx, &fx.reference, REFERENCE_RPS, ledger).0
            });
            long.extend(served);
            Ok::<_, String>(fx)
        });
        setup_s.push(s);
        fixture = Some(fx?);
    }
    let fx = fixture.expect("at least one setup");
    let last = long.pop().expect("at least one replica");
    for other in &long {
        ledger.check(same_digests(other, &last), || {
            "a repetition of the reference rung served differently".into()
        });
    }
    let long = last;
    if long.len() != fx.mappings.len() {
        return Err("the reference rung did not serve every mapping".into());
    }
    eprintln!(
        "serve: grid {GRID:?}, {TENANTS} open-loop tenants; ladder {LADDER_RPS:?} rps at \
         {LADDER_REQUESTS} requests per tenant; reference {REFERENCE_RPS} rps at \
         {REFERENCE_REQUESTS} requests per tenant"
    );

    // The first ladder pass is the ladder's reference: every later pass
    // and replica must replay it digest for digest.
    let mut ladder: Option<Vec<ServingReport>> = None;
    let mut scenario_ms = Vec::new();
    let mut measured = |ledger: &mut Ledger, keep_wall: bool| {
        let (outs, s) = timed(|| replicas(ledger, |ledger| pass(&fx, ledger)));
        let mut served = 0;
        for (reports, wall) in outs {
            served += completed(&reports);
            if keep_wall {
                scenario_ms.extend(wall.iter().map(|s| s * 1e3));
            }
            match &ladder {
                Some(first) => ledger.check(same_digests(&reports, first), || {
                    "a ladder replay changed a serving digest".into()
                }),
                None => ladder = Some(reports),
            }
        }
        (s, served)
    };
    let (layer_rounds, passes) = if args.trace {
        let rounds = layers::interleaved(args.budget, 3, |traced| measured(ledger, !traced).0);
        (Some(rounds), Vec::new())
    } else {
        (
            None,
            repeat_for(args.budget, 3, |_| measured(ledger, false)),
        )
    };
    let ladder = ladder.expect("at least one pass");
    if ladder.len() != fx.mappings.len() * LADDER_RPS.len() {
        return Err("the ladder did not serve every rung".into());
    }
    let n = fx.mappings.len();
    let rungs: Vec<Vec<Rung>> = fx
        .ladder
        .iter()
        .zip(LADDER_RPS)
        .zip(ladder.chunks(n))
        .map(|((scn, rps), reports)| {
            reports
                .iter()
                .map(|r| rung(ledger, &fx, r, scn, rps))
                .collect()
        })
        .collect();
    for pair in &rungs {
        eprintln!(
            "serve: {:>4} rps  MultiMap p50/p99 {:>8.3}/{:>8.3} ms shed+rejected {:>5}  \
             Naive p50/p99 {:>8.3}/{:>8.3} ms shed+rejected {:>5}",
            pair[0].rps,
            rank_quantile(&pair[0].sorted_ms, 0.50),
            rank_quantile(&pair[0].sorted_ms, 0.99),
            pair[0].shed + pair[0].rejected,
            rank_quantile(&pair[1].sorted_ms, 0.50),
            rank_quantile(&pair[1].sorted_ms, 0.99),
            pair[1].shed + pair[1].rejected,
        );
    }
    let [mm, naive] = [0, 1].map(|k| rung(ledger, &fx, &long[k], &fx.reference, REFERENCE_RPS));
    eprintln!(
        "serve: reference {REFERENCE_RPS} rps  MultiMap p50/p99/mean {:.3}/{:.3}/{:.3} ms, \
         Naive {:.3}/{:.3}/{:.3} ms",
        rank_quantile(&mm.sorted_ms, 0.50),
        rank_quantile(&mm.sorted_ms, 0.99),
        mm.mean(),
        rank_quantile(&naive.sorted_ms, 0.50),
        rank_quantile(&naive.sorted_ms, 0.99),
        naive.mean()
    );

    if let Some((off, on)) = layer_rounds {
        let mut layers = Layers::default();
        layers.set("server.scenario_ms", median(&scenario_ms));
        let batches: u64 = ladder.iter().map(|r| r.batches).sum();
        layers.set("server.batches", batches as f64);
        layers.set(
            "server.requests_per_batch",
            frac(completed(&ladder) as f64, batches as f64),
        );
        layers.set(
            "server.sim_device_frac",
            frac(mm.device_ms, mm.sorted_ms.iter().sum()),
        );
        let all = || rungs.iter().flatten();
        let shed: u64 = all().map(|r| r.shed).sum();
        let rejected: u64 = all().map(|r| r.rejected).sum();
        let submitted = (ladder.len() * TENANTS * LADDER_REQUESTS) as f64;
        layers.set("server.shed", shed as f64);
        layers.set("server.rejected", rejected as f64);
        layers.set("server.shed_frac", (shed + rejected) as f64 / submitted);
        let sustained = rungs
            .iter()
            .map(|r| &r[0])
            .take_while(|r| {
                rank_quantile(&r.sorted_ms, 0.99) <= SLO_P99_MS && r.shed + r.rejected == 0
            })
            .last()
            .map_or(0.0, |r| r.rps);
        layers.set("server.sustained_rps", sustained);
        let device = Telemetry::merge_ordered(
            ladder
                .iter()
                .flat_map(|r| r.tenants.iter().map(|t| &t.metrics)),
        );
        layers::disksim_layer(&mut layers, &device);
        layers::core_layer(&mut layers, &fx.geom, &fx.grid, args.seed);
        layers::trace_overhead(&mut layers, &off, &on);
        layers.emit(metrics);
        return Ok(());
    }

    let (pass_s, served): (Vec<f64>, Vec<u64>) = passes.into_iter().unzip();
    layers::wall_metrics(metrics, &setup_s, &pass_s, &served);
    layers::sim_metrics(
        metrics,
        mm.mean(),
        rank_quantile(&mm.sorted_ms, 0.50),
        rank_quantile(&mm.sorted_ms, 0.99),
        naive.mean() / mm.mean(),
    );
    Ok(())
}
