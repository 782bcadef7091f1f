//! Backend differential checking: the same query through every
//! mapping × every [`DeviceModel`](multimap_disksim::DeviceModel)
//! backend, asserting the universal invariants — payload and cell-set
//! identity, exact counter reconciliation — while applying each
//! backend's own timing semantics (see `docs/backends.md`).
//!
//! Universal (every backend): the transferred cell set equals the
//! queried region, each mapping's payload checksum is identical across
//! every backend, and telemetry's `RequestsServiced` equals the
//! executor's request count.
//!
//! Backend-specific: on event-sum backends (rotating disk; IMR, whose
//! read path delegates to the disk) the phase histogram sums
//! reconstruct the batch total exactly and the physics oracle holds on
//! the rotating backend; on the multi-queue SSD, per-channel service
//! overlaps, so the invariant inverts — the makespan is *at most* the
//! per-event busy sum — and the per-channel served counters must add up
//! to exactly the serviced request count.

use std::collections::BTreeSet;

use multimap_core::{BoxRegion, Coord, GridSpec};
use multimap_disksim::{DiskGeometry, ServiceLog, BACKEND_NAMES};
use multimap_lvm::backend_volume;
use multimap_query::{QueryError, QueryExecutor, QueryOp, QueryRequest, QueryResult};
use multimap_telemetry::{Counter, Metrics};

use crate::differential::{
    check_telemetry, fetched_cells, standard_mappings, TELEMETRY_SUM_EPS_MS,
};
use crate::oracle::check_log;

/// What one backend did for one mapping's query.
#[derive(Debug)]
pub struct BackendOutcome {
    /// Registry name of the backend (`"disk"`, `"ssd"`, `"imr"`).
    pub backend: &'static str,
    /// Mapping name (`Mapping::name`).
    pub mapping: String,
    /// The set of dataset cells actually transferred, recovered from
    /// the serviced LBNs through the mapping's inverse.
    pub cells: BTreeSet<Coord>,
    /// The executor's measured result.
    pub result: QueryResult,
    /// Telemetry the query recorded.
    pub metrics: Metrics,
    /// The backend's own counters after the query.
    pub counters: Vec<(String, u64)>,
    /// The full event log (for backend-specific audits).
    pub log: ServiceLog,
}

/// Run one query region through every standard mapping on every
/// registry backend — the full mapping × backend matrix, fanned across
/// the experiment engine (results come back in matrix order regardless
/// of thread count).
pub fn backend_differential_query(
    geom: &DiskGeometry,
    grid: &GridSpec,
    region: &BoxRegion,
    beam: bool,
) -> Result<Vec<BackendOutcome>, QueryError> {
    let mut items = Vec::new();
    for &backend in BACKEND_NAMES.iter() {
        for mapping in standard_mappings(geom, grid) {
            items.push((backend, mapping));
        }
    }
    let outcomes = multimap_engine::sweep(&items, |(backend, mapping)| {
        let volume = backend_volume(backend, geom, 1)?;
        let exec = QueryExecutor::new(&volume, 0);
        let mut log = ServiceLog::new();
        let mut metrics = Metrics::new();
        let result = {
            let mut rec = log.recorder();
            let op = if beam { QueryOp::Beam } else { QueryOp::Range };
            exec.execute(
                QueryRequest::new(op, mapping.as_ref(), region)
                    .with_observer(&mut rec)
                    .with_sink(&mut metrics),
            )?
        };
        let cells = fetched_cells(mapping.as_ref(), &log);
        let counters = volume.counters(0)?;
        Ok(BackendOutcome {
            backend,
            mapping: mapping.name().to_string(),
            cells,
            result,
            metrics,
            counters,
            log,
        })
    });
    outcomes.into_iter().collect()
}

/// One backend counter by name, or 0 when the backend does not report it.
fn counter(o: &BackendOutcome, name: &str) -> u64 {
    o.counters
        .iter()
        .find(|(k, _)| k == name)
        .map(|&(_, v)| v)
        .unwrap_or(0)
}

/// Verify the backend-specific contract of one outcome. Universal
/// checks (cell set, payload identity) live in [`check_backend_region`];
/// this audits what each backend's counters and event sums must obey.
fn check_backend_outcome(geom: &DiskGeometry, o: &BackendOutcome) -> Result<(), String> {
    let label = format!("{}/{}", o.backend, o.mapping);
    check_backend_telemetry(o.backend, &label, &o.metrics, &o.result)?;
    match o.backend {
        // Event-sum backends: the rotating backend additionally passes
        // the physics oracle.
        "disk" | "imr" => {
            if o.backend == "disk" {
                let report = check_log(geom, &o.log);
                if !report.is_clean() {
                    return Err(format!(
                        "{label}: physics oracle flagged {} violation(s), first: {}",
                        report.violations.len(),
                        report.violations[0]
                    ));
                }
            }
            // A read-only query must never trigger IMR write
            // amplification.
            if o.backend == "imr" && counter(o, "imr.neighbor_rewrites") != 0 {
                return Err(format!(
                    "{label}: read-only query performed {} neighbor rewrites",
                    counter(o, "imr.neighbor_rewrites")
                ));
            }
        }
        // Parallel-channel backend: the per-channel counters partition
        // the request count exactly.
        "ssd" => {
            let ssd_requests = counter(o, "ssd.requests");
            if ssd_requests != o.result.requests {
                return Err(format!(
                    "{label}: ssd.requests counter {ssd_requests} vs executor {}",
                    o.result.requests
                ));
            }
            let channels = counter(o, "ssd.channels");
            let per_channel: u64 = (0..channels)
                .map(|c| counter(o, &format!("ssd.channel{c}.served")))
                .sum();
            if per_channel != ssd_requests {
                return Err(format!(
                    "{label}: per-channel served counters sum to {per_channel}, \
                     not the {ssd_requests} requests serviced"
                ));
            }
        }
        other => return Err(format!("{label}: unknown backend {other:?} in matrix")),
    }
    Ok(())
}

/// Reconcile a query's telemetry with its result under `backend`'s
/// timing semantics. Event-sum backends (disk, IMR) must reconstruct the
/// total exactly ([`check_telemetry`]). On the multi-queue SSD service
/// overlaps across channels, so the total is a makespan bounded by (not
/// equal to) the per-event busy sum; the serviced-request count still
/// reconciles exactly.
pub(crate) fn check_backend_telemetry(
    backend: &str,
    label: &str,
    metrics: &Metrics,
    result: &QueryResult,
) -> Result<(), String> {
    if backend != "ssd" {
        return check_telemetry(label, metrics, result);
    }
    let busy_sum = metrics.phase_sum_ms();
    if result.total_io_ms > busy_sum + TELEMETRY_SUM_EPS_MS {
        return Err(format!(
            "{label}: makespan {} ms exceeds the per-event busy sum {busy_sum} ms",
            result.total_io_ms
        ));
    }
    let serviced = metrics.counter_value(Counter::RequestsServiced);
    if serviced != result.requests {
        return Err(format!(
            "{label}: telemetry saw {serviced} serviced requests, the executor reported {}",
            result.requests
        ));
    }
    Ok(())
}

/// Run [`backend_differential_query`] and verify the full contract:
/// every backend × mapping transfers exactly the region's cell set,
/// for each mapping every backend delivers an identical payload
/// checksum, counters reconcile exactly, and each backend's own timing
/// semantics hold. Returns a description of the first discrepancy.
pub fn check_backend_region(
    geom: &DiskGeometry,
    grid: &GridSpec,
    region: &BoxRegion,
    beam: bool,
) -> Result<(), String> {
    let expected: BTreeSet<Coord> = region.cells_vec().into_iter().collect();
    let outcomes = backend_differential_query(geom, grid, region, beam)
        .map_err(|e| format!("query failed: {e}"))?;
    // Payload is an order-independent checksum over the serviced LBNs,
    // so it is a *per-mapping* invariant: every backend must deliver the
    // mapping's exact block set, however it scheduled the batch.
    let mut reference_payloads: std::collections::BTreeMap<&str, u64> =
        std::collections::BTreeMap::new();
    for o in &outcomes {
        let label = format!("{}/{}", o.backend, o.mapping);
        let reference_payload = *reference_payloads
            .entry(o.mapping.as_str())
            .or_insert(o.result.payload);
        if o.cells != expected {
            let missing = expected.difference(&o.cells).count();
            let extra = o.cells.difference(&expected).count();
            return Err(format!(
                "{label}: transferred cell set differs from the region \
                 ({missing} missing, {extra} extra of {} expected)",
                expected.len()
            ));
        }
        if o.result.cells != expected.len() as u64 {
            return Err(format!(
                "{label}: executor reported {} cells, region has {}",
                o.result.cells,
                expected.len()
            ));
        }
        if o.result.payload != reference_payload {
            return Err(format!(
                "{label}: payload {:#x} differs from the matrix reference {reference_payload:#x}",
                o.result.payload
            ));
        }
        check_backend_outcome(geom, o)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use multimap_disksim::profiles;

    #[test]
    fn backend_matrix_covers_backends_times_mappings() {
        let geom = profiles::small();
        let grid = GridSpec::new([40u64, 8, 6]);
        let region = BoxRegion::beam(&grid, 1, &[3, 0, 2]);
        let outcomes = backend_differential_query(&geom, &grid, &region, true).unwrap();
        assert_eq!(outcomes.len(), BACKEND_NAMES.len() * 4);
        let backends: BTreeSet<_> = outcomes.iter().map(|o| o.backend).collect();
        assert_eq!(backends.len(), BACKEND_NAMES.len());
    }

    #[test]
    fn small_beam_and_range_pass_the_backend_contract() {
        let geom = profiles::small();
        let grid = GridSpec::new([40u64, 8, 6]);
        check_backend_region(&geom, &grid, &BoxRegion::beam(&grid, 1, &[3, 0, 2]), true).unwrap();
        check_backend_region(
            &geom,
            &grid,
            &BoxRegion::new([2u64, 1, 0], [9u64, 6, 3]),
            false,
        )
        .unwrap();
    }

    #[test]
    fn disk_backend_agrees_with_the_trait_free_differential() {
        let geom = profiles::small();
        let grid = GridSpec::new([40u64, 8, 6]);
        let region = BoxRegion::beam(&grid, 2, &[5, 3, 0]);
        let reference = crate::differential::differential_query(&geom, &grid, &region, true)
            .unwrap();
        let matrix = backend_differential_query(&geom, &grid, &region, true).unwrap();
        for r in &reference {
            let b = matrix
                .iter()
                .find(|o| o.backend == "disk" && o.mapping == r.mapping)
                .unwrap();
            assert_eq!(b.result, r.result, "{}", r.mapping);
            assert_eq!(
                b.result.total_io_ms.to_bits(),
                r.result.total_io_ms.to_bits(),
                "{}",
                r.mapping
            );
            assert_eq!(b.cells, r.cells, "{}", r.mapping);
        }
    }
}
