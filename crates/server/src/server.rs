//! The simulated-clock serving loop: admission, batching, dispatch.
//!
//! One scenario is one run-to-completion event loop (the idos-style
//! minimal server idiom): at each iteration the loop admits every
//! arrival at or before the device clock, sheds queued requests whose
//! deadline has passed, selects up to a batch window of requests by the
//! scenario's fairness policy, and dispatches them as a single
//! cross-tenant batch through
//! [`Discipline::QueuedSptf`](multimap_disksim::Discipline) — so the
//! device's own scheduler interleaves tenants exactly as a tagged
//! command queue would. When the queue is empty the device idles
//! forward to the next arrival. Everything runs on the simulated clock;
//! the loop is serial and byte-identically replayable.

use multimap_core::{BoxRegion, Mapping};
use multimap_disksim::{DeviceModel, Request};
use multimap_lvm::{SchedulePolicy, Volume};
use multimap_query::record_classified_event;
use multimap_telemetry::{Histogram, Metrics};

use crate::error::{Result, ServerError};
use crate::policy::{select_batch, FairnessPolicy, Queued};
use crate::report::{fold_digest, mix64, Outcome, ServingReport, TenantReport, TraceEntry};
use crate::workload::{ClientGen, LoadModel, TenantSpec};

/// `x > 0` with NaN rejected (a plain `>` comparison would accept NaN
/// through the negation).
fn positive(x: f64) -> bool {
    matches!(x.partial_cmp(&0.0), Some(std::cmp::Ordering::Greater))
}

/// `x >= 0` with NaN rejected.
fn non_negative(x: f64) -> bool {
    matches!(
        x.partial_cmp(&0.0),
        Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
    )
}

/// A complete serving scenario: who the tenants are and how the server
/// queues, sheds, and batches their requests.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Seed for every client generator (replays are byte-identical for
    /// equal seeds).
    pub seed: u64,
    /// The tenant population.
    pub tenants: Vec<TenantSpec>,
    /// Request-selection policy.
    pub policy: FairnessPolicy,
    /// Admission queue depth cap: arrivals beyond it are rejected.
    pub queue_cap: usize,
    /// Maximum tenant requests dispatched per batch round.
    pub batch_window: usize,
    /// Device tagged-command-queue depth for
    /// [`multimap_disksim::Discipline::QueuedSptf`].
    pub queue_depth: usize,
}

impl Scenario {
    fn validate(&self, mapping: &dyn Mapping) -> Result<()> {
        let fail = |msg: String| Err(ServerError::Config(msg));
        if self.tenants.is_empty() {
            return fail("scenario has no tenants".into());
        }
        if self.queue_cap == 0 {
            return fail("queue_cap must be at least 1".into());
        }
        if self.batch_window == 0 {
            return fail("batch_window must be at least 1".into());
        }
        if self.queue_depth == 0 {
            return fail("queue_depth must be at least 1".into());
        }
        let ndims = mapping.grid().ndims();
        for (i, t) in self.tenants.iter().enumerate() {
            if t.dim >= ndims {
                return fail(format!(
                    "tenant {i} ({}) beams along dim {} but the grid has {ndims} dims",
                    t.name, t.dim
                ));
            }
            if !positive(t.weight) {
                return fail(format!("tenant {i} ({}) weight must be positive", t.name));
            }
            if !positive(t.deadline_ms) {
                return fail(format!("tenant {i} ({}) deadline must be positive", t.name));
            }
            match t.load {
                LoadModel::OpenLoop { rate_rps } if !positive(rate_rps) => {
                    return fail(format!("tenant {i} ({}) rate_rps must be positive", t.name));
                }
                LoadModel::ClosedLoop { think_ms } if !non_negative(think_ms) => {
                    return fail(format!("tenant {i} ({}) think_ms must be non-negative", t.name));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// Mutable loop state, split out so the borrow checker can see that
/// admission touches clients/queue/reports while dispatch touches the
/// volume.
struct LoopState {
    clients: Vec<ClientGen>,
    reports: Vec<TenantReport>,
    pending: Vec<Queued>,
    credits: Vec<f64>,
    weights: Vec<f64>,
    trace: Vec<TraceEntry>,
    dispatched: Vec<(usize, usize)>,
    digest: u64,
    admit_seq: u64,
    queue_cap: usize,
}

impl LoopState {
    /// Record a request's fate and (for closed-loop tenants) unblock
    /// the next request.
    fn resolve(&mut self, tenant: usize, seq: usize, outcome: Outcome, at_ms: f64) {
        let entry = TraceEntry {
            tenant,
            seq,
            outcome,
            resolve_ms: at_ms,
        };
        self.digest = fold_digest(self.digest, &entry);
        self.trace.push(entry);
        self.clients[tenant].resolve(at_ms);
    }

    /// Admit every schedulable arrival at or before `threshold`:
    /// reject past the queue cap, shed already-expired requests, queue
    /// the rest. `now` is the current device clock (admission decisions
    /// happen at server time, which may be later than the arrival).
    fn admit_arrivals(&mut self, threshold: f64, now: f64) {
        loop {
            // Earliest schedulable arrival, ties to the lowest tenant.
            let mut next: Option<(usize, f64)> = None;
            for (t, c) in self.clients.iter().enumerate() {
                if let Some(a) = c.peek_arrival() {
                    let earlier = match next {
                        None => true,
                        Some((_, best)) => a.total_cmp(&best).is_lt(),
                    };
                    if earlier {
                        next = Some((t, a));
                    }
                }
            }
            let Some((tenant, arrival)) = next else { break };
            if arrival.total_cmp(&threshold).is_gt() {
                break;
            }
            let req = self.clients[tenant].emit();
            self.reports[tenant].submitted += 1;
            // The server examines this arrival no earlier than both its
            // arrival time and the current clock.
            let seen = now.max(arrival);
            if self.pending.len() >= self.queue_cap {
                self.reports[tenant].rejected_queue_full += 1;
                self.resolve(tenant, req.seq, Outcome::RejectedQueueFull, seen);
            } else if seen > req.deadline_ms {
                self.reports[tenant].shed_deadline += 1;
                self.resolve(tenant, req.seq, Outcome::ShedDeadline, seen);
            } else {
                self.reports[tenant].admitted += 1;
                self.pending.push(Queued {
                    req,
                    admit_seq: self.admit_seq,
                });
                self.admit_seq += 1;
            }
        }
    }

    /// Drop queued requests whose deadline passed before dispatch.
    fn shed_expired(&mut self, now: f64) {
        let drained = std::mem::take(&mut self.pending);
        let mut kept = Vec::with_capacity(drained.len());
        for q in drained {
            if now > q.req.deadline_ms {
                self.reports[q.req.tenant].shed_deadline += 1;
                self.resolve(q.req.tenant, q.req.seq, Outcome::ShedDeadline, now);
            } else {
                kept.push(q);
            }
        }
        self.pending = kept;
    }

    /// Earliest future arrival across all clients, if any.
    fn next_arrival(&self) -> Option<f64> {
        let mut best: Option<f64> = None;
        for c in &self.clients {
            if let Some(a) = c.peek_arrival() {
                best = Some(match best {
                    None => a,
                    Some(b) => {
                        if a.total_cmp(&b).is_lt() {
                            a
                        } else {
                            b
                        }
                    }
                });
            }
        }
        best
    }
}

/// Serve `scenario` against `mapping` on device 0 of `volume`,
/// returning the per-tenant SLO report.
///
/// The volume is used as-is (its clock keeps advancing from wherever
/// it stands); for reproducible runs hand in a freshly built volume.
pub fn serve_scenario<D: DeviceModel>(
    volume: &Volume<D>,
    mapping: &dyn Mapping,
    scenario: &Scenario,
) -> Result<ServingReport> {
    scenario.validate(mapping)?;
    let grid = mapping.grid().clone();
    let n = scenario.tenants.len();
    let mut state = LoopState {
        clients: scenario
            .tenants
            .iter()
            .enumerate()
            .map(|(t, spec)| ClientGen::new(spec, t, scenario.seed, &grid))
            .collect(),
        reports: scenario
            .tenants
            .iter()
            .map(|spec| TenantReport {
                name: spec.name.clone(),
                submitted: 0,
                admitted: 0,
                completed: 0,
                shed_deadline: 0,
                rejected_queue_full: 0,
                disk_requests: 0,
                latency: Histogram::new(),
                metrics: Metrics::new(),
            })
            .collect(),
        pending: Vec::new(),
        credits: vec![0.0; n],
        weights: scenario.tenants.iter().map(|t| t.weight).collect(),
        trace: Vec::new(),
        dispatched: Vec::new(),
        digest: mix64(scenario.seed),
        admit_seq: 0,
        queue_cap: scenario.queue_cap,
    };
    let mut batches = 0u64;
    let mut dispatched_requests = 0u64;

    loop {
        let now = volume.with_device(0, |d| d.now_ms())?;
        state.admit_arrivals(now, now);
        if state.pending.is_empty() {
            match state.next_arrival() {
                Some(t) => {
                    if t > now {
                        volume.idle_all(t - now);
                    }
                    // Clock floats may land a hair under `t`; admit
                    // against the target so the loop always progresses.
                    let clock = volume.with_device(0, |d| d.now_ms())?;
                    state.admit_arrivals(t.max(clock), clock.max(t));
                    continue;
                }
                None => break, // queue drained, clients exhausted
            }
        }
        state.shed_expired(now);
        if state.pending.is_empty() {
            continue;
        }
        let batch = select_batch(
            scenario.policy,
            &mut state.pending,
            scenario.batch_window,
            &mut state.credits,
            &state.weights,
        );

        // Translate each tenant request's beam into per-cell disk
        // requests, remembering which batch entry owns each one
        // (`owners[i]` owns `reqs[i]`).
        let mut reqs: Vec<Request> = Vec::new();
        let mut owners: Vec<usize> = Vec::new();
        for (bi, q) in batch.iter().enumerate() {
            let region = BoxRegion::beam(&grid, q.req.dim, &q.req.anchor);
            for coord in region.cells_vec() {
                let lbn = mapping.lbn_of(&coord)?;
                reqs.push(Request::new(lbn, mapping.cell_blocks()));
                owners.push(bi);
            }
        }
        let (_, log) = volume.service_batch_logged(
            0,
            &reqs,
            SchedulePolicy::QueuedSptf(scenario.queue_depth),
        )?;
        let events = log.events();
        let transitions = volume.classify_events(0, events)?;
        let mut completion = vec![0.0f64; batch.len()];
        for (e, tr) in events.iter().zip(transitions.iter()) {
            // Under QueuedSptf every backend reports a request's index in
            // the submitted batch as its admission rank.
            let bi = *owners.get(e.admission_rank).ok_or_else(|| {
                ServerError::Config(format!(
                    "device reported admission rank {} for a batch of {} requests",
                    e.admission_rank,
                    reqs.len()
                ))
            })?;
            let tenant = batch[bi].req.tenant;
            record_classified_event(&mut state.reports[tenant].metrics, *tr, e);
            state.reports[tenant].disk_requests += 1;
            if e.after.time_ms > completion[bi] {
                completion[bi] = e.after.time_ms;
            }
        }
        batches += 1;
        dispatched_requests += reqs.len() as u64;

        for (bi, q) in batch.iter().enumerate() {
            let tenant = q.req.tenant;
            let done = completion[bi];
            state.reports[tenant].completed += 1;
            state
                .reports[tenant]
                .latency
                .record((done - q.req.arrival_ms).max(0.0));
            state.dispatched.push((tenant, q.req.seq));
            state.resolve(tenant, q.req.seq, Outcome::Completed, done);
        }
    }

    // Makespan: the last fate decided on the simulated clock.
    let makespan_ms = state
        .trace
        .iter()
        .map(|e| e.resolve_ms)
        .fold(0.0f64, f64::max);
    Ok(ServingReport {
        backend: volume.backend_name().to_string(),
        mapping: mapping.name().to_string(),
        policy: scenario.policy.slug().to_string(),
        tenants: state.reports,
        batches,
        dispatched_requests,
        makespan_ms,
        trace: state.trace,
        dispatched: state.dispatched,
        digest: state.digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use multimap_core::{GridSpec, MultiMapping, NaiveMapping};
    use multimap_disksim::profiles;
    use multimap_lvm::LogicalVolume;
    use multimap_telemetry::Counter;
    use crate::workload::TenantSpec;

    fn small_grid() -> GridSpec {
        GridSpec::new([24u64, 12, 8])
    }

    fn scenario(policy: FairnessPolicy) -> Scenario {
        Scenario {
            seed: 0xC0FFEE,
            tenants: vec![
                TenantSpec {
                    name: "open-a".into(),
                    weight: 2.0,
                    load: LoadModel::OpenLoop { rate_rps: 40.0 },
                    requests: 30,
                    deadline_ms: 400.0,
                    dim: 1,
                },
                TenantSpec {
                    name: "closed-b".into(),
                    weight: 1.0,
                    load: LoadModel::ClosedLoop { think_ms: 5.0 },
                    requests: 30,
                    deadline_ms: 400.0,
                    dim: 2,
                },
                TenantSpec {
                    name: "open-c".into(),
                    weight: 1.0,
                    load: LoadModel::OpenLoop { rate_rps: 25.0 },
                    requests: 20,
                    deadline_ms: 60.0,
                    dim: 1,
                },
            ],
            policy,
            queue_cap: 32,
            batch_window: 6,
            queue_depth: 32,
        }
    }

    fn volume() -> LogicalVolume {
        LogicalVolume::new(profiles::small(), 1)
    }

    fn mapping() -> MultiMapping {
        MultiMapping::new(&profiles::small(), small_grid()).unwrap()
    }

    #[test]
    fn counters_reconcile_for_every_policy() {
        for policy in [
            FairnessPolicy::Fifo,
            FairnessPolicy::EarliestDeadline,
            FairnessPolicy::WeightedTenant,
        ] {
            let v = volume();
            let m = mapping();
            let s = scenario(policy);
            let report = serve_scenario(&v, &m, &s).unwrap();
            let mut total_disk = 0;
            for (t, spec) in report.tenants.iter().zip(s.tenants.iter()) {
                assert_eq!(t.submitted, spec.requests as u64, "every request submitted");
                assert_eq!(
                    t.submitted,
                    t.completed + t.shed_deadline + t.rejected_queue_full,
                    "{policy:?} {}: fate partition",
                    t.name
                );
                assert_eq!(t.latency.count(), t.completed, "one latency per completion");
                assert_eq!(
                    t.metrics.counter_value(Counter::RequestsServiced),
                    t.disk_requests,
                    "telemetry matches dispatched disk requests"
                );
                total_disk += t.disk_requests;
            }
            assert_eq!(total_disk, report.dispatched_requests);
            assert_eq!(
                v.stats(0).unwrap().requests,
                report.dispatched_requests,
                "device saw exactly the dispatched requests"
            );
            assert_eq!(
                report.trace.len() as u64,
                report.tenants.iter().map(|t| t.submitted).sum::<u64>(),
                "every submission resolves exactly once"
            );
        }
    }

    #[test]
    fn shed_requests_never_reach_the_device() {
        // A hopeless deadline forces mass shedding.
        let mut s = scenario(FairnessPolicy::EarliestDeadline);
        s.tenants[2].deadline_ms = 0.001;
        let v = volume();
        let m = mapping();
        let report = serve_scenario(&v, &m, &s).unwrap();
        let shed: Vec<(usize, usize)> = report
            .trace
            .iter()
            .filter(|e| e.outcome != Outcome::Completed)
            .map(|e| (e.tenant, e.seq))
            .collect();
        assert!(!shed.is_empty(), "scenario must actually shed");
        for id in &shed {
            assert!(!report.dispatched.contains(id), "{id:?} shed yet dispatched");
        }
    }

    #[test]
    fn replays_are_byte_identical() {
        let s = scenario(FairnessPolicy::WeightedTenant);
        let run = || {
            let v = volume();
            let m = mapping();
            serve_scenario(&v, &m, &s).unwrap()
        };
        let a = run();
        let b = run();
        assert!(a.identical(&b));
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn report_json_escapes_tenant_names() {
        let mut s = scenario(FairnessPolicy::Fifo);
        s.tenants[0].name = "a\"b\nc".into();
        let report = serve_scenario(&volume(), &mapping(), &s).unwrap();
        let text = report.to_json().to_pretty();
        let parsed = multimap_telemetry::json::parse(&text).unwrap();
        let tenants = parsed.get("tenants").and_then(|t| t.as_arr()).unwrap();
        assert_eq!(tenants[0].get("name").and_then(|n| n.as_str()), Some("a\"b\nc"));
        assert_eq!(parsed, report.to_json());
    }

    #[test]
    fn naive_mapping_serves_the_same_population() {
        let v = volume();
        let m = NaiveMapping::new(small_grid(), 0);
        let report = serve_scenario(&v, &m, &scenario(FairnessPolicy::Fifo)).unwrap();
        assert_eq!(report.mapping, "Naive");
        assert!(report.dispatched_requests > 0);
    }

    #[test]
    fn malformed_scenarios_are_typed_errors() {
        let v = volume();
        let m = mapping();
        let mut s = scenario(FairnessPolicy::Fifo);
        s.tenants.clear();
        assert!(matches!(
            serve_scenario(&v, &m, &s),
            Err(ServerError::Config(_))
        ));
        let mut s = scenario(FairnessPolicy::Fifo);
        s.tenants[0].dim = 9;
        assert!(matches!(
            serve_scenario(&v, &m, &s),
            Err(ServerError::Config(_))
        ));
        let mut s = scenario(FairnessPolicy::Fifo);
        s.batch_window = 0;
        assert!(matches!(
            serve_scenario(&v, &m, &s),
            Err(ServerError::Config(_))
        ));
    }
}
