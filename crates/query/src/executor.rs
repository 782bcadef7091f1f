//! The query executor.
//!
//! All queries flow through one entry point,
//! [`QueryExecutor::execute`], which takes a [`QueryRequest`]
//! describing the mapping, the region, the operation and (optionally)
//! a per-request [`ServiceEvent`] observer and a
//! [`multimap_telemetry::MetricsSink`]. The former `beam`/`range`
//! method quartet is gone; [`QueryRequest::beam`] and
//! [`QueryRequest::range`] are the shorthand constructors.
//!
//! The executor is generic over the volume's [`DeviceModel`] backend,
//! so a query issues the identical request batch whichever device
//! model serves it — rotating disk, multi-queue SSD, interlaced
//! magnetic recording, or a disk behind the
//! [`multimap_lvm::Recovering`] fault-recovery decorator — and the page
//! cache works on every one of them.

// staticcheck: allow-file(det-wall-clock) — span endpoints recorded here feed telemetry SpanStat fields that the determinism contract explicitly excludes; no simulated timing or serve order ever reads them.
use std::time::Instant;

use multimap_core::{shared_cache, BoxRegion, GridSpec, Mapping, MappingKind, MIN_CACHED_LOOKUPS};
use multimap_disksim::{
    coalesce_sorted, request_payload, BatchTiming, DeviceModel, DiskSim, Lbn, Request,
    ServiceEvent, Transition,
};
use multimap_lvm::{LvmError, SchedulePolicy, Volume};
use multimap_telemetry::{Counter, MetricsSink, Phase, Span};

use crate::cache::{BlockCache, CacheProbe, PrefetchContext};
use crate::error::{QueryError, Result};

/// [`QueryError::RegionOutsideGrid`] for a region/grid pair.
pub(crate) fn region_outside(region: &BoxRegion, grid: &GridSpec) -> QueryError {
    QueryError::RegionOutsideGrid {
        region: format!("lo {:?} hi {:?}", region.lo(), region.hi()),
        grid: grid.extents().to_vec(),
    }
}

/// How beam-query blocks are handed to the disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BeamPolicy {
    /// Paper behaviour: SPTF for MultiMap (within a size limit),
    /// ascending LBN order for the linearised mappings.
    Auto,
    /// Always sort ascending.
    Ascending,
    /// Always SPTF.
    Sptf,
    /// Issue in the dataset's natural cell order (no sorting) — the
    /// ablation for the paper's remark that sorting "significantly
    /// improves performance in practice".
    Natural,
}

/// How range-query blocks are ordered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RangeOrder {
    /// Sort all LBNs ascending, coalesce contiguous runs, and let the
    /// disk's queue-limited SPTF scheduler reorder within its command
    /// queue (paper behaviour for every mapping: the storage manager
    /// sorts; the disk's internal scheduler does the rest).
    SortedCoalesced,
    /// Like [`RangeOrder::SortedCoalesced`] but strictly FIFO at the
    /// disk (ablation: no command queueing).
    SortedCoalescedFifo,
    /// Sort ascending but issue single-block requests (no coalescing).
    SortedSingles,
    /// Issue cell by cell in row-major order (ablation).
    NaturalCellOrder,
}

/// Executor tunables.
///
/// Non-exhaustive: construct with [`ExecOptions::default`] or
/// [`ExecOptions::builder`], so future knobs are not breaking changes.
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct ExecOptions {
    /// Beam policy (default [`BeamPolicy::Auto`]).
    pub beam: BeamPolicy,
    /// Range policy (default [`RangeOrder::SortedCoalesced`]).
    pub range: RangeOrder,
    /// Largest batch the full-SPTF scheduler is applied to; larger
    /// MultiMap beams fall back to queued SPTF. With the profiled
    /// estimator the selection loop is cheap per round, so the default
    /// covers every paper-scale beam (the largest is `S_i` cells).
    pub sptf_limit: usize,
    /// Disk command-queue depth for queued-SPTF service (SCSI TCQ).
    pub queue_depth: usize,
    /// Serve large-region translations from the process-wide flat
    /// cell→LBN table cache (see [`multimap_core::TranslationCache`]).
    /// Purely an executor-side optimisation — results are identical.
    pub translation_cache: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            beam: BeamPolicy::Auto,
            range: RangeOrder::SortedCoalesced,
            sptf_limit: 4096,
            queue_depth: 64,
            translation_cache: true,
        }
    }
}

impl ExecOptions {
    /// A builder starting from the default (paper) options.
    pub fn builder() -> ExecOptionsBuilder {
        ExecOptionsBuilder::default()
    }
}

/// Builder for [`ExecOptions`]; every knob defaults to the paper value.
///
/// ```
/// use multimap_query::{BeamPolicy, ExecOptions};
/// let opts = ExecOptions::builder()
///     .beam(BeamPolicy::Sptf)
///     .translation_cache(false)
///     .build();
/// assert!(!opts.translation_cache);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecOptionsBuilder {
    opts: ExecOptions,
}

impl ExecOptionsBuilder {
    /// Set the beam policy.
    pub fn beam(mut self, beam: BeamPolicy) -> Self {
        self.opts.beam = beam;
        self
    }

    /// Set the range ordering policy.
    pub fn range(mut self, range: RangeOrder) -> Self {
        self.opts.range = range;
        self
    }

    /// Set the full-SPTF batch-size limit.
    pub fn sptf_limit(mut self, limit: usize) -> Self {
        self.opts.sptf_limit = limit;
        self
    }

    /// Set the queued-SPTF command-queue depth.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.opts.queue_depth = depth;
        self
    }

    /// Enable or disable the flat-translation cache.
    pub fn translation_cache(mut self, on: bool) -> Self {
        self.opts.translation_cache = on;
        self
    }

    /// Finish the build.
    pub fn build(self) -> ExecOptions {
        self.opts
    }
}

/// The operation a [`QueryRequest`] performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryOp {
    /// Fetch every cell of the region as individual cell requests (the
    /// region is usually a line along one dimension).
    Beam,
    /// Fetch every cell of an N-D box, ordered per
    /// [`ExecOptions::range`].
    Range,
}

/// One query for [`QueryExecutor::execute`]: the mapping and region to
/// fetch, the operation, and optional observation hooks.
///
/// ```
/// use multimap_core::{BoxRegion, GridSpec, NaiveMapping};
/// use multimap_disksim::profiles;
/// use multimap_lvm::LogicalVolume;
/// use multimap_query::{QueryExecutor, QueryRequest};
///
/// let volume = LogicalVolume::new(profiles::small(), 1);
/// let grid = GridSpec::new([60u64, 8, 6]);
/// let mapping = NaiveMapping::new(grid.clone(), 0);
/// let exec = QueryExecutor::new(&volume, 0);
/// let result = exec
///     .execute(QueryRequest::beam(&mapping, &BoxRegion::beam(&grid, 1, &[3, 0, 2])))
///     .unwrap();
/// assert_eq!(result.cells, 8);
/// ```
pub struct QueryRequest<'a> {
    pub(crate) mapping: &'a dyn Mapping,
    pub(crate) region: &'a BoxRegion,
    pub(crate) op: QueryOp,
    pub(crate) observer: Option<&'a mut dyn FnMut(ServiceEvent)>,
    pub(crate) sink: Option<&'a mut dyn MetricsSink>,
    pub(crate) cache: Option<&'a dyn BlockCache>,
}

impl<'a> QueryRequest<'a> {
    /// A request for `op` over `region` under `mapping`.
    pub fn new(op: QueryOp, mapping: &'a dyn Mapping, region: &'a BoxRegion) -> Self {
        QueryRequest {
            mapping,
            region,
            op,
            observer: None,
            sink: None,
            cache: None,
        }
    }

    /// A beam query (shorthand for [`QueryRequest::new`]).
    pub fn beam(mapping: &'a dyn Mapping, region: &'a BoxRegion) -> Self {
        QueryRequest::new(QueryOp::Beam, mapping, region)
    }

    /// A range query (shorthand for [`QueryRequest::new`]).
    pub fn range(mapping: &'a dyn Mapping, region: &'a BoxRegion) -> Self {
        QueryRequest::new(QueryOp::Range, mapping, region)
    }

    /// Attach a per-request observer: the scheduler emits one
    /// [`ServiceEvent`] per serviced request, letting a conformance
    /// oracle audit every disk decision the query caused.
    pub fn with_observer(mut self, observer: &'a mut dyn FnMut(ServiceEvent)) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Attach a metrics sink recording phase histograms, cache counters
    /// and span timings for this query (see `multimap-telemetry`).
    pub fn with_sink(mut self, sink: &'a mut dyn MetricsSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Attach a page cache: resident cells are delivered without disk
    /// I/O and the cache's prefetch plan rides the demand batch (see
    /// [`BlockCache`]). Without a cache the executor takes the exact
    /// pre-cache code path — byte-identical timings.
    pub fn with_cache(mut self, cache: &'a dyn BlockCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The operation requested.
    pub fn op(&self) -> QueryOp {
        self.op
    }

    /// The mapping queried.
    pub fn mapping(&self) -> &dyn Mapping {
        self.mapping
    }

    /// The region queried.
    pub fn region(&self) -> &BoxRegion {
        self.region
    }
}

/// Measured outcome of one query.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueryResult {
    /// Cells fetched.
    pub cells: u64,
    /// Blocks transferred.
    pub blocks: u64,
    /// Requests issued to the disk.
    pub requests: u64,
    /// Total I/O time in milliseconds.
    pub total_io_ms: f64,
    /// Order-independent checksum of the logical blocks delivered (see
    /// [`multimap_disksim::request_payload`]): two runs of the same
    /// query that report equal payloads returned exactly the same data,
    /// however scheduling or fault recovery reordered or split it. The
    /// conformance fault sweep pins this against the fault-free run.
    pub payload: u64,
}

impl QueryResult {
    fn from_batch(batch: BatchTiming, cells: u64) -> Self {
        QueryResult {
            cells,
            blocks: batch.blocks,
            requests: batch.requests,
            total_io_ms: batch.total_ms,
            payload: batch.payload,
        }
    }

    /// Average I/O time per cell (the paper's beam-query metric).
    pub fn per_cell_ms(&self) -> f64 {
        if self.cells == 0 {
            0.0
        } else {
            self.total_io_ms / self.cells as f64
        }
    }

    /// Accumulate another query's result (for multi-run averages).
    pub fn accumulate(&mut self, other: &QueryResult) {
        self.cells += other.cells;
        self.blocks += other.blocks;
        self.requests += other.requests;
        self.total_io_ms += other.total_io_ms;
        self.payload = self.payload.wrapping_add(other.payload);
    }
}

/// Record one serviced request's timing decomposition into a sink,
/// under the transition class the serving device assigned it
/// ([`DeviceModel::classify`]; on the rotating disk this is the
/// settle-plateau rule, [`ServiceEvent::transition`]).
///
/// The positioning charge lands in exactly one of [`Phase::Seek`] /
/// [`Phase::Settle`] (per the transition classification) and zero
/// charges are skipped, so the five phase sums add up *exactly* to the
/// batch's total service time — the conformance oracle's cross-check.
/// Public so other service paths (the store's write-back batcher, the
/// serving layer) record the identical decomposition.
pub fn record_classified_event(sink: &mut dyn MetricsSink, transition: Transition, e: &ServiceEvent) {
    let t = e.timing;
    sink.counter(Counter::RequestsServiced, 1);
    if e.is_prefetch_hit() {
        sink.counter(Counter::PrefetchHit, 1);
    }
    sink.phase(Phase::Overhead, t.overhead_ms);
    match transition {
        Transition::Sequential => {}
        Transition::AdjacencyHop => {
            sink.counter(Counter::AdjacencyHop, 1);
            sink.phase(Phase::Settle, t.seek_ms);
        }
        Transition::Seek => {
            sink.counter(Counter::SeekTransition, 1);
            sink.phase(Phase::Seek, t.seek_ms);
        }
    }
    sink.phase(Phase::Rotation, t.rotation_ms);
    sink.phase(Phase::Transfer, t.transfer_ms);
    if !e.fault.is_clean() {
        let f = e.fault;
        sink.counter(Counter::TransientFault, f.transients as u64);
        sink.counter(Counter::MediaFault, f.media_errors as u64);
        sink.counter(Counter::SlowRead, f.slow_reads as u64);
        sink.counter(Counter::RetryAttempt, f.retries as u64);
        sink.counter(Counter::BadBlockRemap, f.remaps as u64);
        // recovery_ms is `elapsed - components` and can carry a tiny
        // negative float residue on recovered requests whose components
        // happen to sum high; only a positive charge is a real phase.
        if f.recovery_ms > 0.0 {
            sink.phase(Phase::Recovery, f.recovery_ms);
        }
    }
    // Clean requests record exactly the component total, keeping
    // fault-free runs bit-identical to builds without fault support.
    sink.service_time(e.elapsed_ms());
}

/// Serve a batch, splitting out requests that touch remapped blocks.
///
/// A hard media error relocates a block into its track's spare region,
/// so the cell loses the adjacency the mapping promised: semi-sequential
/// scheduling (SPTF hop chains, prefetch runs) no longer describes its
/// true position. When the device reports remaps
/// ([`DeviceModel::is_remapped`]), requests overlapping a remapped range
/// are pulled out of the primary batch and served afterwards as plain
/// scheduled seeks in ascending LBN order; healthy requests keep the
/// chosen policy. On a device with no remaps (including every
/// fault-free run and every backend without a recovery layer) this is
/// exactly one batch under `policy`.
fn serve_split_degraded<D: DeviceModel>(
    dev: &mut D,
    requests: &[Request],
    policy: SchedulePolicy,
    observe: &mut dyn FnMut(ServiceEvent),
) -> multimap_disksim::Result<BatchTiming> {
    if requests.iter().any(|r| dev.is_remapped(r.lbn, r.nblocks)) {
        let (degraded, healthy): (Vec<Request>, Vec<Request>) = requests
            .iter()
            .partition(|r| dev.is_remapped(r.lbn, r.nblocks));
        let mut batch = dev.service_batch_observed(&healthy, policy, observe)?;
        let tail = dev.service_batch_observed(&degraded, SchedulePolicy::AscendingLbn, observe)?;
        batch.merge(&tail);
        return Ok(batch);
    }
    dev.service_batch_observed(requests, policy, observe)
}

/// Serve a batch on one device under a single lock acquisition, feeding
/// every [`ServiceEvent`] to the optional observer and sink.
///
/// Without a sink the observer is handed straight to the scheduler.
/// With one, the events are collected, then classified by the device
/// ([`DeviceModel::classify`]) and recorded in service order — events
/// served before an error are still recorded.
fn serve_batch<D: DeviceModel>(
    volume: &Volume<D>,
    device: usize,
    requests: &[Request],
    policy: SchedulePolicy,
    observer: &mut Option<&mut (dyn FnMut(ServiceEvent) + '_)>,
    sink: Option<&mut (dyn MetricsSink + '_)>,
) -> Result<BatchTiming> {
    let served = volume.with_device(device, |dev| {
        let Some(sink) = sink else {
            return match observer.as_deref_mut() {
                Some(o) => serve_split_degraded(dev, requests, policy, o),
                None => serve_split_degraded(dev, requests, policy, &mut |_| {}),
            };
        };
        let mut events = Vec::new();
        let batch = serve_split_degraded(dev, requests, policy, &mut |e| events.push(e));
        for e in &events {
            record_classified_event(sink, dev.classify(e), e);
            if let Some(o) = observer.as_mut() {
                o(*e);
            }
        }
        batch
    })?;
    Ok(served.map_err(LvmError::from)?)
}

/// Record a batch's scheduler-internal counters into a sink (the tail
/// block shared by every service path).
pub(crate) fn record_sched_stats(s: &mut dyn MetricsSink, batch: &BatchTiming) {
    s.counter(Counter::SeekMemoHit, batch.sched.seek_memo_hits);
    s.counter(Counter::SeekMemoMiss, batch.sched.seek_memo_misses);
    s.counter(Counter::SptfWindowEviction, batch.sched.window_evictions);
    s.counter(Counter::SptfBucketScan, batch.sched.bucket_scans);
    s.counter(Counter::SptfCandidateExamined, batch.sched.candidates_examined);
    s.counter(Counter::SptfSelectorRepair, batch.sched.selector_repairs);
}

/// What probing an attached [`BlockCache`] decided for one query.
struct Probed {
    /// Demanded cell-start LBNs that missed, in demand order.
    missed: Vec<Lbn>,
    /// Page starts the cache wants prefetched in the same batch.
    prefetch: Vec<Lbn>,
    hits: u64,
    prefetch_used: u64,
    /// Payload of every demanded cell, cached or fetched.
    payload: u64,
}

/// Probe `cache` for every cell of `ctx.demand` and plan its prefetch
/// (`ctx.missed` is ignored: the probe fills it in).
///
/// The delivered data is the same whether a cell came from a resident
/// page or a fresh read, and `request_payload` is a pure per-block sum —
/// so charging every demanded cell keeps the payload bit-identical to an
/// uncached run of the query.
fn probe_cache(cache: &dyn BlockCache, ctx: PrefetchContext<'_>, cell_blocks: u64) -> Probed {
    let mut probed = Probed {
        missed: Vec::new(),
        prefetch: Vec::new(),
        hits: 0,
        prefetch_used: 0,
        payload: 0,
    };
    for &l in ctx.demand {
        probed.payload = probed
            .payload
            .wrapping_add(request_payload(Request::new(l, cell_blocks)));
        match cache.probe(l) {
            CacheProbe::Hit { first_prefetch_use } => {
                probed.hits += 1;
                probed.prefetch_used += u64::from(first_prefetch_use);
            }
            CacheProbe::Miss => probed.missed.push(l),
        }
    }
    // Plan prefetch — even on an all-hit query, so stream detection
    // keeps tracking the query sequence and can run ahead of it.
    probed.prefetch = cache.plan_prefetch(&PrefetchContext {
        missed: &probed.missed,
        ..ctx
    });
    probed
}

/// Close a span opened with `Instant::now()` (no-op without a sink).
fn finish_span(sink: &mut Option<&mut dyn MetricsSink>, span: Span, started: Option<Instant>) {
    if let (Some(s), Some(t)) = (sink.as_deref_mut(), started) {
        s.span(span, t.elapsed().as_secs_f64() * 1e3);
    }
}

/// Executes beam and range queries on one device of a [`Volume`] over
/// any [`DeviceModel`] backend (the rotating disk by default).
///
/// ```
/// use multimap_core::{BoxRegion, GridSpec, NaiveMapping};
/// use multimap_disksim::profiles;
/// use multimap_lvm::backend_volume;
/// use multimap_query::{QueryExecutor, QueryRequest};
///
/// let volume = backend_volume("ssd", &profiles::small(), 1).unwrap();
/// let grid = GridSpec::new([60u64, 8, 6]);
/// let mapping = NaiveMapping::new(grid.clone(), 0);
/// let result = QueryExecutor::new(&volume, 0)
///     .execute(QueryRequest::beam(&mapping, &BoxRegion::beam(&grid, 1, &[3, 0, 2])))
///     .unwrap();
/// assert_eq!(result.cells, 8);
/// ```
pub struct QueryExecutor<'a, D: DeviceModel = DiskSim> {
    volume: &'a Volume<D>,
    disk: usize,
    options: ExecOptions,
}

impl<'a, D: DeviceModel> QueryExecutor<'a, D> {
    /// Executor with default (paper) options.
    pub fn new(volume: &'a Volume<D>, disk: usize) -> Self {
        Self::with_options(volume, disk, ExecOptions::default())
    }

    /// Executor with explicit options.
    pub fn with_options(volume: &'a Volume<D>, disk: usize, options: ExecOptions) -> Self {
        QueryExecutor {
            volume,
            disk,
            options,
        }
    }

    /// The options in effect.
    pub fn options(&self) -> ExecOptions {
        self.options
    }

    /// Run one query end to end: plan, translate, schedule, service.
    ///
    /// This is the single entry point every query takes. With a
    /// [`BlockCache`] attached, resident cells are delivered without
    /// device I/O: the result's `payload` covers every demanded cell —
    /// cached or fetched — so it equals the uncached run's payload, while
    /// `blocks`/`requests`/`total_io_ms` report the device traffic that
    /// actually happened. Without a cache the batch is exactly the
    /// uncached one, byte-identical in timing. When the
    /// request carries a sink, the four phases are span-timed
    /// (wall clock) and every serviced request's timing decomposition,
    /// transition class and cache outcome is recorded — reading only
    /// simulator *outputs*, so results and simulated clocks are
    /// byte-identical with or without a sink attached.
    pub fn execute(&self, req: QueryRequest<'_>) -> Result<QueryResult> {
        let QueryRequest {
            mapping,
            region,
            op,
            mut observer,
            mut sink,
            cache,
        } = req;
        let timed = sink.is_some();

        // Plan: validate the region and resolve the schedule policy.
        let t_plan = timed.then(Instant::now);
        if !region.fits(mapping.grid()) {
            return Err(region_outside(region, mapping.grid()));
        }
        let cell_blocks = mapping.cell_blocks();
        let beam_policy = match op {
            QueryOp::Beam => Some(resolve_beam_schedule(&self.options, mapping, region.cells())),
            QueryOp::Range => None,
        };
        finish_span(&mut sink, Span::Plan, t_plan);

        // Translate: region cells → LBNs (direct or via the flat table).
        let t_translate = timed.then(Instant::now);
        let (lbns, cache_hit) = translate_region(&self.options, mapping, region)?;
        if let Some(s) = sink.as_deref_mut() {
            match cache_hit {
                Some(true) => s.counter(Counter::TranslationCacheHit, 1),
                Some(false) => s.counter(Counter::TranslationCacheMiss, 1),
                None => {}
            }
        }
        finish_span(&mut sink, Span::Translate, t_translate);
        let cells = lbns.len() as u64;

        // Schedule: build the request batch in issue order. With a
        // cache attached, only the misses are scheduled — exactly as an
        // uncached query over them would be — and the cache's prefetch
        // plan rides the same batch, so SPTF and coalescing see demand
        // and speculative reads together.
        let t_schedule = timed.then(Instant::now);
        let probed = cache.map(|c| {
            let ctx = PrefetchContext {
                mapping,
                region,
                demand: &lbns,
                missed: &[],
                lbn_limit: self.volume.geometry().total_blocks(),
            };
            probe_cache(c, ctx, cell_blocks)
        });
        let demand = match &probed {
            Some(p) => p.missed.clone(),
            None => lbns,
        };
        let (mut requests, policy) =
            plan_requests(&self.options, op, beam_policy, demand, cell_blocks);
        if let Some(p) = &probed {
            requests.extend(p.prefetch.iter().map(|&l| Request::new(l, cell_blocks)));
        }
        finish_span(&mut sink, Span::Schedule, t_schedule);

        // Service: hand the batch to the device's scheduler (skipped
        // when every demanded page was resident and no prefetch is due).
        let t_service = timed.then(Instant::now);
        let batch = if probed.is_some() && requests.is_empty() {
            BatchTiming::default()
        } else {
            serve_batch(
                self.volume,
                self.disk,
                &requests,
                policy,
                &mut observer,
                sink.as_deref_mut(),
            )?
        };
        finish_span(&mut sink, Span::Service, t_service);

        let mut result = QueryResult::from_batch(batch, cells);
        if let (Some(cache), Some(p)) = (cache, &probed) {
            // Admission order is part of the deterministic contract:
            // demand misses first (cell order), then prefetched pages.
            for &l in &p.missed {
                cache.admit(l, cell_blocks, false);
            }
            for &l in &p.prefetch {
                cache.admit(l, cell_blocks, true);
            }
            result.payload = p.payload;
        }
        if let Some(s) = sink {
            if let Some(p) = &probed {
                s.counter(Counter::PageCacheHit, p.hits);
                s.counter(Counter::PageCacheMiss, p.missed.len() as u64);
                s.counter(Counter::CachePrefetchIssued, p.prefetch.len() as u64);
                s.counter(Counter::CachePrefetchUsed, p.prefetch_used);
            }
            record_sched_stats(s, &batch);
        }
        Ok(result)
    }
}

/// Map every cell of `region` to the first LBN of its cell, in
/// row-major cell order, under `options`' translation-cache setting.
/// The second value reports the translation cache outcome: `None` when
/// the cache was not consulted.
fn translate_region(
    options: &ExecOptions,
    mapping: &dyn Mapping,
    region: &BoxRegion,
) -> Result<(Vec<Lbn>, Option<bool>)> {
    let mut lbns = Vec::with_capacity(region.cells().min(1 << 26) as usize);
    // Large regions amortise a flat cell→LBN table (built once per
    // grid, shared process-wide); small ones — beams are `S_i` cells
    // — translate directly, as a table build would dwarf the query.
    if options.translation_cache && region.cells() >= MIN_CACHED_LOOKUPS {
        let (table, cache_hit) = shared_cache().translate_tracked(mapping)?;
        let mut failed = None;
        region.for_each_cell(|c| {
            if failed.is_some() {
                return;
            }
            match table.lbn_of(c) {
                Ok(lbn) => lbns.push(lbn),
                Err(e) => failed = Some(e),
            }
        });
        return match failed {
            Some(e) => Err(e.into()),
            None => Ok((lbns, Some(cache_hit))),
        };
    }
    let mut failed = None;
    region.for_each_cell(|c| {
        if failed.is_some() {
            return;
        }
        match mapping.lbn_of(c) {
            Ok(lbn) => lbns.push(lbn),
            Err(e) => failed = Some(e),
        }
    });
    match failed {
        Some(e) => Err(e.into()),
        None => Ok((lbns, None)),
    }
}

/// Resolve the schedule policy for a beam of `ncells` requests under
/// `options`.
fn resolve_beam_schedule(
    options: &ExecOptions,
    mapping: &dyn Mapping,
    ncells: u64,
) -> SchedulePolicy {
    match options.beam {
        BeamPolicy::Ascending => SchedulePolicy::AscendingLbn,
        BeamPolicy::Sptf => SchedulePolicy::Sptf,
        BeamPolicy::Natural => SchedulePolicy::InOrder,
        BeamPolicy::Auto => match mapping.kind() {
            MappingKind::MultiMap if ncells <= options.sptf_limit as u64 => SchedulePolicy::Sptf,
            MappingKind::MultiMap => SchedulePolicy::QueuedSptf(options.queue_depth),
            _ => SchedulePolicy::AscendingLbn,
        },
    }
}

/// Build the device request batch (issue order plus schedule policy)
/// for cell-start `lbns` under `options` — shared by the cached and
/// uncached paths, so a cache that misses every probe issues exactly the
/// batch an uncached run would.
fn plan_requests(
    options: &ExecOptions,
    op: QueryOp,
    beam_policy: Option<SchedulePolicy>,
    mut lbns: Vec<Lbn>,
    cell_blocks: u64,
) -> (Vec<Request>, SchedulePolicy) {
    match (op, beam_policy) {
        (QueryOp::Beam, Some(policy)) => {
            let requests: Vec<Request> =
                lbns.iter().map(|&l| Request::new(l, cell_blocks)).collect();
            (requests, policy)
        }
        _ => match options.range {
            RangeOrder::NaturalCellOrder => {
                let requests: Vec<Request> =
                    lbns.iter().map(|&l| Request::new(l, cell_blocks)).collect();
                (requests, SchedulePolicy::InOrder)
            }
            RangeOrder::SortedSingles => {
                lbns.sort_unstable();
                let requests: Vec<Request> =
                    lbns.iter().map(|&l| Request::new(l, cell_blocks)).collect();
                (requests, SchedulePolicy::InOrder)
            }
            RangeOrder::SortedCoalesced | RangeOrder::SortedCoalescedFifo => {
                let policy = if options.range == RangeOrder::SortedCoalesced {
                    SchedulePolicy::QueuedSptf(options.queue_depth)
                } else {
                    SchedulePolicy::InOrder
                };
                lbns.sort_unstable();
                let requests = if cell_blocks == 1 {
                    coalesce_sorted(&lbns)
                } else {
                    // Expand cells into block runs before coalescing.
                    coalesce_cells(&lbns, cell_blocks)
                };
                (requests, policy)
            }
        },
    }
}

/// Service an explicit set of single-block LBNs (one per cell) on one
/// disk — the path used for octree-leaf datasets, where cells are leaves
/// rather than grid coordinates.
///
/// `sptf` issues the whole batch to the disk scheduler (MultiMap beams);
/// otherwise LBNs are sorted ascending and coalesced (the linearised
/// mappings' policy).
pub fn service_lbns<D: DeviceModel>(
    volume: &Volume<D>,
    disk: usize,
    lbns: &[Lbn],
    sptf: bool,
) -> Result<QueryResult> {
    service_lbns_sinked(volume, disk, lbns, sptf, None)
}

/// [`service_lbns`] with an optional metrics sink recording the same
/// per-request decomposition the executor path records.
pub fn service_lbns_sinked<D: DeviceModel>(
    volume: &Volume<D>,
    disk: usize,
    lbns: &[Lbn],
    sptf: bool,
    mut sink: Option<&mut dyn MetricsSink>,
) -> Result<QueryResult> {
    let cells = lbns.len() as u64;
    let t_service = sink.is_some().then(Instant::now);
    let (requests, policy) = if sptf {
        let requests: Vec<Request> = lbns.iter().map(|&l| Request::single(l)).collect();
        (requests, SchedulePolicy::Sptf)
    } else {
        let mut sorted = lbns.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        (coalesce_sorted(&sorted), SchedulePolicy::InOrder)
    };
    let batch = serve_batch(volume, disk, &requests, policy, &mut None, sink.as_deref_mut())?;
    finish_span(&mut sink, Span::Service, t_service);
    if let Some(s) = sink {
        record_sched_stats(s, &batch);
    }
    Ok(QueryResult::from_batch(batch, cells))
}

/// Coalesce sorted cell-start LBNs (each `cell_blocks` long) into maximal
/// contiguous requests.
fn coalesce_cells(sorted_starts: &[Lbn], cell_blocks: u64) -> Vec<Request> {
    let mut out = Vec::new();
    let mut iter = sorted_starts.iter().copied();
    let Some(first) = iter.next() else {
        return out;
    };
    let mut start = first;
    let mut len = cell_blocks;
    let mut expected_next = first + cell_blocks;
    for lbn in iter {
        if lbn == expected_next {
            len += cell_blocks;
        } else {
            out.push(Request::new(start, len));
            start = lbn;
            len = cell_blocks;
        }
        expected_next = lbn + cell_blocks;
    }
    out.push(Request::new(start, len));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use multimap_core::{GridSpec, MultiMapping, NaiveMapping};
    use multimap_disksim::profiles;
    use multimap_lvm::LogicalVolume;
    use multimap_telemetry::Metrics;

    fn setup() -> (LogicalVolume, GridSpec) {
        (
            LogicalVolume::new(profiles::small(), 1),
            GridSpec::new([60u64, 8, 6]),
        )
    }

    #[test]
    fn beam_fetches_every_cell_once() {
        let (vol, grid) = setup();
        let naive = NaiveMapping::new(grid.clone(), 0);
        let exec = QueryExecutor::new(&vol, 0);
        let region = BoxRegion::beam(&grid, 1, &[3, 0, 2]);
        let r = exec.execute(QueryRequest::beam(&naive, &region)).unwrap();
        assert_eq!(r.cells, 8);
        assert_eq!(r.blocks, 8);
        assert_eq!(r.requests, 8);
        assert!(r.total_io_ms > 0.0);
        assert!((r.per_cell_ms() - r.total_io_ms / 8.0).abs() < 1e-12);
    }

    #[test]
    fn range_coalesces_naive_dim0_runs() {
        let (vol, grid) = setup();
        let naive = NaiveMapping::new(grid.clone(), 0);
        let exec = QueryExecutor::new(&vol, 0);
        let region = BoxRegion::new([0u64, 0, 0], [59u64, 1, 0]);
        let r = exec.execute(QueryRequest::range(&naive, &region)).unwrap();
        assert_eq!(r.cells, 120);
        // Two Dim1 rows are LBN-contiguous under row-major order.
        assert_eq!(r.requests, 1);
    }

    #[test]
    fn multimap_beam_uses_semi_sequential_access() {
        let (vol, grid) = setup();
        let mm = MultiMapping::new(vol.geometry(), grid.clone()).unwrap();
        let exec = QueryExecutor::new(&vol, 0);
        let region = BoxRegion::beam(&grid, 1, &[0, 0, 0]);
        let r = exec.execute(QueryRequest::beam(&mm, &region)).unwrap();
        assert_eq!(r.cells, 8);
        // Dominated by settle time, far below half-revolution latency.
        let settle = vol.geometry().settle_ms;
        assert!(
            r.per_cell_ms() < settle + 1.0,
            "per-cell {} too slow",
            r.per_cell_ms()
        );
    }

    #[test]
    fn multimap_beats_naive_on_nonprimary_beam() {
        let (vol, grid) = setup();
        let naive = NaiveMapping::new(grid.clone(), 0);
        let mm = MultiMapping::new(vol.geometry(), grid.clone()).unwrap();
        let exec = QueryExecutor::new(&vol, 0);
        let region = BoxRegion::beam(&grid, 2, &[5, 3, 0]);
        let rn = exec.execute(QueryRequest::beam(&naive, &region)).unwrap();
        vol.reset();
        let rm = exec.execute(QueryRequest::beam(&mm, &region)).unwrap();
        assert!(
            rm.total_io_ms < rn.total_io_ms,
            "multimap {} vs naive {}",
            rm.total_io_ms,
            rn.total_io_ms
        );
    }

    /// The shorthand constructors are thin: byte-identical results to
    /// spelling out [`QueryRequest::new`], and an attached observer sees
    /// exactly one event per serviced request.
    #[test]
    fn request_shorthands_match_explicit_construction() {
        let (vol, grid) = setup();
        let mm = MultiMapping::new(vol.geometry(), grid.clone()).unwrap();
        let exec = QueryExecutor::new(&vol, 0);
        let beam = BoxRegion::beam(&grid, 1, &[3, 0, 2]);
        let short = exec.execute(QueryRequest::beam(&mm, &beam)).unwrap();
        vol.reset();
        let explicit = exec
            .execute(QueryRequest::new(QueryOp::Beam, &mm, &beam))
            .unwrap();
        assert_eq!(short, explicit);
        assert_eq!(short.total_io_ms.to_bits(), explicit.total_io_ms.to_bits());

        let range = BoxRegion::new([0u64, 0, 0], [20u64, 5, 3]);
        vol.reset();
        let short = exec.execute(QueryRequest::range(&mm, &range)).unwrap();
        vol.reset();
        let explicit = exec
            .execute(QueryRequest::new(QueryOp::Range, &mm, &range))
            .unwrap();
        assert_eq!(short, explicit);
        let mut events = 0usize;
        vol.reset();
        let mut count = |_: ServiceEvent| events += 1;
        let observed = exec
            .execute(QueryRequest::beam(&mm, &beam).with_observer(&mut count))
            .unwrap();
        assert_eq!(events as u64, observed.requests);
    }

    #[test]
    fn sorted_range_no_slower_than_natural_order() {
        let (vol, grid) = setup();
        let mm = MultiMapping::new(vol.geometry(), grid.clone()).unwrap();
        let region = BoxRegion::new([0u64, 0, 0], [40u64, 5, 3]);

        let sorted = QueryExecutor::new(&vol, 0)
            .execute(QueryRequest::range(&mm, &region))
            .unwrap();
        vol.reset();
        let natural = QueryExecutor::with_options(
            &vol,
            0,
            ExecOptions::builder()
                .range(RangeOrder::NaturalCellOrder)
                .build(),
        )
        .execute(QueryRequest::range(&mm, &region))
        .unwrap();
        assert_eq!(sorted.cells, natural.cells);
        assert!(sorted.total_io_ms <= natural.total_io_ms * 1.01 + 0.5);
    }

    /// The flat-table fast path must be invisible: a range big enough to
    /// engage the cache yields bit-identical timing to the direct path.
    #[test]
    fn translation_cache_is_transparent() {
        let vol = LogicalVolume::new(profiles::small(), 1);
        // > MIN_CACHED_LOOKUPS cells so the cached path engages.
        let grid = GridSpec::new([60u64, 12, 8]);
        let mm = MultiMapping::new(vol.geometry(), grid.clone()).unwrap();
        let region = grid.bounding_region();
        assert!(region.cells() >= multimap_core::MIN_CACHED_LOOKUPS);

        let cached = QueryExecutor::new(&vol, 0)
            .execute(QueryRequest::range(&mm, &region))
            .unwrap();
        vol.reset();
        let direct = QueryExecutor::with_options(
            &vol,
            0,
            ExecOptions::builder().translation_cache(false).build(),
        )
        .execute(QueryRequest::range(&mm, &region))
        .unwrap();
        assert_eq!(cached, direct);
        assert_eq!(cached.total_io_ms.to_bits(), direct.total_io_ms.to_bits());
    }

    /// A sink must not change the result, and its phase sums must add
    /// up exactly to the measured total I/O time.
    #[test]
    fn sink_is_transparent_and_sums_to_total() {
        let (vol, grid) = setup();
        let mm = MultiMapping::new(vol.geometry(), grid.clone()).unwrap();
        let exec = QueryExecutor::new(&vol, 0);
        let region = BoxRegion::beam(&grid, 2, &[5, 3, 0]);

        let bare = exec.execute(QueryRequest::beam(&mm, &region)).unwrap();
        vol.reset();
        let mut metrics = Metrics::new();
        let observed = exec
            .execute(QueryRequest::beam(&mm, &region).with_sink(&mut metrics))
            .unwrap();
        assert_eq!(bare, observed);
        assert_eq!(bare.total_io_ms.to_bits(), observed.total_io_ms.to_bits());
        assert_eq!(
            metrics.counter_value(Counter::RequestsServiced),
            observed.requests
        );
        assert!(
            (metrics.phase_sum_ms() - observed.total_io_ms).abs() < 1e-9,
            "phase sums {} vs total {}",
            metrics.phase_sum_ms(),
            observed.total_io_ms
        );
        assert!(
            (metrics.service_hist().sum_ms() - observed.total_io_ms).abs() < 1e-9,
            "service histogram must sum to the total"
        );
        // A MultiMap off-primary beam is dominated by adjacency hops.
        assert!(metrics.counter_value(Counter::AdjacencyHop) > 0);
        // All four executor spans fired exactly once.
        for s in Span::ALL {
            assert_eq!(metrics.span_stat(s).count, 1, "{s:?}");
        }
    }

    /// A large cached range records a translation-cache outcome; the
    /// memo counters ride along on SPTF beams.
    #[test]
    fn sink_records_cache_counters() {
        let vol = LogicalVolume::new(profiles::small(), 1);
        let grid = GridSpec::new([61u64, 12, 8]);
        let mm = MultiMapping::new(vol.geometry(), grid.clone()).unwrap();
        let region = grid.bounding_region();
        let exec = QueryExecutor::new(&vol, 0);
        let mut first = Metrics::new();
        exec.execute(QueryRequest::range(&mm, &region).with_sink(&mut first))
            .unwrap();
        let mut second = Metrics::new();
        exec.execute(QueryRequest::range(&mm, &region).with_sink(&mut second))
            .unwrap();
        assert_eq!(
            first.counter_value(Counter::TranslationCacheHit)
                + first.counter_value(Counter::TranslationCacheMiss),
            1
        );
        // The second run must hit: the first populated the shared LRU.
        assert_eq!(second.counter_value(Counter::TranslationCacheHit), 1);

        let mut beam_metrics = Metrics::new();
        let beam = BoxRegion::beam(&grid, 1, &[0, 0, 0]);
        exec.execute(QueryRequest::beam(&mm, &beam).with_sink(&mut beam_metrics))
            .unwrap();
        // Full SPTF ran: the memo saw every positioning lookup.
        assert!(
            beam_metrics.counter_value(Counter::SeekMemoHit)
                + beam_metrics.counter_value(Counter::SeekMemoMiss)
                > 0
        );
    }

    /// An unbounded test cache: enough to pin the executor's cached
    /// service path without pulling in the real store-side page cache.
    #[derive(Default)]
    struct TestCache {
        pages: std::cell::RefCell<std::collections::BTreeMap<Lbn, (bool, bool)>>,
    }

    impl BlockCache for TestCache {
        fn probe(&self, lbn: Lbn) -> CacheProbe {
            let mut pages = self.pages.borrow_mut();
            match pages.get_mut(&lbn) {
                Some((prefetched, used)) => {
                    let first = *prefetched && !*used;
                    *used = true;
                    CacheProbe::Hit {
                        first_prefetch_use: first,
                    }
                }
                None => CacheProbe::Miss,
            }
        }

        fn plan_prefetch(&self, _ctx: &PrefetchContext<'_>) -> Vec<Lbn> {
            Vec::new()
        }

        fn admit(&self, lbn: Lbn, _nblocks: u64, prefetched: bool) {
            self.pages.borrow_mut().insert(lbn, (prefetched, false));
        }
    }

    /// A cache that misses every probe and plans no prefetch must leave
    /// the serviced batch — and thus every timing bit — unchanged.
    #[test]
    fn cold_cache_is_byte_identical_to_uncached() {
        let (vol, grid) = setup();
        let mm = MultiMapping::new(vol.geometry(), grid.clone()).unwrap();
        let exec = QueryExecutor::new(&vol, 0);
        for req in [
            QueryRequest::beam(&mm, &BoxRegion::beam(&grid, 1, &[3, 0, 2])),
            QueryRequest::range(&mm, &BoxRegion::new([0u64, 0, 0], [20u64, 5, 3])),
        ] {
            let (op, region) = (req.op(), req.region().clone());
            let bare = exec.execute(req).unwrap();
            vol.reset();
            let cache = TestCache::default();
            let cached = exec
                .execute(QueryRequest::new(op, &mm, &region).with_cache(&cache))
                .unwrap();
            vol.reset();
            assert_eq!(bare, cached);
            assert_eq!(bare.total_io_ms.to_bits(), cached.total_io_ms.to_bits());
        }
    }

    /// A fully resident query is served without any disk traffic but
    /// still delivers the exact uncached payload.
    #[test]
    fn warm_cache_serves_without_io() {
        let (vol, grid) = setup();
        let mm = MultiMapping::new(vol.geometry(), grid.clone()).unwrap();
        let exec = QueryExecutor::new(&vol, 0);
        let region = BoxRegion::beam(&grid, 1, &[3, 0, 2]);
        let cache = TestCache::default();
        let mut first_m = Metrics::new();
        let first = exec
            .execute(
                QueryRequest::beam(&mm, &region)
                    .with_cache(&cache)
                    .with_sink(&mut first_m),
            )
            .unwrap();
        let mut second_m = Metrics::new();
        let second = exec
            .execute(
                QueryRequest::beam(&mm, &region)
                    .with_cache(&cache)
                    .with_sink(&mut second_m),
            )
            .unwrap();
        assert_eq!(first_m.counter_value(Counter::PageCacheMiss), first.cells);
        assert_eq!(second_m.counter_value(Counter::PageCacheHit), second.cells);
        assert_eq!(second.cells, first.cells);
        assert_eq!(second.payload, first.payload);
        assert_eq!(second.blocks, 0);
        assert_eq!(second.requests, 0);
        assert_eq!(second.total_io_ms, 0.0);
    }

    #[test]
    fn coalesce_cells_multiblock() {
        let reqs = coalesce_cells(&[0, 4, 12], 4);
        assert_eq!(reqs, vec![Request::new(0, 8), Request::new(12, 4)]);
        assert!(coalesce_cells(&[], 4).is_empty());
    }

    #[test]
    fn oversized_region_is_a_typed_error() {
        let (vol, grid) = setup();
        let naive = NaiveMapping::new(grid, 0);
        let region = BoxRegion::new([0u64, 0, 0], [60u64, 0, 0]);
        let err = QueryExecutor::new(&vol, 0)
            .execute(QueryRequest::range(&naive, &region))
            .unwrap_err();
        assert!(
            matches!(err, QueryError::RegionOutsideGrid { .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("inside the dataset grid"));
        let err = QueryExecutor::new(&vol, 0)
            .execute(QueryRequest::beam(&naive, &region))
            .unwrap_err();
        assert!(matches!(err, QueryError::RegionOutsideGrid { .. }));
    }

    #[test]
    fn exec_options_builder_round_trips() {
        let opts = ExecOptions::builder()
            .beam(BeamPolicy::Natural)
            .range(RangeOrder::SortedSingles)
            .sptf_limit(128)
            .queue_depth(4)
            .translation_cache(false)
            .build();
        assert_eq!(opts.beam, BeamPolicy::Natural);
        assert_eq!(opts.range, RangeOrder::SortedSingles);
        assert_eq!(opts.sptf_limit, 128);
        assert_eq!(opts.queue_depth, 4);
        assert!(!opts.translation_cache);
        let defaults = ExecOptions::builder().build();
        assert_eq!(defaults.beam, ExecOptions::default().beam);
        assert_eq!(defaults.sptf_limit, ExecOptions::default().sptf_limit);
    }

    #[test]
    fn request_accessors_expose_inputs() {
        let (_vol, grid) = setup();
        let naive = NaiveMapping::new(grid.clone(), 0);
        let region = BoxRegion::beam(&grid, 0, &[0, 0, 0]);
        let req = QueryRequest::range(&naive, &region);
        assert_eq!(req.op(), QueryOp::Range);
        assert_eq!(req.region(), &region);
        assert_eq!(req.mapping().grid(), &grid);
    }

    #[test]
    fn faulted_query_payload_matches_fault_free_and_counters_reconcile() {
        use multimap_disksim::FaultPlan;
        use multimap_lvm::RecoveryConfig;

        let grid = GridSpec::new([60u64, 8, 6]);
        let naive = NaiveMapping::new(grid.clone(), 0);
        let region = BoxRegion::new([0u64, 0, 0], [20u64, 5, 3]);

        let clean_vol = LogicalVolume::new(profiles::small(), 1);
        let clean = QueryExecutor::new(&clean_vol, 0)
            .execute(QueryRequest::range(&naive, &region))
            .unwrap();
        assert_ne!(clean.payload, 0, "a non-empty query carries a payload");

        // Dim 0 varies fastest: LBN = x + 60y + 480z. Both bad blocks
        // lie inside the queried region (15 = cell [15,0,0], 500 =
        // cell [20,0,1]).
        let plan = FaultPlan::new(0xFA17)
            .with_media_errors([15, 500])
            .with_transients(0.10, 3.0);
        let vol =
            LogicalVolume::with_recovery(profiles::small(), 1, plan, RecoveryConfig::default())
                .unwrap();
        let exec = QueryExecutor::new(&vol, 0);
        let mut m = Metrics::new();
        let r = exec
            .execute(QueryRequest::range(&naive, &region).with_sink(&mut m))
            .unwrap();

        assert_eq!(r.payload, clean.payload, "faults must not change the data");
        assert_eq!((r.cells, r.blocks), (clean.cells, clean.blocks));
        assert!(
            r.total_io_ms > clean.total_io_ms,
            "recovery must cost time: {} vs {}",
            r.total_io_ms,
            clean.total_io_ms
        );

        // The sink's fault counters mirror the volume's recovery stats.
        let stats = vol.recovery_stats();
        assert!(stats.transients > 0, "seeded plan must inject transients");
        assert_eq!(stats.media_errors, 2);
        assert_eq!(m.counter_value(Counter::TransientFault), stats.transients);
        assert_eq!(m.counter_value(Counter::RetryAttempt), stats.retries);
        assert_eq!(m.counter_value(Counter::MediaFault), stats.media_errors);
        assert_eq!(m.counter_value(Counter::BadBlockRemap), stats.remaps);
        // And the injector agrees with what the recovery path observed.
        let injected = vol.injected_counts();
        assert_eq!(injected.transients, stats.transients);
        assert_eq!(injected.media_errors, stats.media_errors);
    }

    #[test]
    fn degraded_cells_fall_back_to_scheduled_seeks() {
        use multimap_disksim::FaultPlan;
        use multimap_lvm::RecoveryConfig;

        let grid = GridSpec::new([60u64, 8, 6]);
        let naive = NaiveMapping::new(grid.clone(), 0);
        let clean_vol = LogicalVolume::new(profiles::small(), 1);

        // Only hard errors: the first query remaps LBN 130, after which
        // the executor must split it out of later primary batches.
        let plan = FaultPlan::new(1).with_media_error(130);
        let vol =
            LogicalVolume::with_recovery(profiles::small(), 1, plan, RecoveryConfig::default())
                .unwrap();
        let exec = QueryExecutor::new(&vol, 0);
        let warm = BoxRegion::new([0u64, 0, 0], [10u64, 7, 5]);
        exec.execute(QueryRequest::range(&naive, &warm)).unwrap();
        assert_eq!(vol.remap_count(0).unwrap(), 1);
        assert!(vol.is_degraded_range(0, 130, 1).unwrap());

        // A beam crossing the remapped cell (LBN = x + 60y + 480z, so
        // the dim-0 beam at y=2, z=0 covers 120..=179 ∋ 130) still
        // returns the exact fault-free payload, via the degraded
        // AscendingLbn tail batch.
        let beam = BoxRegion::beam(&grid, 0, &[0, 2, 0]);
        let clean = QueryExecutor::new(&clean_vol, 0)
            .execute(QueryRequest::beam(&naive, &beam))
            .unwrap();
        let r = exec.execute(QueryRequest::beam(&naive, &beam)).unwrap();
        assert_eq!(r.payload, clean.payload);
        assert_eq!(r.cells, clean.cells);
    }

    /// The static-vs-dynamic dispatch pin at the query level: a query on
    /// a concrete `Volume<DiskSim>` and on a registry-built
    /// `Volume<Box<dyn DeviceModel>>` is bit-identical.
    #[test]
    fn registry_disk_volume_matches_logical_volume_executor() {
        let geom = profiles::small();
        let grid = GridSpec::new([60u64, 8, 6]);
        let lv = LogicalVolume::new(geom.clone(), 1);
        let mm = MultiMapping::new(&geom, grid.clone()).unwrap();
        let dv = multimap_lvm::backend_volume("disk", &geom, 1).unwrap();
        for (op, region) in [
            (QueryOp::Beam, BoxRegion::beam(&grid, 1, &[3, 0, 2])),
            (QueryOp::Range, BoxRegion::new([0u64, 0, 0], [20u64, 5, 3])),
        ] {
            lv.reset();
            let mut m_concrete = Metrics::new();
            let concrete = QueryExecutor::new(&lv, 0)
                .execute(QueryRequest::new(op, &mm, &region).with_sink(&mut m_concrete))
                .unwrap();
            dv.reset();
            let mut m_boxed = Metrics::new();
            let boxed = QueryExecutor::new(&dv, 0)
                .execute(QueryRequest::new(op, &mm, &region).with_sink(&mut m_boxed))
                .unwrap();
            assert_eq!(concrete, boxed);
            assert_eq!(concrete.total_io_ms.to_bits(), boxed.total_io_ms.to_bits());
            assert_eq!(m_concrete.phase_sum_ms().to_bits(), m_boxed.phase_sum_ms().to_bits());
        }
    }

    /// Every registry backend serves the same query with the same
    /// payload; only timing differs.
    #[test]
    fn payload_is_backend_independent() {
        let geom = profiles::small();
        let grid = GridSpec::new([60u64, 8, 6]);
        let mm = MultiMapping::new(&geom, grid.clone()).unwrap();
        let region = BoxRegion::beam(&grid, 2, &[5, 3, 0]);
        let mut results = Vec::new();
        for name in multimap_disksim::BACKEND_NAMES {
            let v = multimap_lvm::backend_volume(name, &geom, 1).unwrap();
            let r = QueryExecutor::new(&v, 0)
                .execute(QueryRequest::beam(&mm, &region))
                .unwrap();
            assert!(r.total_io_ms > 0.0, "{name}");
            results.push(r);
        }
        assert!(results.windows(2).all(|w| w[0].payload == w[1].payload));
        assert!(results.windows(2).all(|w| w[0].cells == w[1].cells));
    }

    /// A sink on a backend query records the backend's own transition
    /// classes and reconciles request counts; on event-sum backends
    /// (disk, IMR reads) phase sums still equal the batch total.
    #[test]
    fn sink_reconciles_on_every_backend() {
        let geom = profiles::small();
        let grid = GridSpec::new([60u64, 8, 6]);
        let mm = MultiMapping::new(&geom, grid.clone()).unwrap();
        let region = BoxRegion::beam(&grid, 2, &[5, 3, 0]);
        for name in multimap_disksim::BACKEND_NAMES {
            let v = multimap_lvm::backend_volume(name, &geom, 1).unwrap();
            let mut m = Metrics::new();
            let r = QueryExecutor::new(&v, 0)
                .execute(QueryRequest::beam(&mm, &region).with_sink(&mut m))
                .unwrap();
            assert_eq!(m.counter_value(Counter::RequestsServiced), r.requests, "{name}");
            if name == "ssd" {
                // Per-channel service overlaps, so phase sums exceed
                // the makespan.
                assert!(m.phase_sum_ms() >= r.total_io_ms - 1e-9);
            } else {
                assert!(
                    (m.phase_sum_ms() - r.total_io_ms).abs() < 1e-9,
                    "{name}: phase sums {} vs total {}",
                    m.phase_sum_ms(),
                    r.total_io_ms
                );
                assert!(m.counter_value(Counter::AdjacencyHop) > 0, "{name}");
            }
        }
    }

    /// Observer events classify through the backend, not through
    /// rotating-disk geometry.
    #[test]
    fn events_classify_through_backend() {
        let geom = profiles::small();
        let grid = GridSpec::new([60u64, 8, 6]);
        let naive = NaiveMapping::new(grid.clone(), 0);
        let region = BoxRegion::new([0u64, 0, 0], [59u64, 1, 0]);
        let v = multimap_lvm::backend_volume("ssd", &geom, 1).unwrap();
        let mut events = Vec::new();
        let mut keep = |e: ServiceEvent| events.push(e);
        QueryExecutor::new(&v, 0)
            .execute(QueryRequest::range(&naive, &region).with_observer(&mut keep))
            .unwrap();
        assert!(!events.is_empty());
        let classes = v.classify_events(0, &events).unwrap();
        assert_eq!(classes.len(), events.len());
    }

    /// The page cache works on every backend: a warm re-run delivers the
    /// same payload with no device I/O.
    #[test]
    fn cache_serves_every_backend() {
        let geom = profiles::small();
        let grid = GridSpec::new([60u64, 8, 6]);
        let naive = NaiveMapping::new(grid.clone(), 0);
        let region = BoxRegion::beam(&grid, 1, &[3, 0, 2]);
        for name in multimap_disksim::BACKEND_NAMES {
            let v = multimap_lvm::backend_volume(name, &geom, 1).unwrap();
            let exec = QueryExecutor::new(&v, 0);
            let cache = TestCache::default();
            let cold = exec
                .execute(QueryRequest::beam(&naive, &region).with_cache(&cache))
                .unwrap();
            let warm = exec
                .execute(QueryRequest::beam(&naive, &region).with_cache(&cache))
                .unwrap();
            assert!(cold.requests > 0, "{name}");
            assert_eq!(warm.payload, cold.payload, "{name}");
            assert_eq!(warm.requests, 0, "{name}");
        }
    }

    /// Out-of-grid regions fail identically on every backend.
    #[test]
    fn oversized_region_is_a_typed_error_on_imr() {
        let grid = GridSpec::new([60u64, 8, 6]);
        let naive = NaiveMapping::new(grid, 0);
        let region = BoxRegion::new([0u64, 0, 0], [60u64, 0, 0]);
        let v = multimap_lvm::backend_volume("imr", &profiles::small(), 1).unwrap();
        let err = QueryExecutor::new(&v, 0)
            .execute(QueryRequest::range(&naive, &region))
            .unwrap_err();
        assert!(matches!(err, QueryError::RegionOutsideGrid { .. }));
    }
}
