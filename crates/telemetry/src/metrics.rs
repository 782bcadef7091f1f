//! The sink trait, counters, phases, spans and the default accumulator.

use crate::hist::Histogram;
use crate::json::{obj, Value};

/// Minimum lookups a hit/miss pair needs before its rate is reported:
/// below this, [`Metrics::hit_rate_floored`] answers `None` and reports
/// print `n/a` — a rate over a few dozen lookups is start-up transient,
/// not steady state.
pub const HIT_RATE_FLOOR: u64 = 256;

/// Service-time components, as charged by the disk simulator.
///
/// The simulator's `RequestTiming` folds seek, settle and head-switch
/// time into one positioning figure; telemetry splits it back out by
/// classifying each transition against the geometry's settle plateau
/// (`ServiceEvent::transition` in `multimap-disksim`): positioning that
/// fits under the plateau is an adjacency hop and lands in
/// [`Phase::Settle`], anything longer is a real [`Phase::Seek`]. The
/// phase sums add up *exactly* to the observed total service time —
/// the conformance oracle checks this. Requests that hit an injected
/// fault additionally charge their retry/remap time to
/// [`Phase::Recovery`]; fault-free runs never record that phase, so
/// their metrics stay bit-identical to builds without fault support.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Command/controller overhead.
    Overhead,
    /// Positioning beyond the settle plateau (a real arm movement).
    Seek,
    /// Positioning within the settle plateau (adjacency hops and head
    /// switches — the semi-sequential currency of the paper).
    Settle,
    /// Rotational latency.
    Rotation,
    /// Media transfer.
    Transfer,
    /// Fault-recovery time: retry backoff, timeout burn and the extra
    /// positioning paid by remapped (degraded) segments.
    Recovery,
    /// Cache write-back flush time — a *memo* phase: the flush batch
    /// total recorded by the page cache's write-back batcher on top of
    /// the per-event decomposition (which already lands in the phases
    /// above). Excluded from [`Metrics::phase_sum_ms`] so the
    /// phase-sum = total-service-time reconciliation stays exact; it
    /// labels how much of that total was write-back traffic.
    Writeback,
}

impl Phase {
    /// Every phase, in reporting order.
    pub const ALL: [Phase; 7] = [
        Phase::Overhead,
        Phase::Seek,
        Phase::Settle,
        Phase::Rotation,
        Phase::Transfer,
        Phase::Recovery,
        Phase::Writeback,
    ];

    /// Stable snake_case name (JSON field).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Overhead => "overhead",
            Phase::Seek => "seek",
            Phase::Settle => "settle",
            Phase::Rotation => "rotation",
            Phase::Transfer => "transfer",
            Phase::Recovery => "recovery",
            Phase::Writeback => "writeback",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Overhead => 0,
            Phase::Seek => 1,
            Phase::Settle => 2,
            Phase::Rotation => 3,
            Phase::Transfer => 4,
            Phase::Recovery => 5,
            Phase::Writeback => 6,
        }
    }

    /// Whether this phase is a memo line (an overlay labelling part of
    /// the total) rather than a disjoint component of service time.
    /// Memo phases are excluded from [`Metrics::phase_sum_ms`].
    pub fn is_memo(self) -> bool {
        matches!(self, Phase::Writeback)
    }
}

/// Event counters on the service path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Counter {
    /// `SeekMemo` positioning lookups answered from the per-round memo.
    SeekMemoHit,
    /// `SeekMemo` positioning lookups that ran the seek curve.
    SeekMemoMiss,
    /// Region translations served from the shared flat-table cache.
    TranslationCacheHit,
    /// Region translations that built (or bypassed) a flat table.
    TranslationCacheMiss,
    /// Queued-SPTF serves that evicted a request from a full window to
    /// admit the next pending one (SCSI TCQ window pressure).
    SptfWindowEviction,
    /// Transitions that settled within the adjacency plateau
    /// (semi-sequential hops).
    AdjacencyHop,
    /// Transitions that paid a real seek.
    SeekTransition,
    /// Requests that continued the previous read-ahead stream.
    PrefetchHit,
    /// Requests serviced.
    RequestsServiced,
    /// Injected transient (timeout) faults observed on the service path.
    TransientFault,
    /// Injected hard media errors observed on the service path.
    MediaFault,
    /// Injected slow-read tail-latency events observed.
    SlowRead,
    /// Retries issued by the recovery path (one per transient, with the
    /// bounded-retry policy — the conformance sweep checks equality).
    RetryAttempt,
    /// Hard-failed blocks remapped into a track's spare region.
    BadBlockRemap,
    /// Rotational-band buckets scanned by the incremental SPTF
    /// selector; zero when batches ran on the linear reference scan.
    SptfBucketScan,
    /// Candidate service-time estimates evaluated during SPTF selection
    /// (reference scan: every pending request per serve; incremental
    /// selector: only candidates its pruning bounds cannot exclude).
    SptfCandidateExamined,
    /// Incremental selector structure repairs (admissions + removals).
    SptfSelectorRepair,
    /// Page-cache probes answered from a resident page (no disk I/O).
    PageCacheHit,
    /// Page-cache probes that fell through to a demand read.
    PageCacheMiss,
    /// Pages fetched speculatively by the cache's prefetcher (batched
    /// with the demand reads, riding the same scheduler).
    CachePrefetchIssued,
    /// First hit on a page the prefetcher brought in — a prefetch that
    /// paid off. Never exceeds [`Counter::CachePrefetchIssued`].
    CachePrefetchUsed,
    /// Dirty pages written out by the write-back batcher.
    WritebackFlush,
    /// Neighbor-track rewrites an IMR backend performed to preserve
    /// interlaced top tracks across bottom-track writes (read-modify-
    /// write amplification observed by the device store's flusher).
    NeighborRewrite,
}

impl Counter {
    /// Every counter, in reporting order.
    pub const ALL: [Counter; 23] = [
        Counter::SeekMemoHit,
        Counter::SeekMemoMiss,
        Counter::TranslationCacheHit,
        Counter::TranslationCacheMiss,
        Counter::SptfWindowEviction,
        Counter::AdjacencyHop,
        Counter::SeekTransition,
        Counter::PrefetchHit,
        Counter::RequestsServiced,
        Counter::TransientFault,
        Counter::MediaFault,
        Counter::SlowRead,
        Counter::RetryAttempt,
        Counter::BadBlockRemap,
        Counter::SptfBucketScan,
        Counter::SptfCandidateExamined,
        Counter::SptfSelectorRepair,
        Counter::PageCacheHit,
        Counter::PageCacheMiss,
        Counter::CachePrefetchIssued,
        Counter::CachePrefetchUsed,
        Counter::WritebackFlush,
        Counter::NeighborRewrite,
    ];

    /// Stable snake_case name (JSON field).
    pub fn name(self) -> &'static str {
        match self {
            Counter::SeekMemoHit => "seek_memo_hit",
            Counter::SeekMemoMiss => "seek_memo_miss",
            Counter::TranslationCacheHit => "translation_cache_hit",
            Counter::TranslationCacheMiss => "translation_cache_miss",
            Counter::SptfWindowEviction => "sptf_window_eviction",
            Counter::AdjacencyHop => "adjacency_hop",
            Counter::SeekTransition => "seek_transition",
            Counter::PrefetchHit => "prefetch_hit",
            Counter::RequestsServiced => "requests_serviced",
            Counter::TransientFault => "transient_fault",
            Counter::MediaFault => "media_fault",
            Counter::SlowRead => "slow_read",
            Counter::RetryAttempt => "retry_attempt",
            Counter::BadBlockRemap => "bad_block_remap",
            Counter::SptfBucketScan => "sptf_bucket_scan",
            Counter::SptfCandidateExamined => "sptf_candidate_examined",
            Counter::SptfSelectorRepair => "sptf_selector_repair",
            Counter::PageCacheHit => "page_cache_hit",
            Counter::PageCacheMiss => "page_cache_miss",
            Counter::CachePrefetchIssued => "cache_prefetch_issued",
            Counter::CachePrefetchUsed => "cache_prefetch_used",
            Counter::WritebackFlush => "writeback_flush",
            Counter::NeighborRewrite => "neighbor_rewrite",
        }
    }

    fn index(self) -> usize {
        match self {
            Counter::SeekMemoHit => 0,
            Counter::SeekMemoMiss => 1,
            Counter::TranslationCacheHit => 2,
            Counter::TranslationCacheMiss => 3,
            Counter::SptfWindowEviction => 4,
            Counter::AdjacencyHop => 5,
            Counter::SeekTransition => 6,
            Counter::PrefetchHit => 7,
            Counter::RequestsServiced => 8,
            Counter::TransientFault => 9,
            Counter::MediaFault => 10,
            Counter::SlowRead => 11,
            Counter::RetryAttempt => 12,
            Counter::BadBlockRemap => 13,
            Counter::SptfBucketScan => 14,
            Counter::SptfCandidateExamined => 15,
            Counter::SptfSelectorRepair => 16,
            Counter::PageCacheHit => 17,
            Counter::PageCacheMiss => 18,
            Counter::CachePrefetchIssued => 19,
            Counter::CachePrefetchUsed => 20,
            Counter::WritebackFlush => 21,
            Counter::NeighborRewrite => 22,
        }
    }
}

/// Executor phases timed span-style (wall clock, *not* simulated time).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Span {
    /// Fit checks and policy resolution.
    Plan,
    /// Cell→LBN translation (direct or via the flat-table cache).
    Translate,
    /// Request building, sorting and coalescing.
    Schedule,
    /// The simulated service call itself.
    Service,
}

impl Span {
    /// Every span, in reporting order.
    pub const ALL: [Span; 4] = [Span::Plan, Span::Translate, Span::Schedule, Span::Service];

    /// Stable snake_case name (JSON field).
    pub fn name(self) -> &'static str {
        match self {
            Span::Plan => "plan",
            Span::Translate => "translate",
            Span::Schedule => "schedule",
            Span::Service => "service",
        }
    }

    fn index(self) -> usize {
        match self {
            Span::Plan => 0,
            Span::Translate => 1,
            Span::Schedule => 2,
            Span::Service => 3,
        }
    }
}

/// Accumulated wall-clock time of one span kind.
///
/// Spans measure the *host's* time, so unlike counters and histograms
/// they are not deterministic across runs; they are reported for humans
/// and excluded from determinism assertions ([`Metrics::identical`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanStat {
    /// Number of spans recorded.
    pub count: u64,
    /// Total wall-clock milliseconds across them.
    pub wall_ms: f64,
}

/// The interface the query path records into.
///
/// Implementations must be cheap: the executor calls these once per
/// serviced request. The default implementation is [`Metrics`]; use
/// [`NullSink`] where an API requires a sink but no one is listening.
pub trait MetricsSink {
    /// Add `delta` to a counter.
    fn counter(&mut self, counter: Counter, delta: u64);
    /// Record one service-time component of one request.
    fn phase(&mut self, phase: Phase, ms: f64);
    /// Record one request's total service time.
    fn service_time(&mut self, ms: f64);
    /// Record one executor phase's wall-clock duration.
    fn span(&mut self, span: Span, wall_ms: f64);
}

/// A sink that drops everything.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl MetricsSink for NullSink {
    fn counter(&mut self, _counter: Counter, _delta: u64) {}
    fn phase(&mut self, _phase: Phase, _ms: f64) {}
    fn service_time(&mut self, _ms: f64) {}
    fn span(&mut self, _span: Span, _wall_ms: f64) {}
}

/// The default sink: a plain, private accumulator.
///
/// Each unit of work (a query, a figure cell) owns its own `Metrics`,
/// records into it without any synchronisation, and hands it upward to
/// be merged — under `multimap_engine::sweep`, in submission order via
/// [`Metrics::merge_ordered`], which makes the merged f64 sums (and
/// thus the whole object) identical at any thread count.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    counters: [u64; Counter::ALL.len()],
    phases: [Histogram; Phase::ALL.len()],
    service: Histogram,
    spans: [SpanStat; Span::ALL.len()],
}

impl Metrics {
    /// An empty accumulator.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Current value of one counter.
    pub fn counter_value(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// Histogram of one service-time component.
    pub fn phase_hist(&self, phase: Phase) -> &Histogram {
        &self.phases[phase.index()]
    }

    /// Histogram of per-request total service times.
    pub fn service_hist(&self) -> &Histogram {
        &self.service
    }

    /// Accumulated wall-clock time of one span kind.
    pub fn span_stat(&self, span: Span) -> SpanStat {
        self.spans[span.index()]
    }

    /// Sum of all *component* phase-histogram sums — by construction
    /// equal to the total observed service time (the oracle cross-checks
    /// this). Memo phases ([`Phase::is_memo`], currently only
    /// [`Phase::Writeback`]) overlay the same time a second way and are
    /// excluded to keep the reconciliation exact.
    pub fn phase_sum_ms(&self) -> f64 {
        Phase::ALL
            .iter()
            .filter(|p| !p.is_memo())
            .map(|&p| self.phase_hist(p).sum_ms())
            .sum()
    }

    /// Hit rate of a hit/miss counter pair, or `None` with no lookups.
    pub fn hit_rate(&self, hit: Counter, miss: Counter) -> Option<f64> {
        let h = self.counter_value(hit);
        let m = self.counter_value(miss);
        if h + m == 0 {
            None
        } else {
            Some(h as f64 / (h + m) as f64)
        }
    }

    /// Fraction of prefetched pages that were hit before eviction
    /// (`cache_prefetch_used / cache_prefetch_issued`), or `None` when
    /// no prefetches were issued.
    pub fn prefetch_efficiency(&self) -> Option<f64> {
        let issued = self.counter_value(Counter::CachePrefetchIssued);
        if issued == 0 {
            None
        } else {
            Some(self.counter_value(Counter::CachePrefetchUsed) as f64 / issued as f64)
        }
    }

    /// Like [`Metrics::hit_rate`] but `None` when the pair saw fewer
    /// than [`HIT_RATE_FLOOR`] total lookups: a rate computed over a
    /// handful of lookups (64 hits / 0 misses at quick bench scale
    /// reads as a flawless 1.0000) says nothing about steady state, so
    /// reports render it as `n/a` instead.
    pub fn hit_rate_floored(&self, hit: Counter, miss: Counter) -> Option<f64> {
        if self.counter_value(hit) + self.counter_value(miss) < HIT_RATE_FLOOR {
            None
        } else {
            self.hit_rate(hit, miss)
        }
    }

    /// Fold another accumulator into this one. Call in a deterministic
    /// order (submission order under `sweep`) to keep sums bit-stable.
    pub fn merge(&mut self, other: &Metrics) {
        for (c, o) in self.counters.iter_mut().zip(other.counters.iter()) {
            *c += o;
        }
        for (h, o) in self.phases.iter_mut().zip(other.phases.iter()) {
            h.merge(o);
        }
        self.service.merge(&other.service);
        for (s, o) in self.spans.iter_mut().zip(other.spans.iter()) {
            s.count += o.count;
            s.wall_ms += o.wall_ms;
        }
    }

    /// Merge an iterator of accumulators in iteration order — the
    /// deterministic reduction for `multimap_engine::sweep` output.
    pub fn merge_ordered<'a>(parts: impl IntoIterator<Item = &'a Metrics>) -> Metrics {
        let mut out = Metrics::new();
        for p in parts {
            out.merge(p);
        }
        out
    }

    /// Whether two accumulators carry bit-identical *deterministic*
    /// observations: counters, phase histograms and the service
    /// histogram. Span wall-clock times are deliberately excluded —
    /// they measure the host, not the simulation.
    pub fn identical(&self, other: &Metrics) -> bool {
        self.counters == other.counters
            && self
                .phases
                .iter()
                .zip(other.phases.iter())
                .all(|(a, b)| a.identical(b))
            && self.service.identical(&other.service)
    }

    /// The accumulator as a JSON object (rates to 4 decimals, histogram
    /// figures to 6, span wall times to 3). A rate with no lookups (or,
    /// for the translation cache, too few: [`Metrics::hit_rate_floored`])
    /// and an empty histogram's mean and max are `null`, not a fake 0.0.
    pub fn to_json(&self) -> Value {
        let hist = |h: &Histogram| {
            let measured = |x: f64| Value::fixed((h.count() > 0).then_some(x), 6);
            obj([
                ("count", h.count().into()),
                ("sum", Value::fixed(h.sum_ms(), 6)),
                ("mean", measured(h.mean_ms())),
                ("max", measured(h.max_ms())),
                ("buckets", Value::Arr(h.counts().iter().map(|&c| c.into()).collect())),
            ])
        };
        obj([
            (
                "counters",
                obj(Counter::ALL.iter().map(|&c| (c.name(), self.counter_value(c).into()))),
            ),
            (
                "hit_rates",
                obj([
                    ("seek_memo", self.hit_rate(Counter::SeekMemoHit, Counter::SeekMemoMiss)),
                    (
                        "translation_cache",
                        self.hit_rate_floored(
                            Counter::TranslationCacheHit,
                            Counter::TranslationCacheMiss,
                        ),
                    ),
                    ("page_cache", self.hit_rate(Counter::PageCacheHit, Counter::PageCacheMiss)),
                    ("cache_prefetch", self.prefetch_efficiency()),
                ]
                .map(|(name, rate)| (name, Value::fixed(rate, 4)))),
            ),
            (
                "phases_ms",
                obj(Phase::ALL.iter().map(|&p| (p.name(), hist(self.phase_hist(p))))),
            ),
            ("service_ms", hist(&self.service)),
            (
                "spans_wall_ms",
                obj(Span::ALL.iter().map(|&s| {
                    let st = self.span_stat(s);
                    let stat = obj([
                        ("count", st.count.into()),
                        ("wall_ms", Value::fixed(st.wall_ms, 3)),
                    ]);
                    (s.name(), stat)
                })),
            ),
        ])
    }
}

impl MetricsSink for Metrics {
    fn counter(&mut self, counter: Counter, delta: u64) {
        self.counters[counter.index()] += delta;
    }

    fn phase(&mut self, phase: Phase, ms: f64) {
        self.phases[phase.index()].record(ms);
    }

    fn service_time(&mut self, ms: f64) {
        self.service.record(ms);
    }

    fn span(&mut self, span: Span, wall_ms: f64) {
        let s = &mut self.spans[span.index()];
        s.count += 1;
        s.wall_ms += wall_ms;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enum_indices_match_reporting_order() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "{c:?}");
        }
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i, "{p:?}");
        }
        for (i, s) in Span::ALL.iter().enumerate() {
            assert_eq!(s.index(), i, "{s:?}");
        }
    }

    #[test]
    fn merge_ordered_equals_serial_recording() {
        let record = |m: &mut Metrics, base: f64| {
            m.counter(Counter::AdjacencyHop, 2);
            m.phase(Phase::Settle, base);
            m.phase(Phase::Transfer, base / 10.0);
            m.service_time(base + base / 10.0);
            m.span(Span::Service, 0.5);
        };
        let mut serial = Metrics::new();
        record(&mut serial, 1.1);
        record(&mut serial, 0.07);

        let mut a = Metrics::new();
        record(&mut a, 1.1);
        let mut b = Metrics::new();
        record(&mut b, 0.07);
        let merged = Metrics::merge_ordered([&a, &b]);

        assert!(merged.identical(&serial));
        assert_eq!(merged.counter_value(Counter::AdjacencyHop), 4);
        assert_eq!(merged.span_stat(Span::Service).count, 2);
        assert!((merged.phase_sum_ms() - serial.phase_sum_ms()).abs() < 1e-12);
    }

    #[test]
    fn hit_rate_handles_empty_and_mixed() {
        let mut m = Metrics::new();
        assert!(m
            .hit_rate(Counter::SeekMemoHit, Counter::SeekMemoMiss)
            .is_none());
        m.counter(Counter::SeekMemoHit, 3);
        m.counter(Counter::SeekMemoMiss, 1);
        let r = m
            .hit_rate(Counter::SeekMemoHit, Counter::SeekMemoMiss)
            .unwrap();
        assert!((r - 0.75).abs() < 1e-12);
    }

    #[test]
    fn json_has_stable_fields() {
        let mut m = Metrics::new();
        m.counter(Counter::RequestsServiced, 7);
        m.phase(Phase::Seek, 3.2);
        m.service_time(3.2);
        let j = m.to_json();
        assert_eq!(j.at("counters.requests_serviced"), Some(&Value::Num(7.0)));
        assert!(j.at("phases_ms.seek").is_some() && j.at("spans_wall_ms").is_some());
        assert_eq!(j.at("hit_rates.translation_cache"), Some(&Value::Null));
        // The rendered text is valid JSON that reads back to the same tree.
        assert_eq!(crate::json::parse(&j.to_pretty()), Ok(j));
    }

    #[test]
    fn empty_histograms_render_null_mean_and_max() {
        let mut m = Metrics::new();
        m.phase(Phase::Seek, 3.2);
        let j = m.to_json();
        // The recorded phase carries real measurements...
        assert_eq!(j.at("phases_ms.seek.count"), Some(&Value::Num(1.0)));
        for stat in ["sum", "mean", "max"] {
            assert_eq!(j.at(&format!("phases_ms.seek.{stat}")), Some(&Value::Num(3.2)));
        }
        // ...while untouched histograms report n/a, not a fake 0.0
        // reading (the hit_rate_floored convention).
        for h in ["phases_ms.rotation", "service_ms"] {
            let stat = |s: &str| j.at(&format!("{h}.{s}")).cloned();
            assert_eq!([stat("count"), stat("sum")], [Some(Value::Num(0.0)), Some(Value::Num(0.0))]);
            assert_eq!([stat("mean"), stat("max")], [Some(Value::Null), Some(Value::Null)]);
        }
    }

    #[test]
    fn hit_rate_floor_suppresses_low_volume_rates() {
        let mut m = Metrics::new();
        m.counter(Counter::TranslationCacheHit, 64);
        // 64 hits / 0 misses would read as a meaningless 1.0000.
        assert!(m
            .hit_rate_floored(Counter::TranslationCacheHit, Counter::TranslationCacheMiss)
            .is_none());
        assert_eq!(m.to_json().at("hit_rates.translation_cache"), Some(&Value::Null));
        m.counter(Counter::TranslationCacheMiss, HIT_RATE_FLOOR);
        let r = m
            .hit_rate_floored(Counter::TranslationCacheHit, Counter::TranslationCacheMiss)
            .unwrap();
        assert!((r - 64.0 / (64.0 + HIT_RATE_FLOOR as f64)).abs() < 1e-12);
    }

    #[test]
    fn writeback_is_a_memo_phase_outside_the_component_sum() {
        let mut m = Metrics::new();
        m.phase(Phase::Seek, 3.0);
        m.phase(Phase::Transfer, 1.0);
        m.phase(Phase::Writeback, 4.0);
        m.service_time(4.0);
        // The memo overlay does not perturb phase-sum reconciliation.
        assert!((m.phase_sum_ms() - 4.0).abs() < 1e-12);
        assert!((m.phase_hist(Phase::Writeback).sum_ms() - 4.0).abs() < 1e-12);
        assert!(Phase::Writeback.is_memo());
        assert_eq!(Phase::ALL.iter().filter(|p| p.is_memo()).count(), 1);
    }

    #[test]
    fn page_cache_rates_render_in_json() {
        let mut m = Metrics::new();
        let at = |m: &Metrics, path| m.to_json().at(path).cloned();
        assert_eq!(at(&m, "hit_rates.page_cache"), Some(Value::Null));
        assert_eq!(at(&m, "hit_rates.cache_prefetch"), Some(Value::Null));
        m.counter(Counter::PageCacheHit, 3);
        m.counter(Counter::PageCacheMiss, 1);
        m.counter(Counter::CachePrefetchIssued, 4);
        m.counter(Counter::CachePrefetchUsed, 1);
        assert_eq!(at(&m, "hit_rates.page_cache"), Some(Value::Num(0.75)));
        assert_eq!(at(&m, "hit_rates.cache_prefetch"), Some(Value::Num(0.25)));
        assert_eq!(at(&m, "counters.writeback_flush"), Some(Value::Num(0.0)));
        assert!((m.prefetch_efficiency().unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn null_sink_discards_everything() {
        let mut n = NullSink;
        n.counter(Counter::PrefetchHit, 5);
        n.phase(Phase::Rotation, 1.0);
        n.service_time(1.0);
        n.span(Span::Plan, 1.0);
    }
}
