//! Fault recovery above the disk: bounded retry with deterministic
//! backoff for transient timeouts, and bad-block remapping into a
//! per-track spare region for hard media errors.
//!
//! The FAST'05 adjacency model leaves fault handling to the storage
//! manager above the `GET_ADJACENT` interface, and this module is that
//! storage manager's recovery path. The division of labour:
//!
//! * the **disk** ([`multimap_disksim::FaultPlan`]) injects faults and
//!   reports them as typed errors, charging the wall-clock they burn;
//! * the **[`Recovering`] decorator** wraps that disk as a
//!   [`DeviceModel`] of its own: it retries transients (with a linearly
//!   growing, deterministic backoff) and remaps hard-failed blocks into
//!   spare sectors reserved at the tail of the failing block's own
//!   track, keeping track locality but giving up the adjacency
//!   guarantee for that block;
//! * the **query executor** asks [`DeviceModel::is_remapped`] to route
//!   cells that lost adjacency through scheduled seeks instead of
//!   semi-sequential hops.
//!
//! All recovery time is reported in the per-request
//! [`FaultOutcome::recovery_ms`], so an event log still satisfies
//! `after.time_ms - before.time_ms == timing.total_ms() + recovery_ms`.

use std::collections::BTreeMap;

use multimap_disksim::{
    service_batch_serving, AccessKind, AccessStats, BatchTiming, DeviceModel, Discipline,
    DiskError, DiskGeometry, DiskSim, FaultCounts, FaultOutcome, Lbn, Request, RequestTiming,
    ServiceEvent, Transition,
};

/// Tunables for the [`Recovering`] decorator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryConfig {
    /// Retries allowed per physical segment before
    /// [`DiskError::RetriesExhausted`]. Must be at least the fault plan's
    /// consecutive-transient cap for recovery to be guaranteed.
    pub max_retries: u32,
    /// Backoff base: the `k`-th retry of a segment idles the disk for
    /// `k * backoff_ms` first (deterministic, so replays are exact).
    pub backoff_ms: f64,
    /// Spare sectors reserved at the tail of every track for bad-block
    /// remapping; [`DiskError::SpareExhausted`] when a track runs out.
    pub spare_per_track: u32,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            max_retries: 4,
            backoff_ms: 1.0,
            spare_per_track: 4,
        }
    }
}

/// Cumulative recovery actions taken by one device (or a volume of them).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Transient timeouts absorbed.
    pub transients: u64,
    /// Retries issued (exactly one per absorbed transient).
    pub retries: u64,
    /// Media errors encountered.
    pub media_errors: u64,
    /// Bad blocks remapped into spares (one per media error, while
    /// spares last).
    pub remaps: u64,
    /// Slow reads absorbed.
    pub slow_reads: u64,
}

impl RecoveryStats {
    /// Accumulate another disk's stats.
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.transients += other.transients;
        self.retries += other.retries;
        self.media_errors += other.media_errors;
        self.remaps += other.remaps;
        self.slow_reads += other.slow_reads;
    }
}

/// Logical-to-physical indirection for remapped bad blocks.
///
/// Identity everywhere except blocks that hard-failed: those point into
/// the spare region at the tail of their own track (allocated last LBN
/// first). A remapped block keeps track locality but loses the
/// adjacency/sequential guarantee — the executor treats any cell
/// touching one as degraded.
#[derive(Clone, Debug, Default)]
pub struct RemapTable {
    forward: BTreeMap<Lbn, Lbn>,
    reverse: BTreeMap<Lbn, Lbn>,
    /// Spares handed out per track, keyed by the track's first LBN.
    used: BTreeMap<Lbn, u32>,
}

impl RemapTable {
    /// Number of remapped blocks.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// Whether no block has been remapped.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// Physical address of logical block `lbn` (identity unless
    /// remapped).
    #[inline]
    pub fn physical(&self, lbn: Lbn) -> Lbn {
        self.forward.get(&lbn).copied().unwrap_or(lbn)
    }

    /// Whether any logical block in `[lbn, lbn + nblocks)` is remapped
    /// (and has therefore lost its adjacency guarantee).
    pub fn overlaps(&self, lbn: Lbn, nblocks: u64) -> bool {
        self.forward.range(lbn..lbn + nblocks).next().is_some()
    }

    /// The remapped logical blocks, ascending.
    pub fn remapped(&self) -> impl Iterator<Item = (Lbn, Lbn)> + '_ {
        self.forward.iter().map(|(&l, &p)| (l, p))
    }

    /// The longest physically-contiguous prefix of the logical span
    /// `[start, start + remaining)`, as one physical request.
    fn first_segment(&self, start: Lbn, remaining: u64) -> Request {
        let phys = self.physical(start);
        let mut len = 1u64;
        while len < remaining && self.physical(start + len) == phys + len {
            len += 1;
        }
        Request::new(phys, len)
    }

    /// Remap the failing physical block `bad` to a fresh spare on the
    /// owning logical block's track. If `bad` is itself a spare that
    /// went bad, the original logical block is re-remapped.
    fn remap(
        &mut self,
        geom: &DiskGeometry,
        cfg: &RecoveryConfig,
        bad: Lbn,
    ) -> Result<Lbn, DiskError> {
        let logical = self.reverse.get(&bad).copied().unwrap_or(bad);
        let (first, last) = geom.track_boundaries(logical)?;
        let track_len = last - first + 1;
        loop {
            let used = self.used.entry(first).or_insert(0);
            if u64::from(*used) >= u64::from(cfg.spare_per_track).min(track_len) {
                return Err(DiskError::SpareExhausted { lbn: logical });
            }
            let spare = last - u64::from(*used);
            *used += 1;
            // A spare slot that coincides with the failing logical block
            // itself is useless; burn it and take the next.
            if spare == logical {
                continue;
            }
            if let Some(old) = self.forward.insert(logical, spare) {
                self.reverse.remove(&old);
            }
            self.reverse.insert(spare, logical);
            return Ok(spare);
        }
    }
}

/// Serve one *logical* request through the recovery path: rewrite it
/// through `remap` into physically-contiguous segments, retry transient
/// timeouts with deterministic backoff, and remap hard-failed blocks on
/// the fly. Returns the successful attempts' timing plus the
/// [`FaultOutcome`] accounting for everything else.
///
/// Unrecoverable conditions surface as [`DiskError::RetriesExhausted`] /
/// [`DiskError::SpareExhausted`]; malformed requests propagate the
/// underlying [`DiskError`] unchanged.
fn recovering_serve(
    cfg: &RecoveryConfig,
    remap: &mut RemapTable,
    stats: &mut RecoveryStats,
    sim: &mut DiskSim,
    req: Request,
) -> Result<(RequestTiming, FaultOutcome), DiskError> {
    if req.nblocks == 0 {
        return Err(DiskError::EmptyRequest);
    }
    let start_ms = sim.state().time_ms;
    let slow_before = sim.fault_counts().slow_reads;
    let mut total = RequestTiming::default();
    let mut outcome = FaultOutcome::default();
    let mut segments_served = 0u32;
    let mut cursor = req.lbn;
    let mut remaining = req.nblocks;
    let mut attempts = 0u32;
    while remaining > 0 {
        let seg = remap.first_segment(cursor, remaining);
        // staticcheck: allow(no-direct-service) — this IS the recovery serve path: it must call the raw simulator to observe injected faults; outer callers all route through it.
        match sim.service(seg) {
            Ok(t) => {
                total.overhead_ms += t.overhead_ms;
                total.seek_ms += t.seek_ms;
                total.rotation_ms += t.rotation_ms;
                total.transfer_ms += t.transfer_ms;
                segments_served += 1;
                cursor += seg.nblocks;
                remaining -= seg.nblocks;
                attempts = 0;
            }
            Err(DiskError::TransientTimeout { .. }) => {
                outcome.transients += 1;
                stats.transients += 1;
                if attempts >= cfg.max_retries {
                    return Err(DiskError::RetriesExhausted {
                        lbn: seg.lbn,
                        attempts,
                    });
                }
                attempts += 1;
                outcome.retries += 1;
                stats.retries += 1;
                if cfg.backoff_ms > 0.0 {
                    sim.idle(cfg.backoff_ms * f64::from(attempts));
                }
            }
            Err(DiskError::MediaError { lbn: bad }) => {
                outcome.media_errors += 1;
                stats.media_errors += 1;
                remap.remap(sim.geometry(), cfg, bad)?;
                outcome.remaps += 1;
                stats.remaps += 1;
                // Loop again: the next first_segment reflects the new
                // mapping. Blocks the failed command delivered before
                // hitting `bad` are conservatively re-read.
            }
            Err(e) => return Err(e),
        }
    }
    let slow_delta = sim.fault_counts().slow_reads - slow_before;
    outcome.slow_reads = slow_delta as u32;
    stats.slow_reads += slow_delta;
    outcome.extra_segments = segments_served.saturating_sub(1);
    if !outcome.is_clean() {
        // Everything the sim clock advanced beyond the successful
        // attempts' own components: failed attempts, probes, backoff,
        // and float residue from per-segment accumulation.
        outcome.recovery_ms = (sim.state().time_ms - start_ms) - total.total_ms();
    }
    Ok((total, outcome))
}

/// A rotating disk with bounded retry and bad-block remapping layered
/// on top: a [`DeviceModel`] decorator around a [`DiskSim`] that carries
/// its own [`multimap_disksim::FaultPlan`].
///
/// Reads (single and batched) run through the recovery path, so the
/// scheduler sees each logical request succeed or fail as a whole, with
/// the recovery cost in [`FaultOutcome::recovery_ms`]. Writes pass
/// through to the disk unchanged. With an empty plan every read takes
/// the recovery path yet costs not a single extra float operation — the
/// timing is bit-identical to the bare disk.
pub struct Recovering {
    sim: DiskSim,
    cfg: RecoveryConfig,
    remap: RemapTable,
    stats: RecoveryStats,
}

impl Recovering {
    /// Wrap `sim` (with whatever fault plan it carries) in the recovery
    /// path configured by `cfg`.
    pub fn new(sim: DiskSim, cfg: RecoveryConfig) -> Self {
        Recovering {
            sim,
            cfg,
            remap: RemapTable::default(),
            stats: RecoveryStats::default(),
        }
    }

    /// Recovery actions taken so far.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.stats
    }

    /// The bad-block remap table built so far.
    pub fn remap_table(&self) -> &RemapTable {
        &self.remap
    }

    /// Faults the wrapped disk injected so far.
    pub fn injected_counts(&self) -> FaultCounts {
        self.sim.fault_counts()
    }
}

impl DeviceModel for Recovering {
    fn name(&self) -> &'static str {
        self.sim.name()
    }

    fn capacity_blocks(&self) -> u64 {
        self.sim.capacity_blocks()
    }

    fn now_ms(&self) -> f64 {
        self.sim.now_ms()
    }

    /// Reads are retried/remapped as needed, and the returned timing
    /// folds the recovery time into `overhead_ms`, so the total still
    /// reflects the wall-clock the disk was busy.
    fn service_kind(&mut self, req: Request, kind: AccessKind) -> Result<RequestTiming, DiskError> {
        if kind == AccessKind::Write {
            return DeviceModel::service_kind(&mut self.sim, req, kind);
        }
        let (mut t, outcome) =
            recovering_serve(&self.cfg, &mut self.remap, &mut self.stats, &mut self.sim, req)?;
        if !outcome.is_clean() {
            t.overhead_ms += outcome.recovery_ms;
        }
        Ok(t)
    }

    fn estimate(&self, req: Request) -> Result<f64, DiskError> {
        DeviceModel::estimate(&self.sim, req)
    }

    fn service_batch_observed(
        &mut self,
        requests: &[Request],
        discipline: Discipline,
        observe: &mut dyn FnMut(ServiceEvent),
    ) -> Result<BatchTiming, DiskError> {
        let Recovering {
            sim,
            cfg,
            remap,
            stats,
        } = self;
        let mut serve = |sim: &mut DiskSim, req: Request| recovering_serve(cfg, remap, stats, sim, req);
        service_batch_serving(sim, requests, discipline, &mut serve, observe)
    }

    fn classify(&self, event: &ServiceEvent) -> Transition {
        self.sim.classify(event)
    }

    fn idle(&mut self, ms: f64) {
        DeviceModel::idle(&mut self.sim, ms)
    }

    /// A full return to the freshly-constructed state: the disk (time,
    /// head, statistics, fault schedule), the remap table and the
    /// recovery statistics.
    fn reset(&mut self) {
        DeviceModel::reset(&mut self.sim);
        self.remap = RemapTable::default();
        self.stats = RecoveryStats::default();
    }

    fn reset_stats(&mut self) {
        DeviceModel::reset_stats(&mut self.sim)
    }

    fn stats(&self) -> AccessStats {
        DeviceModel::stats(&self.sim)
    }

    fn geometry(&self) -> Option<&DiskGeometry> {
        DeviceModel::geometry(&self.sim)
    }

    fn counters(&self) -> Vec<(String, u64)> {
        self.sim.counters()
    }

    fn is_remapped(&self, lbn: Lbn, nblocks: u64) -> bool {
        self.remap.overlaps(lbn, nblocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multimap_disksim::{profiles, FaultPlan};

    fn geom() -> DiskGeometry {
        profiles::small()
    }

    #[test]
    fn remap_table_identity_by_default() {
        let t = RemapTable::default();
        assert!(t.is_empty());
        assert_eq!(t.physical(123), 123);
        assert!(!t.overlaps(0, 1_000));
        assert_eq!(t.first_segment(10, 5), Request::new(10, 5));
    }

    #[test]
    fn remap_allocates_track_tail_spares() {
        let g = geom();
        let cfg = RecoveryConfig::default();
        let mut t = RemapTable::default();
        let bad = 100u64;
        let (first, last) = g.track_boundaries(bad).unwrap();
        let spare = t.remap(&g, &cfg, bad).unwrap();
        assert_eq!(spare, last);
        assert_eq!(t.physical(bad), spare);
        assert!(t.overlaps(bad, 1));
        assert!((first..=last).contains(&spare), "spare stays on the track");
        // A bad spare re-remaps the original logical block.
        let spare2 = t.remap(&g, &cfg, spare).unwrap();
        assert_eq!(spare2, last - 1);
        assert_eq!(t.physical(bad), spare2);
        assert_eq!(t.len(), 1, "still one logical block remapped");
    }

    #[test]
    fn spares_exhaust_to_typed_error() {
        let g = geom();
        let cfg = RecoveryConfig {
            spare_per_track: 2,
            ..RecoveryConfig::default()
        };
        let mut t = RemapTable::default();
        t.remap(&g, &cfg, 100).unwrap();
        t.remap(&g, &cfg, 101).unwrap();
        let err = t.remap(&g, &cfg, 102).unwrap_err();
        assert!(matches!(err, DiskError::SpareExhausted { .. }), "{err:?}");
    }

    #[test]
    fn first_segment_splits_around_remapped_blocks() {
        let g = geom();
        let cfg = RecoveryConfig::default();
        let mut t = RemapTable::default();
        t.remap(&g, &cfg, 12).unwrap();
        let spare = t.physical(12);
        // [10, 16): 10-11 contiguous, 12 remapped, 13-15 contiguous.
        assert_eq!(t.first_segment(10, 6), Request::new(10, 2));
        assert_eq!(t.first_segment(12, 4), Request::new(spare, 1));
        assert_eq!(t.first_segment(13, 3), Request::new(13, 3));
    }

    #[test]
    fn recovering_serve_clean_request_is_untouched() {
        let g = geom();
        let cfg = RecoveryConfig::default();
        let mut remap = RemapTable::default();
        let mut stats = RecoveryStats::default();
        let mut sim = DiskSim::new(g.clone());
        let mut plain = DiskSim::new(g.clone());
        let req = Request::new(500, 8);
        let (t, o) =
            recovering_serve(&cfg, &mut remap, &mut stats, &mut sim, req).unwrap();
        let tp = plain.service(req).unwrap();
        assert!(o.is_clean());
        assert_eq!(t.total_ms().to_bits(), tp.total_ms().to_bits());
        assert_eq!(stats, RecoveryStats::default());
    }

    #[test]
    fn recovering_serve_retries_transients() {
        let g = geom();
        let cfg = RecoveryConfig::default();
        let mut remap = RemapTable::default();
        let mut stats = RecoveryStats::default();
        let mut sim = DiskSim::new(g.clone());
        sim.set_fault_plan(
            FaultPlan::new(3)
                .with_transients(1.0, 5.0)
                .with_max_consecutive_transients(2),
        );
        let req = Request::new(500, 4);
        let before = sim.state().time_ms;
        let (t, o) =
            recovering_serve(&cfg, &mut remap, &mut stats, &mut sim, req).unwrap();
        assert_eq!(o.transients, 2);
        assert_eq!(o.retries, 2);
        assert_eq!(stats.retries, 2);
        // The event-clock identity holds: elapsed == timing + recovery.
        let elapsed = sim.state().time_ms - before;
        assert!((elapsed - t.total_ms() - o.recovery_ms).abs() < 1e-9);
        // Recovery paid 2 timeouts + backoff 1x and 2x.
        assert!(o.recovery_ms >= 2.0 * 5.0 + 1.0 + 2.0 - 1e-9);
    }

    #[test]
    fn recovering_serve_remaps_media_errors() {
        let g = geom();
        let cfg = RecoveryConfig::default();
        let mut remap = RemapTable::default();
        let mut stats = RecoveryStats::default();
        let mut sim = DiskSim::new(g.clone());
        sim.set_fault_plan(FaultPlan::new(0).with_media_error(502));
        let req = Request::new(500, 6);
        let (_, o) =
            recovering_serve(&cfg, &mut remap, &mut stats, &mut sim, req).unwrap();
        assert_eq!(o.media_errors, 1);
        assert_eq!(o.remaps, 1);
        assert!(o.extra_segments >= 1, "split around the remapped block");
        assert_eq!(remap.len(), 1);
        assert_ne!(remap.physical(502), 502);
        // A later read of the same span goes straight through the remap
        // with no further media errors.
        let (_, o2) =
            recovering_serve(&cfg, &mut remap, &mut stats, &mut sim, req).unwrap();
        assert_eq!(o2.media_errors, 0);
        assert!(o2.extra_segments >= 1);
        assert_eq!(stats.media_errors, 1);
    }

    #[test]
    fn retries_exhausted_is_a_typed_error() {
        let g = geom();
        let cfg = RecoveryConfig {
            max_retries: 1,
            ..RecoveryConfig::default()
        };
        let mut remap = RemapTable::default();
        let mut stats = RecoveryStats::default();
        let mut sim = DiskSim::new(g.clone());
        sim.set_fault_plan(
            FaultPlan::new(3)
                .with_transients(1.0, 5.0)
                .with_max_consecutive_transients(3),
        );
        let err = recovering_serve(&cfg, &mut remap, &mut stats, &mut sim, Request::single(0))
            .unwrap_err();
        assert!(
            matches!(err, DiskError::RetriesExhausted { lbn: 0, attempts: 1 }),
            "{err:?}"
        );
    }
}
