//! The volume: a set of identical simulated devices behind the
//! adjacency-model interface, generic over the [`DeviceModel`] backend.

use multimap_disksim::{
    adjacent_lbn, build_backend, coalesce_sorted, AccessStats, BatchTiming, DeviceModel,
    DiskGeometry, DiskSim, FaultCounts, FaultPlan, Lbn, Request, RequestTiming, ServiceEvent,
    ServiceLog, Transition,
};
use parking_lot::Mutex;

use crate::error::{LvmError, Result};
use crate::recovery::{Recovering, RecoveryConfig, RecoveryStats};

/// How a batch of requests is ordered before being serviced.
///
/// This is the device layer's [`multimap_disksim::Discipline`] re-exported
/// under its historical volume-level name: volume callers and
/// backend-generic device callers speak the same enum.
pub use multimap_disksim::Discipline as SchedulePolicy;

/// Timing of a striped, multi-disk batch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VolumeBatchTiming {
    /// Per-disk batch timings (index = disk id).
    pub per_disk: Vec<BatchTiming>,
    /// Completion time of the slowest disk — what a caller waiting on all
    /// parallel I/O would observe.
    pub makespan_ms: f64,
}

impl VolumeBatchTiming {
    /// Total blocks transferred across all disks.
    pub fn blocks(&self) -> u64 {
        self.per_disk.iter().map(|b| b.blocks).sum()
    }

    /// Sum of busy time across all disks.
    pub fn total_busy_ms(&self) -> f64 {
        // staticcheck: allow(det-float-sum) — `per_disk` has one slot per member disk in fixed disk-index order; the sum order never varies.
        self.per_disk.iter().map(|b| b.total_ms).sum()
    }
}

/// A volume of one or more identical devices behind any [`DeviceModel`]
/// backend.
///
/// All devices share a single [`DiskGeometry`], which addresses them
/// (mappings and adjacency are defined against it even on a
/// geometry-free backend such as the SSD). Addressing is explicit
/// (`device` index + per-device LBN), matching how the paper assigns
/// each dataset chunk to one disk and reports single-disk response
/// times.
pub struct Volume<D> {
    geometry: DiskGeometry,
    devices: Vec<Mutex<D>>,
}

/// The paper's logical volume: rotating disks, statically dispatched.
pub type LogicalVolume = Volume<DiskSim>;

impl Volume<DiskSim> {
    /// Create a volume of `ndisks` identical disks.
    ///
    /// # Panics
    /// Panics if `ndisks` is zero; [`LogicalVolume::try_new`] is the
    /// non-panicking variant.
    pub fn new(geometry: DiskGeometry, ndisks: usize) -> Self {
        // staticcheck: allow(no-unwrap) — documented panic on a construction
        // precondition; every fallible caller has try_new.
        Self::try_new(geometry, ndisks).expect("a volume needs at least one disk")
    }

    /// Create a volume of `ndisks` identical disks, or
    /// [`LvmError::EmptyVolume`] when `ndisks` is zero.
    pub fn try_new(geometry: DiskGeometry, ndisks: usize) -> Result<Self> {
        let disks = (0..ndisks).map(|_| DiskSim::new(geometry.clone())).collect();
        Volume::from_devices(geometry, disks)
    }

    /// Create a volume whose disks all run the given fault plan behind
    /// the [`Recovering`] decorator (bounded retry + bad-block
    /// remapping on every read path).
    ///
    /// An empty plan installs no injector, but the recovery path still
    /// runs — and produces bit-identical timing to a plain volume, which
    /// the determinism tests pin.
    pub fn with_recovery(
        geometry: DiskGeometry,
        ndisks: usize,
        plan: FaultPlan,
        cfg: RecoveryConfig,
    ) -> Result<Volume<Recovering>> {
        let disks = (0..ndisks)
            .map(|_| {
                let mut sim = DiskSim::new(geometry.clone());
                sim.set_fault_plan(plan.clone());
                Recovering::new(sim, cfg)
            })
            .collect();
        Volume::from_devices(geometry, disks)
    }
}

impl Volume<Recovering> {
    /// Number of logical blocks remapped to spares on `disk` so far.
    pub fn remap_count(&self, disk: usize) -> Result<usize> {
        self.with_device(disk, |d| d.remap_table().len())
    }

    /// Recovery actions taken so far, merged across all disks.
    pub fn recovery_stats(&self) -> RecoveryStats {
        let mut out = RecoveryStats::default();
        for d in &self.devices {
            out.merge(&d.lock().recovery_stats());
        }
        out
    }

    /// Faults the disks injected so far, merged across all disks.
    pub fn injected_counts(&self) -> FaultCounts {
        let mut out = FaultCounts::default();
        for d in &self.devices {
            out.merge(&d.lock().injected_counts());
        }
        out
    }
}

impl<D: DeviceModel> Volume<D> {
    /// Create a volume from pre-built devices addressed through
    /// `geometry`, or [`LvmError::EmptyVolume`] when `devices` is empty.
    pub fn from_devices(geometry: DiskGeometry, devices: Vec<D>) -> Result<Self> {
        if devices.is_empty() {
            return Err(LvmError::EmptyVolume);
        }
        Ok(Volume {
            geometry,
            devices: devices.into_iter().map(Mutex::new).collect(),
        })
    }

    /// Number of devices in the volume.
    #[inline]
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// The shared geometry.
    #[inline]
    pub fn geometry(&self) -> &DiskGeometry {
        &self.geometry
    }

    /// The `GET_ADJACENT` interface call: LBN of the `step`-th adjacent
    /// block of `lbn` (Section 3.2 of the paper).
    #[inline]
    pub fn get_adjacent(&self, lbn: Lbn, step: u32) -> multimap_disksim::Result<Lbn> {
        adjacent_lbn(&self.geometry, lbn, step)
    }

    /// The `GET_TRACK_BOUNDARIES` interface call: first and last LBN of
    /// the track containing `lbn`.
    #[inline]
    pub fn get_track_boundaries(&self, lbn: Lbn) -> multimap_disksim::Result<(Lbn, Lbn)> {
        self.geometry.track_boundaries(lbn)
    }

    /// The number of adjacent blocks `D` each LBN has.
    #[inline]
    pub fn adjacency_limit(&self) -> u32 {
        self.geometry.adjacency_limit
    }

    /// The device behind `device`, or [`LvmError::NoSuchDisk`].
    fn device(&self, device: usize) -> Result<&Mutex<D>> {
        self.devices.get(device).ok_or(LvmError::NoSuchDisk {
            disk: device,
            ndisks: self.devices.len(),
        })
    }

    /// Backend name of device 0 (the registry key, e.g. `"disk"`; all
    /// devices share one backend).
    pub fn backend_name(&self) -> &'static str {
        self.devices[0].lock().name()
    }

    /// Service one read on one device.
    pub fn service(&self, device: usize, req: Request) -> Result<RequestTiming> {
        // staticcheck: allow(no-direct-service) — the volume service primitive itself; conformance audits the observed paths.
        Ok(self.device(device)?.lock().service(req)?)
    }

    /// Service one write on one device (IMR backends may amplify it
    /// with neighbor-track rewrites).
    pub fn service_write(&self, device: usize, req: Request) -> Result<RequestTiming> {
        Ok(self.device(device)?.lock().service_write(req)?)
    }

    /// Service a batch on one device under the given policy.
    pub fn service_batch(
        &self,
        device: usize,
        requests: &[Request],
        policy: SchedulePolicy,
    ) -> Result<BatchTiming> {
        self.service_batch_observed(device, requests, policy, &mut |_| {})
    }

    /// [`Volume::service_batch`] with a per-request observer: the
    /// scheduler emits one [`ServiceEvent`] per serviced request, so a
    /// conformance oracle can inspect every decision (admission rank,
    /// queue length, head state before/after, timing components).
    pub fn service_batch_observed(
        &self,
        device: usize,
        requests: &[Request],
        policy: SchedulePolicy,
        observe: &mut dyn FnMut(ServiceEvent),
    ) -> Result<BatchTiming> {
        Ok(self
            .device(device)?
            .lock()
            .service_batch_observed(requests, policy, observe)?)
    }

    /// [`Volume::service_batch`] that collects every scheduler decision
    /// into a returned [`ServiceLog`].
    pub fn service_batch_logged(
        &self,
        device: usize,
        requests: &[Request],
        policy: SchedulePolicy,
    ) -> Result<(BatchTiming, ServiceLog)> {
        let mut log = ServiceLog::new();
        let timing = self.service_batch_observed(device, requests, policy, &mut log.recorder())?;
        Ok((timing, log))
    }

    /// Service a sorted, deduplicated LBN list on one device, coalescing
    /// contiguous runs into multi-block requests first.
    pub fn service_sorted_lbns(
        &self,
        device: usize,
        lbns: &[Lbn],
        policy: SchedulePolicy,
    ) -> Result<BatchTiming> {
        let requests = coalesce_sorted(lbns);
        self.service_batch(device, &requests, policy)
    }

    /// Service one batch per device "in parallel": each device runs its
    /// batch independently and the makespan is the slowest device's busy
    /// time.
    pub fn service_striped(
        &self,
        batches: &[(usize, Vec<Request>, SchedulePolicy)],
    ) -> Result<VolumeBatchTiming> {
        let mut per_disk = vec![BatchTiming::default(); self.devices.len()];
        for (disk, requests, policy) in batches {
            let t = self.service_batch(*disk, requests, *policy)?;
            per_disk[*disk].requests += t.requests;
            per_disk[*disk].blocks += t.blocks;
            per_disk[*disk].total_ms += t.total_ms;
            per_disk[*disk].payload = per_disk[*disk].payload.wrapping_add(t.payload);
        }
        let makespan_ms = per_disk.iter().map(|b| b.total_ms).fold(0.0, f64::max);
        Ok(VolumeBatchTiming {
            per_disk,
            makespan_ms,
        })
    }

    /// Classify a batch of events through one device's backend-specific
    /// transition semantics, under a single lock acquisition.
    pub fn classify_events(
        &self,
        device: usize,
        events: &[ServiceEvent],
    ) -> Result<Vec<Transition>> {
        let dev = self.device(device)?.lock();
        Ok(events.iter().map(|e| dev.classify(e)).collect())
    }

    /// Whether any block of `[lbn, lbn + nblocks)` on `device` has been
    /// remapped — i.e. lost its adjacency guarantee, so a query should
    /// fall back from semi-sequential hops to scheduled seeks for it.
    pub fn is_degraded_range(&self, device: usize, lbn: Lbn, nblocks: u64) -> Result<bool> {
        self.with_device(device, |d| d.is_remapped(lbn, nblocks))
    }

    /// Accumulated statistics of one device.
    pub fn stats(&self, device: usize) -> Result<AccessStats> {
        Ok(self.device(device)?.lock().stats())
    }

    /// Statistics merged across all devices.
    pub fn merged_stats(&self) -> AccessStats {
        let mut out = AccessStats::default();
        for d in &self.devices {
            out.merge(&d.lock().stats());
        }
        out
    }

    /// Backend-specific counters of one device (see
    /// [`DeviceModel::counters`]).
    pub fn counters(&self, device: usize) -> Result<Vec<(String, u64)>> {
        Ok(self.device(device)?.lock().counters())
    }

    /// Reset every device to its freshly-constructed state (for a
    /// recovering volume this includes the fault schedule, remap tables
    /// and recovery statistics).
    pub fn reset(&self) {
        for d in &self.devices {
            d.lock().reset();
        }
    }

    /// Clear statistics on every device without moving heads.
    pub fn reset_stats(&self) {
        for d in &self.devices {
            d.lock().reset_stats();
        }
    }

    /// Let every device idle for `ms` (randomises rotational phase
    /// between queries, breaking artificial phase locking between runs).
    pub fn idle_all(&self, ms: f64) {
        for d in &self.devices {
            d.lock().idle(ms);
        }
    }

    /// Run a closure with mutable access to one device (for callers
    /// that need custom scheduling or backend-specific inspection).
    pub fn with_device<T>(&self, device: usize, f: impl FnOnce(&mut D) -> T) -> Result<T> {
        Ok(f(&mut self.device(device)?.lock()))
    }
}

/// Build a volume of `ndevices` registry-selected backends addressed
/// through `geom` — the CLI-flag entry point (`"disk"`, `"ssd"`,
/// `"imr"`; see [`multimap_disksim::BACKEND_NAMES`]).
pub fn backend_volume(
    name: &str,
    geom: &DiskGeometry,
    ndevices: usize,
) -> Result<Volume<Box<dyn DeviceModel>>> {
    let devices = (0..ndevices)
        .map(|_| build_backend(name, geom))
        .collect::<multimap_disksim::Result<Vec<_>>>()?;
    Volume::from_devices(geom.clone(), devices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use multimap_disksim::{profiles, DiskError, FaultPlan};

    fn volume(n: usize) -> LogicalVolume {
        LogicalVolume::new(profiles::small(), n)
    }

    #[test]
    fn interface_calls_match_disksim() {
        let v = volume(1);
        let g = v.geometry().clone();
        assert_eq!(
            v.get_adjacent(0, 1).unwrap(),
            adjacent_lbn(&g, 0, 1).unwrap()
        );
        assert_eq!(
            v.get_track_boundaries(17).unwrap(),
            g.track_boundaries(17).unwrap()
        );
        assert_eq!(v.adjacency_limit(), g.adjacency_limit);
    }

    #[test]
    #[should_panic(expected = "at least one disk")]
    fn zero_disks_panics() {
        let _ = volume(0);
    }

    #[test]
    fn disks_have_independent_state() {
        let v = volume(2);
        v.service(0, Request::single(100)).unwrap();
        assert_eq!(v.stats(0).unwrap().requests, 1);
        assert_eq!(v.stats(1).unwrap().requests, 0);
        let merged = v.merged_stats();
        assert_eq!(merged.requests, 1);
    }

    #[test]
    fn bad_disk_index_is_a_typed_error() {
        let v = volume(2);
        let err = v.service(2, Request::single(0)).unwrap_err();
        assert_eq!(err, LvmError::NoSuchDisk { disk: 2, ndisks: 2 });
        assert!(v.stats(9).is_err());
        assert!(v.with_device(9, |_| ()).is_err());
        assert!(v
            .service_batch(5, &[Request::single(0)], SchedulePolicy::InOrder)
            .is_err());
    }

    #[test]
    fn disk_errors_are_wrapped() {
        let v = volume(1);
        let total = v.geometry().total_blocks();
        let err = v.service(0, Request::single(total + 10)).unwrap_err();
        assert!(matches!(err, LvmError::Disk(_)), "{err:?}");
    }

    #[test]
    fn sorted_lbns_are_coalesced() {
        let v = volume(1);
        let t = v
            .service_sorted_lbns(0, &[10, 11, 12, 13, 14], SchedulePolicy::InOrder)
            .unwrap();
        assert_eq!(t.requests, 1);
        assert_eq!(t.blocks, 5);
    }

    #[test]
    fn striped_makespan_is_max_of_disks() {
        let v = volume(2);
        let heavy: Vec<Request> = (0..40u64).map(|i| Request::single(i * 1000)).collect();
        let light = vec![Request::single(0)];
        let t = v
            .service_striped(&[
                (0, heavy, SchedulePolicy::AscendingLbn),
                (1, light, SchedulePolicy::AscendingLbn),
            ])
            .unwrap();
        assert!(t.per_disk[0].total_ms > t.per_disk[1].total_ms);
        assert_eq!(t.makespan_ms, t.per_disk[0].total_ms);
        assert_eq!(t.blocks(), 41);
        assert!(
            (t.total_busy_ms() - (t.per_disk[0].total_ms + t.per_disk[1].total_ms)).abs() < 1e-9
        );
    }

    #[test]
    fn reset_clears_state() {
        let v = volume(1);
        v.service(0, Request::single(5)).unwrap();
        v.reset();
        assert_eq!(v.stats(0).unwrap().requests, 0);
    }

    #[test]
    fn try_new_zero_disks_is_typed_error() {
        match LogicalVolume::try_new(profiles::small(), 0) {
            Err(e) => assert_eq!(e, LvmError::EmptyVolume),
            Ok(_) => panic!("zero-disk volume must be rejected"),
        }
    }

    /// The determinism pin for the recovery path: a volume built with an
    /// *empty* fault plan must produce bit-identical timing to a plain
    /// volume, on every scheduling policy — the recovering code path may
    /// not cost a single float operation when nothing faults.
    #[test]
    fn empty_fault_plan_bit_identical_to_plain_volume() {
        let reqs: Vec<Request> = (0..40u64)
            .map(|i| Request::new((i * 9173) % 150_000, 1 + i % 4))
            .collect();
        for policy in [
            SchedulePolicy::InOrder,
            SchedulePolicy::AscendingLbn,
            SchedulePolicy::Sptf,
            SchedulePolicy::QueuedSptf(8),
        ] {
            let plain = volume(1);
            let recovering = LogicalVolume::with_recovery(
                profiles::small(),
                1,
                FaultPlan::none(),
                crate::recovery::RecoveryConfig::default(),
            )
            .unwrap();
            let (tp, log_p) = plain.service_batch_logged(0, &reqs, policy).unwrap();
            let (tr, log_r) = recovering.service_batch_logged(0, &reqs, policy).unwrap();
            assert_eq!(
                tp.total_ms.to_bits(),
                tr.total_ms.to_bits(),
                "{policy:?} timing must be bit-identical"
            );
            assert_eq!(tp, tr, "{policy:?}");
            assert_eq!(log_p.events(), log_r.events(), "{policy:?}");
        }
    }

    #[test]
    fn faulted_batch_payload_matches_fault_free_run() {
        let reqs: Vec<Request> = (0..30u64)
            .map(|i| Request::new(i * 400, 3))
            .collect();
        let plan = FaultPlan::new(77)
            .with_transients(0.25, 5.0)
            .with_media_errors([401u64, 4_802, 8_000]);
        let clean = volume(1);
        let faulted = LogicalVolume::with_recovery(
            profiles::small(),
            1,
            plan.clone(),
            crate::recovery::RecoveryConfig::default(),
        )
        .unwrap();
        let tc = clean
            .service_batch(0, &reqs, SchedulePolicy::Sptf)
            .unwrap();
        let tf = faulted
            .service_batch(0, &reqs, SchedulePolicy::Sptf)
            .unwrap();
        assert_eq!(tc.payload, tf.payload, "same data must be delivered");
        assert_eq!(tc.blocks, tf.blocks);
        assert!(tf.total_ms > tc.total_ms, "faults must cost time");
        // Counter reconciliation: every injected transient was retried
        // exactly once, and the schedule replays from the plan.
        let stats = faulted.recovery_stats();
        let injected = faulted.injected_counts();
        assert_eq!(stats.transients, injected.transients);
        assert_eq!(stats.retries, injected.transients);
        assert_eq!(stats.media_errors, injected.media_errors);
        assert_eq!(stats.remaps, stats.media_errors);
        assert_eq!(injected.transients, plan.count_transients(injected.commands));
        assert!(stats.remaps >= 3, "all three bad blocks were touched");
        // The remapped cells are now degraded.
        assert!(faulted.is_degraded_range(0, 401, 1).unwrap());
        assert!(!faulted.is_degraded_range(0, 0, 1).unwrap());
        assert_eq!(faulted.remap_count(0).unwrap(), 3);
    }

    #[test]
    fn unrecoverable_transient_surfaces_typed_error() {
        let plan = FaultPlan::new(3)
            .with_transients(1.0, 5.0)
            .with_max_consecutive_transients(5);
        let v = LogicalVolume::with_recovery(
            profiles::small(),
            1,
            plan,
            crate::recovery::RecoveryConfig {
                max_retries: 2,
                ..crate::recovery::RecoveryConfig::default()
            },
        )
        .unwrap();
        let err = v
            .service_batch(0, &[Request::single(0)], SchedulePolicy::InOrder)
            .unwrap_err();
        assert!(
            matches!(err, LvmError::Disk(DiskError::RetriesExhausted { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn reset_restores_pristine_recovery_state() {
        let plan = FaultPlan::new(1).with_media_error(500);
        let v = LogicalVolume::with_recovery(
            profiles::small(),
            1,
            plan,
            crate::recovery::RecoveryConfig::default(),
        )
        .unwrap();
        let reqs = [Request::new(498, 5)];
        let t1 = v
            .service_batch(0, &reqs, SchedulePolicy::InOrder)
            .unwrap();
        assert_eq!(v.remap_count(0).unwrap(), 1);
        v.reset();
        assert_eq!(v.remap_count(0).unwrap(), 0);
        assert_eq!(v.recovery_stats(), crate::recovery::RecoveryStats::default());
        let t2 = v
            .service_batch(0, &reqs, SchedulePolicy::InOrder)
            .unwrap();
        assert_eq!(t1.total_ms.to_bits(), t2.total_ms.to_bits());
    }

    #[test]
    fn policies_agree_on_blocks_fetched() {
        let reqs: Vec<Request> = (0..20u64).map(|i| Request::single(i * 37)).collect();
        for policy in [
            SchedulePolicy::InOrder,
            SchedulePolicy::AscendingLbn,
            SchedulePolicy::Sptf,
        ] {
            let v = volume(1);
            let t = v.service_batch(0, &reqs, policy).unwrap();
            assert_eq!(t.blocks, 20, "{policy:?}");
        }
    }

    /// The static-vs-dynamic dispatch pin: a concrete `Volume<DiskSim>`
    /// and a registry-built `Volume<Box<dyn DeviceModel>>` serve the same
    /// batch bit-identically, events included.
    #[test]
    fn registry_disk_volume_matches_logical_volume() {
        let geom = profiles::small();
        let reqs: Vec<Request> = (0..50u64)
            .map(|i| Request::new((i * 7919) % 150_000, 1 + i % 3))
            .collect();
        for policy in [
            SchedulePolicy::AscendingLbn,
            SchedulePolicy::Sptf,
            SchedulePolicy::QueuedSptf(16),
        ] {
            let lv = LogicalVolume::new(geom.clone(), 1);
            let (tl, log_l) = lv.service_batch_logged(0, &reqs, policy).unwrap();
            let dv = backend_volume("disk", &geom, 1).unwrap();
            let (td, log_d) = dv.service_batch_logged(0, &reqs, policy).unwrap();
            assert_eq!(tl, td, "{policy:?}");
            assert_eq!(tl.total_ms.to_bits(), td.total_ms.to_bits());
            assert_eq!(log_l, log_d);
        }
    }

    #[test]
    fn registry_volume_serves_all_backends() {
        let geom = profiles::small();
        let reqs: Vec<Request> = (0..20u64).map(|i| Request::single(i * 401)).collect();
        let mut payloads = Vec::new();
        for name in multimap_disksim::BACKEND_NAMES {
            let v = backend_volume(name, &geom, 2).unwrap();
            assert_eq!(v.num_devices(), 2);
            assert_eq!(v.backend_name(), name);
            let t = v.service_batch(0, &reqs, SchedulePolicy::Sptf).unwrap();
            assert_eq!(t.requests, 20);
            payloads.push(t.payload);
            assert_eq!(v.stats(0).unwrap().requests, 20);
            assert_eq!(v.stats(1).unwrap().requests, 0);
        }
        // Payload identity across backends: same logical data delivered.
        assert!(payloads.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn unknown_backend_is_typed_error() {
        let geom = profiles::small();
        match backend_volume("tape", &geom, 1).err() {
            Some(LvmError::Disk(DiskError::UnknownBackend { name })) => assert_eq!(name, "tape"),
            other => panic!("expected UnknownBackend, got {other:?}"),
        }
    }

    #[test]
    fn empty_device_list_is_typed_error() {
        let devices: Vec<DiskSim> = Vec::new();
        match Volume::from_devices(profiles::small(), devices) {
            Err(LvmError::EmptyVolume) => {}
            _ => panic!("empty device volume must be rejected"),
        }
    }

    #[test]
    fn bad_device_index_is_typed_error_on_every_backend() {
        let v = backend_volume("ssd", &profiles::small(), 1).unwrap();
        match v.service(3, Request::single(0)) {
            Err(LvmError::NoSuchDisk { disk: 3, ndisks: 1 }) => {}
            other => panic!("expected NoSuchDisk, got {other:?}"),
        }
    }
}
