//! The pluggable device API: every storage backend the reproduction can
//! drive sits behind the [`DeviceModel`] trait.
//!
//! The trait abstracts exactly the service interface the upper layers
//! (`lvm`, `query`, `store`, `conformance`, `bench`) consume: single
//! reads/writes, batch service under a scheduling [`Discipline`], service
//! estimation, [`ServiceEvent`] observation, transition classification,
//! and capacity/geometry queries. [`DiskSim`] — the paper's rotating
//! drive — is the first implementation and is **bit-identical** behind
//! the trait to the pre-trait direct calls: its batch methods delegate to
//! the same scheduler internals ([`crate::scheduler::service_batch_serving`]).
//!
//! Two further backends ship in this crate:
//!
//! * [`crate::ssd::SsdModel`] — a multi-queue SSD (per-channel parallel
//!   service, queue-depth-dependent command latency, no settle/rotate
//!   phases).
//! * [`crate::imr::ImrModel`] — interlaced magnetic recording on top of
//!   the rotating mechanics (bottom-track writes read-modify-write the
//!   interlaced top-track neighbors).
//!
//! Backends are constructible by name through [`build_backend`], so the
//! perf/figures binaries can select one with a CLI flag.

use crate::error::{DiskError, Result};
use crate::geometry::{DiskGeometry, Lbn};
use crate::imr::{ImrConfig, ImrModel};
use crate::observe::{ServiceEvent, Transition};
use crate::scheduler::{plain_serve, service_batch_serving, BatchTiming, Discipline};
use crate::sim::{AccessKind, DiskSim, Request, RequestTiming};
use crate::ssd::{SsdConfig, SsdModel};
use crate::stats::AccessStats;

/// The service interface every storage backend implements.
///
/// # Contract
///
/// * **Deterministic.** Identical call sequences produce identical
///   timings, events and counters — no wall clock, no entropy. This is
///   what lets the engine replay sweeps bit-identically at any thread
///   count.
/// * **Simulated clock.** [`DeviceModel::now_ms`] only advances through
///   service and [`DeviceModel::idle`].
/// * **Event invariant.** Every emitted [`ServiceEvent`] satisfies
///   `after.time_ms - before.time_ms == elapsed_ms()` (within float
///   epsilon). What the `timing` components *mean* is backend-specific —
///   see `docs/backends.md` for the per-backend phase semantics.
/// * **Payload identity.** [`BatchTiming::payload`] depends only on the
///   logical blocks delivered, never on the backend or the service
///   order: two backends serving the same request multiset report the
///   same payload.
///
/// The trait is object-safe; upper layers may hold `Box<dyn DeviceModel>`
/// (see [`build_backend`]) or stay generic for static dispatch.
pub trait DeviceModel: Send {
    /// Stable backend identifier (`"disk"`, `"ssd"`, `"imr"`), the key
    /// used by the [`build_backend`] registry.
    fn name(&self) -> &'static str;

    /// Total addressable blocks.
    fn capacity_blocks(&self) -> u64;

    /// Current simulated time in milliseconds.
    fn now_ms(&self) -> f64;

    /// Service one request of the given kind, advancing the clock.
    fn service_kind(&mut self, req: Request, kind: AccessKind) -> Result<RequestTiming>;

    /// Service one read.
    fn service(&mut self, req: Request) -> Result<RequestTiming> {
        self.service_kind(req, AccessKind::Read)
    }

    /// Service one write. Backends with asymmetric write mechanics (the
    /// rotating drive's write-settle surcharge, the IMR model's
    /// read-modify-write) charge them here.
    fn service_write(&mut self, req: Request) -> Result<RequestTiming> {
        self.service_kind(req, AccessKind::Write)
    }

    /// Estimate the service time of `req` from the current device state
    /// without performing it. Used by SPTF-style selection and admission
    /// control; does not advance the clock or mutate state.
    fn estimate(&self, req: Request) -> Result<f64>;

    /// Service a batch of read requests under `discipline`, emitting one
    /// [`ServiceEvent`] per serviced request.
    fn service_batch_observed(
        &mut self,
        requests: &[Request],
        discipline: Discipline,
        observe: &mut dyn FnMut(ServiceEvent),
    ) -> Result<BatchTiming>;

    /// [`DeviceModel::service_batch_observed`] without an observer.
    fn service_batch(&mut self, requests: &[Request], discipline: Discipline) -> Result<BatchTiming> {
        self.service_batch_observed(requests, discipline, &mut |_| {})
    }

    /// Classify how the device reached a request it serviced: the
    /// backend's own notion of sequential continuation, cheap adjacency
    /// (settle hop on the rotating drive, free-channel dispatch on the
    /// SSD) or an expensive reposition (arm seek, channel queueing).
    fn classify(&self, event: &ServiceEvent) -> Transition;

    /// Let the device sit idle for `ms` simulated milliseconds.
    fn idle(&mut self, ms: f64);

    /// Reset all device state (clock, position, stats, wear tracking) to
    /// the initial state.
    fn reset(&mut self);

    /// Reset accumulated statistics and counters without disturbing the
    /// mechanical/clock state.
    fn reset_stats(&mut self);

    /// Accumulated per-request statistics. For parallel backends the
    /// per-phase sums count device busy time, which can exceed the
    /// wall-clock makespan reported by [`BatchTiming::total_ms`].
    fn stats(&self) -> AccessStats;

    /// The rotating-disk geometry, for backends that have one. Layout
    /// translation (mappings, adjacency) is defined against a geometry,
    /// so geometry-free backends (the SSD) are still *addressed* through
    /// one — they just do not expose mechanical parameters here.
    fn geometry(&self) -> Option<&DiskGeometry> {
        None
    }

    /// Backend-specific counters for exact reconciliation in the
    /// conformance harness (e.g. per-channel serves on the SSD,
    /// neighbor-track rewrites on IMR). Keys are stable per backend;
    /// order is deterministic.
    fn counters(&self) -> Vec<(String, u64)> {
        Vec::new()
    }

    /// Whether any block of `[lbn, lbn + nblocks)` has been remapped
    /// away from its home position, losing the adjacency the layout
    /// promised. Only a recovery layer remaps; bare backends never do.
    fn is_remapped(&self, _lbn: Lbn, _nblocks: u64) -> bool {
        false
    }
}

impl<D: DeviceModel + ?Sized> DeviceModel for Box<D> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn capacity_blocks(&self) -> u64 {
        (**self).capacity_blocks()
    }
    fn now_ms(&self) -> f64 {
        (**self).now_ms()
    }
    fn service_kind(&mut self, req: Request, kind: AccessKind) -> Result<RequestTiming> {
        (**self).service_kind(req, kind)
    }
    fn service(&mut self, req: Request) -> Result<RequestTiming> {
        (**self).service(req)
    }
    fn service_write(&mut self, req: Request) -> Result<RequestTiming> {
        (**self).service_write(req)
    }
    fn estimate(&self, req: Request) -> Result<f64> {
        (**self).estimate(req)
    }
    fn service_batch_observed(
        &mut self,
        requests: &[Request],
        discipline: Discipline,
        observe: &mut dyn FnMut(ServiceEvent),
    ) -> Result<BatchTiming> {
        (**self).service_batch_observed(requests, discipline, observe)
    }
    fn service_batch(&mut self, requests: &[Request], discipline: Discipline) -> Result<BatchTiming> {
        (**self).service_batch(requests, discipline)
    }
    fn classify(&self, event: &ServiceEvent) -> Transition {
        (**self).classify(event)
    }
    fn idle(&mut self, ms: f64) {
        (**self).idle(ms)
    }
    fn reset(&mut self) {
        (**self).reset()
    }
    fn reset_stats(&mut self) {
        (**self).reset_stats()
    }
    fn stats(&self) -> AccessStats {
        (**self).stats()
    }
    fn geometry(&self) -> Option<&DiskGeometry> {
        (**self).geometry()
    }
    fn counters(&self) -> Vec<(String, u64)> {
        (**self).counters()
    }
    fn is_remapped(&self, lbn: Lbn, nblocks: u64) -> bool {
        (**self).is_remapped(lbn, nblocks)
    }
}

impl DeviceModel for DiskSim {
    fn name(&self) -> &'static str {
        "disk"
    }

    fn capacity_blocks(&self) -> u64 {
        DiskSim::geometry(self).total_blocks()
    }

    fn now_ms(&self) -> f64 {
        self.state().time_ms
    }

    fn service_kind(&mut self, req: Request, kind: AccessKind) -> Result<RequestTiming> {
        match kind {
            AccessKind::Read => DiskSim::service(self, req),
            AccessKind::Write => DiskSim::service_write(self, req),
        }
    }

    fn estimate(&self, req: Request) -> Result<f64> {
        DiskSim::estimate(self, req)
    }

    fn service_batch_observed(
        &mut self,
        requests: &[Request],
        discipline: Discipline,
        observe: &mut dyn FnMut(ServiceEvent),
    ) -> Result<BatchTiming> {
        // The same dispatcher the pre-trait free functions used: the
        // rotating backend behind the trait is bit-identical to HEAD.
        service_batch_serving(self, requests, discipline, &mut plain_serve, observe)
    }

    fn classify(&self, event: &ServiceEvent) -> Transition {
        event.transition(DiskSim::geometry(self))
    }

    fn idle(&mut self, ms: f64) {
        DiskSim::idle(self, ms)
    }

    fn reset(&mut self) {
        DiskSim::reset(self)
    }

    fn reset_stats(&mut self) {
        DiskSim::reset_stats(self)
    }

    fn stats(&self) -> AccessStats {
        *DiskSim::stats(self)
    }

    fn geometry(&self) -> Option<&DiskGeometry> {
        Some(DiskSim::geometry(self))
    }
}

/// Names accepted by [`build_backend`], in registry order.
pub const BACKEND_NAMES: [&str; 3] = ["disk", "ssd", "imr"];

/// Construct a backend by registry name, addressed through `geom`.
///
/// * `"disk"` — the rotating [`DiskSim`] on `geom` exactly.
/// * `"ssd"` — an [`SsdModel`] sized to `geom.total_blocks()` with the
///   default channel configuration ([`SsdConfig::builder`]).
/// * `"imr"` — an [`ImrModel`] interlacing `geom`'s cylinders with the
///   default RMW configuration ([`ImrConfig::builder`]).
///
/// Unknown names are a typed [`DiskError::UnknownBackend`] error.
pub fn build_backend(name: &str, geom: &DiskGeometry) -> Result<Box<dyn DeviceModel>> {
    match name {
        "disk" => Ok(Box::new(DiskSim::new(geom.clone()))),
        "ssd" => Ok(Box::new(SsdModel::new(
            SsdConfig::builder()
                .capacity_blocks(geom.total_blocks())
                .build(),
        ))),
        "imr" => Ok(Box::new(ImrModel::new(geom.clone(), ImrConfig::default()))),
        other => Err(DiskError::UnknownBackend {
            name: other.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    #[test]
    fn registry_builds_every_listed_backend() {
        let geom = profiles::small();
        for name in BACKEND_NAMES {
            let dev = build_backend(name, &geom).unwrap();
            assert_eq!(dev.name(), name);
            assert_eq!(dev.capacity_blocks(), geom.total_blocks());
            assert_eq!(dev.now_ms(), 0.0);
        }
    }

    #[test]
    fn registry_rejects_unknown_names() {
        let geom = profiles::small();
        let err = build_backend("mems", &geom).err().unwrap();
        assert_eq!(
            err,
            DiskError::UnknownBackend {
                name: "mems".into()
            }
        );
    }

    #[test]
    fn trait_batch_matches_concrete_batch_on_disk() {
        let geom = profiles::small();
        let reqs: Vec<Request> = (0..60u64)
            .map(|i| Request::single((i * 9173) % geom.total_blocks()))
            .collect();
        for discipline in [
            Discipline::InOrder,
            Discipline::AscendingLbn,
            Discipline::Sptf,
            Discipline::QueuedSptf(8),
        ] {
            let mut concrete = DiskSim::new(geom.clone());
            let direct = service_batch_serving(
                &mut concrete,
                &reqs,
                discipline,
                &mut plain_serve,
                &mut |_| {},
            )
            .unwrap();
            let mut boxed: Box<dyn DeviceModel> = Box::new(DiskSim::new(geom.clone()));
            let via_trait = boxed.service_batch(&reqs, discipline).unwrap();
            assert_eq!(direct, via_trait);
            assert_eq!(
                direct.total_ms.to_bits(),
                via_trait.total_ms.to_bits(),
                "trait dispatch must be bit-identical for {discipline:?}"
            );
        }
    }

    #[test]
    fn geometry_exposure_is_backend_specific() {
        let geom = profiles::small();
        assert!(build_backend("disk", &geom).unwrap().geometry().is_some());
        assert!(build_backend("imr", &geom).unwrap().geometry().is_some());
        assert!(build_backend("ssd", &geom).unwrap().geometry().is_none());
    }
}
