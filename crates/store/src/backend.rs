//! Backend-generic write-back: [`DeviceStore`] puts the store's page
//! cache and write-back batcher in front of a [`Volume`] over any
//! [`DeviceModel`] backend.
//!
//! Writes dirty cache pages and drain through an ascending-LBN
//! write-back flush. On an IMR backend that flush is where
//! read-modify-write amplification surfaces — the store diffs the
//! backend's `imr.neighbor_rewrites` counter across each flush and
//! records the delta as [`Counter::NeighborRewrite`] telemetry, so write
//! amplification is observable per flush without backend-specific code
//! on the hot path. Cached demand reads on any backend go through
//! [`multimap_query::QueryExecutor`] with
//! [`QueryRequest::with_cache`](multimap_query::QueryRequest::with_cache).

use multimap_disksim::{DeviceModel, Lbn, Request};
use multimap_lvm::{LvmError, Volume};
use multimap_telemetry::{Counter, Metrics, MetricsSink, Phase};

use crate::cache::{CacheConfig, PageCache};
use crate::manager::Result;

/// What one write-back flush serviced on the backend.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BackendFlushReport {
    /// Dirty pages written.
    pub pages: u64,
    /// Blocks written (user writes; excludes RMW amplification).
    pub blocks: u64,
    /// Simulated I/O time of the flush, in milliseconds.
    pub total_io_ms: f64,
    /// Neighbor-track rewrites the backend performed during this flush
    /// (nonzero only on IMR backends with interlacing engaged).
    pub neighbor_rewrites: u64,
}

impl BackendFlushReport {
    fn absorb(&mut self, other: BackendFlushReport) {
        self.pages += other.pages;
        self.blocks += other.blocks;
        self.total_io_ms += other.total_io_ms;
        self.neighbor_rewrites += other.neighbor_rewrites;
    }
}

/// Write-back-batched access to a backend-generic [`Volume`] — one
/// [`PageCache`] per device.
///
/// ```
/// use multimap_disksim::profiles;
/// use multimap_lvm::backend_volume;
/// use multimap_store::{CacheConfig, DeviceStore};
///
/// let volume = backend_volume("imr", &profiles::small(), 1).unwrap();
/// let mut store = DeviceStore::new(volume, CacheConfig::default());
/// store.write(0, 8, 1).unwrap();
/// let r = store.flush_all().unwrap();
/// assert_eq!(r.pages, 1);
/// ```
pub struct DeviceStore<D: DeviceModel> {
    volume: Volume<D>,
    caches: Vec<PageCache>,
    config: CacheConfig,
    metrics: Metrics,
}

impl<D: DeviceModel> DeviceStore<D> {
    /// A store over `volume` with one page cache per device.
    pub fn new(volume: Volume<D>, config: CacheConfig) -> Self {
        let caches = (0..volume.num_devices())
            .map(|_| PageCache::new(&config))
            .collect();
        DeviceStore {
            volume,
            caches,
            config,
            metrics: Metrics::new(),
        }
    }

    /// The underlying volume.
    pub fn volume(&self) -> &Volume<D> {
        &self.volume
    }

    /// The page cache serving `device`, or
    /// [`LvmError::NoSuchDisk`] on a bad index.
    pub fn cache(&self, device: usize) -> Result<&PageCache> {
        self.caches.get(device).ok_or_else(|| {
            LvmError::NoSuchDisk {
                disk: device,
                ndisks: self.caches.len(),
            }
            .into()
        })
    }

    /// Telemetry recorded by the write-back path.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Dirty one page. When the pending write-back set reaches the
    /// configured batch size the device's dirty pages are flushed and
    /// the flush report is returned; otherwise the write is absorbed.
    pub fn write(
        &mut self,
        device: usize,
        lbn: Lbn,
        nblocks: u64,
    ) -> Result<Option<BackendFlushReport>> {
        let cache = self.cache(device)?;
        cache.mark_dirty(lbn, nblocks);
        if cache.writeback_pending() >= self.config.writeback_batch.max(1) {
            return self.flush(device).map(Some);
        }
        Ok(None)
    }

    /// Flush `device`'s pending dirty pages as ascending-LBN writes.
    ///
    /// Writes go through [`DeviceModel::service_write`] one page at a
    /// time (ascending), so an IMR backend sees each page write and can
    /// amplify it with neighbor rewrites; the backend's
    /// `imr.neighbor_rewrites` counter is diffed across the flush and
    /// the delta recorded as [`Counter::NeighborRewrite`].
    pub fn flush(&mut self, device: usize) -> Result<BackendFlushReport> {
        let pages = self.cache(device)?.take_writeback();
        if pages.is_empty() {
            return Ok(BackendFlushReport::default());
        }
        let mut sorted = pages;
        sorted.sort_unstable();
        let rewrites_before = neighbor_rewrites(&self.volume, device)?;
        let mut report = BackendFlushReport {
            pages: sorted.len() as u64,
            ..BackendFlushReport::default()
        };
        for &(l, n) in &sorted {
            let t = self.volume.service_write(device, Request::new(l, n))?;
            report.blocks += n;
            report.total_io_ms += t.total_ms();
        }
        report.neighbor_rewrites =
            neighbor_rewrites(&self.volume, device)?.saturating_sub(rewrites_before);
        self.metrics.phase(Phase::Writeback, report.total_io_ms);
        self.metrics.counter(Counter::WritebackFlush, 1);
        self.metrics
            .counter(Counter::NeighborRewrite, report.neighbor_rewrites);
        Ok(report)
    }

    /// Flush every device's pending dirty pages.
    pub fn flush_all(&mut self) -> Result<BackendFlushReport> {
        let mut report = BackendFlushReport::default();
        for device in 0..self.volume.num_devices() {
            report.absorb(self.flush(device)?);
        }
        Ok(report)
    }
}

/// The backend's `imr.neighbor_rewrites` counter, or 0 on backends
/// that do not report one.
fn neighbor_rewrites<D: DeviceModel>(volume: &Volume<D>, device: usize) -> Result<u64> {
    Ok(volume
        .counters(device)?
        .into_iter()
        .find(|(k, _)| k == "imr.neighbor_rewrites")
        .map(|(_, v)| v)
        .unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use multimap_disksim::profiles;
    use multimap_lvm::backend_volume;

    fn store(backend: &str) -> DeviceStore<Box<dyn DeviceModel>> {
        let geom = profiles::small();
        let volume = backend_volume(backend, &geom, 1).unwrap();
        let cfg = CacheConfig {
            writeback_batch: 8,
            ..Default::default()
        };
        DeviceStore::new(volume, cfg)
    }

    /// A bad device index is a typed error on every entry point, not
    /// a slice-index panic.
    #[test]
    fn bad_device_index_is_a_typed_error() {
        let mut s = store("ssd");
        let no_such = |e: crate::StoreError| {
            matches!(
                e,
                crate::StoreError::Volume(LvmError::NoSuchDisk { disk: 3, ndisks: 1 })
            )
        };
        assert!(no_such(s.write(3, 0, 1).unwrap_err()));
        assert!(no_such(s.flush(3).unwrap_err()));
        assert!(s.cache(3).is_err());
        assert!(s.cache(0).is_ok());
    }

    #[test]
    fn writes_batch_then_flush_ascending() {
        let mut s = store("disk");
        let mut flushed = None;
        for i in 0..8u64 {
            // Descending dirty order; the flush must still be ascending.
            let r = s.write(0, (8 - i) * 1000, 2).unwrap();
            if r.is_some() {
                flushed = r;
            }
        }
        let report = flushed.expect("8th dirty page must trigger the batch flush");
        assert_eq!(report.pages, 8);
        assert_eq!(report.blocks, 16);
        assert!(report.total_io_ms > 0.0);
        assert_eq!(report.neighbor_rewrites, 0);
        assert_eq!(s.metrics().counter_value(Counter::WritebackFlush), 1);
    }

    #[test]
    fn imr_flush_reports_rmw_amplification() {
        let geom = profiles::small();
        let mut s = store("imr");
        // Write a top track (odd cylinder) first: its data must survive
        // later bottom-track writes, so it is RMW-protected from then on.
        let top = geom.lbn_of(1, 0, 0).unwrap();
        s.write(0, top, 4).unwrap();
        let first = s.flush_all().unwrap();
        assert_eq!(
            first.neighbor_rewrites, 0,
            "a top-track write never triggers RMW"
        );
        // A write on the interlaced bottom neighbor (cylinder 2) must
        // now pay a read-modify-write of the written top track.
        let bottom = geom.lbn_of(2, 0, 0).unwrap();
        s.write(0, bottom, 4).unwrap();
        let second = s.flush_all().unwrap();
        assert!(
            second.neighbor_rewrites > 0,
            "bottom-track write beside a written top track on {} must amplify",
            geom.name
        );
        assert_eq!(
            s.metrics().counter_value(Counter::NeighborRewrite),
            second.neighbor_rewrites,
            "telemetry must reconcile with the flush reports"
        );
        assert!(second.total_io_ms > 0.0);
    }
}
