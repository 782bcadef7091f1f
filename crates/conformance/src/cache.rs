//! Page-cache conformance: result identity and counter reconciliation,
//! on every device backend.
//!
//! The cache layer must be *transparent* to everything except timing:
//!
//! * **Result identity** — a query through a [`PageCache`] returns the
//!   same cell count and payload checksum as the same query against a
//!   bare volume of the same backend, for every mapping family and
//!   eviction policy.
//! * **Cell-set identity** — the bare run transfers exactly the
//!   region's cells, and the cached run fetches each demanded cell it
//!   missed exactly once: its distinct fetched cells inside the region
//!   number exactly its recorded misses.
//! * **Counter reconciliation** — the executor-recorded telemetry and
//!   the cache's own bookkeeping must agree exactly: every demanded
//!   cell is either a hit or a miss, every prefetch use pairs with an
//!   issued prefetch, and the per-query phase decomposition still
//!   reconciles with the measured I/O time under the backend's own
//!   timing semantics (cache hits contribute zero).

use std::collections::BTreeSet;

use multimap_core::{BoxRegion, Coord, GridSpec};
use multimap_disksim::{DiskGeometry, ServiceLog};
use multimap_lvm::backend_volume;
use multimap_query::{QueryExecutor, QueryRequest};
use multimap_store::{CacheConfig, EvictionKind, PageCache, PrefetchMode};
use multimap_telemetry::{Counter, Metrics};

use crate::backend::check_backend_telemetry;
use crate::differential::{fetched_cells, standard_mappings};

/// Run a beam sweep along the last dimension through every standard
/// mapping on the registry `backend` (`"disk"`, `"ssd"`, `"imr"`),
/// uncached and cached, and verify the cache conformance contract for
/// `eviction` at `capacity_pages`. Returns a description of the first
/// discrepancy.
pub fn check_cached_sweep(
    geom: &DiskGeometry,
    grid: &GridSpec,
    backend: &str,
    eviction: EvictionKind,
    capacity_pages: usize,
) -> Result<(), String> {
    let last_dim = grid.extents().len() - 1;
    let steps = grid.extent(last_dim);
    let config = CacheConfig {
        capacity_pages,
        eviction,
        prefetch: PrefetchMode::Adjacency { depth: 1 },
        ..CacheConfig::default()
    };

    for mapping in standard_mappings(geom, grid) {
        let label = format!("{backend}/{}/{}", mapping.name(), eviction.name());
        let volume = |what: &str| {
            backend_volume(backend, geom, 1).map_err(|e| format!("{label}: {what} volume: {e}"))
        };
        let bare_volume = volume("bare")?;
        let bare_exec = QueryExecutor::new(&bare_volume, 0);
        let cached_volume = volume("cached")?;
        let cached_exec = QueryExecutor::new(&cached_volume, 0);
        let cache = PageCache::new(&config);

        let mut per_query: Vec<Metrics> = Vec::new();
        let mut demanded = 0u64;
        for z in 0..steps {
            let mut anchor = vec![0u64; grid.extents().len()];
            anchor[last_dim] = z;
            let region = BoxRegion::beam(grid, 1, &anchor);
            let expected: BTreeSet<Coord> = region.cells_vec().into_iter().collect();
            demanded += region.cells();

            let mut bare_log = ServiceLog::new();
            let bare = bare_exec
                .execute(
                    QueryRequest::beam(mapping.as_ref(), &region)
                        .with_observer(&mut bare_log.recorder()),
                )
                .map_err(|e| format!("{label}: bare query failed: {e}"))?;
            let mut metrics = Metrics::new();
            let mut cached_log = ServiceLog::new();
            let cached = cached_exec
                .execute(
                    QueryRequest::beam(mapping.as_ref(), &region)
                        .with_cache(&cache)
                        .with_observer(&mut cached_log.recorder())
                        .with_sink(&mut metrics),
                )
                .map_err(|e| format!("{label}: cached query failed: {e}"))?;

            if cached.cells != bare.cells {
                return Err(format!(
                    "{label}: step {z} returned {} cells cached vs {} bare",
                    cached.cells, bare.cells
                ));
            }
            if cached.payload != bare.payload {
                return Err(format!(
                    "{label}: step {z} payload {:#x} cached vs {:#x} bare",
                    cached.payload, bare.payload
                ));
            }
            if fetched_cells(mapping.as_ref(), &bare_log) != expected {
                return Err(format!(
                    "{label}: step {z} bare run transferred a cell set other than the region"
                ));
            }
            let fetched_demand = fetched_cells(mapping.as_ref(), &cached_log)
                .intersection(&expected)
                .count() as u64;
            let misses = metrics.counter_value(Counter::PageCacheMiss);
            if fetched_demand != misses {
                return Err(format!(
                    "{label}: step {z} fetched {fetched_demand} demanded cells \
                     but recorded {misses} misses"
                ));
            }
            // The phase/service reconciliation holds for cached queries
            // too: hits are free, serviced requests decompose exactly.
            check_backend_telemetry(backend, &format!("{label} step {z}"), &metrics, &cached)?;
            per_query.push(metrics);
        }

        let merged = Metrics::merge_ordered(per_query.iter());
        let stats = cache.stats();
        let pairs = [
            ("page_cache_hit", Counter::PageCacheHit, stats.hits),
            ("page_cache_miss", Counter::PageCacheMiss, stats.misses),
            (
                "cache_prefetch_issued",
                Counter::CachePrefetchIssued,
                stats.prefetch_issued,
            ),
            (
                "cache_prefetch_used",
                Counter::CachePrefetchUsed,
                stats.prefetch_used,
            ),
        ];
        for (name, counter, internal) in pairs {
            let recorded = merged.counter_value(counter);
            if recorded != internal {
                return Err(format!(
                    "{label}: sink recorded {recorded} {name} but the \
                     cache's own stats say {internal}"
                ));
            }
        }
        let hits = merged.counter_value(Counter::PageCacheHit);
        let misses = merged.counter_value(Counter::PageCacheMiss);
        if hits + misses != demanded {
            return Err(format!(
                "{label}: {hits} hits + {misses} misses != {demanded} demanded cells"
            ));
        }
        let issued = merged.counter_value(Counter::CachePrefetchIssued);
        let used = merged.counter_value(Counter::CachePrefetchUsed);
        if used > issued {
            return Err(format!(
                "{label}: {used} prefetch uses exceed {issued} issues"
            ));
        }
        if stats.evictions > 0 && capacity_pages > 0 && cache.len() > capacity_pages {
            return Err(format!(
                "{label}: {} resident pages exceed capacity {capacity_pages}",
                cache.len()
            ));
        }
    }
    Ok(())
}
