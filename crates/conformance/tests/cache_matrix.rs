//! Cache conformance matrix: result identity, cell-set identity and
//! counter reconciliation across every device backend × mapping family
//! × eviction policy, at a capacity that evicts and one that doesn't.

use multimap_conformance::check_cached_sweep;
use multimap_core::GridSpec;
use multimap_disksim::{profiles, BACKEND_NAMES};
use multimap_store::EvictionKind;

#[test]
fn cached_sweeps_reconcile_across_backends_policies_and_mappings() {
    let geom = profiles::small();
    let grid = GridSpec::new([60u64, 8, 6]);
    for backend in BACKEND_NAMES {
        for eviction in [EvictionKind::Clock, EvictionKind::Lru, EvictionKind::TwoQ] {
            // Roomy: the whole sweep fits, nothing evicts.
            check_cached_sweep(&geom, &grid, backend, eviction, 128)
                .unwrap_or_else(|e| panic!("roomy {backend}/{}: {e}", eviction.name()));
            // Tight: a fraction of one beam, constant eviction pressure.
            check_cached_sweep(&geom, &grid, backend, eviction, 5)
                .unwrap_or_else(|e| panic!("tight {backend}/{}: {e}", eviction.name()));
        }
    }
}
