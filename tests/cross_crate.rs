//! Cross-crate integration: earthquake and OLAP pipelines end to end,
//! multi-disk volumes, and the update path.

use multimap::core::{GridSpec, Mapping, MultiMapping, NaiveMapping};
use multimap::disksim::{profiles, Request};
use multimap::lvm::{Cyclic, Declustering, LogicalVolume, RoundRobin, SchedulePolicy};
use multimap::octree::{
    beam_box, earthquake_tree, EarthquakeConfig, LeafLinearMapping, LeafOrder, SkewedMultiMap,
};
use multimap::olap::{self, OlapQuery};
use multimap::query::{service_lbns, workload_rng, QueryExecutor, QueryRequest};

/// Earthquake pipeline: tree -> regions -> placements -> beam queries,
/// with MultiMap winning the cross-stride (Z) beams.
#[test]
fn earthquake_pipeline_end_to_end() {
    let cfg = EarthquakeConfig::small();
    let tree = earthquake_tree(&cfg);
    let geom = profiles::small();
    let volume = LogicalVolume::new(geom.clone(), 1);

    let naive = LeafLinearMapping::new(&tree, LeafOrder::XMajor, 0).unwrap();
    let (skewed, stats) = SkewedMultiMap::build(&geom, &tree, 32).unwrap();
    assert_eq!(
        stats.multimapped_leaves + stats.leftover_leaves,
        tree.leaf_count()
    );

    let (lo, hi) = beam_box(&tree, 2, [3, 5, 0]);
    let leaves = tree.leaves_intersecting(lo, hi);
    assert!(!leaves.is_empty());

    let naive_lbns: Vec<u64> = leaves.iter().map(|l| naive.lbn_of_leaf(l)).collect();
    let mm_lbns: Vec<u64> = leaves.iter().map(|l| skewed.lbn_of_leaf(l)).collect();
    let rn = service_lbns(&volume, 0, &naive_lbns, false).unwrap();
    volume.reset();
    let rm = service_lbns(&volume, 0, &mm_lbns, true).unwrap();
    assert_eq!(rn.cells, rm.cells);
    assert!(
        rm.total_io_ms <= rn.total_io_ms * 1.2,
        "MultiMap Z-beam {:.2} vs Naive {:.2}",
        rm.total_io_ms,
        rn.total_io_ms
    );
}

/// OLAP pipeline: rows -> cube -> chunk mapping -> Q1..Q5 run and fetch
/// the right cell counts.
#[test]
fn olap_pipeline_end_to_end() {
    let chunk = olap::cube::small_chunk();
    let rows = olap::generate_rows(&olap::RowGenConfig {
        rows: 10_000,
        seed: 5,
    });
    let counts = olap::rows::load_into_cube(&rows, &olap::rolled_up_cube());
    assert_eq!(counts.iter().map(|&c| c as u64).sum::<u64>(), 10_000);

    let geom = profiles::cheetah_36es();
    let volume = LogicalVolume::new(geom.clone(), 1);
    let mm = MultiMapping::new(&geom, chunk.clone()).unwrap();
    let exec = QueryExecutor::new(&volume, 0);
    let mut rng = workload_rng(1);
    for q in olap::ALL_QUERIES {
        let region = q.region(&chunk, &mut rng);
        let r = if q.is_beam() {
            exec.execute(QueryRequest::beam(&mm, &region)).unwrap()
        } else {
            exec.execute(QueryRequest::range(&mm, &region)).unwrap()
        };
        assert_eq!(r.cells, region.cells(), "{}", q.label());
        assert!(r.total_io_ms > 0.0);
    }
    // Q1 streams on the major order; Q2 is semi-sequential.
    let mut rng = workload_rng(2);
    let q1 = exec.execute(QueryRequest::beam(&mm, &OlapQuery::Q1.region(&chunk, &mut rng))).unwrap();
    let q2 = exec.execute(QueryRequest::beam(&mm, &OlapQuery::Q2.region(&chunk, &mut rng))).unwrap();
    assert!(q1.per_cell_ms() < q2.per_cell_ms());
}

/// Multi-disk volume: declustering spreads chunks; striped service
/// reports the makespan of the slowest disk.
#[test]
fn multi_disk_declustered_volume() {
    let geom = profiles::small();
    let volume = LogicalVolume::new(geom.clone(), 4);
    let strategy = RoundRobin;
    // 8 chunks declustered over 4 disks, each chunk one batch.
    let batches: Vec<(usize, Vec<Request>, SchedulePolicy)> = (0..8u64)
        .map(|chunk| {
            let disk = strategy.disk_for(chunk, std::num::NonZeroUsize::new(4).unwrap());
            let reqs = (0..16u64)
                .map(|i| Request::single(chunk * 4096 + i * 37))
                .collect();
            (disk, reqs, SchedulePolicy::AscendingLbn)
        })
        .collect();
    let t = volume.service_striped(&batches).unwrap();
    assert_eq!(t.blocks(), 8 * 16);
    // Every disk got exactly two chunks' worth of requests.
    for d in 0..4 {
        assert_eq!(t.per_disk[d].requests, 32);
    }
    assert!(t.makespan_ms <= t.total_busy_ms());
    assert!(t.makespan_ms >= t.total_busy_ms() / 4.0);

    // Cyclic declustering with coprime skip also balances.
    let cyc = Cyclic::new(3);
    let mut counts = [0; 4];
    for u in 0..100 {
        counts[cyc.disk_for(u, std::num::NonZeroUsize::new(4).unwrap())] += 1;
    }
    assert!(counts.iter().all(|&c| c == 25));
}

/// The update path (Section 4.6) composes with a mapping: overflow pages
/// land outside the mapped span, and queries read base + overflow.
#[test]
fn updates_compose_with_mapping() {
    let geom = profiles::small();
    let grid = GridSpec::new([40u64, 8, 4]);
    let mm = MultiMapping::new(&geom, grid.clone()).unwrap();
    let overflow_base = mm.layout().end_lbn(&geom);
    let mut store = multimap::core::CellStore::new(
        multimap::core::UpdateConfig {
            cell_capacity: 8,
            fill_factor: 0.75,
            reclaim_threshold: 0.25,
        },
        overflow_base,
    );
    // Bulk-load everything, then hammer one cell.
    for i in 0..grid.cells() {
        store.bulk_load(i);
    }
    let hot = grid.linear_index(&[3, 2, 1]);
    for _ in 0..20 {
        store.insert(hot);
    }
    let overflow = store.overflow_lbns(hot);
    assert!(!overflow.is_empty());
    assert!(overflow.iter().all(|&l| l >= overflow_base));
    // A query for the hot cell reads its block plus the overflow chain.
    let volume = LogicalVolume::new(geom.clone(), 1);
    let mut lbns = vec![mm.lbn_of(&[3, 2, 1]).unwrap()];
    lbns.extend_from_slice(overflow);
    let r = service_lbns(&volume, 0, &lbns, false).unwrap();
    assert_eq!(r.cells as usize, 1 + overflow.len());
}

/// Naive and MultiMap agree on which cells exist (same grid domain).
#[test]
fn mappings_cover_identical_domains() {
    let geom = profiles::small();
    let grid = GridSpec::new([30u64, 6, 4]);
    let naive = NaiveMapping::new(grid.clone(), 0);
    let mm = MultiMapping::new(&geom, grid.clone()).unwrap();
    grid.for_each_cell(|c| {
        assert!(naive.lbn_of(c).is_ok());
        assert!(mm.lbn_of(c).is_ok());
    });
    assert!(naive.lbn_of(&[30, 0, 0]).is_err());
    assert!(mm.lbn_of(&[30, 0, 0]).is_err());
}
