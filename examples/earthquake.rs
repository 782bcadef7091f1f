//! Skewed-dataset demo (the paper's Section 5.4): build a synthetic
//! earthquake octree, detect uniform subareas, MultiMap each one, and
//! compare beam queries against the linearised leaf layouts.
//!
//! Run with: `cargo run --release --example earthquake`

use multimap::disksim::profiles;
use multimap::lvm::LogicalVolume;
use multimap::octree::{
    beam_box, detect_regions, earthquake_tree, EarthquakeConfig, LeafLinearMapping, LeafOrder,
    SkewedMultiMap,
};
use multimap::query::service_lbns;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn main() {
    let cfg = EarthquakeConfig::default();
    let tree = earthquake_tree(&cfg);
    println!(
        "earthquake octree: domain {}^3, {} leaf elements",
        tree.domain_size(),
        tree.leaf_count()
    );

    let regions = detect_regions(&tree);
    println!("uniform subareas after region growing: {}", regions.len());
    for (i, r) in regions.iter().take(5).enumerate() {
        println!(
            "  region {i}: level {} box {:?}..{:?} = {} elements ({:.1}%)",
            r.level,
            r.lo,
            r.hi,
            r.cells(),
            100.0 * r.cells() as f64 / tree.leaf_count() as f64
        );
    }

    let geom = profiles::atlas_10k_iii();
    let volume = LogicalVolume::new(geom.clone(), 1);
    let (skewed, stats) = SkewedMultiMap::build(&geom, &tree, 4_096).expect("dataset fits");
    println!(
        "\nMultiMap placement: {} regions mapped ({} leaves), {} leftover leaves -> linear tail",
        stats.multimapped_regions, stats.multimapped_leaves, stats.leftover_leaves
    );

    let baselines = [LeafOrder::XMajor, LeafOrder::ZOrder, LeafOrder::Hilbert]
        .map(|o| LeafLinearMapping::new(&tree, o, 0).expect("an octree fits a 3-D curve"));

    // Beam queries along X, Y, Z through random anchors (paper Fig. 7a).
    let mut rng = StdRng::seed_from_u64(11);
    println!("\nbeam queries (avg I/O per element, ms; 5 runs each):");
    println!("{:>10} {:>8} {:>8} {:>8}", "mapping", "X", "Y", "Z");
    let runs = 5;
    let anchors: Vec<[u64; 3]> = (0..runs)
        .map(|_| {
            [
                rng.random_range(0..tree.domain_size()),
                rng.random_range(0..tree.domain_size()),
                rng.random_range(0..tree.domain_size() / 4),
            ]
        })
        .collect();

    for b in &baselines {
        let mut row = format!("{:>10}", b.name());
        for dim in 0..3 {
            let mut total = 0.0;
            let mut cells = 0u64;
            for anchor in &anchors {
                let (lo, hi) = beam_box(&tree, dim, *anchor);
                let leaves = tree.leaves_intersecting(lo, hi);
                let lbns: Vec<u64> = leaves.iter().map(|l| b.lbn_of_leaf(l)).collect();
                volume.reset();
                let r = service_lbns(&volume, 0, &lbns, false).expect("leaf LBNs serviceable");
                total += r.total_io_ms;
                cells += r.cells;
            }
            row.push_str(&format!(" {:>8.3}", total / cells as f64));
        }
        println!("{row}");
    }
    {
        let mut row = format!("{:>10}", "MultiMap");
        for dim in 0..3 {
            let mut total = 0.0;
            let mut cells = 0u64;
            for anchor in &anchors {
                let (lo, hi) = beam_box(&tree, dim, *anchor);
                let leaves = tree.leaves_intersecting(lo, hi);
                let lbns: Vec<u64> = leaves.iter().map(|l| skewed.lbn_of_leaf(l)).collect();
                volume.reset();
                let sptf = lbns.len() <= 2048;
                let r = service_lbns(&volume, 0, &lbns, sptf).expect("leaf LBNs serviceable");
                total += r.total_io_ms;
                cells += r.cells;
            }
            row.push_str(&format!(" {:>8.3}", total / cells as f64));
        }
        println!("{row}");
    }
    println!("\n(X is the major order of the Naive layout, so Naive streams on X;");
    println!(" MultiMap streams on X too and keeps Y/Z semi-sequential.)");
}
