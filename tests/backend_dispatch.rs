//! Backend dispatch equivalence: the rotating disk served behind the
//! [`DeviceModel`] trait — statically dispatched in a concrete
//! `Volume<DiskSim>` (`LogicalVolume`), called directly through the
//! trait, or boxed as `dyn DeviceModel` in a registry-built
//! `Volume<Box<dyn DeviceModel>>` — must be **byte-identical** in every
//! caller-visible output: batch
//! timings (bit-exact `total_ms`), payload checksums, and full
//! `ServiceEvent` logs. The equivalence must also survive the
//! experiment engine at 1, 2, 4 and 8 threads, since that is how the
//! bench and conformance suites actually drive the backends.

use multimap::disksim::{profiles, DeviceModel, Discipline, DiskSim, Request, ServiceLog};
use multimap::lvm::{backend_volume, LogicalVolume};

type Run = (u64, u64, u64, u64, ServiceLog);

/// One deterministic scattered workload, seeded so each sweep cell
/// serves a distinct batch.
fn workload(total: u64, seed: u64) -> Vec<Request> {
    (0..96u64)
        .map(|i| {
            let lbn = i
                .wrapping_mul(48_611)
                .wrapping_add(seed.wrapping_mul(7_907_693))
                % (total - 8);
            Request::new(lbn, 1 + (i + seed) % 4)
        })
        .collect()
}

/// Serve `reqs` on a fresh rotating device through one of the three
/// dispatch paths, returning every caller-visible output.
fn serve(path: usize, reqs: &[Request], policy: Discipline) -> Run {
    let geom = profiles::small();
    let mut log = ServiceLog::new();
    let timing = match path {
        // (a) The concrete, statically dispatched logical volume.
        0 => {
            let volume = LogicalVolume::new(geom, 1);
            let (t, l) = volume
                .service_batch_logged(0, reqs, policy)
                .expect("workload is in range");
            log = l;
            t
        }
        // (b) The concrete simulator through the trait's methods.
        1 => {
            let mut sim = DiskSim::new(geom);
            sim.service_batch_observed(reqs, policy, &mut log.recorder())
                .expect("workload is in range")
        }
        // (c) A registry-built volume of boxed trait objects.
        _ => {
            let volume = backend_volume("disk", &geom, 1).expect("disk is registered");
            let (t, l) = volume
                .service_batch_logged(0, reqs, policy)
                .expect("workload is in range");
            log = l;
            t
        }
    };
    (
        timing.requests,
        timing.blocks,
        timing.total_ms.to_bits(),
        timing.payload,
        log,
    )
}

#[test]
fn trait_dispatch_is_byte_identical_for_every_policy() {
    let total = profiles::small().total_blocks();
    for policy in [
        Discipline::InOrder,
        Discipline::AscendingLbn,
        Discipline::Sptf,
        Discipline::QueuedSptf(16),
    ] {
        let reqs = workload(total, 7);
        let reference = serve(0, &reqs, policy);
        for path in [1usize, 2] {
            let run = serve(path, &reqs, policy);
            assert_eq!(run, reference, "path {path} diverged under {policy:?}");
        }
    }
}

/// The three dispatch paths, fanned across the experiment engine: the
/// full (path × seed) matrix is identical at 1, 2, 4 and 8 threads,
/// and within each thread count the three paths agree cell for cell.
#[test]
fn trait_dispatch_is_thread_count_invariant() {
    let total = profiles::small().total_blocks();
    let cells: Vec<(usize, u64)> = (0..3usize)
        .flat_map(|p| (0..4u64).map(move |s| (p, s)))
        .collect();
    let run_all = |threads: usize| {
        multimap::engine::set_threads(threads);
        multimap::engine::sweep(&cells, |&(path, seed)| {
            let reqs = workload(total, seed);
            serve(path, &reqs, Discipline::QueuedSptf(8))
        })
    };
    let reference = run_all(1);
    // Within one thread count, every path serves each seed identically.
    for seed in 0..4usize {
        let base = &reference[seed];
        for path in 1..3usize {
            assert_eq!(
                &reference[path * 4 + seed],
                base,
                "path {path} diverged on seed {seed}"
            );
        }
    }
    for threads in [2usize, 4, 8] {
        assert_eq!(
            run_all(threads),
            reference,
            "dispatch matrix diverged at {threads} threads"
        );
    }
}
