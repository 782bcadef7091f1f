//! The attribution contract `serve_scenario` relies on: under
//! `QueuedSptf` every backend reports a served request's index in the
//! submitted batch as its `admission_rank`, so the ranks of one batch
//! form a permutation and `reqs[e.admission_rank] == e.request`.

use multimap_disksim::{profiles, Request, BACKEND_NAMES};
use multimap_lvm::{backend_volume, SchedulePolicy};

#[test]
fn queued_sptf_admission_rank_is_the_batch_index_on_every_backend() {
    let geom = profiles::small();
    for backend in BACKEND_NAMES {
        for (n, depth) in [(1, 1), (7, 32), (48, 4), (64, 64), (200, 16), (200, 256)] {
            let volume = backend_volume(backend, &geom, 1).unwrap();
            let capacity = volume.with_device(0, |d| d.capacity_blocks()).unwrap();
            // Seeded requests; every fourth repeats an earlier one, as
            // identical beams from two tenants do.
            let mut x = 0xA77 + (n * depth) as u64;
            let mut reqs: Vec<Request> = Vec::new();
            for i in 0..n {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                let nblocks = 1 + (x >> 60) % 4;
                let fresh = Request::new((x >> 17) % (capacity - nblocks), nblocks);
                reqs.push(if i % 4 == 3 { reqs[(x >> 33) as usize % i] } else { fresh });
            }
            let (_, log) =
                volume.service_batch_logged(0, &reqs, SchedulePolicy::QueuedSptf(depth)).unwrap();
            let mut seen = vec![false; n];
            for e in log.events() {
                let at = format!("{backend} n={n} depth={depth} seq={}", e.seq);
                assert!(e.admission_rank < n && !seen[e.admission_rank], "{at}: rank repeated");
                seen[e.admission_rank] = true;
                assert_eq!(reqs[e.admission_rank], e.request, "{at}");
            }
            assert!(seen.iter().all(|&s| s), "{backend} n={n} depth={depth}: a request unserved");
        }
    }
}
