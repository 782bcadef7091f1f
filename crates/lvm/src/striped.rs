//! A flat volume address space over multiple disks.
//!
//! The paper's LVM "exports a single logical volume mapped across
//! multiple disks" (Section 5.1). [`StripedVolume`] provides that view:
//! volume LBNs are striped over the member disks in fixed-size stripe
//! units, and the adjacency-model calls are answered *within* the owning
//! disk (adjacent blocks are a single-disk concept — the whole point is
//! the mechanical relationship between nearby tracks).
//!
//! For MultiMap the stripe unit should be at least a basic cube's span
//! so cubes never straddle disks; [`StripedVolume::new`] takes the unit
//! in blocks and leaves that policy to the caller (Section 4.4 defers
//! declustering policy to "existing declustering strategies").

use multimap_disksim::{Lbn, Request};

use crate::volume::{LogicalVolume, SchedulePolicy, VolumeBatchTiming};

/// A volume-relative block address.
pub type VolumeLbn = u64;

/// Striped flat address space over a [`LogicalVolume`].
pub struct StripedVolume {
    volume: LogicalVolume,
    stripe_blocks: u64,
}

impl StripedVolume {
    /// Stripe `volume` in units of `stripe_blocks`.
    ///
    /// # Panics
    /// Panics if `stripe_blocks` is zero; [`StripedVolume::try_new`] is
    /// the non-panicking variant.
    pub fn new(volume: LogicalVolume, stripe_blocks: u64) -> Self {
        // staticcheck: allow(no-unwrap) — documented panic on a construction
        // precondition; every fallible caller has try_new.
        Self::try_new(volume, stripe_blocks).expect("stripe unit must be positive")
    }

    /// Stripe `volume` in units of `stripe_blocks`, or
    /// [`crate::LvmError::ZeroStripeUnit`] when the unit is zero.
    pub fn try_new(volume: LogicalVolume, stripe_blocks: u64) -> crate::Result<Self> {
        if stripe_blocks == 0 {
            return Err(crate::LvmError::ZeroStripeUnit);
        }
        Ok(StripedVolume {
            volume,
            stripe_blocks,
        })
    }

    /// The underlying multi-disk volume.
    pub fn inner(&self) -> &LogicalVolume {
        &self.volume
    }

    /// Stripe unit in blocks.
    pub fn stripe_blocks(&self) -> u64 {
        self.stripe_blocks
    }

    /// Total volume capacity in blocks.
    pub fn total_blocks(&self) -> u64 {
        self.volume.geometry().total_blocks() * self.volume.num_devices() as u64
    }

    /// Translate a volume LBN to `(disk, disk LBN)`.
    pub fn locate(&self, vlbn: VolumeLbn) -> (usize, Lbn) {
        let n = self.volume.num_devices() as u64;
        let stripe = vlbn / self.stripe_blocks;
        let offset = vlbn % self.stripe_blocks;
        let disk = (stripe % n) as usize;
        let local = (stripe / n) * self.stripe_blocks + offset;
        (disk, local)
    }

    /// Inverse of [`Self::locate`].
    pub fn volume_lbn(&self, disk: usize, local: Lbn) -> VolumeLbn {
        let n = self.volume.num_devices() as u64;
        let stripe_on_disk = local / self.stripe_blocks;
        let offset = local % self.stripe_blocks;
        (stripe_on_disk * n + disk as u64) * self.stripe_blocks + offset
    }

    /// The `GET_ADJACENT` call in volume coordinates: resolved on the
    /// owning disk, then translated back.
    pub fn get_adjacent(&self, vlbn: VolumeLbn, step: u32) -> multimap_disksim::Result<VolumeLbn> {
        let (disk, local) = self.locate(vlbn);
        let adj = self.volume.get_adjacent(local, step)?;
        Ok(self.volume_lbn(disk, adj))
    }

    /// The `GET_TRACK_BOUNDARIES` call in volume coordinates. The track
    /// is a single-disk object; bounds are translated individually (they
    /// stay within one stripe only if tracks fit a stripe unit).
    pub fn get_track_boundaries(
        &self,
        vlbn: VolumeLbn,
    ) -> multimap_disksim::Result<(VolumeLbn, VolumeLbn)> {
        let (disk, local) = self.locate(vlbn);
        let (first, last) = self.volume.get_track_boundaries(local)?;
        Ok((self.volume_lbn(disk, first), self.volume_lbn(disk, last)))
    }

    /// Service a batch of volume-relative single-cell requests: routed
    /// per disk and serviced in parallel (makespan semantics).
    pub fn service_batch(
        &self,
        vlbns: &[VolumeLbn],
        policy: SchedulePolicy,
    ) -> crate::Result<VolumeBatchTiming> {
        let ndisks = self.volume.num_devices();
        let mut per_disk: Vec<Vec<Request>> = vec![Vec::new(); ndisks];
        for &v in vlbns {
            let (disk, local) = self.locate(v);
            per_disk[disk].push(Request::single(local));
        }
        let batches: Vec<(usize, Vec<Request>, SchedulePolicy)> = per_disk
            .into_iter()
            .enumerate()
            .filter(|(_, reqs)| !reqs.is_empty())
            .map(|(d, reqs)| (d, reqs, policy))
            .collect();
        self.volume.service_striped(&batches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multimap_disksim::profiles;

    fn sv(ndisks: usize, stripe: u64) -> StripedVolume {
        StripedVolume::new(LogicalVolume::new(profiles::small(), ndisks), stripe)
    }

    #[test]
    fn locate_roundtrip() {
        let v = sv(3, 128);
        for vlbn in [0u64, 1, 127, 128, 500_000, 999_999] {
            let (disk, local) = v.locate(vlbn);
            assert!(disk < 3);
            assert_eq!(v.volume_lbn(disk, local), vlbn);
        }
    }

    #[test]
    fn stripes_rotate_over_disks() {
        let v = sv(3, 100);
        assert_eq!(v.locate(0).0, 0);
        assert_eq!(v.locate(100).0, 1);
        assert_eq!(v.locate(200).0, 2);
        assert_eq!(v.locate(300).0, 0);
        // Second stripe on disk 0 lands right after its first.
        assert_eq!(v.locate(300), (0, 100));
    }

    #[test]
    fn capacity_sums_disks() {
        let v = sv(4, 64);
        assert_eq!(v.total_blocks(), 4 * v.inner().geometry().total_blocks());
    }

    #[test]
    fn adjacency_stays_on_the_owning_disk() {
        let v = sv(2, 1 << 20); // stripe large enough for track math
        let vlbn = 5u64;
        let adj = v.get_adjacent(vlbn, 1).unwrap();
        let (d0, _) = v.locate(vlbn);
        let (d1, local) = v.locate(adj);
        assert_eq!(d0, d1, "adjacent block must stay on the same disk");
        // And matches the single-disk adjacency.
        assert_eq!(local, v.inner().get_adjacent(5, 1).unwrap());
    }

    #[test]
    fn track_boundaries_translate() {
        let v = sv(2, 1 << 20);
        let (first, last) = v.get_track_boundaries(7).unwrap();
        let (f_local, l_local) = v.inner().get_track_boundaries(7).unwrap();
        assert_eq!(v.locate(first).1, f_local);
        assert_eq!(v.locate(last).1, l_local);
    }

    #[test]
    fn batch_routes_and_parallelises() {
        let v = sv(2, 64);
        // Alternate stripes -> both disks busy.
        let vlbns: Vec<u64> = (0..8).map(|i| i * 64).collect();
        let t = v
            .service_batch(&vlbns, SchedulePolicy::AscendingLbn)
            .unwrap();
        assert_eq!(t.blocks(), 8);
        assert!(t.per_disk[0].requests == 4 && t.per_disk[1].requests == 4);
        assert!(t.makespan_ms < t.total_busy_ms());
    }

    #[test]
    #[should_panic(expected = "stripe unit")]
    fn zero_stripe_panics() {
        let _ = sv(2, 0);
    }
}
