//! # multimap-lvm — logical volume manager exposing the adjacency model
//!
//! The paper's prototype (Section 5.1) runs queries through a logical
//! volume manager that (a) exports a logical volume striped across
//! multiple disks at basic-cube granularity and (b) exposes the adjacency
//! model to applications through two interface calls, reproduced here as
//! [`Volume::get_adjacent`] and [`Volume::get_track_boundaries`].
//!
//! [`Volume`] is generic over the [`multimap_disksim::DeviceModel`]
//! backend: [`LogicalVolume`] is the rotating-disk volume,
//! [`backend_volume`] builds one over registry-selected backends, and
//! [`LogicalVolume::with_recovery`] wraps every disk in the
//! [`Recovering`] decorator (bounded retry + bad-block remapping).
//!
//! Time is simulated, so multi-disk parallelism needs no threads: a
//! striped batch is serviced per disk and the volume reports the
//! *makespan* (the slowest disk), which is exactly how parallel I/O would
//! complete in wall-clock time.
//!
//! ```
//! use multimap_disksim::profiles;
//! use multimap_lvm::LogicalVolume;
//!
//! let volume = LogicalVolume::new(profiles::small(), 2);
//! // The paper's two interface calls:
//! let adjacent = volume.get_adjacent(0, 1).unwrap();
//! let (first, last) = volume.get_track_boundaries(adjacent).unwrap();
//! assert!(first <= adjacent && adjacent <= last);
//! assert_eq!(volume.adjacency_limit(), 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decluster;
pub mod error;
pub mod recovery;
pub mod striped;
pub mod volume;

pub use decluster::{Cyclic, Declustering, RoundRobin};
pub use error::{LvmError, Result};
pub use recovery::{Recovering, RecoveryConfig, RecoveryStats, RemapTable};
pub use striped::{StripedVolume, VolumeLbn};
pub use volume::{backend_volume, LogicalVolume, SchedulePolicy, Volume, VolumeBatchTiming};
