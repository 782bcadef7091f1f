//! The mapping abstraction: placing grid cells onto disk blocks.

use std::fmt;

use multimap_disksim::Lbn;

use crate::grid::{Coord, GridSpec};

/// Which family a mapping belongs to — the query executor picks its
/// request-issuing strategy based on this (Section 5.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MappingKind {
    /// Row-major linearisation (the paper's *Naive*).
    Naive,
    /// A space-filling-curve linearisation (Z-order, Hilbert, Gray).
    SpaceFillingCurve,
    /// MultiMap: adjacency-aware placement.
    MultiMap,
}

impl fmt::Display for MappingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingKind::Naive => write!(f, "naive"),
            MappingKind::SpaceFillingCurve => write!(f, "space-filling-curve"),
            MappingKind::MultiMap => write!(f, "multimap"),
        }
    }
}

/// Errors raised when constructing or evaluating a mapping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MappingError {
    /// The coordinate lies outside the dataset grid.
    CoordOutOfGrid {
        /// The offending coordinate.
        coord: Coord,
    },
    /// The dataset does not fit on the target device region.
    DoesNotFit {
        /// Human-readable reason.
        reason: String,
    },
    /// The basic-cube constraints (Eq. 1–3) cannot be satisfied.
    InfeasibleBasicCube {
        /// Human-readable reason.
        reason: String,
    },
    /// Cells were configured to occupy zero blocks.
    ZeroCellBlocks,
    /// A space-filling curve broke the subcube contract that curve
    /// layouts are built on.
    CurveContract {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingError::CoordOutOfGrid { coord } => {
                write!(f, "coordinate {coord:?} outside dataset grid")
            }
            MappingError::DoesNotFit { reason } => {
                write!(f, "dataset does not fit: {reason}")
            }
            MappingError::InfeasibleBasicCube { reason } => {
                write!(f, "no feasible basic cube: {reason}")
            }
            MappingError::ZeroCellBlocks => write!(f, "cells must occupy at least one block"),
            MappingError::CurveContract { reason } => {
                write!(f, "curve breaks the subcube contract: {reason}")
            }
        }
    }
}

impl std::error::Error for MappingError {}

/// Result alias for mapping operations.
pub type Result<T> = std::result::Result<T, MappingError>;

/// A placement of every cell of a [`GridSpec`] onto disk blocks of one
/// disk. Implementations must be injective: distinct cells map to
/// disjoint block ranges.
pub trait Mapping: Send + Sync {
    /// Short human-readable name ("Naive", "Z-order", …) used in figures.
    fn name(&self) -> &str;

    /// Which family this mapping belongs to.
    fn kind(&self) -> MappingKind;

    /// The dataset being mapped.
    fn grid(&self) -> &GridSpec;

    /// Blocks each cell occupies (1 unless configured otherwise).
    fn cell_blocks(&self) -> u64 {
        1
    }

    /// First LBN of the cell at `coord`.
    fn lbn_of(&self, coord: &[u64]) -> Result<Lbn>;

    /// Cell whose block range contains `lbn`, if any.
    fn coord_of(&self, lbn: Lbn) -> Option<Coord>;

    /// Total disk blocks spanned by the mapping, from its base LBN to one
    /// past its highest block (includes internal waste).
    fn blocks_spanned(&self) -> u64;

    /// Fraction of the spanned blocks actually holding cells, in `(0,1]`.
    fn space_utilization(&self) -> f64 {
        let used = self.grid().cells() * self.cell_blocks();
        used as f64 / self.blocks_spanned().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_display() {
        assert_eq!(MappingKind::Naive.to_string(), "naive");
        assert_eq!(MappingKind::MultiMap.to_string(), "multimap");
        assert_eq!(
            MappingKind::SpaceFillingCurve.to_string(),
            "space-filling-curve"
        );
    }

    #[test]
    fn error_display() {
        let e = MappingError::CoordOutOfGrid { coord: vec![1, 2] };
        assert!(e.to_string().contains("[1, 2]"));
        let e = MappingError::DoesNotFit {
            reason: "too big".into(),
        };
        assert!(e.to_string().contains("too big"));
    }
}
