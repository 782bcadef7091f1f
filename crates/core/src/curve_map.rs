//! Space-filling-curve mappings (Z-order, Hilbert, Gray-coded).
//!
//! Following the paper's implementation (Section 5.2): the cells of the
//! dataset are ordered by their curve value and then "stored sequentially
//! on disks". Because dataset extents are rarely powers of two, the curve
//! is computed over the enclosing power-of-two hypercube and occupied
//! cells are *rank-compacted*: the cell with the k-th smallest curve
//! value lands at `base_lbn + k * cell_blocks`, with no holes.
//!
//! The sorted key table is produced directly in curve order, by
//! descending the curve's aligned-subcube hierarchy, rather than by
//! encoding and sorting every cell.

use multimap_disksim::Lbn;
use multimap_sfc::{bits_for_extent, GrayCurve, HilbertCurve, SpaceFillingCurve, ZCurve};

use crate::grid::{Coord, GridSpec};
use crate::mapping::{Mapping, MappingError, MappingKind, Result};

pub use multimap_sfc::curve::bits_for_extent as curve_bits_for_extent;

/// A linearised mapping driven by any [`SpaceFillingCurve`].
///
/// Holds a sorted table of the curve keys of all occupied cells (8 bytes
/// per cell) so that `lbn_of` is a binary search and `coord_of` is an
/// array lookup plus curve decode.
pub struct CurveMapping<C: SpaceFillingCurve> {
    name: String,
    grid: GridSpec,
    base_lbn: Lbn,
    cell_blocks: u64,
    curve: C,
    /// Curve keys of all cells of the grid, sorted ascending.
    keys: Vec<u64>,
}

impl<C: SpaceFillingCurve> CurveMapping<C> {
    /// Order the cells of `grid` by `curve` and pack them from `base_lbn`.
    ///
    /// The curve must have at least `bits_for_extent(max extent)` bits per
    /// dimension and exactly `grid.ndims()` dimensions, and must keep the
    /// [`SpaceFillingCurve`] subcube contract: the table is listed by
    /// descending the curve's aligned subcubes. A curve that breaks the
    /// contract in a way that miscounts or misorders the table is
    /// reported as [`MappingError::CurveContract`].
    pub fn new(
        name: impl Into<String>,
        grid: GridSpec,
        base_lbn: Lbn,
        cell_blocks: u64,
        curve: C,
    ) -> Result<Self> {
        if cell_blocks == 0 {
            return Err(MappingError::ZeroCellBlocks);
        }
        if curve.dims() != grid.ndims() {
            return Err(MappingError::DoesNotFit {
                reason: format!(
                    "curve has {} dims but grid has {}",
                    curve.dims(),
                    grid.ndims()
                ),
            });
        }
        let needed = grid
            .extents()
            .iter()
            .map(|&e| bits_for_extent(e))
            .max()
            .unwrap_or(1);
        if curve.bits() < needed {
            return Err(MappingError::DoesNotFit {
                reason: format!(
                    "curve order {} too small for extents (need {needed})",
                    curve.bits()
                ),
            });
        }
        let cells = grid.cells();
        if cells > (1 << 31) {
            return Err(MappingError::DoesNotFit {
                reason: format!("rank table for {cells} cells would be too large"),
            });
        }
        let keys = keys_in_curve_order(&curve, grid.extents(), cells as usize)
            .filter(|keys| keys.len() as u64 == cells)
            .ok_or_else(|| MappingError::CurveContract {
                reason: format!("subcube walk did not list exactly {cells} cells"),
            })?;
        if !keys.windows(2).all(|w| w[0] < w[1]) {
            return Err(MappingError::CurveContract {
                reason: "subcube walk listed keys out of order".into(),
            });
        }
        Ok(CurveMapping {
            name: name.into(),
            grid,
            base_lbn,
            cell_blocks,
            curve,
            keys,
        })
    }

    /// The first LBN of the mapping.
    #[inline]
    pub fn base_lbn(&self) -> Lbn {
        self.base_lbn
    }

    /// The sorted curve keys of all occupied cells (ascending, one per
    /// cell). Exposed for static analysis: strict ascent of this table,
    /// together with the rank-based `lbn_of`/`coord_of` construction,
    /// proves the mapping is a bijection onto its dense LBN range.
    #[inline]
    pub fn curve_keys(&self) -> &[u64] {
        &self.keys
    }

    /// Rank of a cell among all cells, by curve value.
    pub fn rank_of(&self, coord: &[u64]) -> Result<u64> {
        if !self.grid.contains(coord) {
            return Err(MappingError::CoordOutOfGrid {
                coord: coord.to_vec(),
            });
        }
        let key = self.curve.index(coord);
        let pos = self.keys.partition_point(|&k| k < key);
        debug_assert!(self.keys[pos] == key);
        Ok(pos as u64)
    }
}

impl<C: SpaceFillingCurve + Send + Sync> Mapping for CurveMapping<C> {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> MappingKind {
        MappingKind::SpaceFillingCurve
    }

    fn grid(&self) -> &GridSpec {
        &self.grid
    }

    fn cell_blocks(&self) -> u64 {
        self.cell_blocks
    }

    fn lbn_of(&self, coord: &[u64]) -> Result<Lbn> {
        Ok(self.base_lbn + self.rank_of(coord)? * self.cell_blocks)
    }

    fn coord_of(&self, lbn: Lbn) -> Option<Coord> {
        let rel = lbn.checked_sub(self.base_lbn)?;
        let rank = (rel / self.cell_blocks) as usize;
        let key = *self.keys.get(rank)?;
        Some(self.curve.coords(key))
    }

    fn blocks_spanned(&self) -> u64 {
        self.grid.cells() * self.cell_blocks
    }
}

/// The curve keys of every cell of the grid `[0, extents)`, ascending,
/// without a per-cell encode or a sort.
///
/// It relies on the [`SpaceFillingCurve`] subcube contract: the points of
/// an aligned subcube of side `2^k` hold one contiguous, aligned block of
/// `2^(dims*k)` indices. The walk descends that hierarchy in index order
/// from the whole curve. A subcube wholly inside the grid appends its
/// block; one that straddles the grid's far faces is split into the
/// children that meet the grid, ordered by their blocks. Only those
/// children are encoded and only straddling subcubes are decoded, so the
/// cost follows the grid's surface, not its volume. `None` if the walk
/// would list more than `cells` keys, which only a curve that breaks the
/// contract can cause.
fn keys_in_curve_order<C: SpaceFillingCurve>(
    curve: &C,
    extents: &[u64],
    cells: usize,
) -> Option<Vec<u64>> {
    let dims = extents.len();
    let mut keys = Vec::with_capacity(cells);
    // Subcubes still to visit as (first index, level): popped in
    // ascending index order because children are pushed last-first.
    let mut pending = vec![(0u64, curve.bits())];
    let mut corner = vec![0u64; dims];
    let mut child = vec![0u64; dims];
    let mut split = Vec::with_capacity(dims);
    let mut blocks = Vec::new();
    while let Some((first, level)) = pending.pop() {
        curve.coords_into(first, &mut corner);
        let span = low_mask(level);
        for c in &mut corner {
            *c &= !span;
        }
        if corner.iter().zip(extents).all(|(&c, &e)| c + span < e) {
            let last = first | low_mask(dims as u32 * level);
            if (last - first) as usize >= cells - keys.len() {
                return None;
            }
            keys.extend(first..=last);
            continue;
        }
        // Straddles a far face, so `level >= 1`: a single cell is either
        // inside the grid or never pushed. A child meets the grid iff its
        // corner does; `split` lists the axes where the upper half does.
        let half = 1u64 << (level - 1);
        split.clear();
        split.extend((0..dims).filter(|&i| corner[i] + half < extents[i]));
        // Every child that meets the grid holds a cell, and there are at
        // most 2^31 cells (checked by the caller), so the shift fits.
        blocks.clear();
        for pick in 0..1u64 << split.len() {
            child.copy_from_slice(&corner);
            for (bit, &axis) in split.iter().enumerate() {
                child[axis] += ((pick >> bit) & 1) * half;
            }
            blocks.push(curve.index(&child) & !low_mask(dims as u32 * (level - 1)));
        }
        blocks.sort_unstable_by(|a, b| b.cmp(a));
        pending.extend(blocks.iter().map(|&block| (block, level - 1)));
    }
    Some(keys)
}

/// The low `bits` bits set (`bits <= 64`).
fn low_mask(bits: u32) -> u64 {
    u64::MAX.checked_shr(64 - bits).unwrap_or(0)
}

/// Z-order mapping of `grid` starting at `base_lbn`.
pub fn zorder_mapping(
    grid: GridSpec,
    base_lbn: Lbn,
    cell_blocks: u64,
) -> Result<CurveMapping<ZCurve>> {
    let bits = max_bits(&grid);
    let curve = ZCurve::new(grid.ndims(), bits).map_err(curve_err)?;
    CurveMapping::new("Z-order", grid, base_lbn, cell_blocks, curve)
}

/// Hilbert mapping of `grid` starting at `base_lbn`.
pub fn hilbert_mapping(
    grid: GridSpec,
    base_lbn: Lbn,
    cell_blocks: u64,
) -> Result<CurveMapping<HilbertCurve>> {
    let bits = max_bits(&grid);
    let curve = HilbertCurve::new(grid.ndims(), bits).map_err(curve_err)?;
    CurveMapping::new("Hilbert", grid, base_lbn, cell_blocks, curve)
}

/// Gray-coded-curve mapping of `grid` starting at `base_lbn`.
pub fn gray_mapping(
    grid: GridSpec,
    base_lbn: Lbn,
    cell_blocks: u64,
) -> Result<CurveMapping<GrayCurve>> {
    let bits = max_bits(&grid);
    let curve = GrayCurve::new(grid.ndims(), bits).map_err(curve_err)?;
    CurveMapping::new("Gray", grid, base_lbn, cell_blocks, curve)
}

fn max_bits(grid: &GridSpec) -> u32 {
    grid.extents()
        .iter()
        .map(|&e| bits_for_extent(e))
        .max()
        .unwrap_or(1)
}

fn curve_err(e: multimap_sfc::CurveError) -> MappingError {
    MappingError::DoesNotFit {
        reason: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_dense_and_injective() {
        let grid = GridSpec::new([5u64, 3, 4]);
        for m in [
            Box::new(zorder_mapping(grid.clone(), 10, 1).unwrap()) as Box<dyn Mapping>,
            Box::new(hilbert_mapping(grid.clone(), 10, 1).unwrap()),
            Box::new(gray_mapping(grid.clone(), 10, 1).unwrap()),
        ] {
            let mut seen = [false; 60];
            grid.for_each_cell(|c| {
                let l = m.lbn_of(c).unwrap();
                let rel = (l - 10) as usize;
                assert!(rel < 60, "{}: lbn {l} not dense", m.name());
                assert!(!seen[rel], "{}: collision", m.name());
                seen[rel] = true;
                assert_eq!(m.coord_of(l).unwrap(), c.to_vec(), "{}", m.name());
            });
            assert!(seen.iter().all(|&s| s));
            assert_eq!(m.blocks_spanned(), 60);
        }
    }

    #[test]
    fn hilbert_neighbours_in_rank_are_neighbours_in_space() {
        // Within a power-of-two grid, consecutive Hilbert ranks are unit
        // steps; the compacted non-power-of-two grid loses that, but the
        // full 4x4 grid keeps it.
        let grid = GridSpec::new([4u64, 4]);
        let m = hilbert_mapping(grid.clone(), 0, 1).unwrap();
        for rank in 0..15u64 {
            let a = m.coord_of(rank).unwrap();
            let b = m.coord_of(rank + 1).unwrap();
            let dist: u64 = a.iter().zip(&b).map(|(x, y)| x.abs_diff(*y)).sum();
            assert_eq!(dist, 1, "rank {rank}");
        }
    }

    #[test]
    fn cell_blocks_scale_lbns() {
        let grid = GridSpec::new([3u64, 3]);
        let m = zorder_mapping(grid, 0, 4).unwrap();
        let l = m.lbn_of(&[2, 2]).unwrap();
        assert_eq!(l % 4, 0);
        assert_eq!(m.coord_of(l + 3).unwrap(), vec![2, 2]);
        assert_eq!(m.blocks_spanned(), 36);
    }

    #[test]
    fn out_of_grid_rejected() {
        let m = hilbert_mapping(GridSpec::new([3u64, 3]), 0, 1).unwrap();
        assert!(m.lbn_of(&[3, 0]).is_err());
        assert!(m.coord_of(9).is_none());
    }

    #[test]
    fn zero_cell_blocks_is_a_typed_error() {
        let grid = GridSpec::new([3u64, 3]);
        assert_eq!(
            zorder_mapping(grid.clone(), 0, 0).err(),
            Some(MappingError::ZeroCellBlocks)
        );
        assert_eq!(
            hilbert_mapping(grid.clone(), 0, 0).err(),
            Some(MappingError::ZeroCellBlocks)
        );
        assert_eq!(
            gray_mapping(grid, 0, 0).err(),
            Some(MappingError::ZeroCellBlocks)
        );
    }

    /// A 1-D, 2-bit bijection given by a permutation of `0..4`; any
    /// permutation other than block swaps breaks the subcube contract.
    struct Permuted([u64; 4]);

    impl SpaceFillingCurve for Permuted {
        fn dims(&self) -> usize {
            1
        }

        fn bits(&self) -> u32 {
            2
        }

        fn try_index(&self, coords: &[u64]) -> std::result::Result<u64, multimap_sfc::CurveError> {
            Ok(self.0[coords[0] as usize])
        }

        fn coords_into(&self, index: u64, out: &mut [u64]) {
            out[0] = self.0.iter().position(|&i| i == index).unwrap() as u64;
        }
    }

    #[test]
    fn contract_breach_is_a_typed_error() {
        // [0, 2, 1, 3] puts cells 0 and 1 in different halves, so the walk
        // lists a block twice; [1, 2, 3, 0] lists a block out of order.
        for perm in [[0, 2, 1, 3], [1, 2, 3, 0]] {
            let m = CurveMapping::new("broken", GridSpec::new([3u64]), 0, 1, Permuted(perm));
            assert!(
                matches!(m, Err(MappingError::CurveContract { .. })),
                "{perm:?}"
            );
        }
        // A block swap keeps the contract.
        let m = CurveMapping::new("swap", GridSpec::new([3u64]), 0, 1, Permuted([2, 3, 0, 1]));
        assert_eq!(m.unwrap().curve_keys(), &[0, 2, 3]);
    }

    #[test]
    fn z_order_of_power_of_two_grid_matches_raw_curve() {
        let grid = GridSpec::new([4u64, 4]);
        let m = zorder_mapping(grid.clone(), 0, 1).unwrap();
        let z = ZCurve::new(2, 2).unwrap();
        grid.for_each_cell(|c| {
            assert_eq!(m.lbn_of(c).unwrap(), z.index(c));
        });
    }
}
