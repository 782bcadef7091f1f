//! The common curve interface.

use std::fmt;

/// Errors constructing or using a space-filling curve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CurveError {
    /// `dims * bits` must fit in a 64-bit index and both must be positive.
    InvalidShape {
        /// Requested dimensionality.
        dims: usize,
        /// Requested bits per dimension.
        bits: u32,
    },
    /// A coordinate exceeded `2^bits - 1`.
    CoordinateOutOfRange {
        /// Offending dimension.
        dim: usize,
        /// Offending value.
        value: u64,
        /// Bits per dimension.
        bits: u32,
    },
}

impl fmt::Display for CurveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CurveError::InvalidShape { dims, bits } => write!(
                f,
                "invalid curve shape: {dims} dims x {bits} bits (need 1..=64 total bits)"
            ),
            CurveError::CoordinateOutOfRange { dim, value, bits } => write!(
                f,
                "coordinate {value} in dim {dim} out of range for {bits}-bit curve"
            ),
        }
    }
}

impl std::error::Error for CurveError {}

/// A bijection between the points of a `2^bits`-sided `dims`-dimensional
/// hypercube and the indices `0..2^(dims*bits)`.
///
/// # Subcube contract
///
/// Every implementation numbers each aligned subcube as one contiguous,
/// aligned index block: for every `k` in `0..=bits`, the points whose
/// coordinates agree above their low `k` bits are exactly the indices
/// that agree above their low `dims * k` bits. Equivalently, an aligned
/// subcube of side `2^k` holds the block
/// `[j * 2^(dims*k), (j + 1) * 2^(dims*k))` for some `j`. Z-order,
/// Hilbert and Gray curves all have this property; it lets a caller list
/// the cells of a box, or of an octree, in index order by descending the
/// subcube hierarchy instead of encoding and sorting every cell.
pub trait SpaceFillingCurve {
    /// Number of dimensions.
    fn dims(&self) -> usize;

    /// Bits per dimension (the curve's order).
    fn bits(&self) -> u32;

    /// Curve index of a point.
    ///
    /// # Panics
    /// Panics if `coords.len() != dims()` or any coordinate is out of
    /// range; use [`Self::try_index`] for a checked variant.
    fn index(&self, coords: &[u64]) -> u64 {
        // staticcheck: allow(no-unwrap) — documented panicking variant; the # Panics contract points at try_index.
        self.try_index(coords).expect("coords out of range")
    }

    /// Checked variant of [`Self::index`].
    fn try_index(&self, coords: &[u64]) -> Result<u64, CurveError>;

    /// Point at the given curve index (inverse of [`Self::index`]).
    fn coords(&self, index: u64) -> Vec<u64> {
        let mut out = vec![0; self.dims()];
        self.coords_into(index, &mut out);
        out
    }

    /// Allocation-free variant of [`Self::coords`].
    ///
    /// # Panics
    /// Panics if `out.len() != dims()`.
    fn coords_into(&self, index: u64, out: &mut [u64]);

    /// Total number of points on the curve (`2^(dims*bits)`), saturating
    /// at `u64::MAX` for 64-bit curves.
    fn len(&self) -> u64 {
        let total_bits = self.dims() as u32 * self.bits();
        if total_bits >= 64 {
            u64::MAX
        } else {
            1u64 << total_bits
        }
    }

    /// Whether the curve is empty (never, for a valid curve).
    fn is_empty(&self) -> bool {
        false
    }
}

/// Validate a curve shape, shared by all constructors.
pub(crate) fn check_shape(dims: usize, bits: u32) -> Result<(), CurveError> {
    let total = (dims as u64).saturating_mul(bits as u64);
    if dims == 0 || bits == 0 || total > 64 {
        Err(CurveError::InvalidShape { dims, bits })
    } else {
        Ok(())
    }
}

/// Validate coordinates against a shape, shared by all curves.
pub(crate) fn check_coords(coords: &[u64], dims: usize, bits: u32) -> Result<(), CurveError> {
    assert_eq!(coords.len(), dims, "coordinate arity mismatch");
    let max = if bits == 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    for (dim, &value) in coords.iter().enumerate() {
        if value > max {
            return Err(CurveError::CoordinateOutOfRange { dim, value, bits });
        }
    }
    Ok(())
}

/// Smallest number of bits that can represent coordinates `0..extent`.
pub fn bits_for_extent(extent: u64) -> u32 {
    if extent <= 1 {
        1
    } else {
        64 - (extent - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_validation() {
        assert!(check_shape(3, 10).is_ok());
        assert!(check_shape(0, 10).is_err());
        assert!(check_shape(3, 0).is_err());
        assert!(check_shape(5, 13).is_err()); // 65 bits
        assert!(check_shape(1, 64).is_ok());
    }

    #[test]
    fn bits_for_extents() {
        assert_eq!(bits_for_extent(0), 1);
        assert_eq!(bits_for_extent(1), 1);
        assert_eq!(bits_for_extent(2), 1);
        assert_eq!(bits_for_extent(3), 2);
        assert_eq!(bits_for_extent(4), 2);
        assert_eq!(bits_for_extent(5), 3);
        assert_eq!(bits_for_extent(1024), 10);
        assert_eq!(bits_for_extent(1025), 11);
    }

    #[test]
    fn coordinate_validation() {
        assert!(check_coords(&[3, 3], 2, 2).is_ok());
        assert_eq!(
            check_coords(&[4, 0], 2, 2),
            Err(CurveError::CoordinateOutOfRange {
                dim: 0,
                value: 4,
                bits: 2
            })
        );
    }
}
