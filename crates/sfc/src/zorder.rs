//! Z-order (Morton) curve: bit-interleaving of coordinates.

use crate::curve::{check_coords, check_shape, CurveError, SpaceFillingCurve};

/// The Z-order curve of `dims` dimensions with `bits` bits per dimension.
///
/// The index interleaves coordinate bits most-significant first, cycling
/// through dimensions: bit `b` of dimension `d` lands at index bit
/// `b * dims + (dims - 1 - d)`, so dimension 0 provides the most
/// significant bit of each group (row-major-like tie-breaking).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ZCurve {
    dims: usize,
    bits: u32,
}

impl ZCurve {
    /// Create a Z-order curve; `dims * bits` must be in `1..=64`.
    pub fn new(dims: usize, bits: u32) -> Result<Self, CurveError> {
        check_shape(dims, bits)?;
        Ok(ZCurve { dims, bits })
    }
}

impl SpaceFillingCurve for ZCurve {
    fn dims(&self) -> usize {
        self.dims
    }

    fn bits(&self) -> u32 {
        self.bits
    }

    fn try_index(&self, coords: &[u64]) -> Result<u64, CurveError> {
        check_coords(coords, self.dims, self.bits)?;
        Ok(interleave(coords, self.bits))
    }

    fn coords_into(&self, index: u64, out: &mut [u64]) {
        assert_eq!(out.len(), self.dims, "coordinate arity mismatch");
        deinterleave(index, out, self.bits);
    }
}

/// Interleave the low `bits` bits of each coordinate into one index, most
/// significant first and dimension 0 first within each bit group: bit `b`
/// of `coords[d]` lands at `b * dims + (dims - 1 - d)`.
///
/// Coordinates must be below `2^bits`, and `dims * bits <= 64`. Three
/// dimensions (the synthetic and earthquake datasets are 3-D) spread each
/// coordinate with shift-and-mask steps instead of one step per bit.
#[inline]
pub(crate) fn interleave(coords: &[u64], bits: u32) -> u64 {
    match *coords {
        [x, y, z] => (spread3(x) << 2) | (spread3(y) << 1) | spread3(z),
        _ => interleave_bits(coords, bits),
    }
}

/// [`interleave`] one bit at a time, for any dimensionality.
fn interleave_bits(coords: &[u64], bits: u32) -> u64 {
    let mut key = 0u64;
    for b in (0..bits).rev() {
        for &c in coords {
            key = (key << 1) | ((c >> b) & 1);
        }
    }
    key
}

/// Inverse of [`interleave`].
pub(crate) fn deinterleave(index: u64, out: &mut [u64], bits: u32) {
    match out {
        [x, y, z] => {
            *x = compact3(index >> 2);
            *y = compact3(index >> 1);
            *z = compact3(index);
        }
        _ => {
            out.fill(0);
            let mut bit = out.len() as u32 * bits;
            for b in (0..bits).rev() {
                for c in out.iter_mut() {
                    bit -= 1;
                    *c |= ((index >> bit) & 1) << b;
                }
            }
        }
    }
}

/// Bit `b` of the low 21 bits of `x` moved to bit `3b`.
fn spread3(mut x: u64) -> u64 {
    x &= 0x1f_ffff;
    x = (x | (x << 32)) & 0x001f_0000_0000_ffff;
    x = (x | (x << 16)) & 0x001f_0000_ff00_00ff;
    x = (x | (x << 8)) & 0x100f_00f0_0f00_f00f;
    x = (x | (x << 4)) & 0x10c3_0c30_c30c_30c3;
    (x | (x << 2)) & 0x1249_2492_4924_9249
}

/// Inverse of [`spread3`]: bit `3b` of `x` moved to bit `b`.
fn compact3(mut x: u64) -> u64 {
    x &= 0x1249_2492_4924_9249;
    x = (x | (x >> 2)) & 0x10c3_0c30_c30c_30c3;
    x = (x | (x >> 4)) & 0x100f_00f0_0f00_f00f;
    x = (x | (x >> 8)) & 0x001f_0000_ff00_00ff;
    x = (x | (x >> 16)) & 0x001f_0000_0000_ffff;
    (x | (x >> 32)) & 0x1f_ffff
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_2d_order() {
        // 2-D, 1 bit: Z visits (0,0) (0,1) (1,0) (1,1) with dim0 as the
        // most significant interleaved bit.
        let z = ZCurve::new(2, 1).unwrap();
        let visit: Vec<Vec<u64>> = (0..4).map(|i| z.coords(i)).collect();
        assert_eq!(visit, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
    }

    #[test]
    fn known_2d_interleave() {
        let z = ZCurve::new(2, 2).unwrap();
        // coord (x0=0b10, x1=0b11) -> bits interleaved msb-first: 1 1 0 1
        assert_eq!(z.index(&[0b10, 0b11]), 0b1101);
    }

    #[test]
    fn roundtrip_exhaustive_3d() {
        let z = ZCurve::new(3, 3).unwrap();
        for i in 0..z.len() {
            let c = z.coords(i);
            assert_eq!(z.index(&c), i);
        }
    }

    #[test]
    fn bijective_on_small_cube() {
        let z = ZCurve::new(2, 3).unwrap();
        let mut seen = [false; 64];
        for x in 0..8u64 {
            for y in 0..8u64 {
                let i = z.index(&[x, y]) as usize;
                assert!(!seen[i], "collision at {i}");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn out_of_range_coordinate_rejected() {
        let z = ZCurve::new(2, 2).unwrap();
        assert!(z.try_index(&[4, 0]).is_err());
    }

    #[test]
    fn spread3_path_matches_bitwise_interleave() {
        // The 3-D shift-and-mask path against the one-bit-at-a-time loop,
        // at full width and on seeded random points.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for (dims, bits) in [(3usize, 21u32), (3, 9)] {
            let max = u64::MAX >> (64 - bits);
            let mut points = vec![vec![max; dims], vec![0; dims]];
            for _ in 0..2000 {
                points.push(
                    (0..dims)
                        .map(|_| {
                            x = x
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            (x >> 7) & max
                        })
                        .collect(),
                );
            }
            for p in points {
                let key = interleave(&p, bits);
                assert_eq!(key, interleave_bits(&p, bits), "{dims}d/{bits}b {p:?}");
                let mut back = vec![0; dims];
                deinterleave(key, &mut back, bits);
                assert_eq!(back, p, "{dims}d/{bits}b key {key:#x}");
            }
        }
    }

    #[test]
    fn full_width_single_dim() {
        let z = ZCurve::new(1, 64).unwrap();
        assert_eq!(z.index(&[u64::MAX]), u64::MAX);
        assert_eq!(z.coords(u64::MAX), vec![u64::MAX]);
    }
}
