//! N-dimensional Hilbert curve via Skilling's transpose algorithm
//! (J. Skilling, "Programming the Hilbert curve", AIP Conf. Proc. 2004).

use crate::curve::{check_coords, check_shape, CurveError, SpaceFillingCurve};
use crate::gray::GrayCurve;
use crate::zorder::{deinterleave, interleave};

/// The Hilbert curve of `dims` dimensions with `bits` bits per dimension.
///
/// Hilbert curves have the best clustering properties of the classic
/// space-filling curves (Moon et al.), which is why the paper uses them
/// as the strongest linearised baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HilbertCurve {
    dims: usize,
    bits: u32,
}

impl HilbertCurve {
    /// Create a Hilbert curve; `dims * bits` must be in `1..=64`.
    pub fn new(dims: usize, bits: u32) -> Result<Self, CurveError> {
        check_shape(dims, bits)?;
        debug_assert!(dims <= 64);
        Ok(HilbertCurve { dims, bits })
    }

    /// Skilling's AxesToTranspose: convert coordinates (in place) into the
    /// "transposed" Hilbert index form.
    ///
    /// Skilling's branches on coordinate bits are written as bit selects
    /// (`mask` is all ones where the original takes the first branch), so
    /// the cost does not depend on the data. Requires `bits >= 1`.
    #[inline(always)]
    fn axes_to_transpose(x: &mut [u64], bits: u32) {
        let Some((first, rest)) = x.split_first_mut() else {
            return;
        };
        // Inverse undo.
        let mut x0 = *first;
        for b in (1..bits).rev() {
            let p = (1u64 << b) - 1;
            x0 ^= p & 0u64.wrapping_sub((x0 >> b) & 1);
            for xi in rest.iter_mut() {
                let mask = 0u64.wrapping_sub((*xi >> b) & 1);
                let t = (x0 ^ *xi) & p & !mask;
                x0 ^= t ^ (p & mask);
                *xi ^= t;
            }
        }
        *first = x0;
        // Gray encode.
        for i in 1..x.len() {
            x[i] ^= x[i - 1];
        }
        // Skilling XORs `q - 1` into `t` for every set bit `q > 1` of the
        // last word, so bit `j` of `t` is the parity of its bits above
        // `j`: the Gray decode of the word shifted right by one.
        let t = GrayCurve::gray_decode(x[x.len() - 1] >> 1);
        for xi in x.iter_mut() {
            *xi ^= t;
        }
    }

    /// Skilling's TransposeToAxes: inverse of [`Self::axes_to_transpose`].
    fn transpose_to_axes(x: &mut [u64], bits: u32) {
        let n = x.len();
        if bits == 0 {
            return;
        }
        let big_n = 2u64 << (bits - 1);
        // Gray decode by H ^ (H/2).
        let t = x[n - 1] >> 1;
        for i in (1..n).rev() {
            x[i] ^= x[i - 1];
        }
        x[0] ^= t;
        // Undo excess work.
        let mut q = 2u64;
        while q != big_n {
            let p = q - 1;
            for i in (0..n).rev() {
                if x[i] & q != 0 {
                    x[0] ^= p;
                } else {
                    let t = (x[0] ^ x[i]) & p;
                    x[0] ^= t;
                    x[i] ^= t;
                }
            }
            q <<= 1;
        }
    }

    /// Hilbert index of in-range coordinates. The transposed form is
    /// built in a stack copy sized to the curve: exactly `dims` words for
    /// the paper's 3-D and 4-D grids, so the loops over dimensions unroll.
    fn encode(coords: &[u64], bits: u32) -> u64 {
        fn sized<const N: usize>(coords: &[u64], bits: u32) -> u64 {
            let mut x = [0u64; N];
            x.copy_from_slice(coords);
            HilbertCurve::axes_to_transpose(&mut x, bits);
            interleave(&x, bits)
        }
        match coords.len() {
            3 => sized::<3>(coords, bits),
            4 => sized::<4>(coords, bits),
            // dims * bits <= 64 implies dims <= 64.
            dims => {
                let mut buf = [0u64; 64];
                let x = &mut buf[..dims];
                x.copy_from_slice(coords);
                Self::axes_to_transpose(x, bits);
                interleave(x, bits)
            }
        }
    }
}

impl SpaceFillingCurve for HilbertCurve {
    fn dims(&self) -> usize {
        self.dims
    }

    fn bits(&self) -> u32 {
        self.bits
    }

    fn try_index(&self, coords: &[u64]) -> Result<u64, CurveError> {
        check_coords(coords, self.dims, self.bits)?;
        Ok(Self::encode(coords, self.bits))
    }

    fn coords_into(&self, index: u64, out: &mut [u64]) {
        assert_eq!(out.len(), self.dims, "coordinate arity mismatch");
        deinterleave(index, out, self.bits);
        Self::transpose_to_axes(out, self.bits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_order_2d_is_a_u() {
        let h = HilbertCurve::new(2, 1).unwrap();
        let visit: Vec<Vec<u64>> = (0..4).map(|i| h.coords(i)).collect();
        assert_eq!(visit, vec![vec![0, 0], vec![0, 1], vec![1, 1], vec![1, 0]]);
    }

    #[test]
    fn consecutive_indices_are_unit_steps() {
        // The defining property of the Hilbert curve: successive points
        // differ by exactly 1 in exactly one dimension.
        for (dims, bits) in [(2usize, 4u32), (3, 3), (4, 2)] {
            let h = HilbertCurve::new(dims, bits).unwrap();
            let mut prev = h.coords(0);
            for i in 1..h.len() {
                let cur = h.coords(i);
                let dist: u64 = prev.iter().zip(&cur).map(|(a, b)| a.abs_diff(*b)).sum();
                assert_eq!(dist, 1, "step {i} in {dims}d/{bits}b: {prev:?} -> {cur:?}");
                prev = cur;
            }
        }
    }

    #[test]
    fn roundtrip_exhaustive() {
        for (dims, bits) in [(2usize, 5u32), (3, 3), (4, 2), (5, 2)] {
            let h = HilbertCurve::new(dims, bits).unwrap();
            for i in 0..h.len() {
                let c = h.coords(i);
                assert_eq!(h.index(&c), i, "{dims}d/{bits}b index {i}");
            }
        }
    }

    #[test]
    fn bijective_on_cube() {
        let h = HilbertCurve::new(3, 2).unwrap();
        let mut seen = [false; 64];
        for x in 0..4u64 {
            for y in 0..4u64 {
                for z in 0..4u64 {
                    let i = h.index(&[x, y, z]) as usize;
                    assert!(!seen[i], "collision at {i}");
                    seen[i] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn curve_starts_at_origin() {
        for (dims, bits) in [(2usize, 3u32), (3, 4), (4, 3)] {
            let h = HilbertCurve::new(dims, bits).unwrap();
            assert_eq!(h.coords(0), vec![0; dims]);
        }
    }

    /// Skilling's AxesToTranspose with its data-dependent branches, then
    /// the one-bit-at-a-time interleave: the reference the branch-free
    /// encode must match bit for bit.
    fn reference_index(coords: &[u64], bits: u32) -> u64 {
        let mut x = coords.to_vec();
        let n = x.len();
        let m = 1u64 << (bits - 1);
        let mut q = m;
        while q > 1 {
            let p = q - 1;
            for i in 0..n {
                if x[i] & q != 0 {
                    x[0] ^= p;
                } else {
                    let t = (x[0] ^ x[i]) & p;
                    x[0] ^= t;
                    x[i] ^= t;
                }
            }
            q >>= 1;
        }
        for i in 1..n {
            x[i] ^= x[i - 1];
        }
        let mut t = 0;
        let mut q = m;
        while q > 1 {
            if x[n - 1] & q != 0 {
                t ^= q - 1;
            }
            q >>= 1;
        }
        for xi in x.iter_mut() {
            *xi ^= t;
        }
        let mut out = 0u64;
        for b in (0..bits).rev() {
            for &xi in &x {
                out = (out << 1) | ((xi >> b) & 1);
            }
        }
        out
    }

    #[test]
    fn encode_matches_reference_exhaustively() {
        for (dims, bits) in [(2usize, 5u32), (3, 4), (4, 3), (5, 2)] {
            let h = HilbertCurve::new(dims, bits).unwrap();
            let side = 1u64 << bits;
            let mut point = vec![0u64; dims];
            for n in 0..h.len() {
                let mut rest = n;
                for c in point.iter_mut() {
                    *c = rest % side;
                    rest /= side;
                }
                assert_eq!(
                    h.index(&point),
                    reference_index(&point, bits),
                    "{dims}d/{bits}b at {point:?}"
                );
            }
        }
    }

    #[test]
    fn encode_matches_reference_on_random_points() {
        let mut state = 0x0123_4567_89ab_cdefu64;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for (dims, bits) in [(1usize, 64u32), (2, 32), (3, 21), (4, 16), (8, 8)] {
            let h = HilbertCurve::new(dims, bits).unwrap();
            let mask = u64::MAX >> (64 - bits);
            let mut points = vec![vec![0; dims], vec![mask; dims]];
            points.extend((0..5000).map(|_| (0..dims).map(|_| next() & mask).collect()));
            for p in &points {
                let index = h.index(p);
                assert_eq!(index, reference_index(p, bits), "{dims}d/{bits}b at {p:?}");
                assert_eq!(&h.coords(index), p, "{dims}d/{bits}b decode of {index:#x}");
            }
        }
    }

    #[test]
    fn rejects_out_of_range() {
        let h = HilbertCurve::new(3, 2).unwrap();
        assert!(h.try_index(&[0, 4, 0]).is_err());
    }
}
