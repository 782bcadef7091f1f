//! The `SpaceFillingCurve` subcube contract: every aligned subcube of side
//! `2^k` is numbered as one contiguous, aligned block of `2^(dims*k)`
//! indices. Curve-order table builds depend on it.

use multimap_sfc::{GrayCurve, HilbertCurve, SpaceFillingCurve, ZCurve};

/// The aligned block of `2^shift` indices holding `index`; one block spans
/// the whole curve when `shift` is 64.
fn block(index: u64, shift: u32) -> u64 {
    index.checked_shr(shift).unwrap_or(0)
}

/// `point` with its low `k` bits cleared in every coordinate.
fn subcube_corner(point: &[u64], k: u32) -> Vec<u64> {
    let low = u64::MAX.checked_shr(64 - k).unwrap_or(0);
    point.iter().map(|&c| c & !low).collect()
}

/// Every level of the hierarchy at `point`: the point and its subcube's
/// corner share a block.
fn assert_contract_at(curve: &impl SpaceFillingCurve, name: &str, point: &[u64]) {
    let dims = curve.dims() as u32;
    let index = curve.index(point);
    for k in 0..=curve.bits() {
        let corner = curve.index(&subcube_corner(point, k));
        assert_eq!(
            block(index, dims * k),
            block(corner, dims * k),
            "{name} {dims}d/{}b: {point:?} leaves its level-{k} block",
            curve.bits()
        );
    }
}

/// Exhaustive: every point of the curve. With the bijection this means
/// each subcube fills its block exactly (both hold `2^(dims*k)` indices).
fn assert_contract_exhaustive(curve: &impl SpaceFillingCurve, name: &str) {
    let mut point = vec![0; curve.dims()];
    for index in 0..curve.len() {
        curve.coords_into(index, &mut point);
        assert_eq!(curve.index(&point), index, "{name}: not a bijection");
        assert_contract_at(curve, name, &point);
    }
}

const EXHAUSTIVE: [(usize, u32); 7] = [(1, 8), (2, 5), (3, 4), (4, 3), (5, 2), (6, 2), (8, 1)];

/// Shapes with `dims * bits = 64`, where the whole-curve block needs a
/// 64-bit shift.
const FULL_WIDTH: [(usize, u32); 6] = [(1, 64), (2, 32), (4, 16), (8, 8), (16, 4), (64, 1)];

#[test]
fn z_order_subcubes_are_index_blocks() {
    for (dims, bits) in EXHAUSTIVE {
        assert_contract_exhaustive(&ZCurve::new(dims, bits).unwrap(), "Z-order");
    }
}

#[test]
fn hilbert_subcubes_are_index_blocks() {
    for (dims, bits) in EXHAUSTIVE {
        assert_contract_exhaustive(&HilbertCurve::new(dims, bits).unwrap(), "Hilbert");
    }
}

#[test]
fn gray_subcubes_are_index_blocks() {
    for (dims, bits) in EXHAUSTIVE {
        assert_contract_exhaustive(&GrayCurve::new(dims, bits).unwrap(), "Gray");
    }
}

#[test]
fn subcube_contract_holds_at_full_width() {
    let mut state = 0x5eed_cafe_f00d_d00du64;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for (dims, bits) in FULL_WIDTH {
        let z = ZCurve::new(dims, bits).unwrap();
        let h = HilbertCurve::new(dims, bits).unwrap();
        let g = GrayCurve::new(dims, bits).unwrap();
        let mask = u64::MAX >> (64 - bits);
        let mut points = vec![vec![0; dims], vec![mask; dims]];
        points.extend((0..200).map(|_| (0..dims).map(|_| next() & mask).collect()));
        for p in &points {
            assert_contract_at(&z, "Z-order", p);
            assert_contract_at(&h, "Hilbert", p);
            assert_contract_at(&g, "Gray", p);
        }
    }
}
