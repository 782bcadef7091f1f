//! Curve layout equivalence: the key table `CurveMapping::new` builds in
//! curve order must equal the table of the paper's construction, which
//! encodes every cell and sorts the keys. That construction lives only
//! here, as the oracle.

use multimap_core::{CurveMapping, GridSpec};
use multimap_sfc::{bits_for_extent, GrayCurve, HilbertCurve, SpaceFillingCurve, ZCurve};
use proptest::prelude::*;

/// Encode every cell of `grid`, then sort.
fn encode_then_sort(curve: &impl SpaceFillingCurve, grid: &GridSpec) -> Vec<u64> {
    let mut keys = Vec::with_capacity(grid.cells() as usize);
    grid.for_each_cell(|c| keys.push(curve.index(c)));
    keys.sort_unstable();
    keys
}

/// The curve-order table of `grid` under `curve` against the oracle.
fn check(curve: impl SpaceFillingCurve + Copy, name: &str, grid: &GridSpec) -> Result<(), String> {
    let expected = encode_then_sort(&curve, grid);
    let mapping = CurveMapping::new(name, grid.clone(), 0, 1, curve).map_err(|e| e.to_string())?;
    if mapping.curve_keys() == expected.as_slice() {
        Ok(())
    } else {
        let at = mapping
            .curve_keys()
            .iter()
            .zip(&expected)
            .position(|(a, b)| a != b);
        Err(format!(
            "{name} {}d/{}b on {:?}: {} keys vs {} expected, first difference at {at:?}",
            curve.dims(),
            curve.bits(),
            grid.extents(),
            mapping.curve_keys().len(),
            expected.len()
        ))
    }
}

/// All three curves at `bits` per dimension on `grid`.
fn check_all(grid: &GridSpec, bits: u32) -> Result<(), String> {
    let dims = grid.ndims();
    check(ZCurve::new(dims, bits).unwrap(), "Z-order", grid)?;
    check(HilbertCurve::new(dims, bits).unwrap(), "Hilbert", grid)?;
    check(GrayCurve::new(dims, bits).unwrap(), "Gray", grid)
}

/// The smallest curve order that holds `grid`, as the mapping
/// constructors choose it.
fn min_bits(grid: &GridSpec) -> u32 {
    grid.extents()
        .iter()
        .map(|&e| bits_for_extent(e))
        .max()
        .unwrap_or(1)
}

#[test]
fn paper_grids_match_encode_then_sort() {
    for extents in [
        vec![259u64, 64, 32], // Figures 6(a)/6(b), quick scale
        vec![118, 15, 5, 5],  // Figure 8's OLAP chunk, quick scale
        vec![5, 3, 4],
    ] {
        let grid = GridSpec::new(extents);
        check_all(&grid, min_bits(&grid)).unwrap();
    }
}

#[test]
fn degenerate_grids_match_encode_then_sort() {
    for extents in [
        vec![1u64],
        vec![2],
        vec![1, 1, 1, 1],
        vec![64, 1, 1],
        vec![1, 33],
        vec![3, 1, 7],
        vec![1024],
        vec![1025],
    ] {
        let grid = GridSpec::new(extents);
        check_all(&grid, min_bits(&grid)).unwrap();
    }
}

#[test]
fn oversized_curves_match_encode_then_sort() {
    // A curve with more bits than the grid needs: the grid sits in one
    // corner of the curve's cube.
    let grid = GridSpec::new([5u64, 3, 4]);
    for bits in [4, 7, 21] {
        check_all(&grid, bits).unwrap();
    }
    // dims * bits = 64: the whole-curve block spans every index.
    check_all(&GridSpec::new([3u64, 5]), 32).unwrap();
    check_all(&GridSpec::new([9u64]), 64).unwrap();
}

/// One extent: 1, 2^k, 2^k - 1, 2^k + 1 or anything up to `2^cap`.
fn extent(kind: u8, k: u32, any: u64, cap: u32) -> u64 {
    let k = k % (cap + 1);
    match kind % 5 {
        0 => 1,
        1 => 1 << k,
        2 => ((1u64 << k) - 1).max(1),
        3 => (1 << k) + 1,
        _ => any % (1 << cap) + 1,
    }
}

/// Random grids of 1–4 dimensions. The exponent cap shrinks with the
/// dimension count so the oracle stays small (at most 17^4 cells).
fn arb_grid() -> impl Strategy<Value = GridSpec> {
    proptest::collection::vec((0u8..5, 0u32..16, 0u64..1 << 20), 1..5).prop_map(|picks| {
        let cap = [10, 7, 5, 4][picks.len() - 1];
        GridSpec::new(
            picks
                .iter()
                .map(|&(kind, k, any)| extent(kind, k, any, cap))
                .collect::<Vec<_>>(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn curve_order_matches_encode_then_sort(grid in arb_grid(), extra_bits in 0u32..3) {
        let result = check_all(&grid, min_bits(&grid) + extra_bits);
        prop_assert!(result.is_ok(), "{}", result.unwrap_err());
    }
}
