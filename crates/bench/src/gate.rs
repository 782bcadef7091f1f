//! Regression rules holding a fresh BENCH file to a committed baseline:
//! the logic behind the `benchgate` bin. The files' `"bench"` field
//! picks the rules. Simulated numbers must match exactly; wall-clock
//! numbers only trip on a collapse. Rules a single run can check are
//! enforced by the exit status of the bin that wrote the file and are
//! not repeated here (see `docs/performance.md`).

use multimap_telemetry::json::Value;

/// Fields a `perf` report must carry; dots step into nested objects.
pub const PERF_REQUIRED: &[&str] = &[
    "telemetry_overhead_pct", "seek_memo_hit_rate", "translation_cache_hit_rate",
    "hit_rate_floor", "telemetry.phases_ms", "telemetry.spans_wall_ms",
    "degraded_overhead_pct", "fault_payload_match", "fault_remaps", "selection_cells",
    "selection_speedup_w4096", "selection_incremental_per_s_w4096", "cache_cells",
    "cache_mm_adjacency_hit_rate", "cache_mm_sequential_hit_rate", "backend_cells",
    "backend_write_cells", "backend_disk_mm_beam_ms", "backend_ssd_mm_beam_ms",
    "backend_imr_mm_beam_ms", "backend_imr_rmw_rewrites", "backend_payload_match",
    "backend_imr_reads_identical",
];

/// The window-4096 selection speedup a baseline must reach: baselines
/// are taken at `--scale large`, where the 5x acceptance figure holds.
pub const SELECTION_ACCEPTANCE: f64 = 5.0;

/// A fresh selection speedup times this factor must still reach the
/// baseline's. Quick-scale cells are noise-bound, so only a collapse trips.
pub const SELECTION_COLLAPSE: f64 = 4.0;

/// The share of the baseline's MultiMap adjacency hit rate a fresh run
/// must keep.
pub const ADJACENCY_FLOOR: f64 = 0.8;

/// Simulated `perf` figures that must equal the baseline's exactly.
pub const PERF_EXACT: &[&str] = &[
    "backend_disk_mm_beam_ms", "backend_ssd_mm_beam_ms", "backend_imr_mm_beam_ms",
    "backend_imr_rmw_rewrites",
];

/// Serving fields that must equal the baseline's exactly, in every cell
/// and in every tenant row that carries them.
pub const SERVING_EXACT: &[&str] =
    &["p50_ms", "p99_ms", "p999_ms", "mean_ms", "completed", "shed", "rejected", "digest"];

/// Every rule `fresh` breaks against `baseline`, one message each; the
/// gate passes when the list is empty.
pub fn check(fresh: &Value, baseline: &Value) -> Vec<String> {
    let kind = fresh.get("bench").and_then(Value::as_str);
    let base_kind = baseline.get("bench").and_then(Value::as_str);
    match kind {
        _ if kind != base_kind => {
            vec![format!("bench kinds differ: fresh {kind:?}, baseline {base_kind:?}")]
        }
        Some("pr9_backend_matrix") => check_perf(fresh, baseline),
        Some("pr10-serving") => check_serving(fresh, baseline),
        other => vec![format!("no gate rules for bench {other:?}")],
    }
}

fn check_perf(fresh: &Value, baseline: &Value) -> Vec<String> {
    let mut out = Vec::new();
    for (side, doc) in [("fresh", fresh), ("baseline", baseline)] {
        for path in PERF_REQUIRED {
            if doc.at(path).is_none() {
                out.push(format!("{side} report lacks {path}"));
            }
        }
    }
    let num = |doc: &Value, field| doc.get(field).and_then(Value::as_f64);
    let pair = |field| {
        let both = num(fresh, field).zip(num(baseline, field));
        both.ok_or_else(|| format!("{field} is not a number in both reports"))
    };
    match pair("selection_speedup_w4096") {
        Err(e) => out.push(e),
        Ok((f, b)) => {
            if b < SELECTION_ACCEPTANCE {
                out.push(format!(
                    "baseline selection_speedup_w4096 {b}x is under the \
                     {SELECTION_ACCEPTANCE}x acceptance figure"
                ));
            }
            if f * SELECTION_COLLAPSE < b {
                out.push(format!(
                    "selection_speedup_w4096 collapsed: fresh {f}x x {SELECTION_COLLAPSE} \
                     < baseline {b}x"
                ));
            }
        }
    }
    match pair("cache_mm_adjacency_hit_rate") {
        Err(e) => out.push(e),
        Ok((f, b)) if f < ADJACENCY_FLOOR * b => out.push(format!(
            "cache_mm_adjacency_hit_rate {f} fell below {ADJACENCY_FLOOR} x baseline {b}"
        )),
        Ok(_) => {}
    }
    for field in PERF_EXACT {
        let (f, b) = (fresh.get(field), baseline.get(field));
        match pair(field) {
            Err(e) => out.push(e),
            Ok(_) if f != b => out.push(format!(
                "{field} drifted from the baseline: fresh {f:?}, baseline {b:?}"
            )),
            Ok(_) => {}
        }
    }
    out
}

fn check_serving(fresh: &Value, baseline: &Value) -> Vec<String> {
    let (fresh_cells, base_cells) = (array(fresh, "cells"), array(baseline, "cells"));
    if base_cells.is_empty() || fresh_cells.len() != base_cells.len() {
        let (f, b) = (fresh_cells.len(), base_cells.len());
        return vec![format!("cells: fresh {f}, baseline {b}; need one non-zero count")];
    }
    let mut out = Vec::new();
    for (i, (f, b)) in fresh_cells.iter().zip(base_cells).enumerate() {
        let label = ["backend", "mapping", "tenants", "policy"].map(|k| match b.get(k) {
            Some(Value::Str(s)) => s.clone(),
            v => v.and_then(Value::as_u64).map_or("?".into(), |n| n.to_string()),
        });
        let at = format!("cell {i} ({})", label.join("/"));
        compare_exact(&mut out, &at, f, b, true);
        let (ft, bt) = (array(f, "tenant_detail"), array(b, "tenant_detail"));
        if ft.len() != bt.len() {
            out.push(format!("{at}: tenant rows fresh {}, baseline {}", ft.len(), bt.len()));
        }
        for (j, (x, y)) in ft.iter().zip(bt).enumerate() {
            compare_exact(&mut out, &format!("{at} tenant {j}"), x, y, false);
        }
    }
    out
}

/// Push a message for every [`SERVING_EXACT`] field on which `f` and
/// `b` differ (or, when `required`, that they lack).
fn compare_exact(out: &mut Vec<String>, at: &str, f: &Value, b: &Value, required: bool) {
    for field in SERVING_EXACT {
        let (x, y) = (f.get(field), b.get(field));
        if x != y || (required && x.is_none()) {
            out.push(format!("{at}: {field} fresh {x:?}, baseline {y:?}"));
        }
    }
}

/// The array member `key` of `doc`, empty if there is none.
fn array<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key).and_then(Value::as_arr).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use multimap_telemetry::json::parse;

    fn perf() -> Value {
        parse(include_str!("../../../BENCH_pr9.json")).unwrap()
    }

    fn serving() -> Value {
        parse(include_str!("../../../BENCH_pr10.json")).unwrap()
    }

    /// `doc` with the value at dotted `path` (numbers index arrays) set
    /// to `value`, or removed when `value` is `None`.
    fn with(mut doc: Value, path: &str, value: Option<Value>) -> Value {
        let (parent, last) = path.rsplit_once('.').unwrap_or(("", path));
        let mut at = &mut doc;
        for key in parent.split('.').filter(|k| !k.is_empty()) {
            at = match at {
                Value::Obj(m) => m.get_mut(key).unwrap(),
                Value::Arr(a) => &mut a[key.parse::<usize>().unwrap()],
                other => panic!("{key}: not a container: {other:?}"),
            };
        }
        match (at, value) {
            (Value::Obj(m), Some(v)) => drop(m.insert(last.into(), v)),
            (Value::Obj(m), None) => drop(m.remove(last)),
            (Value::Arr(a), Some(v)) => a[last.parse::<usize>().unwrap()] = v,
            (Value::Arr(a), None) => drop(a.remove(last.parse::<usize>().unwrap())),
            (other, _) => panic!("{path}: not a container: {other:?}"),
        }
        doc
    }

    fn num(doc: &Value, field: &str) -> f64 {
        doc.get(field).and_then(Value::as_f64).unwrap()
    }

    /// `fresh` breaks at least one rule, and every message names `needle`.
    fn fails(fresh: &Value, baseline: &Value, needle: &str) {
        let broken = check(fresh, baseline);
        assert!(!broken.is_empty(), "no violation; expected one naming {needle}");
        assert!(broken.iter().all(|m| m.contains(needle)), "{needle}: {broken:?}");
    }

    #[test]
    fn committed_baselines_hold_against_themselves() {
        assert_eq!(check(&perf(), &perf()), Vec::<String>::new());
        assert_eq!(check(&serving(), &serving()), Vec::<String>::new());
    }

    #[test]
    fn one_changed_digest_fails() {
        let fresh = with(serving(), "cells.17.digest", Some("0000000000000000".into()));
        fails(&fresh, &serving(), "cell 17 (");
    }

    #[test]
    fn one_tenant_p99_fails() {
        let fresh = with(serving(), "cells.3.tenant_detail.1.p99_ms", Some(Value::Num(1.0)));
        fails(&fresh, &serving(), "cell 3 (disk/Naive/8/fifo) tenant 1: p99_ms");
    }

    #[test]
    fn a_different_cell_count_fails() {
        let fresh = with(serving(), "cells.35", None);
        fails(&fresh, &serving(), "cells: fresh 35, baseline 36");
    }

    #[test]
    fn backend_beam_drift_of_a_ten_thousandth_fails() {
        let drifted = Value::Num(num(&perf(), "backend_ssd_mm_beam_ms") + 0.0001);
        let fresh = with(perf(), "backend_ssd_mm_beam_ms", Some(drifted));
        fails(&fresh, &perf(), "backend_ssd_mm_beam_ms drifted");
    }

    #[test]
    fn imr_rewrite_count_is_exact() {
        let fresh = with(perf(), "backend_imr_rmw_rewrites", Some(30u64.into()));
        fails(&fresh, &perf(), "backend_imr_rmw_rewrites drifted");
    }

    #[test]
    fn baseline_under_the_acceptance_figure_fails() {
        let baseline = with(perf(), "selection_speedup_w4096", Some(Value::Num(4.9)));
        fails(&perf(), &baseline, "under the 5x acceptance figure");
    }

    #[test]
    fn collapsed_fresh_speedup_fails() {
        let collapsed = Value::Num(num(&perf(), "selection_speedup_w4096") / 4.0 - 0.01);
        let fresh = with(perf(), "selection_speedup_w4096", Some(collapsed));
        fails(&fresh, &perf(), "collapsed");
    }

    #[test]
    fn adjacency_hit_rate_below_the_floor_fails() {
        let eroded = Value::Num(0.79 * num(&perf(), "cache_mm_adjacency_hit_rate"));
        let fresh = with(perf(), "cache_mm_adjacency_hit_rate", Some(eroded));
        fails(&fresh, &perf(), "cache_mm_adjacency_hit_rate");
    }

    #[test]
    fn a_missing_required_field_fails() {
        let fresh = with(perf(), "telemetry.phases_ms", None);
        fails(&fresh, &perf(), "fresh report lacks telemetry.phases_ms");
    }

    #[test]
    fn mismatched_or_unknown_bench_kinds_fail() {
        fails(&perf(), &serving(), "bench kinds differ");
        let odd = with(perf(), "bench", Some("pr3".into()));
        fails(&odd, &odd, "no gate rules");
    }
}
