//! The process-wide registry: labelled sections collected off the hot
//! path, plus the global enable gate.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use parking_lot::Mutex;

use crate::json::Value;
use crate::metrics::Metrics;

/// Whether telemetry collection is on (default: on). The gate is
/// advisory: recording into a private [`Metrics`] is always safe, but
/// callers that would otherwise allocate sinks per cell check it first,
/// which is what the perf smoke's overhead measurement flips.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turn telemetry collection on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether telemetry collection is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

/// A collection point for merged [`Metrics`], one labelled section per
/// unit of reporting (a figure, a benchmark phase).
///
/// Recording on the hot path never touches the registry: work
/// accumulates into thread-local `Metrics` owned by each sweep cell,
/// the caller merges them **in submission order** (see
/// [`Metrics::merge_ordered`]), and only the merged result is recorded
/// here — one lock acquisition per sweep, in program order, so the
/// registry contents are deterministic at any thread count.
#[derive(Debug, Default)]
pub struct Registry {
    sections: Mutex<Vec<(String, Metrics)>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Record a merged section under `label` (appended in call order;
    /// labels may repeat — sections are not keyed).
    pub fn record(&self, label: impl Into<String>, metrics: Metrics) {
        self.sections.lock().push((label.into(), metrics));
    }

    /// Merge every section, in recording order, into one accumulator.
    pub fn merged(&self) -> Metrics {
        let sections = self.sections.lock();
        Metrics::merge_ordered(sections.iter().map(|(_, m)| m))
    }

    /// Drop all sections (the perf harness clears between passes).
    pub fn clear(&self) {
        self.sections.lock().clear();
    }

    /// Whether any section has been recorded.
    pub fn is_empty(&self) -> bool {
        self.sections.lock().is_empty()
    }

    /// All sections as one JSON object keyed by label (repeated labels
    /// get a `#n` suffix so no section is lost).
    pub fn to_json(&self) -> Value {
        let sections = self.sections.lock();
        let mut out = BTreeMap::new();
        for (i, (label, metrics)) in sections.iter().enumerate() {
            let dups = sections[..i].iter().filter(|(l, _)| l == label).count();
            let key = if dups == 0 {
                label.clone()
            } else {
                format!("{label}#{dups}")
            };
            out.insert(key, metrics.to_json());
        }
        Value::Obj(out)
    }
}

/// The process-wide registry the figure generators and the perf smoke
/// report into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Counter, MetricsSink};

    #[test]
    fn sections_merge_in_recording_order() {
        let reg = Registry::new();
        assert!(reg.is_empty());
        let mut a = Metrics::new();
        a.counter(Counter::PrefetchHit, 1);
        let mut b = Metrics::new();
        b.counter(Counter::PrefetchHit, 2);
        reg.record("first", a);
        reg.record("second", b);
        assert_eq!(reg.merged().counter_value(Counter::PrefetchHit), 3);
        let json = reg.to_json();
        assert!(json.get("first").is_some());
        assert!(json.get("second").is_some());
        reg.clear();
        assert!(reg.is_empty());
    }

    #[test]
    fn duplicate_labels_stay_distinct_in_json() {
        let reg = Registry::new();
        reg.record("fig", Metrics::new());
        reg.record("fig", Metrics::new());
        reg.record("fig", Metrics::new());
        let json = reg.to_json();
        assert!(json.get("fig").is_some());
        assert!(json.get("fig#1").is_some());
        assert!(json.get("fig#2").is_some());
    }

    #[test]
    fn enable_gate_round_trips() {
        let was = enabled();
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(was);
    }
}
