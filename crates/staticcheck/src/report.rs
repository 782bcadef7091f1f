//! Machine-readable results of a static-analysis run.
//!
//! Both prongs (the layout invariant prover and the source lint) reduce
//! to a [`Report`]: a list of named checks, each with a [`Verdict`].
//! Reports serialize to JSON (via `multimap_telemetry::json`) so CI
//! can archive them, and `is_clean` drives the process exit code.

use multimap_telemetry::json::{obj, Value};

/// Outcome of one invariant check or lint rule on one subject.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The invariant holds; `method` names the proof strategy
    /// (`"exhaustive"`, `"stride-symmetry"`, `"rank-table"`, …).
    Proved {
        /// How the invariant was established.
        method: String,
    },
    /// The invariant is violated; each entry is one concrete witness.
    Violated {
        /// Human-readable violation witnesses.
        details: Vec<String>,
    },
    /// The check did not apply to this subject.
    Skipped {
        /// Why the check was skipped.
        reason: String,
    },
}

impl Verdict {
    /// Whether this verdict represents a violation.
    #[inline]
    pub fn is_violation(&self) -> bool {
        matches!(self, Verdict::Violated { .. })
    }
}

/// One named check applied to one subject under one configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckOutcome {
    /// Invariant or rule identifier (`bijection`, `adjacency-step`, …).
    pub invariant: String,
    /// What was checked (mapping name, file path, …).
    pub subject: String,
    /// Sweep configuration (profile and grid) or rule scope.
    pub config: String,
    /// The result.
    pub verdict: Verdict,
}

/// A full static-analysis report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// All check outcomes, in execution order.
    pub outcomes: Vec<CheckOutcome>,
}

impl Report {
    /// Empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Record one outcome.
    pub fn push(
        &mut self,
        invariant: impl Into<String>,
        subject: impl Into<String>,
        config: impl Into<String>,
        verdict: Verdict,
    ) {
        self.outcomes.push(CheckOutcome {
            invariant: invariant.into(),
            subject: subject.into(),
            config: config.into(),
            verdict,
        });
    }

    /// Append all outcomes of another report.
    pub fn merge(&mut self, other: Report) {
        self.outcomes.extend(other.outcomes);
    }

    /// Outcomes that are violations.
    pub fn violations(&self) -> Vec<&CheckOutcome> {
        self.outcomes
            .iter()
            .filter(|o| o.verdict.is_violation())
            .collect()
    }

    /// Whether every check passed (or was skipped).
    pub fn is_clean(&self) -> bool {
        self.violations().is_empty()
    }

    /// Count of `(proved, violated, skipped)` outcomes.
    pub fn tallies(&self) -> (usize, usize, usize) {
        let mut t = (0, 0, 0);
        for o in &self.outcomes {
            match o.verdict {
                Verdict::Proved { .. } => t.0 += 1,
                Verdict::Violated { .. } => t.1 += 1,
                Verdict::Skipped { .. } => t.2 += 1,
            }
        }
        t
    }

    /// Render as a JSON document.
    pub fn to_json(&self) -> Value {
        let (proved, violated, skipped) = self.tallies();
        let checks = self.outcomes.iter().map(|o| {
            let (status, detail) = match &o.verdict {
                Verdict::Proved { method } => ("proved", ("method", method.as_str().into())),
                Verdict::Violated { details } => {
                    let witnesses = details.iter().map(|d| d.as_str().into()).collect();
                    ("violated", ("details", Value::Arr(witnesses)))
                }
                Verdict::Skipped { reason } => ("skipped", ("reason", reason.as_str().into())),
            };
            obj([
                ("invariant", o.invariant.as_str().into()),
                ("subject", o.subject.as_str().into()),
                ("config", o.config.as_str().into()),
                ("status", status.into()),
                detail,
            ])
        });
        obj([
            (
                "summary",
                obj([
                    ("proved", proved.into()),
                    ("violated", violated.into()),
                    ("skipped", skipped.into()),
                    ("clean", self.is_clean().into()),
                ]),
            ),
            ("checks", Value::Arr(checks.collect())),
        ])
    }

    /// One-line-per-check human summary; violations list their witnesses.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for o in &self.outcomes {
            let tag = match &o.verdict {
                Verdict::Proved { method } => format!("PROVED [{method}]"),
                Verdict::Violated { .. } => "VIOLATED".into(),
                Verdict::Skipped { reason } => format!("skipped ({reason})"),
            };
            let _ = writeln!(out, "{:<24} {:<28} {:<40} {tag}", o.invariant, o.subject, o.config);
            if let Verdict::Violated { details } = &o.verdict {
                for d in details.iter().take(8) {
                    let _ = writeln!(out, "    !! {d}");
                }
                if details.len() > 8 {
                    let _ = writeln!(out, "    !! … and {} more", details.len() - 8);
                }
            }
        }
        let (proved, violated, skipped) = self.tallies();
        let _ = writeln!(
            out,
            "{} checks: {proved} proved, {violated} violated, {skipped} skipped",
            self.outcomes.len()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tallies_and_cleanliness() {
        let mut r = Report::new();
        r.push("a", "x", "cfg", Verdict::Proved { method: "m".into() });
        r.push("b", "y", "cfg", Verdict::Skipped { reason: "n/a".into() });
        assert!(r.is_clean());
        assert_eq!(r.tallies(), (1, 0, 1));
        r.push(
            "c",
            "z",
            "cfg",
            Verdict::Violated {
                details: vec!["boom".into()],
            },
        );
        assert!(!r.is_clean());
        assert_eq!(r.violations().len(), 1);
    }

    #[test]
    fn json_roundtrips_through_parser() {
        let mut r = Report::new();
        r.push("bijection", "MultiMap", "toy 5x3x3", Verdict::Proved { method: "exhaustive".into() });
        r.push(
            "adjacency",
            "MultiMap",
            "toy 5x3x3",
            Verdict::Violated {
                details: vec!["step 4 > D".into()],
            },
        );
        let text = r.to_json().to_pretty();
        let back = multimap_telemetry::json::parse(&text).unwrap();
        assert_eq!(back.get("summary").unwrap().get("clean"), Some(&Value::Bool(false)));
        assert_eq!(back.get("checks").unwrap().as_arr().unwrap().len(), 2);
        let rendered = r.render_text();
        assert!(rendered.contains("VIOLATED"));
        assert!(rendered.contains("step 4 > D"));
    }
}
