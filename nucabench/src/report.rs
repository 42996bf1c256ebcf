//! The benchmark report: named metrics with units, printed as text and
//! as the one-line JSON result.

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

/// Everything one benchmark invocation reports.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// Whether every checked output was correct.
    pub correct: bool,
    /// Cells (and canary checks) attempted.
    pub attempted: u64,
    /// Of those, how many errored, failed their audit or mismatched.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Free-form lines printed before the metrics (seed, failures).
    pub notes: Vec<String>,
}

impl Report {
    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Appends a counter.
    pub fn count(&mut self, name: &'static str, value: u64) {
        self.push(name, value as f64, "count");
    }

    /// Records one failed check with its reason.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        self.notes.push(format!("FAIL {reason}"));
    }

    /// Human-readable lines: notes, then one `name value unit` per metric.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        for m in &self.metrics {
            let _ = writeln!(out, "{:<34} {:>18} {}", m.name, fmt_value(m.value), m.unit);
        }
        let _ = writeln!(
            out,
            "correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
        out
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics` (name -> value and unit).
    pub fn render_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    fmt_value(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's round-trip formatting gives;
/// non-finite values (which JSON cannot carry) print as 0.
fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
