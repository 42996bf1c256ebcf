//! `--trace` / `--metrics-out` plumbing shared by every simulating harness binary.
//!
//! Each binary parses [`TelemetryArgs`] once, calls
//! [`TelemetryArgs::install`] before its driver and
//! [`TelemetryArgs::export`] after it. While installed, the process-wide
//! [`telemetry::collector`] makes `run_mix` record every simulation cell
//! and gather the traces in cell order, so the exported files are
//! byte-identical for every `--jobs` value.
//!
//! The command line beats the `TRACE` / `METRICS_OUT` environment
//! variables — the latter is how `run_figures.sh` forwards one setting
//! to every binary it spawns.

use std::path::PathBuf;

use telemetry::export::{metrics_json, render_jsonl};
use telemetry::json::Json;
use telemetry::{collector, Recorder};

/// Where (and whether) to write the JSONL trace and the metrics
/// document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetryArgs {
    /// JSONL event-trace path (`--trace` / `TRACE`).
    pub trace: Option<PathBuf>,
    /// Metrics-document path (`--metrics-out` / `METRICS_OUT`).
    pub metrics_out: Option<PathBuf>,
}

impl TelemetryArgs {
    /// Reads the process command line and environment.
    pub fn parse() -> Self {
        TelemetryArgs::from_args(std::env::args().skip(1), |key| std::env::var(key).ok())
    }

    fn from_args(args: impl Iterator<Item = String>, env: impl Fn(&str) -> Option<String>) -> Self {
        let mut trace = None;
        let mut metrics_out = None;
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            if arg == "--trace" {
                trace = args.next().map(PathBuf::from);
            } else if let Some(v) = arg.strip_prefix("--trace=") {
                trace = Some(PathBuf::from(v));
            } else if arg == "--metrics-out" {
                metrics_out = args.next().map(PathBuf::from);
            } else if let Some(v) = arg.strip_prefix("--metrics-out=") {
                metrics_out = Some(PathBuf::from(v));
            }
        }
        TelemetryArgs {
            trace: trace.or_else(|| env("TRACE").filter(|s| !s.is_empty()).map(PathBuf::from)),
            metrics_out: metrics_out.or_else(|| {
                env("METRICS_OUT")
                    .filter(|s| !s.is_empty())
                    .map(PathBuf::from)
            }),
        }
    }

    /// Whether any output was requested.
    pub fn requested(&self) -> bool {
        self.trace.is_some() || self.metrics_out.is_some()
    }

    /// Installs the process-wide collector when any output is requested
    /// (a no-op otherwise, keeping the untraced fast path).
    pub fn install(&self) {
        if self.requested() {
            collector::install(Recorder::DEFAULT_CAPACITY);
        }
    }

    /// Uninstalls the collector and writes the requested files, tagging
    /// the metrics document with `figure`. Returns the number of traces
    /// collected (zero when nothing was requested).
    ///
    /// # Errors
    ///
    /// Propagates file-system errors from writing the outputs.
    pub fn export(&self, figure: &str) -> std::io::Result<usize> {
        let traces = collector::uninstall();
        if let Some(path) = &self.trace {
            std::fs::write(path, render_jsonl(&traces))?;
        }
        if let Some(path) = &self.metrics_out {
            let mut doc = metrics_json(&traces);
            if let Json::Obj(pairs) = &mut doc {
                pairs.insert(0, ("figure".into(), Json::str(figure)));
            }
            std::fs::write(path, doc.render())?;
        }
        Ok(traces.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv<'a>(args: &'a [&'a str]) -> impl Iterator<Item = String> + 'a {
        args.iter().map(|s| s.to_string())
    }

    #[test]
    fn command_line_beats_environment() {
        let env = |key: &str| match key {
            "TRACE" => Some("env-trace.jsonl".to_string()),
            "METRICS_OUT" => Some("env-metrics.json".to_string()),
            _ => None,
        };
        let t = TelemetryArgs::from_args(argv(&["--trace", "cli.jsonl", "--jobs", "2"]), env);
        assert_eq!(t.trace, Some(PathBuf::from("cli.jsonl")));
        assert_eq!(t.metrics_out, Some(PathBuf::from("env-metrics.json")));
        assert!(t.requested());
    }

    #[test]
    fn equals_form_and_empty_env_are_handled() {
        let t = TelemetryArgs::from_args(argv(&["--metrics-out=m.json"]), |key| {
            if key == "TRACE" {
                Some(String::new())
            } else {
                None
            }
        });
        assert_eq!(t.trace, None, "empty TRACE means off");
        assert_eq!(t.metrics_out, Some(PathBuf::from("m.json")));
        let off = TelemetryArgs::from_args(argv(&["--jobs", "4"]), |_| None);
        assert!(!off.requested());
    }
}
