//! `--trace` / `--metrics-out` plumbing shared by the harness binaries
//! that simulate or print a table (not `perf`, not the Figure 6–12
//! renderers).
//!
//! Each binary parses [`TelemetryArgs`] once — the simulating ones
//! through [`crate::parse_args`] — calls [`TelemetryArgs::install`]
//! before its driver and [`TelemetryArgs::export`] after it. While
//! installed, the process-wide [`telemetry::collector`] makes `run_mix`
//! record every simulation cell and gather the traces in cell order, so
//! the exported files are byte-identical for every `--jobs` value.
//! The flags are the only way in; `run_figures.sh` turns its `TRACE` /
//! `METRICS_OUT` settings into them.

use std::path::PathBuf;

use nuca_core::experiment::{flag_args, flag_value};
use telemetry::export::{metrics_json, render_jsonl};
use telemetry::json::Json;
use telemetry::{collector, Recorder};

/// Where (and whether) to write the JSONL trace and the metrics
/// document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetryArgs {
    /// JSONL event-trace path (`--trace`).
    pub trace: Option<PathBuf>,
    /// Metrics-document path (`--metrics-out`).
    pub metrics_out: Option<PathBuf>,
}

impl TelemetryArgs {
    /// Parses the arguments of a binary that takes only the telemetry
    /// flags (Table 1, the cost model).
    ///
    /// # Errors
    ///
    /// A message for any other argument or a missing value.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut tele = TelemetryArgs::default();
        let mut it = flag_args(args);
        while let Some(arg) = it.next() {
            if !tele.parse_flag(&arg, &mut it)? {
                return Err(format!(
                    "unknown argument {arg}\nflags: [--trace PATH] [--metrics-out PATH]"
                ));
            }
        }
        Ok(tele)
    }

    /// Applies `flag` when it is `--trace` or `--metrics-out`, taking its
    /// path from `args`. Returns whether it matched.
    ///
    /// # Errors
    ///
    /// A message when the path is missing.
    pub(crate) fn parse_flag(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        let slot = match flag {
            "--trace" => &mut self.trace,
            "--metrics-out" => &mut self.metrics_out,
            _ => return Ok(false),
        };
        *slot = Some(PathBuf::from(flag_value(flag, args.next())?));
        Ok(true)
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
    fn equals_form_and_empty_env_are_handled() {
        // The flags are the only input: no environment fallback, both
        // spellings, and a missing or empty path is an error.
        let t = TelemetryArgs::from_args(argv(&["--metrics-out=m.json"])).unwrap();
        assert_eq!(t.trace, None);
        assert_eq!(t.metrics_out, Some(PathBuf::from("m.json")));
        let t = TelemetryArgs::from_args(argv(&["--trace", "cli.jsonl"])).unwrap();
        assert_eq!(t.trace, Some(PathBuf::from("cli.jsonl")));
        assert_eq!(t.metrics_out, None);
        assert!(t.requested());
        let off = TelemetryArgs::from_args(argv(&[])).unwrap();
        assert!(!off.requested());
        for bad in [&["--trace="][..], &["--trace"], &["--jobs", "4"]] {
            assert!(TelemetryArgs::from_args(argv(bad)).is_err(), "{bad:?}");
        }
    }
}
