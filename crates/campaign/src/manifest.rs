//! The crash-safe JSONL manifest: append, resume, merge, read back.
//!
//! One line per finished cell, appended in cell-index order, flushed
//! per line. Lines carry no timestamps or host state, so the manifest
//! of a killed-and-resumed campaign is byte-identical to the manifest
//! of an uninterrupted run, and shard manifests merge (sort by cell
//! index) into exactly the single-process file. A partial trailing
//! line — the footprint of a kill mid-write — is truncated away on
//! resume and its cell re-runs.
//!
//! [`Manifest`] reads a finished manifest back for rendering: the
//! figure binaries project its cells and never simulate. Floats are
//! written in Rust's shortest round-trip form, so a read-back cell is
//! bit-equal to the simulated one.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;

use telemetry::json::Json;
use tracegen::spec::SpecApp;

use crate::spec::OrgKind;
use crate::CampaignError;

fn io_err(path: &Path, e: impl std::fmt::Display) -> CampaignError {
    CampaignError::Io(format!("{}: {e}", path.display()))
}

/// An open manifest being appended to.
#[derive(Debug)]
pub struct ManifestWriter {
    file: File,
}

impl ManifestWriter {
    /// Opens (creating if absent) the manifest for appending.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] if the file cannot be opened.
    pub fn append_to(path: &Path) -> Result<Self, CampaignError> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        Ok(ManifestWriter { file })
    }

    /// Appends one line (the newline is added here) and flushes, so a
    /// kill after this call loses nothing.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] on a write failure.
    pub fn append(&mut self, line: &str) -> Result<(), CampaignError> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.file
            .write_all(&buf)
            .and_then(|()| self.file.flush())
            .map_err(|e| CampaignError::Io(format!("manifest append: {e}")))
    }
}

/// One simulated cell read back from a manifest: the measured-window
/// fields the figure renderers project. The runner's
/// [`done_line`](crate::runner::done_line) is the only writer of the
/// line format.
#[derive(Debug, Clone, PartialEq)]
pub struct DoneCell {
    /// The application on each core, in core order.
    pub apps: Vec<SpecApp>,
    /// Harmonic-mean IPC of the measured window.
    pub hmean_ipc: f64,
    /// Arithmetic-mean IPC of the measured window.
    pub amean_ipc: f64,
    /// Per-core IPC, one entry per application.
    pub ipc: Vec<f64>,
    /// Final per-core quotas (adaptive cells only).
    pub quotas: Option<Vec<u32>>,
}

impl DoneCell {
    /// The mix label, e.g. `"ammp+art+mcf+gzip"`.
    pub fn label(&self) -> String {
        label(&self.apps)
    }
}

fn label(apps: &[SpecApp]) -> String {
    apps.iter().map(|a| a.name()).collect::<Vec<_>>().join("+")
}

/// A finished manifest read back for rendering. Every line is checked
/// on the way in: at most one cell per (organization, mix index), and
/// every organization runs the same applications for a given mix
/// index. Pruned cells are kept so a lookup can say why it fails.
#[derive(Debug)]
pub struct Manifest {
    /// Names the manifest in error messages.
    source: String,
    /// `(organization, mix index, cell)` per line; `None` marks a
    /// pruned cell.
    cells: Vec<(OrgKind, usize, Option<DoneCell>)>,
    /// One more than the largest mix index.
    mixes: usize,
}

impl Manifest {
    /// Reads and checks the manifest at `path`.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] if the file cannot be read;
    /// [`CampaignError::Manifest`] as for [`Manifest::parse`].
    pub fn read(path: &Path) -> Result<Self, CampaignError> {
        let text = std::fs::read_to_string(path).map_err(|e| io_err(path, e))?;
        Manifest::parse(&path.display().to_string(), &text)
    }

    /// Parses and checks manifest text; `source` names it in errors.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Manifest`] for an empty manifest, a malformed
    /// line, a truncated last line (no newline: the footprint of a
    /// kill), two cells for the same (organization, mix index), or
    /// organizations that disagree on a mix's applications.
    pub fn parse(source: &str, text: &str) -> Result<Self, CampaignError> {
        let fail = |line: usize, msg: String| {
            CampaignError::Manifest(format!("{source}:{}: {msg}", line + 1))
        };
        let mut cells: Vec<(OrgKind, usize, Option<DoneCell>)> = Vec::new();
        let mut mix_apps: Vec<(usize, Vec<SpecApp>)> = Vec::new();
        for (n, line) in text.split_inclusive('\n').enumerate() {
            let line = line
                .strip_suffix('\n')
                .ok_or_else(|| fail(n, "truncated line (no newline)".to_string()))?;
            let (org, mix_index, apps, cell) = parse_line(line).map_err(|m| fail(n, m))?;
            if cells.iter().any(|(o, i, _)| (*o, *i) == (org, mix_index)) {
                return Err(fail(
                    n,
                    format!("second cell for ({}, mix {mix_index})", org.name()),
                ));
            }
            match mix_apps.iter().find(|(i, _)| *i == mix_index) {
                Some((_, seen)) if *seen != apps => {
                    return Err(fail(
                        n,
                        format!(
                            "{} ran mix {mix_index} as {}, an earlier cell as {}",
                            org.name(),
                            label(&apps),
                            label(seen)
                        ),
                    ))
                }
                Some(_) => {}
                None => mix_apps.push((mix_index, apps)),
            }
            cells.push((org, mix_index, cell));
        }
        let mixes = match mix_apps.iter().map(|(i, _)| i).max() {
            Some(last) => last + 1,
            None => return Err(CampaignError::Manifest(format!("{source}: no cells"))),
        };
        Ok(Manifest {
            source: source.to_string(),
            cells,
            mixes,
        })
    }

    /// Number of mixes: one more than the largest mix index.
    pub fn mixes(&self) -> usize {
        self.mixes
    }

    /// The simulated cell of `org` on mix `mix_index`.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Manifest`] if the manifest has no such cell or
    /// screening pruned it.
    pub fn cell(&self, org: OrgKind, mix_index: usize) -> Result<&DoneCell, CampaignError> {
        let line = self
            .cells
            .iter()
            .find(|(o, i, _)| (*o, *i) == (org, mix_index));
        match line {
            Some((_, _, Some(cell))) => Ok(cell),
            _ => Err(CampaignError::Manifest(format!(
                "{}: cell ({}, mix {mix_index}) {}",
                self.source,
                org.name(),
                if line.is_some() {
                    "was pruned, not simulated"
                } else {
                    "is missing"
                }
            ))),
        }
    }
}

/// One manifest line: its organization, mix index and applications,
/// and the measured window unless the cell was pruned.
type Line = (OrgKind, usize, Vec<SpecApp>, Option<DoneCell>);

fn parse_line(line: &str) -> Result<Line, String> {
    let doc = Json::parse(line).map_err(|e| format!("unparsable line: {e}"))?;
    let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing `{key}`"));
    let text = |key: &str| match field(key)? {
        Json::Str(s) => Ok(s.as_str()),
        _ => Err(format!("`{key}` is not a string")),
    };
    let num = |key: &str| {
        field(key)?
            .as_num()
            .ok_or_else(|| format!("`{key}` is not a number"))
    };
    let nums = |key: &str| match field(key)? {
        Json::Arr(items) => items
            .iter()
            .map(|v| {
                v.as_num()
                    .ok_or_else(|| format!("`{key}` holds a non-number"))
            })
            .collect::<Result<Vec<f64>, String>>(),
        _ => Err(format!("`{key}` is not an array")),
    };
    let org = text("org")?;
    let org = OrgKind::parse(org).ok_or_else(|| format!("unknown organization `{org}`"))?;
    let mix_index = whole(num("mix_index")?)
        .and_then(|v| usize::try_from(v).ok())
        .ok_or("`mix_index` is not an index")?;
    let apps = text("mix")?
        .split('+')
        .map(|name| {
            name.parse::<SpecApp>()
                .map_err(|_| format!("unknown application `{name}`"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let cell = match text("status")? {
        "pruned" => None,
        "done" => {
            let ipc = nums("ipc")?;
            if ipc.len() != apps.len() {
                return Err(format!(
                    "{} IPCs for {} applications",
                    ipc.len(),
                    apps.len()
                ));
            }
            let quotas = match doc.get("quotas") {
                None => None,
                Some(_) => Some(
                    nums("quotas")?
                        .into_iter()
                        .map(|v| whole(v).and_then(|v| u32::try_from(v).ok()))
                        .collect::<Option<Vec<u32>>>()
                        .ok_or("`quotas` holds a non-quota")?,
                ),
            };
            Some(DoneCell {
                apps: apps.clone(),
                hmean_ipc: num("hmean_ipc")?,
                amean_ipc: num("amean_ipc")?,
                ipc,
                quotas,
            })
        }
        other => return Err(format!("unknown status `{other}`")),
    };
    Ok((org, mix_index, apps, cell))
}

/// `v` as an unsigned integer, if it is one JSON can carry exactly.
fn whole(v: f64) -> Option<u64> {
    const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    ((0.0..EXACT).contains(&v) && v.fract() == 0.0).then_some(v as u64)
}

/// The cell index a manifest line describes.
///
/// # Errors
///
/// [`CampaignError::Manifest`] if the line is not a JSON object with a
/// numeric `cell` field.
pub fn cell_index(line: &str) -> Result<usize, CampaignError> {
    let doc =
        Json::parse(line).map_err(|e| CampaignError::Manifest(format!("unparsable line: {e}")))?;
    match doc.get("cell").and_then(Json::as_num) {
        Some(n) if n >= 0.0 => Ok(n as usize),
        _ => Err(CampaignError::Manifest(
            "line has no numeric `cell` field".to_string(),
        )),
    }
}

/// Reads a manifest for `--resume`: returns the completed cell indices
/// in file order, truncating a partial or unparsable trailing line in
/// place (the kill footprint) so appending can continue cleanly.
///
/// A missing file is an empty manifest. A malformed line *before* the
/// last one is corruption, not a kill footprint, and is an error.
///
/// # Errors
///
/// [`CampaignError::Io`] on read/write failures,
/// [`CampaignError::Manifest`] on mid-file corruption.
pub fn read_completed(path: &Path) -> Result<Vec<usize>, CampaignError> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err(path, e)),
    };
    let mut keep_bytes = 0usize;
    let mut done = Vec::new();
    let mut lines = text.split_inclusive('\n').peekable();
    while let Some(line) = lines.next() {
        let is_last = lines.peek().is_none();
        let complete = line.ends_with('\n');
        match cell_index(line.trim_end_matches('\n')) {
            Ok(idx) if complete => {
                done.push(idx);
                keep_bytes += line.len();
            }
            // A partial (no newline) or garbled trailing line is the
            // kill footprint: truncate it, its cell re-runs.
            Ok(_) | Err(_) if is_last => break,
            Ok(_) => break, // unreachable: !complete implies is_last
            Err(e) => {
                return Err(CampaignError::Manifest(format!(
                    "{}: corrupt non-trailing line: {e}",
                    path.display()
                )))
            }
        }
    }
    if keep_bytes < text.len() {
        std::fs::write(path, &text.as_bytes()[..keep_bytes]).map_err(|e| io_err(path, e))?;
    }
    Ok(done)
}

/// Merges shard manifests into one document: all lines, sorted stably
/// by cell index. Since every writer appends in cell-index order and a
/// cell belongs to exactly one shard, the merge of N shard manifests
/// is byte-identical to an uninterrupted single-process manifest.
///
/// # Errors
///
/// [`CampaignError::Manifest`] on unparsable lines or when two inputs
/// disagree about the same cell; [`CampaignError::Io`] on read errors.
pub fn merge(inputs: &[std::path::PathBuf]) -> Result<String, CampaignError> {
    let mut lines: Vec<(usize, String)> = Vec::new();
    for path in inputs {
        let text = std::fs::read_to_string(path).map_err(|e| io_err(path, e))?;
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            lines.push((cell_index(line)?, line.to_string()));
        }
    }
    lines.sort_by_key(|(idx, _)| *idx);
    for pair in lines.windows(2) {
        if pair[0].0 == pair[1].0 && pair[0].1 != pair[1].1 {
            return Err(CampaignError::Manifest(format!(
                "cell {} appears twice with different content",
                pair[0].0
            )));
        }
    }
    lines.dedup();
    let mut out = String::new();
    for (_, line) in &lines {
        out.push_str(line);
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("nuca-campaign-{}-{name}", std::process::id()))
    }

    #[test]
    fn append_resume_and_truncate_partial_tail() {
        let path = tmp("resume.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut w = ManifestWriter::append_to(&path).unwrap();
        w.append("{\"cell\":0,\"status\":\"done\"}").unwrap();
        w.append("{\"cell\":2,\"status\":\"pruned\"}").unwrap();
        drop(w);
        // Simulate a kill mid-write: a partial trailing line.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"cell\":5,\"sta").unwrap();
        }
        let done = read_completed(&path).unwrap();
        assert_eq!(done, vec![0, 2]);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with("\"pruned\"}\n"), "partial tail truncated");
        // Appending after resume continues cleanly.
        let mut w = ManifestWriter::append_to(&path).unwrap();
        w.append("{\"cell\":5,\"status\":\"done\"}").unwrap();
        assert_eq!(read_completed(&path).unwrap(), vec![0, 2, 5]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_manifest_is_empty_and_midfile_corruption_is_fatal() {
        let path = tmp("missing.jsonl");
        let _ = std::fs::remove_file(&path);
        assert_eq!(read_completed(&path).unwrap(), Vec::<usize>::new());
        std::fs::write(&path, "not json\n{\"cell\":1}\n").unwrap();
        assert!(matches!(
            read_completed(&path),
            Err(CampaignError::Manifest(_))
        ));
        let _ = std::fs::remove_file(&path);
    }

    const PRIVATE: &str = r#"{"cell":0,"status":"done","org":"private","mix_index":0,"mix":"gzip+mcf","hmean_ipc":0.5,"amean_ipc":0.5,"ipc":[0.5,0.5]}"#;
    const ADAPTIVE: &str = r#"{"cell":1,"status":"done","org":"adaptive","mix_index":0,"mix":"gzip+mcf","hmean_ipc":0.4,"amean_ipc":0.45,"ipc":[0.5,0.4],"quotas":[9,7]}"#;
    const PRUNED: &str = r#"{"cell":2,"status":"pruned","org":"shared","mix_index":0,"mix":"gzip+mcf","dominated_by":0}"#;

    fn manifest_error(text: &str) -> String {
        match Manifest::parse("m", text) {
            Err(CampaignError::Manifest(msg)) => msg,
            other => panic!("expected a manifest error for {text:?}, got {other:?}"),
        }
    }

    #[test]
    fn reader_looks_up_done_cells_and_explains_pruned_and_missing_ones() {
        let m = Manifest::parse("m", &format!("{PRIVATE}\n{ADAPTIVE}\n{PRUNED}\n")).unwrap();
        assert_eq!(m.mixes(), 1);
        let adaptive = m.cell(OrgKind::Adaptive, 0).unwrap();
        assert_eq!(adaptive.label(), "gzip+mcf");
        assert_eq!(adaptive.ipc, [0.5, 0.4]);
        assert_eq!(adaptive.quotas, Some(vec![9, 7]));
        assert_eq!(m.cell(OrgKind::Private, 0).unwrap().quotas, None);
        for (org, mix, why) in [
            (OrgKind::Shared, 0, "m: cell (shared, mix 0) was pruned"),
            (
                OrgKind::Cooperative,
                0,
                "m: cell (cooperative, mix 0) is missing",
            ),
            (OrgKind::Private, 1, "m: cell (private, mix 1) is missing"),
        ] {
            match m.cell(org, mix) {
                Err(CampaignError::Manifest(msg)) => assert!(msg.starts_with(why), "{msg}"),
                other => panic!("{why}: got {other:?}"),
            }
        }
    }

    #[test]
    fn reader_rejects_malformed_truncated_duplicate_and_disagreeing_lines() {
        let cases = [
            (String::new(), "m: no cells"),
            (PRIVATE.to_string(), "m:1: truncated line"),
            (format!("{PRIVATE}\nnot json\n"), "m:2: unparsable line"),
            (
                format!("{PRIVATE}\n{PRIVATE}\n"),
                "m:2: second cell for (private, mix 0)",
            ),
            (
                format!("{PRIVATE}\n{}\n", ADAPTIVE.replace("gzip+mcf", "gzip+art")),
                "m:2: adaptive ran mix 0 as gzip+art, an earlier cell as gzip+mcf",
            ),
            (
                PRIVATE.replace("[0.5,0.5]", "[0.5]") + "\n",
                "m:1: 1 IPCs for 2 applications",
            ),
            (
                PRIVATE.replace("\"private\"", "\"victim\"") + "\n",
                "m:1: unknown organization",
            ),
            (
                PRIVATE.replace("mcf", "vortex") + "\n",
                "m:1: unknown application `vortex`",
            ),
            (
                PRIVATE.replace("done", "running") + "\n",
                "m:1: unknown status",
            ),
            (
                PRIVATE.replace("\"mix_index\":0", "\"mix_index\":0.5") + "\n",
                "m:1: `mix_index`",
            ),
            (
                PRIVATE.replace(",\"hmean_ipc\":0.5", "") + "\n",
                "m:1: missing `hmean_ipc`",
            ),
            (
                ADAPTIVE.replace("[9,7]", "[9,-7]") + "\n",
                "m:1: `quotas` holds a non-quota",
            ),
        ];
        for (text, why) in cases {
            let msg = manifest_error(&text);
            assert!(msg.starts_with(why), "{text:?}: {msg}");
        }
    }

    #[test]
    fn merge_sorts_by_cell_and_rejects_conflicts() {
        let a = tmp("shard-a.jsonl");
        let b = tmp("shard-b.jsonl");
        std::fs::write(&a, "{\"cell\":1,\"v\":1}\n{\"cell\":3,\"v\":3}\n").unwrap();
        std::fs::write(&b, "{\"cell\":0,\"v\":0}\n{\"cell\":2,\"v\":2}\n").unwrap();
        let merged = merge(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(
            merged,
            "{\"cell\":0,\"v\":0}\n{\"cell\":1,\"v\":1}\n{\"cell\":2,\"v\":2}\n{\"cell\":3,\"v\":3}\n"
        );
        // Identical duplicates dedupe; conflicting duplicates error.
        std::fs::write(&b, "{\"cell\":1,\"v\":1}\n").unwrap();
        assert_eq!(
            merge(&[a.clone(), b.clone()]).unwrap(),
            "{\"cell\":1,\"v\":1}\n{\"cell\":3,\"v\":3}\n"
        );
        std::fs::write(&b, "{\"cell\":1,\"v\":9}\n").unwrap();
        assert!(matches!(
            merge(&[a.clone(), b.clone()]),
            Err(CampaignError::Manifest(_))
        ));
        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
    }
}
