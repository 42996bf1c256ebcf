//! The declarative sweep-spec format and its parser.
//!
//! Specs are a minimal, hand-rolled TOML subset — sections, `key =
//! value` lines, integers, booleans, double-quoted strings and flat
//! arrays, with `#` comments — deliberately small enough to need no
//! external dependency while still reading as ordinary TOML:
//!
//! ```toml
//! [campaign]
//! name = "smoke"
//! seed = 2007
//! warm = 60000
//! warmup = 5000
//! measure = 20000
//! mixes = 2
//! pool = "intensive"
//! screen = false
//!
//! [axes]
//! organization = ["private", "adaptive"]
//! l3_mb = [4]
//! l3_assoc = [16]
//! l3_latency = ["14/19"]
//! l2_latency = [9]
//! mem_latency = ["258/260"]
//! mix_seed = [2007]
//! sample_shift = [0]
//! time_sample = ["0:0"]
//! ```
//!
//! Every axis is optional and defaults to the Table 1 baseline; the
//! grid is the cartesian product of all axes with the mix index
//! innermost (see [`crate::grid`]). Parse errors carry `line N:`
//! context; [`CampaignSpec::render`] emits canonical text that
//! re-parses to an identical spec (the round-trip property the unit
//! tests pin).

use crate::CampaignError;

/// Which application pool mixes are drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolKind {
    /// The 16 LLC-intensive applications (Figures 6, 7, 9, 10, 11).
    Intensive,
    /// All 24 applications (Figures 8, 12).
    All,
}

impl PoolKind {
    /// The spec-file spelling.
    pub fn name(self) -> &'static str {
        match self {
            PoolKind::Intensive => "intensive",
            PoolKind::All => "all",
        }
    }
}

/// One value of the `organization` axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrgKind {
    /// Per-core private slices.
    Private,
    /// Private slices at 4x capacity (the Figures 7–9 yardstick).
    Private4x,
    /// One shared cache.
    Shared,
    /// The paper's adaptive scheme (default parameters).
    Adaptive,
    /// Chang & Sohi's cooperative caching.
    Cooperative,
}

impl OrgKind {
    /// The spec-file spelling (matches the `nuca-sim --org` names).
    pub fn name(self) -> &'static str {
        match self {
            OrgKind::Private => "private",
            OrgKind::Private4x => "private4x",
            OrgKind::Shared => "shared",
            OrgKind::Adaptive => "adaptive",
            OrgKind::Cooperative => "cooperative",
        }
    }

    pub(crate) fn parse(s: &str) -> Option<Self> {
        match s {
            "private" => Some(OrgKind::Private),
            "private4x" => Some(OrgKind::Private4x),
            "shared" => Some(OrgKind::Shared),
            "adaptive" => Some(OrgKind::Adaptive),
            "cooperative" => Some(OrgKind::Cooperative),
            _ => None,
        }
    }
}

/// Most cells one spec may expand to; `paper.toml` has 50.
const MAX_CELLS: usize = 1 << 20;

/// A `private/shared` latency pair, spelled `"14/19"` in specs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatPair {
    /// Latency on the private/local path.
    pub private: u64,
    /// Latency on the shared/remote path.
    pub shared: u64,
}

impl LatPair {
    /// The spec-file spelling, `private/shared`.
    pub fn render(self) -> String {
        format!("{}/{}", self.private, self.shared)
    }

    fn parse(s: &str) -> Option<Self> {
        let (a, b) = s.split_once('/')?;
        Some(LatPair {
            private: a.trim().parse().ok()?,
            shared: b.trim().parse().ok()?,
        })
    }
}

/// A `detail:gap` time-sampling schedule, spelled `"20000:80000"` in
/// specs. `0:0` turns time sampling off (full-detail simulation); a
/// zero gap with a non-zero detail is also full detail by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TsPair {
    /// Cycles simulated in detail per window.
    pub detail: u64,
    /// Functionally warmed cycles between windows.
    pub gap: u64,
}

impl TsPair {
    /// The spec-file spelling, `detail:gap`.
    pub fn render(self) -> String {
        format!("{}:{}", self.detail, self.gap)
    }

    /// The [`nuca_core::experiment::ExperimentConfig::time_sample`]
    /// value this axis point selects (`None` when sampling is off).
    pub fn to_config(self) -> Option<(u64, u64)> {
        if self.gap == 0 {
            None
        } else {
            Some((self.detail, self.gap))
        }
    }
}

/// The sweep axes; each `Vec` is one dimension of the cartesian grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Axes {
    /// Last-level organizations.
    pub organization: Vec<OrgKind>,
    /// Aggregate L3 capacity in MiB.
    pub l3_mb: Vec<u64>,
    /// Shared-organization associativity (private slices get
    /// `assoc / cores`, floored at 1).
    pub l3_assoc: Vec<u32>,
    /// L3 hit latencies as `private/shared` pairs (the neighbor/remote
    /// latency follows the shared value, as in the Figure 10 scaling).
    pub l3_latency: Vec<LatPair>,
    /// L2 hit latency (9 baseline, 11 technology-scaled).
    pub l2_latency: Vec<u64>,
    /// Memory first-chunk latencies as `private/shared` pairs.
    pub mem_latency: Vec<LatPair>,
    /// Workload-mix seeds; each seed draws `mixes` mixes from `pool`.
    pub mix_seed: Vec<u64>,
    /// Set-sampling shifts (`0` = full-detail simulation).
    pub sample_shift: Vec<u32>,
    /// Time-sampling schedules as `detail:gap` pairs (`0:0` = every
    /// cycle simulated in detail).
    pub time_sample: Vec<TsPair>,
}

impl Default for Axes {
    fn default() -> Self {
        Axes {
            organization: vec![OrgKind::Private, OrgKind::Shared, OrgKind::Adaptive],
            l3_mb: vec![4],
            l3_assoc: vec![16],
            l3_latency: vec![LatPair {
                private: 14,
                shared: 19,
            }],
            l2_latency: vec![9],
            mem_latency: vec![LatPair {
                private: 258,
                shared: 260,
            }],
            mix_seed: vec![2007],
            sample_shift: vec![0],
            time_sample: vec![TsPair { detail: 0, gap: 0 }],
        }
    }
}

/// A parsed, validated campaign spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Campaign name (manifest lines echo it nowhere; it names outputs).
    pub name: String,
    /// Master seed handed to [`nuca_core::cmp::Cmp::new`].
    pub seed: u64,
    /// Functional warm instructions per core.
    pub warm_instructions: u64,
    /// Timed warm-up cycles after restore.
    pub warmup_cycles: u64,
    /// Measured cycles.
    pub measure_cycles: u64,
    /// Mixes drawn per `mix_seed` axis value.
    pub mixes: usize,
    /// Application pool mixes are drawn from.
    pub pool: PoolKind,
    /// Whether the analytical screening pass prunes dominated cells.
    pub screen: bool,
    /// The sweep axes.
    pub axes: Axes,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            name: "campaign".to_string(),
            seed: 2007,
            warm_instructions: 3_000_000,
            warmup_cycles: 1_000_000,
            measure_cycles: 1_500_000,
            mixes: 10,
            pool: PoolKind::Intensive,
            screen: false,
            axes: Axes::default(),
        }
    }
}

// ---------------------------------------------------------------------
// Raw TOML-subset representation.

#[derive(Debug, Clone, PartialEq)]
enum RawValue {
    Int(i64),
    Str(String),
    Bool(bool),
    Arr(Vec<RawValue>),
}

impl RawValue {
    fn kind(&self) -> &'static str {
        match self {
            RawValue::Int(_) => "integer",
            RawValue::Str(_) => "string",
            RawValue::Bool(_) => "boolean",
            RawValue::Arr(_) => "array",
        }
    }
}

#[derive(Debug, Clone)]
struct RawEntry {
    key: String,
    line: usize,
    value: RawValue,
}

#[derive(Debug, Clone)]
struct RawSection {
    name: String,
    line: usize,
    entries: Vec<RawEntry>,
}

fn err(line: usize, msg: impl Into<String>) -> CampaignError {
    CampaignError::Spec(format!("line {line}: {}", msg.into()))
}

/// Strips a trailing comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_scalar(s: &str, line: usize) -> Result<RawValue, CampaignError> {
    let s = s.trim();
    if s.is_empty() {
        return Err(err(line, "missing value"));
    }
    if let Some(rest) = s.strip_prefix('"') {
        let Some(body) = rest.strip_suffix('"') else {
            return Err(err(line, format!("unterminated string: {s}")));
        };
        if body.contains('"') {
            return Err(err(line, "strings may not contain embedded quotes"));
        }
        return Ok(RawValue::Str(body.to_string()));
    }
    match s {
        "true" => return Ok(RawValue::Bool(true)),
        "false" => return Ok(RawValue::Bool(false)),
        _ => {}
    }
    s.replace('_', "")
        .parse::<i64>()
        .map(RawValue::Int)
        .map_err(|_| {
            err(
                line,
                format!("expected an integer, string, boolean or array, got `{s}`"),
            )
        })
}

fn parse_value(s: &str, line: usize) -> Result<RawValue, CampaignError> {
    let s = s.trim();
    if let Some(body) = s.strip_prefix('[') {
        let Some(body) = body.strip_suffix(']') else {
            return Err(err(line, "array must open and close on one line"));
        };
        let body = body.trim();
        if body.is_empty() {
            return Ok(RawValue::Arr(Vec::new()));
        }
        let items = body
            .split(',')
            .map(|item| parse_scalar(item, line))
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(RawValue::Arr(items));
    }
    parse_scalar(s, line)
}

fn parse_raw(text: &str) -> Result<Vec<RawSection>, CampaignError> {
    let mut sections: Vec<RawSection> = Vec::new();
    for (i, raw_line) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return Err(err(
                    line_no,
                    format!("unterminated section header `{line}`"),
                ));
            };
            let name = name.trim();
            if name.is_empty() {
                return Err(err(line_no, "empty section name"));
            }
            if sections.iter().any(|s| s.name == name) {
                return Err(err(line_no, format!("duplicate section `[{name}]`")));
            }
            sections.push(RawSection {
                name: name.to_string(),
                line: line_no,
                entries: Vec::new(),
            });
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(err(
                line_no,
                format!("expected `key = value` or `[section]`, got `{line}`"),
            ));
        };
        let key = key.trim();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(err(line_no, format!("invalid key `{key}`")));
        }
        let value = parse_value(value, line_no)?;
        let Some(section) = sections.last_mut() else {
            return Err(err(
                line_no,
                format!("`{key}` appears before any [section] header"),
            ));
        };
        if section.entries.iter().any(|e| e.key == key) {
            return Err(err(line_no, format!("duplicate key `{key}`")));
        }
        section.entries.push(RawEntry {
            key: key.to_string(),
            line: line_no,
            value,
        });
    }
    Ok(sections)
}

// ---------------------------------------------------------------------
// Typed extraction.

fn as_u64(e: &RawEntry) -> Result<u64, CampaignError> {
    match e.value {
        RawValue::Int(v) if v >= 0 => Ok(v as u64),
        _ => Err(err(
            e.line,
            format!(
                "`{}` must be a non-negative integer, got {}",
                e.key,
                e.value.kind()
            ),
        )),
    }
}

fn as_bool(e: &RawEntry) -> Result<bool, CampaignError> {
    match e.value {
        RawValue::Bool(v) => Ok(v),
        _ => Err(err(
            e.line,
            format!("`{}` must be true or false, got {}", e.key, e.value.kind()),
        )),
    }
}

fn as_str(e: &RawEntry) -> Result<&str, CampaignError> {
    match &e.value {
        RawValue::Str(s) => Ok(s),
        _ => Err(err(
            e.line,
            format!("`{}` must be a string, got {}", e.key, e.value.kind()),
        )),
    }
}

fn as_arr(e: &RawEntry) -> Result<&[RawValue], CampaignError> {
    match &e.value {
        RawValue::Arr(items) => {
            if items.is_empty() {
                Err(err(e.line, format!("axis `{}` must not be empty", e.key)))
            } else {
                Ok(items)
            }
        }
        _ => Err(err(
            e.line,
            format!("axis `{}` must be an array, got {}", e.key, e.value.kind()),
        )),
    }
}

fn int_axis(e: &RawEntry) -> Result<Vec<u64>, CampaignError> {
    as_arr(e)?
        .iter()
        .map(|v| match v {
            RawValue::Int(n) if *n >= 0 => Ok(*n as u64),
            other => Err(err(
                e.line,
                format!(
                    "axis `{}` holds non-negative integers, got {}",
                    e.key,
                    other.kind()
                ),
            )),
        })
        .collect()
}

/// [`int_axis`] for `u32` axes: a value that does not fit is an error,
/// never a truncation.
fn u32_axis(e: &RawEntry) -> Result<Vec<u32>, CampaignError> {
    int_axis(e)?
        .into_iter()
        .map(|v| {
            u32::try_from(v).map_err(|_| {
                err(
                    e.line,
                    format!("axis `{}` value {v} is out of range", e.key),
                )
            })
        })
        .collect()
}

fn lat_axis(e: &RawEntry) -> Result<Vec<LatPair>, CampaignError> {
    as_arr(e)?
        .iter()
        .map(|v| match v {
            RawValue::Str(s) => LatPair::parse(s).ok_or_else(|| {
                err(
                    e.line,
                    format!(
                        "axis `{}` holds \"private/shared\" latency pairs, got \"{s}\"",
                        e.key
                    ),
                )
            }),
            other => Err(err(
                e.line,
                format!(
                    "axis `{}` holds \"private/shared\" strings, got {}",
                    e.key,
                    other.kind()
                ),
            )),
        })
        .collect()
}

fn ts_axis(e: &RawEntry) -> Result<Vec<TsPair>, CampaignError> {
    as_arr(e)?
        .iter()
        .map(|v| match v {
            RawValue::Str(s) => nuca_core::experiment::parse_time_sample(s)
                .map(|(detail, gap)| TsPair { detail, gap })
                .map_err(|m| err(e.line, format!("axis `{}` value \"{s}\": {m}", e.key))),
            other => Err(err(
                e.line,
                format!(
                    "axis `{}` holds \"detail:gap\" strings, got {}",
                    e.key,
                    other.kind()
                ),
            )),
        })
        .collect()
}

impl CampaignSpec {
    /// Parses a spec from text.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Spec`] with `line N:` context on any syntax
    /// error, unknown section/key, type mismatch or invalid value.
    pub fn parse(text: &str) -> Result<Self, CampaignError> {
        let sections = parse_raw(text)?;
        let mut spec = CampaignSpec::default();
        let mut saw_campaign = false;
        for section in &sections {
            match section.name.as_str() {
                "campaign" => {
                    saw_campaign = true;
                    spec.apply_campaign(section)?;
                }
                "axes" => spec.apply_axes(section)?,
                other => {
                    return Err(err(
                        section.line,
                        format!("unknown section `[{other}]` (expected [campaign] or [axes])"),
                    ))
                }
            }
        }
        if !saw_campaign {
            return Err(CampaignError::Spec(
                "line 1: spec must contain a [campaign] section".to_string(),
            ));
        }
        spec.validate()?;
        Ok(spec)
    }

    fn apply_campaign(&mut self, section: &RawSection) -> Result<(), CampaignError> {
        for e in &section.entries {
            match e.key.as_str() {
                "name" => self.name = as_str(e)?.to_string(),
                "seed" => self.seed = as_u64(e)?,
                "warm" => self.warm_instructions = as_u64(e)?,
                "warmup" => self.warmup_cycles = as_u64(e)?,
                "measure" => self.measure_cycles = as_u64(e)?,
                "mixes" => self.mixes = as_u64(e)? as usize,
                "screen" => self.screen = as_bool(e)?,
                "pool" => {
                    self.pool = match as_str(e)? {
                        "intensive" => PoolKind::Intensive,
                        "all" => PoolKind::All,
                        other => {
                            return Err(err(
                                e.line,
                                format!("`pool` must be \"intensive\" or \"all\", got \"{other}\""),
                            ))
                        }
                    }
                }
                other => return Err(err(e.line, format!("unknown [campaign] key `{other}`"))),
            }
        }
        Ok(())
    }

    fn apply_axes(&mut self, section: &RawSection) -> Result<(), CampaignError> {
        for e in &section.entries {
            match e.key.as_str() {
                "organization" => {
                    self.axes.organization = as_arr(e)?
                        .iter()
                        .map(|v| match v {
                            RawValue::Str(s) => OrgKind::parse(s).ok_or_else(|| {
                                err(
                                    e.line,
                                    format!(
                                        "unknown organization \"{s}\" (expected private, \
                                         private4x, shared, adaptive or cooperative)"
                                    ),
                                )
                            }),
                            other => Err(err(
                                e.line,
                                format!("`organization` holds strings, got {}", other.kind()),
                            )),
                        })
                        .collect::<Result<_, _>>()?;
                }
                "l3_mb" => self.axes.l3_mb = int_axis(e)?,
                "l3_assoc" => self.axes.l3_assoc = u32_axis(e)?,
                "l3_latency" => self.axes.l3_latency = lat_axis(e)?,
                "l2_latency" => self.axes.l2_latency = int_axis(e)?,
                "mem_latency" => self.axes.mem_latency = lat_axis(e)?,
                "mix_seed" => self.axes.mix_seed = int_axis(e)?,
                "sample_shift" => self.axes.sample_shift = u32_axis(e)?,
                "time_sample" => self.axes.time_sample = ts_axis(e)?,
                other => return Err(err(e.line, format!("unknown [axes] key `{other}`"))),
            }
        }
        Ok(())
    }

    fn validate(&self) -> Result<(), CampaignError> {
        let bad = |msg: String| Err(CampaignError::Spec(msg));
        if self.name.is_empty() {
            return bad("campaign name must not be empty".to_string());
        }
        if self.mixes == 0 {
            return bad("`mixes` must be at least 1".to_string());
        }
        if self.measure_cycles == 0 {
            return bad("`measure` must be at least 1".to_string());
        }
        let a = &self.axes;
        let axis_lens = [
            a.organization.len(),
            a.l3_mb.len(),
            a.l3_assoc.len(),
            a.l3_latency.len(),
            a.l2_latency.len(),
            a.mem_latency.len(),
            a.mix_seed.len(),
            a.sample_shift.len(),
            a.time_sample.len(),
        ];
        if axis_lens.contains(&0) {
            return bad("every axis needs at least one value".to_string());
        }
        let cells = axis_lens
            .iter()
            .try_fold(self.mixes, |n, &len| n.checked_mul(len));
        if cells.is_none_or(|n| n > MAX_CELLS) {
            return bad(format!(
                "the grid must have at most {MAX_CELLS} cells (every axis length times `mixes`)"
            ));
        }
        if a.l3_mb.iter().any(|&mb| mb == 0 || mb > 1024) {
            return bad("`l3_mb` values must be in 1..=1024".to_string());
        }
        let too_long = |cycles: u64| cycles > u64::from(u32::MAX);
        if a.l2_latency.iter().any(|&c| too_long(c))
            || a.l3_latency
                .iter()
                .chain(&a.mem_latency)
                .any(|l| too_long(l.private) || too_long(l.shared))
        {
            return bad(format!(
                "`l3_latency`, `l2_latency` and `mem_latency` values must be at most {} cycles",
                u32::MAX
            ));
        }
        if a.l3_assoc.contains(&0) {
            return bad("`l3_assoc` values must be at least 1".to_string());
        }
        Ok(())
    }

    /// Renders the spec as canonical text; `parse(render(s)) == s` for
    /// every valid spec (the round-trip property).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "[campaign]");
        let _ = writeln!(out, "name = \"{}\"", self.name);
        let _ = writeln!(out, "seed = {}", self.seed);
        let _ = writeln!(out, "warm = {}", self.warm_instructions);
        let _ = writeln!(out, "warmup = {}", self.warmup_cycles);
        let _ = writeln!(out, "measure = {}", self.measure_cycles);
        let _ = writeln!(out, "mixes = {}", self.mixes);
        let _ = writeln!(out, "pool = \"{}\"", self.pool.name());
        let _ = writeln!(out, "screen = {}", self.screen);
        let _ = writeln!(out);
        let _ = writeln!(out, "[axes]");
        let strs = |items: &[String]| items.join(", ");
        let _ = writeln!(
            out,
            "organization = [{}]",
            strs(
                &self
                    .axes
                    .organization
                    .iter()
                    .map(|o| format!("\"{}\"", o.name()))
                    .collect::<Vec<_>>()
            )
        );
        let ints = |items: &[u64]| {
            items
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        let _ = writeln!(out, "l3_mb = [{}]", ints(&self.axes.l3_mb));
        let _ = writeln!(
            out,
            "l3_assoc = [{}]",
            ints(
                &self
                    .axes
                    .l3_assoc
                    .iter()
                    .map(|&v| v as u64)
                    .collect::<Vec<_>>()
            )
        );
        let lats = |items: &[LatPair]| {
            items
                .iter()
                .map(|l| format!("\"{}\"", l.render()))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let _ = writeln!(out, "l3_latency = [{}]", lats(&self.axes.l3_latency));
        let _ = writeln!(out, "l2_latency = [{}]", ints(&self.axes.l2_latency));
        let _ = writeln!(out, "mem_latency = [{}]", lats(&self.axes.mem_latency));
        let _ = writeln!(out, "mix_seed = [{}]", ints(&self.axes.mix_seed));
        let _ = writeln!(
            out,
            "sample_shift = [{}]",
            ints(
                &self
                    .axes
                    .sample_shift
                    .iter()
                    .map(|&v| v as u64)
                    .collect::<Vec<_>>()
            )
        );
        let _ = writeln!(
            out,
            "time_sample = [{}]",
            self.axes
                .time_sample
                .iter()
                .map(|t| format!("\"{}\"", t.render()))
                .collect::<Vec<_>>()
                .join(", ")
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: &str = r#"
# A tiny campaign.
[campaign]
name = "smoke"   # inline comment
seed = 7
warm = 60000
warmup = 5000
measure = 20000
mixes = 2
pool = "all"
screen = true

[axes]
organization = ["private", "adaptive"]
l3_mb = [4, 8]
l3_latency = ["14/19", "16/24"]
mem_latency = ["258/260"]
sample_shift = [0, 4]
time_sample = ["0:0", "20000:80000"]
"#;

    #[test]
    fn u32_axes_reject_out_of_range_values() {
        // 2^32 + 16 must not truncate to a 16-way L3, nor 2^32 + 1 to
        // shift 1.
        let l3_assoc = SMOKE.replace("l3_mb = [4, 8]", "l3_mb = [4]\nl3_assoc = [4294967312]");
        expect_err(&l3_assoc, "`l3_assoc` value 4294967312 is out of range");
        let shift = SMOKE.replace("sample_shift = [0, 4]", "sample_shift = [4294967297]");
        expect_err(&shift, "`sample_shift` value 4294967297 is out of range");
    }

    #[test]
    fn an_oversized_grid_is_refused() {
        // 99,999,999,999 mixes would grow the mix list and cell grid
        // until the host ran out of memory.
        let huge = SMOKE.replace("mixes = 2", "mixes = 99999999999");
        expect_err(&huge, "at most 1048576 cells");
        // Here the count itself overflows `usize`.
        let overflow = SMOKE.replace("mixes = 2", "mixes = 9223372036854775807");
        expect_err(&overflow, "at most 1048576 cells");
    }

    #[test]
    fn latencies_beyond_u32_cycles_are_refused() {
        // Release builds would wrap the cycle sums of such a latency.
        let mem = SMOKE.replace(
            "mem_latency = [\"258/260\"]",
            "mem_latency = [\"18446744073709551615/18446744073709551615\"]",
        );
        expect_err(&mem, "must be at most 4294967295 cycles");
        let l3 = SMOKE.replace("\"16/24\"", "\"16/4294967296\"");
        expect_err(&l3, "must be at most 4294967295 cycles");
        let l2 = SMOKE.replace("[axes]\n", "[axes]\nl2_latency = [4294967296]\n");
        expect_err(&l2, "must be at most 4294967295 cycles");
        let edge = SMOKE.replace("[axes]\n", "[axes]\nl2_latency = [4294967295]\n");
        assert!(
            CampaignSpec::parse(&edge).is_ok(),
            "u32::MAX cycles is allowed"
        );
    }

    #[test]
    fn parses_a_spec_with_defaults_for_missing_axes() {
        let spec = CampaignSpec::parse(SMOKE).unwrap();
        assert_eq!(spec.name, "smoke");
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.warm_instructions, 60_000);
        assert_eq!(spec.mixes, 2);
        assert_eq!(spec.pool, PoolKind::All);
        assert!(spec.screen);
        assert_eq!(
            spec.axes.organization,
            vec![OrgKind::Private, OrgKind::Adaptive]
        );
        assert_eq!(spec.axes.l3_mb, vec![4, 8]);
        assert_eq!(spec.axes.l3_assoc, vec![16], "default axis");
        assert_eq!(spec.axes.l2_latency, vec![9], "default axis");
        assert_eq!(
            spec.axes.l3_latency,
            vec![
                LatPair {
                    private: 14,
                    shared: 19
                },
                LatPair {
                    private: 16,
                    shared: 24
                }
            ]
        );
        assert_eq!(spec.axes.sample_shift, vec![0, 4]);
        assert_eq!(
            spec.axes.time_sample,
            vec![
                TsPair { detail: 0, gap: 0 },
                TsPair {
                    detail: 20_000,
                    gap: 80_000
                }
            ]
        );
        assert_eq!(spec.axes.time_sample[0].to_config(), None);
        assert_eq!(spec.axes.time_sample[1].to_config(), Some((20_000, 80_000)));
    }

    #[test]
    fn round_trips_through_render() {
        let spec = CampaignSpec::parse(SMOKE).unwrap();
        let text = spec.render();
        let again = CampaignSpec::parse(&text).unwrap();
        assert_eq!(spec, again);
        // And render is a fixed point.
        assert_eq!(text, again.render());
    }

    #[test]
    fn default_spec_round_trips_too() {
        let spec = CampaignSpec::default();
        assert_eq!(CampaignSpec::parse(&spec.render()).unwrap(), spec);
    }

    fn expect_err(text: &str, needle: &str) {
        match CampaignSpec::parse(text) {
            Err(CampaignError::Spec(msg)) => {
                assert!(
                    msg.contains(needle),
                    "error `{msg}` should mention `{needle}`"
                );
            }
            other => panic!("expected a spec error mentioning `{needle}`, got {other:?}"),
        }
    }

    #[test]
    fn malformed_specs_carry_line_numbers_and_context() {
        expect_err("[campaign]\nname 7\n", "line 2");
        expect_err("[campaign]\nname 7\n", "expected `key = value`");
        expect_err("[campaign]\nbogus = 1\n", "unknown [campaign] key `bogus`");
        expect_err("[bogus]\n", "unknown section `[bogus]`");
        expect_err("x = 1\n", "before any [section]");
        expect_err("[campaign]\nseed = \"x\"\n", "non-negative integer");
        expect_err("[campaign]\nseed = -3\n", "non-negative integer");
        expect_err("[campaign]\npool = \"weird\"\n", "\"intensive\" or \"all\"");
        expect_err("[campaign]\nname = \"x\n", "unterminated string");
        expect_err("[campaign]\nscreen = 1\n", "true or false");
        expect_err("[campaign]\nseed = 1\nseed = 2\n", "duplicate key `seed`");
        expect_err(
            "[campaign]\n[axes]\norganization = [\"warp\"]\n",
            "unknown organization \"warp\"",
        );
        expect_err(
            "[campaign]\n[axes]\nl3_latency = [\"14:19\"]\n",
            "latency pairs",
        );
        expect_err(
            "[campaign]\n[axes]\ntime_sample = [\"14/19\"]\n",
            "want detail:gap cycle counts",
        );
        expect_err(
            "[campaign]\n[axes]\ntime_sample = [\"0:500\"]\n",
            "detail must be > 0",
        );
        expect_err("[campaign]\n[axes]\nl3_mb = []\n", "must not be empty");
        expect_err("[campaign]\n[axes]\nl3_mb = [1,\n2]\n", "one line");
        expect_err("[axes]\nl3_mb = [4]\n", "[campaign] section");
        expect_err("[campaign]\nmixes = 0\n", "`mixes` must be at least 1");
        expect_err(
            "[campaign]\n[axes]\nl3_mb = [0]\n",
            "`l3_mb` values must be in 1..=1024",
        );
    }

    #[test]
    fn comments_and_underscored_integers_parse() {
        let spec = CampaignSpec::parse("[campaign] # c\nwarm = 3_000_000 # c\n").unwrap();
        assert_eq!(spec.warm_instructions, 3_000_000);
    }
}
