//! The project rules, implemented over the token stream (see DESIGN.md
//! §"Static analysis v2").
//!
//! Legacy rules, now token-aware (no string/comment false positives):
//!
//! - **L1** — no `unwrap()` / `expect()` / `panic!` / `unreachable!` in
//!   non-test code of the simulation crates.
//! - **L2** — no `HashMap` / `HashSet` in simulator state.
//! - **L3** — no bare `as` narrowing casts in statistics/counter paths.
//! - **L4** — every `pub fn` in the adaptive-partitioning core carries a
//!   doc comment.
//! - **L5** — no `thread::spawn` / `thread::scope` outside the sanctioned
//!   runner module.
//! - **L6** — no `println!` / `eprintln!` outside binaries/examples and
//!   exempted modules.
//! - **L7** — no heap allocation in the per-step hot-path modules.
//!
//! Determinism / semantic passes (new in v2):
//!
//! - **D1** — no host-nondeterminism inside the simulation crates: clock
//!   reads (`Instant`, `SystemTime`), environment reads (`env::var`,
//!   `env::args`), randomness (`thread_rng`, `rand::`), host-parallelism
//!   probes (`available_parallelism`), and hash-ordered containers in the
//!   crates L2 does not already cover (`tracegen` feeds simulation input,
//!   so its iteration order is output-affecting too). Bit-identical
//!   replay — skip-vs-noskip, `--jobs N` vs serial, trace replay — is the
//!   repo's central correctness claim; any of these tokens breaks it.
//! - **D2** — cycle-arithmetic audit: raw `-` on cycle/quota quantities
//!   must be guarded by an explicit ordering comparison in the same
//!   function (or use `saturating_sub`/`checked_sub`), and narrowing `as`
//!   casts of cycle/quota quantities only pass when an intraprocedural
//!   use-def walk proves the value bounded (see [`crate::dataflow`]).
//!   Cycle counters are `u64` and monotonically huge; an unchecked
//!   subtraction or truncation fails silently in release builds.
//! - **D3** — Sink-genericity: components that emit telemetry must be
//!   generic over `telemetry::Sink`, never hardwire the concrete
//!   `Recorder` in a field, parameter, return type or type argument.
//!   `NullSink` compiling away is what makes telemetry zero-cost-when-off;
//!   a hardwired `Recorder` re-introduces the cost for every caller.
//!   (Constructing a `Recorder` at a collection boundary is fine — the
//!   rule targets type positions, not expressions.)
//! - **D4** — call-graph-aware hot-path allocation: L7 extended one call
//!   level past the hot-module boundary. A call from a hot-path function
//!   to a workspace function that allocates is flagged at the call site,
//!   unless the callee is itself in a hot file (already under L7) or the
//!   callee's name is ambiguous across the workspace with mixed behavior
//!   (conservative: only unanimous allocators fire).

use std::collections::BTreeMap;
use std::fmt;

use crate::dataflow;
use crate::lexer::TokenKind;
use crate::syntax::FileIndex;

/// Identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Panic-freedom in simulator code.
    L1,
    /// Determinism: no hash-ordered containers in simulator state.
    L2,
    /// Cast safety in statistics paths.
    L3,
    /// Doc coverage of the partitioning core's public API.
    L4,
    /// Determinism: no threads outside the sanctioned parallel runner.
    L5,
    /// No print macros outside binaries/examples and exempt modules.
    L6,
    /// No heap allocation in per-step hot-path modules.
    L7,
    /// Determinism: no clock/env/randomness/hash-order in sim crates.
    D1,
    /// Cycle-arithmetic audit: guarded subtraction, bounded narrowing.
    D2,
    /// Sink-genericity: no hardwired `Recorder` in component types.
    D3,
    /// Hot-path allocation, one call level deep.
    D4,
}

/// All rules, in diagnostic order.
pub const ALL_RULES: [Rule; 11] = [
    Rule::L1,
    Rule::L2,
    Rule::L3,
    Rule::L4,
    Rule::L5,
    Rule::L6,
    Rule::L7,
    Rule::D1,
    Rule::D2,
    Rule::D3,
    Rule::D4,
];

impl Rule {
    /// Short name as written in `lint.toml` and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Rule::L1 => "L1",
            Rule::L2 => "L2",
            Rule::L3 => "L3",
            Rule::L4 => "L4",
            Rule::L5 => "L5",
            Rule::L6 => "L6",
            Rule::L7 => "L7",
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::D3 => "D3",
            Rule::D4 => "D4",
        }
    }

    /// Parses a rule name from allowlist text.
    pub fn parse(s: &str) -> Option<Rule> {
        ALL_RULES.into_iter().find(|r| r.name() == s)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding, anchored to a repo-relative file and an exact 1-based
/// line/column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: Rule,
    /// Repo-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based byte column of the offending token.
    pub col: usize,
    /// Trimmed source line for context.
    pub snippet: String,
    /// Human-readable explanation of the finding.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}:{}:{}: {}",
            self.rule, self.file, self.line, self.col, self.message
        )
    }
}

/// Which parts of the tree each rule applies to. Paths are repo-relative
/// with forward slashes; prefixes end in `/` except exact-file entries.
#[derive(Debug, Clone)]
pub struct Scopes {
    /// L1/L2: production source of the simulation crates.
    pub sim_prefixes: Vec<String>,
    /// L3: statistics/counter files (exact paths). Extendable from
    /// `lint.toml` via `stats-path` lines.
    pub stats_files: Vec<String>,
    /// L4: prefixes/exact files whose `pub fn`s must be documented.
    pub doc_paths: Vec<String>,
    /// L5/D1: exact files allowed to spawn threads and probe host
    /// parallelism (the sanctioned runner).
    pub runner_files: Vec<String>,
    /// L7/D4: exact files whose non-test code is a per-step hot path.
    /// Extendable from `lint.toml` via `hot-path` lines.
    pub hot_files: Vec<String>,
    /// D1/D2: crates whose state or output must be deterministic — the
    /// sim prefixes plus `tracegen` (workload input is output-affecting).
    pub det_prefixes: Vec<String>,
    /// D3: prefix of the crate that legitimately defines `Recorder`.
    pub telemetry_prefix: String,
}

impl Default for Scopes {
    fn default() -> Self {
        let sim_prefixes = vec![
            "crates/simcore/src/".to_string(),
            "crates/cachesim/src/".to_string(),
            "crates/cpusim/src/".to_string(),
            "crates/memsim/src/".to_string(),
            "crates/core/src/".to_string(),
            "crates/campaign/src/".to_string(),
            "src/".to_string(),
        ];
        let mut det_prefixes = sim_prefixes.clone();
        det_prefixes.push("crates/tracegen/src/".to_string());
        // The facade's binary reads its command line (`std::env::args`);
        // determinism rules cover the simulation crates proper.
        det_prefixes.retain(|p| p != "src/");
        Scopes {
            sim_prefixes,
            stats_files: vec!["crates/simcore/src/stats.rs".to_string()],
            doc_paths: vec![
                "crates/core/src/l3/".to_string(),
                "crates/core/src/engine.rs".to_string(),
            ],
            runner_files: vec!["crates/simcore/src/parallel/mod.rs".to_string()],
            hot_files: vec![
                "crates/core/src/l3/adaptive.rs".to_string(),
                "crates/cachesim/src/cache.rs".to_string(),
                "crates/cachesim/src/lru.rs".to_string(),
                "crates/cpusim/src/core.rs".to_string(),
                "crates/cpusim/src/core/functional.rs".to_string(),
                "crates/cpusim/src/fastpath.rs".to_string(),
                "crates/cpusim/src/l3iface.rs".to_string(),
                "crates/tracegen/src/generator.rs".to_string(),
            ],
            det_prefixes,
            telemetry_prefix: "crates/telemetry/src/".to_string(),
        }
    }
}

impl Scopes {
    fn in_sim(&self, rel: &str) -> bool {
        self.sim_prefixes
            .iter()
            .any(|p| rel.starts_with(p.as_str()))
    }

    fn in_det(&self, rel: &str) -> bool {
        self.det_prefixes
            .iter()
            .any(|p| rel.starts_with(p.as_str()))
    }

    fn in_stats(&self, rel: &str) -> bool {
        self.stats_files.iter().any(|p| p == rel)
    }

    fn in_doc(&self, rel: &str) -> bool {
        self.doc_paths
            .iter()
            .any(|p| rel == p || (p.ends_with('/') && rel.starts_with(p.as_str())))
    }

    fn is_runner(&self, rel: &str) -> bool {
        self.runner_files.iter().any(|p| p == rel)
    }

    fn in_hot(&self, rel: &str) -> bool {
        self.hot_files.iter().any(|p| p == rel)
    }

    /// Files where printing is structurally fine: binary sources, any
    /// `main.rs` and examples.
    fn may_print(&self, rel: &str) -> bool {
        rel.starts_with("src/bin/")
            || rel.contains("/src/bin/")
            || rel.starts_with("examples/")
            || rel.contains("/examples/")
            || rel.ends_with("/main.rs")
            || rel == "main.rs"
    }

    /// Files D3 covers: component library code under `crates/` that could
    /// hardwire a sink type. The telemetry crate defines `Recorder`, and
    /// the facade (`src/`, binaries) is the collection boundary that owns
    /// the concrete recorder by design — both are exempt.
    fn in_d3(&self, rel: &str) -> bool {
        rel.starts_with("crates/")
            && !rel.starts_with(self.telemetry_prefix.as_str())
            && !self.may_print(rel)
            && !rel.contains("/benches/")
            && !rel.contains("/tests/")
    }

    /// Files whose `fn` definitions feed the D4 facts table: the
    /// simulation/telemetry crates a hot path can actually call into.
    /// Restricting the table keeps unrelated tooling crates (whose fn
    /// names can collide with simulator helpers) out of name resolution.
    fn in_d4_facts(&self, rel: &str) -> bool {
        self.in_sim(rel) || self.in_det(rel) || rel.starts_with(self.telemetry_prefix.as_str())
    }
}

/// Integer types an `as` cast may silently truncate into.
const NARROW_TARGETS: [&str; 8] = ["u8", "u16", "u32", "i8", "i16", "i32", "usize", "isize"];

/// Float-producing methods whose result must not be `as`-cast to a 64-bit
/// integer.
const FLOAT_PRODUCERS: [&str; 4] = ["ceil", "floor", "round", "trunc"];

/// Name fragments that mark a quantity as cycle/quota arithmetic for D2.
const CYCLEISH: [&str; 6] = ["cycle", "cyc", "quota", "wake", "epoch", "deadline"];

/// Allocation calls L7/D4 forbid on hot paths, as token triples
/// (`a::b` paths) or method names.
const ALLOC_PATHS: [(&str, &str); 2] = [("Vec", "new"), ("Box", "new")];
const ALLOC_METHODS: [&str; 2] = ["clone", "to_vec"];

/// Host-environment reads D1 forbids (`env::<name>`).
const ENV_READS: [&str; 6] = ["var", "vars", "var_os", "args", "args_os", "current_dir"];

/// Facts about one workspace `fn`, for the D4 cross-file pass.
#[derive(Debug, Clone)]
struct FnFact {
    file: String,
    line: usize,
    in_hot: bool,
    /// First unjustified allocation line in the body, if any.
    alloc_line: Option<usize>,
}

/// Runs every rule over the indexed files and returns **raw** findings —
/// the caller applies inline markers and the `lint.toml` allowlist (so it
/// can also detect stale suppressions).
pub fn check_files(files: &[FileIndex], scopes: &Scopes) -> Vec<Diagnostic> {
    let facts = collect_fn_facts(files, scopes);
    let mut out = Vec::new();
    for f in files {
        check_one(f, scopes, &facts, &mut out);
    }
    out.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    out
}

/// Phase 1 of D4: every fn's allocation behavior, keyed by name.
fn collect_fn_facts(files: &[FileIndex], scopes: &Scopes) -> BTreeMap<String, Vec<FnFact>> {
    let mut table: BTreeMap<String, Vec<FnFact>> = BTreeMap::new();
    for f in files {
        if !scopes.in_d4_facts(&f.rel) {
            continue;
        }
        for item in &f.fns {
            if item.is_test {
                continue;
            }
            let alloc_line = item.body.and_then(|body| first_alloc_line(f, body));
            table.entry(item.name.clone()).or_default().push(FnFact {
                file: f.rel.clone(),
                line: item.line,
                in_hot: scopes.in_hot(&f.rel),
                alloc_line,
            });
        }
    }
    table
}

/// First line inside `body` (code-position span) carrying an allocation
/// token that is not in test code. Inline L7 allow markers do not
/// neutralize the *fact* — a justified cold allocation still makes the
/// callee an allocator from a hot caller's perspective; D4 call sites are
/// themselves suppressible.
fn first_alloc_line(f: &FileIndex, body: (usize, usize)) -> Option<usize> {
    let (open, close) = body;
    let mut i = open;
    while i <= close {
        if f.is_test(i) {
            i += 1;
            continue;
        }
        if let Some(line) = alloc_at(f, i) {
            return Some(line);
        }
        i += 1;
    }
    None
}

/// If code position `i` starts an allocation pattern, returns its line.
fn alloc_at(f: &FileIndex, i: usize) -> Option<usize> {
    let line = f.ctok(i).map(|t| t.line)?;
    let t = f.ctext(i);
    for (ty, m) in ALLOC_PATHS {
        if t == ty && f.ctext(i + 1) == ":" && f.ctext(i + 2) == ":" && f.ctext(i + 3) == m {
            return Some(line);
        }
    }
    if t == "vec" && f.ctext(i + 1) == "!" {
        return Some(line);
    }
    if t == "." && ALLOC_METHODS.contains(&f.ctext(i + 1)) && f.ctext(i + 2) == "(" {
        return Some(line);
    }
    None
}

/// Keywords that can precede a `(` without being a call.
const NOT_CALLEES: [&str; 12] = [
    "if", "while", "for", "match", "loop", "return", "fn", "as", "in", "move", "else", "let",
];

fn cycleish(name: &str) -> bool {
    CYCLEISH.iter().any(|k| name.contains(k))
}

/// Walks an operand path backwards from code position `end` (exclusive):
/// `self.a.b`, `x`, `Foo::BAR`. Returns the segment idents, innermost
/// last, or None when the operand is a complex expression.
fn operand_back(f: &FileIndex, end: usize) -> Option<Vec<String>> {
    let mut j = end;
    // Skip trailing `as Ty` chains: `x as u64 - y` parses the cast, the
    // operand is `x`.
    loop {
        if j >= 2 && f.ctext(j - 2) == "as" && f.ckind(j - 1) == TokenKind::Ident {
            j -= 2;
        } else {
            break;
        }
    }
    if j == 0 {
        return None;
    }
    match f.ckind(j - 1) {
        TokenKind::Ident | TokenKind::Num => {}
        _ => return None,
    }
    let mut segs = vec![f.ctext(j - 1).to_string()];
    let mut k = j - 1;
    while k >= 2 {
        let sep_dot = f.ctext(k - 1) == ".";
        let sep_path = k >= 3 && f.ctext(k - 1) == ":" && f.ctext(k - 2) == ":";
        if sep_dot && f.ckind(k.wrapping_sub(2)) == TokenKind::Ident {
            segs.push(f.ctext(k - 2).to_string());
            k -= 2;
        } else if sep_path && k >= 3 && f.ckind(k - 3) == TokenKind::Ident {
            segs.push(f.ctext(k - 3).to_string());
            k -= 3;
        } else {
            break;
        }
    }
    segs.reverse();
    Some(segs)
}

/// Reads an operand path forwards from code position `start`. Returns the
/// segment idents, or None when the operand is a complex expression.
fn operand_forward(f: &FileIndex, start: usize) -> Option<Vec<String>> {
    let mut i = start;
    // Unary borrow/deref on the operand is transparent.
    while matches!(f.ctext(i), "&" | "*" | "mut") {
        i += 1;
    }
    match f.ckind(i) {
        TokenKind::Ident | TokenKind::Num => {}
        _ => return None,
    }
    let mut segs = vec![f.ctext(i).to_string()];
    let mut k = i + 1;
    loop {
        if f.ctext(k) == "." && f.ckind(k + 1) == TokenKind::Ident {
            segs.push(f.ctext(k + 1).to_string());
            k += 2;
        } else if f.ctext(k) == ":" && f.ctext(k + 1) == ":" && f.ckind(k + 2) == TokenKind::Ident {
            segs.push(f.ctext(k + 2).to_string());
            k += 3;
        } else {
            break;
        }
    }
    // A call like `f(...)` is a complex operand, not a path.
    if f.ctext(k) == "(" {
        return None;
    }
    Some(segs)
}

/// The fn item whose body contains code position `i`, if any.
fn enclosing_fn(f: &FileIndex, i: usize) -> Option<(usize, usize)> {
    f.fns
        .iter()
        .filter_map(|item| item.body)
        .filter(|&(open, close)| open <= i && i <= close)
        .min_by_key(|&(open, close)| close - open)
}

/// Scans back from the cast position to the start of the enclosing
/// sub-expression looking for an inline bounding operation (`%`, `.min(`,
/// `& LITERAL`), e.g. `(cycle % 16) as u8`.
fn inline_bounded_before(f: &FileIndex, cast_pos: usize) -> bool {
    let mut depth = 0i64;
    let mut i = cast_pos;
    while i > 0 {
        i -= 1;
        match f.ctext(i) {
            ")" => depth += 1,
            "(" => {
                if depth == 0 {
                    return false;
                }
                depth -= 1;
            }
            ";" | "{" | "}" | "=" | "," if depth == 0 => return false,
            "%" => return true,
            "min" if f.ctext(i.wrapping_sub(1)) == "." => return true,
            "&" if f.ckind(i + 1) == TokenKind::Num => return true,
            _ => {}
        }
    }
    false
}

fn push(
    out: &mut Vec<Diagnostic>,
    f: &FileIndex,
    rule: Rule,
    line: usize,
    col: usize,
    message: String,
) {
    out.push(Diagnostic {
        rule,
        file: f.rel.clone(),
        line,
        col,
        snippet: f.snippet(line),
        message,
    });
}

/// All per-file rules.
fn check_one(
    f: &FileIndex,
    scopes: &Scopes,
    facts: &BTreeMap<String, Vec<FnFact>>,
    out: &mut Vec<Diagnostic>,
) {
    let rel = f.rel.as_str();
    let sim = scopes.in_sim(rel);
    let det = scopes.in_det(rel);
    let stats = scopes.in_stats(rel);
    let doc = scopes.in_doc(rel);
    let l5 = !scopes.is_runner(rel);
    let l6 = !scopes.may_print(rel);
    let hot = scopes.in_hot(rel);
    let d3 = scopes.in_d3(rel);
    let runner = scopes.is_runner(rel);

    for i in 0..f.code.len() {
        if f.is_test(i) {
            continue;
        }
        let Some(tok) = f.ctok(i) else { continue };
        let (line, col) = (tok.line, tok.col);
        let t = f.ctext(i);

        // --- L1: panic-freedom -------------------------------------------
        if sim {
            if t == "." && f.ctext(i + 2) == "(" {
                let m = f.ctext(i + 1);
                if m == "unwrap" || m == "expect" {
                    let at = f.ctok(i + 1).map_or((line, col), |t| (t.line, t.col));
                    push(
                        out,
                        f,
                        Rule::L1,
                        at.0,
                        at.1,
                        format!(
                            "{m}() in non-test simulator code; return a Result/Option or justify in lint.toml"
                        ),
                    );
                }
            }
            if (t == "panic" || t == "unreachable")
                && tok.kind == TokenKind::Ident
                && f.ctext(i + 1) == "!"
            {
                push(
                    out,
                    f,
                    Rule::L1,
                    line,
                    col,
                    format!("{t}! in non-test simulator code; return a Result/Option or justify in lint.toml"),
                );
            }
            // --- L2: hash-ordered containers -----------------------------
            if (t == "HashMap" || t == "HashSet") && tok.kind == TokenKind::Ident {
                push(
                    out,
                    f,
                    Rule::L2,
                    line,
                    col,
                    format!("{t} in simulator code: iteration order is nondeterministic; use BTreeMap/BTreeSet or a Vec"),
                );
            }
        }

        // --- L5: thread discipline ---------------------------------------
        if l5
            && t == "thread"
            && f.ctext(i + 1) == ":"
            && f.ctext(i + 2) == ":"
            && matches!(f.ctext(i + 3), "spawn" | "scope")
        {
            push(
                out,
                f,
                Rule::L5,
                line,
                col,
                format!(
                    "thread::{} outside the sanctioned runner; route parallelism through simcore::parallel so results stay deterministic",
                    f.ctext(i + 3)
                ),
            );
        }

        // --- L6: print discipline ----------------------------------------
        if l6 && (t == "println" || t == "eprintln") && f.ctext(i + 1) == "!" {
            push(
                out,
                f,
                Rule::L6,
                line,
                col,
                format!("{t}! in library code; report through return values or telemetry — printing belongs to src/bin/ binaries"),
            );
        }

        // --- L7: hot-path allocation -------------------------------------
        if hot {
            if let Some(alloc_line) = alloc_at(f, i) {
                let what = if t == "." {
                    format!("{}()", f.ctext(i + 1))
                } else if t == "vec" {
                    "vec!".to_string()
                } else {
                    format!("{}::{}", t, f.ctext(i + 3))
                };
                push(
                    out,
                    f,
                    Rule::L7,
                    alloc_line,
                    col,
                    format!("{what} in a per-step hot path; preallocate in the constructor or justify a cold path with lint:allow(L7)"),
                );
            }
        }

        // --- L3: narrowing casts in statistics paths ---------------------
        if stats && t == "as" && tok.kind == TokenKind::Ident {
            let target = f.ctext(i + 1);
            if NARROW_TARGETS.contains(&target) {
                push(
                    out,
                    f,
                    Rule::L3,
                    line,
                    col,
                    format!("narrowing `as {target}` cast in a statistics path; use try_into() or a saturating conversion"),
                );
            } else if (target == "u64" || target == "i64")
                && i >= 4
                && f.ctext(i - 1) == ")"
                && f.ctext(i - 2) == "("
                && FLOAT_PRODUCERS.contains(&f.ctext(i - 3))
                && f.ctext(i - 4) == "."
            {
                push(
                    out,
                    f,
                    Rule::L3,
                    line,
                    col,
                    format!("float-to-int `as {target}` cast in a statistics path; bound the value and use try_into()"),
                );
            }
        }

        // --- D1: host nondeterminism -------------------------------------
        if det {
            if (t == "Instant" || t == "SystemTime") && tok.kind == TokenKind::Ident {
                push(
                    out,
                    f,
                    Rule::D1,
                    line,
                    col,
                    format!("{t} is a host clock read; simulation state and output must be a function of the seed and config only"),
                );
            }
            if t == "env"
                && f.ctext(i + 1) == ":"
                && f.ctext(i + 2) == ":"
                && ENV_READS.contains(&f.ctext(i + 3))
            {
                push(
                    out,
                    f,
                    Rule::D1,
                    line,
                    col,
                    format!("env::{} reads the host environment inside a simulation crate; thread configuration through SimConfig instead", f.ctext(i + 3)),
                );
            }
            if t == "thread_rng" || (t == "rand" && f.ctext(i + 1) == ":" && f.ctext(i + 2) == ":")
            {
                push(
                    out,
                    f,
                    Rule::D1,
                    line,
                    col,
                    "host randomness in a simulation crate; use the seeded simcore::rng::SimRng streams".to_string(),
                );
            }
            if t == "available_parallelism" && !runner {
                push(
                    out,
                    f,
                    Rule::D1,
                    line,
                    col,
                    "available_parallelism probes the host inside a simulation crate; only the sanctioned runner may ask".to_string(),
                );
            }
            if !sim && (t == "HashMap" || t == "HashSet") && tok.kind == TokenKind::Ident {
                push(
                    out,
                    f,
                    Rule::D1,
                    line,
                    col,
                    format!("{t} feeds simulation input/output from this crate; iteration order is nondeterministic — use BTreeMap/BTreeSet or a Vec"),
                );
            }

            // --- D2: cycle arithmetic ------------------------------------
            if t == "-"
                && f.ctext(i + 1) != "=" // `-=` compound assignment
                && f.ctext(i + 1) != ">" // `->` return arrow
                && (matches!(f.ckind(i.wrapping_sub(1)), TokenKind::Ident | TokenKind::Num)
                    || matches!(f.ctext(i.wrapping_sub(1)), ")" | "]"))
            {
                let left = operand_back(f, i);
                let right = operand_forward(f, i + 1);
                let lseg = left.as_deref().unwrap_or(&[]);
                let rseg = right.as_deref().unwrap_or(&[]);
                let involved = lseg.iter().chain(rseg).any(|s| cycleish(s));
                if involved {
                    let body = enclosing_fn(f, i).unwrap_or((0, f.code.len()));
                    let lcore = lseg.last().map(String::as_str).unwrap_or("");
                    let rcore = rseg.last().map(String::as_str).unwrap_or("");
                    let guarded = !lcore.is_empty()
                        && !rcore.is_empty()
                        && dataflow::comparison_guard(f, body, i, lcore, rcore);
                    if !guarded {
                        push(
                            out,
                            f,
                            Rule::D2,
                            line,
                            col,
                            format!(
                                "unchecked subtraction on cycle/quota quantity `{}`; guard with an ordering comparison or use saturating_sub/checked_sub",
                                if lcore.is_empty() { rcore } else { lcore }
                            ),
                        );
                    }
                }
            }
            if t == "as" && tok.kind == TokenKind::Ident && NARROW_TARGETS.contains(&f.ctext(i + 1))
            {
                if let Some(segs) = operand_back(f, i) {
                    if segs.iter().any(|s| cycleish(s)) {
                        let body = enclosing_fn(f, i).unwrap_or((0, f.code.len()));
                        let bounds = dataflow::bounded_locals(f, body);
                        let core = segs.last().map(String::as_str).unwrap_or("");
                        let bounded = (segs.len() == 1 && bounds.is_bounded(core))
                            || inline_bounded_before(f, i);
                        if !bounded {
                            push(
                                out,
                                f,
                                Rule::D2,
                                line,
                                col,
                                format!(
                                    "narrowing `as {}` on cycle/quota quantity `{core}` with no bound in scope; bound it (%, .min, mask) or use try_into()",
                                    f.ctext(i + 1)
                                ),
                            );
                        }
                    }
                }
            }
        }

        // --- D3: Sink-genericity -----------------------------------------
        if d3
            && t == "Recorder"
            && tok.kind == TokenKind::Ident
            // `Recorder::CONST` / `Recorder::new(..)` is a path
            // *expression* (construction or associated item), not a type
            // position — even after a struct-literal field `:`.
            && !(f.ctext(i + 1) == ":" && f.ctext(i + 2) == ":")
        {
            // Type position: walk back over `&`, `mut`, lifetimes.
            let mut j = i;
            while j > 0
                && (matches!(f.ctext(j - 1), "&" | "mut") || f.ckind(j - 1) == TokenKind::Lifetime)
            {
                j -= 1;
            }
            let anno = j >= 1 && f.ctext(j - 1) == ":" && (j < 2 || f.ctext(j - 2) != ":");
            let ret = j >= 2 && f.ctext(j - 1) == ">" && f.ctext(j - 2) == "-";
            let targ = j >= 1 && f.ctext(j - 1) == "<";
            if anno || ret || targ {
                push(
                    out,
                    f,
                    Rule::D3,
                    line,
                    col,
                    "component hardwires telemetry::Recorder; take `S: Sink` generically so NullSink compiles the emission away".to_string(),
                );
            }
        }
    }

    // --- L4: doc coverage (item-level) -----------------------------------
    if doc {
        for item in &f.fns {
            if item.is_pub && !item.is_test && !item.has_doc {
                push(
                    out,
                    f,
                    Rule::L4,
                    item.line,
                    item.col,
                    format!("undocumented pub fn `{}`; add a /// doc comment", item.name),
                );
            }
        }
    }

    // --- D4: hot-path allocation, one call deep ---------------------------
    if hot {
        for item in &f.fns {
            if item.is_test {
                continue;
            }
            let Some((open, close)) = item.body else {
                continue;
            };
            for i in open..=close.min(f.code.len().saturating_sub(1)) {
                if f.is_test(i) {
                    continue;
                }
                let t = f.ctext(i);
                if f.ckind(i) != TokenKind::Ident
                    || f.ctext(i + 1) != "("
                    || NOT_CALLEES.contains(&t)
                {
                    continue;
                }
                // Skip definitions (`fn name(`) and method calls
                // (`.name(`) — a method name like `push` or `insert` would
                // collide with std collection methods, and D4's
                // name-based resolution cannot tell them apart. Free and
                // path calls (`helper(...)`, `Table::filled(...)`) are
                // where cross-file hot-path allocation actually hides.
                if i > 0 && matches!(f.ctext(i - 1), "fn" | ".") {
                    continue;
                }
                let Some(callees) = facts.get(t) else {
                    continue;
                };
                if callees.is_empty()
                    || callees.iter().any(|c| c.in_hot)
                    || !callees.iter().all(|c| c.alloc_line.is_some())
                {
                    continue;
                }
                let Some(first) = callees.first() else {
                    continue;
                };
                let (line, col) = f.ctok(i).map_or((0, 0), |t| (t.line, t.col));
                push(
                    out,
                    f,
                    Rule::D4,
                    line,
                    col,
                    format!(
                        "hot path calls `{t}` which allocates ({}:{}); hot-path allocation is forbidden one call level deep — preallocate, or justify with lint:allow(D4)",
                        first.file,
                        first.alloc_line.unwrap_or(first.line),
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(rel: &str, src: &str) -> Vec<Diagnostic> {
        let f = FileIndex::build(rel, src);
        check_files(std::slice::from_ref(&f), &Scopes::default())
    }

    fn check_many(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let idx: Vec<FileIndex> = files
            .iter()
            .map(|(rel, src)| FileIndex::build(rel, src))
            .collect();
        check_files(&idx, &Scopes::default())
    }

    #[test]
    fn l1_flags_unwrap_with_exact_col() {
        let d = check("crates/core/src/l3/adaptive.rs", "fn f() { x.unwrap(); }\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::L1);
        assert_eq!((d[0].line, d[0].col), (1, 12));
        assert_eq!(d[0].snippet, "fn f() { x.unwrap(); }");
    }

    #[test]
    fn l1_ignores_strings_comments_and_tests() {
        let src = "fn f() -> &'static str { \"x.unwrap()\" } // panic!()\n#[cfg(test)]\nmod t { fn g() { y.unwrap(); } }\n";
        assert!(check("crates/core/src/l3/mod.rs", src).is_empty());
    }

    #[test]
    fn l1_ignores_unwrap_or_variants() {
        let src = "fn f() { x.unwrap_or(0); y.unwrap_or_default(); z.unwrap_or_else(|| 1); }\n";
        assert!(check("crates/core/src/cmp.rs", src).is_empty());
    }

    #[test]
    fn l1_flags_panic_and_unreachable() {
        let d = check(
            "crates/cachesim/src/cache.rs",
            "fn f() { panic!(\"boom\"); }\nfn g() { unreachable!() }\n",
        );
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn l2_flags_hashmap() {
        let d = check(
            "crates/cpusim/src/tlb.rs",
            "use std::collections::HashMap;\n",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::L2);
    }

    #[test]
    fn l3_flags_narrowing_and_float_casts_in_stats() {
        let d = check(
            "crates/simcore/src/stats.rs",
            "fn f(v: u64) -> usize { v as usize }\nfn g(x: f64) -> u64 { (x * 2.0).ceil() as u64 }\n",
        );
        assert_eq!(d.iter().filter(|d| d.rule == Rule::L3).count(), 2);
    }

    #[test]
    fn l3_allows_widening_and_words_containing_as() {
        let src = "fn f(v: u32) -> u64 { v as u64 }\nfn base(assign: u64) -> u64 { assign }\n";
        assert!(check("crates/simcore/src/stats.rs", src).is_empty());
    }

    #[test]
    fn l4_flags_undocumented_pub_fn_only_in_scope() {
        let d = check(
            "crates/core/src/engine.rs",
            "pub fn quota(&self) -> usize { 0 }\n",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::L4);
        assert!(d[0].message.contains("quota"));
        assert!(check("crates/core/src/cmp.rs", "pub fn helper() {}\n").is_empty());
    }

    #[test]
    fn l4_accepts_doc_comment_with_attributes_between() {
        let src = "/// Returns the quota.\n#[must_use]\npub fn quota(&self) -> usize { 0 }\n";
        assert!(check("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn l5_flags_threads_outside_the_runner() {
        let d = check(
            "crates/bench/src/figures.rs",
            "fn f() { std::thread::spawn(|| {}); }\n",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::L5);
        let ok = "fn f() { std::thread::scope(|s| {}); }\n";
        assert!(check("crates/simcore/src/parallel/mod.rs", ok).is_empty());
    }

    #[test]
    fn l6_flags_prints_in_library_code_and_exempts_binaries() {
        let d = check(
            "crates/core/src/experiment.rs",
            "fn f() { println!(\"{}\", 1); }\nfn g() { eprintln!(\"oops\"); }\n",
        );
        assert_eq!(d.iter().filter(|d| d.rule == Rule::L6).count(), 2);
        let src = "fn main() { println!(\"report\"); }\n";
        assert!(check("src/bin/nuca-sim.rs", src).is_empty());
        assert!(check("crates/lint/src/main.rs", src).is_empty());
        assert!(check("examples/quickstart.rs", src).is_empty());
    }

    #[test]
    fn l7_flags_allocation_in_hot_paths() {
        let d = check(
            "crates/core/src/l3/adaptive.rs",
            "fn f() { let v: Vec<u8> = Vec::new(); }\nfn g() { let b = Box::new(1); }\n",
        );
        assert_eq!(d.iter().filter(|d| d.rule == Rule::L7).count(), 2);
        let d = check(
            "crates/cachesim/src/lru.rs",
            "fn f(x: &S) -> S { x.clone() }\n",
        );
        assert_eq!(d.iter().filter(|d| d.rule == Rule::L7).count(), 1);
    }

    #[test]
    fn d1_flags_clock_env_rand_and_parallelism() {
        let d = check(
            "crates/core/src/engine.rs",
            "fn f() { let t = std::time::Instant::now(); }\nfn g() { let v = std::env::var(\"X\"); }\nfn h() { let r = rand::random::<u8>(); }\nfn p() { let n = std::thread::available_parallelism(); }\n",
        );
        let d1: Vec<_> = d.iter().filter(|d| d.rule == Rule::D1).collect();
        assert_eq!(d1.len(), 4, "{d1:?}");
        assert!(d1[0].message.contains("clock"));
    }

    #[test]
    fn d1_extends_hash_ban_to_tracegen_without_double_reporting() {
        let d = check(
            "crates/tracegen/src/workload.rs",
            "use std::collections::HashMap;\n",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::D1);
        // In the L2 scope the finding stays L2-only.
        let d = check("crates/core/src/cmp.rs", "use std::collections::HashMap;\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::L2);
    }

    #[test]
    fn d1_allows_the_runner_and_tests() {
        let src = "pub fn default_jobs() -> usize { std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1) }\n";
        let d = check("crates/simcore/src/parallel/mod.rs", src);
        assert!(d.iter().all(|d| d.rule != Rule::D1), "{d:?}");
        let test_src = "#[cfg(test)]\nmod t { fn f() { let t = Instant::now(); } }\n";
        assert!(check("crates/simcore/src/rng.rs", test_src).is_empty());
    }

    #[test]
    fn d2_flags_unguarded_cycle_subtraction() {
        let d = check(
            "crates/cpusim/src/l3iface.rs",
            "fn f(wake_cycle: u64, now: u64) -> u64 { wake_cycle - now }\n",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::D2);
        assert!(d[0].message.contains("wake_cycle"));
    }

    #[test]
    fn d2_accepts_guarded_subtraction_and_saturating() {
        let guarded = "fn f(wake_cycle: u64, now_cycle: u64) -> u64 { if wake_cycle >= now_cycle { wake_cycle - now_cycle } else { 0 } }\n";
        assert!(check("crates/cpusim/src/l3iface.rs", guarded).is_empty());
        let sat = "fn f(wake_cycle: u64, now: u64) -> u64 { wake_cycle.saturating_sub(now) }\n";
        assert!(check("crates/cpusim/src/l3iface.rs", sat).is_empty());
        let unrelated = "fn f(a: u64, b: u64) -> u64 { a - b }\n";
        assert!(check("crates/cpusim/src/l3iface.rs", unrelated).is_empty());
    }

    #[test]
    fn d2_flags_unbounded_narrowing_and_accepts_bounded() {
        let raw = "fn f(cycle: u64) -> u32 { cycle as u32 }\n";
        let d = check("crates/core/src/cmp.rs", raw);
        assert_eq!(d.iter().filter(|d| d.rule == Rule::D2).count(), 1);
        let bounded = "fn f(cycle: u64) -> u32 { let w = cycle % 16; w as u32 }\n";
        assert!(check("crates/core/src/cmp.rs", bounded).is_empty());
        let inline = "fn f(cycle: u64) -> u8 { (cycle % 256) as u8 }\n";
        assert!(check("crates/core/src/cmp.rs", inline).is_empty());
    }

    #[test]
    fn d3_flags_type_positions_not_construction() {
        let d = check(
            "crates/core/src/engine.rs",
            "struct Probe { rec: Recorder }\n",
        );
        assert_eq!(d.iter().filter(|d| d.rule == Rule::D3).count(), 1);
        let d = check(
            "crates/core/src/cmp.rs",
            "fn log_to(rec: &mut Recorder) {}\n",
        );
        assert_eq!(d.iter().filter(|d| d.rule == Rule::D3).count(), 1);
        // Construction at a boundary is fine.
        let ok = "fn run() { let r = Recorder::with_capacity(64); }\n";
        assert!(check("crates/core/src/experiment.rs", ok)
            .iter()
            .all(|d| d.rule != Rule::D3));
        // The defining crate and binaries are exempt.
        assert!(check("crates/telemetry/src/sink.rs", "fn f(r: &Recorder) {}\n").is_empty());
        assert!(check("src/bin/nuca-sim.rs", "fn f(r: &Recorder) {}\n").is_empty());
    }

    #[test]
    fn d4_flags_hot_calls_into_allocating_helpers() {
        let helper = (
            "crates/cachesim/src/shadow.rs",
            "pub fn expand_table(n: usize) -> Vec<u64> { vec![0; n] }\npub fn pure_math(x: u64) -> u64 { x + 1 }\n",
        );
        let hot = (
            "crates/cpusim/src/core.rs",
            "fn step(&mut self) { let t = expand_table(4); let y = pure_math(1); }\n",
        );
        let d = check_many(&[helper, hot]);
        let d4: Vec<_> = d.iter().filter(|d| d.rule == Rule::D4).collect();
        assert_eq!(d4.len(), 1, "{d4:?}");
        assert!(d4[0].message.contains("expand_table"));
        assert!(d4[0].message.contains("shadow.rs"));
        assert_eq!(d4[0].file, "crates/cpusim/src/core.rs");
    }

    #[test]
    fn d4_skips_method_calls_and_out_of_scope_definitions() {
        // `.push(` is a std method even though a workspace fn shares the
        // name; and fns defined outside the sim crates never enter the
        // facts table.
        let files = [
            (
                "crates/lint/src/rules.rs",
                "pub fn push(v: &mut Vec<u8>) { v.extend([0].to_vec()); }\npub fn filled() -> Vec<u8> { vec![0] }\n",
            ),
            (
                "crates/cachesim/src/lru.rs",
                "fn touch(&mut self, x: u8) { self.order.push(x); let t = filled(); }\n",
            ),
        ];
        let d = check_many(&files);
        assert!(d.iter().all(|d| d.rule != Rule::D4), "{d:?}");
    }

    #[test]
    fn d3_skips_path_expressions() {
        let ok = "fn meta() -> usize { Recorder::DEFAULT_CAPACITY }\nfn build() { let m = Meta { cap: Recorder::DEFAULT_CAPACITY }; }\n";
        assert!(check("crates/core/src/experiment.rs", ok)
            .iter()
            .all(|d| d.rule != Rule::D3));
        // The facade CLI owns the concrete recorder: exempt.
        assert!(check("src/cli.rs", "fn drive(rec: Option<&Recorder>) {}\n").is_empty());
    }

    #[test]
    fn d4_skips_hot_callees_and_ambiguous_names() {
        // Callee in a hot file: already under L7, not re-flagged.
        let files = [
            (
                "crates/cachesim/src/lru.rs",
                "pub fn hot_helper() -> Vec<u64> { Vec::new() }\n",
            ),
            (
                "crates/cpusim/src/core.rs",
                "fn step(&mut self) { let t = hot_helper(); }\n",
            ),
        ];
        let d = check_many(&files);
        assert!(d.iter().all(|d| d.rule != Rule::D4), "{d:?}");
        // Ambiguous name with mixed behavior: conservative skip.
        let files = [
            (
                "crates/cachesim/src/shadow.rs",
                "pub fn helper() -> Vec<u64> { vec![0; 4] }\n",
            ),
            ("crates/memsim/src/lib.rs", "pub fn helper() -> u64 { 7 }\n"),
            (
                "crates/cpusim/src/core.rs",
                "fn step(&mut self) { let t = helper(); }\n",
            ),
        ];
        let d = check_many(&files);
        assert!(d.iter().all(|d| d.rule != Rule::D4), "{d:?}");
    }
}
