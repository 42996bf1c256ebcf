//! JSONL trace export, schema validation and the metrics document.
//!
//! A trace file is a sequence of **sections**, one per simulation cell,
//! concatenated in cell order (which is what makes traces byte-identical
//! for any `--jobs` count). Each section is:
//!
//! 1. one `meta` line — organization, core count, ring capacity and the
//!    initial quota vector (empty for non-adaptive organizations);
//! 2. the retained event lines in sequence order, each a single-line
//!    JSON object whose `type` is the [`EventKind`] name plus `seq` and
//!    `cycle`;
//! 3. one `summary` line — emitted/retained/dropped totals, per-kind
//!    counts and the final quota vector.
//!
//! [`validate_jsonl`] enforces the schema (exact key set and value types
//! per line type) **and** the semantic invariants: sequence numbers
//! strictly increase within a section, every `repartition` conserves the
//! quota sum, and replaying the repartition stream from `initial_quotas`
//! reproduces each carried vector, each `epoch` snapshot and the
//! summary's `final_quotas` bit-for-bit.

use crate::event::{Event, EventKind, TraceRecord};
use crate::json::Json;
use crate::sink::Trace;

/// Renders `traces` as one JSONL document, one section per trace, in
/// the given order.
pub fn render_jsonl(traces: &[Trace]) -> String {
    let mut out = String::new();
    for trace in traces {
        out.push_str(&meta_line(trace).render_compact());
        out.push('\n');
        for record in &trace.events {
            out.push_str(&event_line(record).render_compact());
            out.push('\n');
        }
        out.push_str(&summary_line(trace).render_compact());
        out.push('\n');
    }
    out
}

/// Builds the `--metrics-out` document for `traces`: one section per
/// trace with its hierarchical registry view.
pub fn metrics_json(traces: &[Trace]) -> Json {
    Json::Obj(vec![
        ("schema_version".into(), Json::num(1.0)),
        ("generator".into(), Json::str("telemetry")),
        (
            "sections".into(),
            Json::Arr(
                traces
                    .iter()
                    .map(|t| {
                        Json::Obj(vec![
                            ("org".into(), Json::str(t.meta.org.clone())),
                            ("cores".into(), Json::num(t.meta.cores as f64)),
                            ("final_quotas".into(), u32_arr_json(&t.final_quotas)),
                            ("metrics".into(), t.registry().to_json()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn u32_arr_json(values: &[u32]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::num(f64::from(v))).collect())
}

fn meta_line(trace: &Trace) -> Json {
    Json::Obj(vec![
        ("type".into(), Json::str("meta")),
        ("version".into(), Json::num(1.0)),
        ("org".into(), Json::str(trace.meta.org.clone())),
        ("cores".into(), Json::num(trace.meta.cores as f64)),
        (
            "ring_capacity".into(),
            Json::num(trace.meta.ring_capacity as f64),
        ),
        (
            "initial_quotas".into(),
            u32_arr_json(&trace.meta.initial_quotas),
        ),
    ])
}

fn summary_line(trace: &Trace) -> Json {
    Json::Obj(vec![
        ("type".into(), Json::str("summary")),
        ("org".into(), Json::str(trace.meta.org.clone())),
        ("emitted".into(), Json::num(trace.emitted as f64)),
        ("retained".into(), Json::num(trace.events.len() as f64)),
        ("dropped".into(), Json::num(trace.dropped as f64)),
        (
            "counts".into(),
            Json::Obj(
                trace
                    .counts
                    .iter()
                    .map(|&(name, n)| (name.to_string(), Json::num(n as f64)))
                    .collect(),
            ),
        ),
        ("final_quotas".into(), u32_arr_json(&trace.final_quotas)),
    ])
}

/// Renders one retained event as its JSONL line.
fn event_line(record: &TraceRecord) -> Json {
    let mut pairs: Vec<(String, Json)> = vec![
        ("type".into(), Json::str(record.event.kind().name())),
        ("seq".into(), Json::num(record.seq as f64)),
        ("cycle".into(), Json::num(record.at.raw() as f64)),
    ];
    match &record.event {
        Event::Repartition {
            epoch,
            gainer,
            loser,
            gain,
            loss,
            quotas,
        } => {
            pairs.push(("epoch".into(), Json::num(*epoch as f64)));
            pairs.push(("gainer".into(), Json::num(gainer.index() as f64)));
            pairs.push(("loser".into(), Json::num(loser.index() as f64)));
            pairs.push(("gain".into(), Json::num(*gain as f64)));
            pairs.push(("loss".into(), Json::num(*loss as f64)));
            pairs.push(("quotas".into(), u32_arr_json(quotas)));
        }
        Event::Epoch {
            index,
            quotas,
            occupancy,
            private_hits,
            shared_hits,
            misses,
            demotions,
            evictions,
        } => {
            pairs.push(("index".into(), Json::num(*index as f64)));
            pairs.push(("quotas".into(), u32_arr_json(quotas)));
            pairs.push((
                "occupancy".into(),
                Json::Arr(
                    occupancy
                        .iter()
                        .map(|o| {
                            Json::Obj(vec![
                                ("core".into(), Json::num(o.core.index() as f64)),
                                ("private".into(), Json::num(o.private_blocks as f64)),
                                ("shared".into(), Json::num(o.shared_blocks as f64)),
                            ])
                        })
                        .collect(),
                ),
            ));
            pairs.push(("private_hits".into(), Json::num(*private_hits as f64)));
            pairs.push(("shared_hits".into(), Json::num(*shared_hits as f64)));
            pairs.push(("misses".into(), Json::num(*misses as f64)));
            pairs.push(("demotions".into(), Json::num(*demotions as f64)));
            pairs.push(("evictions".into(), Json::num(*evictions as f64)));
        }
        Event::TimeSampleWindow { functional } => {
            pairs.push(("functional".into(), Json::Bool(*functional)));
        }
        Event::ShadowHit { core, set } | Event::Demotion { core, set } => {
            pairs.push(("core".into(), Json::num(core.index() as f64)));
            pairs.push(("set".into(), Json::num(f64::from(*set))));
        }
        Event::LruHit { core }
        | Event::MshrAlloc { core }
        | Event::MshrMerge { core }
        | Event::MshrStall { core } => {
            pairs.push(("core".into(), Json::num(core.index() as f64)));
        }
        Event::SharedEviction {
            set,
            owner,
            over_quota,
        } => {
            pairs.push(("set".into(), Json::num(f64::from(*set))));
            pairs.push(("owner".into(), Json::num(owner.index() as f64)));
            pairs.push(("over_quota".into(), Json::Bool(*over_quota)));
        }
        Event::Eviction { owner } => {
            pairs.push(("owner".into(), Json::num(owner.index() as f64)));
        }
        Event::Spill { from, to } => {
            pairs.push(("from".into(), Json::num(from.index() as f64)));
            pairs.push(("to".into(), Json::num(to.index() as f64)));
        }
        Event::MemoryFill { core, queue_delay } => {
            pairs.push(("core".into(), Json::num(core.index() as f64)));
            pairs.push(("queue_delay".into(), Json::num(*queue_delay as f64)));
        }
    }
    Json::Obj(pairs)
}

/// The exact top-level key set for each line type, in rendered order.
fn required_keys(line_type: &str) -> Option<&'static [&'static str]> {
    Some(match line_type {
        "meta" => &[
            "type",
            "version",
            "org",
            "cores",
            "ring_capacity",
            "initial_quotas",
        ],
        "summary" => &[
            "type",
            "org",
            "emitted",
            "retained",
            "dropped",
            "counts",
            "final_quotas",
        ],
        "repartition" => &[
            "type", "seq", "cycle", "epoch", "gainer", "loser", "gain", "loss", "quotas",
        ],
        "epoch" => &[
            "type",
            "seq",
            "cycle",
            "index",
            "quotas",
            "occupancy",
            "private_hits",
            "shared_hits",
            "misses",
            "demotions",
            "evictions",
        ],
        "time_sample_window" => &["type", "seq", "cycle", "functional"],
        "shadow_hit" | "demotion" => &["type", "seq", "cycle", "core", "set"],
        "lru_hit" | "mshr_alloc" | "mshr_merge" | "mshr_stall" => &["type", "seq", "cycle", "core"],
        "shared_eviction" => &["type", "seq", "cycle", "set", "owner", "over_quota"],
        "eviction" => &["type", "seq", "cycle", "owner"],
        "spill" => &["type", "seq", "cycle", "from", "to"],
        "memory_fill" => &["type", "seq", "cycle", "core", "queue_delay"],
        _ => return None,
    })
}

/// What a successful [`validate_jsonl`] run saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JsonlReport {
    /// Number of sections (meta/summary pairs).
    pub sections: usize,
    /// Total lines.
    pub lines: usize,
    /// Event lines (excluding meta and summary).
    pub events: usize,
    /// Repartition events replayed.
    pub repartitions: usize,
}

/// Per-section replay state while validating.
struct SectionState {
    org: String,
    cores: usize,
    quotas: Vec<u32>,
    quota_sum: u64,
    adaptive: bool,
    last_seq: Option<u64>,
}

/// Validates a JSONL trace document: schema and semantic invariants
/// (see the module docs).
///
/// # Errors
///
/// Returns every violation found, each prefixed with its 1-based line
/// number.
pub fn validate_jsonl(text: &str) -> Result<JsonlReport, Vec<String>> {
    let mut errors: Vec<String> = Vec::new();
    let mut report = JsonlReport::default();
    let mut section: Option<SectionState> = None;

    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        report.lines += 1;
        let value = match Json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                errors.push(format!("line {lineno}: not valid JSON: {e}"));
                continue;
            }
        };
        let line_type = match value.get("type") {
            Some(Json::Str(t)) => t.clone(),
            _ => {
                errors.push(format!("line {lineno}: missing string \"type\" field"));
                continue;
            }
        };
        if let Some(e) = check_keys(&value, &line_type) {
            errors.push(format!("line {lineno}: {e}"));
            continue;
        }
        match line_type.as_str() {
            "meta" => {
                if section.is_some() {
                    errors.push(format!(
                        "line {lineno}: meta before previous section's summary"
                    ));
                }
                let quotas = u32_field_arr(&value, "initial_quotas").unwrap_or_default();
                let cores = num_field(&value, "cores").unwrap_or(0.0) as usize;
                if !quotas.is_empty() && quotas.len() != cores {
                    errors.push(format!(
                        "line {lineno}: initial_quotas has {} entries for {cores} cores",
                        quotas.len()
                    ));
                }
                section = Some(SectionState {
                    org: str_field(&value, "org").unwrap_or_default(),
                    cores,
                    quota_sum: quotas.iter().map(|&q| u64::from(q)).sum(),
                    adaptive: !quotas.is_empty(),
                    quotas,
                    last_seq: None,
                });
                report.sections += 1;
            }
            "summary" => match section.take() {
                None => errors.push(format!("line {lineno}: summary without a meta line")),
                Some(state) => {
                    let finals = u32_field_arr(&value, "final_quotas").unwrap_or_default();
                    if state.adaptive && finals != state.quotas {
                        errors.push(format!(
                            "line {lineno}: final_quotas {finals:?} != replayed {:?}",
                            state.quotas
                        ));
                    }
                    let org = str_field(&value, "org").unwrap_or_default();
                    if org != state.org {
                        errors.push(format!(
                            "line {lineno}: summary org {org:?} != meta org {:?}",
                            state.org
                        ));
                    }
                }
            },
            _ => match section.as_mut() {
                None => errors.push(format!("line {lineno}: event before any meta line")),
                Some(state) => {
                    report.events += 1;
                    let seq = num_field(&value, "seq").unwrap_or(-1.0) as i64;
                    if seq < 0 {
                        errors.push(format!("line {lineno}: bad seq"));
                    } else {
                        let seq = seq as u64;
                        if let Some(last) = state.last_seq {
                            if seq <= last {
                                errors.push(format!(
                                    "line {lineno}: seq {seq} not above previous {last}"
                                ));
                            }
                        }
                        state.last_seq = Some(seq);
                    }
                    if line_type == "repartition" {
                        report.repartitions += 1;
                        if let Some(e) = apply_repartition(state, &value) {
                            errors.push(format!("line {lineno}: {e}"));
                        }
                    }
                    if line_type == "epoch" {
                        let carried = u32_field_arr(&value, "quotas").unwrap_or_default();
                        if state.adaptive && carried != state.quotas {
                            errors.push(format!(
                                "line {lineno}: epoch quotas {carried:?} != replayed {:?}",
                                state.quotas
                            ));
                        }
                    }
                }
            },
        }
    }
    if section.is_some() {
        errors.push("trailing section has no summary line".into());
    }
    if report.sections == 0 && errors.is_empty() {
        errors.push("empty trace: no meta line found".into());
    }
    if errors.is_empty() {
        Ok(report)
    } else {
        Err(errors)
    }
}

fn apply_repartition(state: &mut SectionState, value: &Json) -> Option<String> {
    if !state.adaptive {
        return Some("repartition in a section with no initial_quotas".into());
    }
    let gainer = num_field(value, "gainer")? as usize;
    let loser = num_field(value, "loser")? as usize;
    if gainer >= state.cores || loser >= state.cores {
        return Some(format!(
            "gainer {gainer} / loser {loser} out of range for {} cores",
            state.cores
        ));
    }
    if state.quotas.get(loser).copied().unwrap_or(0) == 0 {
        return Some(format!("loser core{loser} quota would underflow"));
    }
    if let Some(q) = state.quotas.get_mut(gainer) {
        *q += 1;
    }
    if let Some(q) = state.quotas.get_mut(loser) {
        *q -= 1;
    }
    let carried = u32_field_arr(value, "quotas").unwrap_or_default();
    if carried != state.quotas {
        return Some(format!(
            "carried quotas {carried:?} != replayed {:?}",
            state.quotas
        ));
    }
    let sum: u64 = state.quotas.iter().map(|&q| u64::from(q)).sum();
    if sum != state.quota_sum {
        return Some(format!(
            "quota sum changed from {} to {sum}",
            state.quota_sum
        ));
    }
    None
}

/// Checks the exact top-level key set and coarse value types for one
/// line; returns a description of the first problem.
fn check_keys(value: &Json, line_type: &str) -> Option<String> {
    let Some(required) = required_keys(line_type) else {
        return Some(format!("unknown line type {line_type:?}"));
    };
    let Json::Obj(pairs) = value else {
        return Some("line is not a JSON object".into());
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    for want in required {
        if !keys.contains(want) {
            return Some(format!("missing key {want:?}"));
        }
    }
    for key in &keys {
        if !required.contains(key) {
            return Some(format!("unexpected key {key:?}"));
        }
    }
    for (key, v) in pairs {
        let ok = match key.as_str() {
            "type" | "org" => matches!(v, Json::Str(_)),
            "over_quota" | "functional" => matches!(v, Json::Bool(_)),
            "quotas" | "initial_quotas" | "final_quotas" => match v {
                Json::Arr(items) => items.iter().all(|i| matches!(i, Json::Num(_))),
                _ => false,
            },
            "occupancy" => match v {
                Json::Arr(items) => items.iter().all(occupancy_entry_ok),
                _ => false,
            },
            "counts" => match v {
                Json::Obj(entries) => entries.iter().all(|(name, n)| {
                    EventKind::from_name(name).is_some() && matches!(n, Json::Num(_))
                }),
                _ => false,
            },
            _ => matches!(v, Json::Num(_)),
        };
        if !ok {
            return Some(format!("key {key:?} has the wrong value type"));
        }
    }
    None
}

fn occupancy_entry_ok(entry: &Json) -> bool {
    match entry {
        Json::Obj(pairs) => {
            pairs.len() == 3
                && ["core", "private", "shared"].iter().all(|k| {
                    pairs
                        .iter()
                        .any(|(key, v)| key == k && matches!(v, Json::Num(_)))
                })
        }
        _ => false,
    }
}

fn num_field(value: &Json, key: &str) -> Option<f64> {
    value.get(key).and_then(Json::as_num)
}

fn str_field(value: &Json, key: &str) -> Option<String> {
    match value.get(key) {
        Some(Json::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

fn u32_field_arr(value: &Json, key: &str) -> Option<Vec<u32>> {
    match value.get(key) {
        Some(Json::Arr(items)) => items.iter().map(|i| i.as_num().map(|n| n as u32)).collect(),
        _ => None,
    }
}

/// One parsed section of a JSONL trace, for display purposes
/// (validation goes through [`validate_jsonl`]).
#[derive(Debug, Clone)]
pub struct TraceSection {
    /// The parsed `meta` line.
    pub meta: Json,
    /// The parsed event lines, in file order.
    pub records: Vec<Json>,
    /// The parsed `summary` line, when present.
    pub summary: Option<Json>,
}

/// Splits a JSONL document into sections without semantic validation
/// (unknown line types are kept as events).
///
/// # Errors
///
/// Reports unparsable lines or events appearing before the first `meta`.
pub fn parse_sections(text: &str) -> Result<Vec<TraceSection>, String> {
    let mut sections: Vec<TraceSection> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value =
            Json::parse(line).map_err(|e| format!("line {}: not valid JSON: {e}", idx + 1))?;
        let line_type = match value.get("type") {
            Some(Json::Str(t)) => t.clone(),
            _ => return Err(format!("line {}: missing \"type\" field", idx + 1)),
        };
        match line_type.as_str() {
            "meta" => sections.push(TraceSection {
                meta: value,
                records: Vec::new(),
                summary: None,
            }),
            "summary" => match sections.last_mut() {
                Some(s) => s.summary = Some(value),
                None => return Err(format!("line {}: summary before meta", idx + 1)),
            },
            _ => match sections.last_mut() {
                Some(s) => s.records.push(value),
                None => return Err(format!("line {}: event before meta", idx + 1)),
            },
        }
    }
    Ok(sections)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CoreOccupancy;
    use crate::sink::{Recorder, Sink, TraceMeta};
    use simcore::types::{CoreId, Cycle};

    fn sample_trace() -> Trace {
        let rec = Recorder::with_capacity(64);
        let mut sink = rec.clone();
        let c0 = CoreId::from_index(0);
        let c1 = CoreId::from_index(1);
        sink.emit(Cycle::new(10), Event::LruHit { core: c0 });
        sink.emit(Cycle::new(20), Event::ShadowHit { core: c1, set: 3 });
        sink.emit(Cycle::new(25), Event::TimeSampleWindow { functional: true });
        sink.emit(
            Cycle::new(30),
            Event::SharedEviction {
                set: 3,
                owner: c1,
                over_quota: true,
            },
        );
        sink.emit(
            Cycle::new(40),
            Event::MemoryFill {
                core: c0,
                queue_delay: 2,
            },
        );
        sink.emit(
            Cycle::new(50),
            Event::Repartition {
                epoch: 1,
                gainer: c0,
                loser: c1,
                gain: 12,
                loss: 3,
                quotas: vec![5, 3, 4, 4],
            },
        );
        sink.emit(
            Cycle::new(50),
            Event::Epoch {
                index: 1,
                quotas: vec![5, 3, 4, 4],
                occupancy: vec![CoreOccupancy {
                    core: c0,
                    private_blocks: 7,
                    shared_blocks: 1,
                }],
                private_hits: 100,
                shared_hits: 20,
                misses: 2000,
                demotions: 5,
                evictions: 40,
            },
        );
        rec.finish(
            TraceMeta {
                org: "adaptive".into(),
                cores: 4,
                ring_capacity: 64,
                initial_quotas: vec![4, 4, 4, 4],
            },
            vec![5, 3, 4, 4],
        )
    }

    #[test]
    fn rendered_trace_validates() {
        let text = render_jsonl(&[sample_trace()]);
        let report = validate_jsonl(&text).expect("schema-valid trace");
        assert_eq!(report.sections, 1);
        assert_eq!(report.events, 7);
        assert_eq!(report.repartitions, 1);
    }

    #[test]
    fn every_event_kind_renders_a_known_schema() {
        for kind in EventKind::ALL {
            assert!(required_keys(kind.name()).is_some(), "no schema for {kind}");
        }
    }

    #[test]
    fn multiple_sections_concatenate() {
        let mut shared = sample_trace();
        shared.meta.org = "shared".into();
        shared.meta.initial_quotas = Vec::new();
        shared.final_quotas = Vec::new();
        // A non-adaptive section keeps only non-quota events.
        shared.events.retain(|r| {
            !matches!(
                r.event.kind(),
                EventKind::Repartition | EventKind::Epoch | EventKind::ShadowHit
            )
        });
        let text = render_jsonl(&[sample_trace(), shared]);
        let report = validate_jsonl(&text).expect("two valid sections");
        assert_eq!(report.sections, 2);
        let sections = parse_sections(&text).expect("parsable");
        assert_eq!(sections.len(), 2);
        assert!(sections[1].summary.is_some());
    }

    #[test]
    fn validator_rejects_broken_replay() {
        let expect = |trace: Trace, needle: &str| {
            let errs = validate_jsonl(&render_jsonl(&[trace])).unwrap_err();
            assert!(
                errs.iter().any(|e| e.contains(needle)),
                "{needle}: {errs:?}"
            );
        };
        fn repartition(trace: &mut Trace) -> (&mut CoreId, &mut Vec<u32>) {
            trace
                .events
                .iter_mut()
                .find_map(|r| match &mut r.event {
                    Event::Repartition { gainer, quotas, .. } => Some((gainer, quotas)),
                    _ => None,
                })
                .unwrap()
        }
        let mut trace = sample_trace();
        trace.final_quotas = vec![9, 9, 9, 9];
        expect(trace, "final_quotas");
        // The loser has no quota left to give.
        let mut trace = sample_trace();
        trace.meta.initial_quotas = vec![4, 0, 4, 4];
        expect(trace, "underflow");
        let mut trace = sample_trace();
        *repartition(&mut trace).0 = CoreId::from_index(9);
        expect(trace, "out of range");
        let mut trace = sample_trace();
        *repartition(&mut trace).1 = vec![9, 9, 9, 9];
        expect(trace, "carried quotas");
        // A carried vector that breaks the quota sum cannot match the
        // replayed state, which conserves it by construction.
        let mut trace = sample_trace();
        *repartition(&mut trace).1 = vec![5, 3, 4, 5];
        expect(
            trace,
            "carried quotas [5, 3, 4, 5] != replayed [5, 3, 4, 4]",
        );
    }

    #[test]
    fn validator_rejects_schema_drift() {
        let good = render_jsonl(&[sample_trace()]);
        // Add an unexpected key to the first event line.
        let drifted = good.replacen(
            "\"type\":\"lru_hit\"",
            "\"type\":\"lru_hit\",\"extra\":1",
            1,
        );
        let errs = validate_jsonl(&drifted).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("unexpected key")),
            "{errs:?}"
        );
        // Remove a required key.
        let drifted = good.replacen(",\"set\":3,", ",", 1);
        assert!(validate_jsonl(&drifted).is_err());
        // Unknown type.
        let drifted = good.replacen("\"type\":\"lru_hit\"", "\"type\":\"zzz\"", 1);
        let errs = validate_jsonl(&drifted).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("unknown line type")),
            "{errs:?}"
        );
    }

    #[test]
    fn validator_rejects_non_monotone_seq() {
        let trace = sample_trace();
        let text = render_jsonl(&[trace]);
        // Duplicate an event line (same seq twice).
        let mut lines: Vec<&str> = text.lines().collect();
        lines.insert(2, lines[1]);
        let errs = validate_jsonl(&lines.join("\n")).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("seq")), "{errs:?}");
    }

    #[test]
    fn metrics_document_has_stable_shape() {
        let doc = metrics_json(&[sample_trace()]);
        let Some(Json::Arr(sections)) = doc.get("sections") else {
            panic!("metrics document has no sections array");
        };
        assert!(sections.iter().any(|s| s.get("org").is_some()));
        assert!(sections.iter().any(|s| matches!(
            s.get("metrics").and_then(|m| m.get("events")),
            Some(Json::Obj(events)) if !events.is_empty()
        )));
        // Round-trips through the parser.
        assert_eq!(Json::parse(&doc.render()).expect("valid"), doc);
    }
}
