//! Hierarchical counter registry.
//!
//! Metric names are `/`-separated paths (`"events/lru_hit/core0"`,
//! `"campaign/ran"`). The registry stores counters in first-insertion
//! order in a plain `Vec` — no hash containers, per the workspace
//! determinism rules — and [`Registry::to_json`] folds the paths into a
//! nested JSON object for the `--metrics-out` export.

use crate::json::Json;

/// Insertion-ordered hierarchical counter store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Registry {
    entries: Vec<(String, u64)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `n` to the counter at `path`, creating it at zero first if
    /// needed.
    pub fn add(&mut self, path: &str, n: u64) {
        match self.entries.iter_mut().find(|(k, _)| k == path) {
            Some((_, c)) => *c += n,
            None => self.entries.push((path.to_string(), n)),
        }
    }

    /// The counter value at `path`, if one is registered there.
    pub fn counter(&self, path: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|(k, _)| k == path)
            .map(|&(_, c)| c)
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no metric is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Folds the `/`-separated paths into a nested JSON object,
    /// preserving first-insertion order at every level.
    pub fn to_json(&self) -> Json {
        let flat: Vec<(&str, Json)> = self
            .entries
            .iter()
            .map(|(k, c)| (k.as_str(), Json::num(*c as f64)))
            .collect();
        nest(&flat)
    }
}

/// Groups `(path, value)` pairs by their first path segment, recursing
/// on the remainder. A path that is both a leaf and a prefix of deeper
/// paths (`"hits"` next to `"hits/core0"`) folds its leaf value into the
/// group as `"total"`, so the rendered object never has duplicate keys.
fn nest(flat: &[(&str, Json)]) -> Json {
    type Head<'a> = (&'a str, Option<Json>, Vec<(&'a str, Json)>);
    let mut heads: Vec<Head<'_>> = Vec::new();
    for (path, value) in flat {
        let (head, rest) = match path.split_once('/') {
            Some((h, r)) => (h, Some(r)),
            None => (*path, None),
        };
        let idx = match heads.iter().position(|(h, _, _)| *h == head) {
            Some(i) => i,
            None => {
                heads.push((head, None, Vec::new()));
                heads.len() - 1
            }
        };
        if let Some(entry) = heads.get_mut(idx) {
            match rest {
                None => entry.1 = Some(value.clone()),
                Some(r) => entry.2.push((r, value.clone())),
            }
        }
    }
    let mut pairs: Vec<(String, Json)> = Vec::new();
    for (head, leaf, children) in heads {
        let value = match (leaf, children.is_empty()) {
            (Some(v), true) => v,
            (None, _) => nest(&children),
            (Some(v), false) => {
                let mut combined: Vec<(&str, Json)> = vec![("total", v)];
                combined.extend(children);
                nest(&combined)
            }
        };
        pairs.push((head.to_string(), value));
    }
    Json::Obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut reg = Registry::new();
        reg.add("a/b", 2);
        reg.add("a/b", 3);
        assert_eq!(reg.counter("a/b"), Some(5));
        assert_eq!(reg.counter("a"), None);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn to_json_nests_by_path_segment() {
        let mut reg = Registry::new();
        reg.add("events/lru_hit", 7);
        reg.add("events/lru_hit/core0", 4);
        reg.add("trace/dropped", 0);
        let json = reg.to_json();
        let lru = json
            .get("events")
            .and_then(|e| e.get("lru_hit"))
            .expect("events.lru_hit group");
        assert_eq!(lru.get("total").and_then(Json::as_num), Some(7.0));
        assert_eq!(lru.get("core0").and_then(Json::as_num), Some(4.0));
        assert_eq!(
            json.get("trace")
                .and_then(|t| t.get("dropped"))
                .and_then(Json::as_num),
            Some(0.0)
        );
    }

    #[test]
    fn insertion_order_is_preserved() {
        let mut reg = Registry::new();
        reg.add("z", 1);
        reg.add("a", 1);
        let json = reg.to_json();
        let Json::Obj(pairs) = json else {
            panic!("registry renders an object");
        };
        assert_eq!(pairs[0].0, "z");
        assert_eq!(pairs[1].0, "a");
    }
}
