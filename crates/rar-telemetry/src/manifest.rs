//! Run manifests: one JSON document describing a sweep's inputs and its
//! host-side telemetry, written beside the results it explains.
//!
//! A manifest answers "what exactly produced these numbers": which tool
//! and version ran, over which workloads and configuration fingerprints,
//! with how many threads, and where the wall-clock time went (the full
//! telemetry registry snapshot is embedded verbatim). Keys are sorted, so
//! two identical runs produce byte-identical manifests regardless of
//! thread count.
//!
//! Manifests are read back with the workspace's JSON reader,
//! [`rar_trace::jsonv`]: [`validate_manifest`] is the schema check CI
//! runs on every generated manifest, and `rar-experiments report` reads
//! manifests, its only input, the same way.

use crate::export::sanitize_f64;
use crate::registry::MetricsRegistry;
use rar_trace::jsonv::{self, escape};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema tag of the manifest document.
pub const MANIFEST_SCHEMA: &str = "rar-manifest-v1";

/// Top-level keys every valid manifest must carry.
pub const MANIFEST_REQUIRED_KEYS: [&str; 11] = [
    "schema",
    "tool",
    "version",
    "threads",
    "cells_completed",
    "cells_simulated",
    "cache_hit_rate",
    "runs_per_second",
    "wall_seconds",
    "workloads",
    "telemetry",
];

#[derive(Debug, Clone)]
enum Value {
    U64(u64),
    F64(f64),
    Str(String),
    StrArray(Vec<String>),
}

/// Builds one manifest document field by field.
#[derive(Debug)]
pub struct ManifestBuilder {
    fields: BTreeMap<String, Value>,
}

impl ManifestBuilder {
    /// A manifest for a run of `tool` at `version`.
    #[must_use]
    pub fn new(tool: &str, version: &str) -> Self {
        let mut b = ManifestBuilder {
            fields: BTreeMap::new(),
        };
        b.set_str("schema", MANIFEST_SCHEMA);
        b.set_str("tool", tool);
        b.set_str("version", version);
        b
    }

    /// Sets an integer field.
    pub fn set_u64(&mut self, key: &str, v: u64) -> &mut Self {
        self.fields.insert(key.to_owned(), Value::U64(v));
        self
    }

    /// Sets a float field (non-finite values are exported as `0.0`).
    pub fn set_f64(&mut self, key: &str, v: f64) -> &mut Self {
        self.fields.insert(key.to_owned(), Value::F64(v));
        self
    }

    /// Sets a string field.
    pub fn set_str(&mut self, key: &str, v: &str) -> &mut Self {
        self.fields.insert(key.to_owned(), Value::Str(v.to_owned()));
        self
    }

    /// Sets a string-array field. The values are sorted and deduplicated,
    /// so the rendered manifest is independent of insertion order.
    pub fn set_str_array(&mut self, key: &str, mut vs: Vec<String>) -> &mut Self {
        vs.sort_unstable();
        vs.dedup();
        self.fields.insert(key.to_owned(), Value::StrArray(vs));
        self
    }

    /// Renders the manifest, embedding the full telemetry snapshot of
    /// `registry` under the `"telemetry"` key.
    #[must_use]
    pub fn render(&self, registry: &MetricsRegistry) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n");
        for (key, value) in &self.fields {
            let _ = write!(out, "  \"{}\": ", escape(key));
            match value {
                Value::U64(v) => {
                    let _ = write!(out, "{v}");
                }
                Value::F64(v) => {
                    let _ = write!(out, "{:.6}", sanitize_f64(*v));
                }
                Value::Str(v) => {
                    let _ = write!(out, "\"{}\"", escape(v));
                }
                Value::StrArray(vs) => {
                    out.push('[');
                    for (i, v) in vs.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "\"{}\"", escape(v));
                    }
                    out.push(']');
                }
            }
            out.push_str(",\n");
        }
        // Telemetry last, below the manifest's own fields, so a reader
        // skimming the file sees the run's headline numbers first.
        out.push_str("  \"telemetry\": ");
        let telemetry = crate::export::to_json(registry);
        for (i, line) in telemetry.lines().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(line);
            out.push('\n');
        }
        out.pop();
        out.push_str("\n}\n");
        out
    }
}

/// Validates a rendered manifest: well-formed JSON, the expected schema
/// tags, and every required top-level key present. Returns the list of
/// problems (empty ⇒ valid).
#[must_use]
pub fn validate_manifest(text: &str) -> Vec<String> {
    let doc = match jsonv::parse(text) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("not valid JSON: {e}")],
    };
    let mut problems = Vec::new();
    for key in MANIFEST_REQUIRED_KEYS {
        if doc.get(key).is_none() {
            problems.push(format!("missing required key '{key}'"));
        }
    }
    match doc.get("schema").and_then(jsonv::Value::as_str) {
        Some(s) if s != MANIFEST_SCHEMA => {
            problems.push(format!("schema is '{s}', expected '{MANIFEST_SCHEMA}'"));
        }
        _ => {}
    }
    let telemetry_schema = doc
        .get("telemetry")
        .and_then(|t| t.get("schema"))
        .and_then(jsonv::Value::as_str);
    if telemetry_schema != Some(crate::export::TELEMETRY_SCHEMA) {
        problems.push(format!(
            "embedded telemetry snapshot missing schema '{}'",
            crate::export::TELEMETRY_SCHEMA
        ));
    }
    for key in ["cache_hit_rate", "runs_per_second", "wall_seconds"] {
        if let Some(v) = doc.get(key) {
            if v.as_f64().is_none() {
                problems.push(format!("'{key}' is not a number: {v:?}"));
            }
        }
    }
    if doc.get("threads").and_then(jsonv::Value::as_u64) == Some(0) {
        problems.push("threads must be nonzero".to_owned());
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> String {
        let reg = MetricsRegistry::new();
        reg.counter("rar_sweep_cells_simulated_total").add(6);
        let mut b = ManifestBuilder::new("rar-experiments", "0.1.0");
        b.set_u64("threads", 4)
            .set_u64("cells_completed", 6)
            .set_u64("cells_simulated", 6)
            .set_f64("cache_hit_rate", 0.0)
            .set_f64("runs_per_second", 12.5)
            .set_f64("wall_seconds", 0.48)
            .set_str_array(
                "workloads",
                vec!["milc".to_owned(), "mcf".to_owned(), "milc".to_owned()],
            )
            .set_str_array("fingerprints", vec!["deadbeefdeadbeef".to_owned()]);
        b.render(&reg)
    }

    #[test]
    fn rendered_manifest_validates_cleanly() {
        let text = sample();
        assert_eq!(validate_manifest(&text), Vec::<String>::new(), "{text}");
        assert_eq!(text.matches('{').count(), text.matches('}').count());
    }

    #[test]
    fn arrays_are_sorted_and_deduplicated() {
        let text = sample();
        assert!(
            text.contains("\"workloads\": [\"mcf\", \"milc\"]"),
            "{text}"
        );
    }

    #[test]
    fn fields_read_back_out() {
        let text = sample();
        let doc = jsonv::parse(&text).expect("manifest is JSON");
        assert_eq!(
            doc.get("tool").and_then(jsonv::Value::as_str),
            Some("rar-experiments")
        );
        assert_eq!(doc.get("threads").and_then(jsonv::Value::as_u64), Some(4));
        assert_eq!(
            doc.get("runs_per_second").and_then(jsonv::Value::as_f64),
            Some(12.5)
        );
        assert_eq!(
            doc.get("rar_sweep_cells_simulated_total"),
            None,
            "top level only"
        );
    }

    #[test]
    fn validation_reports_missing_keys_and_bad_schema() {
        let text = sample();
        let broken = text.replace("\"threads\": 4", "\"threads\": 0");
        assert!(validate_manifest(&broken)
            .iter()
            .any(|p| p.contains("threads")));
        let wrong = text.replace(MANIFEST_SCHEMA, "rar-manifest-v999");
        assert!(validate_manifest(&wrong)
            .iter()
            .any(|p| p.contains("expected")));
        let missing = text.replace("\"wall_seconds\"", "\"wall_secs\"");
        assert!(validate_manifest(&missing)
            .iter()
            .any(|p| p.contains("wall_seconds")));
        let truncated = &text[..text.len() / 2];
        assert!(validate_manifest(truncated)
            .iter()
            .any(|p| p.contains("not valid JSON")));
    }

    #[test]
    fn rendering_is_deterministic() {
        assert_eq!(sample(), sample());
    }
}
