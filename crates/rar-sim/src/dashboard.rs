//! The sweep dashboard and the CI gate behind `rar-experiments report`.
//!
//! Consumes the one record a run leaves behind — its manifest
//! ([`SweepSession::manifest_json`](crate::SweepSession::manifest_json))
//! — and renders one self-contained HTML page: no external scripts,
//! stylesheets or fonts, so the file can be archived as a CI artifact and
//! opened anywhere. Bars are plain styled `<div>`s.
//!
//! The same manifests drive [`check_manifests`], the gate CI runs with
//! `report --check`: at least one manifest must be present, every one
//! must validate against the schema, and the gated manifest must meet the
//! cache-hit-rate floor (a warm CI sweep replays ≥90% of its cells).
//! Throughput regressions are `rar-layerbench compare`'s to catch.

use rar_core::StallBucket;
use rar_telemetry::{validate_manifest, Phase};
use rar_trace::jsonv::{self, Value};
use std::fmt::Write as _;

/// Reads the value of counter `name` out of a telemetry JSON export, or
/// out of a manifest embedding one under `"telemetry"`
/// (`"metrics": {"<name>": {"kind": "counter", "value": N}}`).
pub(crate) fn counter_value(doc: &Value<'_>, name: &str) -> Option<u64> {
    doc.get("telemetry")
        .unwrap_or(doc)
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_u64()
}

/// `text` parsed as JSON; an unreadable document reads as `null`, whose
/// members are all absent.
fn parse_or_null(text: &str) -> Value<'_> {
    jsonv::parse(text).unwrap_or(Value::Null)
}

/// Escapes text for embedding in HTML.
fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

fn human_nanos(nanos: u64) -> String {
    let secs = nanos as f64 / 1e9;
    if secs >= 1.0 {
        format!("{secs:.2}s")
    } else if secs >= 1e-3 {
        format!("{:.2}ms", secs * 1e3)
    } else {
        format!("{:.0}µs", secs * 1e6)
    }
}

/// A titled block of labeled horizontal bars, largest first, each showing
/// `text(value)` and its share of the total. Renders nothing and returns
/// `false` when the values sum to zero.
fn bars(
    out: &mut String,
    title: &str,
    mut rows: Vec<(&str, u64)>,
    text: fn(u64) -> String,
) -> bool {
    let total: u64 = rows.iter().map(|(_, n)| n).sum();
    if total == 0 {
        return false;
    }
    let _ = writeln!(out, "<h3>{title}</h3>");
    rows.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    for (label, n) in rows {
        let share = n as f64 / total as f64;
        let _ = writeln!(
            out,
            "<div class=\"row\"><span class=\"lbl\">{}</span>\
             <span class=\"track\"><span class=\"fill\" style=\"width:{:.0}%\"></span></span>\
             <span class=\"val\">{} ({:.1}%)</span></div>",
            esc(label),
            (share * 100.0).round(),
            esc(&text(n)),
            share * 100.0,
        );
    }
    true
}

/// Renders the manifest summary + self-profile section for one manifest.
fn manifest_section(out: &mut String, name: &str, text: &str) {
    let _ = writeln!(out, "<section><h2>{}</h2>", esc(name));
    let doc = parse_or_null(text);
    let u = |key: &str| doc.get(key).and_then(Value::as_u64);
    let f = |key: &str| doc.get(key).and_then(Value::as_f64);
    let s = |key: &str| doc.get(key).and_then(Value::as_str).unwrap_or("?");
    let _ = writeln!(
        out,
        "<p class=\"meta\">{} v{}</p>",
        esc(s("tool")),
        esc(s("version"))
    );
    let _ = writeln!(out, "<table>");
    for key in [
        "cells_completed",
        "cells_simulated",
        "cells_cached",
        "cells_rejected",
        "cells_failed",
        "threads",
    ] {
        if let Some(v) = u(key) {
            let _ = writeln!(out, "<tr><td>{key}</td><td>{v}</td></tr>");
        }
    }
    for (key, unit) in [
        ("cache_hit_rate", "%"),
        ("runs_per_second", " runs/s"),
        ("wall_seconds", " s"),
    ] {
        if let Some(v) = f(key) {
            let shown = if key == "cache_hit_rate" {
                v * 100.0
            } else {
                v
            };
            let _ = writeln!(out, "<tr><td>{key}</td><td>{shown:.2}{unit}</td></tr>");
        }
    }
    // Mean AVF tiers over the session's completed cells (present when
    // the session completed at least one cell).
    for key in [
        "avf_unrefined_mean",
        "avf_refined_mean",
        "avf_bit_refined_mean",
    ] {
        if let Some(v) = f(key) {
            let _ = writeln!(out, "<tr><td>{key}</td><td>{v:.6}</td></tr>");
        }
    }
    // Cycle-accounting headline (present when the sweep ran with the
    // stall profiler on): the quiescent fraction bounds what an
    // event-driven cycle loop could skip.
    if let Some(v) = f("quiescent_fraction") {
        let _ = writeln!(
            out,
            "<tr><td>quiescent_fraction</td><td>{:.2}%</td></tr>",
            v * 100.0
        );
    }
    if let Some(v) = u("stall_total_cycles") {
        let _ = writeln!(out, "<tr><td>stall_total_cycles</td><td>{v}</td></tr>");
    }
    let _ = writeln!(out, "</table>");

    // Stall-taxonomy bars: where the guest cycles went, by bucket. Only
    // rendered when the sweep ran with `--stalls` (the counters exist).
    let stalls = StallBucket::ALL
        .iter()
        .filter_map(|b| {
            let cycles = counter_value(&doc, &format!("rar_stall_{}_cycles_total", b.name()))?;
            Some((b.name(), cycles))
        })
        .collect();
    bars(
        out,
        "Stall breakdown (guest cycles by cause)",
        stalls,
        |n| n.to_string(),
    );

    // Self-profile bars: where the host wall-clock went, by phase. Only
    // rendered when the run was profiled (the counters exist).
    let phases = Phase::ALL
        .iter()
        .filter_map(|p| {
            let nanos = counter_value(&doc, &format!("rar_profile_{}_nanos_total", p.name()))?;
            Some((p.name(), nanos))
        })
        .collect();
    if !bars(
        out,
        "Self-profile (host wall-clock by phase)",
        phases,
        human_nanos,
    ) {
        let _ = writeln!(
            out,
            "<p class=\"meta\">not profiled (no phase timings recorded)</p>"
        );
    }
    let _ = writeln!(out, "</section>");
}

/// Renders the self-contained HTML dashboard from `(filename, contents)`
/// pairs of manifests.
#[must_use]
pub fn render_dashboard(manifests: &[(String, String)]) -> String {
    let mut out = String::with_capacity(8192);
    out.push_str(
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n\
         <title>rar-sim sweep dashboard</title>\n<style>\n\
         body{font:14px/1.5 system-ui,sans-serif;margin:2rem auto;max-width:60rem;color:#222}\n\
         h1{font-size:1.4rem} h2{font-size:1.1rem;border-bottom:1px solid #ddd}\n\
         h3{font-size:1rem} .meta{color:#666}\n\
         table{border-collapse:collapse;margin:.5rem 0}\n\
         td,th{border:1px solid #ddd;padding:.2rem .6rem;text-align:left}\n\
         .row{display:flex;align-items:center;gap:.5rem;margin:.15rem 0}\n\
         .lbl{width:8rem;text-align:right;color:#444}\n\
         .track{flex:1;background:#eee;height:.9rem;border-radius:.2rem;display:inline-block}\n\
         .fill{background:#4a7dbd;height:100%;display:block;border-radius:.2rem}\n\
         .val{width:10rem;color:#444}\n\
         </style></head><body>\n<h1>rar-sim sweep dashboard</h1>\n",
    );
    if manifests.is_empty() {
        out.push_str("<p class=\"meta\">no manifests found</p>\n");
    }
    for (name, text) in manifests {
        manifest_section(&mut out, name, text);
    }
    out.push_str("</body></html>\n");
    out
}

/// The CI gate. Returns the list of failures (empty ⇒ pass):
///
/// * `manifests` must not be empty — a gate that read nothing passes
///   nothing;
/// * every manifest must satisfy [`validate_manifest`];
/// * if `min_hit_rate` is set, the gated manifest — `manifests[gated]` —
///   must carry a `cache_hit_rate` that meets it (a warm sweep replays
///   from the cache).
#[must_use]
pub fn check_manifests(
    manifests: &[(String, String)],
    gated: Option<usize>,
    min_hit_rate: Option<f64>,
) -> Vec<String> {
    let mut problems = Vec::new();
    if manifests.is_empty() {
        problems.push("no manifest to check".to_owned());
    }
    for (name, text) in manifests {
        for p in validate_manifest(text) {
            problems.push(format!("{name}: {p}"));
        }
    }
    let Some(floor) = min_hit_rate else {
        return problems;
    };
    let Some((name, text)) = gated.and_then(|i| manifests.get(i)) else {
        problems.push("no gated manifest for the cache-hit-rate floor".to_owned());
        return problems;
    };
    match parse_or_null(text)
        .get("cache_hit_rate")
        .and_then(Value::as_f64)
    {
        Some(rate) if rate >= floor => {}
        Some(rate) => problems.push(format!(
            "{name}: cache hit rate {:.1}% below the {:.1}% floor",
            rate * 100.0,
            floor * 100.0
        )),
        None => problems.push(format!("{name}: no cache_hit_rate")),
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepSession;
    use crate::SimConfig;
    use rar_core::Technique;
    use rar_telemetry::WallProfiler;

    fn cell(workload: &str) -> SimConfig {
        SimConfig::builder()
            .workload(workload)
            .technique(Technique::Rar)
            .warmup(200)
            .instructions(1_200)
            .build()
    }

    fn profiled_manifest() -> (String, String) {
        let session = SweepSession::with_profiler(WallProfiler::new()).threads(2);
        let _ = session.run_all(&[cell("mcf")]);
        (
            "manifest.json".to_owned(),
            session.manifest_json("rar-experiments", "0.1.0"),
        )
    }

    #[test]
    fn counter_values_read_out_of_manifests() {
        let (_, text) = profiled_manifest();
        let manifest = jsonv::parse(&text).expect("manifest is JSON");
        assert_eq!(
            counter_value(&manifest, "rar_sweep_cells_simulated_total"),
            Some(1)
        );
        assert!(counter_value(&manifest, "rar_profile_core_sim_nanos_total").is_some_and(|n| n > 0));
        assert_eq!(counter_value(&manifest, "no_such_metric"), None);
    }

    #[test]
    fn dashboard_is_self_contained_html() {
        let (name, manifest) = profiled_manifest();
        let html = render_dashboard(&[(name, manifest)]);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("Self-profile"));
        assert!(html.contains("core_sim"));
        assert!(html.contains("runs_per_second"));
        // Self-contained: no external fetches of any kind.
        for needle in ["http://", "https://", "<script", "<link", "@import"] {
            assert!(!html.contains(needle), "{needle} found in dashboard");
        }
    }

    #[test]
    fn dashboard_renders_stall_breakdown_for_profiled_sweeps() {
        let session = SweepSession::new().stall_profiling(true);
        let _ = session.run_all(&[cell("mcf")]);
        let manifest = session.manifest_json("rar-experiments", "0.1.0");
        let html = render_dashboard(&[("m.json".to_owned(), manifest)]);
        assert!(html.contains("Stall breakdown"), "{html}");
        assert!(html.contains("quiescent_fraction"));
        assert!(html.contains("dram_wait") || html.contains("retiring"));
        // An unprofiled manifest renders no stall section.
        let (name, plain) = profiled_manifest();
        let html = render_dashboard(&[(name, plain)]);
        assert!(!html.contains("Stall breakdown"));
    }

    #[test]
    fn dashboard_escapes_untrusted_file_names() {
        let html = render_dashboard(&[("<img src=x>.json".to_owned(), "{}".to_owned())]);
        assert!(!html.contains("<img"));
        assert!(html.contains("&lt;img"));
    }

    #[test]
    fn gate_passes_a_warm_sweep_and_fails_a_cold_one() {
        let dir = std::env::temp_dir().join(format!("rar-dashboard-gate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let grid = [cell("mcf"), cell("milc")];
        let manifest = || {
            let session = SweepSession::with_disk_cache(&dir);
            let _ = session.run_all(&grid);
            session.manifest_json("rar-experiments", "0.1.0")
        };
        let cold = ("manifest_cold.json".to_owned(), manifest());
        let warm = ("manifest.json".to_owned(), manifest());
        let _ = std::fs::remove_dir_all(&dir);
        let both = [cold, warm];
        assert_eq!(
            check_manifests(&both, Some(1), Some(0.9)),
            Vec::<String>::new()
        );
        let problems = check_manifests(&both, Some(0), Some(0.9));
        assert!(
            problems
                .iter()
                .any(|p| p.starts_with("manifest_cold.json:") && p.contains("hit rate")),
            "{problems:?}"
        );
        // Without a floor both validate; without a gated manifest the
        // floor has nothing to read.
        assert_eq!(check_manifests(&both, None, None), Vec::<String>::new());
        assert!(!check_manifests(&both, None, Some(0.9)).is_empty());
    }

    #[test]
    fn gate_reports_invalid_manifests_with_their_file_name() {
        let (_, manifest) = profiled_manifest();
        let broken = manifest.replace("rar-manifest-v1", "rar-manifest-v0");
        let problems = check_manifests(&[("runs/m.json".to_owned(), broken)], None, None);
        assert!(
            problems.iter().any(|p| p.starts_with("runs/m.json:")),
            "{problems:?}"
        );
        // Having nothing to check is a failure, not a pass.
        assert!(!check_manifests(&[], None, None).is_empty());
    }
}
