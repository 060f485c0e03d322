//! The sweep dashboard and the CI perf gate behind
//! `rar-experiments report`.
//!
//! Consumes the artifacts a sweep leaves behind — run manifests
//! ([`SweepSession::manifest_json`](crate::SweepSession::manifest_json))
//! and `BENCH_*.json` throughput reports
//! ([`bench_json_from`](crate::sweep::bench_json_from)) — and renders one
//! self-contained HTML page: no external scripts, stylesheets or fonts,
//! so the file can be archived as a CI artifact and opened anywhere. Bars
//! are plain styled `<div>`s.
//!
//! The same inputs drive [`check_bench`], the regression gate CI runs
//! with `report --check`: manifests must validate against the schema, the
//! gated bench must meet the cache-hit-rate floor (a warm CI sweep
//! replays ≥90% of its cells), and throughput must not regress past the
//! allowed slowdown versus a baseline bench.

use rar_core::StallBucket;
use rar_telemetry::{validate_manifest, Phase};
use rar_trace::jsonv::{self, Value};
use std::fmt::Write as _;

/// Reads the value of counter `name` out of a telemetry JSON export, or
/// out of a manifest embedding one under `"telemetry"`
/// (`"metrics": {"<name>": {"kind": "counter", "value": N}}`).
fn counter_value(doc: &Value<'_>, name: &str) -> Option<u64> {
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

/// One labeled horizontal bar (`share` in 0..=1).
fn bar(out: &mut String, label: &str, text: &str, share: f64) {
    let pct = (share.clamp(0.0, 1.0) * 100.0).round();
    let _ = writeln!(
        out,
        "<div class=\"row\"><span class=\"lbl\">{}</span>\
         <span class=\"track\"><span class=\"fill\" style=\"width:{pct}%\"></span></span>\
         <span class=\"val\">{}</span></div>",
        esc(label),
        esc(text),
    );
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
    let stall_rows: Vec<(&str, u64)> = StallBucket::ALL
        .iter()
        .filter_map(|b| {
            let cycles = counter_value(&doc, &format!("rar_stall_{}_cycles_total", b.name()))?;
            Some((b.name(), cycles))
        })
        .collect();
    let stall_total: u64 = stall_rows.iter().map(|(_, n)| n).sum();
    if stall_total > 0 {
        let _ = writeln!(out, "<h3>Stall breakdown (guest cycles by cause)</h3>");
        let mut sorted = stall_rows;
        sorted.sort_by_key(|&(_, cycles)| std::cmp::Reverse(cycles));
        for (bucket, cycles) in sorted {
            bar(
                out,
                bucket,
                &format!(
                    "{cycles} ({:.1}%)",
                    cycles as f64 / stall_total as f64 * 100.0
                ),
                cycles as f64 / stall_total as f64,
            );
        }
    }

    // Self-profile bars: where the host wall-clock went, by phase. Only
    // rendered when the run was profiled (the counters exist).
    let phases: Vec<(&str, u64)> = Phase::ALL
        .iter()
        .filter_map(|p| {
            let nanos = counter_value(&doc, &format!("rar_profile_{}_nanos_total", p.name()))?;
            Some((p.name(), nanos))
        })
        .collect();
    let total: u64 = phases.iter().map(|(_, n)| n).sum();
    if total > 0 {
        let _ = writeln!(out, "<h3>Self-profile (host wall-clock by phase)</h3>");
        let mut sorted = phases;
        sorted.sort_by_key(|&(_, nanos)| std::cmp::Reverse(nanos));
        for (phase, nanos) in sorted {
            bar(
                out,
                phase,
                &format!(
                    "{} ({:.1}%)",
                    human_nanos(nanos),
                    nanos as f64 / total as f64 * 100.0
                ),
                nanos as f64 / total as f64,
            );
        }
    } else {
        let _ = writeln!(
            out,
            "<p class=\"meta\">not profiled (run with --profile for phase timings)</p>"
        );
    }
    let _ = writeln!(out, "</section>");
}

/// Renders the `BENCH_*.json` comparison table.
fn bench_section(out: &mut String, benches: &[(String, String)]) {
    let _ = writeln!(out, "<section><h2>Throughput reports</h2><table>");
    let _ = writeln!(
        out,
        "<tr><th>file</th><th>completed</th><th>simulated</th><th>cached</th>\
         <th>hit rate</th><th>runs/s</th><th>wall</th><th>threads</th></tr>"
    );
    for (name, text) in benches {
        let doc = parse_or_null(text);
        let u = |key: &str| doc.get(key).and_then(Value::as_u64).unwrap_or(0);
        let f = |key: &str| doc.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        let _ = writeln!(
            out,
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
             <td>{:.0}%</td><td>{:.1}</td><td>{:.2}s</td><td>{}</td></tr>",
            esc(name),
            u("completed"),
            u("simulated"),
            u("cache_hits"),
            f("cache_hit_rate") * 100.0,
            f("runs_per_second"),
            f("wall_seconds"),
            u("threads"),
        );
    }
    let _ = writeln!(out, "</table></section>");
}

/// Renders the self-contained HTML dashboard from `(filename, contents)`
/// pairs of manifests and bench reports.
#[must_use]
pub fn render_dashboard(manifests: &[(String, String)], benches: &[(String, String)]) -> String {
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
    if manifests.is_empty() && benches.is_empty() {
        out.push_str("<p class=\"meta\">no manifests or bench reports found</p>\n");
    }
    for (name, text) in manifests {
        manifest_section(&mut out, name, text);
    }
    if !benches.is_empty() {
        bench_section(&mut out, benches);
    }
    out.push_str("</body></html>\n");
    out
}

/// Default allowed throughput slowdown versus the baseline (fraction).
/// Generous on purpose: CI machines are noisy, and the gate exists to
/// catch order-of-magnitude regressions (a lost cache, accidental
/// serialization), not 5% jitter.
pub const DEFAULT_MAX_SLOWDOWN: f64 = 0.5;

/// The CI gate. Returns the list of failures (empty ⇒ pass):
///
/// * every manifest must satisfy [`validate_manifest`];
/// * if `min_hit_rate` is set, the gated bench's `cache_hit_rate` must
///   meet it (a warm sweep replays from the cache);
/// * if `baseline` is given, the gated bench's `runs_per_second` must not
///   fall below `baseline × (1 − max_slowdown)`.
#[must_use]
pub fn check_bench(
    manifests: &[(String, String)],
    bench: Option<&str>,
    baseline: Option<&str>,
    min_hit_rate: Option<f64>,
    max_slowdown: f64,
) -> Vec<String> {
    let mut problems = Vec::new();
    for (name, text) in manifests {
        for p in validate_manifest(text) {
            problems.push(format!("{name}: {p}"));
        }
    }
    let Some(bench) = bench else {
        if min_hit_rate.is_some() || baseline.is_some() {
            problems.push("no bench report to gate on".to_owned());
        }
        return problems;
    };
    let bench = match jsonv::parse(bench) {
        Ok(doc) => doc,
        Err(e) => {
            problems.push(format!("bench report is not valid JSON: {e}"));
            return problems;
        }
    };
    let runs_per_second = |doc: &Value<'_>| {
        doc.get("runs_per_second")
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    if bench.get("schema").is_none() {
        problems.push("bench report has no schema tag".to_owned());
    }
    if let Some(floor) = min_hit_rate {
        match bench.get("cache_hit_rate").and_then(Value::as_f64) {
            Some(rate) if rate >= floor => {}
            Some(rate) => problems.push(format!(
                "cache hit rate {:.1}% below the {:.1}% floor",
                rate * 100.0,
                floor * 100.0
            )),
            None => problems.push("bench report has no cache_hit_rate".to_owned()),
        }
    }
    if let Some(base) = baseline {
        let current = runs_per_second(&bench);
        let reference = runs_per_second(&parse_or_null(base));
        let floor = reference * (1.0 - max_slowdown.clamp(0.0, 1.0));
        if reference > 0.0 && current < floor {
            problems.push(format!(
                "throughput regression: {current:.1} runs/s vs baseline {reference:.1} \
                 (floor {floor:.1} at {:.0}% allowed slowdown)",
                max_slowdown * 100.0
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{bench_json_from, SweepSession, SweepStats};
    use crate::SimConfig;
    use rar_core::Technique;

    fn sample_stats(rps_wall: f64, hits: u64, simulated: u64) -> SweepStats {
        SweepStats {
            simulated,
            cache_hits: hits,
            rejected: 0,
            failed: 0,
            trace_memo_hits: 0,
            trace_memo_misses: simulated.min(1),
            refinement_memo_hits: 0,
            refinement_memo_misses: simulated.min(1),
            wall_seconds: rps_wall,
            threads: 2,
        }
    }

    fn profiled_manifest() -> (String, String) {
        let session = SweepSession::new().threads(2).into_profiled();
        let cfg = SimConfig::builder()
            .workload("mcf")
            .technique(Technique::Rar)
            .warmup(200)
            .instructions(1_200)
            .build();
        let _ = session.run_all(std::slice::from_ref(&cfg));
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
        let bench = (
            "BENCH_sweep.json".to_owned(),
            bench_json_from(&sample_stats(2.0, 18, 2)),
        );
        let html = render_dashboard(&[(name, manifest)], &[bench]);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("Self-profile"));
        assert!(html.contains("core_sim"));
        assert!(html.contains("BENCH_sweep.json"));
        // Self-contained: no external fetches of any kind.
        for needle in ["http://", "https://", "<script", "<link", "@import"] {
            assert!(!html.contains(needle), "{needle} found in dashboard");
        }
    }

    #[test]
    fn dashboard_renders_stall_breakdown_for_profiled_sweeps() {
        let session = SweepSession::new().stall_profiling(true);
        let cfg = SimConfig::builder()
            .workload("mcf")
            .technique(Technique::Rar)
            .warmup(200)
            .instructions(1_200)
            .build();
        let _ = session.run_all(std::slice::from_ref(&cfg));
        let manifest = session.manifest_json("rar-experiments", "0.1.0");
        let html = render_dashboard(&[("m.json".to_owned(), manifest)], &[]);
        assert!(html.contains("Stall breakdown"), "{html}");
        assert!(html.contains("quiescent_fraction"));
        assert!(html.contains("dram_wait") || html.contains("retiring"));
        // An unprofiled manifest renders no stall section.
        let (name, plain) = profiled_manifest();
        let html = render_dashboard(&[(name, plain)], &[]);
        assert!(!html.contains("Stall breakdown"));
    }

    #[test]
    fn dashboard_escapes_untrusted_file_names() {
        let html = render_dashboard(&[("<img src=x>.json".to_owned(), "{}".to_owned())], &[]);
        assert!(!html.contains("<img"));
        assert!(html.contains("&lt;img"));
    }

    #[test]
    fn gate_passes_a_warm_sweep_and_fails_a_cold_one() {
        let warm = bench_json_from(&sample_stats(1.0, 19, 1));
        let cold = bench_json_from(&sample_stats(1.0, 0, 20));
        assert_eq!(
            check_bench(&[], Some(&warm), None, Some(0.9), DEFAULT_MAX_SLOWDOWN),
            Vec::<String>::new()
        );
        let problems = check_bench(&[], Some(&cold), None, Some(0.9), DEFAULT_MAX_SLOWDOWN);
        assert!(
            problems.iter().any(|p| p.contains("hit rate")),
            "{problems:?}"
        );
    }

    #[test]
    fn gate_catches_throughput_regressions_only_past_the_floor() {
        let fast = bench_json_from(&sample_stats(1.0, 0, 100)); // 100 runs/s
        let ok = bench_json_from(&sample_stats(1.0, 0, 60)); // 60 >= 50
        let slow = bench_json_from(&sample_stats(1.0, 0, 40)); // 40 < 50
        assert_eq!(
            check_bench(&[], Some(&ok), Some(&fast), None, DEFAULT_MAX_SLOWDOWN),
            Vec::<String>::new()
        );
        let problems = check_bench(&[], Some(&slow), Some(&fast), None, DEFAULT_MAX_SLOWDOWN);
        assert!(
            problems.iter().any(|p| p.contains("regression")),
            "{problems:?}"
        );
    }

    #[test]
    fn gate_reports_invalid_manifests_with_their_file_name() {
        let (_, manifest) = profiled_manifest();
        let broken = manifest.replace("rar-manifest-v1", "rar-manifest-v0");
        let problems = check_bench(
            &[("runs/m.json".to_owned(), broken)],
            None,
            None,
            None,
            DEFAULT_MAX_SLOWDOWN,
        );
        assert!(
            problems.iter().any(|p| p.starts_with("runs/m.json:")),
            "{problems:?}"
        );
    }
}
