//! Repo-local custom lints, run as `cargo xtask lint`.
//!
//! These are cross-file consistency checks the compiler cannot see,
//! implemented as plain source scans so the driver needs no dependencies:
//!
//! 1. **structure-bits** — every `Structure` variant in `rar-ace` has a
//!    Table III per-entry bit width in `bits.rs`.
//! 2. **stat-coverage** — every counter field declared in `CoreStats` /
//!    `MemStats` is actually incremented somewhere in its crate AND
//!    exported by `rar-sim`'s JSON writer. (A counter that is tallied but
//!    never reported — or declared but never tallied — has happened.)
//! 3. **trace-coverage** — every `TraceEvent` variant has a `kind()` tag
//!    and is handled by at least one exporter (chrome/konata/csv/jsonv).
//! 4. **metric-coverage** — every canonical metric name declared in
//!    `rar-telemetry`'s `names.rs` is actually registered by the sweep
//!    engine or the fault-injection campaign runner, both telemetry
//!    exporters (JSON and Prometheus) handle every metric kind — so a
//!    registered metric can never appear in one format and not the
//!    other — and every `CoreStats`/`MemStats` field is published into
//!    the registry by its `record_into`.
//! 5. **inject-target-bits** — every injectable `FaultTarget` variant in
//!    `rar-core` enumerates its per-entry bit width in `per_entry_bits`
//!    (a new injectable structure must never silently default to an
//!    arbitrary width) and appears in `FaultTarget::ALL`.
//! 6. **bit-transfer-coverage** — every `UopKind` variant in `rar-isa`
//!    has an explicit arm in BOTH bit-transfer functions of
//!    `rar-verify` (`src_live_mask` backward, `dest_poison_mask`
//!    forward), neither function hides behind a `_ =>` catch-all (a new
//!    uop kind must force a deliberate bit-semantics decision, or the
//!    analysis silently turns unsound), and the mask geometry agrees
//!    across crates: `MASK_BITS` equals the integer register width and
//!    divides the FP register width, with `ADDR_BITS` defined once.
//! 7. **serve-panic-paths** — the daemon's request-handling sources
//!    (`server.rs`, `http.rs`, `jobs.rs`) contain no `.unwrap()` /
//!    `.expect(` outside `#[cfg(test)]`: a poisoned lock or bad input
//!    must become a typed `HttpError` response, never a panicked
//!    connection or worker thread.
//! 8. **obs-coverage** — the observability surfaces stay complete: every
//!    `Phase` leaf-span name (and the daemon's request/queue/job/cell
//!    levels) is registered in `SPAN_NAMES`, every literal route in the
//!    daemon's `route()` has a matching per-endpoint latency label in
//!    `endpoint_label()` (nothing silently lands in `other`), and every
//!    `StallBucket` variant is named, listed in `ALL`, and rendered by
//!    both the Prometheus (`record_into`) and JSON (`rar-sim json.rs`)
//!    export paths plus the dashboard's stall bars.
//! 9. **chaos-coverage** — the chaos fail-point catalog stays honest:
//!    every site registered in `rar_chaos::sites` is listed in
//!    `sites::ALL`, documented by its dotted name in DESIGN.md, and
//!    exercised (by const name) in at least one integration test.
//! 10. **json-one-reader** — JSON is read and escaped in one place:
//!     outside `rar_trace::jsonv`, non-test sources neither search text
//!     for `"key":` needles nor escape JSON strings by hand (Prometheus
//!     label values, a different format, keep `escape_label_value`).
//! 11. **one-rng** — seeded randomness lives in `rar_isa::rng` alone: no
//!     other source under `crates/`, `src/`, `tests/` or `examples/`,
//!     tests included, carries an xorshift64* or SplitMix64 multiplier,
//!     the FNV-1a prime, or an xorshift shift triple (12/25/27, 13/7/17).
//!
//! Each lint prints `ok`/`FAIL` per rule; any failure exits nonzero so CI
//! can gate on it.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn root() -> PathBuf {
    // crates/xtask -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives two levels below the workspace root")
        .to_path_buf()
}

fn read(rel: &str) -> String {
    let path = root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Extracts the variant names of `pub enum <name>` from `src` by brace
/// tracking: identifiers that open a line at depth 1 inside the enum body.
fn enum_variants(src: &str, name: &str) -> Vec<String> {
    let start = src
        .find(&format!("pub enum {name} {{"))
        .unwrap_or_else(|| panic!("enum {name} not found"));
    let mut depth = 0usize;
    let mut variants = Vec::new();
    for line in src[start..].lines() {
        let trimmed = line.trim();
        if depth == 1
            && trimmed
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_uppercase())
        {
            let ident: String = trimmed
                .chars()
                .take_while(char::is_ascii_alphanumeric)
                .collect();
            if !ident.is_empty() {
                variants.push(ident);
            }
        }
        depth += line.matches('{').count();
        depth = depth.saturating_sub(line.matches('}').count());
        if depth == 0 && line.contains('}') {
            break;
        }
    }
    variants
}

/// Extracts the `pub <field>:` names of `pub struct <name>` from `src`.
fn struct_fields(src: &str, name: &str) -> Vec<String> {
    let start = src
        .find(&format!("pub struct {name} {{"))
        .unwrap_or_else(|| panic!("struct {name} not found"));
    let mut fields = Vec::new();
    for line in src[start..].lines().skip(1) {
        let trimmed = line.trim();
        if trimmed.starts_with('}') {
            break;
        }
        if let Some(rest) = trimmed.strip_prefix("pub ") {
            if let Some(colon) = rest.find(':') {
                fields.push(rest[..colon].trim().to_owned());
            }
        }
    }
    fields
}

/// All `.rs` sources under `rel` (non-recursive is enough: every crate
/// here keeps its sources flat in `src/`).
fn crate_sources(rel: &str) -> String {
    let dir = root().join(rel);
    let mut all = String::new();
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    entries.sort();
    for path in entries {
        all.push_str(&std::fs::read_to_string(&path).expect("readable source"));
        all.push('\n');
    }
    all
}

/// `path` relative to the workspace root, for messages and filters.
fn relative(path: &Path) -> String {
    path.strip_prefix(root())
        .unwrap_or(path)
        .display()
        .to_string()
}

/// Every `.rs` file under `dir`, recursively, sorted.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut dirs = vec![dir.to_path_buf()];
    while let Some(d) = dirs.pop() {
        for entry in std::fs::read_dir(&d).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|x| x == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

struct Lint {
    failures: Vec<String>,
}

impl Lint {
    fn new() -> Self {
        Lint {
            failures: Vec::new(),
        }
    }

    fn check(&mut self, rule: &str, ok: bool, detail: String) {
        if ok {
            println!("  ok   {rule}: {detail}");
        } else {
            println!("  FAIL {rule}: {detail}");
            self.failures.push(format!("{rule}: {detail}"));
        }
    }
}

/// Lint 1: every ACE `Structure` variant has a Table III bit width.
fn lint_structure_bits(lint: &mut Lint) {
    println!("structure-bits");
    let structure = read("crates/rar-ace/src/structure.rs");
    let bits = read("crates/rar-ace/src/bits.rs");
    let variants = enum_variants(&structure, "Structure");
    lint.check(
        "structure-bits",
        variants.len() >= 7,
        format!("{} Structure variants found", variants.len()),
    );
    for v in &variants {
        lint.check(
            "structure-bits",
            bits.contains(&format!("Structure::{v}")),
            format!("Structure::{v} has a per-entry width in bits.rs"),
        );
    }
}

/// Lint 2: every declared stat counter is tallied and exported.
fn lint_stat_coverage(lint: &mut Lint) {
    println!("stat-coverage");
    let json = read("crates/rar-sim/src/json.rs");
    let cases = [
        (
            "CoreStats",
            "crates/rar-core/src/stats.rs",
            "crates/rar-core/src",
        ),
        (
            "MemStats",
            "crates/rar-mem/src/stats.rs",
            "crates/rar-mem/src",
        ),
    ];
    for (name, decl, src_dir) in cases {
        let decl_src = read(decl);
        let crate_src = crate_sources(src_dir);
        for f in struct_fields(&decl_src, name) {
            let tallied =
                crate_src.contains(&format!(".{f} +=")) || crate_src.contains(&format!(".{f} ="));
            lint.check(
                "stat-coverage",
                tallied,
                format!("{name}.{f} is incremented in {src_dir}"),
            );
            lint.check(
                "stat-coverage",
                json.contains(&format!(".{f}")),
                format!("{name}.{f} is exported by rar-sim json.rs"),
            );
        }
    }
}

/// Lint 3: every trace event has a kind tag and an exporter that
/// understands it.
fn lint_trace_coverage(lint: &mut Lint) {
    println!("trace-coverage");
    let event = read("crates/rar-trace/src/event.rs");
    let variants = enum_variants(&event, "TraceEvent");
    lint.check(
        "trace-coverage",
        variants.len() >= 10,
        format!("{} TraceEvent variants found", variants.len()),
    );
    let exporters = [
        "crates/rar-trace/src/chrome.rs",
        "crates/rar-trace/src/konata.rs",
        "crates/rar-trace/src/csv.rs",
        "crates/rar-trace/src/jsonv.rs",
    ];
    let exporter_src: String = exporters.iter().map(|p| read(p)).collect();
    for v in &variants {
        // kind() lives in event.rs itself; a variant missing there would
        // be a compile error, so only the exporter side can silently rot.
        lint.check(
            "trace-coverage",
            exporter_src.contains(&format!("TraceEvent::{v}")),
            format!("TraceEvent::{v} is handled by at least one exporter"),
        );
    }
}

/// Lint 4: the telemetry registry, its canonical names, and both
/// exporters stay consistent.
fn lint_metric_coverage(lint: &mut Lint) {
    println!("metric-coverage");
    let names_src = read("crates/rar-telemetry/src/names.rs");
    let mut metrics = Vec::new();
    for line in names_src.lines() {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("pub const ") {
            if let Some((ident, tail)) = rest.split_once(':') {
                if let Some(value) = tail.split('"').nth(1) {
                    metrics.push((ident.trim().to_owned(), value.to_owned()));
                }
            }
        }
    }
    lint.check(
        "metric-coverage",
        metrics.len() >= 12,
        format!("{} canonical metric names declared", metrics.len()),
    );
    // Every declared name must be registered by a consumer — a
    // declared-but-unregistered metric silently vanishes from manifests
    // and dashboards. Sweep metrics register in rar-sim, campaign
    // metrics in rar-inject, daemon metrics in rar-serve.
    let consumer_src = crate_sources("crates/rar-sim/src")
        + &crate_sources("crates/rar-inject/src")
        + &crate_sources("crates/rar-serve/src");
    for (ident, _) in &metrics {
        lint.check(
            "metric-coverage",
            consumer_src.contains(&format!("names::{ident}")),
            format!("names::{ident} is registered by rar-sim, rar-inject or rar-serve"),
        );
    }
    // Both exporters walk the same sorted registry snapshot, so "appears
    // in both formats" reduces to: each exporter handles every metric
    // kind. Each MetricValue variant must therefore be matched at least
    // twice in export.rs (once per exporter).
    let export_src = read("crates/rar-telemetry/src/export.rs");
    for kind in ["Counter", "Gauge", "Histogram"] {
        let uses = export_src.matches(&format!("MetricValue::{kind}")).count();
        lint.check(
            "metric-coverage",
            uses >= 2,
            format!("MetricValue::{kind} is handled by both exporters ({uses} match arms)"),
        );
    }
    // Every guest-side stat field must be published into the registry.
    for (name, decl) in [
        ("CoreStats", "crates/rar-core/src/stats.rs"),
        ("MemStats", "crates/rar-mem/src/stats.rs"),
    ] {
        let src = read(decl);
        for f in struct_fields(&src, name) {
            lint.check(
                "metric-coverage",
                src.contains(&format!("(\"{f}\", self.{f})")),
                format!("{name}.{f} is published by record_into"),
            );
        }
    }
}

/// Lint 5: every injectable `FaultTarget` enumerates its bit width.
fn lint_inject_target_bits(lint: &mut Lint) {
    println!("inject-target-bits");
    let inject = read("crates/rar-core/src/inject.rs");
    let variants = enum_variants(&inject, "FaultTarget");
    lint.check(
        "inject-target-bits",
        variants.len() >= 10,
        format!("{} FaultTarget variants found", variants.len()),
    );
    // The per_entry_bits body: from the fn to the next fn. A variant
    // absent from the match would be a compile error only if the match
    // had no catch-all; this lint forbids the catch-all from ever being
    // introduced by requiring each variant to appear explicitly.
    let body_start = inject
        .find("pub const fn per_entry_bits")
        .expect("per_entry_bits exists");
    let body = &inject[body_start..];
    let body_end = body[1..].find("pub fn").map_or(body.len(), |i| i + 1);
    let body = &body[..body_end];
    for v in &variants {
        lint.check(
            "inject-target-bits",
            body.contains(&format!("FaultTarget::{v} =>")),
            format!("FaultTarget::{v} enumerates its width in per_entry_bits"),
        );
        lint.check(
            "inject-target-bits",
            inject.matches(&format!("FaultTarget::{v},")).count() >= 1,
            format!("FaultTarget::{v} is listed in FaultTarget::ALL"),
        );
    }
}

/// Extracts the body of `pub const fn <name>` from `src`: everything
/// from the declaration to the next function declaration (or the test
/// module, so the last function in a file isn't scanned past its end).
fn const_fn_body<'a>(src: &'a str, name: &str) -> &'a str {
    let decl = format!("pub const fn {name}");
    let start = src
        .find(&decl)
        .unwrap_or_else(|| panic!("{decl} not found"));
    let rest = &src[start + decl.len()..];
    let end = ["pub const fn", "pub fn", "#[cfg(test)]"]
        .iter()
        .filter_map(|p| rest.find(p))
        .min()
        .unwrap_or(rest.len());
    &rest[..end]
}

/// Parses the numeric value of `pub const <name>: u64 = N;` from `src`.
fn const_u64(src: &str, name: &str) -> u64 {
    let pat = format!("pub const {name}: u64 = ");
    let start = src.find(&pat).unwrap_or_else(|| panic!("{name} not found")) + pat.len();
    src[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("numeric const")
}

/// Lint 6: the per-bit transfer functions cover every uop kind
/// explicitly, and the mask geometry is consistent across crates.
fn lint_bit_transfer_coverage(lint: &mut Lint) {
    println!("bit-transfer-coverage");
    let uop = read("crates/rar-isa/src/uop.rs");
    let transfer = read("crates/rar-verify/src/transfer.rs");
    let variants = enum_variants(&uop, "UopKind");
    lint.check(
        "bit-transfer-coverage",
        variants.len() >= 10,
        format!("{} UopKind variants found", variants.len()),
    );
    for f in ["src_live_mask", "dest_poison_mask"] {
        let body = const_fn_body(&transfer, f);
        for v in &variants {
            lint.check(
                "bit-transfer-coverage",
                body.contains(&format!("UopKind::{v} =>")),
                format!("UopKind::{v} has an explicit arm in {f}"),
            );
        }
        lint.check(
            "bit-transfer-coverage",
            !body.contains("_ =>"),
            format!("{f} has no catch-all arm"),
        );
    }
    // Mask geometry: one 64-bit mask per physical register, FP registers
    // folded (mask bit i covers register bits i and i+64). MASK_BITS must
    // therefore equal the integer register width and divide the FP one.
    let bits = read("crates/rar-ace/src/bits.rs");
    let mask_bits = const_u64(&transfer, "MASK_BITS");
    let int_bits = const_u64(&bits, "INT_REG_BITS");
    let fp_bits = const_u64(&bits, "FP_REG_BITS");
    lint.check(
        "bit-transfer-coverage",
        mask_bits == int_bits,
        format!("MASK_BITS ({mask_bits}) equals INT_REG_BITS ({int_bits})"),
    );
    lint.check(
        "bit-transfer-coverage",
        mask_bits > 0 && fp_bits.is_multiple_of(mask_bits),
        format!("FP_REG_BITS ({fp_bits}) is a multiple of MASK_BITS ({mask_bits})"),
    );
    // The address width must have a single definition: transfer.rs
    // imports it from the word-level refinement instead of shadowing it.
    lint.check(
        "bit-transfer-coverage",
        transfer.contains("use crate::liveness::ADDR_BITS"),
        "transfer.rs imports ADDR_BITS from liveness.rs".to_owned(),
    );
    lint.check(
        "bit-transfer-coverage",
        !transfer.contains("const ADDR_BITS"),
        "transfer.rs does not redefine ADDR_BITS".to_owned(),
    );
}

/// Lint 7: daemon request paths never panic — poisoned locks and bad
/// input become typed `HttpError` responses.
fn lint_serve_panic_paths(lint: &mut Lint) {
    println!("serve-panic-paths");
    let http = read("crates/rar-serve/src/http.rs");
    lint.check(
        "serve-panic-paths",
        http.contains("pub enum HttpError"),
        "http.rs defines the typed HttpError".to_owned(),
    );
    for file in ["server.rs", "http.rs", "jobs.rs"] {
        let src = read(&format!("crates/rar-serve/src/{file}"));
        // Only the non-test portion is request-path code; every one of
        // these files keeps its test module last.
        let live = src.split("#[cfg(test)]").next().unwrap_or("");
        for pat in [".unwrap()", ".expect("] {
            let hits = live.matches(pat).count();
            lint.check(
                "serve-panic-paths",
                hits == 0,
                format!("{file} has no {pat} outside tests ({hits} found)"),
            );
        }
    }
    let server = read("crates/rar-serve/src/server.rs");
    lint.check(
        "serve-panic-paths",
        server.contains("respond_error(") && server.contains("lock("),
        "server.rs routes lock failures through respond_error".to_owned(),
    );
}

/// Lint 8: the observability surfaces stay complete — every profiled
/// phase has a registered span name, every daemon route has a latency
/// endpoint label, and every stall bucket reaches all three views: the
/// registry (Prometheus and the manifest), the per-cell JSON export and
/// the dashboard's stall bars.
fn lint_obs_coverage(lint: &mut Lint) {
    println!("obs-coverage");
    // Every Phase leaf-span name must be registered in SPAN_NAMES, or
    // the daemon records spans no trace consumer knows to look for.
    let profile = read("crates/rar-telemetry/src/profile.rs");
    let span = read("crates/rar-telemetry/src/span.rs");
    let phase_names: Vec<&str> = profile
        .lines()
        .filter(|l| l.trim_start().starts_with("Phase::"))
        .filter_map(|l| l.split('"').nth(1))
        .collect();
    lint.check(
        "obs-coverage",
        phase_names.len() >= 6,
        format!("{} Phase leaf-span names found", phase_names.len()),
    );
    for name in &phase_names {
        lint.check(
            "obs-coverage",
            span.contains(&format!("\"{name}\"")),
            format!("phase {name} is registered in SPAN_NAMES"),
        );
    }
    for name in ["request", "queue_wait", "job", "cell"] {
        lint.check(
            "obs-coverage",
            span.contains(&format!("\"{name}\"")),
            format!("daemon level {name} is registered in SPAN_NAMES"),
        );
    }
    // Every route the daemon serves must map to a latency-endpoint label:
    // each literal route pattern in `route()` must reappear in
    // `endpoint_label()`, so no endpoint silently falls into "other".
    let server = read("crates/rar-serve/src/server.rs");
    let label_start = server
        .find("fn endpoint_label")
        .expect("endpoint_label exists");
    let route_start = server[label_start..]
        .find("fn route")
        .expect("route exists")
        + label_start;
    let label_body = &server[label_start..route_start];
    let routes: Vec<&str> = server[route_start..]
        .lines()
        .take_while(|l| !l.trim_start().starts_with("_ =>"))
        .map(str::trim_start)
        .filter(|l| l.starts_with("(\""))
        .filter_map(|l| l.split(" =>").next())
        .collect();
    lint.check(
        "obs-coverage",
        routes.len() >= 8,
        format!("{} literal routes found in route()", routes.len()),
    );
    for r in &routes {
        // Route patterns bind path segments by name (`id`, `index`); the
        // label arms wildcard them. Normalize bindings to `_` to compare.
        let normalized = r
            .replace(", id,", ", _,")
            .replace(", id]", ", _]")
            .replace(", index]", ", _]");
        lint.check(
            "obs-coverage",
            label_body.contains(&normalized),
            format!("route {r} has an endpoint label"),
        );
    }
    // Every stall bucket must reach all three views. Each renders by
    // iterating StallBucket::ALL, so the checks are: no variant is
    // missing from name()/ALL, and all three render paths iterate ALL.
    let stall = read("crates/rar-core/src/stall.rs");
    let variants = enum_variants(&stall, "StallBucket");
    lint.check(
        "obs-coverage",
        variants.len() >= 9,
        format!("{} StallBucket variants found", variants.len()),
    );
    for v in &variants {
        lint.check(
            "obs-coverage",
            stall.contains(&format!("StallBucket::{v} =>")),
            format!("StallBucket::{v} has a name() arm"),
        );
        lint.check(
            "obs-coverage",
            stall.contains(&format!("StallBucket::{v},")),
            format!("StallBucket::{v} is listed in StallBucket::ALL"),
        );
    }
    let json = read("crates/rar-sim/src/json.rs");
    let dashboard = read("crates/rar-sim/src/dashboard.rs");
    lint.check(
        "obs-coverage",
        stall
            .split("pub fn record_into")
            .nth(1)
            .is_some_and(|body| body.contains("StallBucket::ALL")),
        "record_into iterates StallBucket::ALL (Prometheus and manifest export)".to_owned(),
    );
    lint.check(
        "obs-coverage",
        json.contains("StallBucket::ALL"),
        "rar-sim json.rs iterates StallBucket::ALL (JSON export)".to_owned(),
    );
    lint.check(
        "obs-coverage",
        dashboard
            .split("#[cfg(test)]")
            .next()
            .is_some_and(|live| live.contains("StallBucket::ALL")),
        "rar-sim dashboard.rs iterates StallBucket::ALL (stall bars)".to_owned(),
    );
}

/// Lint 9: the chaos fail-point catalog stays honest — every site
/// registered in `rar_chaos::sites` is listed in `sites::ALL`,
/// documented by its dotted name in DESIGN.md, and exercised (by const
/// name) in at least one integration test. A fail-point nobody can look
/// up or that no test fires is dead weight pretending to be coverage.
fn lint_chaos_coverage(lint: &mut Lint) {
    println!("chaos-coverage");
    let failpoint = read("crates/rar-chaos/src/failpoint.rs");
    let module = failpoint
        .split("pub mod sites")
        .nth(1)
        .and_then(|rest| rest.split("\n}").next())
        .unwrap_or("");
    // (const ident, dotted site name) pairs; ALL itself is `[&str; N]`
    // so the `: &str =` filter skips it.
    let sites: Vec<(&str, &str)> = module
        .lines()
        .map(str::trim_start)
        .filter(|l| l.starts_with("pub const ") && l.contains(": &str = \""))
        .filter_map(|l| {
            let ident = l.strip_prefix("pub const ")?.split(':').next()?;
            let name = l.split('"').nth(1)?;
            Some((ident, name))
        })
        .collect();
    // The scan must find exactly the consts `ALL` lists: a broken scan
    // (nothing found, or a site missed) fails here, and so does a site
    // left out of `ALL`.
    let mut listed: Vec<&str> = module
        .split("pub const ALL")
        .nth(1)
        .and_then(|rest| rest.split_once("= [")?.1.split(']').next())
        .unwrap_or("")
        .split(',')
        .map(str::trim)
        .filter(|ident| !ident.is_empty())
        .collect();
    listed.sort_unstable();
    let mut found: Vec<&str> = sites.iter().map(|(ident, _)| *ident).collect();
    found.sort_unstable();
    lint.check(
        "chaos-coverage",
        !found.is_empty() && found == listed,
        format!("the scan finds {found:?}; sites::ALL lists {listed:?}"),
    );
    let design = read("DESIGN.md");
    let mut tests = String::new();
    if let Ok(crates) = std::fs::read_dir(root().join("crates")) {
        for krate in crates.flatten() {
            if let Ok(files) = std::fs::read_dir(krate.path().join("tests")) {
                for file in files.flatten() {
                    if file.path().extension().is_some_and(|e| e == "rs") {
                        tests.push_str(&std::fs::read_to_string(file.path()).unwrap_or_default());
                    }
                }
            }
        }
    }
    for (ident, name) in &sites {
        lint.check(
            "chaos-coverage",
            design.contains(name),
            format!("site {name} is documented in DESIGN.md"),
        );
        lint.check(
            "chaos-coverage",
            tests.contains(ident),
            format!("site {ident} is exercised by an integration test"),
        );
    }
}

/// Lint 10: one JSON reader and one JSON string escaper. A search for a
/// literal quoted key, or for a needle built as `"\"{key}\":"`, is the
/// signature of a hand-rolled field scanner; writing a backslash-quote
/// pair is what a string escaper does. Both belong in `jsonv` alone.
fn lint_json_one_reader(lint: &mut Lint) {
    println!("json-one-reader");
    let mut scanners: Vec<String> = [".find(", ".rfind(", ".contains(", ".split(", ".matches("]
        .iter()
        .flat_map(|call| [format!(r#"{call}"\""#), format!(r#"{call}&format!("\""#)])
        .collect();
    scanners.push(r#"}\":")"#.to_owned());
    let escaper = r#""\\\"""#;
    let mut scanned = 0;
    let mut offenders = Vec::new();
    for path in rust_files(&root().join("crates")) {
        let rel = relative(&path);
        if !rel.contains("/src/")
            || rel.starts_with("crates/xtask/")
            || rel.ends_with("rar-trace/src/jsonv.rs")
        {
            continue;
        }
        scanned += 1;
        let src = std::fs::read_to_string(&path).expect("readable source");
        // Test modules come last in every source file; comments (doc
        // tests included) are not code that runs.
        let live: String = src
            .split("#[cfg(test)]")
            .next()
            .unwrap_or("")
            .lines()
            .filter(|line| !line.trim_start().starts_with("//"))
            .collect::<Vec<_>>()
            .join("\n");
        for pat in &scanners {
            if live.contains(pat.as_str()) {
                offenders.push(format!("{rel}: key scan `{pat}`"));
            }
        }
        for (at, _) in live.match_indices(escaper) {
            let func = live[..at]
                .rsplit("fn ")
                .next()
                .and_then(|rest| rest.split(['(', '<']).next())
                .unwrap_or("");
            if func != "escape_label_value" {
                offenders.push(format!("{rel}: JSON string escaper in fn {func}"));
            }
        }
    }
    lint.check(
        "json-one-reader",
        scanned >= 50,
        format!("{scanned} non-test sources outside jsonv scanned"),
    );
    lint.check(
        "json-one-reader",
        offenders.is_empty(),
        format!("no JSON key scanners or string escapers outside rar_trace::jsonv {offenders:?}"),
    );
}

/// Lint 11: one seeded-randomness module. A hand-rolled generator shows
/// itself by a constant or by three `^=` shift steps on consecutive lines.
fn lint_one_rng(lint: &mut Lint) {
    println!("one-rng");
    // The xorshift64* and SplitMix64 multipliers, and the FNV prime's
    // tail, which also catches the prime typed with a zero too many.
    const CONSTANTS: [&str; 4] = [
        "2545f4914f6cdd1d",
        "bf58476d1ce4e5b9",
        "94d049bb133111eb",
        "00000001b3",
    ];
    // xorshift64* and xorshift64.
    const TRIPLES: [[(&str, u32); 3]; 2] = [
        [(">>", 12), ("<<", 25), (">>", 27)],
        [("<<", 13), (">>", 7), ("<<", 17)],
    ];
    let mut scanned = 0;
    let mut copies = Vec::new();
    for path in ["crates", "src", "tests", "examples"]
        .iter()
        .flat_map(|dir| rust_files(&root().join(dir)))
    {
        let rel = relative(&path);
        if rel.starts_with("crates/xtask/") || rel == "crates/rar-isa/src/rng.rs" {
            continue;
        }
        scanned += 1;
        let src = std::fs::read_to_string(&path).expect("readable source");
        let mut steps = Vec::new();
        for (i, line) in src.lines().enumerate() {
            let norm = line.to_ascii_lowercase().replace('_', "");
            if let Some(c) = CONSTANTS.iter().find(|c| norm.contains(*c)) {
                copies.push(format!("{rel}:{}: constant {c}", i + 1));
            }
            match xorshift_step(line) {
                Some(step) => steps.push(step),
                None => steps.clear(),
            }
            if TRIPLES.iter().any(|triple| steps.ends_with(triple)) {
                copies.push(format!("{rel}:{}: xorshift shift triple", i - 1));
            }
        }
    }
    lint.check(
        "one-rng",
        scanned >= 100,
        format!("{scanned} sources outside rar_isa::rng scanned"),
    );
    lint.check(
        "one-rng",
        copies.is_empty(),
        format!("no PRNG, mixer or FNV-1a copies outside rar_isa::rng {copies:?}"),
    );
}

/// The `(operator, amount)` of an xorshift step such as `x ^= x << 13;`.
fn xorshift_step(line: &str) -> Option<(&str, u32)> {
    let rhs = line.split_once("^=")?.1;
    let op = ["<<", ">>"].into_iter().find(|op| rhs.contains(op))?;
    let amount = rhs.split(op).nth(1)?.trim().trim_end_matches(';');
    Some((op, amount.trim().parse().ok()?))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let mut lint = Lint::new();
            lint_structure_bits(&mut lint);
            lint_stat_coverage(&mut lint);
            lint_trace_coverage(&mut lint);
            lint_metric_coverage(&mut lint);
            lint_inject_target_bits(&mut lint);
            lint_bit_transfer_coverage(&mut lint);
            lint_serve_panic_paths(&mut lint);
            lint_obs_coverage(&mut lint);
            lint_chaos_coverage(&mut lint);
            lint_json_one_reader(&mut lint);
            lint_one_rng(&mut lint);
            if lint.failures.is_empty() {
                println!("xtask lint: all checks passed");
                ExitCode::SUCCESS
            } else {
                println!("xtask lint: {} failure(s)", lint.failures.len());
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!("usage: cargo xtask lint");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enum_variant_extraction_handles_struct_variants() {
        let src = "pub enum TraceEvent {\n    /// doc\n    UopDispatched {\n        seq: u64,\n    },\n    Sample(SampleRow),\n}\n";
        assert_eq!(
            enum_variants(src, "TraceEvent"),
            vec!["UopDispatched", "Sample"]
        );
    }

    #[test]
    fn struct_field_extraction_skips_private_and_docs() {
        let src = "pub struct CoreStats {\n    /// Elapsed cycles.\n    pub cycles: u64,\n    hidden: u64,\n    pub committed: u64,\n}\n";
        assert_eq!(struct_fields(src, "CoreStats"), vec!["cycles", "committed"]);
    }

    #[test]
    fn repo_lints_pass() {
        let mut lint = Lint::new();
        lint_structure_bits(&mut lint);
        lint_stat_coverage(&mut lint);
        lint_trace_coverage(&mut lint);
        lint_metric_coverage(&mut lint);
        lint_inject_target_bits(&mut lint);
        lint_bit_transfer_coverage(&mut lint);
        lint_serve_panic_paths(&mut lint);
        lint_obs_coverage(&mut lint);
        lint_chaos_coverage(&mut lint);
        lint_json_one_reader(&mut lint);
        lint_one_rng(&mut lint);
        assert!(lint.failures.is_empty(), "{:?}", lint.failures);
    }

    #[test]
    fn const_fn_body_stops_at_the_next_function() {
        let src = "pub const fn first(x: u64) -> u64 {\n    match x { _ => 1 }\n}\n\npub const fn second(x: u64) -> u64 {\n    x\n}\n\n#[cfg(test)]\nmod tests {\n    fn helper() -> u64 { match 0 { _ => 2 } }\n}\n";
        let body = const_fn_body(src, "first");
        assert!(body.contains("match x"));
        assert!(!body.contains("second"));
        let last = const_fn_body(src, "second");
        assert!(last.contains('x'));
        assert!(!last.contains("helper"), "must stop at the test module");
    }

    #[test]
    fn const_u64_parses_declared_values() {
        let src = "pub const MASK_BITS: u64 = 64;\npub const OTHER: u64 = 128;\n";
        assert_eq!(const_u64(src, "MASK_BITS"), 64);
        assert_eq!(const_u64(src, "OTHER"), 128);
    }
}
