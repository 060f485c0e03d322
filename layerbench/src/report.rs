//! Running one workload end to end, and everything written about it:
//! the printed metrics, the one-line result, the JSON report, the
//! traced run's `trace.json` and `layers.json`, goldens, and `compare`.

use crate::json::{self, Json};
use crate::layered::HIST_BUCKETS;
use crate::spec::{self, Workload, END_TO_END, PER_LAYER};
use crate::stats::{relative, Estimate, Summary};
use crate::workloads::{self, Check, Measured, RunConfig, Traced};
use rar_telemetry::{Span, SpanLog};
use rar_trace::chrome::{spans_to_chrome_json, SpanSlice};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The seed the goldens describe.
pub const DEFAULT_SEED: u64 = 1;

/// `<workload> <digest>` lines for the default seed at full scale.
const GOLDEN: &str = include_str!("../golden/digests.txt");

/// Where `--bless` writes the goldens.
#[must_use]
pub fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/digests.txt")
}

fn parse_golden(text: &str, w: Workload) -> Option<u64> {
    text.lines().find_map(|line| {
        let (name, hex) = line.split_once(' ')?;
        (name == w.name())
            .then(|| u64::from_str_radix(hex.trim(), 16).ok())
            .flatten()
    })
}

/// Rewrites `w`'s golden digest in [`golden_path`].
///
/// # Errors
///
/// The golden file cannot be read or written.
pub fn bless(w: Workload, digest: u64) -> std::io::Result<()> {
    let path = golden_path();
    let old = std::fs::read_to_string(&path)?;
    let mut lines: BTreeMap<String, String> = old
        .lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(n, d)| (n.to_owned(), d.trim().to_owned()))
        .collect();
    lines.insert(w.name().to_owned(), format!("{digest:016x}"));
    let text: String = Workload::ALL
        .iter()
        .filter_map(|w| lines.get(w.name()).map(|d| format!("{} {d}\n", w.name())))
        .collect();
    std::fs::write(path, text)
}

/// How a run's digest compared with its golden.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Golden {
    /// Equal to the committed golden.
    Match,
    /// Different from the committed golden.
    Mismatch,
    /// No golden applies (another seed or a test-size run); passes were
    /// still checked against each other and against direct runs.
    NotApplicable,
    /// Written to the golden file (`--bless`).
    Blessed,
}

impl Golden {
    fn name(self) -> &'static str {
        match self {
            Golden::Match => "match",
            Golden::Mismatch => "mismatch",
            Golden::NotApplicable => "n/a",
            Golden::Blessed => "blessed",
        }
    }
}

/// One metric's measured value.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported value and the samples behind it.
    pub estimate: Estimate,
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Accounting and output checks.
    pub check: Check,
    /// Digest against golden.
    pub golden: Golden,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub values: Vec<Value>,
    /// One-minute load average at start and end.
    pub loadavg: [f64; 2],
    /// `layers.json` (traced runs).
    pub layers_json: Option<String>,
    /// `trace.json` (traced runs).
    pub trace_json: Option<String>,
}

/// Runs `w` once: untraced for the end-to-end metrics, or traced for the
/// per-layer ones; then checks the digest against the golden (or blesses
/// it).
#[must_use]
pub fn run(w: Workload, rc: &RunConfig, traced: bool, bless_golden: bool) -> Outcome {
    let load_start = loadavg();
    let (mut check, values, layers_json, trace_json) = if traced {
        let log = SpanLog::new();
        let t = workloads::trace(w, rc, &log);
        let spans = log.snapshot();
        let values = PER_LAYER
            .iter()
            .map(|m| Value {
                name: m.name,
                unit: m.unit,
                estimate: Estimate::median_of(&[t.metrics.get(m.name).copied().unwrap_or(0.0)]),
            })
            .collect();
        let layers = layers_json(w, rc.seed, &t, &spans, log.dropped());
        (t.check, values, Some(layers), Some(trace_json(&spans)))
    } else {
        let m = workloads::measure(w, rc);
        let values = end_to_end_values(&m, peak_rss_mb());
        (m.check, values, None, None)
    };
    let golden = match check.digest {
        Some(d) if bless_golden => match bless(w, d) {
            Ok(()) => Golden::Blessed,
            Err(e) => {
                check.fail(1, || {
                    format!("cannot bless {}: {e}", golden_path().display())
                });
                Golden::Mismatch
            }
        },
        Some(d) if rc.scale.golden && rc.seed == DEFAULT_SEED => {
            let expected = parse_golden(GOLDEN, w);
            if expected == Some(d) {
                Golden::Match
            } else {
                check.fail(1, || match expected {
                    Some(e) => format!("digest {d:016x} differs from golden {e:016x}"),
                    None => "no golden digest committed (run with --bless)".to_owned(),
                });
                Golden::Mismatch
            }
        }
        _ => Golden::NotApplicable,
    };
    Outcome {
        workload: w,
        seed: rc.seed,
        traced,
        check,
        golden,
        values,
        loadavg: [load_start, loadavg()],
        layers_json,
        trace_json,
    }
}

fn end_to_end_values(m: &Measured, rss_mb: f64) -> Vec<Value> {
    let latency = if m.latencies_ms.is_empty() {
        m.timed(|s| s * 1e3)
    } else {
        Estimate::min_of(&m.latencies_ms)
    };
    END_TO_END
        .iter()
        .map(|metric| Value {
            name: metric.name,
            unit: metric.unit,
            estimate: match metric.name {
                "sim_kips" => m.timed(|s| m.kinst_per_pass() / s),
                "runs_per_s" => m.timed(|s| m.runs_per_pass() / s),
                "latency_p50_ms" => latency,
                "peak_rss_mb" => Estimate::median_of(&[rss_mb]),
                "setup_s" => Estimate::median_of(&m.setup_s),
                other => unreachable!("no measurement for end-to-end metric {other}"),
            },
        })
        .collect()
}

impl Outcome {
    /// Whether every operation succeeded and every output check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.check.correct()
    }

    /// The one-line JSON result printed last: the values only.
    #[must_use]
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|v| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::string(v.name),
                    json::number(v.estimate.value),
                    json::string(v.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.check.attempted.max(1),
            self.check.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable lines: status, then every metric with its value,
    /// unit, and the median, quartiles and count of its samples.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} ({}, seed {}): {} | attempted {} failed {} (failed_frac {}) | digest {} golden {}\n",
            self.workload.name(),
            if self.traced { "traced" } else { "untraced" },
            self.seed,
            if self.correct() { "correct" } else { "INCORRECT" },
            self.check.attempted,
            self.check.failed,
            failed_frac(&self.check),
            self.check
                .digest
                .map_or_else(|| "-".to_owned(), |d| format!("{d:016x}")),
            self.golden.name(),
        );
        for p in &self.check.problems {
            let _ = writeln!(out, "  problem: {p}");
        }
        for v in &self.values {
            let s = &v.estimate.samples;
            let _ = writeln!(
                out,
                "  {:<30} {:>12.4} {:<8} samples: median {:.4} q1 {:.4} q3 {:.4} n {}",
                v.name, v.estimate.value, v.unit, s.median, s.q1, s.q3, s.n
            );
        }
        out
    }

    /// This run as one entry of a report's `workloads` object.
    #[must_use]
    pub fn report_entry(&self) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|v| {
                let s = &v.estimate.samples;
                format!(
                    "{}: {{\"unit\": {}, \"value\": {}, \"uncertainty\": {}, \"median\": {}, \
                     \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                    json::string(v.name),
                    json::string(v.unit),
                    json::number(v.estimate.value),
                    json::number(v.estimate.uncertainty),
                    json::number(s.median),
                    json::number(s.q1),
                    json::number(s.q3),
                    s.n
                )
            })
            .collect();
        let problems: Vec<String> = self
            .check
            .problems
            .iter()
            .map(|p| json::string(p))
            .collect();
        format!(
            "{{\"seed\": {}, \"traced\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"failed_frac\": {}, \"digest\": {}, \"golden\": {}, \"loadavg\": [{}, {}], \
             \"problems\": [{}], \"metrics\": {{\n      {}\n    }}}}",
            self.seed,
            self.traced,
            self.correct(),
            self.check.attempted,
            self.check.failed,
            json::number(failed_frac(&self.check)),
            self.check
                .digest
                .map_or_else(|| "null".to_owned(), |d| json::string(&format!("{d:016x}"))),
            json::string(self.golden.name()),
            json::number(self.loadavg[0]),
            json::number(self.loadavg[1]),
            problems.join(", "),
            metrics.join(",\n      ")
        )
    }
}

fn failed_frac(c: &Check) -> f64 {
    c.failed as f64 / c.attempted.max(1) as f64
}

/// The host a report was measured on.
#[derive(Debug, Clone)]
pub struct Host {
    /// Available parallelism.
    pub nproc: usize,
    /// CPU model name.
    pub cpu: String,
    /// One-minute load average when the run started.
    pub loadavg_start: f64,
    /// Scratch directory used for caches and daemon data.
    pub data_dir: PathBuf,
    /// `git rev-parse HEAD`, when the checkout is a git repository.
    pub git_rev: Option<String>,
}

impl Host {
    /// Describes this host now.
    #[must_use]
    pub fn probe(data_dir: &Path) -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, m)| m.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        let git_rev = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            cpu,
            loadavg_start: loadavg(),
            data_dir: data_dir.to_path_buf(),
            git_rev,
        }
    }
}

/// A report: `untraced` and `traced` map workload names to
/// [`Outcome::report_entry`] texts; `compare` reads the untraced ones.
#[must_use]
pub fn report_json(
    host: &Host,
    seconds: f64,
    untraced: &[(String, String)],
    traced: &[(String, String)],
) -> String {
    let object = |entries: &[(String, String)]| {
        let items: Vec<String> = entries
            .iter()
            .map(|(name, entry)| format!("{}: {entry}", json::string(name)))
            .collect();
        format!("{{\n    {}\n  }}", items.join(",\n    "))
    };
    format!(
        "{{\n  \"schema\": \"rar-layerbench-report-v1\",\n  \"seconds\": {},\n  \"host\": {{\"nproc\": {}, \
         \"cpu\": {}, \"loadavg_start\": {}, \"loadavg_end\": {}, \"data_dir\": {}, \"git_rev\": {}}},\n  \
         \"workloads\": {},\n  \"traced\": {}\n}}\n",
        json::number(seconds),
        host.nproc,
        json::string(&host.cpu),
        json::number(host.loadavg_start),
        json::number(loadavg()),
        json::string(&host.data_dir.display().to_string()),
        host.git_rev
            .as_deref()
            .map_or_else(|| "null".to_owned(), json::string),
        object(untraced),
        object(traced)
    )
}

/// The process's peak resident set (VmHWM) in MB; 0 where `/proc` is
/// unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The one-minute load average; 0 where `/proc` is unavailable.
#[must_use]
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// The layer a span's host time belongs to, by span name. `try_run` is
/// the reference run the layered path is checked against, not a layer.
fn layer_of(span: &str) -> &'static str {
    match span {
        "try_run" => "reference",
        "trace_gen" => "rar-workloads",
        "analyze" | "liveness" => "rar-verify",
        "core_build" | "cycles_warmup" | "cycles_measured" | "reliability_report" | "core_sim" => {
            "rar-core"
        }
        "frontend_replay" => "rar-frontend",
        "mem_replay" => "rar-mem",
        "replay" | "cache_probe" | "cache_store" | "cache_load" | "serialize" => "rar-sim",
        "campaign" | "injection" => "rar-inject",
        "job" | "submit" | "status" => "rar-serve",
        _ => "rar-layerbench",
    }
}

/// Per span name: count, total nanoseconds, and self nanoseconds (the
/// span's duration minus the part of it its children cover).
fn span_times(spans: &[Span]) -> BTreeMap<String, (u64, u64, u64)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            let start = s.start_nanos;
            children
                .entry(s.parent)
                .or_default()
                .push((start, start + s.dur_nanos.unwrap_or(0)));
        }
    }
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let dur = s.dur_nanos.unwrap_or(0);
        let (lo, hi) = (s.start_nanos, s.start_nanos + dur);
        let mut covered = 0;
        let mut reach = lo;
        let mut kids = children.get(&s.id).cloned().unwrap_or_default();
        kids.sort_unstable();
        for (a, b) in kids {
            let (a, b) = (a.max(reach), b.min(hi));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let base = s.name.split(':').next().unwrap_or_default().to_owned();
        let e = out.entry(base).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur - covered.min(dur);
    }
    out
}

fn trace_json(spans: &[Span]) -> String {
    let slices: Vec<SpanSlice> = spans
        .iter()
        .map(|s| SpanSlice {
            id: s.id,
            parent: s.parent,
            name: s.name.clone(),
            start_nanos: s.start_nanos,
            dur_nanos: s.dur_nanos.unwrap_or(0),
        })
        .collect();
    spans_to_chrome_json(&slices)
}

fn layers_json(w: Workload, seed: u64, t: &Traced, spans: &[Span], dropped: u64) -> String {
    let metrics: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"layer\": {}, \"moves\": {}}}",
                json::string(m.name),
                json::number(t.metrics.get(m.name).copied().unwrap_or(0.0)),
                json::string(m.unit),
                json::string(m.layer),
                json::string(m.moves)
            )
        })
        .collect();
    let extra: Vec<String> = t
        .extra
        .iter()
        .map(|(k, v)| format!("{}: {}", json::string(k), json::number(*v)))
        .collect();
    let times = span_times(spans);
    let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    let span_rows: Vec<String> = times
        .iter()
        .map(|(name, (count, total, own))| {
            *by_layer.entry(layer_of(name)).or_default() += own;
            format!(
                "{}: {{\"layer\": {}, \"count\": {count}, \"total_s\": {}, \"self_s\": {}}}",
                json::string(name),
                json::string(layer_of(name)),
                json::number(*total as f64 / 1e9),
                json::number(*own as f64 / 1e9)
            )
        })
        .collect();
    let layer_rows: Vec<String> = by_layer
        .iter()
        .map(|(l, ns)| format!("{}: {}", json::string(l), json::number(*ns as f64 / 1e9)))
        .collect();
    let hist: Vec<String> = t.acc.cycle_hist[..HIST_BUCKETS]
        .iter()
        .map(u64::to_string)
        .collect();
    format!(
        "{{\n  \"schema\": \"rar-layerbench-layers-v1\",\n  \"workload\": {},\n  \"seed\": {seed},\n  \
         \"metrics\": {{\n    {}\n  }},\n  \"extra\": {{{}}},\n  \"cycle_ns_log2_hist\": [{}],\n  \
         \"spans_dropped\": {dropped},\n  \"spans\": {{\n    {}\n  }},\n  \"layer_self_s\": {{{}}}\n}}\n",
        json::string(w.name()),
        metrics.join(",\n    "),
        extra.join(", "),
        hist.join(", "),
        span_rows.join(",\n    "),
        layer_rows.join(", ")
    )
}

/// One (metric, workload) pair of a comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name (`failed_frac` for the failure check).
    pub metric: &'static str,
    /// Baseline: the median over A's reports (the largest, for
    /// `failed_frac`).
    pub a: f64,
    /// Candidate: the same over B's reports.
    pub b: f64,
    /// How much worse B is than A, as a share of A.
    pub worse_by: f64,
    /// The wider side's spread: quartile distance over median across its
    /// reports, or a single report's own uncertainty.
    pub spread: f64,
    /// `better`, `same`, `worse` or `unresolved`.
    pub verdict: &'static str,
}

/// A workload entry's member `key`.
fn entry<'a>(report: &'a Json, workload: &str, key: &str) -> Option<&'a Json> {
    report.get("workloads")?.get(workload)?.get(key)
}

/// One side's values of one (metric, workload) pair.
struct Side {
    values: Vec<f64>,
    median: f64,
    spread: f64,
}

impl Side {
    /// The metric's value in every report that has it; `None` when none
    /// does.
    fn of(reports: &[Json], workload: &str, metric: &str) -> Option<Side> {
        let found: Vec<(f64, f64)> = reports
            .iter()
            .filter_map(|r| {
                let m = entry(r, workload, "metrics")?.get(metric)?;
                Some((m.get("value")?.num()?, m.get("uncertainty")?.num()?))
            })
            .collect();
        if found.is_empty() {
            return None;
        }
        let values: Vec<f64> = found.iter().map(|&(v, _)| v).collect();
        let s = Summary::of(&values);
        let spread = match found.as_slice() {
            [(_, uncertainty)] => *uncertainty,
            _ => relative(s.q3 - s.q1, s.median),
        };
        Some(Side {
            values,
            median: s.median,
            spread,
        })
    }
}

/// Parses every report of one side.
fn parse_all(side: &str, texts: &[&str]) -> Result<Vec<Json>, String> {
    texts
        .iter()
        .enumerate()
        .map(|(i, t)| Json::parse(t).map_err(|e| format!("report {side}{}: {e}", i + 1)))
        .collect()
}

/// Applies each end-to-end metric's bound to every (metric, workload)
/// pair present on both sides, each side being one or more reports
/// (alternate the runs of A and B). A pair is `unresolved` when either
/// side's spread is wider than the bound, unless every B report reads
/// better than every A report; otherwise it is `worse` when B's median is
/// worse than A's by more than the bound and by more than the metric's
/// absolute floor, `better` when it is better by as much, and `same`
/// otherwise. Every workload on both sides also gets a `failed_frac` row,
/// whose bound is an absolute 0: any failure in a B report is `worse`.
///
/// # Errors
///
/// A report does not parse.
pub fn compare(a: &[&str], b: &[&str]) -> Result<Vec<Row>, String> {
    let a = parse_all("A", a)?;
    let b = parse_all("B", b)?;
    let mut rows = Vec::new();
    for w in Workload::ALL {
        let failed = |reports: &[Json]| {
            reports
                .iter()
                .filter_map(|r| entry(r, w.name(), "failed_frac").and_then(Json::num))
                .reduce(f64::max)
        };
        if let (Some(fa), Some(fb)) = (failed(&a), failed(&b)) {
            rows.push(Row {
                workload: w.name().to_owned(),
                metric: "failed_frac",
                a: fa,
                b: fb,
                worse_by: fb - fa,
                spread: 0.0,
                verdict: if fb > 0.0 { "worse" } else { "same" },
            });
        }
        for m in &spec::END_TO_END {
            let (Some(sa), Some(sb)) = (
                Side::of(&a, w.name(), m.name),
                Side::of(&b, w.name(), m.name),
            ) else {
                continue;
            };
            let worse_by = m.better.worsening(sa.median, sb.median);
            let spread = sa.spread.max(sb.spread);
            let b_wins = sa
                .values
                .iter()
                .all(|&va| sb.values.iter().all(|&vb| m.better.worsening(va, vb) < 0.0));
            let beyond = |by: f64| by > m.bound && (sb.median - sa.median).abs() > m.floor;
            let verdict = if spread > m.bound && !b_wins {
                "unresolved"
            } else if beyond(worse_by) {
                "worse"
            } else if beyond(-worse_by) {
                "better"
            } else {
                "same"
            };
            rows.push(Row {
                workload: w.name().to_owned(),
                metric: m.name,
                a: sa.median,
                b: sb.median,
                worse_by,
                spread,
                verdict,
            });
        }
    }
    Ok(rows)
}
