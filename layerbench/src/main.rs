//! `rar-layerbench`: the layered benchmark's command line.
//!
//! ```text
//! rar-layerbench [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//!                [--trace-dir DIR] [--out PATH] [--bless]
//! rar-layerbench compare A.json B.json
//! rar-layerbench compare A1.json A2.json... -- B1.json B2.json...
//! rar-layerbench benchmark-json
//! ```
//!
//! With exactly one `--workload` the workload runs in this process and
//! the last line of standard output is the one-line JSON result. With
//! none (every workload) or several, each runs in a fresh child process
//! of this binary, so peak memory and failures stay per workload, and
//! the children's reports are merged into one.

use rar_layerbench::json::Json;
use rar_layerbench::report::{self, Host, DEFAULT_SEED};
use rar_layerbench::spec::{self, Workload, END_TO_END};
use rar_layerbench::workloads::{RunConfig, Scale};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Where reports, traces and scratch data go, relative to the working
/// directory (the repository root).
const OUT_DIR: &str = ".bench_out";

const USAGE: &str = "usage:
  rar-layerbench [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
                 [--trace-dir DIR] [--out PATH] [--bless]
  rar-layerbench compare A.json B.json
  rar-layerbench compare A1.json A2.json... -- B1.json B2.json...
  rar-layerbench benchmark-json
workloads: long_memory long_compute fig1_cold fig1_warm inject serve";

#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: Option<PathBuf>,
    out: Option<PathBuf>,
    bless: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        trace_dir: None,
        out: None,
        bless: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workloads
                    .push(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_owned());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                };
            }
            "--trace-dir" => {
                a.trace = true;
                a.trace_dir = Some(PathBuf::from(value()?));
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--bless" => a.bless = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.bless && a.seed != DEFAULT_SEED {
        return Err(format!(
            "--bless records goldens for --seed {DEFAULT_SEED} only"
        ));
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => return compare(&args[1..]),
        Some("benchmark-json") => {
            print!("{}", spec::benchmark_json());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rar-layerbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match a.workloads.as_slice() {
        [w] => run_one(*w, &a),
        _ => run_suite(&a),
    }
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one workload in this process.
fn run_one(w: Workload, a: &Args) -> ExitCode {
    let tmp = Path::new(OUT_DIR).join(format!("tmp-{}-{}", w.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("rar-layerbench: {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    let host = a.out.as_ref().map(|_| Host::probe(&tmp));
    let rc = RunConfig {
        seed: a.seed,
        seconds: a.seconds,
        scale: Scale::full(),
        tmp: tmp.clone(),
    };
    let outcome = report::run(w, &rc, a.trace, a.bless);
    let _ = std::fs::remove_dir_all(&tmp);
    let mut written = Ok(());
    if let (Some(layers), Some(trace)) = (&outcome.layers_json, &outcome.trace_json) {
        let dir = a
            .trace_dir
            .clone()
            .unwrap_or_else(|| Path::new(OUT_DIR).join("trace").join(w.name()));
        written = write(&dir.join("layers.json"), layers)
            .and_then(|()| write(&dir.join("trace.json"), trace));
    }
    if let (Some(out), Some(host)) = (&a.out, &host) {
        let entry = [(w.name().to_owned(), outcome.report_entry())];
        let text = if a.trace {
            report::report_json(host, a.seconds, &[], &entry)
        } else {
            report::report_json(host, a.seconds, &entry, &[])
        };
        written = written.and_then(|()| write(out, &text));
    }
    print!("{}", outcome.table());
    if let Err(e) = &written {
        eprintln!("rar-layerbench: {e}");
    }
    println!("{}", outcome.result_line());
    if outcome.correct() && written.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `w` in a child process of this binary, traced into `trace_dir`
/// when one is given; echoes its table and returns its report entry and
/// whether it exited successfully.
fn run_child(
    w: Workload,
    a: &Args,
    trace_dir: Option<&Path>,
    report_path: &Path,
) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .arg("--out")
        .arg(report_path)
        .stdout(Stdio::piped());
    match trace_dir {
        Some(dir) => cmd.arg("--trace-dir").arg(dir),
        None => cmd.args(["--trace", "0"]),
    };
    if a.bless {
        cmd.arg("--bless");
    }
    let out = cmd.output().map_err(|e| format!("{}: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    lines.pop(); // the one-line result; the report file has everything
    for l in lines {
        println!("{l}");
    }
    let text = std::fs::read_to_string(report_path)
        .map_err(|e| format!("{}: no report ({e}); exit {}", w.name(), out.status))?;
    let _ = std::fs::remove_file(report_path);
    let section = if trace_dir.is_some() {
        "traced"
    } else {
        "workloads"
    };
    let entry = Json::parse(&text)
        .ok()
        .and_then(|r| r.get(section)?.get(w.name()).map(ToString::to_string))
        .ok_or_else(|| format!("{}: unreadable report", w.name()))?;
    Ok((entry, out.status.success()))
}

/// Runs every selected workload in its own child process, then the
/// traced runs if asked, and merges their reports.
fn run_suite(a: &Args) -> ExitCode {
    let selected: Vec<Workload> = if a.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        a.workloads.clone()
    };
    let out_dir = Path::new(OUT_DIR);
    let host = Host::probe(out_dir);
    let mut ok = true;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for &w in &selected {
        let path = out_dir.join(format!("child-{}-{}.json", w.name(), std::process::id()));
        let trace_dir = a.trace.then(|| {
            a.trace_dir
                .clone()
                .unwrap_or_else(|| out_dir.join("trace"))
                .join(w.name())
        });
        let mut record = |dir: Option<&Path>, entries: &mut Vec<(String, String)>| match run_child(
            w, a, dir, &path,
        ) {
            Ok((entry, success)) => {
                entries.push((w.name().to_owned(), entry));
                ok &= success;
            }
            Err(e) => {
                eprintln!("rar-layerbench: {e}");
                ok = false;
            }
        };
        record(None, &mut untraced);
        if let Some(dir) = &trace_dir {
            record(Some(dir), &mut traced);
        }
    }
    let text = report::report_json(&host, a.seconds, &untraced, &traced);
    let out = a.out.clone().unwrap_or_else(|| out_dir.join("report.json"));
    if let Err(e) = write(&out, &text) {
        eprintln!("rar-layerbench: {e}");
        ok = false;
    }
    print_summary(&text);
    println!("report: {}", out.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One line per workload: correctness and every end-to-end value.
fn print_summary(report_text: &str) {
    let Ok(r) = Json::parse(report_text) else {
        return;
    };
    let mut header = format!("{:<13} {:<9}", "workload", "correct");
    for m in &END_TO_END {
        header.push_str(&format!(" {:>22}", format!("{} ({})", m.name, m.unit)));
    }
    println!("{header}");
    for (name, entry) in r.get("workloads").and_then(Json::obj).unwrap_or_default() {
        let correct = matches!(entry.get("correct"), Some(Json::Bool(true)));
        let mut line = format!("{name:<13} {:<9}", if correct { "yes" } else { "NO" });
        for m in &END_TO_END {
            let v = entry
                .get("metrics")
                .and_then(|ms| ms.get(m.name))
                .and_then(|v| v.get("value"))
                .and_then(Json::num);
            line.push_str(&format!(
                " {:>22}",
                v.map_or("-".to_owned(), |v| format!("{v:.4}"))
            ));
        }
        println!("{line}");
    }
}

/// `compare A B`, or `compare A... -- B...` with several reports a side.
fn compare(args: &[String]) -> ExitCode {
    let (a, b) = match args.iter().position(|a| a == "--") {
        Some(i) => (&args[..i], &args[i + 1..]),
        None if args.len() == 2 => (&args[..1], &args[1..]),
        None => (&args[..0], &args[..0]),
    };
    if a.is_empty() || b.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let read = |paths: &[String]| {
        paths
            .iter()
            .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}")))
            .collect::<Result<Vec<String>, String>>()
    };
    let rows = read(a).and_then(|ta| {
        read(b).and_then(|tb| {
            let ta: Vec<&str> = ta.iter().map(String::as_str).collect();
            let tb: Vec<&str> = tb.iter().map(String::as_str).collect();
            report::compare(&ta, &tb)
        })
    });
    let rows = match rows {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("rar-layerbench compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<13} {:<15} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse by", "spread", "bound"
    );
    let mut worse = false;
    for r in &rows {
        let bound = spec::end_to_end(r.metric).map_or(0.0, |m| m.bound);
        println!(
            "{:<13} {:<15} {:>14.4} {:>14.4} {:>8.1}% {:>7.1}% {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.spread * 100.0,
            bound * 100.0,
            r.verdict
        );
        worse |= r.verdict == "worse";
    }
    if rows.is_empty() {
        eprintln!("rar-layerbench compare: no (metric, workload) pair in both reports");
        return ExitCode::from(2);
    }
    if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
