//! Every workload, untraced and traced, at test size: every metric is
//! present, finite and in its unit, nothing fails, and the layered
//! traced path reproduces `Simulation::try_run` exactly.

use rar_layerbench::json::Json;
use rar_layerbench::layered::{run_layered, LayerAcc};
use rar_layerbench::report::{self, Host, Outcome};
use rar_layerbench::spec::{self, Workload, END_TO_END, PER_LAYER};
use rar_layerbench::workloads::{self, RunConfig, Scale};
use rar_sim::Simulation;
use rar_telemetry::{SpanId, SpanLog};
use std::path::PathBuf;

fn config(tag: &str) -> RunConfig {
    let tmp = PathBuf::from(".bench_out").join(format!("smoke-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("scratch dir");
    RunConfig {
        seed: 7,
        seconds: 0.0,
        scale: Scale::tiny(),
        tmp,
    }
}

fn run(w: Workload, traced: bool) -> Outcome {
    let rc = config(&format!("{}-{traced}", w.name()));
    let outcome = report::run(w, &rc, traced, false);
    let _ = std::fs::remove_dir_all(&rc.tmp);
    assert!(
        outcome.correct() && outcome.check.failed == 0 && outcome.check.attempted > 0,
        "{}",
        outcome.table()
    );
    outcome
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for w in Workload::ALL {
        let o = run(w, false);
        assert_eq!(o.values.len(), END_TO_END.len());
        for (v, m) in o.values.iter().zip(&END_TO_END) {
            assert_eq!((v.name, v.unit), (m.name, m.unit));
            let e = v.estimate;
            assert!(
                e.value.is_finite() && e.value > 0.0 && e.samples.q1 <= e.samples.q3,
                "{} {}: {e:?}",
                w.name(),
                v.name
            );
        }
        let line = Json::parse(&o.result_line()).expect("result line is JSON");
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let metrics = line.get("metrics").and_then(Json::obj).expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());
    }
}

#[test]
fn every_workload_traces_every_layer() {
    for w in Workload::ALL {
        let o = run(w, true);
        assert_eq!(o.values.len(), PER_LAYER.len());
        for (v, m) in o.values.iter().zip(&PER_LAYER) {
            assert_eq!((v.name, v.unit), (m.name, m.unit));
            assert!(v.estimate.value.is_finite(), "{} {}", w.name(), v.name);
        }
        // Host times measured on every workload are never zero.
        for v in o
            .values
            .iter()
            .filter(|v| matches!(v.unit, "s" | "ns" | "us"))
        {
            assert!(v.estimate.value > 0.0, "{} {} is zero", w.name(), v.name);
        }
        let layers = Json::parse(o.layers_json.as_deref().expect("layers.json")).expect("JSON");
        for m in &PER_LAYER {
            assert!(layers
                .get("metrics")
                .and_then(|ms| ms.get(m.name))
                .is_some());
        }
        let spans = layers.get("spans").and_then(Json::obj).expect("spans");
        assert!(spans.iter().any(|(name, _)| name == "cycles_measured"));
        rar_trace::jsonv::validate(o.trace_json.as_deref().expect("trace.json"))
            .expect("trace.json is valid JSON");
    }
}

#[test]
fn layered_path_equals_try_run() {
    let rc = config("layered");
    let log = SpanLog::new();
    let mut acc = LayerAcc::default();
    for cfg in workloads::long_cells(Workload::LongMemory, &rc) {
        let (layered, prefix) = run_layered(&cfg, &log, SpanId::NONE, &mut acc);
        assert_eq!(
            layered,
            Simulation::try_run(&cfg).expect("valid"),
            "{cfg:?}"
        );
        assert!(prefix.len() as u64 >= cfg.warmup + cfg.instructions);
    }
    assert!(acc.cycles.calls > 0 && acc.ooo.calls > 0 && acc.rar.calls > 0);
    let _ = std::fs::remove_dir_all(&rc.tmp);
}

#[test]
fn committed_benchmark_json_matches_the_tables() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(committed, spec::benchmark_json());
}

#[test]
fn compare_flags_only_regressions_beyond_the_bound() {
    let o = run(Workload::Fig1Warm, false);
    let host = Host::probe(&PathBuf::from(".bench_out"));
    let report = |o: &Outcome| {
        let entry = vec![(o.workload.name().to_owned(), o.report_entry())];
        report::report_json(&host, 0.0, &entry, &[])
    };
    let compare = |a: &[&Outcome], b: &[&Outcome]| {
        let a: Vec<String> = a.iter().map(|o| report(o)).collect();
        let b: Vec<String> = b.iter().map(|o| report(o)).collect();
        let a: Vec<&str> = a.iter().map(String::as_str).collect();
        let b: Vec<&str> = b.iter().map(String::as_str).collect();
        let rows = report::compare(&a, &b).expect("parses");
        rows.into_iter()
            .filter(|r| r.metric != "failed_frac")
            .map(|r| r.verdict)
            .collect::<Vec<_>>()
    };
    let rows = report::compare(&[&report(&o)], &[&report(&o)]).expect("parses");
    assert_eq!(rows.len(), END_TO_END.len() + 1, "{rows:?}");
    assert!(rows.iter().all(|r| r.verdict != "worse"));
    // Scale every value (halve throughput, double latency and memory, add
    // 10 ms of set-up, past its 5 ms floor) and pin its uncertainty.
    let scaled = |o: &Outcome, f: fn(&str, f64) -> f64, uncertainty: f64| {
        let mut o = o.clone();
        for v in &mut o.values {
            v.estimate.value = f(v.name, v.estimate.value);
            v.estimate.uncertainty = uncertainty;
        }
        o
    };
    fn slower(name: &str, v: f64) -> f64 {
        match name {
            "sim_kips" | "runs_per_s" => v * 0.5,
            "setup_s" => v * 2.0 + 0.01,
            _ => v * 2.0,
        }
    }
    let fast = scaled(&o, |_, v| v, 0.0);
    let slow = scaled(&o, slower, 0.0);
    assert!(compare(&[&fast], &[&slow]).iter().all(|v| *v == "worse"));
    assert!(compare(&[&slow], &[&fast]).iter().all(|v| *v == "better"));
    // Several reports a side: their medians are compared.
    assert!(compare(&[&fast, &fast], &[&slow, &slow])
        .iter()
        .all(|v| *v == "worse"));
    // A regression hidden in one run's noise, or in the spread between
    // runs, is unresolved, not same.
    let noisy = scaled(&o, slower, 1.0);
    assert!(compare(&[&fast], &[&noisy])
        .iter()
        .all(|v| *v == "unresolved"));
    assert!(compare(&[&fast, &slow], &[&slow, &fast, &slow])
        .iter()
        .all(|v| *v == "unresolved"));
    // ... unless every run of B reads better than every run of A.
    let faster = scaled(
        &o,
        |name, v| match name {
            "sim_kips" | "runs_per_s" => v * 1.5,
            _ => v / 1.5,
        },
        0.0,
    );
    assert!(compare(&[&fast, &slow], &[&faster])
        .iter()
        .all(|v| *v != "unresolved" && *v != "worse"));
    // Any failure is worse, whatever the bounds.
    let mut failing = fast.clone();
    failing.check.attempted = 10;
    failing.check.failed = 1;
    let rows = report::compare(&[&report(&fast)], &[&report(&failing)]).expect("parses");
    assert!(rows
        .iter()
        .any(|r| r.metric == "failed_frac" && r.verdict == "worse"));
}
