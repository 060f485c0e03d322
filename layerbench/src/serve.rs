//! The `serve` workload: a closed loop of clients against an in-process
//! campaign daemon.

use crate::digest::Digest;
use crate::stats::{quantile, relative};
use crate::workloads::{cell, setup, Check, Measured, RunConfig, Traced, Unit, THREADS};
use rar_core::Technique;
use rar_serve::client::Response;
use rar_serve::jobs::{field, u64_field};
use rar_serve::{CampaignServer, ServeClient, ServeOptions};
use rar_sim::{json, SimConfig, Simulation};
use rar_telemetry::{names, SpanId, SpanLog, SpanRecorder};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Cells per job.
const JOB_CELLS: u64 = 4;

/// The workload seed of job `j` of client `c` (client [`THREADS`] is the
/// set-up's warm-up job): unique per job, so every job simulates.
#[must_use]
pub fn job_seed(seed: u64, c: usize, j: usize) -> u64 {
    seed.wrapping_mul(100_000)
        .wrapping_add((c * 10_000 + j + 1) as u64)
}

/// The cells of a job with workload seed `s`, in the daemon's result
/// order.
#[must_use]
pub fn job_cells(rc: &RunConfig, s: u64) -> Vec<SimConfig> {
    ["mcf", "lbm"]
        .iter()
        .flat_map(|w| [Technique::Ooo, Technique::Rar].map(|t| cell(w, t, rc.scale.serve, s)))
        .collect()
}

fn job_body(rc: &RunConfig, s: u64) -> String {
    format!(
        "{{\"kind\":\"sweep\",\"workloads\":[\"mcf\",\"lbm\"],\"techniques\":[\"ooo\",\"rar\"],\
         \"seeds\":[{s}],\"instructions\":{},\"warmup\":{}}}",
        rc.scale.serve.instructions, rc.scale.serve.warmup
    )
}

/// One job as its client saw it.
#[derive(Debug, Clone, Default)]
struct JobRecord {
    client: usize,
    index: usize,
    id: Option<u64>,
    /// Seconds from the start of the loop to the terminal status.
    done_at: f64,
    latency_s: f64,
    /// The daemon's `queue_wait_seconds`.
    queue_wait_s: f64,
    submit_s: f64,
    status_s: Vec<f64>,
    error: Option<String>,
}

/// Submits one job and polls its status every millisecond until it is
/// terminal. `ServeClient::wait_for_job` polls every 50 ms, coarser than
/// a job, so the loop is written here. With a tracer, the job is a span
/// and each request a leaf under it.
fn run_job(client: &ServeClient, body: &str, tracer: Option<(&SpanLog, SpanId)>) -> JobRecord {
    let mut rec = JobRecord::default();
    let job_span = tracer.map_or(SpanId::NONE, |(log, parent)| log.start("job", parent));
    let timed = |name: &str, request: &mut dyn FnMut() -> std::io::Result<Response>| {
        let t = Instant::now();
        let r = request();
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Some((log, _)) = tracer {
            log.leaf(name, job_span, ns);
        }
        (r, ns as f64 / 1e9)
    };
    let t0 = Instant::now();
    let (resp, s) = timed("submit", &mut || client.request("POST", "/v1/jobs", body));
    rec.submit_s = s;
    rec.id = match resp {
        Ok(r) if r.ok() => match u64_field(&r.body, "id") {
            Ok(Some(id)) => Some(id),
            _ => {
                rec.error = Some(format!("submit: no job id in {:?}", r.body.trim()));
                None
            }
        },
        Ok(r) => {
            rec.error = Some(format!("submit: HTTP {}: {}", r.status, r.body.trim()));
            None
        }
        Err(e) => {
            rec.error = Some(format!("submit: {e}"));
            None
        }
    };
    if let Some(id) = rec.id {
        let path = format!("/v1/jobs/{id}");
        loop {
            std::thread::sleep(Duration::from_millis(1));
            let (resp, s) = timed("status", &mut || client.request("GET", &path, ""));
            rec.status_s.push(s);
            // Status documents are read with the daemon's own field
            // extractor, as its client does.
            let doc = match resp {
                Ok(r) if r.ok() => r.body,
                Ok(r) => {
                    rec.error = Some(format!("status: HTTP {}", r.status));
                    break;
                }
                Err(e) => {
                    rec.error = Some(format!("status: {e}"));
                    break;
                }
            };
            match field(&doc, "status") {
                Some("completed") => {
                    rec.queue_wait_s = field(&doc, "queue_wait_seconds")
                        .and_then(|v| v.parse().ok())
                        .unwrap_or(0.0);
                    let counts = (u64_field(&doc, "completed"), u64_field(&doc, "failed"));
                    if counts != (Ok(Some(JOB_CELLS)), Ok(Some(0))) {
                        rec.error = Some(format!(
                            "job {id}: completed/failed {counts:?}, expected {JOB_CELLS}/0"
                        ));
                    }
                    break;
                }
                Some("queued" | "running") => {}
                other => {
                    rec.error = Some(format!("job {id} ended {other:?}"));
                    break;
                }
            }
            if t0.elapsed() > Duration::from_secs(60) {
                rec.error = Some(format!("job {id} not done after 60 s"));
                break;
            }
        }
    }
    rec.latency_s = t0.elapsed().as_secs_f64();
    if let Some((log, _)) = tracer {
        log.finish(job_span);
    }
    rec
}

/// A daemon started for the benchmark, with a client bound to it.
struct Daemon {
    server: CampaignServer,
    client: ServeClient,
}

/// Starts the daemon on an ephemeral port with default options, waits
/// until `/readyz` answers 200, and runs one warm-up job.
fn start_daemon(rc: &RunConfig, data_dir: PathBuf, check: &mut Check) -> Daemon {
    let server = CampaignServer::start(ServeOptions {
        data_dir,
        ..ServeOptions::default()
    })
    .expect("campaign daemon starts");
    let client = ServeClient::new(server.addr().to_string());
    let deadline = Instant::now() + Duration::from_secs(30);
    while !client
        .request("GET", "/readyz", "")
        .is_ok_and(|r| r.status == 200)
    {
        assert!(Instant::now() < deadline, "daemon never became ready");
        std::thread::sleep(Duration::from_millis(1));
    }
    let warm = run_job(&client, &job_body(rc, job_seed(rc.seed, THREADS, 0)), None);
    if let Some(e) = warm.error {
        check.fail(1, || format!("warm-up job: {e}"));
    }
    Daemon { server, client }
}

/// The closed loop: [`THREADS`] clients, each submitting its next job as
/// soon as the previous one is terminal, `jobs` jobs in all; records in
/// completion order.
fn closed_loop(
    rc: &RunConfig,
    client: &ServeClient,
    jobs: usize,
    tracer: Option<(&SpanLog, SpanId)>,
) -> Vec<JobRecord> {
    let start = Instant::now();
    let records = Mutex::new(Vec::new());
    let per_client = jobs.div_ceil(THREADS);
    std::thread::scope(|s| {
        for c in 0..THREADS {
            let records = &records;
            s.spawn(move || {
                for j in 0..per_client {
                    let mut rec = run_job(client, &job_body(rc, job_seed(rc.seed, c, j)), tracer);
                    rec.client = c;
                    rec.index = j;
                    rec.done_at = start.elapsed().as_secs_f64();
                    records.lock().expect("records lock").push(rec);
                }
            });
        }
    });
    let mut records = records.into_inner().expect("records lock");
    records.sort_by(|a, b| a.done_at.total_cmp(&b.done_at));
    records
}

/// Accounts every job, then checks the first `serve_checked` jobs of each
/// client result by result against direct runs and digests those result
/// documents.
fn check_jobs(rc: &RunConfig, client: &ServeClient, records: &[JobRecord], check: &mut Check) {
    for r in records {
        check.op(r.error.is_none(), || r.error.clone().unwrap_or_default());
    }
    let mut d = Digest::default();
    for c in 0..THREADS {
        for j in 0..rc.scale.serve_checked {
            let Some(id) = records
                .iter()
                .find(|r| r.client == c && r.index == j)
                .and_then(|r| r.id)
            else {
                check.fail(1, || format!("client {c} job {j} missing"));
                continue;
            };
            for (i, cfg) in job_cells(rc, job_seed(rc.seed, c, j)).iter().enumerate() {
                let served = client
                    .request("GET", &format!("/v1/jobs/{id}/results/{i}"), "")
                    .map(|r| r.body)
                    .unwrap_or_default();
                let direct = Simulation::try_run(cfg)
                    .map(|r| json::to_json_for(cfg, &r))
                    .unwrap_or_default();
                check.expect(
                    !direct.is_empty() && served.trim_end() == direct.trim_end(),
                    || format!("job {id} result {i} differs from Simulation::try_run"),
                );
                d.text(served.trim_end());
            }
        }
    }
    check.pass_digest(d.value());
}

/// The untraced measurement.
pub fn measure(rc: &RunConfig) -> Measured {
    let mut m = Measured::default();
    let mut daemon = None;
    let ((), setup_s) = setup(rc.scale.setup_reps, |k| {
        if let Some(Daemon { server, .. }) = daemon.take() {
            server.stop();
        }
        daemon = Some(start_daemon(
            rc,
            rc.tmp.join(format!("serve-{k}")),
            &mut m.check,
        ));
    });
    m.setup_s = setup_s;
    let Daemon { server, client } = daemon.expect("daemon started");
    let window = rc.scale.serve_window;
    let records = closed_loop(rc, &client, window * rc.scale.serve_windows, None);
    // Windows of `window` consecutive completions are the unit: each
    // gives a throughput sample and a median job latency.
    let runs = window as u64 * JOB_CELLS;
    let mut unit = Unit::new(runs, runs as f64 * rc.scale.serve.kinst());
    let mut from = 0.0;
    for chunk in records.chunks_exact(window) {
        let to = chunk[window - 1].done_at;
        unit.seconds.push(to - from);
        from = to;
        let latencies: Vec<f64> = chunk.iter().map(|r| r.latency_s * 1e3).collect();
        m.latencies_ms.push(quantile(&latencies, 0.5));
    }
    m.units.push(unit);
    check_jobs(rc, &client, &records, &mut m.check);
    server.stop();
    m
}

/// The traced run: a shorter closed loop with a span per job and a leaf
/// per request, plus the daemon's own counters.
pub fn trace(rc: &RunConfig, log: &SpanLog, t: &mut Traced) {
    let Daemon { server, client } = start_daemon(rc, rc.tmp.join("serve-traced"), &mut t.check);
    let pass = log.start("pass", SpanId::NONE);
    let records = closed_loop(rc, &client, rc.scale.serve_window * 2, Some((log, pass)));
    log.finish(pass);
    check_jobs(rc, &client, &records, &mut t.check);
    let reg = server.registry();
    let sess = server.session_registry();
    t.add(
        "serve.http_requests",
        reg.counter(names::SERVE_HTTP_REQUESTS).get() as f64,
    );
    t.add(
        "serve.rejected",
        reg.counter(names::SERVE_JOBS_REJECTED).get() as f64,
    );
    t.add(
        "sim.cells_simulated",
        sess.counter(names::SWEEP_CELLS_SIMULATED).get() as f64,
    );
    t.add(
        "sim.cache_hits",
        sess.counter(names::SWEEP_CACHE_HITS).get() as f64,
    );
    t.add(
        "sim.trace_memo_misses",
        sess.counter(names::SWEEP_TRACE_MEMO_MISSES).get() as f64,
    );
    let waited: f64 = records.iter().map(|r| r.queue_wait_s).sum();
    let latency: f64 = records.iter().map(|r| r.latency_s).sum();
    t.metrics
        .insert("serve.queue_wait_frac", relative(waited, latency));
    let p50_ms = |v: Vec<f64>| quantile(&v, 0.5) * 1e3;
    for (name, v) in [
        (
            "serve.submit_ms_p50",
            records.iter().map(|r| r.submit_s).collect(),
        ),
        (
            "serve.status_ms_p50",
            records
                .iter()
                .flat_map(|r| r.status_s.iter().copied())
                .collect(),
        ),
        (
            "serve.queue_wait_ms_p50",
            records.iter().map(|r| r.queue_wait_s).collect(),
        ),
        (
            "serve.job_latency_ms_p50",
            records.iter().map(|r| r.latency_s).collect(),
        ),
    ] {
        t.extra.insert(name.to_owned(), p50_ms(v));
    }
    server.stop();
}
