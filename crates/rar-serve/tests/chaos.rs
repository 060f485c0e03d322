// Chaos builds only: `cargo test -p rar-serve --features chaos --test chaos`.
#![cfg(feature = "chaos")]
//! End-to-end convergence under the chaos fabric: with each daemon-side
//! fail-point class armed on a deterministic schedule — queue-journal
//! torn/short/fsync faults, worker panics, HTTP connection drops and
//! stalls — a seeded campaign must still terminate with results
//! byte-identical to a clean run. Chaos may cost retries, worker
//! restarts and reconnects; it must never change bytes.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use rar_chaos::{sites, ChaosPlan};
use rar_serve::{CampaignServer, ServeClient, ServeOptions};
use rar_telemetry::names;

/// The chaos fabric is process-global; armed tests serialize on this.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A unique scratch dir per test; removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("rar-serve-chaos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const SPEC: &str = "{\"kind\":\"single\",\"workload\":\"mcf\",\"technique\":\"rar\",\
                    \"instructions\":2000,\"warmup\":300}";

fn submitted_id(body: &str) -> u64 {
    rar_serve::jobs::u64_field(body, "id")
        .expect("id parses")
        .expect("id present")
}

fn prom_value(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

/// Runs one seeded single-cell campaign end to end against a fresh
/// daemon and returns (scratch, result document, final /metrics body).
/// The retrying client is used throughout so HTTP-layer chaos is
/// absorbed the way a production caller would absorb it.
fn run_campaign(tag: &str) -> (Scratch, String, String) {
    let scratch = Scratch::new(tag);
    let server = CampaignServer::start(ServeOptions {
        data_dir: scratch.0.clone(),
        workers: 1,
        fsync_every: 1,
        ..ServeOptions::default()
    })
    .expect("server start");
    let client = ServeClient::new(server.addr().to_string());

    let resp = client
        .request_with_retry("POST", "/v1/jobs", SPEC)
        .expect("submit");
    assert_eq!(resp.status, 201, "{}", resp.body);
    let id = submitted_id(&resp.body);

    let done = client
        .wait_for_job(id, Duration::from_secs(120))
        .expect("job terminal");
    assert!(
        done.body.contains("\"status\":\"completed\""),
        "job did not complete: {}",
        done.body
    );

    let result = client
        .request_with_retry("GET", &format!("/v1/jobs/{id}/results/0"), "")
        .expect("result fetch");
    assert_eq!(result.status, 200, "{}", result.body);
    let metrics = client
        .request_with_retry("GET", "/metrics", "")
        .expect("metrics");
    server.stop();
    (scratch, result.body, metrics.body)
}

/// The baseline document every chaos variant must reproduce.
fn golden() -> String {
    rar_chaos::clear();
    let (_scratch, doc, _metrics) = run_campaign("golden");
    doc
}

fn injected(site: &str) -> u64 {
    rar_chaos::injected_counts()
        .into_iter()
        .find(|(s, _)| s == site)
        .map_or(0, |(_, n)| n)
}

/// Runs the campaign with `plan` armed, asserts each listed site
/// actually fired, clears chaos, and returns (scratch, doc).
fn run_under(plan: &ChaosPlan, tag: &str, must_fire: &[&str]) -> (Scratch, String) {
    rar_chaos::install(plan);
    let (scratch, doc, _metrics) = run_campaign(tag);
    let fired: Vec<(&str, u64)> = must_fire.iter().map(|s| (*s, injected(s))).collect();
    rar_chaos::clear();
    for (site, n) in fired {
        assert!(n > 0, "fail-point {site} never fired");
    }
    (scratch, doc)
}

/// After a chaotic run, the journal on disk must still replay cleanly:
/// a fresh worker-less daemon opens it without resuming phantom jobs
/// (the only job reached a journaled terminal state).
fn assert_journal_clean(scratch: &Scratch) {
    let server = CampaignServer::start(ServeOptions {
        data_dir: scratch.0.clone(),
        workers: 0,
        ..ServeOptions::default()
    })
    .expect("reopen");
    let client = ServeClient::new(server.addr().to_string());
    let metrics = client.request("GET", "/metrics", "").expect("metrics");
    let resumed = prom_value(&metrics.body, names::SERVE_JOBS_RESUMED);
    server.stop();
    assert!(
        resumed.abs() < f64::EPSILON,
        "journal replay resurrected a finished job (resumed={resumed})"
    );
}

#[test]
fn torn_journal_writes_converge_byte_identical() {
    let _guard = lock();
    let clean = golden();
    let plan = ChaosPlan::single(sites::JOURNAL_TORN, 2, 0).with_seed(7);
    let (scratch, doc) = run_under(&plan, "torn", &[sites::JOURNAL_TORN]);
    assert_eq!(clean, doc, "results diverged under torn journal writes");
    assert_journal_clean(&scratch);
}

#[test]
fn short_journal_writes_converge_byte_identical() {
    let _guard = lock();
    let clean = golden();
    let plan = ChaosPlan::single(sites::JOURNAL_SHORT, 2, 0).with_seed(11);
    let (scratch, doc) = run_under(&plan, "short", &[sites::JOURNAL_SHORT]);
    assert_eq!(clean, doc, "results diverged under short journal writes");
    assert_journal_clean(&scratch);
}

#[test]
fn journal_fsync_failures_converge_byte_identical() {
    let _guard = lock();
    let clean = golden();
    let plan = ChaosPlan::single(sites::JOURNAL_FSYNC, 2, 0).with_seed(13);
    let (scratch, doc) = run_under(&plan, "fsync", &[sites::JOURNAL_FSYNC]);
    assert_eq!(clean, doc, "results diverged under fsync failures");
    assert_journal_clean(&scratch);
}

#[test]
fn panicked_workers_are_restarted_and_converge_byte_identical() {
    let _guard = lock();
    let clean = golden();

    // The first claim of the job panics the worker mid-run; the
    // supervisor must recover the claimed job, requeue it, and restart
    // the worker, which then runs it to completion.
    rar_chaos::install(&ChaosPlan::single(sites::SERVE_WORKER_PANIC, 2, 0).with_seed(17));
    // The panic escapes through the test process's hook; silence it so
    // the (expected) worker death doesn't spam the test log.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let (_scratch, doc, metrics) = run_campaign("panic");
    std::panic::set_hook(hook);
    let fired = injected(sites::SERVE_WORKER_PANIC);
    rar_chaos::clear();

    assert!(fired > 0, "worker-panic fail-point never fired");
    assert!(
        prom_value(&metrics, names::SERVE_WORKER_RESTARTS) >= 1.0,
        "supervisor never recorded a restart"
    );
    assert_eq!(clean, doc, "results diverged across a worker restart");
}

#[test]
fn dropped_and_stalled_connections_converge_byte_identical() {
    let _guard = lock();
    let clean = golden();

    // Every third connection is dropped before routing and every third
    // (offset 1) stalls briefly; the hardened client retries and
    // reattaches, and because the drop fires before the request is
    // routed, retried submits are never half-processed.
    let plan = ChaosPlan::single(sites::SERVE_HTTP_CONN_DROP, 3, 0)
        .with_site(sites::SERVE_HTTP_CONN_STALL, 3, 1)
        .with_seed(19);
    let (_scratch, doc) = run_under(
        &plan,
        "http",
        &[sites::SERVE_HTTP_CONN_DROP, sites::SERVE_HTTP_CONN_STALL],
    );
    assert_eq!(clean, doc, "results diverged under connection chaos");
}
