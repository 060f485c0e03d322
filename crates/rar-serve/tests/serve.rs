//! End-to-end tests against a live daemon on an ephemeral port.
//!
//! Each test boots a [`CampaignServer`] on `127.0.0.1:0` with its own
//! data directory, talks to it over real sockets through [`ServeClient`],
//! and shuts it down. Covers the acceptance criteria directly: sweep
//! results over HTTP are byte-identical to the direct engine output,
//! concurrent overlapping grids simulate each shared cell exactly once,
//! cancellation is cooperative and cache-consistent, and a restarted
//! daemon resumes its journaled queue.

use std::path::PathBuf;
use std::time::Duration;

use rar_serve::{CampaignServer, ServeClient, ServeOptions};
use rar_sim::{json, SimConfig, Simulation};
use rar_telemetry::names;

/// A unique scratch dir per test; removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("rar-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn boot(scratch: &Scratch, workers: usize) -> (CampaignServer, ServeClient) {
    let server = CampaignServer::start(ServeOptions {
        data_dir: scratch.0.clone(),
        workers,
        ..ServeOptions::default()
    })
    .expect("server start");
    let client = ServeClient::new(server.addr().to_string());
    (server, client)
}

fn submitted_id(body: &str) -> u64 {
    rar_serve::jobs::u64_field(body, "id")
        .expect("id parses")
        .expect("id present")
}

#[test]
fn sweep_over_http_is_byte_identical_to_the_engine() {
    let scratch = Scratch::new("bytes");
    let (server, client) = boot(&scratch, 1);

    let spec = "{\"kind\":\"single\",\"workload\":\"mcf\",\"technique\":\"rar\",\
                \"instructions\":2000,\"warmup\":300}";
    let resp = client.request("POST", "/v1/jobs", spec).expect("submit");
    assert_eq!(resp.status, 201, "{}", resp.body);
    let id = submitted_id(&resp.body);

    let done = client
        .wait_for_job(id, Duration::from_secs(120))
        .expect("job finishes");
    assert!(
        done.body.contains("\"status\":\"completed\""),
        "{}",
        done.body
    );

    let over_http = client
        .request("GET", &format!("/v1/jobs/{id}/results/0"), "")
        .expect("result fetch");
    assert_eq!(over_http.status, 200);

    let cfg = {
        let mut b = SimConfig::builder();
        b.workload("mcf")
            .technique(rar_core::Technique::Rar)
            .warmup(300)
            .instructions(2000);
        b.build()
    };
    let direct = Simulation::run(&cfg);
    assert_eq!(
        over_http.body,
        json::to_json_for(&cfg, &direct),
        "HTTP result must be byte-identical to the engine's JSON"
    );

    server.stop();
}

#[test]
fn concurrent_overlapping_grids_share_each_cell() {
    let scratch = Scratch::new("dedup");
    let (server, client) = boot(&scratch, 2);

    // Two 2-cell grids overlapping on every cell, submitted back to
    // back; with two workers they run concurrently. Whether each cell
    // dedups through the single-flight gate or the result cache, the
    // engine must simulate each unique cell exactly once.
    let spec = "{\"kind\":\"sweep\",\"workloads\":[\"mcf\"],\
                \"techniques\":[\"ooo\",\"rar\"],\"seeds\":[1],\
                \"instructions\":2000,\"warmup\":300}";
    let a = client.request("POST", "/v1/jobs", spec).expect("submit a");
    let b = client.request("POST", "/v1/jobs", spec).expect("submit b");
    assert_eq!((a.status, b.status), (201, 201));

    for resp in [&a, &b] {
        let done = client
            .wait_for_job(submitted_id(&resp.body), Duration::from_secs(120))
            .expect("job finishes");
        assert!(
            done.body.contains("\"status\":\"completed\""),
            "{}",
            done.body
        );
        // Both jobs still get full results (one document per cell).
        assert_eq!(
            done.body.matches("\"config_fingerprint\"").count(),
            2,
            "{}",
            done.body
        );
    }

    let metrics = client.request("GET", "/metrics", "").expect("metrics");
    let simulated = prom_value(&metrics.body, names::SWEEP_CELLS_SIMULATED);
    assert_eq!(
        simulated, 2.0,
        "2 unique cells across 2 overlapping jobs must simulate exactly twice:\n{}",
        metrics.body
    );

    server.stop();
}

#[test]
fn burst_submissions_all_run_despite_the_claim_wake_race() {
    let scratch = Scratch::new("burst");
    let (server, client) = boot(&scratch, 2);

    // Regression test: `queue.submit` wakes a worker before submit_route
    // used to register the job handle; a worker winning that race found
    // no handle and silently dropped the job, leaving it "queued"
    // forever (observed deterministically against the live binary). A
    // back-to-back burst maximizes the exposure; every job must settle.
    let spec = "{\"kind\":\"single\",\"workload\":\"mcf\",\"technique\":\"ooo\",\
                \"instructions\":500,\"warmup\":100}";
    let mut ids = Vec::new();
    for _ in 0..8 {
        let resp = client.request("POST", "/v1/jobs", spec).expect("submit");
        assert_eq!(resp.status, 201, "{}", resp.body);
        ids.push(submitted_id(&resp.body));
    }
    for id in ids {
        let done = client
            .wait_for_job(id, Duration::from_secs(120))
            .expect("burst job must not be dropped by the wake race");
        assert!(
            done.body.contains("\"status\":\"completed\""),
            "job {id}: {}",
            done.body
        );
    }

    server.stop();
}

#[test]
fn canceling_a_queued_job_never_runs_it() {
    let scratch = Scratch::new("cancel");
    // No workers: everything stays queued, cancellation is deterministic.
    let (server, client) = boot(&scratch, 0);

    let spec = "{\"kind\":\"inject\",\"workload\":\"mcf\",\"samples\":50,\
                \"inject_seed\":7,\"instructions\":2000,\"warmup\":300}";
    let id = submitted_id(
        &client
            .request("POST", "/v1/jobs", spec)
            .expect("submit")
            .body,
    );

    let gone = client
        .request("DELETE", &format!("/v1/jobs/{id}"), "")
        .expect("cancel");
    assert_eq!(gone.status, 200);
    let status = client
        .request("GET", &format!("/v1/jobs/{id}"), "")
        .expect("status");
    assert!(
        status.body.contains("\"status\":\"canceled\""),
        "{}",
        status.body
    );

    let metrics = client.request("GET", "/metrics", "").expect("metrics");
    assert_eq!(prom_value(&metrics.body, names::SERVE_JOBS_CANCELED), 1.0);
    assert_eq!(prom_value(&metrics.body, names::SERVE_JOBS_ACTIVE), 0.0);

    server.stop();
}

#[test]
fn restart_resumes_the_journaled_queue() {
    let scratch = Scratch::new("resume");
    let spec = "{\"kind\":\"single\",\"workload\":\"mcf\",\"technique\":\"ooo\",\
                \"instructions\":2000,\"warmup\":300}";

    // Phase 1: a worker-less daemon accepts the job and is stopped with
    // the job still queued — the journal is the only survivor.
    let id = {
        let (server, client) = boot(&scratch, 0);
        let id = submitted_id(
            &client
                .request("POST", "/v1/jobs", spec)
                .expect("submit")
                .body,
        );
        server.stop();
        id
    };

    // Phase 2: a fresh daemon on the same data dir resumes and runs it.
    let (server, client) = boot(&scratch, 1);
    let done = client
        .wait_for_job(id, Duration::from_secs(120))
        .expect("resumed job finishes");
    assert!(
        done.body.contains("\"status\":\"completed\""),
        "{}",
        done.body
    );

    let metrics = client.request("GET", "/metrics", "").expect("metrics");
    assert_eq!(prom_value(&metrics.body, names::SERVE_JOBS_RESUMED), 1.0);

    server.stop();
}

#[test]
fn events_stream_heartbeats_until_terminal() {
    let scratch = Scratch::new("events");
    let (server, client) = boot(&scratch, 1);

    let spec = "{\"kind\":\"single\",\"workload\":\"mcf\",\"technique\":\"ooo\",\
                \"instructions\":2000,\"warmup\":300}";
    let id = submitted_id(
        &client
            .request("POST", "/v1/jobs", spec)
            .expect("submit")
            .body,
    );

    let mut chunks = Vec::new();
    let resp = client
        .stream("GET", &format!("/v1/jobs/{id}/events"), "", &mut |c| {
            chunks.push(c.to_owned());
        })
        .expect("events stream");
    assert_eq!(resp.status, 200);
    assert!(!chunks.is_empty());
    assert!(
        resp.body.contains(&format!("job {id} completed")),
        "{}",
        resp.body
    );

    server.stop();
}

#[test]
fn unknown_routes_and_jobs_are_404s_and_bad_specs_400() {
    let scratch = Scratch::new("errors");
    let (server, client) = boot(&scratch, 0);

    assert_eq!(client.request("GET", "/nope", "").expect("req").status, 404);
    assert_eq!(
        client
            .request("GET", "/v1/jobs/999", "")
            .expect("req")
            .status,
        404
    );
    let bad = client
        .request("POST", "/v1/jobs", "{\"kind\":\"dance\"}")
        .expect("req");
    assert_eq!(bad.status, 400);
    assert!(bad.body.contains("dance"), "{}", bad.body);
    // Over a job-spec limit: refused before anything is queued (and this
    // daemon has no workers to start it anyway).
    let greedy = client
        .request(
            "POST",
            "/v1/jobs",
            "{\"kind\":\"inject\",\"workload\":\"mcf\",\"threads\":1000000}",
        )
        .expect("req");
    assert_eq!(greedy.status, 400);
    assert!(greedy.body.contains("\"threads\""), "{}", greedy.body);

    server.stop();
}

#[test]
fn trace_endpoint_nests_request_job_cell_phase() {
    let scratch = Scratch::new("trace");
    let (server, client) = boot(&scratch, 1);

    let spec = "{\"kind\":\"single\",\"workload\":\"mcf\",\"technique\":\"rar\",\
                \"instructions\":2000,\"warmup\":300}";
    let id = submitted_id(
        &client
            .request("POST", "/v1/jobs", spec)
            .expect("submit")
            .body,
    );
    let done = client
        .wait_for_job(id, Duration::from_secs(120))
        .expect("job finishes");
    assert!(
        done.body.contains("\"status\":\"completed\""),
        "{}",
        done.body
    );

    let trace = client
        .request("GET", &format!("/v1/jobs/{id}/trace"), "")
        .expect("trace fetch");
    assert_eq!(trace.status, 200);
    rar_trace::jsonv::validate(&trace.body).expect("trace is valid JSON");

    // The span tree nests request → queue_wait / job → cell → phase.
    let (request_id, request_parent) = span_ids(&trace.body, "request");
    let (queue_id, queue_parent) = span_ids(&trace.body, "queue_wait");
    let (job_id, job_parent) = span_ids(&trace.body, "job");
    let (cell_id, cell_parent) = span_ids(&trace.body, "cell");
    let (_, core_sim_parent) = span_ids(&trace.body, "core_sim");
    assert_eq!(request_parent, 0, "request is the root");
    assert_eq!(queue_parent, request_id);
    assert_eq!(job_parent, request_id);
    assert_eq!(cell_parent, job_id);
    assert_eq!(core_sim_parent, cell_id, "phase leaves hang off the cell");
    assert_ne!(queue_id, job_id);

    // Unknown jobs 404 like every other job route.
    let missing = client
        .request("GET", "/v1/jobs/999/trace", "")
        .expect("missing trace");
    assert_eq!(missing.status, 404);

    server.stop();
}

#[test]
fn status_and_metrics_carry_queue_wait_and_request_latency() {
    let scratch = Scratch::new("latency");
    let (server, client) = boot(&scratch, 1);

    let spec = "{\"kind\":\"single\",\"workload\":\"mcf\",\"technique\":\"ooo\",\
                \"instructions\":500,\"warmup\":100}";
    let id = submitted_id(
        &client
            .request("POST", "/v1/jobs", spec)
            .expect("submit")
            .body,
    );
    let done = client
        .wait_for_job(id, Duration::from_secs(120))
        .expect("job finishes");
    assert!(
        done.body.contains("\"queue_wait_seconds\":"),
        "claimed job status must report its queue wait: {}",
        done.body
    );

    let metrics = client.request("GET", "/metrics", "").expect("metrics");
    // The queue-wait gauge and the base latency histogram exist, and the
    // status polls above landed in the per-endpoint series with derived
    // percentiles.
    assert!(
        metrics
            .body
            .contains(&format!("{} ", names::SERVE_QUEUE_WAIT_SECONDS)),
        "{}",
        metrics.body
    );
    assert!(
        prom_value(
            &metrics.body,
            &format!("{}_count", names::SERVE_REQUEST_NANOS)
        ) >= 2.0,
        "{}",
        metrics.body
    );
    for series in [
        format!(
            "{}_count{{endpoint=\"submit\"}}",
            names::SERVE_REQUEST_NANOS
        ),
        format!(
            "{}_count{{endpoint=\"status\"}}",
            names::SERVE_REQUEST_NANOS
        ),
        format!("{}_p99{{endpoint=\"status\"}}", names::SERVE_REQUEST_NANOS),
    ] {
        assert!(
            metrics.body.contains(&series),
            "{series} missing from:\n{}",
            metrics.body
        );
    }

    server.stop();
}

/// Extracts the `(id, parent)` args of the first span named `name` in a
/// Chrome trace document.
fn span_ids(doc: &str, name: &str) -> (u64, u64) {
    let start = doc
        .find(&format!("\"name\":\"{name}\",\"cat\":\"span\""))
        .unwrap_or_else(|| panic!("span {name} missing from:\n{doc}"));
    let record = &doc[start..];
    let record = &record[..record.find('}').expect("args close") + 1];
    let grab = |key: &str| -> u64 {
        let at = record.find(key).expect("arg present") + key.len();
        record[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .expect("arg parses")
    };
    (grab("\"id\":"), grab("\"parent\":"))
}

/// Extracts a gauge/counter value from Prometheus text.
fn prom_value(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("{name} missing from:\n{text}"))
        .trim()
        .parse()
        .expect("metric value parses")
}
