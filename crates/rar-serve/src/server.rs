//! The campaign daemon: routes, worker pool, and job lifecycle.
//!
//! One [`CampaignServer`] owns a single long-lived
//! [`SweepSession`] shared by every job — so the content-addressed
//! result cache, the in-memory memoization stores, and the single-flight
//! deduplication gate all span tenants: two jobs that ask for the same
//! cell concurrently trigger exactly one simulation (one leads, one
//! subscribes), and a cell any past job finished replays from cache.
//! Fault-injection jobs journal per job under the data directory, so a
//! killed-and-restarted daemon resumes campaigns injection-exactly.
//!
//! Threads: one acceptor feeds accepted connections to a bounded pool of
//! connection handlers (requests are short-lived except the chunked
//! `/v1/jobs/{id}/events` stream); a separate pool of job workers drains
//! the priority queue. Every job carries a [`CancelToken`] checked at
//! unit-of-work boundaries — `DELETE /v1/jobs/{id}` is cooperative and
//! never tears a simulation or a journal.
//!
//! Routes:
//!
//! | method & path                  | effect                                   |
//! |--------------------------------|------------------------------------------|
//! | `POST /v1/jobs`                | submit a [`JobSpec`]; returns `{"id":N}` |
//! | `GET /v1/jobs/{id}`            | status + partial results                 |
//! | `GET /v1/jobs/{id}/results/{i}`| one raw result document (byte-stable)    |
//! | `DELETE /v1/jobs/{id}`         | cooperative cancellation                 |
//! | `GET /v1/jobs/{id}/events`     | chunked live progress stream             |
//! | `GET /metrics`                 | live Prometheus text (server + session)  |
//! | `GET /healthz`                 | liveness: 200 while the process serves   |
//! | `GET /readyz`                  | readiness: 503 when draining/no workers  |
//! | `POST /v1/shutdown`            | shutdown; body `{"mode":"drain"}` drains |
//!
//! Resilience: worker threads run under supervisors that requeue the
//! claimed job and respawn the worker if it panics (bounded respawns);
//! submissions are refused with `429` + `Retry-After` while the queue is
//! at capacity and with `503` during a drain; every connection carries a
//! socket deadline so a wedged peer times out with `408` instead of
//! pinning a handler thread. The `rar-chaos` fail-point fabric is
//! threaded through the queue journal, the worker pool and the HTTP
//! layer (inert unless the `chaos` feature is enabled and a plan is
//! installed).

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rar_chaos::sites;
use rar_core::FaultTarget;
use rar_inject::CampaignSpec;
use rar_sim::inject::{paired, paired_journal, run_injection_campaign};
use rar_sim::sweep::RunError;
use rar_sim::{json, SimConfig, SweepSession};
use rar_telemetry::{
    export, names, CancelToken, Counter, FlightRecorder, Gauge, Histogram, MetricsRegistry,
    ProgressReporter, ProgressSnapshot, SpanId, SpanLog, SpanProfiler, SpanRecorder,
    ThreadParentGuard, DEFAULT_FLIGHT_CAPACITY,
};
use rar_trace::chrome::{spans_to_chrome_json, SpanSlice};

use crate::http::{
    end_chunks, lock, read_request, respond, respond_error, respond_with_headers, start_chunked,
    write_chunk, HttpError, Request, RequestError,
};
use crate::jobs::{field, InjectJob, JobKind, JobPhase, JobSpec, SweepJob};
use crate::queue::{JobQueue, QueuedJob};

/// How a daemon is configured; all knobs have serviceable defaults.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address; port 0 picks an ephemeral port (tests).
    pub addr: String,
    /// Where the queue journal, campaign journals and result cache live.
    pub data_dir: PathBuf,
    /// Job workers draining the priority queue.
    pub workers: usize,
    /// Connection-handler threads (the HTTP pool bound).
    pub conn_threads: usize,
    /// Whether to keep the on-disk result cache (under `data_dir/cache`).
    pub cache: bool,
    /// Queue-journal records per fsync batch.
    pub fsync_every: usize,
    /// Most jobs allowed queued (not yet claimed) before submissions are
    /// refused with `429` + `Retry-After` (bounded-queue backpressure).
    pub max_queued: usize,
    /// Per-connection socket deadline: a peer that stops reading or
    /// writing for this long gets `408` (or a closed socket) instead of
    /// pinning a handler thread forever.
    pub request_timeout: Duration,
    /// Panicked-worker respawns each supervisor allows before retiring
    /// its slot (the job it was running is failed, not requeued, once
    /// the budget is spent — at that point the job is the likely cause).
    pub worker_restarts: u32,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_owned(),
            data_dir: PathBuf::from("results/serve"),
            workers: 2,
            conn_threads: 4,
            cache: true,
            fsync_every: 8,
            max_queued: 256,
            request_timeout: Duration::from_secs(30),
            worker_restarts: 3,
        }
    }
}

/// Telemetry handles for the daemon, registered eagerly so every
/// `names::SERVE_ALL` metric exists (at zero) from the first scrape.
struct ServeCounters {
    http_requests: Counter,
    submitted: Counter,
    completed: Counter,
    canceled: Counter,
    failed: Counter,
    resumed: Counter,
    active: Gauge,
    workers: Gauge,
    /// Request latency over every endpoint; per-endpoint histograms are
    /// registered lazily under `rar_serve_request_nanos{endpoint="..."}`.
    request_nanos: Histogram,
    /// Queue wait of the most recently claimed job, in seconds.
    queue_wait: Gauge,
    /// Submissions refused with 429 because the bounded queue was full.
    rejected: Counter,
    /// Panicked worker threads respawned by their supervisors.
    worker_restarts: Counter,
    /// Transient queue-journal append failures absorbed by retry (the
    /// handle is cloned into the [`JobQueue`], which does the counting).
    journal_retries: Counter,
}

impl ServeCounters {
    fn register(reg: &MetricsRegistry) -> ServeCounters {
        ServeCounters {
            http_requests: reg.counter(names::SERVE_HTTP_REQUESTS),
            submitted: reg.counter(names::SERVE_JOBS_SUBMITTED),
            completed: reg.counter(names::SERVE_JOBS_COMPLETED),
            canceled: reg.counter(names::SERVE_JOBS_CANCELED),
            failed: reg.counter(names::SERVE_JOBS_FAILED),
            resumed: reg.counter(names::SERVE_JOBS_RESUMED),
            active: reg.gauge(names::SERVE_JOBS_ACTIVE),
            workers: reg.gauge(names::SERVE_WORKERS),
            request_nanos: reg.histogram(names::SERVE_REQUEST_NANOS),
            queue_wait: reg.gauge(names::SERVE_QUEUE_WAIT_SECONDS),
            rejected: reg.counter(names::SERVE_JOBS_REJECTED),
            worker_restarts: reg.counter(names::SERVE_WORKER_RESTARTS),
            journal_retries: reg.counter(names::SERVE_JOURNAL_RETRIES),
        }
    }
}

/// Every endpoint label the per-endpoint latency histograms can carry
/// (the `endpoint-coverage` repo lint checks routes against this list).
pub const ENDPOINTS: [&str; 11] = [
    "submit", "metrics", "healthz", "readyz", "status", "result", "cancel", "events", "trace",
    "shutdown", "other",
];

/// Maps a parsed request to its latency-histogram endpoint label.
fn endpoint_label(method: &str, segs: &[&str]) -> &'static str {
    match (method, segs) {
        ("POST", ["v1", "jobs"]) => "submit",
        ("GET", ["metrics"]) => "metrics",
        ("GET", ["healthz"]) => "healthz",
        ("GET", ["readyz"]) => "readyz",
        ("GET", ["v1", "jobs", _]) => "status",
        ("GET", ["v1", "jobs", _, "results", _]) => "result",
        ("DELETE", ["v1", "jobs", _]) => "cancel",
        ("GET", ["v1", "jobs", _, "events"]) => "events",
        ("GET", ["v1", "jobs", _, "trace"]) => "trace",
        ("POST", ["v1", "shutdown"]) => "shutdown",
        _ => "other",
    }
}

/// Mutable job state behind the handle's lock.
struct JobProgress {
    phase: JobPhase,
    completed: u64,
    failed: u64,
    total: u64,
    /// One rendered JSON document per finished unit that produces one
    /// (sweep cells; the inject tally when the campaign completes).
    results: Vec<String>,
    error: Option<String>,
    /// Nanoseconds the job sat queued before a worker claimed it.
    queue_wait_nanos: Option<u64>,
    /// The post-mortem flight-recorder dump, when the job crashed, timed
    /// out, or recorded an injection DUE (already a JSON document).
    flight: Option<String>,
}

/// One job as the server tracks it: immutable identity + spec, a cancel
/// token, and locked progress.
pub struct JobHandle {
    id: u64,
    spec: JobSpec,
    cancel: CancelToken,
    state: Mutex<JobProgress>,
    /// Root of this job's causal span tree (`request`).
    request_span: SpanId,
    /// The `queue_wait` child span, open until a worker claims the job.
    queue_span: SpanId,
    /// When the job entered the queue (for the queue-wait metric).
    submitted: Instant,
}

impl JobHandle {
    fn new(job: &QueuedJob, spans: &SpanLog) -> Arc<JobHandle> {
        let request_span = spans.start("request", SpanId::NONE);
        let queue_span = spans.start("queue_wait", request_span);
        Arc::new(JobHandle {
            id: job.id,
            spec: job.spec.clone(),
            cancel: CancelToken::new(),
            state: Mutex::new(JobProgress {
                phase: JobPhase::Queued,
                completed: 0,
                failed: 0,
                total: job.spec.total_units(),
                results: Vec::new(),
                error: None,
                queue_wait_nanos: None,
                flight: None,
            }),
            request_span,
            queue_span,
            submitted: Instant::now(),
        })
    }

    /// Status + partial results as the `GET /v1/jobs/{id}` body.
    fn status_json(&self) -> Result<String, HttpError> {
        let st = lock(&self.state, "job state")?;
        let mut out = format!(
            "{{\"id\":{},\"status\":\"{}\",\"priority\":{},\"completed\":{},\"failed\":{},\"total\":{}",
            self.id,
            st.phase.name(),
            self.spec.priority,
            st.completed,
            st.failed,
            st.total
        );
        if let Some(nanos) = st.queue_wait_nanos {
            out.push_str(&format!(
                ",\"queue_wait_seconds\":{:.6}",
                nanos as f64 / 1e9
            ));
        }
        if let Some(err) = &st.error {
            out.push_str(",\"error\":\"");
            out.push_str(&rar_trace::jsonv::escape(err));
            out.push('"');
        }
        if let Some(flight) = &st.flight {
            out.push_str(",\"flight\":");
            out.push_str(flight.trim_end());
        }
        out.push_str(",\"results\":[");
        for (i, r) in st.results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(r.trim_end());
        }
        out.push_str("]}\n");
        Ok(out)
    }

    fn snapshot(&self) -> Result<(JobPhase, ProgressSnapshot), HttpError> {
        let st = lock(&self.state, "job state")?;
        Ok((
            st.phase,
            ProgressSnapshot {
                completed: st.completed,
                cache_hits: 0,
                failed: st.failed,
                busy_nanos: 0,
                threads: 1,
            },
        ))
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

struct ServerInner {
    session: SweepSession<SpanProfiler>,
    queue: JobQueue,
    jobs: Mutex<BTreeMap<u64, Arc<JobHandle>>>,
    registry: MetricsRegistry,
    counters: ServeCounters,
    data_dir: PathBuf,
    shutdown: CancelToken,
    /// Set by a drain: stop accepting work, let claimed jobs finish,
    /// then shut down (the last live worker slot finalizes).
    draining: CancelToken,
    /// Bounded-queue backpressure threshold (`ServeOptions::max_queued`).
    max_queued: usize,
    /// Per-connection socket deadline (`ServeOptions::request_timeout`).
    request_timeout: Duration,
    /// Worker slots not yet retired; readiness and drain finalization
    /// both key off this.
    workers_alive: AtomicUsize,
    addr: SocketAddr,
    /// The daemon-wide causal span log every job's tree lives in.
    spans: Arc<SpanLog>,
    /// The crash flight recorder shared by the workers and the session.
    flight: Arc<FlightRecorder>,
}

/// A running daemon; dropping it does NOT stop it — call
/// [`CampaignServer::stop`] (tests) or [`CampaignServer::wait`] (CLI).
pub struct CampaignServer {
    inner: Arc<ServerInner>,
    threads: Vec<JoinHandle<()>>,
}

impl CampaignServer {
    /// Binds, replays the queue journal, and starts every thread.
    ///
    /// # Errors
    ///
    /// Bind failures, unreadable/corrupt queue journal, unwritable data
    /// directory.
    pub fn start(opts: ServeOptions) -> io::Result<CampaignServer> {
        std::fs::create_dir_all(&opts.data_dir)?;
        let listener = TcpListener::bind(&opts.addr)?;
        let addr = listener.local_addr()?;
        // Registry first: the queue needs its retry counter from the
        // first journal replay onward.
        let registry = MetricsRegistry::new();
        let counters = ServeCounters::register(&registry);
        // Zero workers is legitimate (accept-and-journal only; tests use
        // it to pin jobs in the queued state).
        let workers = opts.workers;
        counters.workers.set(workers as f64);
        let journal = opts.data_dir.join("queue.jsonl");
        let (queue, resumed) = JobQueue::open(
            Some(&journal),
            opts.fsync_every,
            counters.journal_retries.clone(),
        )?;
        let spans = Arc::new(SpanLog::new());
        let flight = Arc::new(FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY));
        let profiler = SpanProfiler::new(Arc::clone(&spans));
        let session = if opts.cache {
            SweepSession::with_profiler_and_disk_cache(opts.data_dir.join("cache"), profiler)
        } else {
            SweepSession::with_profiler(profiler)
        }
        .with_flight_recorder(Arc::clone(&flight));
        let inner = Arc::new(ServerInner {
            session,
            queue,
            jobs: Mutex::new(BTreeMap::new()),
            registry,
            counters,
            data_dir: opts.data_dir.clone(),
            shutdown: CancelToken::new(),
            draining: CancelToken::new(),
            max_queued: opts.max_queued.max(1),
            request_timeout: opts.request_timeout,
            workers_alive: AtomicUsize::new(workers),
            addr,
            spans,
            flight,
        });
        // Single-threaded startup: the jobs lock cannot be poisoned yet,
        // but the request-path discipline (no panicking lock
        // acquisitions) applies here too.
        if let Ok(mut jobs) = lock(&inner.jobs, "jobs") {
            for job in &resumed {
                jobs.insert(job.id, JobHandle::new(job, &inner.spans));
                inner.counters.resumed.inc();
                inner.counters.submitted.inc();
            }
        }
        if let Err(e) = inner.refresh_active() {
            eprintln!("[rar-serve] startup: {e}");
        }

        let mut threads = Vec::new();
        for index in 0..workers {
            let inner = Arc::clone(&inner);
            let budget = opts.worker_restarts;
            threads.push(std::thread::spawn(move || {
                inner.supervise_worker(index, budget);
            }));
        }
        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        for _ in 0..opts.conn_threads.max(1) {
            let inner = Arc::clone(&inner);
            let conn_rx = Arc::clone(&conn_rx);
            threads.push(std::thread::spawn(move || loop {
                // A poisoned receiver lock means a sibling handler
                // panicked mid-recv; this handler retires rather than
                // panicking the whole pool in cascade.
                let next = match lock(&conn_rx, "conn rx") {
                    Ok(rx) => rx.recv(),
                    Err(_) => break,
                };
                match next {
                    Ok(mut stream) => inner.handle_connection(&mut stream),
                    Err(_) => break,
                }
            }));
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if inner.shutdown.is_canceled() {
                        break;
                    }
                    if let Ok(stream) = stream {
                        // A send can only fail after shutdown dropped the
                        // handlers; the connection is simply closed.
                        let _ = conn_tx.send(stream);
                    }
                }
                drop(conn_tx);
            }));
        }
        Ok(CampaignServer { inner, threads })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// The daemon's own metrics registry (`SERVE_*`, plus `INJECT_*`
    /// once an injection job has run).
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.inner.registry
    }

    /// The shared sweep engine's registry (`SWEEP_*` and guest stats).
    #[must_use]
    pub fn session_registry(&self) -> &MetricsRegistry {
        self.inner.session.registry()
    }

    /// Begins a graceful shutdown: stop accepting, stop claiming jobs.
    /// Jobs already running finish (cancel them first if needed); queued
    /// jobs stay journaled for the next start.
    pub fn initiate_shutdown(&self) {
        self.inner.initiate_shutdown();
    }

    /// Begins a graceful drain: readiness flips to 503, new submissions
    /// are refused, jobs already claimed run to completion, queued jobs
    /// stay journaled for the next start — then the daemon shuts itself
    /// down (the last worker slot to exit finalizes).
    pub fn initiate_drain(&self) {
        self.inner.initiate_drain();
    }

    /// Blocks until every server thread exits (i.e. until shutdown).
    pub fn wait(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// [`CampaignServer::initiate_shutdown`] + [`CampaignServer::wait`].
    pub fn stop(self) {
        self.initiate_shutdown();
        self.wait();
    }

    /// [`CampaignServer::initiate_drain`] + [`CampaignServer::wait`].
    pub fn drain(self) {
        self.initiate_drain();
        self.wait();
    }
}

impl ServerInner {
    fn initiate_shutdown(&self) {
        self.shutdown.cancel();
        self.queue.close();
        // Unblock the acceptor, which is parked in accept().
        let _ = TcpStream::connect(self.addr);
    }

    fn initiate_drain(&self) {
        self.draining.cancel();
        // Closing the queue lets each worker finish its current job and
        // exit; the last supervisor out calls `initiate_shutdown`. HTTP
        // stays up meanwhile so status, results and metrics remain
        // scrapeable while claimed jobs run out.
        self.queue.close();
        if self.workers_alive.load(Ordering::Acquire) == 0 {
            // Every slot already retired (e.g. exhausted restart
            // budgets): nobody is left to finalize the drain.
            self.initiate_shutdown();
        }
    }

    // ---- worker supervision --------------------------------------------

    /// Runs one worker slot under supervision: jobs are claimed on a
    /// child thread, and if that thread panics the supervisor requeues
    /// the job it had claimed and respawns it — at most `budget` times,
    /// after which the claimed job is failed (at that point the job
    /// itself is the likely culprit) and the slot retires. The last live
    /// slot to exit during a drain finalizes the shutdown.
    fn supervise_worker(self: &Arc<Self>, index: usize, budget: u32) {
        let mut restarts = 0u32;
        loop {
            let claimed: Arc<Mutex<Option<QueuedJob>>> = Arc::new(Mutex::new(None));
            let worker = {
                let inner = Arc::clone(self);
                let claimed = Arc::clone(&claimed);
                std::thread::spawn(move || inner.worker_loop(&claimed))
            };
            if worker.join().is_ok() {
                break; // queue closed: a clean exit, not a crash
            }
            // The worker panicked. Recover the job it had claimed — the
            // slot lock is only ever held for a store, so even a poisoned
            // lock still yields the job.
            let orphan = claimed
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take();
            restarts += 1;
            if restarts > budget {
                eprintln!(
                    "[rar-serve] worker {index}: panicked {restarts} times, retiring the slot"
                );
                if let Some(job) = orphan {
                    self.fail_orphaned_job(&job);
                }
                break;
            }
            self.counters.worker_restarts.inc();
            self.flight.note(
                "worker_restart",
                &format!("worker {index} respawned after a panic ({restarts}/{budget})"),
            );
            if let Some(job) = orphan {
                self.requeue_orphaned_job(job);
            }
        }
        // Slot accounting: readiness keys off live slots, and the last
        // slot out of a drain completes the shutdown (the queue is
        // already closed then, so no claim can race the handoff).
        let left = self.workers_alive.fetch_sub(1, Ordering::AcqRel) - 1;
        self.counters.workers.set(left as f64);
        if left == 0 && self.draining.is_canceled() {
            self.initiate_shutdown();
        }
    }

    /// The claim loop a supervised worker thread runs. Each claimed job
    /// is parked in the slot before it runs, so the supervisor can
    /// recover exactly this job if the thread dies under it.
    fn worker_loop(self: &Arc<Self>, claimed: &Mutex<Option<QueuedJob>>) {
        while let Some(job) = self.queue.claim() {
            if let Ok(mut slot) = claimed.lock() {
                *slot = Some(job.clone());
            }
            // The worker-panic fail-point fires here — after the claim is
            // parked — so chaos runs prove the requeue path converges.
            rar_chaos::maybe_panic(sites::SERVE_WORKER_PANIC);
            self.run_job(&job);
            if let Ok(mut slot) = claimed.lock() {
                *slot = None;
            }
        }
    }

    /// Returns a panicked worker's claimed job to the queue, resetting
    /// its handle so the next claim runs it from the top (sweep cells
    /// replay from the result cache; injections resume from their
    /// campaign journals). No journal write: the job's `submitted` event
    /// is still its latest durable word, exactly as if never claimed.
    fn requeue_orphaned_job(&self, job: QueuedJob) {
        if let Ok(Some(handle)) = self.handle(job.id) {
            if let Ok(mut st) = lock(&handle.state, "job state") {
                if !st.phase.is_terminal() {
                    st.phase = JobPhase::Queued;
                    st.completed = 0;
                    st.failed = 0;
                    st.results.clear();
                    st.error = None;
                }
            }
        }
        self.flight.note(
            "worker_requeue",
            &format!("job {} requeued after a worker panic", job.id),
        );
        self.queue.requeue(job);
    }

    /// Fails the job a retiring worker slot had claimed: after the full
    /// restart budget died under the same job, requeueing it again would
    /// only grind the remaining slots down too.
    fn fail_orphaned_job(&self, job: &QueuedJob) {
        if let Ok(Some(handle)) = self.handle(job.id) {
            if let Err(e) = self.dump_flight(&handle, "worker_retired") {
                eprintln!("[rar-serve] job {}: {e}", job.id);
            }
            if let Ok(mut st) = lock(&handle.state, "job state") {
                if !st.phase.is_terminal() {
                    st.phase = JobPhase::Failed;
                    st.error =
                        Some("worker thread panicked repeatedly running this job".to_owned());
                }
            }
        }
        self.queue.record_terminal(job.id, JobPhase::Failed);
        self.counters.failed.inc();
        if let Err(e) = self.refresh_active() {
            eprintln!("[rar-serve] job {}: {e}", job.id);
        }
    }

    fn handle(&self, id: u64) -> Result<Option<Arc<JobHandle>>, HttpError> {
        Ok(lock(&self.jobs, "jobs")?.get(&id).cloned())
    }

    /// Recomputes the queued-or-running gauge.
    fn refresh_active(&self) -> Result<(), HttpError> {
        let jobs = lock(&self.jobs, "jobs")?;
        let mut active = 0usize;
        for h in jobs.values() {
            if !lock(&h.state, "job state")?.phase.is_terminal() {
                active += 1;
            }
        }
        self.counters.active.set(active as f64);
        Ok(())
    }

    // ---- job execution -------------------------------------------------

    fn run_job(self: &Arc<Self>, job: &QueuedJob) {
        // Worker context, no stream to answer on: a poisoned lock is
        // logged and the job is abandoned in place (the queue journal
        // still holds it for the next daemon start).
        if let Err(e) = self.try_run_job(job) {
            eprintln!("[rar-serve] job {}: {e}", job.id);
        }
    }

    fn try_run_job(self: &Arc<Self>, job: &QueuedJob) -> Result<(), HttpError> {
        let Some(handle) = self.handle(job.id)? else {
            // Cannot happen: submit_route registers the handle under the
            // jobs lock before the queue can wake a worker, and startup
            // registers resumed handles before workers spawn. Logged
            // rather than silently dropped — the journal still holds the
            // job for the next start.
            eprintln!("[rar-serve] job {}: claimed with no handle", job.id);
            return Ok(());
        };
        {
            let mut st = lock(&handle.state, "job state")?;
            if st.phase != JobPhase::Queued {
                // Canceled between submission and claim; already journaled.
                return Ok(());
            }
            st.phase = JobPhase::Running;
            // The queue wait ends the moment a worker claims the job.
            let waited = handle.submitted.elapsed();
            st.queue_wait_nanos = Some(u64::try_from(waited.as_nanos()).unwrap_or(u64::MAX));
            self.counters.queue_wait.set(waited.as_secs_f64());
        }
        self.spans.finish(handle.queue_span);
        let job_span = self.spans.start("job", handle.request_span);
        self.flight.note(
            "job_start",
            &format!("job {} [{}]", job.id, handle.spec.to_json()),
        );
        let phase = if handle.cancel.is_canceled() {
            JobPhase::Canceled
        } else {
            // The guard parents the per-cell spans the sweep path opens;
            // catch_unwind turns a panicking job into a Failed status plus
            // a flight-recorder dump instead of a dead worker thread.
            let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _guard = ThreadParentGuard::enter(job_span);
                match &handle.spec.kind {
                    JobKind::Sweep(s) => self.run_sweep_job(&handle, job_span, s),
                    JobKind::Inject(i) => self.run_inject_job(&handle, i),
                }
            }));
            match ran {
                Ok(phase) => phase?,
                Err(payload) => {
                    let what = panic_message(payload.as_ref());
                    self.flight
                        .note("job_panic", &format!("job {}: {what}", job.id));
                    self.dump_flight(&handle, "panic")?;
                    let mut st = lock(&handle.state, "job state")?;
                    st.error = Some(format!("job panicked: {what}"));
                    JobPhase::Failed
                }
            }
        };
        self.spans.finish(job_span);
        self.spans.finish(handle.request_span);
        self.flight
            .note("job_done", &format!("job {} {}", job.id, phase.name()));
        lock(&handle.state, "job state")?.phase = phase;
        self.queue.record_terminal(job.id, phase);
        match phase {
            JobPhase::Completed => self.counters.completed.inc(),
            JobPhase::Canceled => self.counters.canceled.inc(),
            _ => self.counters.failed.inc(),
        }
        self.refresh_active()
    }

    /// Writes the flight recorder's post-mortem dump to the data
    /// directory and attaches it to the job's status document.
    fn dump_flight(&self, handle: &JobHandle, reason: &str) -> Result<(), HttpError> {
        let dump = self.flight.dump_json(reason);
        let path = self.data_dir.join(format!("flight-{}.json", handle.id));
        if let Err(e) = std::fs::write(&path, &dump) {
            eprintln!("[rar-serve] job {}: flight dump: {e}", handle.id);
        }
        lock(&handle.state, "job state")?.flight = Some(dump);
        Ok(())
    }

    /// Sweep jobs run cell by cell through the shared session: each cell
    /// lands in the live result list as soon as it finishes (partial
    /// results), and the cancel token is honored between cells. Dedup
    /// against concurrent jobs comes from the session's single-flight
    /// gate; dedup against past jobs from its result cache. Each cell
    /// gets a `cell` span under the job span; the session's profiler
    /// hangs the phase leaves off it via the thread-local parent.
    fn run_sweep_job(
        &self,
        handle: &JobHandle,
        job_span: SpanId,
        sweep: &SweepJob,
    ) -> Result<JobPhase, HttpError> {
        for cfg in sweep.configs() {
            if handle.cancel.is_canceled() {
                return Ok(JobPhase::Canceled);
            }
            let cell_span = self.spans.start("cell", job_span);
            let outcome = {
                let _guard = ThreadParentGuard::enter(cell_span);
                self.session.run(&cfg)
            };
            self.spans.finish(cell_span);
            match outcome {
                Ok(result) => {
                    let mut st = lock(&handle.state, "job state")?;
                    st.results.push(json::to_json_for(&cfg, &result));
                    st.completed += 1;
                }
                Err(e) => {
                    if matches!(e, RunError::Timeout { .. }) {
                        self.dump_flight(handle, "watchdog_timeout")?;
                    }
                    let mut st = lock(&handle.state, "job state")?;
                    st.failed += 1;
                    st.error = Some(format!("{}/{}: {e}", cfg.workload, cfg.technique));
                }
            }
        }
        let st = lock(&handle.state, "job state")?;
        Ok(if st.failed > 0 {
            JobPhase::Failed
        } else {
            JobPhase::Completed
        })
    }

    /// Inject jobs reproduce the CLI's paired OoO/RAR campaign and
    /// render the identical `rar-inject-tally-v1` document, journaling
    /// under the data directory so a daemon restart resumes
    /// injection-exactly.
    fn run_inject_job(
        &self,
        handle: &JobHandle,
        inject: &InjectJob,
    ) -> Result<JobPhase, HttpError> {
        let mut b = SimConfig::builder();
        b.workload(&inject.workload)
            .warmup(inject.warmup)
            .instructions(inject.instructions);
        let harnesses = match paired(&b.build()) {
            Ok(pair) => pair,
            Err(e) => {
                let mut st = lock(&handle.state, "job state")?;
                st.error = Some(e.to_string());
                return Ok(JobPhase::Failed);
            }
        };
        let journal = self.data_dir.join(format!("inject-{}.jsonl", handle.id));
        let mut tallies = Vec::new();
        for harness in &harnesses {
            if handle.cancel.is_canceled() {
                return Ok(JobPhase::Canceled);
            }
            let technique = harness.config().technique;
            let spec = CampaignSpec {
                samples: inject.samples,
                threads: inject.threads,
                journal: Some(paired_journal(&journal, technique)),
                cancel: Some(handle.cancel.clone()),
                flight: Some(Arc::clone(&self.flight)),
                ..CampaignSpec::default()
            };
            let result = match run_injection_campaign(
                harness,
                &spec,
                inject.inject_seed,
                None,
                Some(&self.registry),
            ) {
                Ok(r) => r,
                Err(e) => {
                    let mut st = lock(&handle.state, "job state")?;
                    st.error = Some(format!("campaign journal: {e}"));
                    return Ok(JobPhase::Failed);
                }
            };
            {
                let mut st = lock(&handle.state, "job state")?;
                st.completed += result.completed;
                st.failed += result.failed;
            }
            // A DUE is a detected-unrecoverable outcome — exactly the
            // post-mortem the flight recorder exists for.
            let dues: u64 = FaultTarget::ALL
                .iter()
                .map(|&t| {
                    let tt = result.tally.get(t);
                    tt.due_hang + tt.due_panic
                })
                .sum();
            if dues > 0 {
                self.flight.note(
                    "inject_due",
                    &format!("job {}: {dues} DUE outcomes under {technique}", handle.id),
                );
                self.dump_flight(handle, "inject_due")?;
            }
            if handle.cancel.is_canceled() && result.completed < inject.samples {
                return Ok(JobPhase::Canceled);
            }
            if result.failed > 0 {
                let mut st = lock(&handle.state, "job state")?;
                st.error = Some(format!(
                    "{} of {} injections failed under {technique}",
                    result.failed, inject.samples
                ));
                return Ok(JobPhase::Failed);
            }
            tallies.push(result.tally);
        }
        let document = rar_inject::tally_document(
            &inject.workload,
            inject.inject_seed,
            &tallies[0],
            &tallies[1],
        );
        lock(&handle.state, "job state")?.results.push(document);
        Ok(JobPhase::Completed)
    }

    // ---- HTTP ----------------------------------------------------------

    fn handle_connection(self: &Arc<Self>, stream: &mut TcpStream) {
        // Per-request deadline: a peer that stops sending or reading
        // times the socket out instead of pinning this handler thread.
        let _ = stream.set_read_timeout(Some(self.request_timeout));
        let _ = stream.set_write_timeout(Some(self.request_timeout));
        let req = match read_request(stream) {
            Ok(req) => req,
            Err(RequestError::TooLarge(what)) => {
                let _ = respond(stream, 413, "text/plain", &format!("{what}\n"));
                return;
            }
            Err(RequestError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                let _ = respond(stream, 408, "text/plain", "request deadline exceeded\n");
                return;
            }
            Err(e) => {
                let _ = respond(stream, 400, "text/plain", &format!("{e}\n"));
                return;
            }
        };
        // Connection-level chaos fires between parsing and routing: a
        // stall exercises client read timeouts, a drop leaves the client
        // a closed socket and no response (its request may or may not
        // have taken effect — exactly the ambiguity real networks give).
        rar_chaos::maybe_sleep(sites::SERVE_HTTP_CONN_STALL, 100);
        if rar_chaos::fire(sites::SERVE_HTTP_CONN_DROP).is_some() {
            return;
        }
        self.counters.http_requests.inc();
        let started = Instant::now();
        let outcome = self.route(stream, &req);
        // Request latency, base histogram plus the per-endpoint series
        // (the `events` label includes the lifetime of its chunked
        // stream — that is the honest number for a streaming endpoint).
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.counters.request_nanos.observe(nanos);
        let path = req.path.trim_matches('/').to_owned();
        let segs: Vec<&str> = path.split('/').collect();
        let label = endpoint_label(&req.method, &segs);
        self.registry
            .histogram(&export::labeled(
                names::SERVE_REQUEST_NANOS,
                &[("endpoint", label)],
            ))
            .observe(nanos);
        if let Err(e) = outcome {
            eprintln!(
                "[rar-serve] {} {}: response failed: {e}",
                req.method, req.path
            );
        }
    }

    fn route(self: &Arc<Self>, stream: &mut TcpStream, req: &Request) -> io::Result<()> {
        let path = req.path.trim_matches('/').to_owned();
        let segs: Vec<&str> = path.split('/').collect();
        match (req.method.as_str(), segs.as_slice()) {
            ("POST", ["v1", "jobs"]) => self.submit_route(stream, &req.body),
            ("GET", ["metrics"]) => {
                let mut text = format!(
                    "{}{}",
                    export::to_prometheus(&self.registry),
                    self.session.telemetry_prometheus()
                );
                // Chaos-fabric injection counts by fail-point site: zero
                // series in production builds (the fabric compiles away)
                // and in runs with no plan installed.
                for (site, count) in rar_chaos::injected_counts() {
                    text.push_str(&format!(
                        "{}{{site=\"{site}\"}} {count}\n",
                        names::CHAOS_INJECTIONS
                    ));
                }
                respond(stream, 200, "text/plain; version=0.0.4", &text)
            }
            ("GET", ["healthz"]) => respond(stream, 200, "text/plain", "ok\n"),
            ("GET", ["readyz"]) => {
                // Liveness vs readiness: the process can be healthy while
                // refusing new work (draining) or unable to make progress
                // (every worker slot retired).
                if self.shutdown.is_canceled() || self.draining.is_canceled() {
                    respond(stream, 503, "text/plain", "draining\n")
                } else if self.workers_alive.load(Ordering::Acquire) == 0 {
                    respond(stream, 503, "text/plain", "no live workers\n")
                } else {
                    respond(stream, 200, "text/plain", "ready\n")
                }
            }
            ("GET", ["v1", "jobs", id]) => match self.parse_handle(id) {
                Ok(Some(handle)) => match handle.status_json() {
                    Ok(body) => respond(stream, 200, "application/json", &body),
                    Err(e) => respond_error(stream, e),
                },
                Ok(None) => respond(stream, 404, "text/plain", "no such job\n"),
                Err(e) => respond_error(stream, e),
            },
            ("GET", ["v1", "jobs", id, "results", index]) => self.result_route(stream, id, index),
            ("DELETE", ["v1", "jobs", id]) => self.cancel_route(stream, id),
            ("GET", ["v1", "jobs", id, "events"]) => self.events_route(stream, id),
            ("GET", ["v1", "jobs", id, "trace"]) => self.trace_route(stream, id),
            ("POST", ["v1", "shutdown"]) => {
                // `{"mode":"drain"}` finishes claimed jobs before
                // exiting; the default stops claiming immediately.
                let drain = field(&req.body, "mode") == Some("drain");
                let status = if drain {
                    "{\"status\":\"draining\"}\n"
                } else {
                    "{\"status\":\"shutting-down\"}\n"
                };
                respond(stream, 200, "application/json", status)?;
                if drain {
                    self.initiate_drain();
                } else {
                    self.initiate_shutdown();
                }
                Ok(())
            }
            _ => respond(stream, 404, "text/plain", "unknown route\n"),
        }
    }

    fn parse_handle(&self, id: &str) -> Result<Option<Arc<JobHandle>>, HttpError> {
        match id.parse() {
            Ok(id) => self.handle(id),
            Err(_) => Ok(None),
        }
    }

    fn submit_route(self: &Arc<Self>, stream: &mut TcpStream, body: &str) -> io::Result<()> {
        let spec = match JobSpec::parse(body) {
            Ok(spec) => spec,
            Err(e) => return respond(stream, 400, "text/plain", &format!("{e}\n")),
        };
        if self.shutdown.is_canceled() {
            return respond(stream, 503, "text/plain", "shutting down\n");
        }
        if self.draining.is_canceled() {
            return respond(stream, 503, "text/plain", "draining\n");
        }
        // Bounded-queue backpressure: refuse new work while the backlog
        // is at capacity instead of journaling unbounded liabilities.
        // The length check races concurrent submits, so the bound is
        // approximate by a few entries — fine for a load shedder.
        if self.queue.len() >= self.max_queued {
            self.counters.rejected.inc();
            return respond_with_headers(
                stream,
                429,
                "text/plain",
                &[("Retry-After", "1")],
                "queue full, retry later\n",
            );
        }
        // The jobs lock is taken BEFORE the job is enqueued and held
        // until its handle is registered: `queue.submit` wakes a worker,
        // and a worker that wins the wake race blocks in `handle()`
        // until the insert below lands instead of finding no handle and
        // silently dropping the job (which left it "queued" forever).
        let mut jobs = match lock(&self.jobs, "jobs") {
            Ok(jobs) => jobs,
            Err(e) => return respond_error(stream, e),
        };
        let job = match self.queue.submit(spec) {
            Ok(job) => job,
            Err(e) => {
                return respond(
                    stream,
                    503,
                    "text/plain",
                    &format!("queue journal write failed: {e}\n"),
                )
            }
        };
        jobs.insert(job.id, JobHandle::new(&job, &self.spans));
        drop(jobs);
        self.counters.submitted.inc();
        if let Err(e) = self.refresh_active() {
            return respond_error(stream, e);
        }
        respond(
            stream,
            201,
            "application/json",
            &format!("{{\"id\":{},\"status\":\"queued\"}}\n", job.id),
        )
    }

    fn result_route(&self, stream: &mut TcpStream, id: &str, index: &str) -> io::Result<()> {
        let handle = match self.parse_handle(id) {
            Ok(Some(handle)) => handle,
            Ok(None) => return respond(stream, 404, "text/plain", "no such job\n"),
            Err(e) => return respond_error(stream, e),
        };
        let Ok(index) = index.parse::<usize>() else {
            return respond(stream, 404, "text/plain", "bad result index\n");
        };
        let st = match lock(&handle.state, "job state") {
            Ok(st) => st,
            Err(e) => return respond_error(stream, e),
        };
        match st.results.get(index) {
            Some(doc) => {
                let doc = doc.clone();
                drop(st);
                respond(stream, 200, "application/json", &doc)
            }
            None => respond(stream, 404, "text/plain", "no such result (yet)\n"),
        }
    }

    /// `GET /v1/jobs/{id}/trace`: the job's causal span tree as a Chrome
    /// Trace Event document — request → queue wait / job → cell → phase,
    /// viewable live while the job runs (open spans are clamped to now).
    fn trace_route(&self, stream: &mut TcpStream, id: &str) -> io::Result<()> {
        let handle = match self.parse_handle(id) {
            Ok(Some(handle)) => handle,
            Ok(None) => return respond(stream, 404, "text/plain", "no such job\n"),
            Err(e) => return respond_error(stream, e),
        };
        let now = self.spans.now_nanos();
        let slices: Vec<SpanSlice> = self
            .spans
            .subtree(handle.request_span)
            .into_iter()
            .map(|s| SpanSlice {
                id: s.id,
                parent: s.parent,
                name: s.name,
                start_nanos: s.start_nanos,
                dur_nanos: s
                    .dur_nanos
                    .unwrap_or_else(|| now.saturating_sub(s.start_nanos)),
            })
            .collect();
        respond(
            stream,
            200,
            "application/json",
            &spans_to_chrome_json(&slices),
        )
    }

    fn cancel_route(&self, stream: &mut TcpStream, id: &str) -> io::Result<()> {
        let handle = match self.parse_handle(id) {
            Ok(Some(handle)) => handle,
            Ok(None) => return respond(stream, 404, "text/plain", "no such job\n"),
            Err(e) => return respond_error(stream, e),
        };
        handle.cancel.cancel();
        let phase = {
            let mut st = match lock(&handle.state, "job state") {
                Ok(st) => st,
                Err(e) => return respond_error(stream, e),
            };
            if st.phase == JobPhase::Queued {
                // Not yet claimed: unqueue and finalize here. A worker
                // that raced us and claimed it first will see Running and
                // finalize through the cooperative path instead.
                st.phase = JobPhase::Canceled;
                self.queue.remove(handle.id);
                self.queue.record_terminal(handle.id, JobPhase::Canceled);
                self.counters.canceled.inc();
            }
            st.phase
        };
        if let Err(e) = self.refresh_active() {
            return respond_error(stream, e);
        }
        respond(
            stream,
            200,
            "application/json",
            &format!(
                "{{\"id\":{},\"status\":\"{}\",\"canceling\":true}}\n",
                handle.id,
                phase.name()
            ),
        )
    }

    /// The chunked progress stream: one `ProgressReporter` heartbeat
    /// line per interval while the job runs, then the reporter's final
    /// line and the job's terminal status document.
    fn events_route(&self, stream: &mut TcpStream, id: &str) -> io::Result<()> {
        let handle = match self.parse_handle(id) {
            Ok(Some(handle)) => handle,
            Ok(None) => return respond(stream, 404, "text/plain", "no such job\n"),
            Err(e) => return respond_error(stream, e),
        };
        let total = match lock(&handle.state, "job state") {
            Ok(st) => st.total,
            Err(e) => return respond_error(stream, e),
        };
        let reporter = ProgressReporter::new(total, Duration::from_millis(200));
        start_chunked(stream, 200, "text/plain")?;
        write_chunk(
            stream,
            &format!("job {} [{}]\n", handle.id, handle.spec.to_json()),
        )?;
        loop {
            // Once the chunked stream has started a status line can no
            // longer change; a poisoned lock ends the stream with an
            // explanatory chunk instead.
            let (phase, snap) = match handle.snapshot() {
                Ok(s) => s,
                Err(e) => {
                    write_chunk(stream, &format!("{e}\n"))?;
                    break;
                }
            };
            if phase.is_terminal() {
                write_chunk(stream, &format!("{}\n", reporter.final_line(&snap)))?;
                write_chunk(stream, &format!("job {} {}\n", handle.id, phase.name()))?;
                break;
            }
            if self.shutdown.is_canceled() || self.draining.is_canceled() {
                // A drain closes the queue, so a still-queued job would
                // never reach terminal: end the stream rather than hang.
                write_chunk(stream, "server shutting down\n")?;
                break;
            }
            if let Some(line) = reporter.heartbeat(&snap) {
                write_chunk(stream, &format!("{line}\n"))?;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        end_chunks(stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_serve_metric_is_registered_at_startup() {
        let reg = MetricsRegistry::new();
        let _counters = ServeCounters::register(&reg);
        let text = export::to_prometheus(&reg);
        for name in names::SERVE_ALL {
            assert!(text.contains(name), "{name} missing from first scrape");
        }
    }
}
