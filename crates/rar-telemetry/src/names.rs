//! Canonical metric names registered by the workspace.
//!
//! Every sweep-engine metric name lives here as a `const`, for two
//! reasons: instrumentation sites and dashboards can never drift apart
//! on spelling, and `cargo xtask lint` scans this file to assert each
//! declared name is actually registered somewhere in the workspace (a
//! declared-but-never-registered metric is rot, exactly like a tallied-
//! but-never-exported stat counter).
//!
//! Naming follows Prometheus conventions: `_total` for monotone
//! counters, a bare name for gauges, `_nanos` histograms observe
//! nanoseconds.

/// Cells actually simulated (disk-cache misses).
pub const SWEEP_CELLS_SIMULATED: &str = "rar_sweep_cells_simulated_total";
/// Cells replayed from the on-disk result cache.
pub const SWEEP_CACHE_HITS: &str = "rar_sweep_cache_hits_total";
/// Cells rejected by validation before simulation.
pub const SWEEP_CELLS_REJECTED: &str = "rar_sweep_cells_rejected_total";
/// Cells excluded because their simulation panicked.
pub const SWEEP_CELLS_FAILED: &str = "rar_sweep_cells_failed_total";
/// Trace prefixes served from the in-memory memoization store.
pub const SWEEP_TRACE_MEMO_HITS: &str = "rar_sweep_trace_memo_hits_total";
/// Trace prefixes generated or grown (memoization misses).
pub const SWEEP_TRACE_MEMO_MISSES: &str = "rar_sweep_trace_memo_misses_total";
/// Refinements served from the in-memory memoization store.
pub const SWEEP_REFINEMENT_MEMO_HITS: &str = "rar_sweep_refinement_memo_hits_total";
/// Refinements computed fresh (memoization misses).
pub const SWEEP_REFINEMENT_MEMO_MISSES: &str = "rar_sweep_refinement_memo_misses_total";
/// Wall-clock nanoseconds spent inside `SweepSession::run_all`.
pub const SWEEP_WALL_NANOS: &str = "rar_sweep_wall_nanos_total";
/// Worker threads used by the most recent sweep (gauge).
pub const SWEEP_THREADS: &str = "rar_sweep_threads";
/// Per-cell wall-clock nanoseconds (histogram; profiled sessions only).
pub const SWEEP_CELL_NANOS: &str = "rar_sweep_cell_nanos";
/// Sum of busy worker nanoseconds across the most recent sweep.
pub const SWEEP_BUSY_NANOS: &str = "rar_sweep_busy_nanos_total";
/// Cells excluded because the per-run watchdog expired.
pub const SWEEP_RUN_TIMEOUTS: &str = "rar_sweep_run_timeouts_total";
/// Transient disk-cache I/O errors absorbed by retry-with-backoff.
pub const SWEEP_CACHE_IO_ERRORS: &str = "rar_sweep_cache_io_errors_total";
/// The disk cache was switched off mid-sweep after persistent I/O errors
/// (gauge: 0 healthy, 1 disabled).
pub const SWEEP_CACHE_DISABLED: &str = "rar_sweep_cache_disabled";
/// Cells that subscribed to an identical in-flight simulation instead of
/// starting a duplicate one (single-flight deduplication).
pub const SWEEP_INFLIGHT_WAITS: &str = "rar_sweep_inflight_waits_total";
/// Cells skipped because the sweep's cancellation token was set before
/// they were claimed.
pub const SWEEP_CELLS_CANCELED: &str = "rar_sweep_cells_canceled_total";
/// Disk-cache circuit-breaker state (gauge: 0 closed, 1 open,
/// 2 half-open).
pub const SWEEP_CACHE_BREAKER_STATE: &str = "rar_sweep_cache_breaker_state";
/// Times the disk-cache circuit breaker tripped open after exhausted
/// retries.
pub const SWEEP_CACHE_BREAKER_TRIPS: &str = "rar_sweep_cache_breaker_trips_total";
/// Heap bytes of the trace prefixes and refinements the session's
/// artifact store keeps resident (gauge; bounded by the store's budget).
pub const SWEEP_ARTIFACT_BYTES: &str = "rar_sweep_artifact_bytes";

/// Every sweep-engine name above, for exhaustive registration and tests.
pub const ALL: [&str; 20] = [
    SWEEP_CELLS_SIMULATED,
    SWEEP_CACHE_HITS,
    SWEEP_CELLS_REJECTED,
    SWEEP_CELLS_FAILED,
    SWEEP_TRACE_MEMO_HITS,
    SWEEP_TRACE_MEMO_MISSES,
    SWEEP_REFINEMENT_MEMO_HITS,
    SWEEP_REFINEMENT_MEMO_MISSES,
    SWEEP_WALL_NANOS,
    SWEEP_THREADS,
    SWEEP_CELL_NANOS,
    SWEEP_BUSY_NANOS,
    SWEEP_RUN_TIMEOUTS,
    SWEEP_CACHE_IO_ERRORS,
    SWEEP_CACHE_DISABLED,
    SWEEP_INFLIGHT_WAITS,
    SWEEP_CELLS_CANCELED,
    SWEEP_CACHE_BREAKER_STATE,
    SWEEP_CACHE_BREAKER_TRIPS,
    SWEEP_ARTIFACT_BYTES,
];

/// Fault injections executed (every outcome).
pub const INJECT_RUNS: &str = "rar_inject_runs_total";
/// Injections classified masked (golden-identical architectural results).
pub const INJECT_MASKED: &str = "rar_inject_masked_total";
/// Injections classified silent data corruption.
pub const INJECT_SDC: &str = "rar_inject_sdc_total";
/// Injections classified detected/unrecoverable (panic, hang, deadline).
pub const INJECT_DUE: &str = "rar_inject_due_total";
/// Injections replayed from the campaign journal on resume.
pub const INJECT_RESUMED: &str = "rar_inject_resumed_total";
/// Transient failures (executor runs, journal appends) absorbed by
/// retry-with-backoff.
pub const INJECT_RETRIES: &str = "rar_inject_retries_total";
/// Batched journal fsyncs issued.
pub const INJECT_JOURNAL_FLUSHES: &str = "rar_inject_journal_flushes_total";
/// Journal writes abandoned after exhausting retries (campaign degrades
/// to in-memory tallies; resume from that point is impossible).
pub const INJECT_JOURNAL_ERRORS: &str = "rar_inject_journal_errors_total";

/// Every campaign-runner name above (registered by `rar-inject`, not the
/// sweep engine — kept out of [`ALL`] so sweep-session export coverage
/// stays exact).
pub const INJECT_ALL: [&str; 8] = [
    INJECT_RUNS,
    INJECT_MASKED,
    INJECT_SDC,
    INJECT_DUE,
    INJECT_RESUMED,
    INJECT_RETRIES,
    INJECT_JOURNAL_FLUSHES,
    INJECT_JOURNAL_ERRORS,
];

/// HTTP requests accepted by the serve daemon (every route and status).
pub const SERVE_HTTP_REQUESTS: &str = "rar_serve_http_requests_total";
/// Jobs accepted onto the queue (`POST /v1/jobs`), including jobs
/// re-enqueued from the journal on restart.
pub const SERVE_JOBS_SUBMITTED: &str = "rar_serve_jobs_submitted_total";
/// Jobs that ran every unit of work to completion.
pub const SERVE_JOBS_COMPLETED: &str = "rar_serve_jobs_completed_total";
/// Jobs cooperatively canceled before completing.
pub const SERVE_JOBS_CANCELED: &str = "rar_serve_jobs_canceled_total";
/// Jobs that finished with at least one failed unit of work.
pub const SERVE_JOBS_FAILED: &str = "rar_serve_jobs_failed_total";
/// Jobs re-enqueued from the queue journal by a restarted daemon.
pub const SERVE_JOBS_RESUMED: &str = "rar_serve_jobs_resumed_total";
/// Jobs currently queued or running (gauge).
pub const SERVE_JOBS_ACTIVE: &str = "rar_serve_jobs_active";
/// Worker threads in the daemon's shared pool (gauge).
pub const SERVE_WORKERS: &str = "rar_serve_workers";
/// Per-endpoint HTTP request latency (histogram, labeled by `endpoint`).
pub const SERVE_REQUEST_NANOS: &str = "rar_serve_request_nanos";
/// Seconds the most recently claimed job spent waiting on the queue
/// (gauge).
pub const SERVE_QUEUE_WAIT_SECONDS: &str = "rar_serve_queue_wait_seconds";
/// Submissions rejected with 429 because the bounded queue was full.
pub const SERVE_JOBS_REJECTED: &str = "rar_serve_jobs_rejected_total";
/// Panicked worker threads respawned by their supervisor.
pub const SERVE_WORKER_RESTARTS: &str = "rar_serve_worker_restarts_total";
/// Transient queue-journal append failures absorbed by
/// retry-with-backoff.
pub const SERVE_JOURNAL_RETRIES: &str = "rar_serve_journal_retries_total";
/// Faults injected by the chaos fabric, labeled by fail-point `site`.
/// Exported straight from `rar-chaos` by the daemon's `/metrics` route
/// (zero series in production builds, where the fabric compiles away).
pub const CHAOS_INJECTIONS: &str = "rar_chaos_injections_total";

/// Every serve-daemon name above (registered by `rar-serve`; kept out of
/// [`ALL`] so sweep-session export coverage stays exact).
pub const SERVE_ALL: [&str; 13] = [
    SERVE_HTTP_REQUESTS,
    SERVE_JOBS_SUBMITTED,
    SERVE_JOBS_COMPLETED,
    SERVE_JOBS_CANCELED,
    SERVE_JOBS_FAILED,
    SERVE_JOBS_RESUMED,
    SERVE_JOBS_ACTIVE,
    SERVE_WORKERS,
    SERVE_REQUEST_NANOS,
    SERVE_QUEUE_WAIT_SECONDS,
    SERVE_JOBS_REJECTED,
    SERVE_WORKER_RESTARTS,
    SERVE_JOURNAL_RETRIES,
];

#[cfg(test)]
mod tests {
    use super::{ALL, CHAOS_INJECTIONS, INJECT_ALL, SERVE_ALL};
    use crate::export::sanitize_metric_name;

    #[test]
    fn names_are_unique_and_prometheus_clean() {
        let all: Vec<&str> = ALL
            .iter()
            .chain(INJECT_ALL.iter())
            .chain(SERVE_ALL.iter())
            .chain(std::iter::once(&CHAOS_INJECTIONS))
            .copied()
            .collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
        for name in all {
            assert_eq!(sanitize_metric_name(name), name, "{name} needs sanitizing");
            assert!(name.starts_with("rar_"), "{name} missing rar_ prefix");
        }
    }
}
