//! The memoizing parallel sweep engine.
//!
//! A [`SweepSession`] executes batches of [`SimConfig`] cells and is the
//! single entry point the experiment runners and binaries use. It layers
//! three mechanisms, each independently sound:
//!
//! 1. **Artifact memoization.** A sweep grid re-uses one (workload, seed)
//!    stream across many techniques and cores. The session keeps generated
//!    [`TracePrefix`]es and [`rar_verify`] dead-value refinements in an
//!    `Arc`-shared store, so each trace is generated — and each
//!    refinement computed — at most once while it stays resident, no
//!    matter how many cells consume it. The store holds at most 32 MiB of
//!    artifact heap and evicts least-recently-used entries past that, so
//!    a long-running session (the serve daemon) stays flat however many
//!    unique seeds it sees; `rar_sweep_artifact_bytes` reports what is
//!    resident. Sound because both are pure functions of (workload,
//!    seed, horizon): an evicted key regenerates byte-identically.
//! 2. **On-disk result cache.** With [`SweepSession::with_disk_cache`],
//!    finished cells are persisted through [`DiskCache`] keyed by
//!    [`SimConfig::fingerprint`]; warm reruns replay bit-identically
//!    without simulating.
//! 3. **Work-stealing scheduling.** Cells are dealt round-robin onto
//!    per-worker deques; an idle worker steals from the back of its
//!    peers. Long cells (big cores, slow workloads) no longer gate a
//!    whole chunk. Results land in a slot indexed by cell position, so
//!    the output order — and, since every cell is deterministic, every
//!    value — is independent of thread count and steal order.
//! 4. **Single-flight deduplication.** Concurrent requests for the same
//!    [`SimConfig::fingerprint`] collapse onto one simulation: the first
//!    caller leads, later callers subscribe and receive a clone of the
//!    leader's result the moment it lands. This is what lets a serve
//!    daemon multiplex overlapping grids from independent clients over
//!    one session without ever simulating a shared cell twice
//!    (`rar_sweep_inflight_waits_total` counts the shared cells).
//!
//! Sessions are **long-lived, multi-client and cancellable**: every
//! method takes `&self`, so one `Arc<SweepSession>` can serve many
//! concurrent sweeps, and [`SweepSession::run_all_cancellable`] threads a
//! [`CancelToken`] through the work-stealing scheduler — a canceled sweep
//! stops claiming cells at the next cell boundary, leaving every already
//! finished cell published (and cached) and every unclaimed cell `None`.
//!
//! # Telemetry
//!
//! Every session counter lives in a [`MetricsRegistry`] under the
//! canonical names of [`rar_telemetry::names`], served as Prometheus text
//! by [`SweepSession::telemetry_prometheus`] and embedded in the run
//! manifest ([`SweepSession::manifest_json`]), the one record a run
//! leaves behind. The session is additionally generic over a
//! [`Profiler`]: the default [`NullProfiler`] compiles every timing scope
//! away (a default build is bit-identical to an uninstrumented one),
//! while a session built with [`SweepSession::with_profiler`] and a
//! [`rar_telemetry::WallProfiler`] — as both CLIs build theirs —
//! attributes wall-clock time to trace generation, liveness refinement,
//! core simulation, cache probes/stores and serialization. Long sweeps
//! report a heartbeat line (completed/total, cache hit rate, runs/sec,
//! ETA, thread utilization) every `RAR_PROGRESS_SECS` seconds.

use crate::cache::DiskCache;
use crate::config::SimConfig;
use crate::run::{refinement_horizon, RunArtifacts, SimResult, Simulation};
use rar_chaos::{retry_with_backoff, BreakerConfig, BreakerState, CircuitBreaker, RetryPolicy};
use rar_core::{RunVerdict, StallProfile};
use rar_telemetry::names;
use rar_telemetry::{
    sanitize_f64, CancelToken, Counter, FlightRecorder, Gauge, Histogram, ManifestBuilder,
    MetricsRegistry, NullProfiler, Phase, Profiler, ProgressReporter, ProgressSnapshot, ScopeTimer,
};
use rar_trace::NullSink;
use rar_verify::{AceRefinement, ConfigError};
use rar_workloads::{workload, TracePrefix};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Per-run watchdog bounds for session-executed cells.
///
/// The cycle budget scales with the cell's instruction budget —
/// `cycle_factor * (warmup + instructions) + cycle_slack` — so a wedged or
/// pathologically slow simulation (IPC below `1/cycle_factor`) is cut off
/// instead of hanging an unattended sweep forever; an optional wall-clock
/// bound additionally caps host time per cell. The defaults are far above
/// anything a healthy cell reaches (the slowest modeled workloads run at
/// IPC ≈ 0.1), so hitting the watchdog is evidence of a model bug, which
/// the typed [`RunError::Timeout`] reports without poisoning the sweep.
#[derive(Debug, Clone, Copy)]
pub struct Watchdog {
    /// Cycles allowed per instruction of total budget.
    pub cycle_factor: u64,
    /// Flat additional cycle allowance (covers drain/startup effects on
    /// tiny budgets).
    pub cycle_slack: u64,
    /// Optional wall-clock bound per cell.
    pub wall: Option<Duration>,
}

impl Default for Watchdog {
    fn default() -> Self {
        Watchdog {
            cycle_factor: 2_000,
            cycle_slack: 1_000_000,
            wall: None,
        }
    }
}

impl Watchdog {
    /// The cycle budget this watchdog grants `cfg`.
    #[must_use]
    pub fn max_cycles(&self, cfg: &SimConfig) -> u64 {
        self.cycle_factor
            .saturating_mul(cfg.warmup + cfg.instructions)
            .saturating_add(self.cycle_slack)
            .max(1)
    }

    /// The wall-clock deadline for a cell starting now.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.wall.map(|d| Instant::now() + d)
    }
}

/// Why a session-executed run produced no result.
#[derive(Debug, Clone)]
pub enum RunError {
    /// The configuration failed validation; nothing was simulated.
    Config(ConfigError),
    /// The per-run watchdog expired ([`Watchdog`]): the simulation
    /// exhausted its cycle budget or wall-clock bound before committing
    /// its instruction budget.
    Timeout {
        /// Workload of the timed-out cell.
        workload: String,
        /// Technique of the timed-out cell.
        technique: rar_core::Technique,
        /// Which bound expired ([`RunVerdict::CycleBudget`] or
        /// [`RunVerdict::Deadline`]).
        verdict: RunVerdict,
        /// The cycle budget that was in force.
        max_cycles: u64,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Config(e) => e.fmt(f),
            RunError::Timeout {
                workload,
                technique,
                verdict,
                max_cycles,
            } => {
                let bound = match verdict {
                    RunVerdict::Deadline => "wall-clock deadline".to_owned(),
                    _ => format!("cycle budget ({max_cycles})"),
                };
                write!(f, "{workload}/{technique} timed out: {bound} exhausted")
            }
        }
    }
}

impl std::error::Error for RunError {}

impl From<ConfigError> for RunError {
    fn from(e: ConfigError) -> Self {
        RunError::Config(e)
    }
}

/// Resident-byte budget of a session's artifact store. The Fig. 1 grid's
/// 15 (workload, seed) keys take 32.0 MB at a 25,016-uop horizon, so that
/// sweep never evicts; a key at the serve benchmark's 5,016-uop horizon
/// takes about 575 KB, so a daemon fed unique seeds keeps its ~58 most
/// recently used.
const ARTIFACT_BUDGET_BYTES: usize = 32 << 20;

/// One memoized artifact with its heap footprint and the store clock at
/// its last use.
#[derive(Debug)]
struct Resident<T> {
    value: T,
    bytes: usize,
    used: u64,
}

/// The memo maps behind [`ArtifactStore`]'s lock.
#[derive(Debug, Default)]
struct Memo {
    /// Longest generated prefix per (workload, seed).
    traces: HashMap<(String, u64), Resident<Arc<TracePrefix>>>,
    /// Refinements per (workload, seed, horizon) — the horizon is part of
    /// the key because the analysis classifies exactly that many uops.
    refinements: HashMap<(String, u64, usize), Resident<AceRefinement>>,
    /// Ticks once per lookup, so every resident entry has a distinct
    /// `used` stamp and the smallest is the least recently used.
    clock: u64,
    /// Sum of `bytes` over both maps.
    bytes: usize,
}

impl Memo {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Evicts least-recently-used entries, traces and refinements alike,
    /// until the resident bytes fit `budget`. An entry larger than the
    /// whole budget goes too: the cell that made it holds its own `Arc`.
    fn evict_to(&mut self, budget: usize) {
        while self.bytes > budget {
            let traces = self.traces.values().map(|r| r.used);
            let refinements = self.refinements.values().map(|r| r.used);
            let Some(oldest) = traces.chain(refinements).min() else {
                break;
            };
            self.bytes -=
                evict_used(&mut self.traces, oldest) + evict_used(&mut self.refinements, oldest);
        }
    }
}

/// Removes the entry of `map` stamped `used`, returning its bytes (0 if
/// none is).
fn evict_used<K, T>(map: &mut HashMap<K, Resident<T>>, used: u64) -> usize {
    let mut freed = 0;
    map.retain(|_, r| {
        let keep = r.used != used;
        if !keep {
            freed = r.bytes;
        }
        keep
    });
    freed
}

/// Session-lifetime store of memoized sweep artifacts, bounded by a byte
/// budget with least-recently-used eviction.
#[derive(Debug)]
struct ArtifactStore {
    budget: usize,
    memo: Mutex<Memo>,
}

impl ArtifactStore {
    fn new(budget: usize) -> Self {
        ArtifactStore {
            budget,
            memo: Mutex::new(Memo::default()),
        }
    }

    /// The run artifacts for `cfg`, computed at most once per key while
    /// the key stays resident.
    ///
    /// Generation happens *under the store lock*: concurrent cells that
    /// need the same trace wait for one generation instead of racing to
    /// duplicate it (the memoization guarantee). Trace generation and
    /// liveness analysis are orders of magnitude cheaper than the
    /// simulation itself, so the serialization is immaterial. Each insert
    /// that takes the store past its budget evicts least-recently-used
    /// entries. A running cell keeps what it uses alive through its own
    /// `Arc`s, and an evicted key regenerates byte-identically, since
    /// every artifact is a pure function of its key.
    fn artifacts_for<P: Profiler>(
        &self,
        cfg: &SimConfig,
        counters: &SweepCounters,
        profiler: &P,
    ) -> RunArtifacts {
        let horizon = refinement_horizon(cfg);
        let mut memo = self.memo.lock().expect("artifact store lock");
        let now = memo.tick();
        let trace_key = (cfg.workload.clone(), cfg.seed);
        let prefix = match memo.traces.get_mut(&trace_key) {
            Some(p) if p.value.len() >= horizon => {
                counters.trace_hits.inc();
                p.used = now;
                Arc::clone(&p.value)
            }
            stored => {
                counters.trace_misses.inc();
                let scope = ScopeTimer::start(profiler, Phase::TraceGen);
                // A shorter prefix grows from its stored generator state:
                // the already-generated uops are not regenerated.
                let fresh = Arc::new(match stored {
                    Some(p) => p.value.extended(horizon),
                    None => {
                        let spec = workload(&cfg.workload).expect("validated workload exists");
                        TracePrefix::generate(&spec, cfg.seed, horizon)
                    }
                });
                drop(scope);
                let bytes = fresh.heap_bytes();
                let entry = Resident {
                    value: Arc::clone(&fresh),
                    bytes,
                    used: now,
                };
                if let Some(old) = memo.traces.insert(trace_key, entry) {
                    memo.bytes -= old.bytes;
                }
                memo.bytes += bytes;
                memo.evict_to(self.budget);
                fresh
            }
        };
        let now = memo.tick();
        let ref_key = (cfg.workload.clone(), cfg.seed, horizon);
        let refinement = if let Some(r) = memo.refinements.get_mut(&ref_key) {
            counters.refinement_hits.inc();
            r.used = now;
            r.value.clone() // Arc-backed: O(1)
        } else {
            counters.refinement_misses.inc();
            let scope = ScopeTimer::start(profiler, Phase::Liveness);
            let fresh = rar_verify::analyze(&prefix.uops()[..horizon]);
            drop(scope);
            let bytes = fresh.heap_bytes();
            let entry = Resident {
                value: fresh.clone(),
                bytes,
                used: now,
            };
            memo.refinements.insert(ref_key, entry);
            memo.bytes += bytes;
            memo.evict_to(self.budget);
            fresh
        };
        counters.artifact_bytes.set(memo.bytes as f64);
        RunArtifacts { prefix, refinement }
    }
}

/// Registered handles for every session counter (see
/// [`rar_telemetry::names`] for the canonical metric names).
#[derive(Debug)]
struct SweepCounters {
    simulated: Counter,
    cache_hits: Counter,
    rejected: Counter,
    failed: Counter,
    trace_hits: Counter,
    trace_misses: Counter,
    refinement_hits: Counter,
    refinement_misses: Counter,
    wall_nanos: Counter,
    busy_nanos: Counter,
    threads: Gauge,
    cell_nanos: Histogram,
    run_timeouts: Counter,
    cache_io_errors: Counter,
    cache_disabled: Gauge,
    inflight_waits: Counter,
    canceled: Counter,
    breaker_state: Gauge,
    breaker_trips: Counter,
    artifact_bytes: Gauge,
}

impl SweepCounters {
    fn register(registry: &MetricsRegistry) -> Self {
        SweepCounters {
            simulated: registry.counter(names::SWEEP_CELLS_SIMULATED),
            cache_hits: registry.counter(names::SWEEP_CACHE_HITS),
            rejected: registry.counter(names::SWEEP_CELLS_REJECTED),
            failed: registry.counter(names::SWEEP_CELLS_FAILED),
            trace_hits: registry.counter(names::SWEEP_TRACE_MEMO_HITS),
            trace_misses: registry.counter(names::SWEEP_TRACE_MEMO_MISSES),
            refinement_hits: registry.counter(names::SWEEP_REFINEMENT_MEMO_HITS),
            refinement_misses: registry.counter(names::SWEEP_REFINEMENT_MEMO_MISSES),
            wall_nanos: registry.counter(names::SWEEP_WALL_NANOS),
            busy_nanos: registry.counter(names::SWEEP_BUSY_NANOS),
            threads: registry.gauge(names::SWEEP_THREADS),
            cell_nanos: registry.histogram(names::SWEEP_CELL_NANOS),
            run_timeouts: registry.counter(names::SWEEP_RUN_TIMEOUTS),
            cache_io_errors: registry.counter(names::SWEEP_CACHE_IO_ERRORS),
            cache_disabled: registry.gauge(names::SWEEP_CACHE_DISABLED),
            inflight_waits: registry.counter(names::SWEEP_INFLIGHT_WAITS),
            canceled: registry.counter(names::SWEEP_CELLS_CANCELED),
            breaker_state: registry.gauge(names::SWEEP_CACHE_BREAKER_STATE),
            breaker_trips: registry.counter(names::SWEEP_CACHE_BREAKER_TRIPS),
            artifact_bytes: registry.gauge(names::SWEEP_ARTIFACT_BYTES),
        }
    }
}

/// One in-flight simulation: the leader publishes into `state` and wakes
/// subscribers through `ready`.
#[derive(Debug, Default)]
struct Inflight {
    state: Mutex<InflightState>,
    ready: Condvar,
}

#[derive(Debug, Default)]
enum InflightState {
    /// The leader is still simulating.
    #[default]
    Running,
    /// The leader finished; subscribers clone this result. Boxed so the
    /// idle `Running`/`Abandoned` states don't pay `SimResult`'s size.
    Done(Box<SimResult>),
    /// The leader failed (config rejection, timeout, panic). Subscribers
    /// re-enter the single-flight gate and run the cell themselves so the
    /// typed error (or panic) surfaces per caller instead of being
    /// smuggled across threads.
    Abandoned,
}

/// Removes the leader's single-flight slot and wakes subscribers even if
/// the simulation panics; the leader marks success via
/// [`InflightLead::publish`], anything else abandons the slot on drop.
struct InflightLead<'s> {
    slots: &'s Mutex<HashMap<String, Arc<Inflight>>>,
    key: String,
    cell: Arc<Inflight>,
    published: bool,
}

impl InflightLead<'_> {
    fn publish(mut self, result: &SimResult) {
        self.finish(InflightState::Done(Box::new(result.clone())));
        self.published = true;
    }

    fn finish(&self, state: InflightState) {
        // Unlink first so late arrivals start a fresh flight instead of
        // subscribing to a settled one; the map and state locks are never
        // held together.
        self.slots.lock().expect("inflight lock").remove(&self.key);
        *self.cell.state.lock().expect("inflight state lock") = state;
        self.cell.ready.notify_all();
    }
}

impl Drop for InflightLead<'_> {
    fn drop(&mut self) {
        if !self.published {
            self.finish(InflightState::Abandoned);
        }
    }
}

/// A run session: shared memoization stores, an optional disk cache, a
/// metrics registry, an (optionally enabled) self-profiler, and the sweep
/// scheduler. Cheap to share behind an [`Arc`]; every method takes
/// `&self`.
#[derive(Debug)]
pub struct SweepSession<P: Profiler = NullProfiler> {
    cache: Option<DiskCache>,
    threads: Option<usize>,
    watchdog: Watchdog,
    artifacts: ArtifactStore,
    registry: MetricsRegistry,
    counters: SweepCounters,
    profiler: P,
    /// Circuit breaker guarding disk-cache I/O: it trips open once an
    /// exhausted retry loop proves the disk broken (the sweep then runs
    /// cache-off instead of hammering it per cell) and re-admits a single
    /// probe after a cooldown, closing again if the disk recovered —
    /// generalizing the old permanently-latched cache-off bit.
    cache_breaker: CircuitBreaker,
    /// Workloads and config fingerprints seen by this session, for the
    /// run manifest.
    seen: Mutex<SeenInputs>,
    /// Single-flight table: fingerprint → the in-flight simulation any
    /// concurrent request for the same cell subscribes to.
    inflight: Mutex<HashMap<String, Arc<Inflight>>>,
    /// Running sums of the three AVF tiers over every completed cell,
    /// for the manifest's mean-AVF fields.
    avf: Mutex<AvfAccum>,
    /// Guest-side per-cycle stall profiling ([`SweepSession::stall_profiling`]).
    /// Stall-profiled sessions bypass the disk cache entirely: cached
    /// entries carry no profile, and profiled results must never pollute
    /// the byte-pinned cache goldens.
    stalls: bool,
    /// Stall taxonomy summed over every simulated cell (empty unless
    /// `stalls`).
    stall_accum: Mutex<StallProfile>,
    /// Optional crash flight recorder: cell boundaries, timeouts and
    /// panics are noted so a post-mortem dump explains a dead sweep.
    flight: Option<Arc<FlightRecorder>>,
}

/// Sum of each AVF tier over completed cells (cache hits included), for
/// manifest-level means.
#[derive(Debug, Default)]
struct AvfAccum {
    unrefined: f64,
    refined: f64,
    bit_refined: f64,
    cells: u64,
}

#[derive(Debug, Default)]
struct SeenInputs {
    workloads: BTreeSet<String>,
    fingerprints: BTreeSet<String>,
}

/// Snapshot of a session's counters (see [`SweepSession::stats`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepStats {
    /// Cells actually simulated (cache misses).
    pub simulated: u64,
    /// Cells replayed from the on-disk cache.
    pub cache_hits: u64,
    /// Cells rejected by [`SimConfig::validate`] before simulation.
    pub rejected: u64,
    /// Cells whose simulation panicked (model bugs; excluded, not fatal).
    pub failed: u64,
    /// Trace prefixes served from the in-memory store.
    pub trace_memo_hits: u64,
    /// Trace prefixes generated (or grown) because no long-enough prefix
    /// existed yet.
    pub trace_memo_misses: u64,
    /// Refinements served from the in-memory store.
    pub refinement_memo_hits: u64,
    /// Refinements computed fresh.
    pub refinement_memo_misses: u64,
    /// Wall-clock seconds spent inside [`SweepSession::run_all`].
    pub wall_seconds: f64,
    /// Worker threads used by the most recent sweep.
    pub threads: u64,
}

impl SweepStats {
    /// Completed cells: simulated plus replayed from cache.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.simulated + self.cache_hits
    }

    /// Fraction of completed cells served by the disk cache. Always
    /// finite: a session with no completed cells reports `0.0`.
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        if self.completed() == 0 {
            return 0.0;
        }
        sanitize_f64(self.cache_hits as f64 / self.completed() as f64)
    }

    /// Completed cells per wall-clock second. Always finite: a session
    /// that never swept (or whose clock read zero) reports `0.0`.
    #[must_use]
    pub fn runs_per_second(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        sanitize_f64(self.completed() as f64 / self.wall_seconds)
    }
}

/// The outcome of one validated cell: the result plus where it came from.
struct CellOutcome {
    result: SimResult,
    cache_hit: bool,
}

impl Default for SweepSession<NullProfiler> {
    fn default() -> Self {
        SweepSession::new()
    }
}

impl SweepSession<NullProfiler> {
    /// A session with in-memory memoization only (no disk cache) and
    /// profiling compiled out.
    #[must_use]
    pub fn new() -> Self {
        SweepSession::build(None, NullProfiler)
    }

    /// A session that additionally persists every finished cell to `dir`
    /// and replays from it on later runs.
    #[must_use]
    pub fn with_disk_cache(dir: impl Into<PathBuf>) -> Self {
        SweepSession::build(Some(DiskCache::new(dir)), NullProfiler)
    }
}

impl<P: Profiler> SweepSession<P> {
    fn build(cache: Option<DiskCache>, profiler: P) -> Self {
        let registry = MetricsRegistry::new();
        let counters = SweepCounters::register(&registry);
        SweepSession {
            cache,
            threads: None,
            watchdog: Watchdog::default(),
            artifacts: ArtifactStore::new(ARTIFACT_BUDGET_BYTES),
            registry,
            counters,
            profiler,
            cache_breaker: CircuitBreaker::new(BreakerConfig::default()),
            seen: Mutex::new(SeenInputs::default()),
            inflight: Mutex::new(HashMap::new()),
            avf: Mutex::new(AvfAccum::default()),
            stalls: false,
            stall_accum: Mutex::new(StallProfile::default()),
            flight: None,
        }
    }

    /// A session recording through an arbitrary [`Profiler`] (e.g. a
    /// [`rar_telemetry::WallProfiler`] totalling host time per [`Phase`],
    /// or a [`rar_telemetry::SpanProfiler`] turning phase scopes into
    /// causal leaf spans), with in-memory memoization only.
    #[must_use]
    pub fn with_profiler(profiler: P) -> Self {
        SweepSession::build(None, profiler)
    }

    /// [`SweepSession::with_profiler`] plus an on-disk result cache.
    #[must_use]
    pub fn with_profiler_and_disk_cache(dir: impl Into<PathBuf>, profiler: P) -> Self {
        SweepSession::build(Some(DiskCache::new(dir)), profiler)
    }

    /// Enables guest-side per-cycle stall/occupancy profiling for every
    /// cell this session simulates (see [`rar_core::StallProfile`]).
    /// Stall-profiled sessions bypass the disk cache in both directions,
    /// so warm caches stay byte-identical to unprofiled runs.
    #[must_use]
    pub fn stall_profiling(mut self, on: bool) -> Self {
        self.stalls = on;
        self
    }

    /// The stall taxonomy summed over every cell simulated so far, when
    /// stall profiling is on.
    #[must_use]
    pub fn stall_profile(&self) -> Option<StallProfile> {
        if !self.stalls {
            return None;
        }
        Some(self.stall_accum.lock().expect("stall accum lock").clone())
    }

    /// Attaches a crash flight recorder: the session notes cell starts,
    /// completions, timeouts and panics into it, so a post-mortem dump
    /// shows what the sweep was doing when it died.
    #[must_use]
    pub fn with_flight_recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.flight = Some(recorder);
        self
    }

    /// The attached flight recorder, if any.
    #[must_use]
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.flight.as_ref()
    }

    /// Replaces the disk-cache circuit-breaker configuration (default:
    /// trip after one exhausted retry loop, re-probe after 30 s). Tests
    /// use a zero cooldown to exercise the half-open recovery path
    /// without waiting.
    #[must_use]
    pub fn cache_breaker_config(mut self, config: BreakerConfig) -> Self {
        self.cache_breaker = CircuitBreaker::new(config);
        self
    }

    /// Replaces the per-run [`Watchdog`] (default: generous cycle budget,
    /// no wall-clock bound).
    #[must_use]
    pub fn watchdog(mut self, watchdog: Watchdog) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Pins the worker-thread count (default: available parallelism,
    /// capped by the number of runnable cells). Thread count never
    /// affects results — only throughput — which the test suite asserts.
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    /// Swaps in an empty artifact store of `budget` bytes, so tests can
    /// force eviction at test sizes. Sessions always use
    /// [`ARTIFACT_BUDGET_BYTES`].
    #[cfg(test)]
    fn artifact_budget(mut self, budget: usize) -> Self {
        self.artifacts = ArtifactStore::new(budget);
        self
    }

    /// The disk cache, if this session has one.
    #[must_use]
    pub fn cache(&self) -> Option<&DiskCache> {
        self.cache.as_ref()
    }

    /// The session's metrics registry (every counter the session keeps).
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Runs a single cell through the session: disk cache, then memoized
    /// artifacts, then simulation, under the session [`Watchdog`].
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Config`] if [`SimConfig::validate`] rejects the
    /// configuration (nothing is simulated), or [`RunError::Timeout`] if
    /// the watchdog's cycle budget or wall-clock bound expired before the
    /// cell committed its instruction budget.
    pub fn run(&self, cfg: &SimConfig) -> Result<SimResult, RunError> {
        cfg.validate()?;
        Ok(self.run_validated(cfg)?.result)
    }

    /// Folds one completed cell's AVF tiers into the manifest means
    /// (every completed cell counts once per request, cache hits
    /// included, so the means weight cells the way the sweep did).
    fn note_avf(&self, r: &SimResult) {
        let mut a = self.avf.lock().expect("avf lock");
        a.unrefined += r.reliability.avf();
        a.refined += r.reliability.refined_avf();
        a.bit_refined += r.reliability.bit_refined_avf();
        a.cells += 1;
    }

    /// The usable disk cache, if any: `None` while the cache circuit
    /// breaker is open (it re-admits one probe per cooldown), and `None`
    /// whenever stall profiling is on (cached entries carry no stall
    /// profile, and profiled runs must not overwrite the byte-pinned
    /// cache entries).
    fn live_cache(&self) -> Option<&DiskCache> {
        let cache = self.cache.as_ref()?;
        if self.stalls || !self.cache_breaker.allow() {
            return None;
        }
        Some(cache)
    }

    /// Publishes the breaker's state into the session gauges. The legacy
    /// `rar_sweep_cache_disabled` gauge stays meaningful: 1 whenever the
    /// cache is not flowing normally (open or probing), 0 when closed.
    fn publish_breaker_state(&self) {
        let state = self.cache_breaker.state();
        self.counters.breaker_state.set(state.as_gauge());
        self.counters
            .cache_disabled
            .set(if state == BreakerState::Closed {
                0.0
            } else {
                1.0
            });
    }

    /// Runs one fallible cache I/O operation under the shared
    /// [`retry_with_backoff`] helper ([`RetryPolicy::quick`]: 3 attempts,
    /// jittered 1–16 ms sleeps, each failed attempt counted in
    /// `rar_sweep_cache_io_errors_total`). Exhausting the retries records
    /// a failure against the cache circuit breaker — tripping it open, so
    /// the sweep continues uncached instead of hammering a broken disk —
    /// and any success closes the breaker again (the half-open probe's
    /// recovery path).
    fn cache_io<T>(
        &self,
        what: &str,
        cfg: &SimConfig,
        mut op: impl FnMut() -> std::io::Result<T>,
    ) -> Option<T> {
        // Fixed jitter seed: sleep schedules never influence results,
        // they only need to be reproducible for chaos-run replay.
        const CACHE_RETRY_SEED: u64 = 0x5eed_cac4e;
        let outcome = retry_with_backoff(
            RetryPolicy::quick(),
            CACHE_RETRY_SEED,
            Some(&self.counters.cache_io_errors),
            |_| op(),
        );
        match outcome {
            Ok(v) => {
                self.cache_breaker.record_success();
                self.publish_breaker_state();
                Some(v)
            }
            Err(e) => {
                if self.cache_breaker.record_failure() {
                    self.counters.breaker_trips.inc();
                    eprintln!(
                        "[rar-sim] warning: disk-cache circuit breaker opened after \
                         repeated I/O errors ({what} {}/{}): {e}",
                        cfg.workload, cfg.technique
                    );
                }
                self.publish_breaker_state();
                None
            }
        }
    }

    /// Cache → single-flight gate → memoize → simulate for one
    /// pre-validated cell.
    fn run_validated(&self, cfg: &SimConfig) -> Result<CellOutcome, RunError> {
        let key = cfg.fingerprint();
        {
            let mut seen = self.seen.lock().expect("seen lock");
            if !seen.workloads.contains(&cfg.workload) {
                seen.workloads.insert(cfg.workload.clone());
            }
            seen.fingerprints.insert(key.clone());
        }
        if let Some(cache) = self.live_cache() {
            let probe = ScopeTimer::start(&self.profiler, Phase::CacheProbe);
            let hit = self
                .cache_io("probing", cfg, || cache.try_load(cfg))
                .flatten();
            drop(probe);
            if let Some(result) = hit {
                self.counters.cache_hits.inc();
                self.note_avf(&result);
                return Ok(CellOutcome {
                    result,
                    cache_hit: true,
                });
            }
        }
        // Single-flight gate: concurrent requests for one fingerprint
        // collapse onto one simulation. The first caller leads; later
        // callers subscribe and clone the leader's result (counted in
        // `rar_sweep_inflight_waits_total`, never as simulated or cached).
        // A failed leader abandons the slot and every subscriber retries
        // the gate, so errors surface per caller with full type fidelity.
        loop {
            let lead = {
                let mut slots = self.inflight.lock().expect("inflight lock");
                match slots.get(&key) {
                    Some(cell) => Err(Arc::clone(cell)),
                    None => {
                        let cell = Arc::new(Inflight::default());
                        slots.insert(key.clone(), Arc::clone(&cell));
                        Ok(cell)
                    }
                }
            };
            match lead {
                Ok(cell) => {
                    let lead = InflightLead {
                        slots: &self.inflight,
                        key: key.clone(),
                        cell,
                        published: false,
                    };
                    // On error (or panic) `lead` drops unpublished and
                    // abandons the slot for the subscribers.
                    let outcome = self.simulate_validated(cfg)?;
                    lead.publish(&outcome.result);
                    self.note_avf(&outcome.result);
                    return Ok(outcome);
                }
                Err(cell) => {
                    self.counters.inflight_waits.inc();
                    let mut state = cell.state.lock().expect("inflight state lock");
                    let settled = loop {
                        match &*state {
                            InflightState::Running => {
                                state = cell.ready.wait(state).expect("inflight state lock");
                            }
                            InflightState::Done(r) => break Some(r.as_ref().clone()),
                            InflightState::Abandoned => break None,
                        }
                    };
                    if let Some(result) = settled {
                        self.note_avf(&result);
                        return Ok(CellOutcome {
                            result,
                            cache_hit: false,
                        });
                    }
                    // Leader failed: loop back and run the cell ourselves.
                }
            }
        }
    }

    /// Memoized artifacts → watchdogged simulation → cache store for one
    /// cell that lost the cache probe and won the single-flight gate.
    fn simulate_validated(&self, cfg: &SimConfig) -> Result<CellOutcome, RunError> {
        if let Some(flight) = &self.flight {
            flight.note("cell_start", &format!("{}/{}", cfg.workload, cfg.technique));
        }
        let artifacts = self
            .artifacts
            .artifacts_for(cfg, &self.counters, &self.profiler);
        let max_cycles = self.watchdog.max_cycles(cfg);
        let deadline = self.watchdog.deadline();
        let sim = ScopeTimer::start(&self.profiler, Phase::CoreSim);
        let run = Simulation::run_prepared_budgeted(
            cfg,
            NullSink,
            &artifacts,
            self.stalls,
            max_cycles,
            deadline,
        );
        drop(sim);
        let result = match run {
            Ok(out) => out.result,
            Err(verdict) => {
                self.counters.run_timeouts.inc();
                if let Some(flight) = &self.flight {
                    flight.note(
                        "cell_timeout",
                        &format!("{}/{} ({verdict:?})", cfg.workload, cfg.technique),
                    );
                }
                return Err(RunError::Timeout {
                    workload: cfg.workload.clone(),
                    technique: cfg.technique,
                    verdict,
                    max_cycles,
                });
            }
        };
        self.counters.simulated.inc();
        // Aggregate guest-side work into the registry (simulated cells
        // only: replayed cells did no guest work in this session).
        result.stats.record_into(&self.registry);
        result.mem.record_into(&self.registry);
        if let Some(profile) = &result.stalls {
            profile.record_into(&self.registry);
            self.stall_accum
                .lock()
                .expect("stall accum lock")
                .merge(profile);
        }
        if let Some(flight) = &self.flight {
            flight.note("cell_done", &format!("{}/{}", cfg.workload, cfg.technique));
        }
        if let Some(cache) = self.live_cache() {
            let store = ScopeTimer::start(&self.profiler, Phase::CacheStore);
            self.cache_io("storing", cfg, || cache.store(cfg, &result));
            drop(store);
        }
        Ok(CellOutcome {
            result,
            cache_hit: false,
        })
    }

    /// Runs `configs` across worker threads, preserving order.
    ///
    /// Every configuration is validated up front: a config that fails
    /// [`SimConfig::validate`] is reported on stderr with its typed
    /// [`ConfigError`] and returned as `None` without ever being
    /// scheduled. Runnable cells are dealt round-robin onto per-worker
    /// deques; idle workers steal work from their peers, so stragglers
    /// never leave threads idle. A cell whose simulation panics or trips
    /// the [`Watchdog`] is surfaced on stderr *immediately* (via a
    /// never-rate-limited [`ProgressReporter::failure`] line) and
    /// excluded (`None`) rather than poisoning the sweep.
    /// Progress is reported as a heartbeat line on stderr every
    /// `RAR_PROGRESS_SECS` seconds (default 5; `0` disables), plus one
    /// summary line when the sweep finishes.
    pub fn run_all(&self, configs: &[SimConfig]) -> Vec<Option<SimResult>> {
        self.run_all_cancellable(configs, &CancelToken::new())
    }

    /// [`SweepSession::run_all`] with a cooperative [`CancelToken`].
    ///
    /// Workers poll the token before claiming each cell: a cell already
    /// simulating runs to completion (and lands in the result cache),
    /// while unclaimed cells are returned as `None` and counted in
    /// `rar_sweep_cells_canceled_total`. Completed cells keep their
    /// results, so a canceled sweep leaves the disk cache consistent and
    /// a resubmitted grid replays the finished prefix for free.
    pub fn run_all_cancellable(
        &self,
        configs: &[SimConfig],
        cancel: &CancelToken,
    ) -> Vec<Option<SimResult>> {
        let valid: Vec<bool> = configs
            .iter()
            .map(|cfg| match cfg.validate() {
                Ok(()) => true,
                Err(e) => {
                    self.counters.rejected.inc();
                    eprintln!(
                        "[rar-sim] {}/{} rejected before simulation: {e}",
                        cfg.workload, cfg.technique
                    );
                    false
                }
            })
            .collect();
        let runnable = valid.iter().filter(|&&v| v).count();
        let threads = self
            .threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(4, std::num::NonZero::get)
            })
            .min(runnable.max(1));
        self.counters.threads.set(threads as f64);

        // Deal cells round-robin so each deque starts with a spread of
        // workloads (cells of one workload tend to cost the same).
        let queues: Vec<Mutex<VecDeque<usize>>> =
            (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();
        for (n, i) in (0..configs.len()).filter(|&i| valid[i]).enumerate() {
            queues[n % threads].lock().expect("queue lock").push_back(i);
        }

        let results: Vec<Mutex<Option<SimResult>>> =
            configs.iter().map(|_| Mutex::new(None)).collect();
        // Per-run_all progress state, separate from the session counters
        // (one session often serves many sweeps back to back).
        let reporter = ProgressReporter::from_env(runnable as u64);
        let done = AtomicUsize::new(0);
        let local_hits = AtomicU64::new(0);
        let local_failed = AtomicU64::new(0);
        let busy_nanos = AtomicU64::new(0);
        let snapshot = |completed: u64| ProgressSnapshot {
            completed,
            cache_hits: local_hits.load(Ordering::Relaxed),
            failed: local_failed.load(Ordering::Relaxed),
            busy_nanos: busy_nanos.load(Ordering::Relaxed),
            threads: threads as u64,
        };
        let started = std::time::Instant::now();
        std::thread::scope(|s| {
            for me in 0..threads {
                let queues = &queues;
                let results = &results;
                let done = &done;
                let reporter = &reporter;
                let local_hits = &local_hits;
                let local_failed = &local_failed;
                let busy_nanos = &busy_nanos;
                let snapshot = &snapshot;
                s.spawn(move || loop {
                    // Cancellation point: checked once per cell, before
                    // claiming it, so an in-flight cell always finishes.
                    if cancel.is_canceled() {
                        break;
                    }
                    // Own queue first (front), then steal from peers
                    // (back) — the classic deque discipline keeps stolen
                    // work coarse.
                    let mut item = queues[me].lock().expect("queue lock").pop_front();
                    if item.is_none() {
                        for (other, q) in queues.iter().enumerate() {
                            if other == me {
                                continue;
                            }
                            item = q.lock().expect("queue lock").pop_back();
                            if item.is_some() {
                                break;
                            }
                        }
                    }
                    let Some(i) = item else { break };
                    let cfg = &configs[i];
                    let cell_started = std::time::Instant::now();
                    let cell = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        self.run_validated(cfg)
                    }));
                    let cell_nanos =
                        u64::try_from(cell_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    busy_nanos.fetch_add(cell_nanos, Ordering::Relaxed);
                    if P::ENABLED {
                        self.counters.cell_nanos.observe(cell_nanos);
                    }
                    let finished = done.fetch_add(1, Ordering::Relaxed) as u64 + 1;
                    // Failures surface the moment they happen, carried on
                    // a never-rate-limited reporter line with full
                    // progress context — not silently accumulated until
                    // the end-of-sweep summary.
                    let failure = match cell {
                        Ok(Ok(outcome)) => {
                            if outcome.cache_hit {
                                local_hits.fetch_add(1, Ordering::Relaxed);
                            }
                            *results[i].lock().expect("no poisoned runs") = Some(outcome.result);
                            None
                        }
                        Ok(Err(err)) => Some(format!(
                            "{}/{} FAILED ({err}; excluded from tables)",
                            cfg.workload, cfg.technique
                        )),
                        Err(_) => {
                            if let Some(flight) = &self.flight {
                                flight.note(
                                    "cell_panic",
                                    &format!("{}/{}", cfg.workload, cfg.technique),
                                );
                            }
                            Some(format!(
                                "{}/{} FAILED (panicked; excluded from tables)",
                                cfg.workload, cfg.technique
                            ))
                        }
                    };
                    if let Some(what) = failure {
                        self.counters.failed.inc();
                        local_failed.fetch_add(1, Ordering::Relaxed);
                        eprintln!("{}", reporter.failure(&what, &snapshot(finished)));
                    } else if let Some(line) = reporter.heartbeat(&snapshot(finished)) {
                        eprintln!("{line}");
                    }
                });
            }
        });
        let wall = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.counters.wall_nanos.add(wall);
        self.counters
            .busy_nanos
            .add(busy_nanos.load(Ordering::Relaxed));
        // Anything still sitting in a deque was abandoned by the
        // cancellation token — account for it so a canceled sweep's
        // telemetry explains its missing cells.
        let unclaimed: usize = queues
            .iter()
            .map(|q| q.lock().expect("queue lock").len())
            .sum();
        if unclaimed > 0 {
            self.counters.canceled.add(unclaimed as u64);
        }
        if runnable > 0 {
            let completed = done.load(Ordering::Relaxed) as u64;
            eprintln!("{}", reporter.final_line(&snapshot(completed)));
        }
        results
            .into_iter()
            .map(|m| m.into_inner().expect("run finished"))
            .collect()
    }

    /// Snapshot of the session's counters so far, read back from the
    /// metrics registry (the registry is the single source of truth; the
    /// struct is just a typed view of it).
    #[must_use]
    pub fn stats(&self) -> SweepStats {
        let c = &self.counters;
        SweepStats {
            simulated: c.simulated.get(),
            cache_hits: c.cache_hits.get(),
            rejected: c.rejected.get(),
            failed: c.failed.get(),
            trace_memo_hits: c.trace_hits.get(),
            trace_memo_misses: c.trace_misses.get(),
            refinement_memo_hits: c.refinement_hits.get(),
            refinement_memo_misses: c.refinement_misses.get(),
            wall_seconds: c.wall_nanos.get() as f64 / 1e9,
            threads: c.threads.get() as u64,
        }
    }

    /// The full telemetry registry in Prometheus text format.
    #[must_use]
    pub fn telemetry_prometheus(&self) -> String {
        let _scope = ScopeTimer::start(&self.profiler, Phase::Serialize);
        self.profiler.publish(&self.registry);
        rar_telemetry::export::to_prometheus(&self.registry)
    }

    /// The run manifest: tool identity, inputs (workloads, config
    /// fingerprints, thread count), headline throughput figures, and the
    /// embedded telemetry snapshot. Written beside sweep results so any
    /// table can be traced back to what produced it; validated in CI by
    /// [`rar_telemetry::validate_manifest`].
    #[must_use]
    pub fn manifest_json(&self, tool: &str, version: &str) -> String {
        let _scope = ScopeTimer::start(&self.profiler, Phase::Serialize);
        self.profiler.publish(&self.registry);
        let s = self.stats();
        let (workloads, fingerprints) = {
            let seen = self.seen.lock().expect("seen lock");
            (
                seen.workloads.iter().cloned().collect::<Vec<_>>(),
                seen.fingerprints.iter().cloned().collect::<Vec<_>>(),
            )
        };
        let mut b = ManifestBuilder::new(tool, version);
        b.set_u64("threads", s.threads.max(1))
            .set_u64("cells_completed", s.completed())
            .set_u64("cells_simulated", s.simulated)
            .set_u64("cells_cached", s.cache_hits)
            .set_u64("cells_rejected", s.rejected)
            .set_u64("cells_failed", s.failed)
            .set_f64("cache_hit_rate", s.cache_hit_rate())
            .set_f64("runs_per_second", s.runs_per_second())
            .set_f64("wall_seconds", s.wall_seconds)
            .set_str("profiled", if P::ENABLED { "yes" } else { "no" })
            .set_str_array("workloads", workloads)
            .set_str_array("fingerprints", fingerprints);
        // Mean AVF tiers over this session's completed cells (optional:
        // omitted for a session that never completed a cell, so older
        // manifests stay valid byte for byte).
        {
            let a = self.avf.lock().expect("avf lock");
            if a.cells > 0 {
                let n = a.cells as f64;
                b.set_f64("avf_unrefined_mean", sanitize_f64(a.unrefined / n))
                    .set_f64("avf_refined_mean", sanitize_f64(a.refined / n))
                    .set_f64("avf_bit_refined_mean", sanitize_f64(a.bit_refined / n));
            }
        }
        // Stall attribution headline (optional: present only for sessions
        // that ran with the cycle-loop stall profiler on).
        if self.stalls {
            let p = self.stall_accum.lock().expect("stall accum lock");
            b.set_f64("quiescent_fraction", sanitize_f64(p.quiescent_fraction()))
                .set_u64("stall_total_cycles", p.total());
        }
        if let Some(flight) = &self.flight {
            b.set_u64("flight_events", flight.len() as u64);
        }
        b.render(&self.registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use rar_core::{StallBucket, Technique};
    use rar_telemetry::WallProfiler;
    use rar_trace::jsonv::{self, Value};

    /// The value of counter `name` in a manifest's embedded telemetry.
    fn manifest_counter(manifest: &str, name: &str) -> Option<u64> {
        crate::dashboard::counter_value(&jsonv::parse(manifest).expect("manifest is JSON"), name)
    }

    fn grid() -> Vec<SimConfig> {
        let mut v = Vec::new();
        for t in [Technique::Ooo, Technique::Flush, Technique::Rar] {
            for w in ["mcf", "milc"] {
                v.push(
                    SimConfig::builder()
                        .workload(w)
                        .technique(t)
                        .warmup(300)
                        .instructions(1_500)
                        .build(),
                );
            }
        }
        v
    }

    #[test]
    fn memoization_generates_each_trace_once() {
        let session = SweepSession::new();
        let rs = session.run_all(&grid());
        assert!(rs.iter().all(Option::is_some));
        let s = session.stats();
        assert_eq!(s.simulated, 6);
        // Two (workload, seed) keys, each generated exactly once and then
        // served from the store; same for refinements (one horizon).
        assert_eq!(s.trace_memo_misses, 2);
        assert_eq!(s.trace_memo_hits, 4);
        assert_eq!(s.refinement_memo_misses, 2);
        assert_eq!(s.refinement_memo_hits, 4);
    }

    #[test]
    fn shared_artifacts_match_private_ones() {
        // A sweep cell must produce exactly what a standalone run does.
        let session = SweepSession::new();
        let grid = grid();
        let swept = session.run_all(&grid);
        for (cfg, got) in grid.iter().zip(&swept) {
            let standalone = Simulation::run(cfg);
            assert_eq!(got.as_ref().unwrap(), &standalone, "{}", cfg.fingerprint());
        }
    }

    #[test]
    fn a_longer_horizon_grows_the_shared_prefix() {
        let session = SweepSession::new();
        let short = SimConfig::builder()
            .workload("mcf")
            .warmup(100)
            .instructions(500)
            .build();
        let long = SimConfig::builder()
            .workload("mcf")
            .warmup(100)
            .instructions(2_000)
            .build();
        let a = session.run(&short).unwrap();
        let b = session.run(&long).unwrap();
        assert_eq!(a, Simulation::run(&short));
        assert_eq!(b, Simulation::run(&long));
        let s = session.stats();
        // One fresh generation plus one growth of the same key.
        assert_eq!(s.trace_memo_misses, 2);
        // Different horizons are distinct refinement keys.
        assert_eq!(s.refinement_memo_misses, 2);
    }

    /// A small cell of `workload` at `seed`.
    fn seeded(workload: &str, technique: Technique, seed: u64) -> SimConfig {
        SimConfig::builder()
            .workload(workload)
            .technique(technique)
            .seed(seed)
            .warmup(100)
            .instructions(400)
            .build()
    }

    /// What one key of `cfg` costs the store: its trace and refinement.
    fn key_bytes(cfg: &SimConfig) -> usize {
        let spec = workload(&cfg.workload).expect("known workload");
        let prefix = TracePrefix::generate(&spec, cfg.seed, refinement_horizon(cfg));
        prefix.heap_bytes() + rar_verify::analyze(prefix.uops()).heap_bytes()
    }

    /// The session's published `rar_sweep_artifact_bytes` gauge.
    fn artifact_bytes(session: &SweepSession) -> usize {
        session.registry().gauge(names::SWEEP_ARTIFACT_BYTES).get() as usize
    }

    #[test]
    fn bounded_store_stays_within_budget_across_unique_seeds() {
        // Room for about two keys: from the third seed on, every key
        // evicts an older one.
        let budget = 2 * key_bytes(&seeded("mcf", Technique::Ooo, 1)) + 1_000;
        let session = SweepSession::new().artifact_budget(budget).threads(2);
        for seed in 1..=10 {
            for (w, t) in [("mcf", Technique::Ooo), ("lbm", Technique::Rar)] {
                let cfg = seeded(w, t, seed);
                let got = session.run(&cfg).unwrap();
                let resident = artifact_bytes(&session);
                assert!(
                    resident <= budget,
                    "{resident} > {budget} after {w} seed {seed}"
                );
                assert!(resident > 0);
                assert_eq!(got, Simulation::try_run(&cfg).unwrap(), "{w} seed {seed}");
            }
        }
        let s = session.stats();
        assert_eq!((s.trace_memo_misses, s.trace_memo_hits), (20, 0));
        assert_eq!((s.refinement_memo_misses, s.refinement_memo_hits), (20, 0));
        // Concurrent cells evict under the same bound.
        let grid: Vec<SimConfig> = (11..=14)
            .flat_map(|seed| [Technique::Ooo, Technique::Rar].map(|t| seeded("milc", t, seed)))
            .collect();
        let swept = session.run_all(&grid);
        assert!(artifact_bytes(&session) <= budget);
        for (cfg, got) in grid.iter().zip(swept) {
            assert_eq!(got, Some(Simulation::try_run(cfg).unwrap()));
        }
    }

    #[test]
    fn an_evicted_key_counts_a_miss_and_regenerates_identical_bytes() {
        let a = seeded("mcf", Technique::Rar, 1);
        let b = seeded("milc", Technique::Rar, 1);
        // Room for one key: running `b` evicts `a`.
        let session = SweepSession::new().artifact_budget(key_bytes(&a).max(key_bytes(&b)));
        let first = json::to_json(&session.run(&a).unwrap());
        session.run(&b).unwrap();
        let again = json::to_json(&session.run(&a).unwrap());
        let s = session.stats();
        assert_eq!((s.trace_memo_misses, s.trace_memo_hits), (3, 0));
        assert_eq!((s.refinement_memo_misses, s.refinement_memo_hits), (3, 0));
        assert_eq!(first, again);
        assert_eq!(first, json::to_json(&Simulation::try_run(&a).unwrap()));
    }

    #[test]
    fn eviction_takes_the_least_recently_used_key() {
        let [a, b, c] = [1, 2, 3].map(|seed| seeded("mcf", Technique::Ooo, seed));
        // Room for two keys, with slack for seeds that differ by a few
        // bytes, but not for three.
        let budget = key_bytes(&a) + key_bytes(&b) + key_bytes(&c) / 2;
        let session = SweepSession::new().artifact_budget(budget);
        for cfg in [&a, &b, &a, &c] {
            session.run(cfg).unwrap();
        }
        // `a` was used after `b`, so `c` evicted `b`.
        let s = session.stats();
        assert_eq!((s.trace_memo_misses, s.trace_memo_hits), (3, 1));
        session.run(&a).unwrap();
        assert_eq!(session.stats().trace_memo_hits, 2);
        session.run(&b).unwrap();
        assert_eq!(session.stats().trace_memo_misses, 4);
    }

    #[test]
    fn stats_report_throughput_after_a_sweep() {
        let session = SweepSession::new().threads(2);
        let _ = session.run_all(&grid()[..2]);
        let s = session.stats();
        assert_eq!(s.completed(), 2);
        assert_eq!(s.threads, 2);
        assert!(s.wall_seconds > 0.0);
        assert!(s.runs_per_second() > 0.0);
        let manifest = session.manifest_json("rar-sim-tests", "0.1.0");
        let doc = jsonv::parse(&manifest).expect("manifest is JSON");
        assert_eq!(doc.get("cells_simulated").and_then(Value::as_u64), Some(2));
        assert_eq!(doc.get("threads").and_then(Value::as_u64), Some(2));
        assert!(doc
            .get("runs_per_second")
            .and_then(Value::as_f64)
            .is_some_and(|r| r > 0.0));
    }

    #[test]
    fn profiled_session_is_bit_identical_to_unprofiled() {
        // Profiling observes the host, never the simulation: the same
        // grid through a profiled session must reproduce every result
        // exactly.
        let grid = grid();
        let plain = SweepSession::new().threads(2);
        let profiled = SweepSession::with_profiler(WallProfiler::new()).threads(2);
        let a = plain.run_all(&grid);
        let b = profiled.run_all(&grid);
        assert_eq!(a, b);
        // And the profiler actually attributed time somewhere: the
        // manifest publishes the phase totals into its telemetry.
        let manifest = profiled.manifest_json("rar-sim-tests", "0.1.0");
        assert!(manifest.contains("\"profiled\": \"yes\""), "{manifest}");
        let sim_nanos = manifest_counter(&manifest, "rar_profile_core_sim_nanos_total");
        assert!(
            sim_nanos.is_some_and(|n| n > 0),
            "core sim time must be nonzero"
        );
    }

    #[test]
    fn empty_session_exports_finite_numbers_only() {
        // Zero-duration / zero-run sessions must not leak NaN or inf
        // into JSON (which cannot represent them).
        let session = SweepSession::new();
        let s = session.stats();
        assert_eq!(s.cache_hit_rate(), 0.0);
        assert_eq!(s.runs_per_second(), 0.0);
        // Match non-finite *values* (`: inf`), not the substring `inf`,
        // which legitimately appears in `rar_sweep_inflight_waits_total`.
        let manifest = session.manifest_json("rar-sim-tests", "0.0.0");
        assert!(
            !manifest.contains("NaN") && !manifest.contains(": inf"),
            "{manifest}"
        );
    }

    #[test]
    fn manifest_records_inputs_and_validates() {
        let session = SweepSession::new().threads(2);
        let _ = session.run_all(&grid());
        let manifest = session.manifest_json("rar-sim-tests", "0.1.0");
        assert_eq!(
            rar_telemetry::validate_manifest(&manifest),
            Vec::<String>::new(),
            "{manifest}"
        );
        assert!(manifest.contains("\"workloads\": [\"mcf\", \"milc\"]"));
        // One fingerprint per distinct configuration in the grid.
        assert_eq!(manifest.matches("\"fingerprints\"").count(), 1);
        for cfg in grid() {
            assert!(
                manifest.contains(&cfg.fingerprint()),
                "{}",
                cfg.fingerprint()
            );
        }
        assert!(manifest.contains(&format!("\"{}\"", rar_telemetry::TELEMETRY_SCHEMA)));
    }

    #[test]
    fn watchdog_timeouts_are_typed_errors_not_hangs() {
        let strangled = Watchdog {
            cycle_factor: 0,
            cycle_slack: 1,
            wall: None,
        };
        let session = SweepSession::new().watchdog(strangled);
        let cfg = &grid()[0];
        match session.run(cfg) {
            Err(RunError::Timeout {
                verdict,
                max_cycles,
                ..
            }) => {
                assert_eq!(verdict, RunVerdict::CycleBudget);
                assert_eq!(max_cycles, 1);
            }
            other => panic!("expected a watchdog timeout, got {other:?}"),
        }
        assert_eq!(
            session.registry().counter(names::SWEEP_RUN_TIMEOUTS).get(),
            1
        );
        // run_all excludes timed-out cells instead of hanging or dying.
        let rs = session.run_all(&grid()[..2]);
        assert!(rs.iter().all(Option::is_none));
        assert_eq!(session.stats().failed, 2);
        // A default watchdog never fires on healthy cells.
        let healthy = SweepSession::new();
        assert!(healthy.run(cfg).is_ok());
        assert_eq!(
            healthy.registry().counter(names::SWEEP_RUN_TIMEOUTS).get(),
            0
        );
    }

    #[test]
    fn broken_cache_disk_degrades_to_cache_off() {
        // Point the cache "directory" at an existing *file*: every probe
        // and store then fails with a genuine I/O error (not NotFound,
        // which is an ordinary miss).
        let path = std::env::temp_dir().join(format!("rar-sweep-cachefile-{}", std::process::id()));
        std::fs::write(&path, b"not a directory").unwrap();
        let session = SweepSession::with_disk_cache(&path);
        let cfg = &grid()[0];
        let result = session.run(cfg).expect("sweep must survive a broken disk");
        assert_eq!(&result, &Simulation::run(cfg), "results stay correct");
        // The probe retried (3 attempts), then tripped the breaker open —
        // the store phase never touched the broken disk.
        let io_errors = session.registry().counter(names::SWEEP_CACHE_IO_ERRORS);
        assert_eq!(io_errors.get(), 3);
        assert_eq!(
            session.registry().gauge(names::SWEEP_CACHE_DISABLED).get(),
            1.0
        );
        assert_eq!(
            session
                .registry()
                .counter(names::SWEEP_CACHE_BREAKER_TRIPS)
                .get(),
            1
        );
        // Later cells skip the cache entirely while the breaker is open
        // (the default 30 s cooldown dwarfs this test): no further I/O.
        let again = session.run(cfg).unwrap();
        assert_eq!(again, result);
        assert_eq!(io_errors.get(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cache_breaker_reprobes_and_recovers_after_cooldown() {
        // Break the disk (a file where the cache directory should be),
        // trip the breaker, then fix the disk: with a zero cooldown the
        // next cell's probe is the half-open probe, and its success must
        // close the breaker and resume normal caching.
        let path = std::env::temp_dir().join(format!("rar-sweep-breaker-{}", std::process::id()));
        std::fs::write(&path, b"not a directory").unwrap();
        let session = SweepSession::with_disk_cache(&path).cache_breaker_config(BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::ZERO,
        });
        let cfg = &grid()[0];
        let expected = Simulation::run(cfg);
        assert_eq!(session.run(cfg).unwrap(), expected);
        // Zero cooldown means the store path re-probed immediately and
        // tripped the breaker a second time (probe trip + store trip).
        assert_eq!(
            session
                .registry()
                .counter(names::SWEEP_CACHE_BREAKER_TRIPS)
                .get(),
            2
        );
        // Fix the disk and rerun: the probe recovers, the breaker closes,
        // and the store path persists the entry for the warm rerun.
        std::fs::remove_file(&path).unwrap();
        assert_eq!(session.run(cfg).unwrap(), expected);
        assert_eq!(
            session.registry().gauge(names::SWEEP_CACHE_DISABLED).get(),
            0.0
        );
        assert_eq!(
            session
                .registry()
                .gauge(names::SWEEP_CACHE_BREAKER_STATE)
                .get(),
            0.0
        );
        // Warm rerun replays from disk: the recovered cache really works.
        assert_eq!(session.run(cfg).unwrap(), expected);
        assert_eq!(session.stats().cache_hits, 1);
        let _ = std::fs::remove_dir_all(&path);
    }

    #[test]
    fn inflight_subscribers_reuse_the_leaders_result() {
        // Deterministic single-flight mechanics: occupy the slot by hand
        // (as a leader would), let a subscriber block on it, publish, and
        // check the subscriber returned the published result without
        // simulating anything itself.
        let session = SweepSession::new();
        let cfg = grid()[0].clone();
        let key = cfg.fingerprint();
        let cell = Arc::new(Inflight::default());
        session
            .inflight
            .lock()
            .unwrap()
            .insert(key.clone(), Arc::clone(&cell));
        let expected = Simulation::run(&cfg);
        std::thread::scope(|s| {
            let subscriber = s.spawn(|| session.run_validated(&cfg).unwrap());
            while session.counters.inflight_waits.get() == 0 {
                std::thread::yield_now();
            }
            let lead = InflightLead {
                slots: &session.inflight,
                key,
                cell: Arc::clone(&cell),
                published: false,
            };
            lead.publish(&expected);
            let got = subscriber.join().unwrap();
            assert!(
                !got.cache_hit,
                "a shared in-flight result is not a cache hit"
            );
            assert_eq!(got.result, expected);
        });
        assert_eq!(
            session.stats().simulated,
            0,
            "the subscriber never simulated"
        );
        assert_eq!(session.counters.inflight_waits.get(), 1);
        assert!(session.inflight.lock().unwrap().is_empty(), "slot released");
    }

    #[test]
    fn abandoned_leader_lets_subscribers_run_the_cell_themselves() {
        // A leader that dies without publishing (the Drop guard fires on
        // panic or error) must not strand its subscribers: they retry the
        // gate and one of them runs the cell.
        let session = SweepSession::new();
        let cfg = grid()[0].clone();
        let key = cfg.fingerprint();
        let cell = Arc::new(Inflight::default());
        session
            .inflight
            .lock()
            .unwrap()
            .insert(key.clone(), Arc::clone(&cell));
        std::thread::scope(|s| {
            let subscriber = s.spawn(|| session.run_validated(&cfg).unwrap());
            while session.counters.inflight_waits.get() == 0 {
                std::thread::yield_now();
            }
            drop(InflightLead {
                slots: &session.inflight,
                key,
                cell: Arc::clone(&cell),
                published: false,
            });
            let got = subscriber.join().unwrap();
            assert_eq!(got.result, Simulation::run(&cfg));
        });
        assert_eq!(
            session.stats().simulated,
            1,
            "the subscriber re-ran the cell"
        );
    }

    #[test]
    fn concurrent_identical_cells_collapse_to_one_simulation() {
        // End to end: two requests for the same fingerprint, guaranteed
        // to overlap (the follower waits until the leader holds the
        // slot), produce one simulation and two identical results.
        let session = SweepSession::new();
        let cfg = SimConfig::builder()
            .workload("mcf")
            .technique(Technique::Rar)
            .warmup(300)
            .instructions(30_000)
            .build();
        let (a, b) = std::thread::scope(|s| {
            let leader = s.spawn(|| session.run_validated(&cfg).unwrap());
            while session.inflight.lock().unwrap().is_empty() {
                std::thread::yield_now();
            }
            let follower = session.run_validated(&cfg).unwrap();
            (leader.join().unwrap(), follower)
        });
        assert_eq!(a.result, b.result);
        assert_eq!(session.stats().simulated, 1, "exactly one simulation ran");
        assert_eq!(session.counters.inflight_waits.get(), 1);
    }

    #[test]
    fn pre_canceled_sweep_claims_no_cells() {
        let session = SweepSession::new();
        let token = CancelToken::new();
        token.cancel();
        let rs = session.run_all_cancellable(&grid(), &token);
        assert!(rs.iter().all(Option::is_none));
        assert_eq!(session.stats().simulated, 0);
        assert_eq!(
            session.counters.canceled.get(),
            6,
            "every runnable cell counted"
        );
    }

    #[test]
    fn cancel_mid_sweep_keeps_finished_results_and_cache_consistent() {
        let dir = std::env::temp_dir().join(format!("rar-sweep-cancel-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let grid: Vec<SimConfig> = ["mcf", "milc", "lbm"]
            .iter()
            .flat_map(|w| {
                [Technique::Ooo, Technique::Rar].map(|t| {
                    SimConfig::builder()
                        .workload(w)
                        .technique(t)
                        .warmup(300)
                        .instructions(5_000)
                        .build()
                })
            })
            .collect();
        let session = SweepSession::with_disk_cache(&dir).threads(1);
        let token = CancelToken::new();
        let simulated = session.registry().counter(names::SWEEP_CELLS_SIMULATED);
        let rs = std::thread::scope(|s| {
            s.spawn(|| {
                // Cancel as soon as the first cell lands: with one worker
                // the sweep winds down after at most the cell in flight.
                while simulated.get() == 0 {
                    std::thread::yield_now();
                }
                token.cancel();
            });
            session.run_all_cancellable(&grid, &token)
        });
        let completed: Vec<usize> = (0..grid.len()).filter(|&i| rs[i].is_some()).collect();
        assert!(!completed.is_empty(), "the first cell always finishes");
        assert!(
            session.counters.canceled.get() >= 1,
            "cancellation dropped cells"
        );
        assert_eq!(
            completed.len() as u64 + session.counters.canceled.get(),
            grid.len() as u64,
            "every cell is either completed or counted canceled"
        );
        // Finished cells are correct and durable: a fresh session over
        // the same cache replays exactly them as hits and simulates only
        // the canceled remainder.
        for &i in &completed {
            assert_eq!(rs[i].as_ref().unwrap(), &Simulation::run(&grid[i]));
        }
        let resumed = SweepSession::with_disk_cache(&dir).threads(1);
        let rerun = resumed.run_all(&grid);
        assert!(rerun.iter().all(Option::is_some));
        let s2 = resumed.stats();
        assert_eq!(s2.cache_hits, completed.len() as u64);
        assert_eq!(s2.simulated, (grid.len() - completed.len()) as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn telemetry_exports_cover_every_canonical_metric() {
        let session = SweepSession::new();
        let manifest = session.manifest_json("rar-sim-tests", "0.1.0");
        let doc = jsonv::parse(&manifest).expect("manifest is JSON");
        let metrics = doc
            .get("telemetry")
            .and_then(|t| t.get("metrics"))
            .expect("manifest embeds the telemetry registry");
        let prom = session.telemetry_prometheus();
        for name in names::ALL {
            assert!(
                metrics.get(name).is_some(),
                "{name} missing from the manifest"
            );
            assert!(prom.contains(name), "{name} missing from Prometheus text");
        }
    }

    #[test]
    fn stall_profiled_sweep_conserves_cycles_and_matches_plain_results() {
        // The stall classifier observes the pipeline, never steers it:
        // the profiled sweep reproduces every result bit for bit, and the
        // aggregate bucket tallies sum exactly to the total simulated
        // cycles (one tally per cycle, by construction).
        let grid = grid();
        let plain = SweepSession::new();
        let stalled = SweepSession::new().stall_profiling(true);
        let a = plain.run_all(&grid);
        let b = stalled.run_all(&grid);
        // Identical modulo the stall-profile carrier field itself.
        let stripped: Vec<_> = b
            .iter()
            .map(|r| {
                r.clone().map(|mut r| {
                    assert!(r.stalls.is_some(), "profiled cells carry a profile");
                    r.stalls = None;
                    r
                })
            })
            .collect();
        assert_eq!(a, stripped);
        assert!(plain.stall_profile().is_none());
        let profile = stalled.stall_profile().expect("profiling was on");
        let total_cycles: u64 = b
            .iter()
            .map(|r| r.as_ref().expect("cell completed").stats.cycles)
            .sum();
        assert_eq!(profile.total(), total_cycles, "conservation violated");
        assert!(profile.count(StallBucket::Retiring) > 0);
        // The registry carries the same tallies for exporters.
        let recorded: u64 = StallBucket::ALL
            .iter()
            .map(|b| {
                stalled
                    .registry()
                    .counter(&format!("rar_stall_{}_cycles_total", b.name()))
                    .get()
            })
            .sum();
        assert_eq!(recorded, total_cycles);
    }

    #[test]
    fn stall_tallies_are_thread_count_invariant() {
        let grid = grid();
        let one = SweepSession::new().threads(1).stall_profiling(true);
        let four = SweepSession::new().threads(4).stall_profiling(true);
        let _ = one.run_all(&grid);
        let _ = four.run_all(&grid);
        assert_eq!(
            one.stall_profile().unwrap(),
            four.stall_profile().unwrap(),
            "stall attribution must not depend on worker scheduling"
        );
    }

    #[test]
    fn manifest_stall_counters_match_the_stall_profile() {
        let session = SweepSession::new().stall_profiling(true);
        let _ = session.run_all(&grid()[..2]);
        let profile = session.stall_profile().expect("profiling was on");
        let manifest = session.manifest_json("rar-sim-tests", "0.1.0");
        let mut sum = 0;
        for bucket in StallBucket::ALL {
            let name = format!("rar_stall_{}_cycles_total", bucket.name());
            let cycles = manifest_counter(&manifest, &name).expect("stall counter in manifest");
            assert_eq!(cycles, profile.count(bucket), "{name}");
            sum += cycles;
        }
        let doc = jsonv::parse(&manifest).expect("manifest is JSON");
        assert_eq!(
            doc.get("stall_total_cycles").and_then(Value::as_u64),
            Some(sum)
        );
        assert!(sum > 0);
    }

    #[test]
    fn stall_profiling_bypasses_the_disk_cache() {
        // Cached entries carry no stall profile, so a profiled session
        // must simulate every cell itself — and must not overwrite the
        // cache a plain session will replay from.
        let dir = std::env::temp_dir().join(format!("rar-sweep-stalls-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let grid = grid();
        let warm = SweepSession::with_disk_cache(&dir);
        let _ = warm.run_all(&grid);
        let stalled = SweepSession::with_disk_cache(&dir).stall_profiling(true);
        let _ = stalled.run_all(&grid);
        let s = stalled.stats();
        assert_eq!(s.cache_hits, 0, "profiled cells must not replay");
        assert_eq!(s.simulated, grid.len() as u64);
        assert!(stalled.stall_profile().unwrap().total() > 0);
        let replay = SweepSession::with_disk_cache(&dir);
        let _ = replay.run_all(&grid);
        assert_eq!(replay.stats().cache_hits, grid.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_carries_quiescent_fraction_when_profiled() {
        let session = SweepSession::new().stall_profiling(true);
        let _ = session.run_all(&grid());
        let manifest = session.manifest_json("rar-sim-tests", "0.1.0");
        assert_eq!(
            rar_telemetry::validate_manifest(&manifest),
            Vec::<String>::new(),
            "{manifest}"
        );
        assert!(manifest.contains("\"quiescent_fraction\":"), "{manifest}");
        assert!(manifest.contains("\"stall_total_cycles\":"), "{manifest}");
        let off = SweepSession::new();
        let _ = off.run_all(&grid()[..1]);
        assert!(!off
            .manifest_json("rar-sim-tests", "0.1.0")
            .contains("quiescent_fraction"));
    }

    #[test]
    fn span_recorded_sweep_is_bit_identical_and_nests_phases() {
        // Span recording is host-side observation only — results match a
        // plain session exactly — and every recorded phase leaf hangs off
        // whatever parent the worker thread had adopted.
        let grid = grid();
        let log = Arc::new(rar_telemetry::SpanLog::new());
        let recorded =
            SweepSession::with_profiler(rar_telemetry::SpanProfiler::new(Arc::clone(&log)));
        let plain = SweepSession::new();
        let a = plain.run_all(&grid);
        let b = recorded.run_all(&grid);
        assert_eq!(a, b);
        let spans = log.snapshot();
        assert!(!spans.is_empty(), "phase leaves were recorded");
        assert!(spans.iter().any(|s| s.name == "core_sim"));
        assert!(spans.iter().all(|s| s.dur_nanos.is_some()));
    }

    #[test]
    fn flight_recorder_captures_cell_lifecycle_and_timeouts() {
        let flight = Arc::new(rar_telemetry::FlightRecorder::new(64));
        let session = SweepSession::new().with_flight_recorder(Arc::clone(&flight));
        assert!(session.flight_recorder().is_some());
        let _ = session.run(&grid()[0]);
        let kinds: Vec<String> = flight.snapshot().iter().map(|e| e.kind.clone()).collect();
        assert!(kinds.contains(&"cell_start".to_string()), "{kinds:?}");
        assert!(kinds.contains(&"cell_done".to_string()), "{kinds:?}");
        // A watchdog timeout leaves a cell_timeout breadcrumb.
        let strangled = Watchdog {
            cycle_factor: 0,
            cycle_slack: 1,
            wall: None,
        };
        let session = SweepSession::new()
            .watchdog(strangled)
            .with_flight_recorder(Arc::clone(&flight));
        assert!(session.run(&grid()[0]).is_err());
        let kinds: Vec<String> = flight.snapshot().iter().map(|e| e.kind.clone()).collect();
        assert!(kinds.contains(&"cell_timeout".to_string()), "{kinds:?}");
        let dump = flight.dump_json("test");
        assert!(dump.contains(rar_telemetry::FLIGHT_SCHEMA));
    }
}
