//! The six workloads: set-up, the untraced measurement, and the traced
//! run that produces the per-layer numbers.
//!
//! Every load comes from this process, with at most [`THREADS`]
//! load-generating threads. The workload seed is the only input; the
//! simulator receives only the configurations generated from it.

use crate::digest::{self, Digest};
use crate::layered::{self, span, LayerAcc};
use crate::serve;
use crate::spec::Workload;
use crate::stats::{best_two, quantile, relative, Estimate, Summary};
use rar_core::Technique;
use rar_inject::{run_campaign, CampaignResult, CampaignSpec};
use rar_sim::{
    run_injection_campaign, InjectionHarness, SimConfig, SimResult, Simulation, SweepSession,
};
use rar_telemetry::{Phase, Profiler, SpanId, SpanLog, SpanRecorder};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Load-generating threads of the sweep sessions and of the daemon's
/// clients.
pub const THREADS: usize = 2;

/// Passes of the traced run's own workload loop: enough to see every
/// phase twice, few enough to keep the span log small.
const TRACED_PASSES: usize = 2;

/// Warm-up and measured instructions of one cell.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Measured instructions.
    pub instructions: u64,
    /// Warm-up instructions.
    pub warmup: u64,
}

impl Budget {
    const fn new(instructions: u64, warmup: u64) -> Budget {
        Budget {
            instructions,
            warmup,
        }
    }

    pub(crate) fn kinst(self) -> f64 {
        (self.instructions + self.warmup) as f64 / 1e3
    }
}

/// Workload sizes. [`Scale::full`] is the benchmark; [`Scale::tiny`]
/// keeps every code path at a size a test can afford.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `long_memory` cells.
    pub long_memory: Budget,
    /// `long_compute` cells.
    pub long_compute: Budget,
    /// Workload seeds derived from the run's seed for every `long_*`
    /// cell and `inject` configuration. A synthetic workload's cycles per
    /// instruction depend on its seed (10-28% coefficient of variation
    /// across seeds for mcf, milc, gcc and leela, whatever the length),
    /// so each run averages several.
    pub seeds: u64,
    /// Fig. 1 grid cells (`fig1_cold`, `fig1_warm`).
    pub fig1: Budget,
    /// `inject` golden and injected runs.
    pub inject: Budget,
    /// Injections per campaign (one campaign per configuration).
    pub inject_samples: u64,
    /// `serve` job cells.
    pub serve: Budget,
    /// Completed jobs per `serve` throughput window.
    pub serve_window: usize,
    /// `serve` windows per run. The job count is fixed rather than
    /// time-bound because the daemon memoizes every job's trace (each job
    /// has a new seed) and never evicts it, so its memory grows by about
    /// 1 MB per job: a fixed count keeps `peak_rss_mb` comparable across
    /// commits, and a faster daemon does not read as a memory regression.
    pub serve_windows: usize,
    /// `serve` jobs per client whose results are checked against direct
    /// runs.
    pub serve_checked: usize,
    /// Samples of each unit measured even when the time budget runs out
    /// first.
    pub min_passes: usize,
    /// Set-up repetitions (`setup_s` is their median).
    pub setup_reps: usize,
    /// Whether this is the size the committed goldens describe.
    pub golden: bool,
}

impl Scale {
    /// The benchmark's sizes.
    #[must_use]
    pub fn full() -> Scale {
        Scale {
            long_memory: Budget::new(20_000, 5_000),
            long_compute: Budget::new(50_000, 12_500),
            seeds: 8,
            fig1: Budget::new(20_000, 5_000),
            inject: Budget::new(4_000, 1_000),
            inject_samples: 15,
            serve: Budget::new(4_000, 1_000),
            serve_window: 24,
            serve_windows: 10,
            serve_checked: 4,
            min_passes: 3,
            setup_reps: 3,
            golden: true,
        }
    }

    /// Every path at test size.
    #[must_use]
    pub fn tiny() -> Scale {
        Scale {
            long_memory: Budget::new(1_500, 300),
            long_compute: Budget::new(1_500, 300),
            seeds: 2,
            fig1: Budget::new(400, 100),
            inject: Budget::new(400, 100),
            inject_samples: 6,
            serve: Budget::new(400, 100),
            serve_window: 2,
            serve_windows: 2,
            serve_checked: 1,
            min_passes: 2,
            setup_reps: 2,
            golden: false,
        }
    }
}

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed.
    pub seed: u64,
    /// Measurement time budget (sampling continues until it is spent and
    /// `scale.min_passes` samples of every unit are taken; `serve` runs
    /// its fixed job count instead).
    pub seconds: f64,
    /// Sizes.
    pub scale: Scale,
    /// Scratch directory for caches and the daemon's data (created and
    /// removed by the caller).
    pub tmp: PathBuf,
}

/// Operation accounting and output checks of one run.
#[derive(Debug, Clone, Default)]
pub struct Check {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, plus failed output checks.
    pub failed: u64,
    /// The first few failure messages.
    pub problems: Vec<String>,
    /// The digest every pass produced (the first pass's, when they
    /// disagree).
    pub digest: Option<u64>,
}

impl Check {
    /// Counts one attempted operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        self.expect(ok, what);
    }

    /// Counts a failed output check unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(1, what);
        }
    }

    /// Counts `n` failures under one message.
    pub fn fail(&mut self, n: u64, what: impl FnOnce() -> String) {
        self.failed += n;
        if self.problems.len() < 20 {
            self.problems.push(what());
        }
    }

    /// Records one pass's output digest; every pass must agree.
    pub fn pass_digest(&mut self, d: u64) {
        match self.digest {
            None => self.digest = Some(d),
            Some(first) => self.expect(first == d, || {
                format!("pass digest {d:016x} differs from the first pass's {first:016x}")
            }),
        }
    }

    /// Whether every operation and check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// One repeated unit of work and its timing samples. Reported times take
/// each unit at its fastest repetition: interference from other tenants
/// of the host only ever adds time, and on a shared host the same cell
/// runs 1.7 times slower for stretches of seconds to minutes, so a median
/// reports how much of a run such a stretch covered, while the minimum
/// reports the code whenever the run saw any quiet moment.
#[derive(Debug, Clone)]
pub struct Unit {
    /// Simulation results one execution delivers.
    pub runs: u64,
    /// Guest kilo-instructions of those results.
    pub kinst: f64,
    /// Host seconds of every execution.
    pub seconds: Vec<f64>,
}

impl Unit {
    pub(crate) fn new(runs: u64, kinst: f64) -> Unit {
        Unit {
            runs,
            kinst,
            seconds: Vec::new(),
        }
    }
}

/// The untraced measurement of one workload.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Host seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// The units one pass executes, with their samples.
    pub units: Vec<Unit>,
    /// Median latencies (ms) of the requests a caller waits on, one per
    /// execution of the (single) unit, when those requests are shorter
    /// than a pass (`serve` jobs); empty when the caller waits on the
    /// whole pass.
    pub latencies_ms: Vec<f64>,
    /// Accounting and output checks.
    pub check: Check,
}

impl Measured {
    /// Host seconds of each complete pass (every unit's `i`-th execution).
    fn pass_samples(&self) -> Vec<f64> {
        let n = self
            .units
            .iter()
            .map(|u| u.seconds.len())
            .min()
            .unwrap_or(0);
        (0..n)
            .map(|i| self.units.iter().map(|u| u.seconds[i]).sum())
            .collect()
    }

    /// `f` of the host seconds of one pass with every unit at its fastest
    /// repetition, reported with `f` of each complete pass as samples. The
    /// uncertainty is the relative gap to every unit's second-fastest
    /// repetition.
    #[must_use]
    pub fn timed(&self, f: impl Fn(f64) -> f64) -> Estimate {
        let (best, second) = self
            .units
            .iter()
            .map(|u| best_two(&u.seconds))
            .fold((0.0, 0.0), |(b, s), (ub, us)| (b + ub, s + us));
        let samples: Vec<f64> = self.pass_samples().into_iter().map(&f).collect();
        Estimate {
            value: f(best),
            uncertainty: relative(second - best, best),
            samples: Summary::of(&samples),
        }
    }

    /// Simulation results one pass delivers.
    #[must_use]
    pub fn runs_per_pass(&self) -> f64 {
        self.units.iter().map(|u| u.runs as f64).sum()
    }

    /// Guest kilo-instructions one pass delivers.
    #[must_use]
    pub fn kinst_per_pass(&self) -> f64 {
        self.units.iter().map(|u| u.kinst).sum()
    }
}

/// The traced run of one workload.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// Per-layer values by metric name (metrics of layers a workload
    /// does not use are absent and read as zero).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Layer details beyond the per-layer metrics, for `layers.json`.
    pub extra: BTreeMap<String, f64>,
    /// The layered cells' per-layer work.
    pub acc: LayerAcc,
    /// Accounting and output checks.
    pub check: Check,
}

impl Traced {
    pub(crate) fn add(&mut self, name: &'static str, v: f64) {
        *self.metrics.entry(name).or_default() += v;
    }
}

/// Runs set-up `reps` times (at least once), timing each; returns the
/// last repetition's product.
pub(crate) fn setup<T>(reps: usize, mut f: impl FnMut(usize) -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for k in 0..reps.max(1) {
        let t = Instant::now();
        let v = f(k);
        times.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    (last.expect("at least one set-up"), times)
}

/// Calls `pass` until `rc.seconds` have elapsed and at least
/// `rc.scale.min_passes` passes ran.
fn passes(rc: &RunConfig, mut pass: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    while i < rc.scale.min_passes || start.elapsed().as_secs_f64() < rc.seconds {
        pass(i);
        i += 1;
    }
}

pub(crate) fn cell(workload: &str, technique: Technique, b: Budget, seed: u64) -> SimConfig {
    SimConfig::builder()
        .workload(workload)
        .technique(technique)
        .instructions(b.instructions)
        .warmup(b.warmup)
        .seed(seed)
        .build()
}

fn kinst(cfg: &SimConfig) -> f64 {
    Budget::new(cfg.instructions, cfg.warmup).kinst()
}

/// Runs one small cell of every workload model in `cells`, so code and
/// allocator state are faulted in before anything is timed.
fn warm_up(cells: &[SimConfig]) {
    let mut seen = Vec::new();
    for cfg in cells {
        if seen.contains(&&cfg.workload) {
            continue;
        }
        seen.push(&cfg.workload);
        let mut small = cfg.clone();
        small.instructions = small.instructions.min(2_000);
        small.warmup = small.warmup.min(500);
        let _ = Simulation::try_run(&small);
    }
}

/// The run's workload seeds: `scale.seeds` of them, disjoint for
/// different run seeds.
fn seeds(rc: &RunConfig) -> impl Iterator<Item = u64> + use<> {
    let n = rc.scale.seeds;
    let seed = rc.seed;
    (0..n).map(move |i| seed.wrapping_mul(n).wrapping_add(i))
}

/// The cells of `long_memory` or `long_compute`: every workload model
/// under OoO and RAR for each of the run's seeds.
#[must_use]
pub fn long_cells(w: Workload, rc: &RunConfig) -> Vec<SimConfig> {
    let (names, b) = match w {
        Workload::LongCompute => (
            ["povray", "x264", "leela", "imagick"],
            rc.scale.long_compute,
        ),
        _ => (["mcf", "lbm", "milc", "gcc"], rc.scale.long_memory),
    };
    seeds(rc)
        .flat_map(|s| {
            names
                .iter()
                .flat_map(move |n| [Technique::Ooo, Technique::Rar].map(|t| cell(n, t, b, s)))
        })
        .collect()
}

/// The Fig. 1 grid: the memory-intensive set under OoO, FLUSH, TR, PRE
/// and RAR, workload-major.
#[must_use]
pub fn fig1_grid(rc: &RunConfig) -> Vec<SimConfig> {
    let techniques = [
        Technique::Ooo,
        Technique::Flush,
        Technique::Tr,
        Technique::Pre,
        Technique::Rar,
    ];
    rar_workloads::memory_intensive()
        .iter()
        .flat_map(|w| techniques.map(|t| cell(w, t, rc.scale.fig1, rc.seed)))
        .collect()
}

/// The configurations `inject` campaigns strike: mcf under OoO and RAR
/// for each of the run's seeds.
#[must_use]
pub fn inject_cells(rc: &RunConfig) -> Vec<SimConfig> {
    seeds(rc)
        .flat_map(|s| [Technique::Ooo, Technique::Rar].map(|t| cell("mcf", t, rc.scale.inject, s)))
        .collect()
}

/// Runs the untraced measurement of `w`.
#[must_use]
pub fn measure(w: Workload, rc: &RunConfig) -> Measured {
    match w {
        Workload::LongMemory | Workload::LongCompute => measure_long(w, rc),
        Workload::Fig1Cold => measure_fig1_cold(rc),
        Workload::Fig1Warm => measure_fig1_warm(rc),
        Workload::Inject => measure_inject(rc),
        Workload::Serve => serve::measure(rc),
    }
}

/// Runs the traced run of `w`, recording spans into `log`: the
/// workload's own loop with a span around each call into a layer the
/// harness can see, then the layer-by-layer breakdown of the workload's
/// distinct cells ([`layered::breakdown`]).
#[must_use]
pub fn trace(w: Workload, rc: &RunConfig, log: &SpanLog) -> Traced {
    let mut t = Traced::default();
    let cells = match w {
        Workload::LongMemory | Workload::LongCompute => {
            // One pass of the workload is the breakdown itself.
            let cells = long_cells(w, rc);
            let results = layered::breakdown(&cells, &rc.tmp, log, &mut t.acc, &mut t.check);
            t.check
                .pass_digest(digest::of_cells(results.iter().map(Some)));
            finish_layers(&mut t);
            return t;
        }
        Workload::Fig1Cold => {
            trace_fig1_cold(rc, log, &mut t);
            fig1_grid(rc)
        }
        Workload::Fig1Warm => {
            trace_fig1_warm(rc, log, &mut t);
            fig1_grid(rc)
        }
        Workload::Inject => {
            trace_inject(rc, log, &mut t);
            inject_cells(rc)
        }
        Workload::Serve => {
            serve::trace(rc, log, &mut t);
            serve::job_cells(rc, serve::job_seed(rc.seed, 0, 0))
        }
    };
    let _ = layered::breakdown(&cells, &rc.tmp, log, &mut t.acc, &mut t.check);
    finish_layers(&mut t);
    t
}

/// Turns the layered cells' accumulators into per-layer metrics.
fn finish_layers(t: &mut Traced) {
    let a = &t.acc;
    let per_cycle = |c: &layered::TechniqueCycles| relative(c.ns as f64, c.calls as f64);
    let quiescent = |c: &layered::TechniqueCycles| relative(c.quiescent as f64, c.profiled as f64);
    for (name, v) in [
        ("workloads.trace_gen_s", a.trace_gen_ns as f64 / 1e9),
        ("workloads.uops_generated", a.uops_generated as f64),
        ("verify.analyze_s", a.analyze_ns as f64 / 1e9),
        ("verify.uops_analyzed", a.uops_analyzed as f64),
        ("core.cycle_s", a.cycles.ns as f64 / 1e9),
        ("core.cycles", a.cycles.calls as f64),
        ("core.ns_per_cycle.ooo", per_cycle(&a.ooo)),
        ("core.ns_per_cycle.rar", per_cycle(&a.rar)),
        ("core.quiescent_frac.ooo", quiescent(&a.ooo)),
        ("core.quiescent_frac.rar", quiescent(&a.rar)),
        ("core.runahead_cycles", a.runahead_cycles as f64),
        ("frontend.predictions", a.predictions as f64),
        ("frontend.mispredictions", a.mispredictions as f64),
        (
            "frontend.replay_ns_per_branch",
            relative(a.branch_replay.0 as f64, a.branch_replay.1 as f64),
        ),
        ("mem.data_accesses", a.data_accesses as f64),
        ("mem.llc_misses", a.llc_misses as f64),
        ("mem.mshr_stalls", a.mshr_stalls as f64),
        (
            "mem.replay_ns_per_access",
            relative(a.access_replay.0 as f64, a.access_replay.1 as f64),
        ),
        ("sim.cache_load_us_p50", quantile(&a.cache_load_us, 0.5)),
        ("sim.cache_store_us_p50", quantile(&a.cache_store_us, 0.5)),
        (
            "bench.trace_overhead_frac",
            relative(a.layered_ns as f64, a.reference_ns as f64) - 1.0,
        ),
    ] {
        t.metrics.insert(name, v);
    }
}

fn measure_long(w: Workload, rc: &RunConfig) -> Measured {
    let mut m = Measured::default();
    let (cells, setup_s) = setup(rc.scale.setup_reps, |_| {
        let cells = long_cells(w, rc);
        warm_up(&cells);
        cells
    });
    m.setup_s = setup_s;
    // One unit per cell: the cells differ several-fold in cost, so each
    // gets its own median.
    m.units = cells.iter().map(|c| Unit::new(1, kinst(c))).collect();
    passes(rc, |_| {
        let mut d = Digest::default();
        for (cfg, unit) in cells.iter().zip(&mut m.units) {
            let t = Instant::now();
            let r = Simulation::try_run(cfg);
            unit.seconds.push(t.elapsed().as_secs_f64());
            match &r {
                Ok(r) => d.result(r),
                Err(e) => d.text(&e.to_string()),
            }
            m.check.op(r.is_ok(), || {
                format!("{}/{} failed", cfg.workload, cfg.technique)
            });
        }
        m.check.pass_digest(d.value());
    });
    m
}

/// One cold Fig. 1 pass through `session` (fresh, with a fresh disk
/// cache), timed around `run_all`.
fn fig1_cold_pass<P: Profiler>(
    grid: &[SimConfig],
    session: &SweepSession<P>,
    check: &mut Check,
) -> (Vec<Option<SimResult>>, f64) {
    let t = Instant::now();
    let results = session.run_all(grid);
    let seconds = t.elapsed().as_secs_f64();
    for (cfg, r) in grid.iter().zip(&results) {
        check.op(r.is_some(), || {
            format!("{}/{} failed", cfg.workload, cfg.technique)
        });
    }
    check.pass_digest(digest::of_cells(results.iter().map(Option::as_ref)));
    (results, seconds)
}

fn measure_fig1_cold(rc: &RunConfig) -> Measured {
    let mut m = Measured::default();
    let (grid, setup_s) = setup(rc.scale.setup_reps, |_| {
        let grid = fig1_grid(rc);
        warm_up(&grid);
        grid
    });
    m.setup_s = setup_s;
    let mut unit = Unit::new(grid.len() as u64, grid.iter().map(kinst).sum());
    let mut last = Vec::new();
    passes(rc, |i| {
        let dir = rc.tmp.join(format!("fig1-cold-{i}"));
        let session = SweepSession::with_disk_cache(&dir).threads(THREADS);
        let (results, seconds) = fig1_cold_pass(&grid, &session, &mut m.check);
        let _ = std::fs::remove_dir_all(&dir);
        unit.seconds.push(seconds);
        last = results;
    });
    m.units.push(unit);
    // Session results must equal direct runs: one cell of each technique,
    // spread over the workloads.
    for i in (0..grid.len()).step_by(16) {
        let direct = Simulation::try_run(&grid[i]).ok();
        m.check.expect(direct.is_some() && direct == last[i], || {
            format!(
                "{}/{}: session result differs from Simulation::try_run",
                grid[i].workload, grid[i].technique
            )
        });
    }
    m
}

/// Fills a disk cache in `dir` with the grid's results; returns their
/// digest.
fn populate(grid: &[SimConfig], dir: &Path, check: &mut Check) -> u64 {
    let results = SweepSession::with_disk_cache(dir)
        .threads(THREADS)
        .run_all(grid);
    check.expect(results.iter().all(Option::is_some), || {
        "cache population failed".to_owned()
    });
    digest::of_cells(results.iter().map(Option::as_ref))
}

/// Replays the grid cell by cell through `session`, whose cache holds
/// every cell; the caller times this.
fn replay<P: Profiler>(grid: &[SimConfig], session: &SweepSession<P>) -> Vec<Option<SimResult>> {
    grid.iter().map(|cfg| session.run(cfg).ok()).collect()
}

/// Checks one replay (untimed): every cell answered from the cache and
/// equal to what set-up stored.
fn account_replay<P: Profiler>(
    results: &[Option<SimResult>],
    session: &SweepSession<P>,
    filled: u64,
    check: &mut Check,
) {
    for r in results {
        check.op(r.is_some(), || "replayed cell failed".to_owned());
    }
    let s = session.stats();
    check.expect(s.simulated == 0, || {
        format!(
            "replay simulated {} cells instead of reading the cache",
            s.simulated
        )
    });
    let d = digest::of_cells(results.iter().map(Option::as_ref));
    check.expect(d == filled, || {
        "replayed results differ from the cached ones".to_owned()
    });
    check.pass_digest(d);
}

fn measure_fig1_warm(rc: &RunConfig) -> Measured {
    let mut m = Measured::default();
    let ((grid, dir, filled), setup_s) = setup(rc.scale.setup_reps, |k| {
        let grid = fig1_grid(rc);
        if k > 0 {
            let _ = std::fs::remove_dir_all(rc.tmp.join(format!("fig1-warm-{}", k - 1)));
        }
        let dir = rc.tmp.join(format!("fig1-warm-{k}"));
        let filled = populate(&grid, &dir, &mut m.check);
        (grid, dir, filled)
    });
    m.setup_s = setup_s;
    // A replay takes milliseconds, so every replay is a sample.
    let mut unit = Unit::new(grid.len() as u64, grid.iter().map(kinst).sum());
    passes(rc, |_| {
        let t = Instant::now();
        let session = SweepSession::with_disk_cache(&dir);
        let results = replay(&grid, &session);
        unit.seconds.push(t.elapsed().as_secs_f64());
        account_replay(&results, &session, filled, &mut m.check);
    });
    m.units.push(unit);
    m
}

/// Prepares the golden runs of both `inject` configurations.
fn inject_harnesses(rc: &RunConfig) -> Vec<InjectionHarness> {
    inject_cells(rc)
        .iter()
        .map(|cfg| InjectionHarness::prepare(cfg).expect("valid inject configuration"))
        .collect()
}

/// One campaign runner thread: `inject` measures the cost of fault-armed
/// runs, and on a 2-vCPU host a 2-thread campaign's time is set by
/// whichever vCPU a neighbour slows, which doubled its run-to-run spread;
/// `fig1_cold` measures parallel scheduling.
fn campaign_spec(rc: &RunConfig) -> CampaignSpec {
    CampaignSpec {
        samples: rc.scale.inject_samples,
        threads: 1,
        ..CampaignSpec::default()
    }
}

/// Accounts one campaign's injections and folds its tally into `d`.
fn account_campaign(
    res: std::io::Result<CampaignResult>,
    h: &InjectionHarness,
    samples: u64,
    d: &mut Digest,
    check: &mut Check,
) -> Option<CampaignResult> {
    let cfg = h.config();
    let name = format!("{}/{}/seed {}", cfg.workload, cfg.technique, cfg.seed);
    check.attempted += samples;
    match res {
        Ok(r) => {
            d.text(&format!(
                "{name} cycles={} {}",
                h.measured_cycles(),
                r.tally.to_json()
            ));
            let bad = samples.saturating_sub(r.completed).max(r.failed);
            if bad > 0 {
                check.fail(bad, || format!("{name}: {bad} injections failed"));
            }
            Some(r)
        }
        Err(e) => {
            d.text("error");
            check.fail(samples, || format!("{name}: campaign error: {e}"));
            None
        }
    }
}

fn measure_inject(rc: &RunConfig) -> Measured {
    let mut m = Measured::default();
    let (harnesses, setup_s) = setup(rc.scale.setup_reps, |_| inject_harnesses(rc));
    m.setup_s = setup_s;
    let spec = campaign_spec(rc);
    // One unit per configuration: their campaigns differ in cost.
    m.units = harnesses
        .iter()
        .map(|_| Unit::new(spec.samples, spec.samples as f64 * rc.scale.inject.kinst()))
        .collect();
    passes(rc, |_| {
        let mut d = Digest::default();
        for (h, unit) in harnesses.iter().zip(&mut m.units) {
            let t = Instant::now();
            let res = run_injection_campaign(h, &spec, h.config().seed, None, None);
            unit.seconds.push(t.elapsed().as_secs_f64());
            account_campaign(res, h, spec.samples, &mut d, &mut m.check);
        }
        m.check.pass_digest(d.value());
    });
    m
}

/// A [`Profiler`] that records each sweep-engine phase as a leaf span
/// under the current parent span and sums the phase times.
#[derive(Debug)]
struct PhaseSpans<'a> {
    log: &'a SpanLog,
    parent: AtomicU64,
    nanos: AtomicU64,
}

impl<'a> PhaseSpans<'a> {
    fn new(log: &'a SpanLog) -> Self {
        PhaseSpans {
            log,
            parent: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        }
    }

    fn under(&self, parent: SpanId) {
        self.parent.store(parent.0, Ordering::Relaxed);
    }
}

impl Profiler for PhaseSpans<'_> {
    fn record(&self, phase: Phase, nanos: u64) {
        self.log.leaf(
            phase.name(),
            SpanId(self.parent.load(Ordering::Relaxed)),
            nanos,
        );
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }
}

fn add_session_stats(t: &mut Traced, s: &rar_sim::SweepStats) {
    t.add("sim.cells_simulated", s.simulated as f64);
    t.add("sim.cache_hits", s.cache_hits as f64);
    t.add("sim.trace_memo_misses", s.trace_memo_misses as f64);
}

fn trace_fig1_cold(rc: &RunConfig, log: &SpanLog, t: &mut Traced) {
    let grid = fig1_grid(rc);
    let prof = PhaseSpans::new(log);
    let mut wall = 0.0;
    for i in 0..TRACED_PASSES {
        let dir = rc.tmp.join(format!("fig1-cold-traced-{i}"));
        let pass = log.start("pass", SpanId::NONE);
        prof.under(pass);
        let session = SweepSession::with_profiler_and_disk_cache(&dir, &prof).threads(THREADS);
        let (_, seconds) = fig1_cold_pass(&grid, &session, &mut t.check);
        wall += seconds;
        log.finish(pass);
        add_session_stats(t, &session.stats());
        let _ = std::fs::remove_dir_all(&dir);
    }
    let busy = prof.nanos.load(Ordering::Relaxed) as f64 / 1e9;
    t.metrics.insert(
        "sim.worker_busy_frac",
        relative(busy, THREADS as f64 * wall),
    );
    t.extra
        .insert("sim.run_all_s".to_owned(), wall / TRACED_PASSES as f64);
}

fn trace_fig1_warm(rc: &RunConfig, log: &SpanLog, t: &mut Traced) {
    // Replays per traced pass (each leaves one span per cell).
    const REPLAYS: usize = 20;
    let grid = fig1_grid(rc);
    let dir = rc.tmp.join("fig1-warm-traced");
    let filled = populate(&grid, &dir, &mut t.check);
    let prof = PhaseSpans::new(log);
    let mut wall = 0.0;
    for _ in 0..TRACED_PASSES {
        let pass = log.start("pass", SpanId::NONE);
        for _ in 0..REPLAYS {
            let ((session, results), ns) = span(log, "replay", pass, |replay_span| {
                prof.under(replay_span);
                let session = SweepSession::with_profiler_and_disk_cache(&dir, &prof);
                let results = replay(&grid, &session);
                (session, results)
            });
            wall += ns as f64 / 1e9;
            account_replay(&results, &session, filled, &mut t.check);
            add_session_stats(t, &session.stats());
        }
        log.finish(pass);
    }
    let busy = prof.nanos.load(Ordering::Relaxed) as f64 / 1e9;
    t.metrics
        .insert("sim.worker_busy_frac", relative(busy, wall));
    let _ = std::fs::remove_dir_all(&dir);
}

fn trace_inject(rc: &RunConfig, log: &SpanLog, t: &mut Traced) {
    let (harnesses, prepare_s) = setup(1, |_| inject_harnesses(rc));
    t.extra.insert("inject.prepare_s".to_owned(), prepare_s[0]);
    let spec = campaign_spec(rc);
    let execute_ms = Mutex::new(Vec::new());
    for _ in 0..TRACED_PASSES {
        let pass = log.start("pass", SpanId::NONE);
        let mut d = Digest::default();
        for h in &harnesses {
            let name = format!("campaign:{}", h.config().technique);
            let (res, _) = span(log, &name, pass, |campaign| {
                // `run_injection_campaign` with a timed executor.
                run_campaign(
                    &spec,
                    &h.sampler(h.config().seed),
                    |_k, fault| {
                        let tm = Instant::now();
                        let outcome = h.execute(fault, None);
                        let ns = u64::try_from(tm.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        log.leaf("injection", campaign, ns);
                        execute_ms
                            .lock()
                            .expect("timing lock")
                            .push(ns as f64 / 1e6);
                        Ok(outcome)
                    },
                    None,
                )
            });
            if let Some(r) = account_campaign(res, h, spec.samples, &mut d, &mut t.check) {
                let (sdc, hang) = r
                    .tally
                    .targets()
                    .fold((0, 0), |(s, h), (_, c)| (s + c.sdc, h + c.due_hang));
                t.add("inject.injections", r.tally.total() as f64);
                t.add("inject.sdc", sdc as f64);
                t.add("inject.due_hang", hang as f64);
            }
        }
        log.finish(pass);
        t.check.pass_digest(d.value());
    }
    let ms = execute_ms.into_inner().expect("timing lock");
    t.extra
        .insert("inject.execute_ms_p50".to_owned(), quantile(&ms, 0.5));
    t.extra
        .insert("inject.execute_ms_p95".to_owned(), quantile(&ms, 0.95));
}
