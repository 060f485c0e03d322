//! The traced, layer-by-layer execution of one cell, and the isolated
//! replays of single layers over the cell's own input stream.
//!
//! [`run_layered`] performs exactly the steps `Simulation::try_run`
//! performs — generate the trace prefix, analyze liveness, build the
//! core, cycle through warm-up and the measured budget, read the
//! reliability report — but calls each layer itself, so each call gets a
//! span and a host time. [`breakdown`] runs a workload's distinct cells
//! both ways and checks the two results are equal.

use crate::workloads::Check;
use rar_ace::StallKind;
use rar_core::{Core, StallBucket, Technique};
use rar_frontend::BranchPredictor;
use rar_isa::{TraceWindow, Uop, UopKind, UopSource};
use rar_mem::{AccessKind, MemoryHierarchy};
use rar_sim::{json, DiskCache, SimConfig, SimResult, Simulation};
use rar_telemetry::{SpanId, SpanLog, SpanRecorder};
use rar_trace::NullSink;
use rar_workloads::TracePrefix;
use std::collections::HashSet;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Buckets of the per-cycle host-time histogram: bucket `j` counts
/// cycles that took `[2^j, 2^(j+1))` ns.
pub const HIST_BUCKETS: usize = 32;

/// Host time and cycle counts of one technique's cells.
#[derive(Debug, Clone, Copy, Default)]
pub struct TechniqueCycles {
    /// Summed host nanoseconds of `Core::cycle` calls.
    pub ns: u64,
    /// `Core::cycle` calls.
    pub calls: u64,
    /// Measured cycles the stall profiler classified quiescent.
    pub quiescent: u64,
    /// Measured cycles the stall profiler classified.
    pub profiled: u64,
}

/// Per-layer work and host time summed over every layered cell.
#[derive(Debug, Clone, Default)]
pub struct LayerAcc {
    /// `TracePrefix::generate` host nanoseconds.
    pub trace_gen_ns: u64,
    /// Micro-ops generated.
    pub uops_generated: u64,
    /// `rar_verify::analyze` host nanoseconds.
    pub analyze_ns: u64,
    /// Micro-ops analyzed.
    pub uops_analyzed: u64,
    /// Every `Core::cycle` call.
    pub cycles: TechniqueCycles,
    /// OoO cells only.
    pub ooo: TechniqueCycles,
    /// RAR cells only.
    pub rar: TechniqueCycles,
    /// Log2 histogram of per-cycle host nanoseconds.
    pub cycle_hist: [u64; HIST_BUCKETS],
    /// Measured runahead cycles.
    pub runahead_cycles: u64,
    /// In-core branch predictions (measured window).
    pub predictions: u64,
    /// In-core direction mispredictions (measured window).
    pub mispredictions: u64,
    /// In-core demand data accesses (measured window).
    pub data_accesses: u64,
    /// In-core LLC misses (measured window).
    pub llc_misses: u64,
    /// In-core MSHR-full rejections (measured window).
    pub mshr_stalls: u64,
    /// Isolated predictor replay: host nanoseconds and branches.
    pub branch_replay: (u64, u64),
    /// Isolated hierarchy replay: host nanoseconds and accesses.
    pub access_replay: (u64, u64),
    /// `DiskCache::try_load` host microseconds, one per cell.
    pub cache_load_us: Vec<f64>,
    /// `DiskCache::store` host microseconds, one per cell.
    pub cache_store_us: Vec<f64>,
    /// Host nanoseconds of `Simulation::try_run` over the cells.
    pub reference_ns: u64,
    /// Host nanoseconds of the layered path over the same cells.
    pub layered_ns: u64,
}

fn nanos_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `f` inside a span named `name` under `parent` and returns its
/// result with its host nanoseconds.
pub fn span<R>(log: &SpanLog, name: &str, parent: SpanId, f: impl FnOnce(SpanId) -> R) -> (R, u64) {
    let id = log.start(name, parent);
    let t = Instant::now();
    let r = f(id);
    let ns = nanos_since(t);
    log.finish(id);
    (r, ns)
}

/// Cycles `core` until `n` instructions have committed since the last
/// measurement reset, timing every `Core::cycle` call (one clock read per
/// cycle) into `acc`.
fn cycle_until<S: UopSource>(
    core: &mut Core<S, NullSink>,
    n: u64,
    acc: &mut TechniqueCycles,
    hist: &mut [u64; HIST_BUCKETS],
) {
    // The same wedge guard as `Core::run_until_committed`.
    let limit = core.now() + n.saturating_mul(1_000).max(1_000_000);
    let mut last = Instant::now();
    while core.stats().committed < n {
        core.cycle();
        let now = Instant::now();
        let ns = u64::try_from((now - last).as_nanos()).unwrap_or(u64::MAX);
        last = now;
        acc.ns += ns;
        acc.calls += 1;
        hist[(ns.max(1).ilog2() as usize).min(HIST_BUCKETS - 1)] += 1;
        assert!(
            core.now() < limit,
            "simulation wedged: {} committed of {n}",
            core.stats().committed
        );
    }
}

/// Runs `cfg` through every layer explicitly, with a span around each
/// call, and returns the result `Simulation::try_run` would return plus
/// the generated trace prefix.
///
/// # Panics
///
/// Panics if `cfg` names an unknown workload or the simulation wedges.
pub fn run_layered(
    cfg: &SimConfig,
    log: &SpanLog,
    parent: SpanId,
    acc: &mut LayerAcc,
) -> (SimResult, Arc<TracePrefix>) {
    // The dead-value horizon `Simulation::try_run` analyzes: the budget
    // plus commit-width slack.
    let horizon = usize::try_from(cfg.warmup + cfg.instructions).expect("budget fits usize")
        + 4 * cfg.core.width;
    let spec = rar_workloads::workload(&cfg.workload).expect("known workload");
    let (prefix, ns) = span(log, "trace_gen", parent, |_| {
        Arc::new(TracePrefix::generate(&spec, cfg.seed, horizon))
    });
    acc.trace_gen_ns += ns;
    acc.uops_generated += prefix.len() as u64;
    let (refinement, ns) = span(log, "analyze", parent, |_| {
        rar_verify::analyze(prefix.uops())
    });
    acc.analyze_ns += ns;
    acc.uops_analyzed += prefix.len() as u64;
    let (mut core, _) = span(log, "core_build", parent, |_| {
        let mut core = Core::with_sink(
            cfg.core.clone(),
            cfg.mem.clone(),
            cfg.technique,
            TraceWindow::new(TracePrefix::resume(&prefix)),
            NullSink,
        );
        core.set_ace_refinement(refinement);
        core.enable_stall_profiling();
        core
    });
    let mut cycles = TechniqueCycles::default();
    if cfg.warmup > 0 {
        span(log, "cycles_warmup", parent, |_| {
            cycle_until(&mut core, cfg.warmup, &mut cycles, &mut acc.cycle_hist);
            core.reset_measurement();
        });
    }
    span(log, "cycles_measured", parent, |_| {
        cycle_until(
            &mut core,
            cfg.instructions,
            &mut cycles,
            &mut acc.cycle_hist,
        );
    });
    let (result, _) = span(log, "reliability_report", parent, |_| SimResult {
        workload: cfg.workload.clone(),
        technique: cfg.technique,
        stats: *core.stats(),
        reliability: core.reliability_report(),
        mem: *core.mem_stats(),
        predictor: core.predictor_stats(),
        abc_by_structure: core.ace().abc_by_structure(),
        window_abc: [
            core.ace().abc_in_window(StallKind::FullRobStall),
            core.ace().abc_in_window(StallKind::RobHeadBlocked),
        ],
        stalls: None,
    });
    if let Some(profile) = core.stall_profile() {
        cycles.quiescent = profile.count(StallBucket::Quiescent);
        cycles.profiled = profile.total();
    }
    for share in [
        Some(&mut acc.cycles),
        (cfg.technique == Technique::Ooo).then_some(&mut acc.ooo),
        (cfg.technique == Technique::Rar).then_some(&mut acc.rar),
    ]
    .into_iter()
    .flatten()
    {
        share.ns += cycles.ns;
        share.calls += cycles.calls;
        share.quiescent += cycles.quiescent;
        share.profiled += cycles.profiled;
    }
    acc.runahead_cycles += result.stats.runahead_cycles;
    acc.predictions += result.predictor.predictions;
    acc.mispredictions += result.predictor.mispredictions;
    acc.data_accesses += result.mem.data_accesses();
    acc.llc_misses += result.mem.llc_misses;
    acc.mshr_stalls += result.mem.mshr_stalls;
    (result, prefix)
}

/// Replays the branch stream of `uops` through a fresh TAGE-SC-L
/// predictor (predict, then update with the outcome); returns host
/// nanoseconds and branches.
#[must_use]
pub fn replay_branches(uops: &[Uop]) -> (u64, u64) {
    let mut bp = BranchPredictor::tage_sc_l_8kb();
    let t = Instant::now();
    let mut n = 0;
    for u in uops {
        if let Some(b) = u.branch_info() {
            black_box(bp.predict(u.pc()));
            black_box(bp.update(u.pc(), b.taken, b.target));
            n += 1;
        }
    }
    (nanos_since(t), n)
}

/// Replays the load/store stream of `uops` through a fresh memory
/// hierarchy, one micro-op per cycle; returns host nanoseconds and
/// accesses (MSHR-full rejections included).
#[must_use]
pub fn replay_accesses(uops: &[Uop], cfg: &SimConfig) -> (u64, u64) {
    let mut mem = MemoryHierarchy::new(cfg.mem.clone());
    let t = Instant::now();
    let mut n = 0;
    for (now, u) in (0u64..).zip(uops) {
        if let Some(m) = u.mem() {
            let kind = if u.kind() == UopKind::Store {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            let _ = black_box(mem.access(kind, m.addr, u.pc(), now));
            n += 1;
        }
    }
    (nanos_since(t), n)
}

/// Runs every cell of `cells` through `Simulation::try_run` (the
/// reference) and through [`run_layered`], under one `breakdown` root
/// span, and checks the two agree byte for byte; also replays each
/// distinct trace through the predictor and the memory hierarchy alone,
/// and round-trips each result through a [`DiskCache`] in `tmp`.
/// Returns the reference results in order.
pub fn breakdown(
    cells: &[SimConfig],
    tmp: &Path,
    log: &SpanLog,
    acc: &mut LayerAcc,
    check: &mut Check,
) -> Vec<SimResult> {
    let root = log.start("breakdown", SpanId::NONE);
    let cache = DiskCache::new(tmp.join("round-trip"));
    let mut replayed = HashSet::new();
    let mut results = Vec::with_capacity(cells.len());
    for cfg in cells {
        span(
            log,
            &format!("cell:{}/{}", cfg.workload, cfg.technique),
            root,
            |cell| {
                let (reference, ns) = span(log, "try_run", cell, |_| Simulation::try_run(cfg));
                acc.reference_ns += ns;
                let Ok(reference) = reference else {
                    check.op(false, || {
                        format!("{}/{}: rejected", cfg.workload, cfg.technique)
                    });
                    return;
                };
                let t = Instant::now();
                let (layered, prefix) = run_layered(cfg, log, cell, acc);
                acc.layered_ns += nanos_since(t);
                let same = layered == reference
                    && json::to_json_for(cfg, &layered) == json::to_json_for(cfg, &reference);
                check.op(same, || {
                    format!(
                        "{}/{}: layered run differs from Simulation::try_run",
                        cfg.workload, cfg.technique
                    )
                });
                if replayed.insert((cfg.workload.clone(), cfg.seed)) {
                    let ((ns, n), _) = span(log, "frontend_replay", cell, |_| {
                        replay_branches(prefix.uops())
                    });
                    acc.branch_replay.0 += ns;
                    acc.branch_replay.1 += n;
                    let ((ns, n), _) = span(log, "mem_replay", cell, |_| {
                        replay_accesses(prefix.uops(), cfg)
                    });
                    acc.access_replay.0 += ns;
                    acc.access_replay.1 += n;
                }
                let (stored, ns) = span(log, "cache_store", cell, |_| cache.store(cfg, &reference));
                acc.cache_store_us.push(ns as f64 / 1e3);
                let (loaded, ns) = span(log, "cache_load", cell, |_| cache.try_load(cfg));
                acc.cache_load_us.push(ns as f64 / 1e3);
                let round_trip =
                    stored.is_ok() && matches!(loaded, Ok(Some(ref r)) if *r == reference);
                check.op(round_trip, || {
                    format!(
                        "{}/{}: disk-cache round trip changed the result",
                        cfg.workload, cfg.technique
                    )
                });
                results.push(reference);
            },
        );
    }
    log.finish(root);
    results
}
