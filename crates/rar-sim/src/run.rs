//! Running one simulation and collecting its results.
//!
//! [`Simulation::try_run_with`] is the single generic entry point: it
//! drives one configuration to completion against any [`TraceSink`]. The
//! historic `run`/`try_run`/`run_traced`/`try_run_traced` names remain as
//! thin wrappers choosing the sink (and the error handling) for you.

use crate::config::SimConfig;
use rar_ace::{ReliabilityReport, StallKind, Structure};
use rar_core::{Core, CoreStats, RunVerdict, StallProfile, Technique};
use rar_frontend::PredictorStats;
use rar_isa::{TraceWindow, UopSource};
use rar_mem::MemStats;
use rar_trace::{NullSink, RingSink, TraceSink};
use rar_verify::{AceRefinement, ConfigError};
use rar_workloads::{workload, SharedTraceIter, TracePrefix};
use std::sync::Arc;

/// Executes simulations described by [`SimConfig`].
#[derive(Debug, Clone, Copy)]
pub struct Simulation;

/// Everything a run needs besides the configuration: the memoized trace
/// prefix and the dead-value refinement derived from it. Both are pure
/// functions of (workload, seed, horizon), so a sweep engine builds them
/// once and shares them across every cell with the same key; a standalone
/// run builds them privately via [`RunArtifacts::prepare`].
#[derive(Debug, Clone)]
pub(crate) struct RunArtifacts {
    pub prefix: Arc<TracePrefix>,
    pub refinement: AceRefinement,
}

/// Dead-value analysis horizon for `cfg`: warm-up plus the measured
/// budget plus commit-width slack (the last cycle can overshoot the
/// budget); sequence numbers past the horizon stay conservatively live.
/// [`SimConfig::validate`] rejects a budget for which this overflows.
pub(crate) fn refinement_horizon(cfg: &SimConfig) -> usize {
    usize::try_from(cfg.warmup + cfg.instructions).expect("budget fits usize") + 4 * cfg.core.width
}

impl RunArtifacts {
    /// Generates the trace prefix once and derives the refinement from
    /// the same materialized stream (the stream is never generated
    /// twice). Expects a validated configuration.
    pub(crate) fn prepare(cfg: &SimConfig) -> Self {
        let spec = workload(&cfg.workload).expect("validated workload exists");
        let prefix = Arc::new(TracePrefix::generate(
            &spec,
            cfg.seed,
            refinement_horizon(cfg),
        ));
        let refinement = rar_verify::analyze(prefix.uops());
        RunArtifacts { prefix, refinement }
    }

    /// A fresh core for `cfg` over these artifacts: the trace window over
    /// the shared prefix, the refinement installed, and the sample
    /// interval set when `sink` is live. Every run path builds its core
    /// here, so golden and injected runs share every artifact.
    pub(crate) fn core<T: TraceSink>(
        &self,
        cfg: &SimConfig,
        sink: T,
    ) -> Core<TraceWindow<SharedTraceIter>, T> {
        let trace = TraceWindow::new(TracePrefix::resume(&self.prefix));
        let mut core = Core::with_sink(
            cfg.core.clone(),
            cfg.mem.clone(),
            cfg.technique,
            trace,
            sink,
        );
        core.set_ace_refinement(self.refinement.clone());
        if T::ENABLED {
            core.set_sample_interval(cfg.trace.sample_interval);
        }
        core
    }
}

/// The product of one generic run: the measurements plus the sink that
/// captured the run's trace events (a [`NullSink`] for untraced runs).
#[derive(Debug, Clone)]
pub struct RunOutput<T> {
    /// All measurements from the run.
    pub result: SimResult,
    /// The sink passed to [`Simulation::try_run_with`], after the run.
    pub sink: T,
}

impl Simulation {
    /// Runs one configuration to completion against `sink`, the single
    /// entry point all other run flavors wrap.
    ///
    /// Events from warm-up are scrubbed from the sink at the measurement
    /// boundary ([`TraceSink::scrub`]) so captured traces line up with the
    /// measured statistics. With a [`NullSink`] every emission site folds
    /// away at monomorphization, so an untraced run pays nothing.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if [`SimConfig::validate`] rejects the
    /// configuration; nothing is simulated in that case.
    pub fn try_run_with<T: TraceSink>(
        cfg: &SimConfig,
        sink: T,
    ) -> Result<RunOutput<T>, ConfigError> {
        cfg.validate()?;
        Ok(Simulation::run_prepared(
            cfg,
            sink,
            &RunArtifacts::prepare(cfg),
            false,
        ))
    }

    /// Runs a *validated* configuration with pre-built artifacts. This is
    /// the sweep engine's entry: the artifacts may be shared with other
    /// concurrent runs of the same (workload, seed). With `stalls` the
    /// core's per-cycle stall profiler is enabled over the measured
    /// portion of the run.
    pub(crate) fn run_prepared<T: TraceSink>(
        cfg: &SimConfig,
        sink: T,
        artifacts: &RunArtifacts,
        stalls: bool,
    ) -> RunOutput<T> {
        let mut core = artifacts.core(cfg, sink);
        if stalls {
            core.enable_stall_profiling();
        }
        if cfg.warmup > 0 {
            core.run_until_committed(cfg.warmup);
            core.reset_measurement();
            // Drop warm-up events so trace counts line up with the
            // measured statistics.
            core.sink_mut().scrub();
        }
        core.run_until_committed(cfg.instructions);
        let result = collect(cfg, &core);
        RunOutput {
            result,
            sink: core.into_sink(),
        }
    }

    /// Like [`Simulation::run_prepared`], but bounded by a cycle budget
    /// and an optional wall-clock deadline covering the whole run
    /// (warm-up included). A run that exhausts either bound returns the
    /// core's [`RunVerdict`] instead of panicking — the sweep watchdog
    /// maps it to a typed timeout error, the fault-injection harness to a
    /// DUE classification.
    pub(crate) fn run_prepared_budgeted<T: TraceSink>(
        cfg: &SimConfig,
        sink: T,
        artifacts: &RunArtifacts,
        stalls: bool,
        max_cycles: u64,
        deadline: Option<std::time::Instant>,
    ) -> Result<RunOutput<T>, RunVerdict> {
        let mut core = artifacts.core(cfg, sink);
        if stalls {
            core.enable_stall_profiling();
        }
        let mut remaining = max_cycles;
        if cfg.warmup > 0 {
            match core.run_budgeted(cfg.warmup, remaining, deadline) {
                RunVerdict::Completed => {}
                verdict => return Err(verdict),
            }
            remaining = remaining.saturating_sub(core.stats().cycles).max(1);
            core.reset_measurement();
            core.sink_mut().scrub();
        }
        match core.run_budgeted(cfg.instructions, remaining, deadline) {
            RunVerdict::Completed => {}
            verdict => return Err(verdict),
        }
        let result = collect(cfg, &core);
        Ok(RunOutput {
            result,
            sink: core.into_sink(),
        })
    }

    /// Runs one configuration to completion with the zero-overhead
    /// [`NullSink`].
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if [`SimConfig::validate`] rejects the
    /// configuration; nothing is simulated in that case.
    pub fn try_run(cfg: &SimConfig) -> Result<SimResult, ConfigError> {
        Ok(Simulation::try_run_with(cfg, NullSink)?.result)
    }

    /// Runs one configuration to completion.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation (e.g. the workload
    /// name is unknown). Use [`Simulation::try_run`] for a typed error.
    #[must_use]
    pub fn run(cfg: &SimConfig) -> SimResult {
        Simulation::try_run(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs one configuration with trace capture (see
    /// [`SimConfig::trace`](crate::TraceSettings)): pipeline, runahead,
    /// memory and sampler events are recorded into a ring buffer covering
    /// the measured portion of the run (warm-up activity is scrubbed).
    /// Returns the measurements together with the captured sink, ready for
    /// the `rar_trace` exporters.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if [`SimConfig::validate`] rejects the
    /// configuration; nothing is simulated in that case.
    pub fn try_run_traced(cfg: &SimConfig) -> Result<(SimResult, RingSink), ConfigError> {
        let out = Simulation::try_run_with(cfg, RingSink::new(cfg.trace.capacity))?;
        Ok((out.result, out.sink))
    }

    /// Panicking variant of [`Simulation::try_run_traced`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation.
    #[must_use]
    pub fn run_traced(cfg: &SimConfig) -> (SimResult, RingSink) {
        Simulation::try_run_traced(cfg).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Assembles a [`SimResult`] from a finished core, whatever its sink type.
fn collect<S: UopSource, T: TraceSink>(cfg: &SimConfig, core: &Core<S, T>) -> SimResult {
    let stats = *core.stats();
    let reliability = core.reliability_report();
    let abc_by_structure = core.ace().abc_by_structure();
    let window_abc = [
        core.ace().abc_in_window(StallKind::FullRobStall),
        core.ace().abc_in_window(StallKind::RobHeadBlocked),
    ];
    SimResult {
        workload: cfg.workload.clone(),
        technique: cfg.technique,
        stats,
        reliability,
        mem: *core.mem_stats(),
        predictor: core.predictor_stats(),
        abc_by_structure,
        window_abc,
        stalls: core.stall_profile().map(|p| Box::new(p.clone())),
    }
}

/// All measurements from one run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Benchmark name.
    pub workload: String,
    /// Technique simulated.
    pub technique: Technique,
    /// Core performance counters.
    pub stats: CoreStats,
    /// Reliability summary (ABC/AVF; compare via
    /// [`ReliabilityReport::mttf_vs`]).
    pub reliability: ReliabilityReport,
    /// Memory-system counters.
    pub mem: MemStats,
    /// Branch-predictor counters.
    pub predictor: PredictorStats,
    /// ABC per structure, in [`Structure::ALL`] order.
    pub abc_by_structure: [u128; Structure::COUNT],
    /// ABC attributed to [full-ROB-stall, ROB-head-blocked] windows.
    pub window_abc: [u128; 2],
    /// Per-cycle stall taxonomy and occupancy shapes; `None` unless the
    /// run enabled stall profiling
    /// ([`SweepSession::stall_profiling`](crate::SweepSession::stall_profiling)).
    pub stalls: Option<Box<StallProfile>>,
}

impl SimResult {
    /// Useful instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }

    /// Average memory-level parallelism.
    #[must_use]
    pub fn mlp(&self) -> f64 {
        self.stats.mlp()
    }

    /// LLC misses per kilo-instruction.
    #[must_use]
    pub fn mpki(&self) -> f64 {
        self.mem.mpki(self.stats.committed)
    }

    /// Normalized IPC relative to `baseline` (higher is better).
    #[must_use]
    pub fn ipc_vs(&self, baseline: &SimResult) -> f64 {
        if baseline.ipc() == 0.0 {
            return f64::NAN;
        }
        self.ipc() / baseline.ipc()
    }

    /// Normalized MTTF relative to `baseline` (higher is better).
    #[must_use]
    pub fn mttf_vs(&self, baseline: &SimResult) -> f64 {
        self.reliability.mttf_vs(&baseline.reliability)
    }

    /// Normalized ABC relative to `baseline` (lower is better).
    #[must_use]
    pub fn abc_vs(&self, baseline: &SimResult) -> f64 {
        self.reliability.abc_vs(&baseline.reliability)
    }

    /// Normalized MLP relative to `baseline`. When the baseline exposed no
    /// memory-level parallelism at all (a fully cache-resident workload),
    /// the ratio is reported as 1.0.
    #[must_use]
    pub fn mlp_vs(&self, baseline: &SimResult) -> f64 {
        if baseline.mlp() == 0.0 {
            return 1.0;
        }
        self.mlp() / baseline.mlp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    fn quick(workload: &str, technique: Technique) -> SimResult {
        Simulation::run(
            &SimConfig::builder()
                .workload(workload)
                .technique(technique)
                .warmup(1_000)
                .instructions(6_000)
                .build(),
        )
    }

    #[test]
    fn baseline_run_produces_sane_results() {
        let r = quick("libquantum", Technique::Ooo);
        assert!(r.ipc() > 0.0 && r.ipc() < 4.0);
        assert!(r.reliability.total_abc() > 0);
        assert!(r.mpki() > 0.0, "libquantum must miss the LLC");
    }

    #[test]
    fn memory_intensive_workload_exceeds_mpki_threshold() {
        let r = quick("mcf", Technique::Ooo);
        assert!(r.mpki() > 8.0, "mcf MPKI = {}", r.mpki());
    }

    #[test]
    fn compute_intensive_workload_below_threshold() {
        // Needs enough warm-up to fill the hot/store regions: the model's
        // misses are purely compulsory for compute-intensive workloads.
        let r = Simulation::run(
            &SimConfig::builder()
                .workload("leela")
                .technique(Technique::Ooo)
                .warmup(25_000)
                .instructions(6_000)
                .build(),
        );
        assert!(r.mpki() < 8.0, "leela MPKI = {}", r.mpki());
    }

    #[test]
    fn rar_beats_baseline_reliability() {
        let base = quick("libquantum", Technique::Ooo);
        let rar = quick("libquantum", Technique::Rar);
        assert!(
            rar.mttf_vs(&base) > 1.0,
            "MTTF ratio {}",
            rar.mttf_vs(&base)
        );
        assert!(rar.abc_vs(&base) < 1.0, "ABC ratio {}", rar.abc_vs(&base));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = quick("milc", Technique::Rar);
        let b = quick("milc", Technique::Rar);
        assert_eq!(a.stats.cycles, b.stats.cycles);
        assert_eq!(a.reliability.total_abc(), b.reliability.total_abc());
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn unknown_workload_panics() {
        let _ = Simulation::run(&SimConfig::builder().workload("nope").build());
    }

    #[test]
    fn try_run_rejects_bad_configs_without_panicking() {
        let err = Simulation::try_run(&SimConfig::builder().workload("nope").build()).unwrap_err();
        assert_eq!(err.field(), "workload");

        let mut core = rar_core::CoreConfig::baseline();
        core.width = 0;
        let err = Simulation::try_run(&SimConfig::builder().core(core).build()).unwrap_err();
        assert_eq!(err.field(), "width");

        // Values the core cannot run: an empty stalling slice table, or a
        // functional-unit class with no units, which wedges the pipeline.
        let baseline = rar_core::CoreConfig::baseline;
        let mut no_sst = baseline();
        no_sst.sst_size = 0;
        let mut no_mem_ports = baseline();
        no_mem_ports.fu.mem_ports = 0;
        let mut no_adders = baseline();
        no_adders.fu.int_add = 0;
        for technique in [Technique::Ooo, Technique::Rar] {
            for (field, core) in [
                ("sst_size", &no_sst),
                ("fu.mem_ports", &no_mem_ports),
                ("fu.int_add", &no_adders),
            ] {
                let cfg = SimConfig::builder()
                    .technique(technique)
                    .core(core.clone())
                    .instructions(2_000)
                    .warmup(500)
                    .build();
                let err = Simulation::try_run(&cfg).unwrap_err();
                assert_eq!(err.field(), field, "{technique}");
            }
        }
    }

    #[test]
    fn refined_avf_reported_and_bounded_on_every_workload() {
        for name in rar_workloads::all_benchmarks() {
            let r = quick(name, Technique::Ooo);
            let rel = &r.reliability;
            assert!(
                rel.refined_total_abc() <= rel.total_abc(),
                "{name}: refined ABC {} > unrefined {}",
                rel.refined_total_abc(),
                rel.total_abc()
            );
            assert!(
                rel.refined_avf() <= rel.avf(),
                "{name}: refined AVF above unrefined"
            );
            assert!(
                rel.refined_total_abc() > 0,
                "{name}: refinement killed all ABC"
            );
        }
    }

    #[test]
    fn bit_refined_avf_ordered_on_every_workload() {
        // The paper-benchmark-wide ordering invariant of the three AVF
        // tiers: bit_refined <= refined <= unrefined, with the bit tier
        // still leaving measurable exposure.
        for name in rar_workloads::all_benchmarks() {
            let r = quick(name, Technique::Ooo);
            let rel = &r.reliability;
            assert!(
                rel.bit_refined_total_abc() <= rel.refined_total_abc(),
                "{name}: bit-refined ABC {} > refined {}",
                rel.bit_refined_total_abc(),
                rel.refined_total_abc()
            );
            assert!(
                rel.bit_refined_avf() <= rel.refined_avf() && rel.refined_avf() <= rel.avf(),
                "{name}: AVF tiers out of order"
            );
            assert!(
                rel.bit_refined_total_abc() > 0,
                "{name}: bit refinement killed all ABC"
            );
        }
    }

    #[test]
    fn bit_refined_figures_are_deterministic_and_thread_invariant() {
        // Same config twice in-process, and once through the parallel
        // sweep engine: all three must agree bit for bit.
        let cfg = SimConfig::builder()
            .workload("lbm")
            .technique(Technique::Rar)
            .warmup(1_000)
            .instructions(6_000)
            .build();
        let a = Simulation::run(&cfg);
        let b = Simulation::run(&cfg);
        assert_eq!(
            a.reliability.bit_refined_total_abc(),
            b.reliability.bit_refined_total_abc()
        );
        let swept = crate::sweep::SweepSession::new().run_all(&[cfg.clone(), cfg.clone()]);
        for r in swept {
            let r = r.expect("sweep run ok");
            assert_eq!(
                r.reliability.bit_refined_total_abc(),
                a.reliability.bit_refined_total_abc()
            );
            assert_eq!(
                r.reliability.bit_refined_avf().to_bits(),
                a.reliability.bit_refined_avf().to_bits()
            );
        }
    }

    #[test]
    fn refinement_finds_dead_values_somewhere() {
        // The synthetic workloads overwrite registers aggressively, so at
        // least one of them must expose statically dead destinations.
        let any_refined = rar_workloads::all_benchmarks().iter().any(|name| {
            let r = quick(name, Technique::Ooo);
            r.reliability.refined_total_abc() < r.reliability.total_abc()
        });
        assert!(any_refined, "dead-value refinement never fired");
    }

    #[test]
    fn traced_run_matches_untraced_statistics() {
        let cfg = SimConfig::builder()
            .workload("mcf")
            .technique(Technique::Rar)
            .warmup(1_000)
            .instructions(6_000)
            .build();
        let plain = Simulation::run(&cfg);
        let (traced, sink) = Simulation::run_traced(&cfg);
        // Tracing must not perturb the simulation.
        assert_eq!(plain.stats.cycles, traced.stats.cycles);
        assert_eq!(plain.stats.committed, traced.stats.committed);
        assert_eq!(
            plain.reliability.total_abc(),
            traced.reliability.total_abc()
        );
        assert!(sink.emitted() > 0, "traced run captured no events");
    }

    #[test]
    fn stall_profiled_run_matches_unprofiled_bit_for_bit() {
        let cfg = SimConfig::builder()
            .workload("mcf")
            .technique(Technique::Rar)
            .warmup(1_000)
            .instructions(6_000)
            .build();
        let plain = Simulation::run(&cfg);
        let stalled = crate::SweepSession::new()
            .stall_profiling(true)
            .run(&cfg)
            .expect("valid config");
        let profile = stalled.stalls.as_ref().expect("profile present");
        // Conservation: every measured cycle is attributed exactly once.
        assert_eq!(profile.total(), stalled.stats.cycles);
        // The profiler must not perturb the simulation: stripping the
        // profile leaves a bit-identical result.
        let mut stripped = stalled.clone();
        stripped.stalls = None;
        assert_eq!(plain, stripped);
        assert!(plain.stalls.is_none(), "profiling is opt-in");
    }

    #[test]
    fn traced_runahead_events_match_interval_count() {
        let cfg = SimConfig::builder()
            .workload("mcf")
            .technique(Technique::Rar)
            .warmup(1_000)
            .instructions(6_000)
            .build();
        let (result, sink) = Simulation::run_traced(&cfg);
        assert!(
            result.stats.runahead_intervals > 0,
            "mcf/RAR must trigger runahead"
        );
        let enters = sink
            .iter()
            .filter(|e| matches!(e, rar_trace::TraceEvent::RunaheadEnter { .. }))
            .count() as u64;
        let exits = sink
            .iter()
            .filter(|e| matches!(e, rar_trace::TraceEvent::RunaheadExit { .. }))
            .count() as u64;
        assert_eq!(enters, result.stats.runahead_intervals);
        // The run may end inside a runahead interval, so exits trail by at
        // most one.
        assert!(
            exits == enters || exits + 1 == enters,
            "enters={enters} exits={exits}"
        );
    }
}
