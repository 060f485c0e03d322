//! Fault-injection harness: real simulations under the `rar-inject`
//! campaign runner.
//!
//! The [`InjectionHarness`] binds one configuration to its golden run and
//! classifies every injected run against it:
//!
//! * **Golden run.** One fault-free execution establishes the commit
//!   digest (the architectural reference), the strike window in absolute
//!   core cycles, and the ACE/AVF estimates the campaign cross-validates.
//! * **Injected runs.** Each run executes the identical configuration
//!   with one [`PlannedFault`] armed. The outcome taxonomy follows the
//!   statistical fault-injection literature: a strike into an unoccupied
//!   slot is *vacant* (masked by construction — keeping vacancy in the
//!   denominator is exactly what makes measured vulnerability comparable
//!   to occupancy-weighted AVF); a run whose digest matches the golden
//!   one is *masked*; a digest mismatch is *SDC*; a run that exhausts the
//!   cycle-budget watchdog is a *hang DUE*, and a panic inside the model
//!   is caught by the campaign runner as a *panic DUE*.
//! * **Checkpointed campaigns.** [`InjectionHarness::execute`] builds a
//!   cold core and simulates the whole run: it is the reference.
//!   Campaigns replay the golden run once, keep [`CHECKPOINTS`] clones of
//!   the core ([`GoldenCheckpoints`]) and start each injection from the
//!   latest clone before its strike, stopping at the strike when it lands
//!   vacant (DESIGN.md §13). Outcomes and predictions are the reference's.
//! * **Cross-validation.** [`InjectionHarness::ace_avf`] reports the
//!   ACE-estimated AVF (unrefined and liveness-refined) for each
//!   ACE-comparable target, so a campaign's per-structure vulnerability
//!   (with its 95% confidence interval, [`TargetTally::ci95`]) lands
//!   side-by-side with the analytical estimate it validates.

use crate::config::SimConfig;
use crate::run::RunArtifacts;
use rar_ace::{Structure, StructureCapacities};
use rar_core::{
    Core, FaultLanding, FaultTarget, NullSink, PlannedFault, RunVerdict, SiteSampler, Technique,
};
use rar_inject::{
    run_campaign, CampaignResult, CampaignSpec, Outcome, StratifiedTally, Stratum, TargetTally,
};
use rar_isa::TraceWindow;
use rar_telemetry::MetricsRegistry;
use rar_verify::ConfigError;
use rar_workloads::SharedTraceIter;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Cycle-budget multiple (over the golden run's cycle count) granted to
/// every injected run before it is declared a hang DUE. Control strikes
/// can slow the machine (lost issue slots, re-fetched work) but a healthy
/// recovery never needs 4x the fault-free cycle count.
const HANG_BUDGET_FACTOR: u64 = 4;
/// Flat slack on top of the multiplicative hang budget, covering tiny
/// golden runs where a fixed recovery cost dominates.
const HANG_BUDGET_SLACK: u64 = 10_000;
/// Golden-run checkpoints a campaign keeps: the warm-up boundary and the
/// commits of every further quarter of the measured instructions.
pub const CHECKPOINTS: u64 = 4;

/// The core an injection runs on.
type HarnessCore = Core<TraceWindow<SharedTraceIter>, NullSink>;

/// One configuration bound to its golden (fault-free) run, ready to
/// execute and classify injected runs. Immutable once prepared, so one
/// harness serves every worker thread of a campaign concurrently.
#[derive(Debug)]
pub struct InjectionHarness {
    cfg: SimConfig,
    artifacts: RunArtifacts,
    golden_digest: u64,
    /// `Core::now` at the measurement boundary (end of warm-up).
    warmup_end: u64,
    /// `Core::now` when the golden run committed its budget.
    end_cycle: u64,
    unrefined_abc: [u128; Structure::COUNT],
    refined_abc: [u128; Structure::COUNT],
    capacities: StructureCapacities,
}

impl InjectionHarness {
    /// Validates `cfg` and executes the golden run.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if [`SimConfig::validate`] rejects the
    /// configuration; nothing is simulated in that case.
    pub fn prepare(cfg: &SimConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(Self::golden(cfg, RunArtifacts::prepare(cfg)))
    }

    /// Executes the golden run of a validated `cfg` over `artifacts`.
    fn golden(cfg: &SimConfig, artifacts: RunArtifacts) -> Self {
        let mut core = artifacts.core(cfg, NullSink);
        if cfg.warmup > 0 {
            core.run_until_committed(cfg.warmup);
            core.reset_measurement();
        }
        let warmup_end = core.now();
        core.run_until_committed(cfg.instructions);
        InjectionHarness {
            cfg: cfg.clone(),
            golden_digest: core.commit_digest(),
            warmup_end,
            end_cycle: core.now(),
            unrefined_abc: core.ace().abc_by_structure(),
            refined_abc: core.ace().refined_abc_by_structure(),
            capacities: cfg.core.capacities(),
            artifacts,
        }
    }

    /// The configuration this harness executes.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Cycles in the golden run's measured window.
    #[must_use]
    pub fn measured_cycles(&self) -> u64 {
        self.end_cycle - self.warmup_end
    }

    /// The campaign's site sampler: uniform over the ACE-comparable
    /// structures' bit capacity and over the golden run's measured cycle
    /// window, which is the weighting under which measured vulnerability
    /// estimates AVF.
    #[must_use]
    pub fn sampler(&self, seed: u64) -> SiteSampler {
        SiteSampler::ace(
            seed,
            (self.warmup_end + 1, self.end_cycle + 1),
            &self.cfg.core,
            &self.cfg.mem,
        )
    }

    /// Runs one injected execution and classifies it against the golden
    /// run. Deterministic in `fault`; safe to call from many threads.
    #[must_use]
    pub fn execute(&self, fault: &PlannedFault, deadline: Option<Instant>) -> Outcome {
        self.execute_stratified(fault, deadline).0
    }

    /// Like [`InjectionHarness::execute`], but additionally reports what
    /// the static bit-liveness analysis predicted about the struck bit
    /// (`Some(true)` = proven dead, `Some(false)` = conservatively live,
    /// `None` = no prediction — vacant slot, wrong-path writer, or a
    /// non-register target). The prediction is resolved at strike time
    /// inside the core, so it is available even for runs the watchdog
    /// kills.
    #[must_use]
    pub fn execute_stratified(
        &self,
        fault: &PlannedFault,
        deadline: Option<Instant>,
    ) -> (Outcome, Option<bool>) {
        let budget = self.hang_budget();
        let mut core = self.artifacts.core(&self.cfg, NullSink);
        core.arm_fault(*fault);
        if self.cfg.warmup > 0 {
            let verdict = core.run_budgeted(self.cfg.warmup, budget, deadline);
            if verdict != RunVerdict::Completed {
                return self.classify(&core, verdict);
            }
            core.reset_measurement();
        }
        let remaining = budget.saturating_sub(core.now()).max(1);
        let verdict = core.run_budgeted(self.cfg.instructions, remaining, deadline);
        self.classify(&core, verdict)
    }

    /// Replays the golden run and keeps [`CHECKPOINTS`] clones of its
    /// core: at the warm-up boundary, where every sampled strike window
    /// starts, and after each further quarter of the measured
    /// instructions commits. Campaigns build them once per call and drop
    /// them when it returns (one clone holds about 0.7 MB).
    #[must_use]
    pub fn checkpoints(&self) -> GoldenCheckpoints<'_> {
        let mut core = self.artifacts.core(&self.cfg, NullSink);
        // A fault that never strikes turns on the per-register writer
        // tracking an RF strike's liveness prediction reads, exactly as
        // an injected run has it from cycle 0.
        core.arm_fault(PlannedFault {
            cycle: u64::MAX,
            target: FaultTarget::Rob,
            entry: 0,
            bit: 0,
        });
        if self.cfg.warmup > 0 {
            core.run_until_committed(self.cfg.warmup);
            core.reset_measurement();
        }
        let n = self.cfg.instructions;
        let mut cores = Vec::with_capacity(CHECKPOINTS as usize);
        for j in 1..CHECKPOINTS {
            cores.push(core.clone());
            core.run_until_committed(j * n / CHECKPOINTS);
        }
        cores.push(core);
        GoldenCheckpoints {
            harness: self,
            cores,
        }
    }

    /// Absolute cycle at which an injected run is declared a hang.
    fn hang_budget(&self) -> u64 {
        self.end_cycle
            .saturating_mul(HANG_BUDGET_FACTOR)
            .saturating_add(HANG_BUDGET_SLACK)
    }

    /// Classifies an injected run that stopped with `verdict`, and
    /// reports the struck bit's liveness prediction.
    fn classify(&self, core: &HarnessCore, verdict: RunVerdict) -> (Outcome, Option<bool>) {
        let report = core.fault_report();
        let outcome = match verdict {
            RunVerdict::Completed => match report.landing {
                None | Some(FaultLanding::Vacant) => Outcome::Vacant,
                Some(_) if core.commit_digest() != self.golden_digest => Outcome::Sdc,
                Some(_) => Outcome::Masked,
            },
            _ => Outcome::DueHang,
        };
        (outcome, report.predicted_dead)
    }

    /// A sampler restricted to the two register files — the structures
    /// the per-bit dead masks apply to and where every payload strike's
    /// liveness prediction is resolved. Validation campaigns use this for
    /// statistical power: every sample audits the bit-liveness analysis
    /// instead of mostly striking structures it makes no claim about.
    #[must_use]
    pub fn rf_sampler(&self, seed: u64) -> SiteSampler {
        SiteSampler::with_targets(
            seed,
            (self.warmup_end + 1, self.end_cycle + 1),
            &[rar_core::FaultTarget::RfInt, rar_core::FaultTarget::RfFp],
            &self.cfg.core,
            &self.cfg.mem,
        )
    }

    /// The golden run's ACE-estimated `(unrefined, refined)` AVF for an
    /// ACE-comparable target; `None` for metadata-only targets.
    #[must_use]
    pub fn ace_avf(&self, target: rar_core::FaultTarget) -> Option<(f64, f64)> {
        let s = target.structure()?;
        let bits = self.capacities.bits(s);
        let cycles = self.measured_cycles();
        Some((
            rar_ace::avf(self.unrefined_abc[s.index()], bits, cycles),
            rar_ace::avf(self.refined_abc[s.index()], bits, cycles),
        ))
    }

    /// Whether the injection-measured vulnerability for `target` brackets
    /// the ACE estimate: the refined AVF (a lower bound on true
    /// vulnerability by the liveness argument) should sit within or above
    /// the campaign's 95% confidence interval.
    #[must_use]
    pub fn refined_avf_consistent(
        &self,
        target: rar_core::FaultTarget,
        tally: &TargetTally,
    ) -> Option<bool> {
        let (_, refined) = self.ace_avf(target)?;
        let lo = tally.vulnerability() - tally.ci95();
        Some(refined >= lo)
    }
}

/// Golden-run checkpoints of one [`InjectionHarness`]
/// ([`InjectionHarness::checkpoints`]): the campaign entry points run
/// every injection through [`GoldenCheckpoints::execute_stratified`].
/// Shared read-only by a campaign's worker threads; each injection runs
/// on its own clone.
#[derive(Debug)]
pub struct GoldenCheckpoints<'h> {
    harness: &'h InjectionHarness,
    /// In cycle order.
    cores: Vec<HarnessCore>,
}

impl GoldenCheckpoints<'_> {
    /// The absolute cycle (`Core::now`) of each checkpoint, in order.
    pub fn cycles(&self) -> impl Iterator<Item = u64> + '_ {
        self.cores.iter().map(Core::now)
    }

    /// [`InjectionHarness::execute`] from the latest checkpoint before the
    /// strike: the same outcome.
    #[must_use]
    pub fn execute(&self, fault: &PlannedFault, deadline: Option<Instant>) -> Outcome {
        self.execute_stratified(fault, deadline).0
    }

    /// [`InjectionHarness::execute_stratified`] from the latest checkpoint
    /// before the strike: the same outcome and prediction. The run stops
    /// at the strike when it lands vacant, since a vacant strike changes no
    /// state and the rest of the run is the golden run. A strike at or
    /// before the warm-up boundary has no checkpoint and runs the
    /// reference path.
    #[must_use]
    pub fn execute_stratified(
        &self,
        fault: &PlannedFault,
        deadline: Option<Instant>,
    ) -> (Outcome, Option<bool>) {
        let h = self.harness;
        let before = self.cores.partition_point(|c| c.now() < fault.cycle);
        let Some(checkpoint) = before.checked_sub(1).map(|i| &self.cores[i]) else {
            return h.execute_stratified(fault, deadline);
        };
        let n = h.cfg.instructions;
        let mut core = checkpoint.clone();
        core.arm_fault(*fault);
        // Stops right after the strike's cycle (or at the golden run's
        // end, for a strike after it).
        let verdict = core.run_budgeted(n, fault.cycle - core.now(), deadline);
        let verdict = match (verdict, core.fault_report().landing) {
            (RunVerdict::Deadline, _) => verdict,
            (_, None | Some(FaultLanding::Vacant)) => RunVerdict::Completed,
            _ => core.run_budgeted(n, h.hang_budget().saturating_sub(core.now()), deadline),
        };
        h.classify(&core, verdict)
    }
}

/// The pair every injection experiment compares: `base`'s workload, seed,
/// core, memory and budgets under OoO, then under RAR. Both golden runs
/// share one trace prefix and refinement, which do not depend on the
/// technique.
///
/// # Errors
///
/// A [`ConfigError`] if either configuration fails validation; nothing
/// is simulated in that case.
pub fn paired(base: &SimConfig) -> Result<[InjectionHarness; 2], ConfigError> {
    let [ooo, rar] = [Technique::Ooo, Technique::Rar].map(|technique| SimConfig {
        technique,
        ..base.clone()
    });
    ooo.validate()?;
    rar.validate()?;
    let artifacts = RunArtifacts::prepare(&ooo);
    Ok([
        InjectionHarness::golden(&ooo, artifacts.clone()),
        InjectionHarness::golden(&rar, artifacts),
    ])
}

/// The journal of one technique's campaign in a pair journaled at
/// `base`: `base` suffixed `.ooo` or `.rar`.
#[must_use]
pub fn paired_journal(base: &Path, technique: Technique) -> PathBuf {
    let mut path = base.as_os_str().to_owned();
    path.push(".");
    path.push(technique.to_string().to_ascii_lowercase());
    PathBuf::from(path)
}

/// Runs a full campaign of `spec.samples` injections for `harness`,
/// sampling sites with `seed`. Each run is wall-bounded by `run_wall`
/// (on top of the cycle-budget hang watchdog); outcomes, retries,
/// journaling and resume follow [`run_campaign`].
///
/// # Errors
///
/// Propagates journal I/O errors from opening or resuming the journal
/// (mid-campaign journal failures degrade gracefully instead).
pub fn run_injection_campaign(
    harness: &InjectionHarness,
    spec: &CampaignSpec,
    seed: u64,
    run_wall: Option<Duration>,
    registry: Option<&MetricsRegistry>,
) -> std::io::Result<CampaignResult> {
    let sampler = harness.sampler(seed);
    let checkpoints = harness.checkpoints();
    run_campaign(
        spec,
        &sampler,
        |_k, fault| {
            let deadline = run_wall.map(|d| Instant::now() + d);
            Ok(checkpoints.execute(fault, deadline))
        },
        registry,
    )
}

/// What a bit-liveness validation campaign produced: the ordinary
/// campaign result plus the per-prediction-stratum tallies the soundness
/// gate is judged on.
#[derive(Debug, Clone)]
pub struct BitliveValidation {
    /// The underlying campaign (per-target tallies, completion counts).
    pub result: CampaignResult,
    /// Outcomes stratified by the static analysis's per-strike prediction.
    pub strata: StratifiedTally,
}

impl BitliveValidation {
    /// Whether the predicted-dead stratum's measured vulnerability is
    /// statistically consistent with zero (the soundness gate), with at
    /// least one predicted-dead strike to judge — an empty stratum means
    /// the campaign had no statistical power and fails the gate.
    #[must_use]
    pub fn gate_passes(&self) -> bool {
        self.strata.get(Stratum::PredictedDead).attempts() > 0
            && self.strata.dead_stratum_consistent_with_zero()
    }
}

/// Runs a bit-liveness validation campaign: `spec.samples` injections
/// restricted to the register files ([`InjectionHarness::rf_sampler`]),
/// each outcome stratified by the static analysis's prediction for the
/// struck bit. Strata are commutative integer sums recorded alongside the
/// ordinary tally, so the result is thread-count invariant like every
/// other campaign.
///
/// Journaled resume replays outcomes but not predictions, so validation
/// campaigns run un-journaled. Injections the runner classifies without
/// reaching the executor (a panic caught by `catch_unwind`) land in the
/// campaign tally but not the strata.
///
/// # Errors
///
/// Returns [`std::io::ErrorKind::InvalidInput`] when `spec.journal` is
/// set, since a resumed campaign would under-count the strata.
pub fn run_bitlive_validation(
    harness: &InjectionHarness,
    spec: &CampaignSpec,
    seed: u64,
    run_wall: Option<Duration>,
    registry: Option<&MetricsRegistry>,
) -> std::io::Result<BitliveValidation> {
    if spec.journal.is_some() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "bit-liveness validation cannot be journaled: resume restores outcomes, \
             not predictions",
        ));
    }
    let sampler = harness.rf_sampler(seed);
    let checkpoints = harness.checkpoints();
    let strata = std::sync::Mutex::new(StratifiedTally::new());
    let result = run_campaign(
        spec,
        &sampler,
        |_k, fault| {
            let deadline = run_wall.map(|d| Instant::now() + d);
            let (outcome, predicted_dead) = checkpoints.execute_stratified(fault, deadline);
            strata
                .lock()
                .expect("strata lock")
                .record(Stratum::from_prediction(predicted_dead), outcome);
            Ok(outcome)
        },
        registry,
    )?;
    let strata = strata.into_inner().expect("strata lock");
    Ok(BitliveValidation { result, strata })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rar_inject::{load_journal, Tally};

    fn tiny_cfg(technique: Technique) -> SimConfig {
        SimConfig::builder()
            .workload("mcf")
            .technique(technique)
            .warmup(300)
            .instructions(2_000)
            .build()
    }

    fn tmp(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("rar-inject-sim-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn golden_run_matches_plain_simulation() {
        let cfg = tiny_cfg(Technique::Rar);
        let h = InjectionHarness::prepare(&cfg).unwrap();
        let plain = crate::run::Simulation::run(&cfg);
        assert_eq!(h.measured_cycles(), plain.stats.cycles);
        assert_eq!(h.unrefined_abc, plain.abc_by_structure);
    }

    #[test]
    fn paired_matches_harnesses_prepared_one_by_one() {
        let pair = paired(&tiny_cfg(Technique::Rar)).unwrap();
        for (h, technique) in pair.iter().zip([Technique::Ooo, Technique::Rar]) {
            let alone = InjectionHarness::prepare(&tiny_cfg(technique)).unwrap();
            assert_eq!(h.config().canonical(), alone.config().canonical());
            assert_eq!(h.golden_digest, alone.golden_digest);
            assert_eq!(h.measured_cycles(), alone.measured_cycles());
            assert_eq!(h.refined_abc, alone.refined_abc);
        }
        let bad = SimConfig::builder().workload("nope").build();
        assert_eq!(paired(&bad).unwrap_err().field(), "workload");
        assert_eq!(
            paired_journal(Path::new("data/inject-3.jsonl"), Technique::Rar),
            PathBuf::from("data/inject-3.jsonl.rar")
        );
    }

    #[test]
    fn unarmed_equivalent_fault_is_vacant_or_masked_never_sdc() {
        // A strike after the run's end can never land: classification
        // must be Vacant (landing None), proving the digest comparison
        // baseline is stable.
        let cfg = tiny_cfg(Technique::Ooo);
        let h = InjectionHarness::prepare(&cfg).unwrap();
        let never = PlannedFault {
            cycle: u64::MAX,
            target: FaultTarget::Rob,
            entry: 0,
            bit: 0,
        };
        assert_eq!(h.execute(&never, None), Outcome::Vacant);
    }

    #[test]
    fn campaign_tallies_are_thread_count_invariant() {
        let cfg = tiny_cfg(Technique::Ooo);
        let h = InjectionHarness::prepare(&cfg).unwrap();
        let mut tallies: Vec<Tally> = Vec::new();
        for threads in [1usize, 4] {
            let spec = CampaignSpec {
                samples: 60,
                threads,
                ..CampaignSpec::default()
            };
            let r = run_injection_campaign(&h, &spec, 42, None, None).unwrap();
            assert_eq!(r.completed, 60);
            tallies.push(r.tally);
        }
        assert_eq!(
            tallies[0].to_json(),
            tallies[1].to_json(),
            "same seed must give identical tallies regardless of threads"
        );
    }

    #[test]
    fn killed_campaign_resumes_to_identical_tallies() {
        let cfg = tiny_cfg(Technique::Ooo);
        let h = InjectionHarness::prepare(&cfg).unwrap();
        let uninterrupted = {
            let spec = CampaignSpec {
                samples: 40,
                threads: 2,
                ..CampaignSpec::default()
            };
            run_injection_campaign(&h, &spec, 7, None, None)
                .unwrap()
                .tally
        };

        let journal = tmp("resume");
        // Phase 1: "crash" after 15 runs (budget-limited, fsync every
        // record so the journal survives the kill point exactly).
        let phase1 = CampaignSpec {
            samples: 40,
            threads: 2,
            journal: Some(journal.clone()),
            fsync_every: 1,
            limit: Some(15),
            ..CampaignSpec::default()
        };
        let partial = run_injection_campaign(&h, &phase1, 7, None, None).unwrap();
        assert_eq!(partial.completed, 15);
        assert_eq!(load_journal(&journal).unwrap().len(), 15);

        // Phase 2: resume from the journal and finish.
        let phase2 = CampaignSpec {
            samples: 40,
            threads: 2,
            journal: Some(journal.clone()),
            fsync_every: 1,
            ..CampaignSpec::default()
        };
        let resumed = run_injection_campaign(&h, &phase2, 7, None, None).unwrap();
        assert_eq!(resumed.resumed, 15);
        assert_eq!(resumed.completed, 40);
        assert_eq!(
            resumed.tally.to_json(),
            uninterrupted.to_json(),
            "kill-then-resume must reproduce the uninterrupted tallies"
        );
        let _ = std::fs::remove_file(&journal);
    }

    #[test]
    fn measured_vulnerability_cross_validates_refined_avf() {
        // The ISSUE.md acceptance bar: for at least one structure the
        // ACE-refined AVF must land within or above the injection
        // campaign's 95% confidence interval (refined AVF is the tighter
        // analytical estimate; injection under-counts latent faults that
        // never reach an observable point, so "within or above" is the
        // consistent direction).
        let cfg = tiny_cfg(Technique::Ooo);
        let h = InjectionHarness::prepare(&cfg).unwrap();
        let spec = CampaignSpec {
            samples: 150,
            threads: 4,
            ..CampaignSpec::default()
        };
        let r = run_injection_campaign(&h, &spec, 1234, None, None).unwrap();
        assert_eq!(r.completed, 150);
        assert_eq!(r.tally.total(), 150);
        let consistent = FaultTarget::ACE.iter().any(|&t| {
            let tt = r.tally.get(t);
            tt.attempts() > 0 && h.refined_avf_consistent(t, &tt) == Some(true)
        });
        assert!(
            consistent,
            "no structure's refined AVF within/above the injection CI: {}",
            r.tally.to_json()
        );
    }

    #[test]
    fn predicted_dead_strikes_are_consistent_with_zero_vulnerability() {
        // The bit-liveness soundness gate, in miniature: restrict strikes
        // to the register files, stratify by the static prediction, and
        // require the predicted-dead stratum to be statistically
        // consistent with zero measured vulnerability.
        let cfg = tiny_cfg(Technique::Ooo);
        let h = InjectionHarness::prepare(&cfg).unwrap();
        let spec = CampaignSpec {
            samples: 120,
            threads: 4,
            ..CampaignSpec::default()
        };
        let v = run_bitlive_validation(&h, &spec, 2024, None, None).unwrap();
        assert_eq!(v.result.completed, 120);
        assert_eq!(v.strata.total(), 120);
        let dead = v.strata.get(rar_inject::Stratum::PredictedDead);
        assert!(
            dead.attempts() > 0,
            "no predicted-dead strikes sampled: {}",
            v.strata.to_json()
        );
        assert!(
            v.gate_passes(),
            "predicted-dead stratum not consistent with zero: {}",
            v.strata.to_json()
        );
    }

    #[test]
    fn journaled_validation_is_rejected() {
        // Resume restores outcomes but not predictions, so a journal would
        // silently under-count the strata.
        let h = InjectionHarness::prepare(&tiny_cfg(Technique::Ooo)).unwrap();
        let journal = tmp("bitlive");
        let spec = CampaignSpec {
            samples: 4,
            journal: Some(journal.clone()),
            ..CampaignSpec::default()
        };
        let err = run_bitlive_validation(&h, &spec, 7, None, None).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(!journal.exists(), "nothing may be written");
    }

    #[test]
    fn validation_strata_are_thread_count_invariant() {
        let cfg = tiny_cfg(Technique::Rar);
        let h = InjectionHarness::prepare(&cfg).unwrap();
        let mut strata = Vec::new();
        for threads in [1usize, 4] {
            let spec = CampaignSpec {
                samples: 60,
                threads,
                ..CampaignSpec::default()
            };
            let v = run_bitlive_validation(&h, &spec, 7, None, None).unwrap();
            assert_eq!(v.result.completed, 60);
            strata.push(v.strata);
        }
        assert_eq!(
            strata[0].to_json(),
            strata[1].to_json(),
            "same seed must give identical strata regardless of threads"
        );
    }

    #[test]
    fn injections_produce_unmasked_outcomes_somewhere() {
        // Sanity: with a real strike window the campaign is not all
        // vacant/masked — some SDC or DUE must appear, otherwise the
        // fault model is dead code.
        let cfg = tiny_cfg(Technique::Ooo);
        let h = InjectionHarness::prepare(&cfg).unwrap();
        let spec = CampaignSpec {
            samples: 100,
            threads: 4,
            ..CampaignSpec::default()
        };
        let r = run_injection_campaign(&h, &spec, 99, None, None).unwrap();
        let unmasked: u64 = r.tally.targets().map(|(_, c)| c.unmasked()).sum();
        assert!(
            unmasked > 0,
            "100 injections produced zero SDC/DUE: {}",
            r.tally.to_json()
        );
    }
}
