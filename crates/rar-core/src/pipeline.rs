//! The cycle-level out-of-order core with every evaluated technique.
//!
//! One [`Core`] simulates a single-threaded OoO pipeline driven by a
//! [`UopSource`]: per cycle it commits, tracks blocking misses (opening
//! the ACE stall windows, arming the runahead countdown timer, firing
//! FLUSH), issues from the issue queue, advances the runahead engine when
//! in runahead mode, and dispatches/renames new micro-ops otherwise.
//!
//! ## Modelling notes (deviations from RTL, shared by all techniques)
//!
//! - **Wrong-path instructions are modelled as fetch bubbles**, not as
//!   dispatched micro-ops: on a mispredicted branch, dispatch stops until
//!   the branch resolves, then pays the front-end redirect penalty.
//!   Wrong-path state is un-ACE by definition (Section IV-A), so this does
//!   not change the reliability accounting; it slightly understates
//!   wrong-path resource contention for every technique equally. The key
//!   consequence the paper relies on — the ROB *not* filling behind a
//!   mispredicted branch in the shadow of a miss — is captured.
//! - **Store-to-load forwarding is not modelled**: the synthetic workloads
//!   keep store and load regions disjoint, so forwarding would never fire.
//! - **Runahead follows the correct-path trace**: real runahead diverges
//!   on mispredicted branches past an INV source. This favours all
//!   runahead variants equally.

use crate::config::{exec_latency, CoreConfig};
use crate::fu::FuPool;
use crate::inject::{FaultLanding, FaultReport, FaultTarget, PlannedFault};
use crate::iq::IssueQueue;
use crate::regfile::{PhysReg, PhysRegFile, Rat};
use crate::rob::{Entry, Rob};
use crate::runahead::{InvTracker, Mode, RaState};
use crate::sst::{Prdq, Sst};
use crate::stall::{StallBucket, StallProfile};
use crate::stats::CoreStats;
use crate::technique::{RunaheadFeatures, Technique};
use rar_ace::bits::{
    FP_FU_BITS, INT_FU_BITS, IQ_ENTRY_BITS, LQ_ENTRY_BITS, ROB_ENTRY_BITS, SQ_ENTRY_BITS,
};
use rar_ace::{AceCounter, ReliabilityReport, StallKind, Structure};
use rar_frontend::BranchPredictor;
use rar_isa::rng::{self, SplitMix64, GOLDEN_GAMMA};
#[cfg(test)]
use rar_isa::Uop;
use rar_isa::{cache_line, ArchReg, RegClass, UopKind, UopSource};
use rar_mem::{AccessKind, HitLevel, MemConfig, MemStall, MemoryHierarchy};
use rar_trace::{NullSink, RunaheadTrigger, SampleRow, TraceEvent, TraceSink};
use rar_verify::AceRefinement;

/// The simulated core.
///
/// # Examples
///
/// ```
/// use rar_core::{Core, CoreConfig, Technique};
/// use rar_mem::MemConfig;
/// use rar_isa::{TraceWindow, Uop, UopKind, ArchReg};
///
/// let stream = (0u64..).map(|i| {
///     Uop::alu(0x1000 + (i % 64) * 4, UopKind::IntAlu)
///         .with_dest(ArchReg::int((i % 8) as u8))
/// });
/// let mut core = Core::new(
///     CoreConfig::baseline(),
///     MemConfig::baseline(),
///     Technique::Ooo,
///     TraceWindow::new(stream),
/// );
/// core.run_until_committed(10_000);
/// assert!(core.stats().ipc() > 1.0, "independent ALU ops should flow");
/// ```
///
/// A clone is an independent core at the same cycle with the same state,
/// so running it gives the same results as running the original
/// (fault-injection campaigns restore golden-run checkpoints this way).
#[derive(Debug, Clone)]
pub struct Core<S, T: TraceSink = NullSink> {
    cfg: CoreConfig,
    technique: Technique,
    features: Option<RunaheadFeatures>,
    mem: MemoryHierarchy,
    bp: BranchPredictor,
    ace: AceCounter,
    src: S,
    now: u64,

    rob: Rob,
    rat: Rat,
    arch_rat: Rat,
    prf: PhysRegFile,
    /// In-flight producer sequence number per architectural register.
    arch_last_writer: [Option<u64>; ArchReg::total_count()],
    /// PC of the most recent writer of each architectural register —
    /// unlike the sequence table this survives commit, so slice learning
    /// can attribute producers even after they retire.
    arch_last_writer_pc: [Option<u64>; ArchReg::total_count()],
    /// The ROB's un-issued entries, oldest first, and the ready cycle of
    /// every physical register.
    iq: IssueQueue,
    lq_count: usize,
    sq_count: usize,
    fu: FuPool,
    sst: Sst,
    prdq: Prdq,

    mode: Mode,
    /// Next correct-path sequence number to dispatch.
    next_seq: u64,
    /// Dispatch is stalled until this cycle (redirects, refills, I-misses).
    fetch_stall_until: u64,
    /// Dispatch is blocked behind this unresolved mispredicted branch.
    wait_branch: Option<u64>,
    last_ifetch_line: u64,
    /// Sequence number of the head instruction being tracked by the
    /// countdown timer, and the cycle it became head.
    head_since: Option<(u64, u64)>,
    /// FLUSH already fired for this blocking head.
    flushed_for: Option<u64>,
    /// Completion cycles of outstanding LLC misses (for the MLP metric).
    active_misses: Vec<u64>,
    /// Keep interval logging on across measurement resets.
    ace_logging: bool,
    /// Active wrong-path episode: the unresolved mispredicted branch's
    /// sequence number (only with `model_wrong_path`).
    wrong_path_after: Option<u64>,
    /// Continuous-runahead background engine: next future sequence to
    /// pre-execute and the validity state of its chain registers
    /// (Technique::Cre only).
    cre: Option<(u64, InvTracker)>,
    /// Cycle the current CRE epoch started; the engine periodically
    /// re-derives its chains (and register validity) from the ROB.
    cre_epoch_start: u64,
    /// Deterministic generator for synthetic wrong-path micro-ops.
    wp_rng: SplitMix64,
    /// Line address of the most recent correct-path load (wrong-path
    /// loads pollute nearby memory).
    last_load_line: u64,

    stats: CoreStats,

    /// Per-cycle stall taxonomy and occupancy shapes; `None` (the
    /// default) costs nothing per cycle, preserving bit-identical runs.
    stall_profile: Option<Box<StallProfile>>,

    /// Per-sequence dead-value refinement from `rar-verify`; empty by
    /// default (every uop classified live), in which case the refined ACE
    /// figures equal the unrefined ones.
    refinement: AceRefinement,
    /// Per-cycle cross-structure invariant checker (`sanitize` feature).
    #[cfg(feature = "sanitize")]
    sanitizer: rar_verify::Sanitizer,

    /// Trace sink; [`NullSink`] by default, in which case every emission
    /// site folds away at monomorphization.
    sink: T,
    /// Emit a [`TraceEvent::Sample`] every this many cycles (0 = never).
    sample_every: u64,
    /// Reused scratch buffer for draining the memory hierarchy's event log.
    mem_scratch: Vec<TraceEvent>,
    /// Reused scratch buffers for the issue stage: the cycle's candidates,
    /// its LLC-missing loads, and the slice walk behind each of them.
    issue_scratch: Vec<u64>,
    miss_scratch: Vec<u64>,
    slice_scratch: Vec<u64>,

    /// Armed single-bit fault, applied when `now` reaches its cycle.
    fault: Option<PlannedFault>,
    /// Observed effects of the armed fault.
    fault_report: FaultReport,
    /// Poison propagation is live (a fault has been armed this run).
    fault_active: bool,
    /// Per-physical-register poison bit masks (all zero outside injection
    /// runs; never read unless `fault_active`). Mask bit `i` covers
    /// register bits `i` and `i + 64` ([`rar_verify::MASK_BITS`] lanes);
    /// propagation applies the per-kind bit-transfer functions, so only
    /// consumed poison bits fault a dependent uop.
    poisoned_regs: Vec<u64>,
    /// Sequence and wrong-path flag of the uop that wrote each physical
    /// register (`None` when unwritten). Maintained only while a fault is
    /// armed; lets an RF strike resolve its static predicted-dead stratum.
    phys_writer: Vec<Option<(u64, bool)>>,
    /// Injected address corruption: `(seq, xor)` applied to that load's
    /// issue access / that store's commit drain.
    fault_addr_xor: Option<(u64, u64)>,
    /// Running hash over architecturally observable commits; equal
    /// digests mean architecturally identical executions.
    digest: u64,
}

impl<S: UopSource> Core<S> {
    /// Builds a cold core with tracing disabled (the [`NullSink`] is
    /// monomorphized away, so this is the zero-overhead configuration).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    #[must_use]
    pub fn new(cfg: CoreConfig, mem_cfg: MemConfig, technique: Technique, src: S) -> Self {
        Core::with_sink(cfg, mem_cfg, technique, src, NullSink)
    }
}

impl<S: UopSource, T: TraceSink> Core<S, T> {
    /// Builds a cold core that emits [`TraceEvent`]s into `sink`. Memory
    /// hierarchy tracing is enabled automatically when the sink is live.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    #[must_use]
    pub fn with_sink(
        cfg: CoreConfig,
        mem_cfg: MemConfig,
        technique: Technique,
        src: S,
        sink: T,
    ) -> Self {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid core config: {e}"));
        let mut mem = MemoryHierarchy::new(mem_cfg);
        if T::ENABLED {
            mem.enable_tracing();
        }
        let mut prf = PhysRegFile::new(cfg.int_regs, cfg.fp_regs);
        let rat = Rat::new(&mut prf);
        let arch_rat = rat.clone();
        let iq = IssueQueue::new(cfg.iq_size, prf.total());
        let poisoned_regs = vec![0u64; prf.total()];
        let phys_writer = vec![None; prf.total()];
        Core {
            rob: Rob::new(cfg.rob_size),
            rat,
            arch_rat,
            prf,
            arch_last_writer: [None; ArchReg::total_count()],
            arch_last_writer_pc: [None; ArchReg::total_count()],
            iq,
            lq_count: 0,
            sq_count: 0,
            fu: FuPool::new(&cfg.fu),
            sst: Sst::new(cfg.sst_size),
            prdq: Prdq::new(cfg.prdq_size),
            mode: Mode::Normal,
            next_seq: 0,
            fetch_stall_until: 0,
            wait_branch: None,
            last_ifetch_line: u64::MAX,
            head_since: None,
            flushed_for: None,
            active_misses: Vec::new(),
            ace_logging: false,
            wrong_path_after: None,
            cre: None,
            cre_epoch_start: 0,
            // `new` adds one GOLDEN_GAMMA: the state starts at 0xabcd_ef01_2345_6789.
            wp_rng: SplitMix64::new(0xabcd_ef01_2345_6789u64.wrapping_sub(GOLDEN_GAMMA)),
            last_load_line: 0x1_0000_0000,
            stats: CoreStats::default(),
            stall_profile: None,
            refinement: AceRefinement::none(),
            #[cfg(feature = "sanitize")]
            sanitizer: rar_verify::Sanitizer::new(StallKind::COUNT),
            sink,
            sample_every: 0,
            mem_scratch: Vec::new(),
            issue_scratch: Vec::with_capacity(cfg.width),
            miss_scratch: Vec::with_capacity(cfg.width),
            slice_scratch: Vec::new(),
            fault: None,
            fault_report: FaultReport::default(),
            fault_active: false,
            poisoned_regs,
            phys_writer,
            fault_addr_xor: None,
            digest: 0xcbf2_9ce4_8422_2325,
            mem,
            bp: BranchPredictor::tage_sc_l_8kb(),
            ace: AceCounter::new(),
            features: technique.features(),
            technique,
            cfg,
            src,
            now: 0,
        }
    }

    /// The configured technique.
    #[must_use]
    pub fn technique(&self) -> Technique {
        self.technique
    }

    /// The trace sink (e.g. to read back a captured ring buffer).
    #[must_use]
    pub fn sink(&self) -> &T {
        &self.sink
    }

    /// Mutable access to the trace sink (e.g. to clear it after warm-up).
    pub fn sink_mut(&mut self) -> &mut T {
        &mut self.sink
    }

    /// Consumes the core and hands back the trace sink.
    #[must_use]
    pub fn into_sink(self) -> T {
        self.sink
    }

    /// Emit a [`TraceEvent::Sample`] snapshot every `n` cycles (0 disables
    /// sampling, the default). Has no observable effect with a
    /// [`NullSink`].
    pub fn set_sample_interval(&mut self, n: u64) {
        self.sample_every = n;
    }

    /// The core configuration.
    #[must_use]
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Performance statistics.
    #[must_use]
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Memory-system statistics.
    #[must_use]
    pub fn mem_stats(&self) -> &rar_mem::MemStats {
        self.mem.stats()
    }

    /// Branch-predictor statistics.
    #[must_use]
    pub fn predictor_stats(&self) -> rar_frontend::PredictorStats {
        self.bp.stats()
    }

    /// The ACE accumulator.
    #[must_use]
    pub fn ace(&self) -> &AceCounter {
        &self.ace
    }

    /// Absolute cycle count since construction (never reset; warm-up
    /// included). Fault-injection campaigns plan strike cycles against
    /// this clock.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Installs a static dead-value refinement (from
    /// [`rar_verify::analyze`] over the correct-path uop trace).
    /// Committed destination-register intervals whose sequence number the
    /// refinement proves dynamically dead are additionally reported to
    /// [`AceCounter::record_dead`], so the run's reliability report carries
    /// both the unrefined (paper) AVF and the refined lower bound.
    pub fn set_ace_refinement(&mut self, refinement: AceRefinement) {
        self.refinement = refinement;
    }

    /// Stalling-slice-table telemetry: (resident PCs, hits, lookups).
    #[must_use]
    pub fn sst_stats(&self) -> (usize, u64, u64) {
        let (hits, lookups) = self.sst.hit_stats();
        (self.sst.len(), hits, lookups)
    }

    /// Reliability summary for the elapsed run.
    #[must_use]
    pub fn reliability_report(&self) -> ReliabilityReport {
        ReliabilityReport::new(&self.ace, &self.cfg.capacities(), self.stats.cycles)
    }

    /// Zeroes the measured statistics and ACE state while keeping all
    /// microarchitectural state (caches, predictors, SST) warm. Call after
    /// a warm-up phase.
    pub fn reset_measurement(&mut self) {
        self.stats = CoreStats::default();
        self.ace = if self.ace_logging {
            AceCounter::with_logging()
        } else {
            AceCounter::new()
        };
        self.mem.reset_stats();
        self.bp.reset_stats();
        if let Some(profile) = &mut self.stall_profile {
            **profile = StallProfile::default();
        }
        #[cfg(feature = "sanitize")]
        self.sanitizer.reset_measurement(self.rob.len() as u64);
    }

    /// Enables per-cycle stall/occupancy profiling ([`StallProfile`]).
    /// Survives [`Core::reset_measurement`] (which zeroes the tallies, so
    /// the profile covers exactly the measured cycles). Profiling only
    /// observes simulator state — profiled runs produce bit-identical
    /// statistics to unprofiled ones.
    pub fn enable_stall_profiling(&mut self) {
        if self.stall_profile.is_none() {
            self.stall_profile = Some(Box::default());
        }
    }

    /// The accumulated stall profile, when profiling is enabled.
    #[must_use]
    pub fn stall_profile(&self) -> Option<&StallProfile> {
        self.stall_profile.as_deref()
    }

    /// Enables recording of committed occupancy intervals
    /// ([`AceCounter::interval_log`], the input of
    /// [`rar_ace::OccupancyProfile`]). Survives
    /// [`Core::reset_measurement`].
    pub fn enable_ace_logging(&mut self) {
        self.ace_logging = true;
        self.ace.enable_logging();
    }

    /// Runs until `n` instructions have been committed since the last
    /// measurement reset: [`Core::run_budgeted`] with a budget of
    /// `max(1000 n, 10^6)` cycles and no deadline.
    ///
    /// Cycles in which no stage can act are skipped rather than ticked,
    /// with every per-cycle tally credited as ticking would credit it, so
    /// the result equals calling [`Core::cycle`] until `n` commit
    /// (DESIGN.md §19).
    ///
    /// # Panics
    ///
    /// Panics if the core wedges: `n` have not committed after
    /// `max(1000 n, 10^6)` cycles.
    pub fn run_until_committed(&mut self, n: u64) {
        let verdict = self.run_budgeted(n, n.saturating_mul(1_000).max(1_000_000), None);
        assert!(
            verdict == RunVerdict::Completed,
            "simulation wedged: {} committed of {n} after {} cycles",
            self.stats.committed,
            self.now
        );
    }

    /// Runs until `n` instructions have been committed since the last
    /// measurement reset, bounded by a cycle budget and an optional
    /// wall-clock deadline. Unlike [`Core::run_until_committed`] a wedged
    /// simulation returns a verdict instead of panicking — fault-injection
    /// campaigns and sweep watchdogs classify the exhausted budget as a
    /// hang (DUE) or a timeout. Idle cycles are skipped, never past the
    /// budget, so a verdict lands on the cycle ticking would reach.
    pub fn run_budgeted(
        &mut self,
        n: u64,
        max_cycles: u64,
        deadline: Option<std::time::Instant>,
    ) -> RunVerdict {
        let start_cycles = self.stats.cycles;
        let mut tick = 0u32;
        while self.stats.committed < n {
            if let Some(wait) = self.tick() {
                let spent = self.stats.cycles - start_cycles;
                let last = self.now.saturating_add(max_cycles.saturating_sub(spent));
                self.skip_idle(wait, last);
            }
            if self.stats.cycles - start_cycles >= max_cycles {
                return RunVerdict::CycleBudget;
            }
            tick += 1;
            if tick >= 4096 {
                tick = 0;
                if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
                    return RunVerdict::Deadline;
                }
            }
        }
        RunVerdict::Completed
    }

    /// Advances the core by exactly one cycle. This is the reference the
    /// run loops' fast-forward is checked against: calling it until `n`
    /// instructions commit gives the same machine state and statistics as
    /// [`Core::run_until_committed`].
    pub fn cycle(&mut self) {
        let _ = self.tick();
    }

    /// Advances the core by one cycle. Each stage reports the first cycle
    /// it can act on its own. When nothing committed, dispatched, issued or
    /// ran ahead, returns the earliest of those, with the armed fault's
    /// cycle and the next LLC-miss return, for [`Core::skip_idle`]. `None`
    /// when the cycle moved, and always for runs that tick every cycle: a
    /// live trace sink (its samples and event order), CRE (its engine acts
    /// on its own schedule) and an open wrong-path episode.
    fn tick(&mut self) -> Option<Wait> {
        let pre = (
            self.stats.committed,
            self.stats.dispatched,
            self.stats.issued,
            self.stats.runahead_uops,
        );
        self.now += 1;
        self.stats.cycles += 1;
        if self.fault.is_some_and(|f| f.cycle <= self.now) {
            self.apply_fault();
        }

        // Runahead exit is checked before commit: when the blocking load's
        // data returns, flush variants squash it along with the rest of
        // the back-end (Figure 6) rather than letting it commit first.
        if let Mode::Runahead(state) = &self.mode {
            if self.now >= state.exit_at {
                self.exit_runahead();
            }
        }
        // Wrong-path episodes end when the mispredicted branch resolves:
        // everything younger is squashed (un-ACE) and fetch pays the
        // redirect penalty.
        if let Some(branch_seq) = self.wrong_path_after {
            let resolved = self
                .rob
                .get(branch_seq)
                .is_none_or(|e| e.completed(self.now));
            if resolved {
                let resume = self
                    .rob
                    .get(branch_seq)
                    .and_then(|e| e.complete_at)
                    .unwrap_or(self.now);
                self.squash_after(branch_seq);
                self.fetch_stall_until =
                    self.fetch_stall_until.max(resume + self.cfg.frontend_depth);
                self.wrong_path_after = None;
            }
        }
        let commit = self.commit_stage();
        let track = self.track_blocking_head();
        let issue = self.issue_stage();
        let mut wait = match &self.mode {
            Mode::Normal if self.wrong_path_after.is_some() => {
                self.dispatch_wrong_path();
                Wait::at(self.now + 1)
            }
            Mode::Normal => self.dispatch_stage(),
            Mode::Runahead(_) => Wait::at(self.runahead_stage()),
        };
        if self.technique == Technique::Cre {
            self.cre_stage();
        }
        self.mlp_sample();
        if T::ENABLED {
            self.drain_mem_trace();
            if self.sample_every > 0 && self.now.is_multiple_of(self.sample_every) {
                self.emit_sample();
            }
        }
        let (committed, dispatched, issued, runahead_uops) = pre;
        let retired = self.stats.committed > committed;
        let moved = retired
            || self.stats.dispatched > dispatched
            || self.stats.issued > issued
            || self.stats.runahead_uops > runahead_uops;
        if self.stall_profile.is_some() {
            let bucket = self.stall_bucket(retired, moved);
            self.stall_tally(bucket, 1);
        }
        #[cfg(feature = "sanitize")]
        self.sanitize_check();
        if moved
            || T::ENABLED
            || self.technique == Technique::Cre
            || self.wrong_path_after.is_some()
        {
            return None;
        }
        // Nothing moved, so no stage changed state another stage read
        // earlier this cycle, and each report still holds.
        wait.until = wait.until.min(commit).min(track).min(issue);
        if let Some(f) = self.fault {
            wait.until = wait.until.min(f.cycle);
        }
        // An LLC-miss return changes the MLP tally and the MSHR occupancy.
        if let Some(&next_return) = self.active_misses.iter().min() {
            wait.until = wait.until.min(next_return);
        }
        Some(wait)
    }

    /// Jumps over the idle cycles before `wait.until`, but never past
    /// cycle `last`, crediting each exactly as ticking it would: `cycles`,
    /// `head_blocked_cycles`, the full-structure counter dispatch bumps,
    /// `runahead_cycles` and the entry stall, the MLP tally and the stall
    /// profile (quiescent, at constant occupancy).
    fn skip_idle(&mut self, wait: Wait, last: u64) {
        let end = wait.until.saturating_sub(1).min(last);
        if end <= self.now {
            return;
        }
        let k = end - self.now;
        self.now = end;
        self.stats.cycles += k;
        if self.blocking_head().is_some() {
            self.stats.head_blocked_cycles += k;
        }
        match wait.full {
            Some(Full::Rob) => self.stats.rob_full_cycles += k,
            Some(Full::Iq) => self.stats.iq_full_cycles += k,
            None => {}
        }
        if let Mode::Runahead(state) = &mut self.mode {
            self.stats.runahead_cycles += k;
            state.entry_stall = state.entry_stall.saturating_sub(k);
        }
        let misses = self.active_misses.len() as u64;
        if misses > 0 {
            self.stats.mlp_sum += misses * k;
            self.stats.mlp_cycles += k;
        }
        if self.stall_profile.is_some() {
            self.stall_tally(StallBucket::Quiescent, k);
        }
        #[cfg(feature = "sanitize")]
        self.sanitize_check();
    }

    /// Classifies the cycle that just elapsed into exactly one
    /// [`StallBucket`] (first match wins). Read-only over pipeline state,
    /// so profiled runs stay bit-identical.
    fn stall_bucket(&self, retired: bool, moved: bool) -> StallBucket {
        if retired {
            StallBucket::Retiring
        } else if !moved {
            StallBucket::Quiescent
        } else if self.mode.is_runahead() {
            StallBucket::Runahead
        } else if self.blocking_head().is_some() {
            StallBucket::DramWait
        } else if self.rob.is_full() {
            StallBucket::RobFull
        } else if self.iq.len() >= self.cfg.iq_size {
            StallBucket::IqFull
        } else if self.lq_count >= self.cfg.lq_size || self.sq_count >= self.cfg.sq_size {
            StallBucket::LsqFull
        } else if self.now < self.fetch_stall_until
            || self.wait_branch.is_some()
            || self.wrong_path_after.is_some()
        {
            StallBucket::Frontend
        } else {
            StallBucket::Exec
        }
    }

    /// Attributes `cycles` cycles to `bucket` and samples back-end
    /// occupancy for each of them.
    fn stall_tally(&mut self, bucket: StallBucket, cycles: u64) {
        let occupancies = [
            self.rob.len(),
            self.iq.len(),
            self.lq_count,
            self.sq_count,
            self.active_misses.len(),
        ];
        let profile = self
            .stall_profile
            .as_mut()
            .expect("stall_tally called only when profiling");
        profile.tally(bucket, cycles);
        for (row, occ) in occupancies.into_iter().enumerate() {
            profile.observe_occupancy(row, occ, cycles);
        }
    }

    /// Cross-checks the pipeline's redundant bookkeeping against ground
    /// truth recomputed from the ROB, PRF, MSHR file and ACE window sets,
    /// panicking with a precise diagnostic on the first violation. Only
    /// reads simulator state — a sanitized build produces bit-identical
    /// statistics to a default build.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    #[cfg(feature = "sanitize")]
    fn sanitize_check(&mut self) {
        let now = self.now;
        let s = &mut self.sanitizer;

        s.check_uop_conservation(
            now,
            self.stats.dispatched,
            self.stats.committed,
            self.stats.squashed,
            self.rob.len() as u64,
        );

        for (name, class, total) in [
            ("int", RegClass::Int, self.cfg.int_regs),
            ("fp", RegClass::Fp, self.cfg.fp_regs),
        ] {
            let rat_mapped = self
                .rat
                .live_regs()
                .iter()
                .filter(|r| r.class == class)
                .count();
            let in_flight_old = self
                .rob
                .iter()
                .filter(|e| e.old_phys.is_some_and(|p| p.class == class))
                .count();
            s.check_prf(
                now,
                name,
                self.prf.free_count(class),
                rat_mapped,
                in_flight_old,
                total,
            );
        }

        s.check_rob_order(now, self.rob.iter().map(|e| e.seq));

        s.check_issue_queue(
            now,
            "resident",
            self.iq.seqs(),
            self.rob.iter().filter(|e| e.in_iq).map(|e| e.seq),
        );
        // Issue selection from the list versus the reference ROB walk:
        // the first `width` un-issued entries whose sources are ready.
        // A remembered wake time must never hide a ready resident.
        let int_regs = self.prf.int_regs();
        let mut picked = Vec::new();
        self.iq.select_ready(now, self.cfg.width, &mut picked);
        let walked = self
            .rob
            .iter()
            .filter(|e| {
                e.in_iq
                    && e.src_phys_cache
                        .iter()
                        .flatten()
                        .all(|p| self.iq.ready_at(p.flat(int_regs)) <= now)
            })
            .map(|e| e.seq)
            .take(self.cfg.width);
        s.check_issue_queue(now, "ready candidate", picked, walked);
        let rob_loads = self.rob.iter().filter(|e| e.uop.is_load()).count();
        let rob_stores = self.rob.iter().filter(|e| e.uop.is_store()).count();
        s.check_queue_counts(
            now,
            self.lq_count,
            self.sq_count,
            rob_loads,
            rob_stores,
            self.cfg.lq_size,
            self.cfg.sq_size,
        );

        let (allocations, released, resident, capacity, peak) = self.mem.mshr_sanity();
        s.check_mshr(now, allocations, released, resident, capacity, peak);

        for kind in [StallKind::RobHeadBlocked, StallKind::FullRobStall] {
            s.check_windows(
                now,
                kind.index(),
                self.ace.window_count(kind) as u64,
                self.ace.window_open(kind),
            );
        }

        if let Some(v) = s.first_violation() {
            panic!("sanitizer: {v}");
        }
    }

    /// Forwards the memory hierarchy's buffered events into the sink. The
    /// scratch vector is reused so steady-state tracing does not allocate.
    fn drain_mem_trace(&mut self) {
        let mut buf = std::mem::take(&mut self.mem_scratch);
        self.mem.drain_trace(&mut buf);
        for ev in buf.drain(..) {
            self.sink.emit(ev);
        }
        self.mem_scratch = buf;
    }

    fn emit_sample(&mut self) {
        let row = SampleRow {
            cycle: self.now,
            rob: self.rob.len(),
            iq: self.iq.len(),
            lq: self.lq_count,
            sq: self.sq_count,
            in_runahead: self.mode.is_runahead(),
            committed: self.stats.committed,
            outstanding_misses: self.active_misses.len(),
            abc_by_structure: self.ace.abc_by_structure().to_vec(),
        };
        self.sink.emit(TraceEvent::Sample(row));
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    /// Commits up to `width` completed head entries; returns the cycle the
    /// head completes (`u64::MAX` when empty or not yet issued).
    fn commit_stage(&mut self) -> u64 {
        for _ in 0..self.cfg.width {
            let Some(head) = self.rob.head() else { break };
            if !head.completed(self.now) {
                break;
            }
            let e = self.rob.pop_head().expect("head exists");
            self.record_ace_commit(&e);
            self.update_commit_digest(&e);
            if T::ENABLED {
                self.sink.emit(TraceEvent::UopRetired {
                    seq: e.seq,
                    pc: e.uop.pc(),
                    dispatch: e.dispatch_cycle,
                    issue: e.issue_cycle.unwrap_or(self.now),
                    complete: e.complete_at.unwrap_or(self.now),
                    commit: self.now,
                });
            }
            // Commit updates the architectural RAT and frees the previous
            // mapping of the destination register.
            if let (Some(dest), Some(phys)) = (e.uop.dest(), e.dest_phys) {
                let _ = self.arch_rat.rename(dest, phys);
            }
            if let Some(old) = e.old_phys {
                self.prf.free(old);
                let flat = old.flat(self.prf.int_regs());
                self.iq.set_ready(flat, 0);
                if self.fault_active {
                    self.poisoned_regs[flat] = 0;
                    self.phys_writer[flat] = None;
                }
            }
            if e.uop.is_load() {
                self.lq_count -= 1;
            }
            if e.uop.is_store() {
                self.sq_count -= 1;
                // The store drains to the cache at commit.
                if let Some(m) = e.uop.mem() {
                    let addr = self.effective_addr(e.seq, m.addr);
                    let _ = self
                        .mem
                        .access(AccessKind::Store, addr, e.uop.pc(), self.now);
                }
            }
            if e.in_iq {
                // Never issued (squashless commit only happens for issued
                // entries, but be defensive for NOPs).
                self.iq.remove(e.seq);
            }
            // Retire the writer table lazily: only clear if this entry is
            // still the registered last writer.
            if let Some(dest) = e.uop.dest() {
                if self.arch_last_writer[dest.flat_index()] == Some(e.seq) {
                    self.arch_last_writer[dest.flat_index()] = None;
                }
            }
            self.stats.committed += 1;
            if self.stats.committed.is_multiple_of(1024) {
                let head_seq = self.rob.head().map_or(e.seq + 1, |h| h.seq);
                self.src.release_before(head_seq);
            }
        }
        self.rob
            .head()
            .and_then(|h| h.complete_at)
            .unwrap_or(u64::MAX)
    }

    fn record_ace_commit(&mut self, e: &Entry) {
        if e.uop.kind() == UopKind::Nop {
            return; // NOPs are un-ACE.
        }
        let c = self.now;
        self.ace
            .record_committed(Structure::Rob, ROB_ENTRY_BITS, e.dispatch_cycle, c);
        let issue = e.issue_cycle.unwrap_or(c);
        self.ace
            .record_committed(Structure::Iq, IQ_ENTRY_BITS, e.dispatch_cycle, issue);
        if let Some(x) = e.exec_start {
            if e.uop.is_load() {
                self.ace
                    .record_committed(Structure::Lq, LQ_ENTRY_BITS, x, c);
            }
            if e.uop.is_store() {
                self.ace
                    .record_committed(Structure::Sq, SQ_ENTRY_BITS, x, c);
            }
            let fu_bits = if e.uop.kind().is_fp() {
                FP_FU_BITS
            } else {
                INT_FU_BITS
            };
            self.ace
                .record_committed(Structure::Fu, fu_bits, x, x + e.fu_latency);
        }
        if let Some(phys) = e.dest_phys {
            let written = e.complete_at.unwrap_or(c).min(c);
            let s = match phys.class {
                RegClass::Int => Structure::RfInt,
                RegClass::Fp => Structure::RfFp,
            };
            self.ace.record_committed(s, phys.bits(), written, c);
            // Static un-ACE refinement: bits of the destination value the
            // dead-value analysis proved are never consumed. Applied only
            // to the register-file interval — the Table III ROB/IQ/LQ/SQ
            // entry bits are control metadata, not the value itself.
            if !e.wrong_path {
                let dead = self.refinement.dead_dest_bits(e.seq, phys.bits());
                if dead > 0 {
                    self.ace.record_dead(s, dead, written, c);
                }
                // Bit-level refinement: the per-bit transfer functions
                // prove at least as many dead bits as the word-level
                // classes (`bit_refined <= refined <= unrefined` holds by
                // construction in `AceRefinement`).
                let bit_dead = self.refinement.bit_dead_dest_bits(e.seq, phys.bits());
                if bit_dead > 0 {
                    self.ace.record_dead_bits(s, bit_dead, written, c);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Blocking-head tracking: ACE windows, countdown timer, triggers
    // ------------------------------------------------------------------

    fn blocking_head(&self) -> Option<(u64, u64)> {
        // Returns (seq, complete_at) when the head is an issued,
        // uncompleted LLC-missing load.
        let head = self.rob.head()?;
        let complete = head.complete_at?;
        if head.uop.is_load() && head.mem_level == Some(HitLevel::Memory) && complete > self.now {
            Some((head.seq, complete))
        } else {
            None
        }
    }

    /// Tracks a blocking head: the ACE stall windows, the countdown timer,
    /// FLUSH and the runahead triggers. Returns the first cycle it can act
    /// on its own: the next cycle after a FLUSH (the full-ROB window closes
    /// then), when an early trigger's timer fires, otherwise only after
    /// another stage acts. The other trigger conditions cannot start to
    /// hold while time passes alone: the remaining latency and TR's issue
    /// age only move away from them.
    fn track_blocking_head(&mut self) -> u64 {
        // Countdown-timer bookkeeping: which seq is at the head, since when.
        match self.rob.head().map(|h| h.seq) {
            Some(seq) => {
                if self.head_since.map(|(s, _)| s) != Some(seq) {
                    self.head_since = Some((seq, self.now));
                }
            }
            None => self.head_since = None,
        }

        let Some((blocking_seq, complete_at)) = self.blocking_head() else {
            if self.ace.window_open(StallKind::RobHeadBlocked) {
                self.close_stall_window(StallKind::RobHeadBlocked);
            }
            if self.ace.window_open(StallKind::FullRobStall) {
                self.close_stall_window(StallKind::FullRobStall);
            }
            return u64::MAX;
        };

        self.stats.head_blocked_cycles += 1;
        #[cfg(feature = "sanitize")]
        if !self.ace.window_open(StallKind::RobHeadBlocked) {
            self.sanitizer
                .note_window_open(StallKind::RobHeadBlocked.index());
        }
        self.ace.open_window(StallKind::RobHeadBlocked, self.now);
        if self.rob.is_full() {
            #[cfg(feature = "sanitize")]
            if !self.ace.window_open(StallKind::FullRobStall) {
                self.sanitizer
                    .note_window_open(StallKind::FullRobStall.index());
            }
            self.ace.open_window(StallKind::FullRobStall, self.now);
        } else if self.ace.window_open(StallKind::FullRobStall) {
            self.close_stall_window(StallKind::FullRobStall);
        }

        if self.mode.is_runahead() {
            return u64::MAX;
        }

        let blocked_cycles = self
            .head_since
            .map_or(0, |(_, since)| self.now.saturating_sub(since));

        // FLUSH: Weaver et al. — flush behind the blocking access; the
        // pipeline refills when the access returns. Like the runahead
        // variants' late trigger, the flush fires on a full-window stall:
        // the paper's text says "blocks the head", but its results (FLUSH
        // and RAR-LATE remove nearly the same ABC; mcf's FLUSH gain is
        // modest) are only consistent with full-ROB-stall coverage, which
        // also matches Weaver et al.'s original in-order setting where a
        // blocking miss and a full pipeline coincide.
        if self.technique == Technique::Flush
            && self.flushed_for != Some(blocking_seq)
            && self.rob.is_full()
        {
            self.flushed_for = Some(blocking_seq);
            self.flush_behind_head(complete_at);
            return self.now + 1;
        }

        // Runahead triggers.
        let Some(features) = self.features else {
            return u64::MAX;
        };
        let remaining = complete_at - self.now;
        if remaining < self.cfg.min_runahead_benefit {
            return u64::MAX;
        }
        let full_stall = self.rob.is_full();
        let timer_fired = blocked_cycles >= self.cfg.runahead_timer;
        let trigger = if features.early {
            timer_fired || full_stall
        } else {
            full_stall
        };
        if !trigger {
            return match self.head_since {
                Some((_, since)) if features.early => since.saturating_add(self.cfg.runahead_timer),
                _ => u64::MAX,
            };
        }
        if !features.lean {
            // TR's filter: only enter for loads issued to memory recently
            // (long remaining latency).
            let head = self.rob.head().expect("blocking head exists");
            let issued_at = head.issue_cycle.unwrap_or(self.now);
            if self.now.saturating_sub(issued_at) > self.cfg.tr_trigger_window {
                return u64::MAX;
            }
        }
        // The full-ROB condition dominates for attribution: an early timer
        // that fires the same cycle the ROB fills is recorded as full-ROB.
        let reason = if full_stall {
            RunaheadTrigger::FullRob
        } else {
            RunaheadTrigger::Timer
        };
        self.enter_runahead(blocking_seq, complete_at, features, reason);
        u64::MAX
    }

    /// Closes an ACE stall window and forwards the recorded interval to the
    /// trace sink.
    fn close_stall_window(&mut self, kind: StallKind) {
        let closed = self.ace.close_window(kind, self.now);
        #[cfg(feature = "sanitize")]
        if closed.is_some() {
            self.sanitizer.note_window_close(kind.index());
        }
        if T::ENABLED {
            if let Some((start, end)) = closed {
                let kind = match kind {
                    StallKind::RobHeadBlocked => rar_trace::BlockedKind::RobHeadBlocked,
                    StallKind::FullRobStall => rar_trace::BlockedKind::FullRob,
                };
                self.sink.emit(TraceEvent::StallWindow { kind, start, end });
            }
        }
    }

    // ------------------------------------------------------------------
    // Issue
    // ------------------------------------------------------------------

    /// Issues the first `width` issue-queue residents, oldest first, whose
    /// sources are ready. A candidate the functional units or a full MSHR
    /// file refuse keeps its slot without using issue bandwidth, and no
    /// younger resident is considered in its place this cycle. Returns the
    /// first cycle a resident can issue: the queue's wake time, or the next
    /// cycle when a ready candidate was refused or nothing is known.
    fn issue_stage(&mut self) -> u64 {
        let now = self.now;
        let int_regs = self.prf.int_regs();
        let mut candidates = std::mem::take(&mut self.issue_scratch);
        self.iq.select_ready(now, self.cfg.width, &mut candidates);
        let mut llc_miss_loads = std::mem::take(&mut self.miss_scratch);
        let mut issued = 0;

        for &seq in &candidates {
            let Some(e) = self.rob.get(seq) else { continue };
            let kind = e.uop.kind();
            if !self.fu.try_issue(kind, now) {
                continue;
            }
            let mispredicted = e.mispredicted;

            let complete_at = match kind {
                UopKind::Load => {
                    let m = e.uop.mem().expect("loads carry an address");
                    let pc = e.uop.pc();
                    let addr = self.effective_addr(seq, m.addr);
                    match self.mem.access(AccessKind::Load, addr, pc, now + 1) {
                        Ok(out) => {
                            let entry = self.rob.get_mut(seq).expect("entry resident");
                            entry.mem_level = Some(out.level);
                            if out.level == HitLevel::Memory {
                                self.active_misses.push(out.complete_at);
                                llc_miss_loads.push(seq);
                            }
                            self.last_load_line = cache_line(addr);
                            out.complete_at
                        }
                        Err(MemStall::MshrFull) => continue, // retry next cycle
                    }
                }
                UopKind::Store => {
                    // Address generation only; data drains at commit.
                    now + exec_latency(kind)
                }
                _ => now + exec_latency(kind),
            };

            let e = self.rob.get_mut(seq).expect("entry resident");
            e.issue_cycle = Some(now);
            e.exec_start = Some(now);
            e.complete_at = Some(complete_at);
            e.in_iq = false;
            e.fu_latency = exec_latency(kind);
            if self.fault_active {
                // Per-bit poison propagation along true dependences,
                // governed by the same bit-transfer functions the static
                // analysis uses: only source bits the kind consumes can
                // fault the entry, and the destination inherits exactly
                // the forward image of the consumed poison (plus a full
                // mask when the entry itself was struck).
                let struck_directly = e.faulted;
                let consumed_mask = rar_verify::consumed_src_mask(kind);
                let mut consumed = 0u64;
                for p in e.src_phys_cache.iter().flatten() {
                    consumed |= self.poisoned_regs[p.flat(int_regs)] & consumed_mask;
                }
                if consumed != 0 {
                    e.faulted = true;
                }
                if e.faulted {
                    if let Some(p) = e.dest_phys {
                        let dest_poison = if struck_directly {
                            u64::MAX
                        } else {
                            rar_verify::dest_poison_mask(kind, consumed)
                        };
                        self.poisoned_regs[p.flat(int_regs)] |= dest_poison;
                    }
                }
            }
            let dest_phys = e.dest_phys;
            self.iq.remove(seq);
            issued += 1;
            if T::ENABLED {
                self.sink.emit(TraceEvent::UopIssued {
                    seq,
                    cycle: now,
                    complete_at,
                });
            }

            if let Some(phys) = dest_phys {
                self.iq.set_ready(phys.flat(int_regs), complete_at);
            }
            if kind == UopKind::Branch && mispredicted {
                // The branch resolves at completion; fetch restarts after
                // the front-end refill.
                self.fetch_stall_until = self
                    .fetch_stall_until
                    .max(complete_at + self.cfg.frontend_depth);
                if self.wait_branch == Some(seq) {
                    self.wait_branch = None;
                }
            }
        }

        // Train the SST with the backward slices of LLC-missing loads.
        for &seq in &llc_miss_loads {
            self.learn_slice(seq);
        }
        llc_miss_loads.clear();
        self.miss_scratch = llc_miss_loads;
        self.issue_scratch = candidates;
        self.stats.issued += issued;
        self.iq.quiet_until().max(now + 1)
    }

    /// Walks the in-flight backward slice of the load at `seq` and inserts
    /// the producers' PCs into the SST. Producers that already committed
    /// are attributed through the per-register last-writer PC table, so
    /// tight address-update chains (stream index increments) train even
    /// when they retire before the load issues.
    fn learn_slice(&mut self, seq: u64) {
        let Some(load) = self.rob.get(seq) else {
            return;
        };
        for src in load.uop.srcs() {
            if let Some(pc) = self.arch_last_writer_pc[src.flat_index()] {
                self.sst.insert(pc);
            }
        }
        let mut frontier = std::mem::take(&mut self.slice_scratch);
        frontier.clear();
        frontier.extend(load.src_writers.iter().flatten().copied());
        let mut visited = 0;
        while let Some(wseq) = frontier.pop() {
            if visited >= 16 {
                break;
            }
            visited += 1;
            if let Some(w) = self.rob.get(wseq) {
                self.sst.insert(w.uop.pc());
                frontier.extend(w.src_writers.iter().flatten().copied());
            }
        }
        self.slice_scratch = frontier;
    }

    // ------------------------------------------------------------------
    // Dispatch (normal mode)
    // ------------------------------------------------------------------

    /// Dispatches up to `width` micro-ops and reports how dispatch waits
    /// once it stops. An unresolved branch, a full LQ/SQ and an exhausted
    /// PRF wait for another stage to act.
    fn dispatch_stage(&mut self) -> Wait {
        if self.wait_branch.is_some() {
            return Wait::at(u64::MAX);
        }
        if self.now < self.fetch_stall_until {
            return Wait::at(self.fetch_stall_until);
        }
        // THROTTLE (Soundararajan et al.): maintain a hard occupancy bound
        // on the back-end — dispatch narrows (default: stops) whenever the
        // ROB holds more than the bound, directly capping how much
        // vulnerable state can ever be exposed under a miss.
        let width = if self.technique == Technique::Throttle
            && self.rob.len() as f64 >= self.cfg.throttle_occupancy_bound * self.cfg.rob_size as f64
        {
            self.cfg.throttle_width
        } else {
            self.cfg.width
        };
        if width == 0 {
            return Wait::at(u64::MAX);
        }
        for _ in 0..width {
            if self.rob.is_full() {
                self.stats.rob_full_cycles += 1;
                return Wait {
                    until: u64::MAX,
                    full: Some(Full::Rob),
                };
            }
            if self.iq.len() >= self.cfg.iq_size {
                self.stats.iq_full_cycles += 1;
                return Wait {
                    until: u64::MAX,
                    full: Some(Full::Iq),
                };
            }
            let uop = self.src.get(self.next_seq).clone();

            // Instruction fetch: charge a bubble when crossing into a line
            // that misses the L1-I.
            let line = cache_line(uop.pc());
            if line != self.last_ifetch_line {
                self.last_ifetch_line = line;
                let out = self
                    .mem
                    .access(AccessKind::Ifetch, uop.pc(), uop.pc(), self.now)
                    .expect("ifetch never stalls");
                if out.level != HitLevel::L1 {
                    self.fetch_stall_until = out.complete_at;
                    return Wait::at(out.complete_at);
                }
            }

            if uop.is_load() && self.lq_count >= self.cfg.lq_size {
                return Wait::at(u64::MAX);
            }
            if uop.is_store() && self.sq_count >= self.cfg.sq_size {
                return Wait::at(u64::MAX);
            }
            // Rename.
            let mut src_phys = [None, None];
            let mut src_writers = [None, None];
            for (i, src) in uop.srcs().enumerate() {
                src_phys[i] = Some(self.rat.lookup(src));
                src_writers[i] = self.arch_last_writer[src.flat_index()];
            }
            let (dest_phys, old_phys) = match uop.dest() {
                Some(dest) => {
                    let Some(fresh) = self.prf.alloc(dest.class()) else {
                        return Wait::at(u64::MAX); // rename stalls on PRF exhaustion
                    };
                    self.iq.set_ready(fresh.flat(self.prf.int_regs()), u64::MAX);
                    if self.fault_active {
                        self.phys_writer[fresh.flat(self.prf.int_regs())] =
                            Some((self.next_seq, false));
                    }
                    let old = self.rat.rename(dest, fresh);
                    self.arch_last_writer[dest.flat_index()] = Some(self.next_seq);
                    self.arch_last_writer_pc[dest.flat_index()] = Some(uop.pc());
                    (Some(fresh), Some(old))
                }
                None => (None, None),
            };

            // Branch prediction.
            let mut mispredicted = false;
            if let Some(b) = uop.branch_info() {
                let pred = self.bp.predict(uop.pc());
                mispredicted = self.bp.update(uop.pc(), b.taken, b.target);
                if mispredicted {
                    self.stats.branch_mispredicts += 1;
                } else if b.taken && pred.target != Some(b.target) {
                    // Correct direction, unknown target: redirect bubble.
                    self.fetch_stall_until = self.now + 2;
                }
            }

            let entry = Entry {
                seq: self.next_seq,
                uop,
                dispatch_cycle: self.now,
                issue_cycle: None,
                exec_start: None,
                complete_at: None,
                dest_phys,
                old_phys,
                mem_level: None,
                mispredicted,
                in_iq: true,
                src_writers,
                src_phys_cache: src_phys,
                wrong_path: false,
                fu_latency: 1,
                faulted: false,
            };
            if entry.uop.is_load() {
                self.lq_count += 1;
            }
            if entry.uop.is_store() {
                self.sq_count += 1;
            }
            self.iq.push(entry.seq, &src_phys, self.prf.int_regs());
            self.stats.dispatched += 1;
            if T::ENABLED {
                self.sink.emit(TraceEvent::UopDispatched {
                    seq: entry.seq,
                    pc: entry.uop.pc(),
                    cycle: self.now,
                    runahead: false,
                });
            }
            self.rob.push(entry);
            if mispredicted {
                if self.cfg.model_wrong_path {
                    self.wrong_path_after = Some(self.next_seq);
                } else {
                    self.wait_branch = Some(self.next_seq);
                }
                self.next_seq += 1;
                return Wait::at(self.now + 1);
            }
            self.next_seq += 1;
        }
        Wait::at(self.now + 1)
    }

    /// Dispatches synthetic wrong-path micro-ops while a mispredicted
    /// branch is unresolved. They rename, occupy back-end resources,
    /// execute (polluting caches and MSHRs), and are squashed at
    /// resolution — contending like real wrong-path work without being
    /// part of the correct-path trace.
    fn dispatch_wrong_path(&mut self) {
        if self.now < self.fetch_stall_until {
            return;
        }
        for _ in 0..self.cfg.width {
            if self.rob.is_full() || self.iq.len() >= self.cfg.iq_size {
                return;
            }
            let seq = match self.rob.iter().last() {
                Some(tail) => tail.seq + 1,
                None => return, // branch already gone; episode is ending
            };
            let r = self.wp_rng.next_u64();
            let pc = 0x7f_0000 + (r % 512) * 4;
            let uop = if r % 10 < 3 {
                if self.lq_count >= self.cfg.lq_size {
                    return;
                }
                // Wrong-path loads wander near recent correct-path data.
                let addr = self
                    .last_load_line
                    .wrapping_add((self.wp_rng.next_u64() % 4096) * 64)
                    & !63;
                rar_isa::Uop::load(pc, addr, 8).with_dest(ArchReg::int((r % 32) as u8))
            } else {
                rar_isa::Uop::alu(pc, UopKind::IntAlu)
                    .with_dest(ArchReg::int((r % 32) as u8))
                    .with_src(ArchReg::int(((r >> 8) % 32) as u8))
            };
            let mut src_phys = [None, None];
            for (i, src) in uop.srcs().enumerate() {
                src_phys[i] = Some(self.rat.lookup(src));
            }
            let (dest_phys, old_phys) = match uop.dest() {
                Some(dest) => {
                    let Some(fresh) = self.prf.alloc(dest.class()) else {
                        return;
                    };
                    self.iq.set_ready(fresh.flat(self.prf.int_regs()), u64::MAX);
                    if self.fault_active {
                        self.phys_writer[fresh.flat(self.prf.int_regs())] = Some((seq, true));
                    }
                    let old = self.rat.rename(dest, fresh);
                    (Some(fresh), Some(old))
                }
                None => (None, None),
            };
            let is_load = uop.is_load();
            self.iq.push(seq, &src_phys, self.prf.int_regs());
            self.rob.push(Entry {
                seq,
                uop,
                dispatch_cycle: self.now,
                issue_cycle: None,
                exec_start: None,
                complete_at: None,
                dest_phys,
                old_phys,
                mem_level: None,
                mispredicted: false,
                in_iq: true,
                src_writers: [None, None],
                src_phys_cache: src_phys,
                wrong_path: true,
                fu_latency: 1,
                faulted: false,
            });
            self.stats.dispatched += 1;
            if is_load {
                self.lq_count += 1;
            }
            if T::ENABLED {
                self.sink.emit(TraceEvent::UopDispatched {
                    seq,
                    pc,
                    cycle: self.now,
                    runahead: false,
                });
            }
        }
    }

    /// Squashes every instruction younger than `seq`, rolling the RAT
    /// back by undoing renames youngest-first. Squashed occupancy is
    /// never reported to the ACE counter.
    fn squash_after(&mut self, seq: u64) {
        let squashed = self.rob.drain_after(seq);
        self.iq.squash_after(seq);
        self.stats.squashed += squashed.len() as u64;
        if T::ENABLED {
            for e in &squashed {
                self.sink.emit(TraceEvent::UopSquashed {
                    seq: e.seq,
                    pc: e.uop.pc(),
                    dispatch: e.dispatch_cycle,
                    cycle: self.now,
                });
            }
        }
        let int_regs = self.prf.int_regs();
        for e in squashed.iter().rev() {
            self.note_squashed_entry(e);
            if let (Some(dest), Some(fresh), Some(old)) = (e.uop.dest(), e.dest_phys, e.old_phys) {
                let current = self.rat.rename(dest, old);
                debug_assert_eq!(current, fresh, "RAT rollback out of order");
                self.prf.free(fresh);
                self.iq.set_ready(fresh.flat(int_regs), 0);
                if self.fault_active {
                    self.poisoned_regs[fresh.flat(int_regs)] = 0;
                    self.phys_writer[fresh.flat(int_regs)] = None;
                }
            }
            if e.uop.is_load() {
                self.lq_count -= 1;
            }
            if e.uop.is_store() {
                self.sq_count -= 1;
            }
            if let Some(dest) = e.uop.dest() {
                if self.arch_last_writer[dest.flat_index()] == Some(e.seq) {
                    self.arch_last_writer[dest.flat_index()] = None;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Runahead
    // ------------------------------------------------------------------

    fn enter_runahead(
        &mut self,
        blocking_seq: u64,
        exit_at: u64,
        features: RunaheadFeatures,
        trigger: RunaheadTrigger,
    ) {
        self.stats.runahead_intervals += 1;
        if T::ENABLED {
            self.sink.emit(TraceEvent::RunaheadEnter {
                cycle: self.now,
                blocking_seq,
                trigger,
                expected_exit: exit_at,
            });
        }
        // Registers produced by in-flight instructions remain readable from
        // the PRF as those instructions complete during the interval; only
        // values that will NOT materialize in time — unreturned LLC misses
        // — are INV (the blocking load first among them).
        let mut inv = InvTracker::all_valid();
        for e in self.rob.iter() {
            let pending_miss = e.mem_level == Some(HitLevel::Memory)
                && e.complete_at.is_some_and(|c| c > self.now);
            let unknown = e.uop.is_load() && e.complete_at.is_none();
            if pending_miss || unknown {
                if let Some(d) = e.uop.dest() {
                    inv.invalidate(d);
                }
            }
        }
        // Traditional runahead checkpoints architectural state on entry;
        // PRE enters instantaneously (its key claim).
        let entry_stall = if features.lean {
            0
        } else {
            self.cfg.frontend_depth
        };
        self.mode = Mode::Runahead(RaState {
            blocking_seq,
            exit_at,
            entered_at: self.now,
            ra_seq: self.next_seq,
            inv,
            entry_stall,
        });
    }

    /// Runs the runahead engine for a cycle and returns the first cycle it
    /// can act on its own: after the entry stall, or at the exit once it
    /// reached the depth limit.
    fn runahead_stage(&mut self) -> u64 {
        let Mode::Runahead(state) = &self.mode else {
            return self.now + 1;
        };
        let features = self.features.expect("runahead implies features");
        if self.now >= state.exit_at {
            self.exit_runahead();
            return self.now + 1;
        }
        self.stats.runahead_cycles += 1;

        let Mode::Runahead(state) = &mut self.mode else {
            unreachable!()
        };
        if state.entry_stall > 0 {
            state.entry_stall -= 1;
            return state.exit_at.min(self.now + state.entry_stall + 1);
        }
        let mut fetch_budget = self.cfg.width;
        // Vector runahead packs several chain iterations into one issue
        // slot, multiplying slice throughput.
        let mut exec_budget = if features.vector {
            self.cfg.width * 4
        } else {
            self.cfg.width
        };
        // The runahead buffer replays dependence chains without touching
        // the front-end: skipping a non-slice micro-op is free, bounded
        // only by how far ahead the buffer's chains can reach per cycle.
        let mut skip_budget: u32 = if features.buffered { 256 } else { 0 };
        let depth_limit = self.next_seq + self.cfg.max_runahead_depth;

        while fetch_budget > 0 && exec_budget > 0 {
            let Mode::Runahead(state) = &mut self.mode else {
                unreachable!()
            };
            if state.ra_seq >= depth_limit {
                return state.exit_at;
            }
            let seq = state.ra_seq;
            let uop = self.src.get(seq).clone();
            let pc = uop.pc();

            let in_slice = if features.lean {
                uop.is_load() || self.sst.contains(pc)
            } else {
                true
            };
            let Mode::Runahead(state) = &mut self.mode else {
                unreachable!()
            };
            if !in_slice {
                // Fetched but skipped: its result is not computed.
                if let Some(d) = uop.dest() {
                    state.inv.invalidate(d);
                }
                state.ra_seq += 1;
                if skip_budget > 0 {
                    skip_budget -= 1; // buffered replay: skip is free
                } else {
                    fetch_budget -= 1;
                }
                self.stats.runahead_uops += 1;
                continue;
            }

            // Execution cost: lean runahead executes slices cheaply;
            // traditional runahead pays real latency serialization.
            let cost = if features.lean {
                1
            } else {
                (exec_latency(uop.kind()) / 2).max(1) as usize
            };
            if exec_budget < cost {
                break;
            }

            let srcs_valid = state.inv.srcs_valid(&uop);
            match uop.kind() {
                UopKind::Load => {
                    if !srcs_valid {
                        if let Some(d) = uop.dest() {
                            state.inv.invalidate(d);
                        }
                        self.stats.runahead_inv_loads += 1;
                    } else {
                        if !self.prdq.try_push(self.now, self.now + 4) {
                            break; // PRDQ full: stall this cycle
                        }
                        let m = uop.mem().expect("loads carry an address");
                        match self.mem.access(AccessKind::Load, m.addr, pc, self.now) {
                            Ok(out) => {
                                self.stats.runahead_prefetches += 1;
                                self.mem.note_runahead_load();
                                let Mode::Runahead(state) = &mut self.mode else {
                                    unreachable!()
                                };
                                if let Some(d) = uop.dest() {
                                    // Data that will not return within the
                                    // interval is INV.
                                    state.inv.set(d, out.complete_at <= state.exit_at);
                                }
                                if out.level == HitLevel::Memory {
                                    self.active_misses.push(out.complete_at);
                                }
                            }
                            Err(MemStall::MshrFull) => break, // retry next cycle
                        }
                    }
                }
                UopKind::Store | UopKind::Branch | UopKind::Nop => {
                    // Runahead stores do not modify memory; branches follow
                    // the trace.
                }
                _ => {
                    if let Some(d) = uop.dest() {
                        let Mode::Runahead(state) = &mut self.mode else {
                            unreachable!()
                        };
                        state.inv.set(d, srcs_valid);
                    }
                }
            }

            let Mode::Runahead(state) = &mut self.mode else {
                unreachable!()
            };
            state.ra_seq += 1;
            fetch_budget -= 1;
            exec_budget -= cost;
            self.stats.runahead_uops += 1;
            if T::ENABLED {
                // Pre-executed slice uops never dispatch into the ROB;
                // record them with the `runahead` flag instead.
                self.sink.emit(TraceEvent::UopDispatched {
                    seq,
                    pc,
                    cycle: self.now,
                    runahead: true,
                });
            }
        }
        self.now + 1
    }

    fn exit_runahead(&mut self) {
        let Mode::Runahead(state) = &self.mode else {
            return;
        };
        let features = self.features.expect("runahead implies features");
        let blocking_seq = state.blocking_seq;
        if T::ENABLED {
            let entered_at = state.entered_at;
            self.sink.emit(TraceEvent::RunaheadExit {
                cycle: self.now,
                entered_at,
                flushed: features.flush_at_exit,
            });
        }
        self.prdq.clear();
        if features.flush_at_exit {
            // RAR / TR: flush the whole back-end. Everything accumulated
            // during the interval becomes un-ACE; fetch restarts at the
            // blocking load.
            self.flush_all(blocking_seq, self.now + self.cfg.frontend_depth);
        } else {
            // PRE: the ROB was kept; dispatch resumes immediately.
            self.fetch_stall_until = self.fetch_stall_until.max(self.now + 1);
        }
        self.mode = Mode::Normal;
    }

    /// Continuous runahead: a background engine pre-executes stalling
    /// slices of the future stream whenever an LLC miss is outstanding,
    /// without stopping dispatch or entering a mode. Its chain-register
    /// validity is re-derived from the ROB each time the engine restarts
    /// (when dispatch catches up with it or all misses drain).
    fn cre_stage(&mut self) {
        let now = self.now;
        self.active_misses.retain(|&c| c > now);
        if self.active_misses.is_empty() {
            self.cre = None; // engine idles; revalidate on restart
            return;
        }
        // Re-derive chains when dispatch catches up with the engine or at
        // a fixed epoch boundary: the real design regenerates its chain
        // buffer from the core periodically, which also refreshes which
        // registers hold computable values.
        let restart = match &self.cre {
            Some((seq, _)) => *seq < self.next_seq || now - self.cre_epoch_start > 256,
            None => true,
        };
        if restart {
            let mut inv = InvTracker::all_valid();
            for e in self.rob.iter() {
                let pending_miss =
                    e.mem_level == Some(HitLevel::Memory) && e.complete_at.is_some_and(|c| c > now);
                let unknown = e.uop.is_load() && e.complete_at.is_none();
                if pending_miss || unknown {
                    if let Some(d) = e.uop.dest() {
                        inv.invalidate(d);
                    }
                }
            }
            self.cre = Some((self.next_seq, inv));
            self.cre_epoch_start = now;
        }
        // The dedicated engine executes up to 2 slice micro-ops per cycle
        // and skips non-slice ones freely (it replays cached chains, like
        // the runahead buffer), within a bounded lookahead.
        let depth_limit = self.next_seq + self.cfg.max_runahead_depth;
        let mut exec_budget = 2u32;
        let mut skip_budget = 64u32;
        while exec_budget > 0 && skip_budget > 0 {
            let Some((seq, _)) = self.cre else { return };
            if seq >= depth_limit {
                break;
            }
            let uop = self.src.get(seq).clone();
            let pc = uop.pc();
            let in_slice = uop.is_load() || self.sst.contains(pc);
            let Some((seq_ref, inv)) = &mut self.cre else {
                unreachable!()
            };
            if !in_slice {
                if let Some(d) = uop.dest() {
                    inv.invalidate(d);
                }
                *seq_ref += 1;
                skip_budget -= 1;
                continue;
            }
            let srcs_valid = inv.srcs_valid(&uop);
            match uop.kind() {
                UopKind::Load => {
                    if !srcs_valid {
                        if let Some(d) = uop.dest() {
                            inv.invalidate(d);
                        }
                        self.stats.runahead_inv_loads += 1;
                    } else {
                        // The background engine must not starve demand
                        // loads: it leaves a reserve of MSHRs untouched
                        // (the real design has its own resources at the
                        // memory controller).
                        let reserve = 4;
                        if self.mem.outstanding_misses(now) + reserve >= self.mem.config().mshrs {
                            break;
                        }
                        let m = uop.mem().expect("loads carry an address");
                        match self.mem.access(AccessKind::Load, m.addr, pc, now) {
                            Ok(out) => {
                                self.stats.runahead_prefetches += 1;
                                self.mem.note_runahead_load();
                                let Some((_, inv)) = &mut self.cre else {
                                    unreachable!()
                                };
                                if let Some(d) = uop.dest() {
                                    inv.set(d, out.level < HitLevel::Memory);
                                }
                                if out.level == HitLevel::Memory {
                                    self.active_misses.push(out.complete_at);
                                }
                            }
                            Err(MemStall::MshrFull) => break,
                        }
                    }
                }
                UopKind::Store | UopKind::Branch | UopKind::Nop => {}
                _ => {
                    if let Some(d) = uop.dest() {
                        let Some((_, inv)) = &mut self.cre else {
                            unreachable!()
                        };
                        inv.set(d, srcs_valid);
                    }
                }
            }
            let Some((seq_ref, _)) = &mut self.cre else {
                unreachable!()
            };
            *seq_ref += 1;
            exec_budget -= 1;
            self.stats.runahead_uops += 1;
        }
    }

    // ------------------------------------------------------------------
    // Flushes
    // ------------------------------------------------------------------

    /// Squashes every in-flight instruction and restarts fetch at
    /// `refetch_seq`. Squashed occupancy intervals are never reported to
    /// the ACE counter — this is RAR's reliability mechanism.
    fn flush_all(&mut self, refetch_seq: u64, resume_at: u64) {
        self.stats.flushes += 1;
        let squashed = self.rob.len();
        self.stats.squashed += squashed as u64;
        if T::ENABLED || self.fault_active {
            let drained: Vec<Entry> = self.rob.drain_all().collect();
            for e in &drained {
                if T::ENABLED {
                    self.sink.emit(TraceEvent::UopSquashed {
                        seq: e.seq,
                        pc: e.uop.pc(),
                        dispatch: e.dispatch_cycle,
                        cycle: self.now,
                    });
                }
                self.note_squashed_entry(e);
            }
        } else {
            let _ = self.rob.drain_all().count();
        }
        self.rat = self.arch_rat.clone();
        self.prf.reset_free_except(&self.arch_rat.live_regs());
        self.iq.reset_ready();
        self.retain_poison(None);
        self.arch_last_writer = [None; ArchReg::total_count()];
        self.iq.clear();
        self.lq_count = 0;
        self.sq_count = 0;
        self.fu.reset();
        self.wait_branch = None;
        self.wrong_path_after = None;
        self.next_seq = refetch_seq;
        self.fetch_stall_until = resume_at;
        self.last_ifetch_line = u64::MAX;
        self.head_since = None;
    }

    /// FLUSH (Weaver et al.): squashes everything *behind* the blocking
    /// head and stalls fetch until the access returns plus the refill
    /// penalty.
    fn flush_behind_head(&mut self, head_complete_at: u64) {
        self.stats.flushes += 1;
        let head_seq = self.rob.head().expect("blocking head exists").seq;
        let squashed = self.rob.drain_after(head_seq);
        self.stats.squashed += squashed.len() as u64;
        for e in &squashed {
            if T::ENABLED {
                self.sink.emit(TraceEvent::UopSquashed {
                    seq: e.seq,
                    pc: e.uop.pc(),
                    dispatch: e.dispatch_cycle,
                    cycle: self.now,
                });
            }
            self.note_squashed_entry(e);
        }
        // Roll rename state back to the architectural RAT plus the head's
        // own mapping.
        self.rat = self.arch_rat.clone();
        let head = self.rob.head().expect("head retained");
        let head_dest = head.uop.dest().zip(head.dest_phys);
        let head_complete = head.complete_at;
        let mut live = self.arch_rat.live_regs();
        if let Some((arch, phys)) = head_dest {
            let _ = self.rat.rename(arch, phys);
            live.push(phys);
        }
        self.prf.reset_free_except(&live);
        self.iq.reset_ready();
        self.retain_poison(head_dest.map(|(_, phys)| phys));
        if let Some((_, phys)) = head_dest {
            self.iq
                .set_ready(phys.flat(self.prf.int_regs()), head_complete.unwrap_or(0));
        }
        self.arch_last_writer = [None; ArchReg::total_count()];
        if let Some((arch, _)) = head_dest {
            self.arch_last_writer[arch.flat_index()] = Some(head_seq);
        }
        let head = self.rob.head().expect("head retained");
        self.iq.squash_after(head_seq);
        self.lq_count = usize::from(head.uop.is_load());
        self.sq_count = usize::from(head.uop.is_store());
        self.fu.reset();
        self.wait_branch = None;
        self.wrong_path_after = None;
        self.next_seq = head_seq + 1;
        self.fetch_stall_until = head_complete_at + self.cfg.frontend_depth;
        self.last_ifetch_line = u64::MAX;
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Arms a single-bit fault; it strikes when `now` reaches its cycle.
    /// Only one fault per run is supported (single-event-upset model).
    pub fn arm_fault(&mut self, fault: PlannedFault) {
        self.fault = Some(fault);
        self.fault_active = true;
    }

    /// What the core observed of the armed fault so far.
    #[must_use]
    pub fn fault_report(&self) -> &FaultReport {
        &self.fault_report
    }

    /// Running hash over architecturally observable commits (sequence,
    /// kind, pc, effective memory address, branch outcome, plus poison
    /// markers). Two runs with equal digests executed architecturally
    /// identically.
    #[must_use]
    pub fn commit_digest(&self) -> u64 {
        self.digest
    }

    fn update_commit_digest(&mut self, e: &Entry) {
        let mut w = e.seq ^ (e.uop.kind() as u64).rotate_left(17) ^ e.uop.pc().rotate_left(32);
        if let Some(m) = e.uop.mem() {
            w ^= self.effective_addr(e.seq, m.addr).rotate_left(8);
        }
        if let Some(b) = e.uop.branch_info() {
            w ^= (u64::from(b.taken) << 1) ^ b.target.rotate_left(40);
        }
        if e.faulted {
            self.fault_report.corrupt_commits += 1;
            // Only observable corruption perturbs the digest: a wrong
            // load/store address, wrong store data, or a wrong branch
            // condition. A faulted ALU result stays latent until (unless)
            // a dependent observable op consumes it.
            if e.uop.is_load() || e.uop.is_store() || e.uop.is_branch() {
                w ^= 0x5bf0_3635_ded5_3e21u64.rotate_left((e.seq % 63) as u32);
            }
        }
        self.digest = rng::mix(self.digest ^ w);
    }

    /// The effective memory address of `seq`, with the injected address
    /// corruption applied when this is the faulted load/store.
    fn effective_addr(&self, seq: u64, addr: u64) -> u64 {
        match self.fault_addr_xor {
            Some((s, x)) if s == seq => addr ^ x,
            _ => addr,
        }
    }

    /// Squash bookkeeping: a squashed faulted entry is architecturally
    /// erased (this is RAR's reliability mechanism observed directly).
    fn note_squashed_entry(&mut self, e: &Entry) {
        if e.faulted {
            self.fault_report.squashed_faulty += 1;
            if self.fault_addr_xor.is_some_and(|(s, _)| s == e.seq) {
                // The corrupted load/store died before its address was
                // consumed; the refetched instance is clean.
                self.fault_addr_xor = None;
            }
        }
    }

    /// After a flush rebuilt the free lists, poison survives only on
    /// registers still live in the architectural RAT (plus `extra`, the
    /// retained head's destination for FLUSH): committed corrupt values
    /// persist, speculative ones are erased.
    fn retain_poison(&mut self, extra: Option<PhysReg>) {
        if !self.fault_active {
            return;
        }
        let int_regs = self.prf.int_regs();
        let mut live = vec![false; self.poisoned_regs.len()];
        for r in self.arch_rat.live_regs() {
            live[r.flat(int_regs)] = true;
        }
        if let Some(p) = extra {
            live[p.flat(int_regs)] = true;
        }
        for (i, l) in live.into_iter().enumerate() {
            if !l {
                self.poisoned_regs[i] = 0;
                self.phys_writer[i] = None;
            }
        }
    }

    fn apply_fault(&mut self) {
        let Some(f) = self.fault.take() else { return };
        let landing = self.strike(f);
        self.fault_report.landing = Some(landing);
    }

    /// Applies the strike to live state. Entry indices address the full
    /// structure, so strikes into unoccupied slots land [`Vacant`] — the
    /// measured vulnerability therefore tracks occupancy exactly like AVF
    /// does (this is what makes the two comparable).
    ///
    /// [`Vacant`]: FaultLanding::Vacant
    fn strike(&mut self, f: PlannedFault) -> FaultLanding {
        match f.target {
            FaultTarget::Rob => {
                let idx = f.entry as usize;
                let seq = self.rob.iter().nth(idx).map(|e| e.seq);
                match seq {
                    Some(seq) => self.strike_rob(seq, f.bit),
                    None => FaultLanding::Vacant,
                }
            }
            FaultTarget::Iq => {
                let idx = f.entry as usize;
                match self.iq.nth(idx) {
                    Some(seq) => {
                        let e = self.rob.get_mut(seq).expect("selected resident");
                        if f.bit < 2 {
                            // Lost valid bit: the op silently leaves the
                            // scheduler and never issues — the ROB head
                            // eventually wedges (DUE) unless a squash or
                            // RAR's flush erases the entry first.
                            e.in_iq = false;
                            self.iq.remove(seq);
                            FaultLanding::Control
                        } else {
                            e.faulted = true;
                            FaultLanding::Payload
                        }
                    }
                    None => FaultLanding::Vacant,
                }
            }
            FaultTarget::Lq => self.strike_queue(f, true),
            FaultTarget::Sq => self.strike_queue(f, false),
            FaultTarget::RfInt => self.strike_rf(RegClass::Int, f.entry, f.bit),
            FaultTarget::RfFp => self.strike_rf(RegClass::Fp, f.entry, f.bit),
            FaultTarget::Fu => {
                let now = self.now;
                let idx = f.entry as usize;
                let seq = self
                    .rob
                    .iter()
                    .filter(|e| e.exec_start.is_some() && !e.completed(now))
                    .nth(idx)
                    .map(|e| e.seq);
                match seq {
                    Some(seq) => {
                        let int_regs = self.prf.int_regs();
                        let e = self.rob.get_mut(seq).expect("selected resident");
                        e.faulted = true;
                        if let Some(p) = e.dest_phys {
                            self.poisoned_regs[p.flat(int_regs)] = u64::MAX;
                        }
                        FaultLanding::Payload
                    }
                    None => FaultLanding::Vacant,
                }
            }
            FaultTarget::Sst => {
                if self.sst.corrupt_entry(f.entry as usize, f.bit) {
                    FaultLanding::Control
                } else {
                    FaultLanding::Vacant
                }
            }
            FaultTarget::CacheTag => {
                if self.mem.corrupt_l1d_way(f.entry as usize, f.bit) {
                    FaultLanding::Control
                } else {
                    FaultLanding::Vacant
                }
            }
            FaultTarget::Mshr => {
                if self.mem.corrupt_mshr(f.entry as usize, f.bit) {
                    FaultLanding::Control
                } else {
                    FaultLanding::Vacant
                }
            }
        }
    }

    fn strike_rob(&mut self, seq: u64, bit: u64) -> FaultLanding {
        let int_regs = self.prf.int_regs();
        let e = self.rob.get_mut(seq).expect("selected resident");
        match bit {
            0 => {
                e.mispredicted = !e.mispredicted;
                FaultLanding::Control
            }
            1 if e.in_iq => {
                // Lost scheduler valid bit (see the IQ strike).
                e.in_iq = false;
                self.iq.remove(seq);
                FaultLanding::Control
            }
            2..=7 if e.complete_at.is_some() && !e.completed(self.now) => {
                // Completion-time corruption: low flipped bits jitter the
                // wakeup (timing), high ones push completion beyond the
                // cycle budget (a hang the watchdog converts to DUE).
                let c = e.complete_at.expect("checked above") ^ (1 << (4 + 4 * (bit - 2)));
                e.complete_at = Some(c);
                if let Some(p) = e.dest_phys {
                    self.iq.set_ready(p.flat(int_regs), c);
                }
                FaultLanding::Control
            }
            _ => {
                e.faulted = true;
                let issued = e.issue_cycle.is_some();
                if issued {
                    if let Some(p) = e.dest_phys {
                        self.poisoned_regs[p.flat(int_regs)] = u64::MAX;
                    }
                }
                FaultLanding::Payload
            }
        }
    }

    /// LQ (`loads == true`) / SQ strike: address bits arm an address
    /// corruption consumed at issue (loads) or commit drain (stores);
    /// higher bits poison the entry's payload.
    fn strike_queue(&mut self, f: PlannedFault, loads: bool) -> FaultLanding {
        let int_regs = self.prf.int_regs();
        let idx = f.entry as usize;
        let seq = self
            .rob
            .iter()
            .filter(|e| {
                if loads {
                    e.uop.is_load()
                } else {
                    e.uop.is_store()
                }
            })
            .nth(idx)
            .map(|e| e.seq);
        let Some(seq) = seq else {
            return FaultLanding::Vacant;
        };
        let e = self.rob.get_mut(seq).expect("selected resident");
        if f.bit < 48 {
            if loads && e.issue_cycle.is_some() {
                // The load already consumed its address CAM entry; the
                // post-use bits are dead (ACE conservatively counts them,
                // injection measures them masked — the expected gap).
                return FaultLanding::Control;
            }
            e.faulted = true;
            self.fault_addr_xor = Some((seq, 1 << (f.bit % 48)));
            FaultLanding::Control
        } else {
            e.faulted = true;
            if e.issue_cycle.is_some() {
                if let Some(p) = e.dest_phys {
                    self.poisoned_regs[p.flat(int_regs)] = u64::MAX;
                }
            }
            FaultLanding::Payload
        }
    }

    fn strike_rf(&mut self, class: RegClass, entry: u64, bit: u64) -> FaultLanding {
        let reg = PhysReg {
            class,
            index: entry as u16,
        };
        if self.prf.is_free(reg) {
            return FaultLanding::Vacant;
        }
        let flat = reg.flat(self.prf.int_regs());
        if self.iq.ready_at(flat) == u64::MAX {
            // Allocated but never written: the flipped bit is overwritten
            // at writeback before any consumer can read it.
            return FaultLanding::Vacant;
        }
        // Wider FP registers fold onto the 64-bit poison lane, mirroring
        // the static analysis' mask convention.
        let lane = bit % rar_verify::MASK_BITS;
        self.poisoned_regs[flat] |= 1u64 << lane;
        // Resolve the static stratum for cross-validation: did the
        // bit-liveness analysis predict this exact bit dead? Unknown when
        // the writer is wrong-path or outside the analyzed trace.
        self.fault_report.predicted_dead = match self.phys_writer[flat] {
            Some((seq, false)) => Some(self.refinement.dead_dest_mask(seq) & (1u64 << lane) != 0),
            _ => None,
        };
        FaultLanding::Payload
    }

    // ------------------------------------------------------------------
    // Telemetry
    // ------------------------------------------------------------------

    /// A point-in-time view of the pipeline for tracing/debug tooling.
    #[must_use]
    pub fn snapshot(&self) -> PipelineSnapshot {
        let head = self.rob.head();
        PipelineSnapshot {
            cycle: self.now,
            rob_occupancy: self.rob.len(),
            iq_occupancy: self.iq.len(),
            lq_occupancy: self.lq_count,
            sq_occupancy: self.sq_count,
            in_runahead: self.mode.is_runahead(),
            head_seq: head.map(|e| e.seq),
            head_pc: head.map(|e| e.uop.pc()),
            head_completed: head.is_some_and(|e| e.completed(self.now)),
            next_seq: self.next_seq,
            committed: self.stats.committed,
        }
    }

    fn mlp_sample(&mut self) {
        let now = self.now;
        self.active_misses.retain(|&c| c > now);
        let n = self.active_misses.len() as u64;
        if n > 0 {
            self.stats.mlp_sum += n;
            self.stats.mlp_cycles += 1;
        }
    }
}

/// How an idle core waits, as the run loops' fast-forward reads it
/// ([`Core::skip_idle`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Wait {
    /// The first cycle a stage can act on its own (`u64::MAX`: only after
    /// another stage acts).
    until: u64,
    /// Dispatch stopped at a full ROB or issue queue, which it counts
    /// (`rob_full_cycles`, `iq_full_cycles`) every cycle it waits.
    full: Option<Full>,
}

impl Wait {
    fn at(cycle: u64) -> Wait {
        Wait {
            until: cycle,
            full: None,
        }
    }
}

/// The back-end structure a waiting dispatch found full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Full {
    Rob,
    Iq,
}

/// How a budgeted run ([`Core::run_budgeted`]) ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunVerdict {
    /// The requested instruction count committed within budget.
    Completed,
    /// The cycle budget was exhausted first — the machine is wedged or
    /// pathologically slow (a fault-injection DUE / sweep timeout).
    CycleBudget,
    /// The wall-clock deadline passed first.
    Deadline,
}

/// A point-in-time view of the pipeline (see [`Core::snapshot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineSnapshot {
    /// Current cycle.
    pub cycle: u64,
    /// Instructions resident in the ROB.
    pub rob_occupancy: usize,
    /// Instructions waiting in the issue queue.
    pub iq_occupancy: usize,
    /// Loads resident in the load queue.
    pub lq_occupancy: usize,
    /// Stores resident in the store queue.
    pub sq_occupancy: usize,
    /// The core is in runahead mode.
    pub in_runahead: bool,
    /// Sequence number of the oldest instruction.
    pub head_seq: Option<u64>,
    /// PC of the oldest instruction.
    pub head_pc: Option<u64>,
    /// The oldest instruction has completed (awaiting commit).
    pub head_completed: bool,
    /// Next sequence number to dispatch.
    pub next_seq: u64,
    /// Instructions committed so far (since measurement start).
    pub committed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rar_isa::TraceWindow;

    fn alu_stream() -> impl Iterator<Item = Uop> {
        (0u64..).map(|i| {
            Uop::alu(0x1000 + (i % 64) * 4, UopKind::IntAlu).with_dest(ArchReg::int((i % 8) as u8))
        })
    }

    fn chase_stream() -> impl Iterator<Item = Uop> {
        // A single dependent pointer chain with huge footprint: every load
        // misses and blocks the next.
        let mut addr = 0x1_0000_0000u64;
        (0u64..).map(move |i| {
            if i % 4 == 0 {
                addr = addr
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let a = 0x1_0000_0000 + (addr % (512 * 1024 * 1024 / 64)) * 64;
                Uop::load(0x1000 + (i % 64) * 4, a, 8)
                    .with_dest(ArchReg::int(0))
                    .with_src(ArchReg::int(0))
            } else if i % 4 == 3 {
                Uop::store(0x1000 + (i % 64) * 4, 0x3000_0000 + (i % 4096) * 8, 8)
            } else if i % 4 == 2 {
                // Dest-less compare so the ROB can fill before the PRF;
                // independent of the chase so the IQ drains.
                Uop::alu(0x1000 + (i % 64) * 4, UopKind::IntAlu).with_src(ArchReg::int(9))
            } else {
                Uop::alu(0x1000 + (i % 64) * 4, UopKind::IntAlu)
                    .with_dest(ArchReg::int(1 + (i % 4) as u8))
                    .with_src(ArchReg::int(1 + (i % 4) as u8))
            }
        })
    }

    fn stream_loads() -> impl Iterator<Item = Uop> {
        // Independent streaming loads: plenty of MLP for the OoO core.
        // Every third micro-op is a (dest-less) store so the ROB can fill
        // before the physical register file runs out, as in real code.
        (0u64..).map(|i| {
            let pc = 0x1000 + (i % 60) * 4;
            match i % 3 {
                0 => {
                    // 8-byte elements: one new 64-byte line (miss) every 8
                    // loads = every 24 micro-ops, so the 192-entry window
                    // exposes ~8 concurrent misses and runahead has MSHR
                    // headroom to add more.
                    let a = 0x1_0000_0000 + (i / 3) * 8;
                    Uop::load(pc, a, 8).with_dest(ArchReg::int((i % 8) as u8))
                }
                1 => Uop::alu(pc, UopKind::IntAlu).with_dest(ArchReg::int(8 + (i % 8) as u8)),
                _ => Uop::store(pc, 0x3000_0000 + (i % 4096) * 8, 8),
            }
        })
    }

    fn core_with<T: Iterator<Item = Uop>>(technique: Technique, stream: T) -> Core<TraceWindow<T>> {
        Core::new(
            CoreConfig::baseline(),
            MemConfig::baseline(),
            technique,
            TraceWindow::new(stream),
        )
    }

    #[test]
    fn alu_throughput_near_width_limit() {
        let mut core = core_with(Technique::Ooo, alu_stream());
        core.run_until_committed(20_000);
        // 3 int adders bound IPC at 3.
        let ipc = core.stats().ipc();
        assert!(ipc > 2.0 && ipc <= 3.1, "ipc = {ipc}");
    }

    #[test]
    fn chase_workload_is_memory_bound() {
        let mut core = core_with(Technique::Ooo, chase_stream());
        core.run_until_committed(3_000);
        let ipc = core.stats().ipc();
        assert!(ipc < 0.25, "dependent misses should crush IPC, got {ipc}");
        assert!(core.stats().head_blocked_cycles > core.stats().cycles / 2);
    }

    #[test]
    fn streaming_exploits_mlp() {
        let mut core = core_with(Technique::Ooo, stream_loads());
        core.run_until_committed(10_000);
        assert!(core.stats().mlp() > 1.5, "mlp = {}", core.stats().mlp());
    }

    #[test]
    fn ooo_accumulates_ace_bits() {
        let mut core = core_with(Technique::Ooo, chase_stream());
        core.run_until_committed(2_000);
        assert!(core.ace().total_abc() > 0);
        assert!(core.ace().abc(Structure::Rob) > 0);
        // ROB dominates for memory-bound code (Figure 3).
        assert!(core.ace().abc(Structure::Rob) > core.ace().abc(Structure::Sq));
    }

    #[test]
    fn rar_triggers_runahead_on_chase() {
        let mut core = core_with(Technique::Rar, chase_stream());
        core.run_until_committed(3_000);
        assert!(
            core.stats().runahead_intervals > 0,
            "RAR must enter runahead"
        );
        assert!(core.stats().flushes >= core.stats().runahead_intervals);
    }

    #[test]
    fn rar_reduces_abc_versus_ooo() {
        let mut ooo = core_with(Technique::Ooo, chase_stream());
        ooo.run_until_committed(3_000);
        let mut rar = core_with(Technique::Rar, chase_stream());
        rar.run_until_committed(3_000);
        let (a, b) = (ooo.ace().total_abc(), rar.ace().total_abc());
        assert!(b < a / 2, "RAR should slash ACE bits: ooo={a}, rar={b}");
    }

    #[test]
    fn pre_keeps_rob_state_vulnerable() {
        let mut pre = core_with(Technique::Pre, stream_loads());
        pre.run_until_committed(5_000);
        let mut rar = core_with(Technique::Rar, stream_loads());
        rar.run_until_committed(5_000);
        assert!(
            rar.ace().total_abc() < pre.ace().total_abc(),
            "flush-at-exit must reduce exposed state"
        );
    }

    #[test]
    fn pre_improves_streaming_performance() {
        let mut ooo = core_with(Technique::Ooo, stream_loads());
        ooo.run_until_committed(8_000);
        let mut pre = core_with(Technique::Pre, stream_loads());
        pre.run_until_committed(8_000);
        assert!(
            pre.stats().ipc() > ooo.stats().ipc(),
            "PRE should speed up streaming: ooo={}, pre={}",
            ooo.stats().ipc(),
            pre.stats().ipc()
        );
    }

    #[test]
    fn flush_kills_mlp() {
        let mut ooo = core_with(Technique::Ooo, stream_loads());
        ooo.run_until_committed(5_000);
        let mut fl = core_with(Technique::Flush, stream_loads());
        fl.run_until_committed(5_000);
        assert!(fl.stats().mlp() < ooo.stats().mlp());
        // The miss-detection timer lets a few younger misses issue before
        // the flush, so FLUSH reduces MLP without collapsing it; on this
        // MSHR-saturated stream the IPC effect is small (the suite-level
        // penalty is asserted in the integration tests).
        let ratio = fl.stats().ipc() / ooo.stats().ipc();
        assert!((0.5..=1.15).contains(&ratio), "FLUSH/OoO IPC ratio {ratio}");
        assert!(fl.stats().flushes > 0);
    }

    #[test]
    fn flush_reduces_abc() {
        let mut ooo = core_with(Technique::Ooo, chase_stream());
        ooo.run_until_committed(3_000);
        let mut fl = core_with(Technique::Flush, chase_stream());
        fl.run_until_committed(3_000);
        assert!(fl.ace().total_abc() < ooo.ace().total_abc());
    }

    #[test]
    fn early_triggers_more_intervals_than_late() {
        let mut rar = core_with(Technique::Rar, chase_stream());
        rar.run_until_committed(3_000);
        let mut late = core_with(Technique::RarLate, chase_stream());
        late.run_until_committed(3_000);
        assert!(
            rar.stats().runahead_intervals >= late.stats().runahead_intervals,
            "early start must trigger at least as often"
        );
    }

    #[test]
    fn committed_instruction_count_is_exact() {
        let mut core = core_with(Technique::Rar, stream_loads());
        core.run_until_committed(4_321);
        assert!(core.stats().committed >= 4_321);
        assert!(core.stats().committed < 4_321 + core.config().width as u64);
    }

    #[test]
    fn reset_measurement_keeps_warm_state() {
        let mut core = core_with(Technique::Ooo, stream_loads());
        core.run_until_committed(2_000);
        core.reset_measurement();
        assert_eq!(core.stats().committed, 0);
        assert_eq!(core.ace().total_abc(), 0);
        core.run_until_committed(1_000);
        assert!(core.stats().ipc() > 0.0);
    }

    #[test]
    fn wrong_path_mode_squashes_and_stays_unace() {
        let mk = |wp: bool| {
            let cfg = CoreConfig {
                model_wrong_path: wp,
                ..CoreConfig::baseline()
            };
            let mut core = Core::new(
                cfg,
                MemConfig::baseline(),
                Technique::Ooo,
                TraceWindow::new(mispredicting_stream()),
            );
            core.run_until_committed(4_000);
            (
                core.stats().squashed,
                core.stats().ipc(),
                core.ace().total_abc(),
            )
        };
        let (squashed_off, _, _) = mk(false);
        let (squashed_on, ipc_on, _) = mk(true);
        assert_eq!(squashed_off, 0, "bubble model squashes nothing");
        assert!(
            squashed_on > 100,
            "wrong-path uops must be dispatched and squashed"
        );
        assert!(ipc_on > 0.0);
    }

    fn mispredicting_stream() -> impl Iterator<Item = Uop> {
        // Hard 50/50 branches every 8 uops: plenty of wrong-path episodes.
        let mut x = 9u64;
        (0u64..).map(move |i| {
            let pc = 0x1000 + (i % 64) * 4;
            if i % 8 == 7 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let taken = (x >> 33) & 1 == 1;
                Uop::branch(
                    pc,
                    rar_isa::BranchInfo {
                        taken,
                        target: pc + 4,
                        class: rar_isa::BranchClass::Conditional,
                    },
                )
            } else if i % 8 == 3 {
                Uop::store(pc, 0x3000_0000 + (i % 512) * 8, 8)
            } else {
                Uop::alu(pc, UopKind::IntAlu).with_dest(ArchReg::int((i % 8) as u8))
            }
        })
    }

    #[test]
    fn windows_track_blocked_head() {
        let mut core = core_with(Technique::Ooo, chase_stream());
        core.run_until_committed(2_000);
        assert!(core.ace().window_count(StallKind::RobHeadBlocked) > 0);
        assert!(
            core.ace().window_cycles(StallKind::RobHeadBlocked)
                >= core.ace().window_cycles(StallKind::FullRobStall)
        );
    }

    #[test]
    fn stall_profile_conserves_cycles_and_attributes_dram() {
        for technique in [Technique::Ooo, Technique::Rar] {
            let mut core = core_with(technique, chase_stream());
            core.enable_stall_profiling();
            core.run_until_committed(2_000);
            let profile = core.stall_profile().expect("profiling enabled");
            assert_eq!(
                profile.total(),
                core.stats().cycles,
                "{technique:?}: stall buckets must sum to total cycles"
            );
            // The chase is memory-bound: the DRAM/quiescent/runahead share
            // must dominate outright retiring.
            let waiting = profile.count(StallBucket::DramWait)
                + profile.count(StallBucket::Quiescent)
                + profile.count(StallBucket::Runahead)
                + profile.count(StallBucket::RobFull);
            assert!(
                waiting > profile.count(StallBucket::Retiring),
                "{technique:?}: memory-bound chase should mostly wait"
            );
            // Occupancy rows sample once per cycle each.
            for (row, _) in crate::stall::OCC_STRUCTURES.iter().enumerate() {
                let samples: u64 = profile.occupancy[row].iter().sum();
                assert_eq!(samples, core.stats().cycles);
            }
        }
    }

    #[test]
    fn stall_profiled_run_is_bit_identical() {
        let mut plain = core_with(Technique::Rar, chase_stream());
        plain.run_until_committed(2_000);
        let mut profiled = core_with(Technique::Rar, chase_stream());
        profiled.enable_stall_profiling();
        profiled.run_until_committed(2_000);
        assert_eq!(plain.stats(), profiled.stats());
        assert_eq!(plain.ace().total_abc(), profiled.ace().total_abc());
    }

    #[test]
    fn stall_profile_resets_with_measurement() {
        let mut core = core_with(Technique::Ooo, alu_stream());
        core.enable_stall_profiling();
        core.run_until_committed(1_000);
        assert!(core.stall_profile().expect("enabled").total() > 0);
        core.reset_measurement();
        let profile = core.stall_profile().expect("survives reset");
        assert_eq!(profile.total(), 0);
        core.run_until_committed(500);
        assert_eq!(
            core.stall_profile().expect("enabled").total(),
            core.stats().cycles
        );
    }

    #[test]
    fn alu_stream_mostly_retires() {
        let mut core = core_with(Technique::Ooo, alu_stream());
        core.enable_stall_profiling();
        core.run_until_committed(10_000);
        let profile = core.stall_profile().expect("profiling enabled");
        assert!(
            profile.count(StallBucket::Retiring) > profile.total() / 2,
            "independent ALU ops should retire most cycles"
        );
    }
}
