//! Single-bit fault description and deterministic site sampling.
//!
//! A statistical fault-injection campaign strikes one bit of modeled
//! microarchitectural state per run — `(cycle, target, entry, bit)` — and
//! classifies the architectural outcome against a golden run (see the
//! `rar-inject` crate for the campaign machinery). This module defines the
//! *what*: the injectable structures ([`FaultTarget`]), the fault tuple
//! ([`PlannedFault`]), where a strike landed ([`FaultLanding`]), and a
//! deterministic sampler ([`SiteSampler`], over `rar_isa::rng`'s
//! xorshift64*) whose `k`-th site is a pure function of `(seed, k)` —
//! campaigns are therefore reproducible bit-for-bit across thread counts
//! and resumable without replaying the generator.
//!
//! ## Fault semantics in a timing simulator
//!
//! The simulator carries no data values, so a "payload" bit flip cannot
//! literally corrupt a number. Instead payload strikes mark state
//! *poisoned* and the core propagates poison along true dependences
//! (register reads at issue, destination writes at completion); a poisoned
//! value that reaches an architecturally observable point — a load/store
//! address or a committed branch — perturbs the commit digest and is
//! classified SDC. "Control" strikes mutate real scheduler state (lost
//! issue-queue valid bits, completion-time corruption, load/store address
//! bits) and can genuinely wedge the machine, which the cycle-budget
//! watchdog classifies DUE. Strikes into unoccupied slots land
//! [`FaultLanding::Vacant`] and are always masked.

use crate::config::CoreConfig;
use rar_ace::bits::{
    FP_REG_BITS, INT_FU_BITS, INT_REG_BITS, IQ_ENTRY_BITS, LQ_ENTRY_BITS, ROB_ENTRY_BITS,
    SQ_ENTRY_BITS,
};
use rar_ace::Structure;
use rar_isa::rng::XorShift64Star;
use rar_mem::MemConfig;

/// Per-entry SST bits: a 48-bit PC tag plus LRU metadata.
pub const SST_ENTRY_BITS: u64 = 48;
/// Per-way L1-D tag bits: tag + valid + LRU metadata.
pub const CACHE_TAG_BITS: u64 = 40;
/// Per-MSHR bits: line address + completion bookkeeping.
pub const MSHR_ENTRY_BITS: u64 = 64;

/// A microarchitectural structure that accepts bit-flip injections.
///
/// The first seven variants mirror [`rar_ace::Structure`] and are directly
/// comparable to ACE-estimated AVF; the last three (SST, L1-D tags, MSHRs)
/// are metadata structures outside the paper's Table III accounting,
/// injectable to confirm they are timing-only (ECC-equivalent) state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultTarget {
    /// Reorder-buffer entry bits.
    Rob,
    /// Issue-queue entry bits.
    Iq,
    /// Load-queue entry bits.
    Lq,
    /// Store-queue entry bits.
    Sq,
    /// Integer physical register bits.
    RfInt,
    /// Floating-point physical register bits.
    RfFp,
    /// Functional-unit pipeline latch bits.
    Fu,
    /// Stalling-slice-table PC tags.
    Sst,
    /// L1-D tag array.
    CacheTag,
    /// Miss-status holding registers.
    Mshr,
}

impl FaultTarget {
    /// Every injectable target, ACE-comparable structures first.
    pub const ALL: [FaultTarget; 10] = [
        FaultTarget::Rob,
        FaultTarget::Iq,
        FaultTarget::Lq,
        FaultTarget::Sq,
        FaultTarget::RfInt,
        FaultTarget::RfFp,
        FaultTarget::Fu,
        FaultTarget::Sst,
        FaultTarget::CacheTag,
        FaultTarget::Mshr,
    ];

    /// The targets with an ACE/AVF counterpart (Table III structures).
    pub const ACE: [FaultTarget; 7] = [
        FaultTarget::Rob,
        FaultTarget::Iq,
        FaultTarget::Lq,
        FaultTarget::Sq,
        FaultTarget::RfInt,
        FaultTarget::RfFp,
        FaultTarget::Fu,
    ];

    /// Stable lower-case name (used in journals and tally files).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            FaultTarget::Rob => "rob",
            FaultTarget::Iq => "iq",
            FaultTarget::Lq => "lq",
            FaultTarget::Sq => "sq",
            FaultTarget::RfInt => "rf_int",
            FaultTarget::RfFp => "rf_fp",
            FaultTarget::Fu => "fu",
            FaultTarget::Sst => "sst",
            FaultTarget::CacheTag => "cache_tag",
            FaultTarget::Mshr => "mshr",
        }
    }

    /// Parses a [`FaultTarget::name`] back into the target.
    #[must_use]
    pub fn parse(s: &str) -> Option<FaultTarget> {
        FaultTarget::ALL.into_iter().find(|t| t.name() == s)
    }

    /// The ACE structure this target corresponds to, when it has one.
    #[must_use]
    pub const fn structure(self) -> Option<Structure> {
        match self {
            FaultTarget::Rob => Some(Structure::Rob),
            FaultTarget::Iq => Some(Structure::Iq),
            FaultTarget::Lq => Some(Structure::Lq),
            FaultTarget::Sq => Some(Structure::Sq),
            FaultTarget::RfInt => Some(Structure::RfInt),
            FaultTarget::RfFp => Some(Structure::RfFp),
            FaultTarget::Fu => Some(Structure::Fu),
            FaultTarget::Sst | FaultTarget::CacheTag | FaultTarget::Mshr => None,
        }
    }

    /// Per-entry bit width of the target. Every variant MUST appear here —
    /// `cargo xtask lint` enforces it so a new injectable structure cannot
    /// silently default to an arbitrary width.
    #[must_use]
    pub const fn per_entry_bits(self) -> u64 {
        match self {
            FaultTarget::Rob => ROB_ENTRY_BITS,
            FaultTarget::Iq => IQ_ENTRY_BITS,
            FaultTarget::Lq => LQ_ENTRY_BITS,
            FaultTarget::Sq => SQ_ENTRY_BITS,
            FaultTarget::RfInt => INT_REG_BITS,
            FaultTarget::RfFp => FP_REG_BITS,
            FaultTarget::Fu => INT_FU_BITS,
            FaultTarget::Sst => SST_ENTRY_BITS,
            FaultTarget::CacheTag => CACHE_TAG_BITS,
            FaultTarget::Mshr => MSHR_ENTRY_BITS,
        }
    }

    /// Number of addressable entries of this target under a configuration.
    #[must_use]
    pub fn entries(self, core: &CoreConfig, mem: &MemConfig) -> u64 {
        match self {
            FaultTarget::Rob => core.rob_size as u64,
            FaultTarget::Iq => core.iq_size as u64,
            FaultTarget::Lq => core.lq_size as u64,
            FaultTarget::Sq => core.sq_size as u64,
            FaultTarget::RfInt => core.int_regs as u64,
            FaultTarget::RfFp => core.fp_regs as u64,
            FaultTarget::Fu => (core.fu.int_units() + core.fu.fp_units()) as u64,
            FaultTarget::Sst => core.sst_size as u64,
            FaultTarget::CacheTag => (mem.l1d.num_sets() * mem.l1d.assoc) as u64,
            FaultTarget::Mshr => mem.mshrs as u64,
        }
    }

    /// Total bit capacity (`entries * per_entry_bits`) under a config.
    #[must_use]
    pub fn capacity_bits(self, core: &CoreConfig, mem: &MemConfig) -> u64 {
        self.entries(core, mem) * self.per_entry_bits()
    }
}

/// One planned single-bit strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedFault {
    /// Absolute core cycle (`Core::now`) at which the bit flips.
    pub cycle: u64,
    /// Structure struck.
    pub target: FaultTarget,
    /// Entry index within the structure (modulo-reduced by the applier
    /// when the structure is sparsely occupied).
    pub entry: u64,
    /// Bit index within the entry, `< per_entry_bits()`.
    pub bit: u64,
}

/// Where a strike physically landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultLanding {
    /// The addressed slot held no live state; the flip is masked by
    /// construction.
    Vacant,
    /// A value bit: the slot's data is now poisoned and propagates along
    /// true dependences.
    Payload,
    /// A control/metadata bit: real scheduler or address state mutated.
    Control,
}

impl FaultLanding {
    /// Stable lower-case name for journals.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            FaultLanding::Vacant => "vacant",
            FaultLanding::Payload => "payload",
            FaultLanding::Control => "control",
        }
    }
}

/// What the core observed of an armed fault (read back after the run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// `None` until the strike cycle is reached.
    pub landing: Option<FaultLanding>,
    /// Faulted in-flight entries removed by squash/flush (the fault was
    /// architecturally erased — RAR's mechanism at work).
    pub squashed_faulty: u64,
    /// Commits that retired poisoned state (observable or latent).
    pub corrupt_commits: u64,
    /// For register-file strikes: whether the static bit-liveness
    /// analysis predicted the struck bit dead (`None` when the stratum is
    /// unresolvable — a non-RF target, a vacant slot, or a wrong-path /
    /// beyond-horizon writer). The injection campaign stratifies outcomes
    /// on this to cross-validate the analysis.
    pub predicted_dead: Option<bool>,
}

/// Plans the `k`-th injection site of a campaign.
///
/// Implementations MUST be pure in `k`: the same `(sampler, k)` always
/// yields the same [`PlannedFault`], independent of call order — this is
/// what makes campaigns deterministic across thread counts and resumable.
pub trait FaultInjector {
    /// The `k`-th planned fault.
    fn plan(&self, k: u64) -> PlannedFault;
}

/// Deterministic site sampler: uniform over the configured targets'
/// aggregate bit capacity and uniform over a cycle window, so the
/// per-structure sample density matches the per-structure bit capacity —
/// exactly the weighting under which measured vulnerability is comparable
/// to ACE-estimated AVF.
#[derive(Debug, Clone)]
pub struct SiteSampler {
    seed: u64,
    cycle_lo: u64,
    cycle_hi: u64,
    /// `(target, entries, capacity_bits)` per injectable target.
    domain: Vec<(FaultTarget, u64, u64)>,
    total_bits: u64,
}

impl SiteSampler {
    /// Samples over the seven ACE-comparable structures (the AVF
    /// cross-validation campaign).
    ///
    /// # Panics
    ///
    /// Panics if the cycle window `[lo, hi)` is empty.
    #[must_use]
    pub fn ace(seed: u64, cycle_window: (u64, u64), core: &CoreConfig, mem: &MemConfig) -> Self {
        Self::with_targets(seed, cycle_window, &FaultTarget::ACE, core, mem)
    }

    /// Samples over every injectable target, metadata structures included.
    ///
    /// # Panics
    ///
    /// Panics if the cycle window `[lo, hi)` is empty.
    #[must_use]
    pub fn all(seed: u64, cycle_window: (u64, u64), core: &CoreConfig, mem: &MemConfig) -> Self {
        Self::with_targets(seed, cycle_window, &FaultTarget::ALL, core, mem)
    }

    /// Samples over an explicit target set.
    ///
    /// # Panics
    ///
    /// Panics if the cycle window is empty or every target has zero
    /// capacity.
    #[must_use]
    pub fn with_targets(
        seed: u64,
        (cycle_lo, cycle_hi): (u64, u64),
        targets: &[FaultTarget],
        core: &CoreConfig,
        mem: &MemConfig,
    ) -> Self {
        assert!(cycle_lo < cycle_hi, "empty strike window");
        let domain: Vec<(FaultTarget, u64, u64)> = targets
            .iter()
            .map(|&t| (t, t.entries(core, mem), t.capacity_bits(core, mem)))
            .filter(|&(_, _, cap)| cap > 0)
            .collect();
        let total_bits = domain.iter().map(|&(_, _, cap)| cap).sum();
        assert!(total_bits > 0, "no injectable capacity");
        SiteSampler {
            seed,
            cycle_lo,
            cycle_hi,
            domain,
            total_bits,
        }
    }

    /// The sampled targets and their entry counts.
    #[must_use]
    pub fn domain(&self) -> Vec<(FaultTarget, u64)> {
        self.domain.iter().map(|&(t, e, _)| (t, e)).collect()
    }
}

impl FaultInjector for SiteSampler {
    fn plan(&self, k: u64) -> PlannedFault {
        // Decorrelate k before seeding so consecutive sites share no
        // xorshift state; the whole site is then a pure function of
        // (seed, k).
        let mut rng =
            XorShift64Star::new(self.seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1));
        let cycle = self.cycle_lo + rng.below(self.cycle_hi - self.cycle_lo);
        let mut pick = rng.below(self.total_bits);
        let mut chosen = self.domain[0];
        for &(t, entries, cap) in &self.domain {
            if pick < cap {
                chosen = (t, entries, cap);
                break;
            }
            pick -= cap;
        }
        let (target, entries, _) = chosen;
        PlannedFault {
            cycle,
            target,
            entry: rng.below(entries),
            bit: rng.below(target.per_entry_bits()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampler() -> SiteSampler {
        SiteSampler::ace(
            42,
            (100, 10_000),
            &CoreConfig::baseline(),
            &MemConfig::baseline(),
        )
    }

    #[test]
    fn plan_is_pure_in_k() {
        let s = sampler();
        for k in [0u64, 1, 7, 1_000, u64::MAX / 2] {
            assert_eq!(s.plan(k), s.plan(k));
        }
        let again = sampler();
        assert_eq!(s.plan(123), again.plan(123));
    }

    #[test]
    fn sites_stay_in_domain() {
        let core = CoreConfig::baseline();
        let mem = MemConfig::baseline();
        let s = SiteSampler::all(7, (50, 500), &core, &mem);
        for k in 0..2_000 {
            let f = s.plan(k);
            assert!((50..500).contains(&f.cycle));
            assert!(f.entry < f.target.entries(&core, &mem));
            assert!(f.bit < f.target.per_entry_bits());
        }
    }

    #[test]
    fn sampling_density_tracks_capacity() {
        let core = CoreConfig::baseline();
        let mem = MemConfig::baseline();
        let s = SiteSampler::ace(99, (0, 1000), &core, &mem);
        let mut rob = 0u64;
        let mut fu = 0u64;
        let n = 20_000;
        for k in 0..n {
            match s.plan(k).target {
                FaultTarget::Rob => rob += 1,
                FaultTarget::Fu => fu += 1,
                _ => {}
            }
        }
        // ROB capacity (192*120 bits) dwarfs the FU latches (13*64).
        assert!(rob > fu * 5, "rob={rob} fu={fu}");
    }

    #[test]
    fn every_target_has_positive_capacity() {
        let core = CoreConfig::baseline();
        let mem = MemConfig::baseline();
        for t in FaultTarget::ALL {
            assert!(t.capacity_bits(&core, &mem) > 0, "{}", t.name());
            assert_eq!(FaultTarget::parse(t.name()), Some(t));
        }
    }
}
