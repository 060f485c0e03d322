//! Core configuration (Tables I and II of the paper).

use rar_ace::{EntryBits, StructureCapacities};
use rar_isa::UopKind;
use rar_verify::ConfigError;

/// Functional-unit pool (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuConfig {
    /// Integer adders (also execute branches and address generation).
    pub int_add: usize,
    /// Integer multipliers.
    pub int_mul: usize,
    /// Integer dividers (unpipelined).
    pub int_div: usize,
    /// Floating-point adders.
    pub fp_add: usize,
    /// Floating-point multipliers.
    pub fp_mul: usize,
    /// Floating-point dividers (unpipelined).
    pub fp_div: usize,
    /// Load/store ports (cache access issue bandwidth).
    pub mem_ports: usize,
}

impl FuConfig {
    /// The paper's Table II pool.
    #[must_use]
    pub const fn baseline() -> Self {
        FuConfig {
            int_add: 3,
            int_mul: 1,
            int_div: 1,
            fp_add: 1,
            fp_mul: 1,
            fp_div: 1,
            mem_ports: 2,
        }
    }

    /// Total integer-width units (for ACE capacity).
    #[must_use]
    pub const fn int_units(&self) -> usize {
        self.int_add + self.int_mul + self.int_div
    }

    /// Total floating-point-width units (for ACE capacity).
    #[must_use]
    pub const fn fp_units(&self) -> usize {
        self.fp_add + self.fp_mul + self.fp_div
    }
}

/// Execution latency in cycles of each micro-op kind (Table II).
#[must_use]
pub const fn exec_latency(kind: UopKind) -> u64 {
    match kind {
        UopKind::IntAlu | UopKind::Nop => 1,
        UopKind::IntMul => 3,
        UopKind::IntDiv => 18,
        UopKind::FpAdd => 3,
        UopKind::FpMul => 5,
        UopKind::FpDiv => 6,
        // Address generation; cache latency is added by the hierarchy.
        UopKind::Load | UopKind::Store => 1,
        UopKind::Branch => 1,
    }
}

/// Out-of-order core parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Reorder-buffer entries.
    pub rob_size: usize,
    /// Issue-queue entries.
    pub iq_size: usize,
    /// Load-queue entries.
    pub lq_size: usize,
    /// Store-queue entries.
    pub sq_size: usize,
    /// Integer physical registers.
    pub int_regs: usize,
    /// Floating-point physical registers.
    pub fp_regs: usize,
    /// Pipeline width (fetch/dispatch/issue/commit per cycle).
    pub width: usize,
    /// Front-end depth in stages: the redirect/refill penalty.
    pub frontend_depth: u64,
    /// Functional units.
    pub fu: FuConfig,
    /// Stalling-slice-table entries (PRE).
    pub sst_size: usize,
    /// Precise-register-deallocation-queue entries (PRE).
    pub prdq_size: usize,
    /// RAR's 4-bit countdown threshold: a load resident at the ROB head
    /// for this many cycles is assumed to be an LLC miss.
    pub runahead_timer: u64,
    /// TR's filter: only trigger runahead for loads issued to memory less
    /// than this many cycles before the full-window stall.
    pub tr_trigger_window: u64,
    /// Minimum remaining miss latency for entering runahead at all.
    pub min_runahead_benefit: u64,
    /// Maximum micro-ops the runahead engine may run ahead of dispatch.
    pub max_runahead_depth: u64,
    /// Dispatch-throttling occupancy bound (fraction of the ROB) for the
    /// THROTTLE extension baseline.
    pub throttle_occupancy_bound: f64,
    /// Dispatch width while over the bound (0 = stall dispatch).
    pub throttle_width: usize,
    /// Model wrong-path execution: dispatch synthetic micro-ops past a
    /// mispredicted branch until it resolves (they contend for back-end
    /// resources and pollute caches, then are squashed). Off by default —
    /// the paper-calibrated numbers treat wrong-path fetch as bubbles.
    pub model_wrong_path: bool,
}

impl CoreConfig {
    /// The baseline core of Table II (Core-2-like; ROB 192, IQ 92).
    #[must_use]
    pub fn baseline() -> Self {
        CoreConfig {
            rob_size: 192,
            iq_size: 92,
            lq_size: 64,
            sq_size: 64,
            int_regs: 168,
            fp_regs: 168,
            width: 4,
            frontend_depth: 8,
            fu: FuConfig::baseline(),
            sst_size: 128,
            prdq_size: 192,
            runahead_timer: 15,
            tr_trigger_window: 250,
            min_runahead_benefit: 30,
            max_runahead_depth: 2048,
            throttle_occupancy_bound: 0.75,
            throttle_width: 0,
            model_wrong_path: false,
        }
    }

    /// Table I Core-1 (Nehalem-like, 128-entry ROB).
    #[must_use]
    pub fn core1() -> Self {
        CoreConfig {
            rob_size: 128,
            iq_size: 36,
            lq_size: 48,
            sq_size: 32,
            int_regs: 120,
            fp_regs: 120,
            ..CoreConfig::baseline()
        }
    }

    /// Table I Core-2 (Haswell-like, 192-entry ROB) — the baseline.
    #[must_use]
    pub fn core2() -> Self {
        CoreConfig {
            rob_size: 192,
            iq_size: 92,
            lq_size: 64,
            sq_size: 64,
            int_regs: 168,
            fp_regs: 168,
            ..CoreConfig::baseline()
        }
    }

    /// Table I Core-3 (Skylake-like, 224-entry ROB).
    #[must_use]
    pub fn core3() -> Self {
        CoreConfig {
            rob_size: 224,
            iq_size: 97,
            lq_size: 64,
            sq_size: 60,
            int_regs: 180,
            fp_regs: 180,
            ..CoreConfig::baseline()
        }
    }

    /// Table I Core-4 (Ice-Lake-like, 352-entry ROB).
    #[must_use]
    pub fn core4() -> Self {
        CoreConfig {
            rob_size: 352,
            iq_size: 128,
            lq_size: 128,
            sq_size: 72,
            int_regs: 256,
            fp_regs: 256,
            ..CoreConfig::baseline()
        }
    }

    /// All four Table I configurations, smallest first.
    #[must_use]
    pub fn table_i() -> [CoreConfig; 4] {
        [
            CoreConfig::core1(),
            CoreConfig::core2(),
            CoreConfig::core3(),
            CoreConfig::core4(),
        ]
    }

    /// An extension beyond Table I: an Apple-M1-class core with the
    /// 600-entry ROB the paper's Section II-B cites as the scaling
    /// endpoint ("Apple's recently released M1 core features a huge
    /// 600-entry ROB"). Back-end structures scaled proportionally.
    #[must_use]
    pub fn core5_m1() -> Self {
        CoreConfig {
            rob_size: 600,
            iq_size: 160,
            lq_size: 192,
            sq_size: 128,
            int_regs: 384,
            fp_regs: 384,
            width: 8,
            ..CoreConfig::baseline()
        }
    }

    /// Structure bit capacities for ACE metrics (`N` in Equation 2).
    #[must_use]
    pub fn capacities(&self) -> StructureCapacities {
        StructureCapacities::from_entries(
            &EntryBits::table_iii(),
            self.rob_size as u64,
            self.iq_size as u64,
            self.lq_size as u64,
            self.sq_size as u64,
            self.int_regs as u64,
            self.fp_regs as u64,
            self.fu.int_units() as u64,
            self.fu.fp_units() as u64,
        )
    }

    /// Sanity checks on the configuration.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ConfigError`] naming the first violated
    /// constraint, so sweep drivers can reject a bad configuration before
    /// spending cycles on it.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (field, value) in [
            ("rob_size", self.rob_size),
            ("iq_size", self.iq_size),
            ("lq_size", self.lq_size),
            ("sq_size", self.sq_size),
        ] {
            if value == 0 {
                return Err(ConfigError::core(field, "queue size must be nonzero"));
            }
        }
        if self.width == 0 {
            return Err(ConfigError::core("width", "pipeline width must be nonzero"));
        }
        for (field, count) in [
            ("fu.int_add", self.fu.int_add),
            ("fu.int_mul", self.fu.int_mul),
            ("fu.int_div", self.fu.int_div),
            ("fu.fp_add", self.fu.fp_add),
            ("fu.fp_mul", self.fu.fp_mul),
            ("fu.fp_div", self.fu.fp_div),
            ("fu.mem_ports", self.fu.mem_ports),
        ] {
            if count == 0 {
                return Err(ConfigError::core(
                    field,
                    "needs at least one unit, or micro-ops of its kind never issue",
                ));
            }
        }
        if self.sst_size == 0 {
            return Err(ConfigError::core(
                "sst_size",
                "the stalling slice table needs at least one entry",
            ));
        }
        if self.int_regs < 32 + self.width {
            return Err(ConfigError::core(
                "int_regs",
                format!(
                    "{} integer physical registers cannot cover 32 architectural \
                     plus {} rename slots",
                    self.int_regs, self.width
                ),
            ));
        }
        if self.fp_regs < 32 + self.width {
            return Err(ConfigError::core(
                "fp_regs",
                format!(
                    "{} floating-point physical registers cannot cover 32 \
                     architectural plus {} rename slots",
                    self.fp_regs, self.width
                ),
            ));
        }
        if !self.throttle_occupancy_bound.is_finite()
            || !(0.0..=1.0).contains(&self.throttle_occupancy_bound)
        {
            return Err(ConfigError::core(
                "throttle_occupancy_bound",
                format!(
                    "must be a fraction of the ROB in [0, 1], got {}",
                    self.throttle_occupancy_bound
                ),
            ));
        }
        if self.throttle_width > self.width {
            return Err(ConfigError::core(
                "throttle_width",
                format!(
                    "throttled dispatch width {} exceeds pipeline width {}",
                    self.throttle_width, self.width
                ),
            ));
        }
        Ok(())
    }

    /// Appends this configuration's canonical key=value form to `out`:
    /// one line per field, in declaration order, independent of how the
    /// value was constructed. Floats are rendered as IEEE-754 bit
    /// patterns so the form is exact. `SimConfig::fingerprint` in
    /// `rar-sim` hashes this text; extending the struct *must* extend
    /// this list (append-only), which changes existing fingerprints and
    /// thereby invalidates stale cache entries — exactly the safe
    /// failure mode.
    pub fn write_canonical(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "core.rob_size={}\ncore.iq_size={}\ncore.lq_size={}\ncore.sq_size={}\n\
             core.int_regs={}\ncore.fp_regs={}\ncore.width={}\ncore.frontend_depth={}\n",
            self.rob_size,
            self.iq_size,
            self.lq_size,
            self.sq_size,
            self.int_regs,
            self.fp_regs,
            self.width,
            self.frontend_depth,
        );
        let _ = write!(
            out,
            "core.fu.int_add={}\ncore.fu.int_mul={}\ncore.fu.int_div={}\ncore.fu.fp_add={}\n\
             core.fu.fp_mul={}\ncore.fu.fp_div={}\ncore.fu.mem_ports={}\n",
            self.fu.int_add,
            self.fu.int_mul,
            self.fu.int_div,
            self.fu.fp_add,
            self.fu.fp_mul,
            self.fu.fp_div,
            self.fu.mem_ports,
        );
        let _ = write!(
            out,
            "core.sst_size={}\ncore.prdq_size={}\ncore.runahead_timer={}\n\
             core.tr_trigger_window={}\ncore.min_runahead_benefit={}\ncore.max_runahead_depth={}\n\
             core.throttle_occupancy_bound={:#018x}\ncore.throttle_width={}\n\
             core.model_wrong_path={}\n",
            self.sst_size,
            self.prdq_size,
            self.runahead_timer,
            self.tr_trigger_window,
            self.min_runahead_benefit,
            self.max_runahead_depth,
            self.throttle_occupancy_bound.to_bits(),
            self.throttle_width,
            self.model_wrong_path,
        );
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table2() {
        let c = CoreConfig::baseline();
        assert_eq!(c.rob_size, 192);
        assert_eq!(c.iq_size, 92);
        assert_eq!(c.lq_size, 64);
        assert_eq!(c.sq_size, 64);
        assert_eq!(c.int_regs, 168);
        assert_eq!(c.width, 4);
        assert_eq!(c.fu.int_add, 3);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn table_i_sizes() {
        let [c1, c2, c3, c4] = CoreConfig::table_i();
        assert_eq!(
            [c1.rob_size, c2.rob_size, c3.rob_size, c4.rob_size],
            [128, 192, 224, 352]
        );
        assert_eq!(
            [c1.iq_size, c2.iq_size, c3.iq_size, c4.iq_size],
            [36, 92, 97, 128]
        );
        for c in CoreConfig::table_i() {
            assert_eq!(c.validate(), Ok(()));
        }
    }

    #[test]
    fn m1_class_core_is_largest() {
        let m1 = CoreConfig::core5_m1();
        assert_eq!(m1.rob_size, 600);
        assert_eq!(m1.validate(), Ok(()));
        assert!(m1.capacities().total_bits() > CoreConfig::core4().capacities().total_bits());
    }

    #[test]
    fn capacities_grow_with_config() {
        let caps: Vec<u64> = CoreConfig::table_i()
            .iter()
            .map(|c| c.capacities().total_bits())
            .collect();
        assert!(caps.windows(2).all(|w| w[0] < w[1]), "{caps:?}");
    }

    #[test]
    fn latencies_match_table2() {
        assert_eq!(exec_latency(UopKind::IntAlu), 1);
        assert_eq!(exec_latency(UopKind::IntMul), 3);
        assert_eq!(exec_latency(UopKind::IntDiv), 18);
        assert_eq!(exec_latency(UopKind::FpAdd), 3);
        assert_eq!(exec_latency(UopKind::FpMul), 5);
        assert_eq!(exec_latency(UopKind::FpDiv), 6);
    }

    #[test]
    fn validate_catches_degenerate() {
        let mut c = CoreConfig::baseline();
        c.int_regs = 16;
        assert_eq!(c.validate().unwrap_err().field(), "int_regs");
        let mut c = CoreConfig::baseline();
        c.rob_size = 0;
        assert_eq!(c.validate().unwrap_err().field(), "rob_size");
        let mut c = CoreConfig::baseline();
        c.throttle_occupancy_bound = 1.5;
        assert_eq!(
            c.validate().unwrap_err().field(),
            "throttle_occupancy_bound"
        );
        let mut c = CoreConfig::baseline();
        c.throttle_width = c.width + 1;
        assert_eq!(c.validate().unwrap_err().field(), "throttle_width");
        let mut c = CoreConfig::baseline();
        c.sst_size = 0;
        assert_eq!(c.validate().unwrap_err().field(), "sst_size");
        let mut c = CoreConfig::baseline();
        c.fu.fp_div = 0;
        assert_eq!(c.validate().unwrap_err().field(), "fu.fp_div");
    }
}
