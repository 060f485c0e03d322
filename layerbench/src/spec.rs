//! What the benchmark measures: the workloads, the end-to-end metrics
//! with their regression bounds, and the per-layer metrics with the
//! end-to-end metric each should move. `BENCHMARK.json` is rendered from
//! these tables ([`benchmark_json`]), so the two cannot drift apart.

use crate::json;

/// Seconds one run measures by default (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// The benchmark's workloads, in suite order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Memory-bound cells one at a time.
    LongMemory,
    /// Compute-bound cells one at a time.
    LongCompute,
    /// The Fig. 1 grid through a fresh, cold sweep session.
    Fig1Cold,
    /// The Fig. 1 grid replayed from a warm disk cache.
    Fig1Warm,
    /// Fault-injection campaigns.
    Inject,
    /// A closed loop of clients against the campaign daemon.
    Serve,
}

impl Workload {
    /// Every workload, in suite order.
    pub const ALL: [Workload; 6] = [
        Workload::LongMemory,
        Workload::LongCompute,
        Workload::Fig1Cold,
        Workload::Fig1Warm,
        Workload::Inject,
        Workload::Serve,
    ];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::LongMemory => "long_memory",
            Workload::LongCompute => "long_compute",
            Workload::Fig1Cold => "fig1_cold",
            Workload::Fig1Warm => "fig1_warm",
            Workload::Inject => "inject",
            Workload::Serve => "serve",
        }
    }

    /// Why the workload is in the benchmark (one line).
    #[must_use]
    pub fn why(self) -> &'static str {
        match self {
            Workload::LongMemory => {
                "mcf/lbm/milc/gcc x OoO/RAR x 8 seeds, one cell at a time: cycle-loop cost where \
                 OoO cycles are mostly idle, so event-driven fast-forward must show here"
            }
            Workload::LongCompute => {
                "povray/x264/leela/imagick x OoO/RAR x 8 seeds: busy cycles, so per-cycle and \
                 front-end cost show and fast-forward should change nothing"
            }
            Workload::Fig1Cold => {
                "the 75-cell Fig. 1 grid through a fresh 2-thread sweep session: work \
                 stealing, trace memoization and disk-cache writes"
            }
            Workload::Fig1Warm => {
                "the Fig. 1 grid replayed from a disk cache filled in setup, one fresh \
                 session per replay: cache probes and decoding, no simulation"
            }
            Workload::Inject => {
                "mcf fault-injection campaigns under OoO and RAR x 8 seeds, one thread: many \
                 short fault-armed runs that rebuild a core and replay warm-up"
            }
            Workload::Serve => {
                "2 closed-loop clients submit 4-cell sweep jobs to an in-process daemon: \
                 HTTP, journal fsync, queue wait and workers"
            }
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// How much worse `new` is than `old`, as a share of `old`
    /// (negative when it is better).
    #[must_use]
    pub fn worsening(self, old: f64, new: f64) -> f64 {
        if old == 0.0 {
            return 0.0;
        }
        match self {
            Better::Higher => (old - new) / old.abs(),
            Better::Lower => (new - old) / old.abs(),
        }
    }
}

/// One end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed and stored.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    /// Absolute change (in `unit`) below which `compare` never calls a
    /// pair worse or better, for metrics whose values are so small that
    /// a relative bound alone reads timer noise.
    pub floor: f64,
}

/// The end-to-end metrics, measured with tracing off on every workload
/// (defined in the README). One bound per metric covers every workload,
/// so it must hold for the noisiest. On a shared 2-vCPU Intel Xeon VM,
/// where the same cell runs 1.7 times slower for stretches of seconds to
/// minutes, batches of ten 15 s runs spread (quartile distance over
/// median) by 1-18% for the timing metrics and 1-12% for peak memory,
/// depending on the workload and on the host during the batch; a bound
/// at least three times that is 0.25. `setup_s`, a few milliseconds on
/// most workloads, also has a 5 ms floor.
pub const END_TO_END: [Metric; 5] = [
    Metric {
        name: "sim_kips",
        unit: "kinst/s",
        better: Better::Higher,
        bound: 0.25,
        floor: 0.0,
    },
    Metric {
        name: "runs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        floor: 0.0,
    },
    Metric {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
    },
    Metric {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
    },
    Metric {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.005,
    },
];

/// One per-layer metric from the traced run.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// Name as printed and stored (`<layer>.<what>`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// The crate whose work it measures.
    pub layer: &'static str,
    /// The end-to-end metric (and workload) it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

use Better::{Higher, Lower};

/// The per-layer metrics every traced run reports. Host times in this
/// list are measured on every workload (over the workload's own cells),
/// so none reads as a constant zero; metrics of the inject and serve
/// layers alone are counts or shares here, and their host times are in
/// `layers.json`.
pub const PER_LAYER: [LayerMetric; 31] = [
    layer(
        "workloads.trace_gen_s",
        "s",
        Lower,
        "rar-workloads",
        "runs_per_s/fig1_cold, sim_kips/long_compute",
    ),
    layer(
        "workloads.uops_generated",
        "count",
        Lower,
        "rar-workloads",
        "runs_per_s/fig1_cold",
    ),
    layer(
        "verify.analyze_s",
        "s",
        Lower,
        "rar-verify",
        "sim_kips/long_compute, setup_s/inject",
    ),
    layer(
        "verify.uops_analyzed",
        "count",
        Lower,
        "rar-verify",
        "sim_kips/long_compute",
    ),
    layer(
        "core.cycle_s",
        "s",
        Lower,
        "rar-core",
        "sim_kips/long_memory, sim_kips/long_compute, runs_per_s/inject",
    ),
    layer(
        "core.cycles",
        "count",
        Lower,
        "rar-core",
        "sim_kips/long_memory",
    ),
    layer(
        "core.ns_per_cycle.ooo",
        "ns",
        Lower,
        "rar-core",
        "sim_kips/long_memory",
    ),
    layer(
        "core.ns_per_cycle.rar",
        "ns",
        Lower,
        "rar-core",
        "sim_kips/long_compute",
    ),
    layer(
        "core.quiescent_frac.ooo",
        "frac",
        Lower,
        "rar-core",
        "sim_kips/long_memory",
    ),
    layer(
        "core.quiescent_frac.rar",
        "frac",
        Lower,
        "rar-core",
        "sim_kips/long_memory",
    ),
    layer(
        "core.runahead_cycles",
        "count",
        Lower,
        "rar-core",
        "sim_kips/long_memory",
    ),
    layer(
        "frontend.predictions",
        "count",
        Lower,
        "rar-frontend",
        "sim_kips/long_compute",
    ),
    layer(
        "frontend.mispredictions",
        "count",
        Lower,
        "rar-frontend",
        "sim_kips/long_compute",
    ),
    layer(
        "frontend.replay_ns_per_branch",
        "ns",
        Lower,
        "rar-frontend",
        "sim_kips/long_compute",
    ),
    layer(
        "mem.data_accesses",
        "count",
        Lower,
        "rar-mem",
        "sim_kips/long_memory",
    ),
    layer(
        "mem.llc_misses",
        "count",
        Lower,
        "rar-mem",
        "sim_kips/long_memory",
    ),
    layer(
        "mem.mshr_stalls",
        "count",
        Lower,
        "rar-mem",
        "sim_kips/long_memory",
    ),
    layer(
        "mem.replay_ns_per_access",
        "ns",
        Lower,
        "rar-mem",
        "sim_kips/long_memory",
    ),
    layer(
        "sim.cells_simulated",
        "count",
        Lower,
        "rar-sim",
        "runs_per_s/fig1_cold",
    ),
    layer(
        "sim.cache_hits",
        "count",
        Higher,
        "rar-sim",
        "runs_per_s/fig1_warm",
    ),
    layer(
        "sim.trace_memo_misses",
        "count",
        Lower,
        "rar-sim",
        "runs_per_s/fig1_cold",
    ),
    layer(
        "sim.cache_load_us_p50",
        "us",
        Lower,
        "rar-sim",
        "runs_per_s/fig1_warm",
    ),
    layer(
        "sim.cache_store_us_p50",
        "us",
        Lower,
        "rar-sim",
        "runs_per_s/fig1_cold, latency_p50_ms/serve",
    ),
    layer(
        "sim.worker_busy_frac",
        "frac",
        Higher,
        "rar-sim",
        "runs_per_s/fig1_cold",
    ),
    layer(
        "inject.injections",
        "count",
        Higher,
        "rar-inject",
        "runs_per_s/inject",
    ),
    layer(
        "inject.sdc",
        "count",
        Lower,
        "rar-inject",
        "runs_per_s/inject",
    ),
    layer(
        "inject.due_hang",
        "count",
        Lower,
        "rar-inject",
        "runs_per_s/inject",
    ),
    layer(
        "serve.http_requests",
        "count",
        Lower,
        "rar-serve",
        "latency_p50_ms/serve",
    ),
    layer(
        "serve.rejected",
        "count",
        Lower,
        "rar-serve",
        "latency_p50_ms/serve",
    ),
    layer(
        "serve.queue_wait_frac",
        "frac",
        Lower,
        "rar-serve",
        "latency_p50_ms/serve",
    ),
    layer(
        "bench.trace_overhead_frac",
        "frac",
        Lower,
        "rar-layerbench",
        "none: the traced run's own cost",
    ),
];

/// The end-to-end metric named `name`.
#[must_use]
pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The `BENCHMARK.json` document for this benchmark.
#[must_use]
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let workloads = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                json::string(w.name()),
                json::string(w.why())
            )
        })
        .collect();
    let e2e = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json::string(m.name),
                json::string(m.unit),
                json::string(m.better.name()),
                json::number(m.bound)
            )
        })
        .collect();
    let layers = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json::string(m.name),
                json::string(m.unit),
                json::string(m.better.name())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"layerbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"layerbench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        list(workloads),
        list(e2e),
        list(layers)
    )
}
