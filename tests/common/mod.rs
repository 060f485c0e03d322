//! Helpers shared by the differential suites: seeded twin cores and one
//! comparable rendering of everything a run exposes.

use rar::core::{Core, CoreConfig, Technique};
use rar::isa::TraceWindow;
use rar::mem::MemConfig;
use rar::workloads::{SharedTraceIter, TracePrefix};
use rar_ace::{StallKind, Structure};
use std::sync::Arc;

pub type TestCore = Core<TraceWindow<SharedTraceIter>>;

#[derive(Debug, Clone)]
pub struct Cell {
    pub workload: &'static str,
    pub technique: Technique,
    pub core: CoreConfig,
    pub seed: u64,
    pub warmup: u64,
    pub instructions: u64,
    pub stalls: bool,
}

pub fn cell(workload: &'static str, technique: Technique) -> Cell {
    Cell {
        workload,
        technique,
        core: CoreConfig::baseline(),
        seed: 2,
        warmup: 400,
        instructions: 2_000,
        stalls: false,
    }
}

pub fn wrong_path() -> CoreConfig {
    CoreConfig {
        model_wrong_path: true,
        ..CoreConfig::baseline()
    }
}

/// Two identical cold cores for `c`: same trace, same dead-value
/// refinement.
pub fn twins(c: &Cell) -> (TestCore, TestCore) {
    let spec = rar::workloads::workload(c.workload).expect("known workload");
    let horizon = usize::try_from(c.warmup + c.instructions).expect("fits") + 4 * c.core.width;
    let prefix = Arc::new(TracePrefix::generate(&spec, c.seed, horizon));
    let refinement = rar_verify::analyze(prefix.uops());
    let build = || {
        let mut core = Core::new(
            c.core.clone(),
            MemConfig::baseline(),
            c.technique,
            TraceWindow::new(TracePrefix::resume(&prefix)),
        );
        core.set_ace_refinement(refinement.clone());
        if c.stalls {
            core.enable_stall_profiling();
        }
        core
    };
    (build(), build())
}

/// Everything a run exposes, in one comparable value.
pub fn observe(core: &TestCore) -> String {
    let ace = core.ace();
    let windows: Vec<_> = [StallKind::FullRobStall, StallKind::RobHeadBlocked]
        .into_iter()
        .map(|k| {
            (
                ace.abc_in_window(k),
                ace.window_cycles(k),
                ace.window_count(k),
            )
        })
        .collect();
    let dead: Vec<_> = Structure::ALL
        .into_iter()
        .map(|s| (ace.dead_abc(s), ace.bit_dead_abc(s)))
        .collect();
    format!(
        "now {}\nstats {:?}\nabc {:?}\ndead {dead:?}\nwindows {windows:?}\nmem {:?}\n\
         predictor {:?}\nsst {:?}\ndigest {:#x}\nfault {:?}\nsnapshot {:?}\nstalls {:?}",
        core.now(),
        core.stats(),
        ace.abc_by_structure(),
        core.mem_stats(),
        core.predictor_stats(),
        core.sst_stats(),
        core.commit_digest(),
        core.fault_report(),
        core.snapshot(),
        core.stall_profile(),
    )
}

/// The reference for `Core::run_until_committed`: one cycle at a time.
pub fn tick_until_committed(core: &mut TestCore, n: u64) {
    while core.stats().committed < n {
        core.cycle();
    }
}
