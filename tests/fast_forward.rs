//! Differential suite: the run loops' idle-cycle fast-forward against the
//! `Core::cycle` reference.
//!
//! `Core::run_until_committed` and `Core::run_budgeted` jump over cycles in
//! which no pipeline stage can act and credit each skipped cycle's tallies
//! in bulk; `Core::cycle` always advances exactly one cycle. Each cell here
//! builds two identical cores, drives one through the run loops and the
//! other one cycle at a time, and requires every observable to match:
//! the clock, `CoreStats`, ACE bit-cycles per structure (unrefined, refined
//! and bit-refined), stall-window ABC, memory and predictor statistics,
//! the stalling-slice table, the commit digest, the pipeline snapshot and,
//! with profiling on, the stall profile. Fault-armed budgeted runs must
//! also agree on the verdict and the fault report, including strikes that
//! wedge the core until the budget runs out.
//!
//! The default tests cover every extended technique on three workloads,
//! every workload under OoO and RAR, wrong-path modelling and the M1-class
//! core at small budgets. The full matrix (every workload x every extended
//! technique x {baseline, wrong-path, M1}) is ignored by default; run it
//! with `cargo test --test fast_forward -- --ignored`.

use rar::core::{
    Core, CoreConfig, FaultInjector, FaultTarget, PlannedFault, RunVerdict, SiteSampler, Technique,
};
use rar::isa::TraceWindow;
use rar::mem::MemConfig;
use rar::workloads::{SharedTraceIter, TracePrefix};
use rar_ace::{StallKind, Structure};
use std::sync::Arc;

type TestCore = Core<TraceWindow<SharedTraceIter>>;

#[derive(Debug, Clone)]
struct Cell {
    workload: &'static str,
    technique: Technique,
    core: CoreConfig,
    seed: u64,
    warmup: u64,
    instructions: u64,
    stalls: bool,
}

fn cell(workload: &'static str, technique: Technique) -> Cell {
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

fn wrong_path() -> CoreConfig {
    CoreConfig {
        model_wrong_path: true,
        ..CoreConfig::baseline()
    }
}

/// Two identical cold cores for `c`: same trace, same dead-value
/// refinement.
fn twins(c: &Cell) -> (TestCore, TestCore) {
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
fn observe(core: &TestCore) -> String {
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
fn tick_until_committed(core: &mut TestCore, n: u64) {
    while core.stats().committed < n {
        core.cycle();
    }
}

/// The reference for `Core::run_budgeted` without a deadline.
fn tick_budgeted(core: &mut TestCore, n: u64, max_cycles: u64) -> RunVerdict {
    let start = core.stats().cycles;
    while core.stats().committed < n {
        core.cycle();
        if core.stats().cycles - start >= max_cycles {
            return RunVerdict::CycleBudget;
        }
    }
    RunVerdict::Completed
}

/// Runs `c` both ways and panics on the first difference.
fn check(c: &Cell) {
    let (mut fast, mut reference) = twins(c);
    fast.run_until_committed(c.warmup);
    tick_until_committed(&mut reference, c.warmup);
    assert_eq!(observe(&fast), observe(&reference), "warm-up of {c:?}");
    fast.reset_measurement();
    reference.reset_measurement();
    fast.run_until_committed(c.instructions);
    tick_until_committed(&mut reference, c.instructions);
    assert_eq!(observe(&fast), observe(&reference), "{c:?}");
}

/// Runs `c` with `fault` armed through the injection harness's budgeted
/// flow (warm-up, reset, measured run under one budget), both ways.
/// Returns the fast run's verdict.
fn check_fault(c: &Cell, fault: PlannedFault, budget: u64) -> RunVerdict {
    let (mut fast, mut reference) = twins(c);
    fast.arm_fault(fault);
    reference.arm_fault(fault);
    let mut verdicts = Vec::new();
    for (core, budgeted) in [(&mut fast, true), (&mut reference, false)] {
        let run = |core: &mut TestCore, n: u64, max: u64| {
            if budgeted {
                core.run_budgeted(n, max, None)
            } else {
                tick_budgeted(core, n, max)
            }
        };
        let mut verdict = run(core, c.warmup, budget);
        if verdict == RunVerdict::Completed {
            core.reset_measurement();
            let remaining = budget.saturating_sub(core.now()).max(1);
            verdict = run(core, c.instructions, remaining);
        }
        verdicts.push(verdict);
    }
    assert_eq!(verdicts[0], verdicts[1], "{fault:?} on {c:?}");
    assert_eq!(observe(&fast), observe(&reference), "{fault:?} on {c:?}");
    verdicts[0]
}

#[test]
fn every_extended_technique_matches_the_reference_with_profiling() {
    for workload in ["mcf", "lbm", "leela"] {
        for technique in Technique::EXTENDED {
            check(&Cell {
                stalls: true,
                ..cell(workload, technique)
            });
        }
    }
}

#[test]
fn every_workload_matches_the_reference_under_ooo_and_rar() {
    for workload in rar::workloads::all_benchmarks() {
        for technique in [Technique::Ooo, Technique::Rar] {
            check(&Cell {
                instructions: 1_000,
                ..cell(workload, technique)
            });
        }
    }
}

#[test]
fn wrong_path_and_m1_cells_match_the_reference() {
    check(&Cell {
        core: wrong_path(),
        stalls: true,
        ..cell("mcf", Technique::Rar)
    });
    check(&Cell {
        core: CoreConfig::core5_m1(),
        ..cell("mcf", Technique::Rar)
    });
}

#[test]
fn a_wedge_reaches_the_same_panic_cycle() {
    // An IQ lost-valid-bit strike on the oldest resident wedges the OoO
    // core; the wedge guard must fire on the cycle ticking reaches.
    let c = Cell {
        instructions: 1_000,
        ..cell("mcf", Technique::Ooo)
    };
    let fault = PlannedFault {
        cycle: 200,
        target: FaultTarget::Iq,
        entry: 0,
        bit: 0,
    };
    let messages: Vec<String> = [true, false]
        .into_iter()
        .map(|fast| {
            let (mut core, _) = twins(&c);
            core.arm_fault(fault);
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if fast {
                    core.run_until_committed(c.instructions);
                } else {
                    // The same guard `run_until_committed` applies.
                    let limit = core.now() + (c.instructions * 1_000).max(1_000_000);
                    while core.stats().committed < c.instructions {
                        core.cycle();
                        assert!(
                            core.now() < limit,
                            "simulation wedged: {} committed of {} after {} cycles",
                            core.stats().committed,
                            c.instructions,
                            core.now()
                        );
                    }
                }
            }))
            .expect_err("the strike wedges the core");
            panic
                .downcast_ref::<String>()
                .cloned()
                .expect("formatted panic message")
        })
        .collect();
    assert_eq!(messages[0], messages[1]);
    assert!(
        messages[0].contains("after 1000000 cycles"),
        "{}",
        messages[0]
    );
}

#[test]
fn fault_armed_budgeted_runs_match_the_reference() {
    let mut wedged = 0;
    for technique in [Technique::Ooo, Technique::Rar] {
        let c = Cell {
            instructions: 1_000,
            ..cell("mcf", technique)
        };
        // The golden run's length sets the strike window and the hang
        // budget, as in the injection harness.
        let (mut golden, _) = twins(&c);
        golden.run_until_committed(c.warmup);
        golden.reset_measurement();
        let warmup_end = golden.now();
        golden.run_until_committed(c.instructions);
        let end = golden.now();
        let budget = end * 4 + 10_000;
        let sampler = SiteSampler::all(
            7,
            (warmup_end + 1, end + 1),
            &c.core,
            &MemConfig::baseline(),
        );
        let strike = |i: u64, target, entry, bit| PlannedFault {
            cycle: warmup_end + 1 + i * (end - warmup_end) / 6,
            target,
            entry,
            bit,
        };
        // Lost valid bits, which wedge the core, and flipped completion
        // times of the head, whose effect depends on the exact strike cycle.
        let targeted = (0..6).flat_map(|i| {
            [
                strike(i, FaultTarget::Iq, i, 0),
                strike(i, FaultTarget::Rob, 0, 2 + i),
            ]
        });
        for fault in (0..24).map(|k| sampler.plan(k)).chain(targeted) {
            if check_fault(&c, fault, budget) == RunVerdict::CycleBudget {
                wedged += 1;
            }
        }
    }
    assert!(
        wedged > 0,
        "no strike wedged the core; the hang path went unchecked"
    );
}

#[test]
#[ignore = "full matrix; run with --ignored"]
fn full_matrix_matches_the_reference() {
    for workload in rar::workloads::all_benchmarks() {
        for technique in Technique::EXTENDED {
            for core in [CoreConfig::baseline(), wrong_path(), CoreConfig::core5_m1()] {
                check(&Cell {
                    core,
                    stalls: true,
                    ..cell(workload, technique)
                });
            }
        }
    }
}
