//! Differential suite: checkpointed fault-injection campaigns against the
//! from-scratch reference.
//!
//! `InjectionHarness::execute_stratified` builds a cold core and simulates
//! warm-up and the measured run with one fault armed; it is the reference.
//! The campaign entry points replay the golden run once, keep
//! `CHECKPOINTS` clones of its core and start each injection from the
//! latest clone before the strike, returning at the strike when it lands
//! vacant (`GoldenCheckpoints::execute_stratified`). Every fault here must
//! get the same outcome and the same bit-liveness prediction both ways:
//! sampled ACE, register-file and metadata (SST, L1-D tag, MSHR) sites,
//! targeted strikes that hang, strikes on and right after each checkpoint,
//! at and after the golden run's last cycle, and inside warm-up (no
//! checkpoint, so the reference runs). Whole campaigns must give the
//! reference's tallies and strata at 1 and 4 threads, and a cloned core
//! must finish exactly like the core it was cloned from.
//!
//! The matrix over every memory-intensive workload x {OoO, FLUSH, TR, PRE,
//! RAR} is ignored by default; run it with
//! `cargo test --test inject_checkpoints -- --ignored`.

mod common;

use common::{cell, observe, tick_until_committed, twins, wrong_path, Cell};
use rar::core::{CoreConfig, FaultInjector, FaultTarget, PlannedFault, SiteSampler, Technique};
use rar::sim::inject::{
    run_bitlive_validation, run_injection_campaign, InjectionHarness, CHECKPOINTS,
};
use rar::sim::SimConfig;
use rar_inject::{run_campaign, CampaignSpec, Outcome, StratifiedTally, Stratum};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

type Classified = (Outcome, Option<bool>);

/// The six default configurations: both cores on mcf and one of every
/// other runahead family member on a different workload.
const CELLS: [(&str, Technique); 6] = [
    ("mcf", Technique::Ooo),
    ("mcf", Technique::Rar),
    ("lbm", Technique::Pre),
    ("leela", Technique::Ooo),
    ("gcc", Technique::Flush),
    ("milc", Technique::Tr),
];

fn harness(workload: &str, technique: Technique) -> InjectionHarness {
    let cfg = SimConfig::builder()
        .workload(workload)
        .technique(technique)
        .warmup(300)
        .instructions(1_500)
        .build();
    InjectionHarness::prepare(&cfg).expect("valid configuration")
}

/// Runs one injection; a panic counts as a panic DUE, as in the campaign
/// runner.
fn guarded(run: impl FnOnce() -> Classified) -> Classified {
    catch_unwind(AssertUnwindSafe(run)).unwrap_or((Outcome::DuePanic, None))
}

/// The faults compared on one harness: `samples` draws from each of the
/// ACE, register-file and all-target samplers, then strikes at fixed
/// cycles.
fn faults(h: &InjectionHarness, checkpoints: &[u64], samples: u64) -> Vec<PlannedFault> {
    let cfg = h.config();
    let warmup_end = checkpoints[0];
    let end = warmup_end + h.measured_cycles();
    let all = SiteSampler::all(5, (warmup_end + 1, end + 1), &cfg.core, &cfg.mem);
    let (ace, rf) = (h.sampler(3), h.rf_sampler(4));
    let mut faults: Vec<_> = (0..samples)
        .flat_map(|k| [ace.plan(k), rf.plan(k), all.plan(k)])
        .collect();
    let strike = |cycle, target, entry, bit| PlannedFault {
        cycle,
        target,
        entry,
        bit,
    };
    // Lost valid bits, which wedge the core, and flipped completion times
    // of the head, which can push it past the hang budget.
    for i in 0..6 {
        let cycle = warmup_end + 1 + i * (end - warmup_end) / 6;
        faults.push(strike(cycle, FaultTarget::Iq, i, 0));
        faults.push(strike(cycle, FaultTarget::Rob, 0, 2 + i));
    }
    // On each checkpoint's cycle (the previous checkpoint applies) and
    // the next one (this one applies), at the golden run's last cycle,
    // after it (the strike never lands), and inside warm-up (no checkpoint
    // applies).
    let mut fixed: Vec<u64> = checkpoints.iter().flat_map(|&c| [c, c + 1]).collect();
    fixed.extend([end, end + 1, warmup_end / 2]);
    for cycle in fixed {
        faults.extend([
            strike(cycle, FaultTarget::Rob, 0, 7),
            strike(cycle, FaultTarget::Iq, 0, 0),
            strike(cycle, FaultTarget::RfInt, cycle % 64, cycle % 64),
        ]);
    }
    faults
}

/// Outcome counts of a comparison, to show the interesting paths ran.
#[derive(Debug, Default)]
struct Seen {
    vacant: u64,
    hang: u64,
    unvacant_completed: u64,
    predictions: u64,
    fallback: u64,
}

/// Compares every fault of `faults` on `h` both ways.
fn compare(h: &InjectionHarness, samples: u64, seen: &mut Seen) {
    let checkpoints = h.checkpoints();
    let cycles: Vec<u64> = checkpoints.cycles().collect();
    assert_eq!(cycles.len() as u64, CHECKPOINTS);
    assert!(cycles.windows(2).all(|w| w[0] <= w[1]), "{cycles:?}");
    let cfg = h.config();
    for fault in faults(h, &cycles, samples) {
        let reference = guarded(|| h.execute_stratified(&fault, None));
        let fast = guarded(|| checkpoints.execute_stratified(&fault, None));
        assert_eq!(
            fast, reference,
            "{fault:?} on {} {} (checkpoints at {cycles:?})",
            cfg.workload, cfg.technique
        );
        match fast.0 {
            Outcome::Vacant => seen.vacant += 1,
            Outcome::DueHang => seen.hang += 1,
            _ => seen.unvacant_completed += 1,
        }
        seen.predictions += u64::from(fast.1.is_some());
        seen.fallback += u64::from(fault.cycle <= cycles[0]);
    }
}

#[test]
fn every_injection_matches_the_reference() {
    let mut seen = Seen::default();
    for (workload, technique) in CELLS {
        compare(&harness(workload, technique), 6, &mut seen);
    }
    assert!(
        seen.vacant > 0
            && seen.hang > 0
            && seen.unvacant_completed > 0
            && seen.predictions > 0
            && seen.fallback > 0,
        "a path went unchecked: {seen:?}"
    );
}

#[test]
fn campaigns_match_the_reference_at_any_thread_count() {
    let spec = |threads| CampaignSpec {
        samples: 20,
        threads,
        ..CampaignSpec::default()
    };
    for (workload, technique) in [CELLS[0], CELLS[1]] {
        let h = harness(workload, technique);
        let reference = run_campaign(
            &spec(1),
            &h.sampler(11),
            |_k, fault| Ok(h.execute(fault, None)),
            None,
        )
        .expect("campaign");
        let strata = Mutex::new(StratifiedTally::new());
        let validation = run_campaign(
            &spec(1),
            &h.rf_sampler(12),
            |_k, fault| {
                let (outcome, predicted_dead) = h.execute_stratified(fault, None);
                strata
                    .lock()
                    .expect("strata lock")
                    .record(Stratum::from_prediction(predicted_dead), outcome);
                Ok(outcome)
            },
            None,
        )
        .expect("campaign");
        let strata = strata.into_inner().expect("strata lock");
        for threads in [1, 4] {
            let fast =
                run_injection_campaign(&h, &spec(threads), 11, None, None).expect("campaign");
            assert_eq!(fast.tally.to_json(), reference.tally.to_json());
            let fast =
                run_bitlive_validation(&h, &spec(threads), 12, None, None).expect("campaign");
            assert_eq!(fast.result.tally.to_json(), validation.tally.to_json());
            assert_eq!(fast.strata.to_json(), strata.to_json());
        }
    }
}

/// Clones the core of `c` at the warm-up boundary, on the first cycle in
/// runahead, on the first cycle that flushed and at the measured run's
/// midpoint, then finishes the original and every clone one cycle at a
/// time: each clone must end in the original's state. Returns the labels
/// of the clones taken.
fn clone_twins(c: &Cell) -> Vec<&'static str> {
    let (mut core, _) = twins(c);
    core.enable_ace_logging();
    tick_until_committed(&mut core, c.warmup);
    core.reset_measurement();
    let mut clones = vec![("warm-up boundary", core.clone())];
    while core.stats().committed < c.instructions {
        let flushes = core.stats().flushes;
        core.cycle();
        let label = if core.snapshot().in_runahead {
            "runahead"
        } else if core.stats().flushes > flushes {
            "flush"
        } else if core.stats().committed >= c.instructions / 2 {
            "midpoint"
        } else {
            continue;
        };
        if clones.iter().all(|(l, _)| *l != label) {
            clones.push((label, core.clone()));
        }
    }
    let expected = observe(&core);
    for (label, twin) in &mut clones {
        tick_until_committed(twin, c.instructions);
        assert_eq!(observe(twin), expected, "clone at the {label} of {c:?}");
        assert_eq!(twin.ace().interval_log(), core.ace().interval_log());
    }
    clones.into_iter().map(|(l, _)| l).collect()
}

#[test]
fn a_cloned_core_finishes_like_the_original() {
    for (technique, core, want) in [
        (
            Technique::Rar,
            CoreConfig::baseline(),
            &["runahead", "flush"][..],
        ),
        (Technique::Flush, CoreConfig::baseline(), &["flush"][..]),
        (Technique::Tr, wrong_path(), &["runahead", "flush"][..]),
    ] {
        let c = Cell {
            core,
            stalls: true,
            ..cell("mcf", technique)
        };
        let labels = clone_twins(&c);
        for label in ["warm-up boundary", "midpoint"].iter().chain(want) {
            assert!(labels.contains(label), "no {label} clone on {c:?}");
        }
    }
}

#[test]
#[ignore = "memory-intensive matrix; run with --ignored"]
fn memory_intensive_matrix_matches_the_reference() {
    let mut seen = Seen::default();
    for &workload in rar::workloads::memory_intensive() {
        for technique in [
            Technique::Ooo,
            Technique::Flush,
            Technique::Tr,
            Technique::Pre,
            Technique::Rar,
        ] {
            compare(&harness(workload, technique), 20, &mut seen);
        }
    }
    assert!(seen.hang > 0 && seen.predictions > 0, "{seen:?}");
}
