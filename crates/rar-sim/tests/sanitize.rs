//! Sanitizer sweep: every bundled workload model must complete a
//! sanitize-enabled run with zero invariant violations.
//!
//! Compiled only with `--features sanitize`; the default build skips it
//! (the checks live behind `rar-core/sanitize` and a violation panics
//! inside `Core::cycle`, so "the run finished" is the assertion).
#![cfg(feature = "sanitize")]

use rar_core::Technique;
use rar_sim::{SimConfig, Simulation};

fn run(workload: &str, technique: Technique) -> rar_sim::SimResult {
    Simulation::run(
        &SimConfig::builder()
            .workload(workload)
            .technique(technique)
            .instructions(4_000)
            .warmup(800)
            .build(),
    )
}

#[test]
fn all_workloads_pass_the_sanitizer_on_the_baseline_core() {
    for b in rar_workloads::all_benchmarks() {
        let r = run(b, Technique::Ooo);
        assert!(r.stats.committed >= 4_000, "{b}: run did not complete");
    }
}

#[test]
fn every_technique_passes_the_sanitizer_on_a_memory_bound_workload() {
    for t in [
        Technique::Ooo,
        Technique::Flush,
        Technique::Tr,
        Technique::Pre,
        Technique::Rar,
        Technique::RarLate,
        Technique::Throttle,
        Technique::Rab,
        Technique::Cre,
        Technique::Vr,
    ] {
        let r = run("mcf", t);
        assert!(r.stats.committed >= 4_000, "{t}: run did not complete");
    }
}

#[test]
fn a_re_missed_in_flight_line_keeps_the_mshr_file_balanced() {
    // The line's L1 copy is evicted before its fill returns, so the next
    // access misses again and reallocates the in-flight line's MSHR.
    let r = Simulation::run(
        &SimConfig::builder()
            .workload("mcf")
            .technique(Technique::Ooo)
            .seed(2)
            .instructions(8_000)
            .warmup(2_000)
            .build(),
    );
    assert!(r.stats.committed >= 8_000, "run did not complete");
}
