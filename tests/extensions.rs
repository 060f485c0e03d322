//! Integration tests for the extension features, exercised through the
//! facade crate: the beyond-paper techniques, the committed-interval log,
//! phase analysis, the energy model, and JSON export.

use rar::ace::{OccupancyProfile, PhaseSeries};
use rar::core::{Core, CoreConfig, Technique};
use rar::isa::TraceWindow;
use rar::mem::MemConfig;
use rar::sim::{EnergyModel, SimConfig, SimResult, Simulation};

fn run(workload: &str, technique: Technique) -> SimResult {
    Simulation::run(
        &SimConfig::builder()
            .workload(workload)
            .technique(technique)
            .warmup(4_000)
            .instructions(10_000)
            .build(),
    )
}

#[test]
fn throttle_is_a_reliability_performance_tradeoff() {
    let base = run("gems", Technique::Ooo);
    let throttle = run("gems", Technique::Throttle);
    assert!(throttle.ipc_vs(&base) < 1.0, "throttling costs performance");
    assert!(throttle.abc_vs(&base) < 1.0, "and removes some exposure");
}

#[test]
fn runahead_buffer_performs_like_the_pre_family() {
    let base = run("fotonik", Technique::Ooo);
    let rab = run("fotonik", Technique::Rab);
    assert!(
        rab.ipc_vs(&base) > 1.05,
        "RAB speedup {}",
        rab.ipc_vs(&base)
    );
    assert_eq!(rab.stats.flushes, 0);
}

#[test]
fn continuous_runahead_prefetches_modelessly() {
    // libquantum's two streams leave window MLP low, which is where a
    // background prefetch engine pays off.
    let base = run("libquantum", Technique::Ooo);
    let cre = run("libquantum", Technique::Cre);
    assert_eq!(cre.stats.runahead_intervals, 0, "CRE never enters a mode");
    assert!(cre.stats.runahead_prefetches > 0);
    assert!(
        cre.ipc_vs(&base) > 1.02,
        "CRE speedup {}",
        cre.ipc_vs(&base)
    );
}

#[test]
fn interval_log_reproduces_the_running_abc() {
    let spec = rar::workloads::workload("milc").expect("known benchmark");
    let mut core = Core::new(
        CoreConfig::baseline(),
        MemConfig::baseline(),
        Technique::Ooo,
        TraceWindow::new(spec.trace(3)),
    );
    core.enable_ace_logging();
    core.run_until_committed(2_000);
    core.reset_measurement();
    core.run_until_committed(8_000);

    let profile = OccupancyProfile::from_log(core.ace().interval_log());
    assert_eq!(profile.total_abc(), core.ace().total_abc());
}

#[test]
fn phase_series_flattens_under_rar() {
    let profile_of = |technique| {
        let spec = rar::workloads::workload("gems").expect("known benchmark");
        let mut core = Core::new(
            CoreConfig::baseline(),
            MemConfig::baseline(),
            technique,
            TraceWindow::new(spec.trace(1)),
        );
        core.enable_ace_logging();
        core.run_until_committed(2_000);
        core.reset_measurement();
        core.run_until_committed(10_000);
        let profile = OccupancyProfile::from_log(core.ace().interval_log());
        let span = profile.span();
        PhaseSeries::from_profile(
            &profile,
            &CoreConfig::baseline().capacities(),
            span.start,
            span.start + core.stats().cycles,
            500,
        )
    };
    let base = profile_of(Technique::Ooo);
    let rar = profile_of(Technique::Rar);
    assert!(
        rar.peak() < base.peak(),
        "RAR must clip the vulnerability peaks"
    );
    assert!(rar.mean() < base.mean());
}

#[test]
fn energy_model_ranks_techniques_sanely() {
    let model = EnergyModel::default_22nm();
    let base = run("fotonik", Technique::Ooo);
    let flush = run("fotonik", Technique::Flush);
    let rar = run("fotonik", Technique::Rar);
    // FLUSH is slower at equal work => more static energy per instruction.
    assert!(model.epi_vs(&flush, &base) > 1.0);
    // RAR's speedup keeps its EPI in a sane band despite speculation.
    let rar_epi = model.epi_vs(&rar, &base);
    assert!((0.6..1.3).contains(&rar_epi), "RAR EPI ratio {rar_epi}");
}

#[test]
fn json_export_roundtrips_key_figures() {
    let r = run("lbm", Technique::Rar);
    let json = rar::sim::json::to_json(&r);
    assert!(json.contains("\"workload\": \"lbm\""));
    assert!(json.contains("\"technique\": \"RAR\""));
    assert!(json.contains(&format!("\"committed\": {}", r.stats.committed)));
    assert!(json.contains(&format!("\"total_abc\": {}", r.reliability.total_abc())));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

#[test]
fn m1_class_core_exposes_more_and_rar_recovers_it() {
    let mk = |core: CoreConfig, tech| {
        Simulation::run(
            &SimConfig::builder()
                .workload("gems")
                .technique(tech)
                .core(core)
                .warmup(3_000)
                .instructions(8_000)
                .build(),
        )
    };
    let base2 = mk(CoreConfig::baseline(), Technique::Ooo);
    let base5 = mk(CoreConfig::core5_m1(), Technique::Ooo);
    let rar5 = mk(CoreConfig::core5_m1(), Technique::Rar);
    assert!(
        base5.reliability.total_abc() > base2.reliability.total_abc(),
        "the 600-entry ROB must expose more state"
    );
    assert!(rar5.reliability.total_abc() < base5.reliability.total_abc() / 2);
}
