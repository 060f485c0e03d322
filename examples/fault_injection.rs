//! Fault-injection cross-check of the ACE analysis.
//!
//! The paper (footnote 1) argues that a fault-injection campaign would
//! report lower absolute vulnerability than ACE analysis but the same
//! *relative* conclusions. This example prepares the baseline core and RAR
//! on gems, injects 300 single-bit strikes into each run's ACE-comparable
//! structures (uniform over their bits and the measured cycles), and
//! prints the measured vulnerability with its 95% confidence interval next
//! to the capacity-weighted ACE AVF of the same structures.
//!
//! ```text
//! cargo run --release --example fault_injection
//! ```

use rar::core::FaultTarget;
use rar::sim::inject::{paired, run_injection_campaign};
use rar::sim::SimConfig;
use rar_inject::{CampaignSpec, TargetTally};

fn main() {
    println!("fault-injection campaign on gems (300 strikes per run)\n");
    println!(
        "{:<10} {:>8} {:>12} {:>22}",
        "technique", "ACE AVF", "refined AVF", "injected (95% CI)"
    );
    let spec = CampaignSpec {
        samples: 300,
        threads: 2,
        ..CampaignSpec::default()
    };

    let base = SimConfig::builder()
        .workload("gems")
        .warmup(8_000)
        .instructions(30_000)
        .build();
    let mut results = Vec::new();
    for harness in paired(&base).expect("valid configuration") {
        let cfg = harness.config();
        let campaign = run_injection_campaign(&harness, &spec, 2024, None, None)
            .expect("an unjournaled campaign does no I/O");

        // The sampler weights every target by its bits, so the pooled
        // tally estimates the capacity-weighted AVF of the same targets.
        let mut pooled = TargetTally::default();
        let (mut bits, mut avf, mut refined) = (0.0, 0.0, 0.0);
        for target in FaultTarget::ACE {
            let t = campaign.tally.get(target);
            pooled.vacant += t.vacant;
            pooled.masked += t.masked;
            pooled.sdc += t.sdc;
            pooled.due_hang += t.due_hang;
            pooled.due_panic += t.due_panic;
            let (a, r) = harness.ace_avf(target).expect("an ACE-comparable target");
            let b = target.capacity_bits(&cfg.core, &cfg.mem) as f64;
            bits += b;
            avf += a * b;
            refined += r * b;
        }
        let (avf, refined) = (avf / bits, refined / bits);
        println!(
            "{:<10} {avf:>8.3} {refined:>12.3} {:>14.3} ± {:.3}",
            cfg.technique.to_string(),
            pooled.vulnerability(),
            pooled.ci95(),
        );
        results.push((avf, pooled.vulnerability()));
    }

    let (base_avf, base_measured) = results[0];
    let (rar_avf, rar_measured) = results[1];
    println!("\nACE MTTF improvement       {:.2}x", base_avf / rar_avf);
    println!(
        "injected MTTF improvement  {:.2}x",
        base_measured / rar_measured.max(1e-9)
    );
    println!("\nInjection reads lower than ACE analysis, which counts every bit of");
    println!("a committed interval as vulnerable, but both rank RAR well ahead of");
    println!("the baseline core: the relative conclusion the paper's footnote 1");
    println!("predicts.");
}
