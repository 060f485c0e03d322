//! Byte golden of simulated statistics.
//!
//! `paper_shape.rs` checks orderings and `determinism.rs` checks that a
//! run repeats itself; neither notices a change to the machine that keeps
//! both. This suite pins the exact JSON export of a fixed set of cells —
//! every extended technique on a memory-bound and a compute-bound
//! workload, plus wrong-path modelling and the M1-class core — against
//! `results/sim_golden.json`. A simulator speed-up must leave it
//! byte-identical.
//!
//! On a mismatch the actual output is written to Cargo's temporary
//! directory for integration tests (`target/tmp`) and its path is
//! printed. Replace the golden with it only for a change that is meant
//! to alter the modelled machine.

use rar::core::{CoreConfig, Technique};
use rar::sim::{json, SimConfig, Simulation};
use std::path::Path;

const GOLDEN: &str = "results/sim_golden.json";

fn cell(workload: &str, technique: Technique, core: CoreConfig) -> SimConfig {
    SimConfig::builder()
        .workload(workload)
        .technique(technique)
        .core(core)
        .seed(3)
        .warmup(1_000)
        .instructions(5_000)
        .build()
}

fn cells() -> Vec<SimConfig> {
    let mut cells = Vec::new();
    for workload in ["mcf", "leela"] {
        for technique in Technique::EXTENDED {
            cells.push(cell(workload, technique, CoreConfig::baseline()));
        }
    }
    let wrong_path = CoreConfig {
        model_wrong_path: true,
        ..CoreConfig::baseline()
    };
    cells.push(cell("leela", Technique::Rar, wrong_path));
    cells.push(cell("mcf", Technique::Rar, CoreConfig::core5_m1()));
    cells
}

fn render() -> String {
    let docs: Vec<String> = cells()
        .iter()
        .map(|cfg| {
            let result = Simulation::try_run(cfg).expect("golden cell runs");
            json::to_json_for(cfg, &result).trim_end().to_string()
        })
        .collect();
    format!("[\n{}\n]\n", docs.join(",\n"))
}

#[test]
fn simulated_statistics_match_the_golden_bytes() {
    let actual = render();
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    if actual != golden {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("sim_golden.actual.json");
        std::fs::write(&out, &actual).expect("write actual output");
        let first_diff = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .map_or_else(|| "length".to_string(), |i| format!("line {}", i + 1));
        panic!(
            "simulated statistics differ from {GOLDEN} (first difference: {first_diff}); \
             actual output written to {}",
            out.display()
        );
    }
}
