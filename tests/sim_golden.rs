//! Byte golden of simulated statistics.
//!
//! `paper_shape.rs` checks orderings and `determinism.rs` checks that a
//! run repeats itself; neither notices a change to the machine that keeps
//! both. This suite pins the exact JSON export of a fixed set of cells —
//! every extended technique on a memory-bound and a compute-bound
//! workload, plus wrong-path modelling and the M1-class core — against
//! `results/sim_golden.json`. A simulator speed-up must leave it
//! byte-identical. The golden also pins the reader: `json::from_json`
//! must take every golden document back to a result that exports the
//! same bytes.
//!
//! On a mismatch the actual output is written to Cargo's temporary
//! directory for integration tests (`target/tmp`) and its path is
//! printed. Replace the golden with it only for a change that is meant
//! to alter the modelled machine.

use rar::core::{CoreConfig, Technique};
use rar::sim::{json, SimConfig, Simulation};
use rar::trace::jsonv;
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

fn render(docs: &[String]) -> String {
    format!("[\n{}\n]\n", docs.join(",\n"))
}

fn golden() -> String {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    std::fs::read_to_string(&golden_path).unwrap_or_default()
}

#[test]
fn simulated_statistics_match_the_golden_bytes() {
    let docs: Vec<String> = cells()
        .iter()
        .map(|cfg| {
            let result = Simulation::try_run(cfg).expect("golden cell runs");
            json::to_json_for(cfg, &result).trim_end().to_string()
        })
        .collect();
    let actual = render(&docs);
    let golden = golden();
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

/// The reader takes every golden document back to the result that wrote
/// it: rendering the read-back results again gives the golden bytes.
#[test]
fn golden_documents_read_back_to_the_same_bytes() {
    let golden = golden();
    let parsed = jsonv::parse(&golden).expect("the golden is JSON");
    let documents = parsed.as_array().expect("an array of documents");
    let cells = cells();
    assert_eq!(documents.len(), cells.len());
    let docs: Vec<String> = documents
        .iter()
        .zip(&cells)
        .map(|(doc, cfg)| {
            let (fingerprint, result) = json::from_json(doc).expect("a complete document");
            assert_eq!(fingerprint, cfg.fingerprint());
            json::to_json_for(cfg, &result)
        })
        .collect();
    assert!(
        render(&docs) == golden,
        "read-back documents differ from {GOLDEN}"
    );
}
