//! `rar-experiments report --check` end to end: the CI gate must fail
//! when it reads no manifest, apply the cache-hit-rate floor to the gated
//! manifest only, and name the file of any manifest that fails schema
//! validation.

use rar_core::Technique;
use rar_sim::{SimConfig, SweepSession};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A unique scratch dir per test; removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("rar-gate-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `report --check` over `dir` with `extra` flags, writing the
/// dashboard beside `dir` as `<dir>.html`.
fn report_check(dir: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rar-experiments"))
        .arg("report")
        .arg("--dir")
        .arg(dir)
        .arg("--out")
        .arg(dir.with_extension("html"))
        .arg("--check")
        .args(extra)
        .output()
        .expect("rar-experiments runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The manifest of one pass of a 2-cell grid through a session over the
/// disk cache at `cache`.
fn sweep_manifest(cache: &Path) -> String {
    let grid: Vec<SimConfig> = ["mcf", "milc"]
        .iter()
        .map(|w| {
            SimConfig::builder()
                .workload(w)
                .technique(Technique::Rar)
                .warmup(200)
                .instructions(1_000)
                .build()
        })
        .collect();
    let session = SweepSession::with_disk_cache(cache).threads(1);
    assert!(session.run_all(&grid).iter().all(Option::is_some));
    session.manifest_json("rar-experiments", "0.1.0")
}

#[test]
fn a_missing_dir_fails_the_check() {
    let scratch = Scratch::new("missing");
    let out = report_check(&scratch.0.join("no-such-dir"), &[]);
    assert!(!out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("no manifest"), "{}", stderr(&out));
}

#[test]
fn the_hit_rate_floor_passes_a_warm_manifest_and_fails_a_cold_one() {
    let scratch = Scratch::new("floor");
    let runs = scratch.0.join("runs");
    std::fs::create_dir_all(&runs).expect("runs dir");
    let cache = scratch.0.join("cache");
    std::fs::write(runs.join("manifest_cold.json"), sweep_manifest(&cache)).expect("cold");
    std::fs::write(runs.join("manifest.json"), sweep_manifest(&cache)).expect("warm");

    // The default gated manifest is {dir}/manifest.json: the warm pass.
    let warm = report_check(&runs, &["--min-hit-rate", "0.9"]);
    assert!(warm.status.success(), "{}", stderr(&warm));
    assert!(String::from_utf8_lossy(&warm.stdout).contains("2 manifests validated"));

    let cold_path = runs.join("manifest_cold.json");
    let cold_path = cold_path.to_str().expect("UTF-8 path");
    let cold = report_check(&runs, &["--manifest", cold_path, "--min-hit-rate", "0.9"]);
    assert!(!cold.status.success());
    assert!(
        stderr(&cold).contains("manifest_cold.json: cache hit rate 0.0%"),
        "{}",
        stderr(&cold)
    );
}

#[test]
fn a_manifest_with_a_wrong_schema_fails_and_is_named() {
    let scratch = Scratch::new("schema");
    let good = sweep_manifest(&scratch.0.join("cache"));
    let runs = scratch.0.join("runs");
    std::fs::create_dir_all(&runs).expect("runs dir");
    std::fs::write(runs.join("manifest.json"), &good).expect("good");
    assert!(report_check(&runs, &[]).status.success());

    // A gated manifest from outside --dir is validated too.
    let bad = good.replace("rar-manifest-v1", "rar-manifest-v0");
    let outside = scratch.0.join("gated.json");
    std::fs::write(&outside, &bad).expect("outside");
    let outside = outside.to_str().expect("UTF-8 path");
    let out = report_check(&runs, &["--manifest", outside]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains(&format!("{outside}: schema is 'rar-manifest-v0'")),
        "{}",
        stderr(&out)
    );

    std::fs::write(runs.join("manifest_bad.json"), bad).expect("bad");
    let out = report_check(&runs, &[]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("manifest_bad.json: schema is 'rar-manifest-v0'"),
        "{}",
        stderr(&out)
    );
}
