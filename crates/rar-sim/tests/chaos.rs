// Chaos builds only: `cargo test -p rar-sim --features chaos --test chaos`.
#![cfg(feature = "chaos")]
//! Convergence under the chaos fabric: with each disk-cache and
//! campaign-journal fail-point class armed on a deterministic schedule,
//! sweep results and injection tallies must stay byte-identical to a
//! clean run. The fabric may cost retries, re-simulations and opened
//! circuit breakers — never different bytes.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

use rar_chaos::{sites, ChaosPlan};
use rar_inject::{load_journal, CampaignSpec};
use rar_sim::inject::{run_injection_campaign, InjectionHarness};
use rar_sim::{json, SimConfig, SweepSession};

/// The chaos fabric is process-global; armed tests serialize on this.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A unique scratch dir per test; removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("rar-sim-chaos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn cfg() -> SimConfig {
    SimConfig::builder()
        .workload("mcf")
        .technique(rar_core::Technique::Rar)
        .instructions(2_000)
        .warmup(300)
        .build()
}

/// A few cells, so per-site call counters advance far enough for every
/// scheduled offset to fire (e.g. corrupt-on-read only triggers on reads
/// of an entry that exists).
fn grid() -> Vec<SimConfig> {
    ["mcf", "libquantum", "milc"]
        .into_iter()
        .map(|w| {
            SimConfig::builder()
                .workload(w)
                .technique(rar_core::Technique::Rar)
                .instructions(2_000)
                .warmup(300)
                .build()
        })
        .collect()
}

/// One populate-then-replay pair over the grid against a fresh cache
/// dir, returning both concatenated result documents (replay cells may
/// be cache hits or chaos-degraded re-simulations — the bytes must not
/// care).
fn sweep_pair(scratch: &Scratch) -> (String, String) {
    let run_all = || {
        let session = SweepSession::with_disk_cache(scratch.0.join("cache"));
        grid()
            .iter()
            .map(|cfg| {
                let r = session.run(cfg).expect("sweep cell");
                json::to_json_for(cfg, &r)
            })
            .collect::<String>()
    };
    (run_all(), run_all())
}

fn injected(site: &str) -> u64 {
    rar_chaos::injected_counts()
        .into_iter()
        .find(|(s, _)| s == site)
        .map_or(0, |(_, n)| n)
}

#[test]
fn cache_read_errors_and_corruption_converge_byte_identical() {
    let _guard = lock();
    rar_chaos::clear();
    let clean = sweep_pair(&Scratch::new("read-clean"));
    assert_eq!(clean.0, clean.1, "clean cache replay must be stable");

    // Alternate an I/O error (even probes) with a corrupted entry (odd
    // probes): both degrade the probe to a miss and re-simulate.
    rar_chaos::install(
        &ChaosPlan::single(sites::SIM_CACHE_READ_ERR, 2, 0)
            .with_site(sites::SIM_CACHE_READ_CORRUPT, 2, 1)
            .with_seed(7),
    );
    let chaotic = sweep_pair(&Scratch::new("read-chaos"));
    let fired = (
        injected(sites::SIM_CACHE_READ_ERR),
        injected(sites::SIM_CACHE_READ_CORRUPT),
    );
    rar_chaos::clear();
    assert!(fired.0 > 0, "read-error fail-point never fired");
    assert!(fired.1 > 0, "corruption fail-point never fired");
    assert_eq!(clean.0, chaotic.0);
    assert_eq!(clean.0, chaotic.1);
}

#[test]
fn cache_write_errors_and_slow_io_converge_byte_identical() {
    let _guard = lock();
    rar_chaos::clear();
    let clean = sweep_pair(&Scratch::new("write-clean"));

    rar_chaos::install(
        &ChaosPlan::single(sites::SIM_CACHE_WRITE_ERR, 2, 0)
            .with_site(sites::SIM_CACHE_IO_SLOW, 2, 0)
            .with_seed(11),
    );
    let chaotic = sweep_pair(&Scratch::new("write-chaos"));
    let fired = (
        injected(sites::SIM_CACHE_WRITE_ERR),
        injected(sites::SIM_CACHE_IO_SLOW),
    );
    rar_chaos::clear();
    assert!(fired.0 > 0, "write-error fail-point never fired");
    assert!(fired.1 > 0, "slow-I/O fail-point never fired");
    assert_eq!(clean.0, chaotic.0);
    assert_eq!(clean.0, chaotic.1);
}

/// A 40-sample journaled campaign with `site` firing on every 2nd call:
/// the tally must equal the clean run's, the journal must hold every
/// sample index, and a rerun over it must resume all 40 samples.
fn journal_site_converges(site: &str, seed: u64) {
    const SAMPLES: u64 = 40;
    let _guard = lock();
    rar_chaos::clear();
    let harness = InjectionHarness::prepare(&cfg()).expect("harness");
    let spec = |scratch: &Scratch| CampaignSpec {
        samples: SAMPLES,
        threads: 1,
        journal: Some(scratch.0.join("campaign.jsonl")),
        fsync_every: 2,
        ..CampaignSpec::default()
    };
    let clean_scratch = Scratch::new("inject-clean");
    let clean = run_injection_campaign(&harness, &spec(&clean_scratch), 7, None, None)
        .expect("clean campaign");

    rar_chaos::install(&ChaosPlan::single(site, 2, 0).with_seed(seed));
    let chaos_scratch = Scratch::new(&format!("inject-{site}"));
    let chaotic = run_injection_campaign(&harness, &spec(&chaos_scratch), 7, None, None)
        .expect("chaos campaign");
    let fired = injected(site);
    rar_chaos::clear();

    assert!(fired > 0, "fail-point {site} never fired");
    assert_eq!(clean.completed, chaotic.completed);
    assert_eq!(clean.failed, chaotic.failed);
    assert_eq!(
        clean.tally.to_json(),
        chaotic.tally.to_json(),
        "injection tallies diverged under {site}"
    );
    let journal = spec(&chaos_scratch).journal.expect("journaled");
    let mut ks: Vec<u64> = load_journal(&journal)
        .expect("the journal replays")
        .iter()
        .map(|r| r.k)
        .collect();
    ks.sort_unstable();
    ks.dedup();
    assert_eq!(ks, (0..SAMPLES).collect::<Vec<_>>(), "journal under {site}");
    let rerun = run_injection_campaign(&harness, &spec(&chaos_scratch), 7, None, None)
        .expect("rerun over the chaos journal");
    assert_eq!(rerun.resumed, SAMPLES, "resume under {site}");
    assert_eq!(rerun.tally.to_json(), clean.tally.to_json());
}

#[test]
fn torn_campaign_journal_writes_converge_byte_identical() {
    journal_site_converges(sites::JOURNAL_TORN, 7);
}

#[test]
fn short_campaign_journal_writes_converge_byte_identical() {
    journal_site_converges(sites::JOURNAL_SHORT, 11);
}

#[test]
fn campaign_journal_fsync_failures_converge_byte_identical() {
    journal_site_converges(sites::JOURNAL_FSYNC, 13);
}
