//! Content-addressed on-disk result cache.
//!
//! Each finished run is persisted as one small JSON file named by the
//! configuration's [`SimConfig::fingerprint`], so a warm rerun of any
//! sweep replays its cells from disk instead of simulating them. The
//! design invariants:
//!
//! * **Bit-identical replay.** Every persisted measurement is an integer
//!   counter (`u64`/`u128`). The floating-point figures (`avf`, `ipc`,
//!   `mpki`, ...) are *derived* quantities, recomputed from those integers
//!   by the same code paths a live run uses — so a cache hit returns a
//!   [`SimResult`] indistinguishable from a fresh simulation, bit for bit.
//! * **Versioned entries.** [`CACHE_VERSION`] is stored *inside* every
//!   entry; a version bump (or a canonical-form bump in
//!   [`SimConfig::canonical`]) strands old entries, which then decode to
//!   `None` and are transparently re-simulated and overwritten.
//! * **Strict decode.** A truncated, corrupted or hand-edited entry —
//!   anything that does not parse exactly, echo the expected fingerprint,
//!   and match the requesting configuration's workload and technique —
//!   is treated as a miss, never an error.
//! * **Atomic publish.** Entries are written to a temporary file and
//!   renamed into place, so concurrent writers (or a crash mid-write)
//!   can never publish a torn entry.

use crate::config::SimConfig;
use crate::run::SimResult;
use rar_ace::{ReliabilityReport, Structure};
use rar_core::{CoreStats, Technique};
use rar_frontend::PredictorStats;
use rar_mem::MemStats;
use rar_trace::jsonv::{self, escape, Value};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Version of the on-disk entry layout. Bump when the serialized field
/// set changes; old entries then become misses and are re-simulated.
pub const CACHE_VERSION: u64 = 2;

/// A directory of memoized [`SimResult`]s keyed by configuration
/// fingerprint.
#[derive(Debug, Clone)]
pub struct DiskCache {
    dir: PathBuf,
}

impl DiskCache {
    /// A cache rooted at `dir`. The directory is created lazily on the
    /// first [`DiskCache::store`].
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DiskCache { dir: dir.into() }
    }

    /// The directory this cache reads and writes.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry path for `cfg` (exists only after a store).
    #[must_use]
    pub fn entry_path(&self, cfg: &SimConfig) -> PathBuf {
        self.dir.join(format!("{}.json", cfg.fingerprint()))
    }

    /// Looks up a previously stored result for `cfg`. Any defect in the
    /// entry — missing file, stale version, fingerprint or identity
    /// mismatch, corruption — yields `None` (a cache miss), never an
    /// error.
    #[must_use]
    pub fn load(&self, cfg: &SimConfig) -> Option<SimResult> {
        self.try_load(cfg).ok().flatten()
    }

    /// Like [`DiskCache::load`], but distinguishes a genuine miss
    /// (`Ok(None)`: no entry, stale version, or content defects) from an
    /// I/O failure reading the entry (`Err`). The sweep engine retries
    /// I/O failures with backoff and, if they persist, disables the cache
    /// for the rest of the session instead of re-probing a broken disk on
    /// every cell.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the entry exists but cannot
    /// be read (permissions, device errors, a file where the cache
    /// directory should be). `NotFound` is a miss, not an error.
    pub fn try_load(&self, cfg: &SimConfig) -> std::io::Result<Option<SimResult>> {
        rar_chaos::maybe_sleep(rar_chaos::sites::SIM_CACHE_IO_SLOW, 20);
        rar_chaos::maybe_io_err(rar_chaos::sites::SIM_CACHE_READ_ERR)?;
        let mut text = match std::fs::read_to_string(self.entry_path(cfg)) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        if rar_chaos::fire(rar_chaos::sites::SIM_CACHE_READ_CORRUPT).is_some() {
            // Truncating to half strips trailing fields the strict decoder
            // requires, so a corrupted entry always degrades to a miss and
            // the cell is re-simulated — never silently decoded wrong.
            text.truncate(text.len() / 2);
        }
        Ok(decode(&text, cfg))
    }

    /// Persists `result` as the entry for `cfg`, atomically (temp file +
    /// rename). Concurrent stores of the same entry are benign: both
    /// write identical bytes.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the cache directory cannot be
    /// created or the entry cannot be written; callers typically treat
    /// this as a warning (the sweep still has the in-memory result).
    pub fn store(&self, cfg: &SimConfig, result: &SimResult) -> std::io::Result<()> {
        rar_chaos::maybe_sleep(rar_chaos::sites::SIM_CACHE_IO_SLOW, 20);
        rar_chaos::maybe_io_err(rar_chaos::sites::SIM_CACHE_WRITE_ERR)?;
        std::fs::create_dir_all(&self.dir)?;
        let text = encode(cfg, result);
        let tmp = self
            .dir
            .join(format!(".{}.tmp.{}", cfg.fingerprint(), std::process::id()));
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, self.entry_path(cfg))
    }
}

/// `CoreStats` as (key, value) pairs, in declaration order. Encode and
/// decode both consume this list, so they cannot drift apart.
fn core_fields(s: &CoreStats) -> [(&'static str, u64); 17] {
    [
        ("stats.cycles", s.cycles),
        ("stats.committed", s.committed),
        ("stats.branch_mispredicts", s.branch_mispredicts),
        ("stats.mlp_sum", s.mlp_sum),
        ("stats.mlp_cycles", s.mlp_cycles),
        ("stats.runahead_intervals", s.runahead_intervals),
        ("stats.runahead_cycles", s.runahead_cycles),
        ("stats.runahead_uops", s.runahead_uops),
        ("stats.runahead_prefetches", s.runahead_prefetches),
        ("stats.runahead_inv_loads", s.runahead_inv_loads),
        ("stats.flushes", s.flushes),
        ("stats.squashed", s.squashed),
        ("stats.rob_full_cycles", s.rob_full_cycles),
        ("stats.iq_full_cycles", s.iq_full_cycles),
        ("stats.head_blocked_cycles", s.head_blocked_cycles),
        ("stats.dispatched", s.dispatched),
        ("stats.issued", s.issued),
    ]
}

fn mem_fields(m: &MemStats) -> [(&'static str, u64); 10] {
    [
        ("mem.l1d_hits", m.l1d_hits),
        ("mem.l2_hits", m.l2_hits),
        ("mem.l3_hits", m.l3_hits),
        ("mem.llc_misses", m.llc_misses),
        ("mem.l1i_hits", m.l1i_hits),
        ("mem.l1i_misses", m.l1i_misses),
        ("mem.mshr_merges", m.mshr_merges),
        ("mem.mshr_stalls", m.mshr_stalls),
        ("mem.prefetches_issued", m.prefetches_issued),
        ("mem.runahead_loads", m.runahead_loads),
    ]
}

fn predictor_fields(p: &PredictorStats) -> [(&'static str, u64); 3] {
    [
        ("predictor.predictions", p.predictions),
        ("predictor.mispredictions", p.mispredictions),
        ("predictor.btb_misses", p.btb_misses),
    ]
}

/// Renders one entry: a single flat object with dotted keys.
fn encode(cfg: &SimConfig, r: &SimResult) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str("{\n");
    let _ = writeln!(out, "  \"rar_cache_version\": {CACHE_VERSION},");
    let _ = writeln!(out, "  \"fingerprint\": \"{}\",", cfg.fingerprint());
    let _ = writeln!(out, "  \"workload\": \"{}\",", escape(&r.workload));
    let _ = writeln!(out, "  \"technique\": \"{}\",", r.technique);
    for (k, v) in core_fields(&r.stats) {
        let _ = writeln!(out, "  \"{k}\": {v},");
    }
    for (k, v) in mem_fields(&r.mem) {
        let _ = writeln!(out, "  \"{k}\": {v},");
    }
    for (k, v) in predictor_fields(&r.predictor) {
        let _ = writeln!(out, "  \"{k}\": {v},");
    }
    let rel = &r.reliability;
    let _ = writeln!(out, "  \"reliability.total_abc\": {},", rel.total_abc());
    let _ = writeln!(
        out,
        "  \"reliability.refined_total_abc\": {},",
        rel.refined_total_abc()
    );
    let _ = writeln!(
        out,
        "  \"reliability.bit_refined_total_abc\": {},",
        rel.bit_refined_total_abc()
    );
    let _ = writeln!(
        out,
        "  \"reliability.capacity_bits\": {},",
        rel.capacity_bits()
    );
    let _ = writeln!(out, "  \"reliability.cycles\": {},", rel.cycles());
    write_u128_array(
        &mut out,
        "reliability.abc",
        &Structure::ALL.map(|s| rel.abc(s)),
    );
    out.push_str(",\n");
    write_u128_array(&mut out, "abc_by_structure", &r.abc_by_structure);
    out.push_str(",\n");
    write_u128_array(&mut out, "window_abc", &r.window_abc);
    out.push_str("\n}\n");
    out
}

fn write_u128_array(out: &mut String, key: &str, values: &[u128]) {
    let _ = write!(out, "  \"{key}\": [");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

/// Strictly decodes one entry for `cfg`; any defect yields `None`.
/// The entry must be one well-formed JSON object without duplicate keys.
fn decode(text: &str, cfg: &SimConfig) -> Option<SimResult> {
    let doc = jsonv::parse(text).ok()?;
    let u64_at = |key: &str| doc.get(key)?.as_u64();
    let u128_at = |key: &str| doc.get(key)?.as_u128();
    let str_at = |key: &str| doc.get(key)?.as_str();
    if u64_at("rar_cache_version")? != CACHE_VERSION {
        return None;
    }
    if str_at("fingerprint")? != cfg.fingerprint() {
        return None;
    }
    let workload = str_at("workload")?;
    if workload != cfg.workload {
        return None;
    }
    let technique = Technique::parse(str_at("technique")?)?;
    if technique != cfg.technique {
        return None;
    }

    let mut stats = CoreStats::default();
    {
        let keys = core_fields(&stats).map(|(k, _)| k);
        let slots: [&mut u64; 17] = [
            &mut stats.cycles,
            &mut stats.committed,
            &mut stats.branch_mispredicts,
            &mut stats.mlp_sum,
            &mut stats.mlp_cycles,
            &mut stats.runahead_intervals,
            &mut stats.runahead_cycles,
            &mut stats.runahead_uops,
            &mut stats.runahead_prefetches,
            &mut stats.runahead_inv_loads,
            &mut stats.flushes,
            &mut stats.squashed,
            &mut stats.rob_full_cycles,
            &mut stats.iq_full_cycles,
            &mut stats.head_blocked_cycles,
            &mut stats.dispatched,
            &mut stats.issued,
        ];
        for (key, slot) in keys.into_iter().zip(slots) {
            *slot = u64_at(key)?;
        }
    }

    let mut mem = MemStats::default();
    {
        let keys = mem_fields(&mem).map(|(k, _)| k);
        let slots: [&mut u64; 10] = [
            &mut mem.l1d_hits,
            &mut mem.l2_hits,
            &mut mem.l3_hits,
            &mut mem.llc_misses,
            &mut mem.l1i_hits,
            &mut mem.l1i_misses,
            &mut mem.mshr_merges,
            &mut mem.mshr_stalls,
            &mut mem.prefetches_issued,
            &mut mem.runahead_loads,
        ];
        for (key, slot) in keys.into_iter().zip(slots) {
            *slot = u64_at(key)?;
        }
    }

    let predictor = PredictorStats {
        predictions: u64_at("predictor.predictions")?,
        mispredictions: u64_at("predictor.mispredictions")?,
        btb_misses: u64_at("predictor.btb_misses")?,
    };

    let rel_abc = u128_array::<{ Structure::COUNT }>(&doc, "reliability.abc")?;
    let reliability = ReliabilityReport::from_parts(
        rel_abc,
        u128_at("reliability.total_abc")?,
        u128_at("reliability.refined_total_abc")?,
        u128_at("reliability.bit_refined_total_abc")?,
        u64_at("reliability.capacity_bits")?,
        u64_at("reliability.cycles")?,
    );

    Some(SimResult {
        workload: workload.to_owned(),
        technique,
        stats,
        reliability,
        mem,
        predictor,
        abc_by_structure: u128_array::<{ Structure::COUNT }>(&doc, "abc_by_structure")?,
        window_abc: u128_array::<2>(&doc, "window_abc")?,
        // Stall profiles are never cached: profiled runs bypass the disk
        // cache entirely (the profile depends on run mode, not config).
        stalls: None,
    })
}

/// The array member `key`, which must hold exactly `N` `u128`s.
fn u128_array<const N: usize>(doc: &Value<'_>, key: &str) -> Option<[u128; N]> {
    let items = doc.get(key)?.as_array()?;
    if items.len() != N {
        return None;
    }
    let mut out = [0u128; N];
    for (slot, item) in out.iter_mut().zip(items) {
        *slot = item.as_u128()?;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Simulation;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rar-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_cfg() -> SimConfig {
        SimConfig::builder()
            .workload("mcf")
            .technique(Technique::Rar)
            .warmup(300)
            .instructions(2_000)
            .build()
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let dir = tmp_dir("roundtrip");
        let cache = DiskCache::new(&dir);
        let cfg = tiny_cfg();
        let fresh = Simulation::run(&cfg);
        assert!(cache.load(&cfg).is_none(), "cold cache must miss");
        cache.store(&cfg, &fresh).unwrap();
        let replayed = cache.load(&cfg).expect("warm cache must hit");
        assert_eq!(replayed, fresh);
        // Derived floats come out identical too (recomputed from ints).
        assert!(replayed.ipc().to_bits() == fresh.ipc().to_bits());
        assert!(
            replayed.reliability.refined_avf().to_bits()
                == fresh.reliability.refined_avf().to_bits()
        );
        assert!(
            replayed.reliability.bit_refined_avf().to_bits()
                == fresh.reliability.bit_refined_avf().to_bits()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_version_is_a_miss() {
        let dir = tmp_dir("stale");
        let cache = DiskCache::new(&dir);
        let cfg = tiny_cfg();
        let fresh = Simulation::run(&cfg);
        cache.store(&cfg, &fresh).unwrap();
        let path = cache.entry_path(&cfg);
        let bumped = std::fs::read_to_string(&path).unwrap().replace(
            &format!("\"rar_cache_version\": {CACHE_VERSION}"),
            &format!("\"rar_cache_version\": {}", CACHE_VERSION + 1),
        );
        std::fs::write(&path, bumped).unwrap();
        assert!(cache.load(&cfg).is_none(), "future version must miss");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_entries_are_misses_not_errors() {
        let dir = tmp_dir("corrupt");
        let cache = DiskCache::new(&dir);
        let cfg = tiny_cfg();
        let fresh = Simulation::run(&cfg);
        cache.store(&cfg, &fresh).unwrap();
        let path = cache.entry_path(&cfg);
        let good = std::fs::read_to_string(&path).unwrap();

        // Truncation, garbage, a missing field, and a fingerprint swap.
        let half = &good[..good.len() / 2];
        let no_field = good.replace("\"stats.committed\"", "\"stats.gone\"");
        for bad in [half, "not json at all", no_field.as_str(), ""] {
            std::fs::write(&path, bad).unwrap();
            assert!(cache.load(&cfg).is_none());
        }

        // An entry for a *different* configuration stored under this name
        // is rejected by the embedded fingerprint echo.
        let other = SimConfig::builder()
            .workload("mcf")
            .technique(Technique::Ooo)
            .warmup(300)
            .instructions(2_000)
            .build();
        std::fs::write(&path, encode(&other, &Simulation::run(&other))).unwrap();
        assert!(cache.load(&cfg).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
