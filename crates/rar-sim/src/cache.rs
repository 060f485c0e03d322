//! Content-addressed on-disk result cache.
//!
//! Each finished run is persisted as one small JSON file named by the
//! configuration's [`SimConfig::fingerprint`], so a warm rerun of any
//! sweep replays its cells from disk instead of simulating them. An
//! entry is `{"rar_cache_version": N, "result": DOC}`, where `DOC` is the
//! run's result document exactly as [`json::to_json_for`] exports it
//! (`rar-sim --json` writes the same bytes). The design invariants:
//!
//! * **Bit-identical replay.** The entry is read back by
//!   [`json::from_json`] from its integer counters (`u64`/`u128`) alone.
//!   The document's floating-point figures (`avf`, `ipc`, `mpki`, ...)
//!   are *derived* quantities, ignored on load and recomputed from those
//!   integers by the same code paths a live run uses — so a cache hit
//!   returns a [`SimResult`] indistinguishable from a fresh simulation,
//!   bit for bit.
//! * **Versioned entries.** [`CACHE_VERSION`] is stored *inside* every
//!   entry; a version bump (or a canonical-form bump in
//!   [`SimConfig::canonical`]) strands old entries, which then decode to
//!   `None` and are transparently re-simulated and overwritten.
//! * **Strict decode.** A truncated, corrupted or hand-edited entry —
//!   anything that does not parse exactly, carry every counter, echo the
//!   expected fingerprint, and match the requesting configuration's
//!   workload and technique — is treated as a miss, never an error.
//! * **Atomic publish.** Entries are written to a temporary file and
//!   renamed into place, so concurrent writers (or a crash mid-write)
//!   can never publish a torn entry.

use crate::config::SimConfig;
use crate::json;
use crate::run::SimResult;
use rar_trace::jsonv;
use std::path::{Path, PathBuf};

/// Version of the on-disk entry layout. Bump when the entry's layout or
/// the result document's field set changes; old entries then become
/// misses and are re-simulated.
pub const CACHE_VERSION: u64 = 3;

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
            // Truncating to half leaves the entry's objects unclosed, so a
            // corrupted entry always degrades to a miss and the cell is
            // re-simulated — never silently decoded wrong.
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

/// Renders one entry: the cache version and the run's result document,
/// byte for byte what [`json::to_json_for`] writes.
fn encode(cfg: &SimConfig, r: &SimResult) -> String {
    format!(
        "{{\"rar_cache_version\": {CACHE_VERSION}, \"result\": {}}}\n",
        json::to_json_for(cfg, r)
    )
}

/// Strictly decodes one entry for `cfg`; any defect yields `None`.
/// The entry must be one well-formed JSON object without duplicate keys.
fn decode(text: &str, cfg: &SimConfig) -> Option<SimResult> {
    let entry = jsonv::parse(text).ok()?;
    if entry.get("rar_cache_version")?.as_u64()? != CACHE_VERSION {
        return None;
    }
    let (fingerprint, result) = json::from_json(entry.get("result")?)?;
    (fingerprint == cfg.fingerprint()
        && result.workload == cfg.workload
        && result.technique == cfg.technique)
        .then_some(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Simulation;
    use rar_core::Technique;

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
        // The entry's result member is the export, byte for byte.
        let entry = std::fs::read_to_string(cache.entry_path(&cfg)).unwrap();
        let result = entry
            .strip_prefix(&format!(
                "{{\"rar_cache_version\": {CACHE_VERSION}, \"result\": "
            ))
            .and_then(|rest| rest.strip_suffix("}\n"));
        assert_eq!(result, Some(json::to_json_for(&cfg, &fresh).as_str()));
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

        // Truncation, garbage, a missing nested member, and a fingerprint
        // swap.
        let half = &good[..good.len() / 2];
        let no_field = good.replace("\"committed\"", "\"gone\"");
        assert_ne!(no_field, good);
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
