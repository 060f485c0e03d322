//! The composed memory hierarchy: L1-I/L1-D/L2/L3 + MSHRs + DRAM +
//! optional stride prefetching.

use crate::cache::Cache;
use crate::config::{MemConfig, PrefetchPlacement};
use crate::dram::Dram;
use crate::mshr::MshrFile;
use crate::prefetch::StridePrefetcher;
use crate::stats::MemStats;
use rar_isa::cache_line;
use rar_trace::{ServedBy, TraceEvent};
use std::collections::HashMap;
use std::fmt;

/// The cache level (or memory) that served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HitLevel {
    /// Served by the first-level cache.
    L1,
    /// Served by the private L2.
    L2,
    /// Served by the shared L3 (LLC).
    L3,
    /// Served by main memory — an LLC miss.
    Memory,
}

/// The kind of access presented to the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Demand load (normal or runahead mode).
    Load,
    /// Store. Stores never stall on MSHR exhaustion; a full file simply
    /// stops tracking the fill timing.
    Store,
    /// Instruction fetch (L1-I path).
    Ifetch,
}

/// Result of a resolved access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// CPU cycle at which the data is available to the core.
    pub complete_at: u64,
    /// Which level ultimately supplies the data.
    pub level: HitLevel,
    /// True if this access merged into an already-in-flight line fetch.
    pub merged: bool,
}

/// Why an access could not be accepted this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemStall {
    /// Every L1-D MSHR is occupied; retry once one frees up.
    MshrFull,
}

impl fmt::Display for MemStall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemStall::MshrFull => write!(f, "all L1-D MSHRs are busy"),
        }
    }
}

impl std::error::Error for MemStall {}

/// The full memory hierarchy of Table II.
///
/// See the [crate-level documentation](crate) for the timing model.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    config: MemConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l3: Cache,
    mshr: MshrFile,
    dram: Dram,
    /// In-flight fills that do not hold a demand MSHR (prefetches,
    /// ifetches): line -> (complete_at, level).
    inflight_untracked: HashMap<u64, u64>,
    pf_l1: Option<StridePrefetcher>,
    pf_l2: Option<StridePrefetcher>,
    pf_l3: Option<StridePrefetcher>,
    stats: MemStats,
    /// Event log for the tracing subsystem; `None` (the default) keeps the
    /// access paths allocation-free. The core drains it every cycle via
    /// [`MemoryHierarchy::drain_trace`].
    trace: Option<Vec<TraceEvent>>,
}

impl MemoryHierarchy {
    /// Builds a cold hierarchy from `config`.
    #[must_use]
    pub fn new(config: MemConfig) -> Self {
        let mk_pf = || Some(StridePrefetcher::new(config.prefetcher));
        let (pf_l1, pf_l2, pf_l3) = match config.prefetch {
            PrefetchPlacement::None => (None, None, None),
            PrefetchPlacement::L3 => (None, None, mk_pf()),
            PrefetchPlacement::All => (mk_pf(), mk_pf(), mk_pf()),
        };
        MemoryHierarchy {
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            l3: Cache::new(config.l3),
            mshr: MshrFile::new(config.mshrs),
            dram: Dram::new(config.dram),
            inflight_untracked: HashMap::new(),
            pf_l1,
            pf_l2,
            pf_l3,
            stats: MemStats::default(),
            trace: None,
            config,
        }
    }

    /// Turns on event logging for cache misses, MSHR activity and DRAM
    /// transactions. Idempotent; off by default.
    pub fn enable_tracing(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// True when event logging is on.
    #[must_use]
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Moves all pending trace events into `buf` (appending), leaving the
    /// internal log empty but its capacity intact. No-op when tracing is
    /// off.
    pub fn drain_trace(&mut self, buf: &mut Vec<TraceEvent>) {
        if let Some(log) = &mut self.trace {
            buf.append(log);
        }
    }

    /// The hierarchy configuration.
    #[must_use]
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Zeroes the aggregate statistics (cache/DRAM state is untouched);
    /// used when a measurement window starts after warm-up.
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
    }

    /// Number of demand misses currently in flight (for MLP accounting).
    pub fn outstanding_misses(&mut self, now: u64) -> usize {
        self.mshr.outstanding(now)
    }

    /// Counts one runahead-speculative load. Runahead loads travel the
    /// ordinary demand path, so the hierarchy cannot tell them apart on
    /// its own; the core reports each one explicitly after a successful
    /// [`MemoryHierarchy::access`].
    pub fn note_runahead_load(&mut self) {
        self.stats.runahead_loads += 1;
    }

    /// Whether the line containing `addr` is present in the data-side
    /// hierarchy at any level (no state perturbation).
    #[must_use]
    pub fn probe_data(&self, addr: u64) -> Option<HitLevel> {
        let line = cache_line(addr);
        if self.l1d.probe(line) {
            Some(HitLevel::L1)
        } else if self.l2.probe(line) {
            Some(HitLevel::L2)
        } else if self.l3.probe(line) {
            Some(HitLevel::L3)
        } else {
            None
        }
    }

    /// Presents an access to the hierarchy at CPU cycle `now` and resolves
    /// its timing.
    ///
    /// `pc` is the accessing instruction's program counter (used to train
    /// the stride prefetcher).
    ///
    /// # Errors
    ///
    /// Returns [`MemStall::MshrFull`] for a demand *load* miss when every
    /// MSHR is busy; the core must retry later. Stores and ifetches never
    /// stall.
    pub fn access(
        &mut self,
        kind: AccessKind,
        addr: u64,
        pc: u64,
        now: u64,
    ) -> Result<AccessOutcome, MemStall> {
        match kind {
            AccessKind::Ifetch => Ok(self.access_ifetch(addr, now)),
            AccessKind::Load | AccessKind::Store => self.access_data(kind, addr, pc, now),
        }
    }

    fn expire_untracked(&mut self, now: u64) {
        self.inflight_untracked.retain(|_, &mut done| done > now);
    }

    fn access_ifetch(&mut self, addr: u64, now: u64) -> AccessOutcome {
        let line = cache_line(addr);
        let lat = self.config.l1i.latency;
        if self.l1i.access(line) {
            self.stats.l1i_hits += 1;
            let done = now + lat;
            return AccessOutcome {
                complete_at: done,
                level: HitLevel::L1,
                merged: false,
            };
        }
        self.stats.l1i_misses += 1;
        // Instruction misses are served by L2/L3/DRAM like data, but do not
        // consume demand MSHRs.
        let (done, level) =
            self.fill_from_below(line, now + lat, /*install_l1d=*/ false, true);
        self.l1i.insert(line, now);
        if let Some(log) = &mut self.trace {
            log.push(TraceEvent::CacheMiss {
                cycle: now,
                pc: addr,
                line,
                served_by: served_by(level),
                complete_at: done,
            });
        }
        AccessOutcome {
            complete_at: done,
            level,
            merged: false,
        }
    }

    fn access_data(
        &mut self,
        kind: AccessKind,
        addr: u64,
        pc: u64,
        now: u64,
    ) -> Result<AccessOutcome, MemStall> {
        let line = cache_line(addr);
        self.expire_untracked(now);
        let l1_lat = self.config.l1d.latency;

        // Train the all-levels prefetcher on every demand access.
        if let Some(pf) = self.pf_l1.as_mut() {
            let lines = pf.observe(pc, addr);
            self.issue_prefetches(&lines, now, PrefetchTarget::AllLevels);
        }

        if self.l1d.access(line) {
            // Present in L1 — but possibly still in flight.
            let mut done = now + l1_lat;
            let mut merged = false;
            if let Some(pending) = self.mshr.lookup(line, now) {
                done = done.max(pending);
                merged = true;
                self.stats.mshr_merges += 1;
            } else if let Some(&pending) = self.inflight_untracked.get(&line) {
                done = done.max(pending);
                merged = true;
            }
            self.stats.record_data(HitLevel::L1);
            return Ok(AccessOutcome {
                complete_at: done,
                level: HitLevel::L1,
                merged,
            });
        }

        // L1-D miss: demand loads need an MSHR.
        if kind == AccessKind::Load && !self.mshr.has_free(now) {
            self.stats.mshr_stalls += 1;
            if let Some(log) = &mut self.trace {
                log.push(TraceEvent::MshrStall { cycle: now, line });
            }
            return Err(MemStall::MshrFull);
        }

        let (done, level) =
            self.fill_from_below(line, now + l1_lat, /*install_l1d=*/ true, true);
        if let Some(log) = &mut self.trace {
            log.push(TraceEvent::CacheMiss {
                cycle: now,
                pc,
                line,
                served_by: served_by(level),
                complete_at: done,
            });
        }
        if kind == AccessKind::Load {
            let ok = self.mshr.allocate(line, done, now);
            debug_assert!(ok, "MSHR availability checked above");
            if self.trace.is_some() {
                let outstanding = self.mshr.outstanding(now);
                if let Some(log) = &mut self.trace {
                    log.push(TraceEvent::MshrAlloc {
                        cycle: now,
                        line,
                        complete_at: done,
                        outstanding,
                    });
                }
            }
        } else {
            // Stores track the fill opportunistically.
            if !self.mshr.allocate(line, done, now) {
                self.inflight_untracked.insert(line, done);
            }
        }
        self.stats.record_data(level);
        Ok(AccessOutcome {
            complete_at: done,
            level,
            merged: false,
        })
    }

    /// Resolves a miss below the L1: walks L2, L3, DRAM; installs the line
    /// into the levels it passed through. `t` is the cycle the request
    /// leaves the L1. `train` is false for prefetch-initiated fills, which
    /// must not re-train the prefetchers (that would recurse). Returns
    /// (completion cycle, serving level).
    fn fill_from_below(
        &mut self,
        line: u64,
        t: u64,
        install_l1d: bool,
        train: bool,
    ) -> (u64, HitLevel) {
        let l2_lat = self.config.l2.latency;
        let l3_lat = self.config.l3.latency;

        let (done, level) = if self.l2.access(line) {
            (t + l2_lat, HitLevel::L2)
        } else {
            // Train the L3 prefetcher on accesses that reach the LLC. LLC
            // streams are keyed by 4 KB region rather than PC: the LLC does
            // not see program counters, only addresses.
            if train {
                if let Some(pf) = self.pf_l3.as_mut() {
                    let lines = pf.observe(line >> 12, line);
                    self.issue_prefetches(&lines, t, PrefetchTarget::LlcOnly);
                }
            }
            if self.l3.access(line) {
                self.l2.insert(line, t);
                (t + l2_lat + l3_lat, HitLevel::L3)
            } else {
                let issued_at = t + l2_lat + l3_lat;
                let info = self.dram.access_info(line, issued_at);
                if let Some(log) = &mut self.trace {
                    log.push(TraceEvent::DramAccess {
                        issued_at,
                        line,
                        complete_at: info.complete_at,
                        row_hit: info.row_hit,
                        bank: info.bank,
                        demand: train,
                    });
                }
                self.l3.insert(line, t);
                self.l2.insert(line, t);
                (info.complete_at, HitLevel::Memory)
            }
        };
        if install_l1d {
            self.l1d.insert(line, t);
        }
        if train && level > HitLevel::L1 {
            if let Some(pf) = self.pf_l2.as_mut() {
                let lines = pf.observe(line >> 12, line);
                self.issue_prefetches(&lines, t, PrefetchTarget::AllLevels);
            }
        }
        (done, level)
    }

    fn issue_prefetches(&mut self, lines: &[u64], now: u64, target: PrefetchTarget) {
        for &line in lines {
            match target {
                PrefetchTarget::LlcOnly => {
                    if self.l3.probe(line) {
                        continue;
                    }
                    let issued_at = now + self.config.l3.latency;
                    let info = self.dram.access_info(line, issued_at);
                    if let Some(log) = &mut self.trace {
                        log.push(TraceEvent::DramAccess {
                            issued_at,
                            line,
                            complete_at: info.complete_at,
                            row_hit: info.row_hit,
                            bank: info.bank,
                            demand: false,
                        });
                    }
                    self.l3.insert(line, now);
                    self.inflight_untracked.insert(line, info.complete_at);
                }
                PrefetchTarget::AllLevels => {
                    if self.l1d.probe(line) {
                        continue;
                    }
                    let (done, _) = self.fill_from_below(line, now, true, false);
                    self.inflight_untracked.insert(line, done);
                }
            }
            self.stats.prefetches_issued += 1;
        }
    }

    /// Read-only MSHR conservation snapshot for the invariant sanitizer:
    /// `(allocations, released, resident, capacity, peak)`. Unlike
    /// [`MemoryHierarchy::outstanding_misses`] this never expires entries,
    /// so checking it cannot perturb simulated timing.
    #[must_use]
    pub fn mshr_sanity(&self) -> (u64, u64, usize, usize, usize) {
        (
            self.mshr.allocations(),
            self.mshr.released(),
            self.mshr.resident(),
            self.mshr.capacity(),
            self.mshr.peak(),
        )
    }

    /// Fault injection: corrupts the L1-D tag way at flat `slot` (see
    /// [`crate::cache::Cache::corrupt_way`]). Returns `false` when the
    /// way is vacant.
    pub fn corrupt_l1d_way(&mut self, slot: usize, bit: u64) -> bool {
        self.l1d.corrupt_way(slot, bit)
    }

    /// Fault injection: corrupts the `idx`-th in-flight MSHR (see
    /// [`crate::mshr::MshrFile::corrupt_nth`]). Returns `false` when the
    /// slot is vacant.
    pub fn corrupt_mshr(&mut self, idx: usize, bit: u64) -> bool {
        self.mshr.corrupt_nth(idx, bit)
    }
}

#[derive(Debug, Clone, Copy)]
enum PrefetchTarget {
    LlcOnly,
    AllLevels,
}

/// Maps the serving level of an L1 miss onto the trace vocabulary.
fn served_by(level: HitLevel) -> ServedBy {
    match level {
        // `fill_from_below` never reports L1; fold it into L2 defensively.
        HitLevel::L1 | HitLevel::L2 => ServedBy::L2,
        HitLevel::L3 => ServedBy::L3,
        HitLevel::Memory => ServedBy::Memory,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemoryHierarchy {
        MemoryHierarchy::new(MemConfig::baseline())
    }

    #[test]
    fn cold_load_misses_to_memory() {
        let mut m = mem();
        let out = m.access(AccessKind::Load, 0x4000, 0x100, 0).unwrap();
        assert_eq!(out.level, HitLevel::Memory);
        assert!(out.complete_at > 100);
        assert_eq!(m.stats().llc_misses, 1);
    }

    #[test]
    fn warm_load_hits_l1() {
        let mut m = mem();
        let cold = m.access(AccessKind::Load, 0x4000, 0x100, 0).unwrap();
        let warm = m
            .access(AccessKind::Load, 0x4000, 0x100, cold.complete_at)
            .unwrap();
        assert_eq!(warm.level, HitLevel::L1);
        assert_eq!(warm.complete_at, cold.complete_at + 4);
    }

    #[test]
    fn access_before_fill_merges() {
        let mut m = mem();
        let cold = m.access(AccessKind::Load, 0x4000, 0x100, 0).unwrap();
        // Second access to the same line 10 cycles later: data not back yet.
        let merged = m.access(AccessKind::Load, 0x4008, 0x104, 10).unwrap();
        assert!(merged.merged);
        assert_eq!(merged.complete_at, cold.complete_at.max(14));
    }

    #[test]
    fn mshr_exhaustion_stalls_loads() {
        let mut m = mem();
        let mut stalled = false;
        for i in 0..64 {
            match m.access(AccessKind::Load, 0x10_0000 + i * 0x1000, 0x100, 0) {
                Ok(_) => {}
                Err(MemStall::MshrFull) => {
                    stalled = true;
                    break;
                }
            }
        }
        assert!(stalled, "20 MSHRs must bound outstanding loads");
        assert_eq!(m.stats().mshr_stalls, 1);
    }

    #[test]
    fn stores_never_stall() {
        let mut m = mem();
        for i in 0..64 {
            m.access(AccessKind::Store, 0x20_0000 + i * 0x1000, 0x100, 0)
                .unwrap();
        }
    }

    #[test]
    fn ifetch_uses_l1i() {
        let mut m = mem();
        let cold = m.access(AccessKind::Ifetch, 0x400, 0x400, 0).unwrap();
        assert!(cold.complete_at > 2);
        let warm = m
            .access(AccessKind::Ifetch, 0x400, 0x400, cold.complete_at)
            .unwrap();
        assert_eq!(warm.level, HitLevel::L1);
        assert_eq!(warm.complete_at - cold.complete_at, 2);
        assert_eq!(m.stats().l1i_hits, 1);
        assert_eq!(m.stats().l1i_misses, 1);
    }

    #[test]
    fn l2_hit_latency_is_l1_plus_l2() {
        let mut m = mem();
        let cold = m.access(AccessKind::Load, 0x8000, 0x100, 0).unwrap();
        let t = cold.complete_at;
        // Evict from L1 by filling its set with conflicting lines: L1D is
        // 32KB/8-way/64B = 64 sets => stride 4096 conflicts in L1 while
        // mapping to (mostly) distinct L2 sets (512 sets), so the victim
        // stays resident in L2.
        for i in 1..=8 {
            m.access(AccessKind::Load, 0x8000 + i * 4096, 0x200, t + i * 1000)
                .unwrap();
        }
        let now = t + 100_000;
        let out = m.access(AccessKind::Load, 0x8000, 0x100, now).unwrap();
        assert_eq!(out.level, HitLevel::L2);
        assert_eq!(out.complete_at, now + 4 + 8);
    }

    #[test]
    fn llc_prefetcher_fills_l3() {
        let mut m = MemoryHierarchy::new(MemConfig::with_prefetch(PrefetchPlacement::L3));
        // Stream through lines 4KB apart (DRAM pages) to train the LLC
        // prefetcher (it observes line addresses).
        let mut t = 0;
        for i in 0..8u64 {
            let out = m
                .access(AccessKind::Load, 0x100_0000 + i * 64, 0x500, t)
                .unwrap();
            t = out.complete_at + 1;
        }
        assert!(
            m.stats().prefetches_issued > 0,
            "stream should train the LLC prefetcher"
        );
    }

    #[test]
    fn all_level_prefetcher_turns_misses_into_hits() {
        let mut m = MemoryHierarchy::new(MemConfig::with_prefetch(PrefetchPlacement::All));
        let mut t = 0;
        let mut last_level = HitLevel::Memory;
        for i in 0..32u64 {
            let out = m
                .access(AccessKind::Load, 0x200_0000 + i * 64, 0x600, t)
                .unwrap();
            t = out.complete_at + 200;
            last_level = out.level;
        }
        assert_eq!(last_level, HitLevel::L1, "trained stream should hit in L1");
    }

    #[test]
    fn probe_is_side_effect_free() {
        let mut m = mem();
        assert_eq!(m.probe_data(0x4000), None);
        let _ = m.access(AccessKind::Load, 0x4000, 0x100, 0).unwrap();
        assert_eq!(m.probe_data(0x4000), Some(HitLevel::L1));
        assert_eq!(m.stats().data_accesses(), 1, "probe did not count");
    }

    #[test]
    fn tracing_logs_misses_mshr_and_dram() {
        let mut m = mem();
        m.enable_tracing();
        let _ = m.access(AccessKind::Load, 0x4000, 0x100, 0).unwrap();
        let mut buf = Vec::new();
        m.drain_trace(&mut buf);
        for kind in ["cache-miss", "dram", "mshr-alloc"] {
            assert!(
                buf.iter().any(|e| e.kind() == kind),
                "no {kind} event in {buf:?}"
            );
        }
        let mut again = Vec::new();
        m.drain_trace(&mut again);
        assert!(again.is_empty(), "drain leaves the log empty");
    }

    #[test]
    fn tracing_off_logs_nothing() {
        let mut m = mem();
        let _ = m.access(AccessKind::Load, 0x4000, 0x100, 0).unwrap();
        assert!(!m.tracing());
        let mut buf = Vec::new();
        m.drain_trace(&mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn outstanding_misses_tracks_mlp() {
        let mut m = mem();
        let _ = m.access(AccessKind::Load, 0x30_0000, 0x100, 0).unwrap();
        let _ = m.access(AccessKind::Load, 0x40_0000, 0x104, 0).unwrap();
        assert_eq!(m.outstanding_misses(1), 2);
        assert_eq!(m.outstanding_misses(1_000_000), 0);
    }
}
