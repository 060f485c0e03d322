//! Miss-status holding registers (MSHRs).
//!
//! The baseline models 20 MSHRs at the L1-D level (Table II): at most 20
//! distinct cache lines may be in flight to the memory system at once.
//! A demand access to a line that is already in flight *merges* into the
//! existing MSHR and completes when the original fetch does. When all
//! MSHRs are busy, further misses must stall at issue — this is what caps
//! the memory-level parallelism an out-of-order core (or a runahead
//! interval) can expose.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// An MSHR file tracking in-flight line fetches by completion time.
///
/// # Examples
///
/// ```
/// use rar_mem::MshrFile;
/// let mut m = MshrFile::new(2);
/// assert!(m.allocate(0x40, 100, 0));
/// assert!(m.allocate(0x80, 120, 0));
/// assert!(!m.allocate(0xc0, 150, 0), "file is full");
/// assert_eq!(m.lookup(0x40, 0), Some(100), "merge hits the in-flight line");
/// assert!(m.allocate(0xc0, 150, 110), "entry for 0x40 freed at cycle 100");
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    /// line address -> completion cycle
    inflight: HashMap<u64, u64>,
    peak: usize,
    allocations: u64,
    released: u64,
    merges: u64,
}

impl MshrFile {
    /// Creates an MSHR file with `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        MshrFile {
            capacity,
            inflight: HashMap::with_capacity(capacity),
            peak: 0,
            allocations: 0,
            released: 0,
            merges: 0,
        }
    }

    /// Drops entries whose fetch completed at or before `now`.
    pub fn expire(&mut self, now: u64) {
        let before = self.inflight.len();
        self.inflight.retain(|_, &mut done| done > now);
        self.released += (before - self.inflight.len()) as u64;
    }

    /// If `line` is in flight at `now`, returns its completion cycle and
    /// counts a merge.
    pub fn lookup(&mut self, line: u64, now: u64) -> Option<u64> {
        self.expire(now);
        let done = self.inflight.get(&line).copied();
        if done.is_some() {
            self.merges += 1;
        }
        done
    }

    /// Tries to allocate an entry for `line` completing at `complete_at`.
    /// Returns `false` when the file is full (the access must stall).
    /// A line still in flight (its L1 copy was evicted before the fill
    /// returned, so the access missed again) gets the new entry, and the
    /// one it replaces counts as released.
    pub fn allocate(&mut self, line: u64, complete_at: u64, now: u64) -> bool {
        self.expire(now);
        if self.inflight.len() >= self.capacity {
            return false;
        }
        if self.inflight.insert(line, complete_at).is_some() {
            self.released += 1;
        }
        self.allocations += 1;
        self.peak = self.peak.max(self.inflight.len());
        true
    }

    /// Number of entries in flight at `now`.
    pub fn outstanding(&mut self, now: u64) -> usize {
        self.expire(now);
        self.inflight.len()
    }

    /// Whether a new miss can allocate at `now`.
    pub fn has_free(&mut self, now: u64) -> bool {
        self.expire(now);
        self.inflight.len() < self.capacity
    }

    /// Capacity of the file.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// High-water mark of simultaneous in-flight misses.
    #[must_use]
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Total allocations (distinct line fetches started).
    #[must_use]
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Total merges (accesses that piggybacked on an in-flight fetch).
    #[must_use]
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Fault injection: corrupts the `idx`-th in-flight entry, selected by
    /// sorted line address so the choice is deterministic (the backing map
    /// iterates in arbitrary order). Low `bit` values flip a line-address
    /// bit — future accesses to the original line re-miss and allocate
    /// afresh — higher values flip a completion-time bit, so later merges
    /// latch a perturbed (possibly far-future) completion. Returns `false`
    /// when the slot is vacant.
    pub fn corrupt_nth(&mut self, idx: usize, bit: u64) -> bool {
        let mut lines: Vec<u64> = self.inflight.keys().copied().collect();
        lines.sort_unstable();
        let Some(&line) = lines.get(idx) else {
            return false;
        };
        if bit < 32 {
            let done = self.inflight.remove(&line).expect("selected from keys");
            let flipped = line ^ (1 << (6 + bit % 26));
            match self.inflight.entry(flipped) {
                Entry::Occupied(_) => {
                    // The flipped address collides with another in-flight
                    // line: the entry is effectively lost. Account it as
                    // released so allocation bookkeeping stays balanced.
                    self.released += 1;
                }
                Entry::Vacant(slot) => {
                    slot.insert(done);
                }
            }
        } else if let Some(done) = self.inflight.get_mut(&line) {
            *done ^= 1 << (4 + bit % 20);
        }
        true
    }

    /// Total entries released by [`MshrFile::expire`]. Together with
    /// [`MshrFile::resident`], balances [`MshrFile::allocations`]:
    /// `allocations == released + resident`, always.
    #[must_use]
    pub fn released(&self) -> u64 {
        self.released
    }

    /// Entries currently resident in the file, *without* expiring
    /// completed ones — a read-only view for invariant checkers that must
    /// not perturb the file's (timing-visible) expiry schedule.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.inflight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_until_full() {
        let mut m = MshrFile::new(3);
        for i in 0..3 {
            assert!(m.allocate(i * 64, 1_000, 0));
        }
        assert!(!m.allocate(999 * 64, 1_000, 0));
        assert_eq!(m.outstanding(0), 3);
        assert_eq!(m.peak(), 3);
    }

    #[test]
    fn expiry_frees_entries() {
        let mut m = MshrFile::new(1);
        assert!(m.allocate(0, 50, 0));
        assert!(!m.has_free(49));
        assert!(m.has_free(50));
        assert!(m.allocate(64, 80, 50));
    }

    #[test]
    fn merge_returns_completion() {
        let mut m = MshrFile::new(2);
        m.allocate(0x40, 77, 0);
        assert_eq!(m.lookup(0x40, 10), Some(77));
        assert_eq!(m.merges(), 1);
        assert_eq!(m.lookup(0x80, 10), None);
        assert_eq!(m.merges(), 1);
    }

    #[test]
    fn lookup_after_completion_misses() {
        let mut m = MshrFile::new(2);
        m.allocate(0x40, 77, 0);
        assert_eq!(m.lookup(0x40, 77), None, "expired at completion cycle");
    }

    #[test]
    fn allocation_count() {
        let mut m = MshrFile::new(8);
        for i in 0..5 {
            m.allocate(i * 64, 100 + i, 0);
        }
        assert_eq!(m.allocations(), 5);
    }

    #[test]
    fn allocations_balance_releases_plus_resident() {
        let mut m = MshrFile::new(4);
        m.allocate(0x40, 10, 0);
        m.allocate(0x80, 20, 0);
        m.allocate(0xc0, 30, 0);
        assert_eq!(m.allocations(), m.released() + m.resident() as u64);
        m.expire(15);
        assert_eq!(m.released(), 1);
        assert_eq!(m.resident(), 2);
        assert_eq!(m.allocations(), m.released() + m.resident() as u64);
        m.expire(100);
        assert_eq!(m.released(), 3);
        assert_eq!(m.resident(), 0);
    }

    #[test]
    fn reallocating_an_in_flight_line_releases_the_old_entry() {
        let mut m = MshrFile::new(4);
        assert!(m.allocate(0x40, 100, 0));
        assert!(m.allocate(0x40, 180, 20), "re-miss on an in-flight line");
        assert_eq!(m.allocations(), 2);
        assert_eq!(m.released(), 1);
        assert_eq!(m.resident(), 1);
        assert_eq!(m.allocations(), m.released() + m.resident() as u64);
        assert_eq!(m.lookup(0x40, 120), Some(180), "the newer fetch wins");
        m.expire(180);
        assert_eq!(m.allocations(), m.released() + m.resident() as u64);
    }

    #[test]
    fn resident_does_not_expire() {
        let mut m = MshrFile::new(2);
        m.allocate(0x40, 10, 0);
        // The entry is past its completion time, but the read-only view
        // must not release it.
        assert_eq!(m.resident(), 1);
        assert_eq!(m.released(), 0);
        assert!(m.has_free(50));
        assert_eq!(m.resident(), 0);
        assert_eq!(m.released(), 1);
    }
}
