//! PRE's runahead bookkeeping structures: the stalling slice table (SST)
//! and the precise register deallocation queue (PRDQ).
//!
//! The SST remembers the program counters of instructions that belong to
//! the *backward slices* of LLC-missing loads — the chains that compute
//! future load addresses. During lean runahead, only SST-resident
//! instructions (and loads themselves) are executed; everything else is
//! skipped after fetch. The table is learned in normal mode: whenever a
//! load turns out to miss the LLC, the core walks its in-flight producers
//! and inserts their PCs.
//!
//! The PRDQ bounds how many physical registers runahead execution may hold
//! at once; our timing model uses it as a concurrency cap on in-flight
//! runahead slice operations.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Fully-associative, LRU table of slice program counters.
///
/// A PC → slot index answers lookups without scanning; only eviction
/// scans for the least recently used slot.
///
/// # Examples
///
/// ```
/// use rar_core::sst::Sst;
/// let mut sst = Sst::new(4);
/// sst.insert(0x100);
/// assert!(sst.contains(0x100));
/// assert!(!sst.contains(0x104));
/// ```
#[derive(Debug, Clone)]
pub struct Sst {
    entries: Vec<(u64, u64)>, // (pc, last_use)
    /// Each resident PC's lowest slot in `entries`.
    slots: HashMap<u64, usize, BuildHasherDefault<PcHasher>>,
    capacity: usize,
    tick: u64,
    hits: u64,
    lookups: u64,
}

impl Sst {
    /// Creates an empty table with `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Sst {
            entries: Vec::with_capacity(capacity),
            slots: HashMap::with_capacity_and_hasher(capacity, BuildHasherDefault::default()),
            capacity,
            tick: 0,
            hits: 0,
            lookups: 0,
        }
    }

    /// Inserts `pc`, evicting the LRU entry when full.
    pub fn insert(&mut self, pc: u64) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(&i) = self.slots.get(&pc) {
            self.entries[i].1 = tick;
            return;
        }
        if self.entries.len() < self.capacity {
            self.slots.insert(pc, self.entries.len());
            self.entries.push((pc, tick));
            return;
        }
        let (victim, _) = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, (_, t))| *t)
            .expect("capacity is nonzero");
        let evicted = self.entries[victim].0;
        self.entries[victim] = (pc, tick);
        self.slots.insert(pc, victim);
        if self.slots.get(&evicted) == Some(&victim) {
            // A corrupted tag may duplicate `evicted` in a higher slot.
            match self.entries.iter().position(|(p, _)| *p == evicted) {
                Some(i) => self.slots.insert(evicted, i),
                None => self.slots.remove(&evicted),
            };
        }
    }

    /// True if `pc` belongs to a known stalling slice; refreshes LRU and
    /// counts a lookup.
    pub fn contains(&mut self, pc: u64) -> bool {
        self.tick += 1;
        self.lookups += 1;
        if let Some(&i) = self.slots.get(&pc) {
            self.entries[i].1 = self.tick;
            self.hits += 1;
            true
        } else {
            false
        }
    }

    /// Resident slice PCs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no slices have been learned yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// (hits, lookups) telemetry.
    #[must_use]
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.lookups)
    }

    /// Fault injection: flips bit `bit` of the `idx`-th resident PC tag.
    /// Returns `false` when the addressed slot is vacant. The corrupted
    /// tag changes future slice-membership decisions only — the SST is
    /// pure prefetch metadata, so the architectural effect is timing.
    /// The flip can duplicate another slot's tag; lookups then hit the
    /// lowest such slot.
    pub fn corrupt_entry(&mut self, idx: usize, bit: u64) -> bool {
        let Some(e) = self.entries.get_mut(idx) else {
            return false;
        };
        e.0 ^= 1 << (bit % 48);
        self.slots.clear();
        for (i, &(pc, _)) in self.entries.iter().enumerate() {
            self.slots.entry(pc).or_insert(i);
        }
        true
    }
}

/// Multiplicative hashing for the SST's PC keys (no dependency, and PCs
/// come from the simulated program, not from outside input).
#[derive(Debug, Default, Clone, Copy)]
struct PcHasher(u64);

impl Hasher for PcHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        // The product's high half depends on every key bit; fold it into
        // the low bits the table indexes with.
        self.0 ^ (self.0 >> 32)
    }
}

/// The precise register deallocation queue: a counter-semantics model of
/// PRE's runahead register recycling. Runahead slice operations hold an
/// entry from pseudo-issue until their (pseudo-)release; when the queue is
/// full, runahead execution stalls.
#[derive(Debug, Clone)]
pub struct Prdq {
    capacity: usize,
    /// Release times of in-flight runahead operations.
    inflight: Vec<u64>,
    peak: usize,
}

impl Prdq {
    /// Creates an empty queue with `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Prdq {
            capacity,
            inflight: Vec::new(),
            peak: 0,
        }
    }

    /// Tries to admit a runahead operation releasing at `release_at`.
    /// Returns `false` when the queue is full at `now`.
    pub fn try_push(&mut self, now: u64, release_at: u64) -> bool {
        self.inflight.retain(|&r| r > now);
        if self.inflight.len() >= self.capacity {
            return false;
        }
        self.inflight.push(release_at);
        self.peak = self.peak.max(self.inflight.len());
        true
    }

    /// Empties the queue (runahead exit).
    pub fn clear(&mut self) {
        self.inflight.clear();
    }

    /// High-water mark of simultaneously-held entries.
    #[must_use]
    pub fn peak(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_contains() {
        let mut sst = Sst::new(8);
        sst.insert(0x40);
        assert!(sst.contains(0x40));
        assert!(!sst.contains(0x44));
        assert_eq!(sst.hit_stats(), (1, 2));
    }

    #[test]
    fn lru_eviction() {
        let mut sst = Sst::new(2);
        sst.insert(0x10);
        sst.insert(0x20);
        assert!(sst.contains(0x10)); // refresh 0x10
        sst.insert(0x30); // evicts 0x20
        assert!(sst.contains(0x10));
        assert!(!sst.contains(0x20));
        assert!(sst.contains(0x30));
    }

    #[test]
    fn reinsert_refreshes_not_duplicates() {
        let mut sst = Sst::new(2);
        sst.insert(0x10);
        sst.insert(0x10);
        assert_eq!(sst.len(), 1);
    }

    /// The linear-scan table the PC index replaced: the reference the
    /// seeded twin compares against.
    struct LinearSst {
        entries: Vec<(u64, u64)>,
        capacity: usize,
        tick: u64,
        hits: u64,
        lookups: u64,
    }

    impl LinearSst {
        fn insert(&mut self, pc: u64) {
            self.tick += 1;
            let tick = self.tick;
            if let Some(e) = self.entries.iter_mut().find(|(p, _)| *p == pc) {
                e.1 = tick;
                return;
            }
            if self.entries.len() < self.capacity {
                self.entries.push((pc, tick));
                return;
            }
            let lru = self
                .entries
                .iter_mut()
                .min_by_key(|(_, t)| *t)
                .expect("capacity is nonzero");
            *lru = (pc, tick);
        }

        fn contains(&mut self, pc: u64) -> bool {
            self.tick += 1;
            self.lookups += 1;
            if let Some(e) = self.entries.iter_mut().find(|(p, _)| *p == pc) {
                e.1 = self.tick;
                self.hits += 1;
                true
            } else {
                false
            }
        }

        fn corrupt_entry(&mut self, idx: usize, bit: u64) -> bool {
            match self.entries.get_mut(idx) {
                Some(e) => {
                    e.0 ^= 1 << (bit % 48);
                    true
                }
                None => false,
            }
        }
    }

    #[test]
    fn indexed_table_matches_the_linear_scan() {
        // Few distinct PCs one bit apart, so small tables evict constantly
        // and corrupted tags often duplicate resident ones.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut rand = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        for capacity in [1, 2, 3, 5, 8] {
            let mut sst = Sst::new(capacity);
            let mut reference = LinearSst {
                entries: Vec::new(),
                capacity,
                tick: 0,
                hits: 0,
                lookups: 0,
            };
            for step in 0..20_000 {
                let pc = 0x400 + rand(12) * 4;
                match rand(10) {
                    0..=3 => {
                        sst.insert(pc);
                        reference.insert(pc);
                    }
                    4 => {
                        let (idx, bit) = (rand(capacity as u64 + 1) as usize, 2 + rand(3));
                        assert_eq!(
                            sst.corrupt_entry(idx, bit),
                            reference.corrupt_entry(idx, bit),
                            "capacity {capacity} step {step}"
                        );
                    }
                    _ => assert_eq!(
                        sst.contains(pc),
                        reference.contains(pc),
                        "capacity {capacity} step {step}"
                    ),
                }
                assert_eq!(
                    sst.entries, reference.entries,
                    "capacity {capacity} step {step}"
                );
                assert_eq!(sst.hit_stats(), (reference.hits, reference.lookups));
                assert_eq!(sst.len(), reference.entries.len());
            }
        }
    }

    #[test]
    fn prdq_bounds_inflight() {
        let mut q = Prdq::new(2);
        assert!(q.try_push(0, 100));
        assert!(q.try_push(0, 200));
        assert!(!q.try_push(0, 300), "full");
        assert!(q.try_push(100, 300), "released at 100");
        assert_eq!(q.peak(), 2);
    }

    #[test]
    fn prdq_clear() {
        let mut q = Prdq::new(1);
        assert!(q.try_push(0, 1_000));
        q.clear();
        assert!(q.try_push(1, 1_000));
    }
}
