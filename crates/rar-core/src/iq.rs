//! The issue queue: the ROB's un-issued entries, oldest first, and the
//! register ready-time scoreboard they wake from.
//!
//! Each resident carries what issue selection reads — the entry's
//! sequence number and the flat indices of its physical source registers —
//! so selection scans this short list and the register ready-times instead
//! of every ROB entry. The core updates the list wherever an entry enters
//! or leaves the scheduler: dispatch, issue, commit, squashes, flushes and
//! injected "lost valid bit" strikes.
//!
//! A scan that finds no ready resident records the earliest cycle any
//! resident can become ready ([`IssueQueue::quiet_until`]); scans before
//! that cycle are skipped. Every change to the residents or to a ready
//! time forgets the bound, which is why the ready times live here, behind
//! methods, rather than in the core.

use crate::regfile::PhysReg;
use std::collections::VecDeque;

/// Marks an absent source in [`Resident::srcs`].
const NO_SRC: u32 = u32::MAX;

/// One un-issued entry.
#[derive(Debug, Clone, Copy)]
struct Resident {
    seq: u64,
    /// Flat physical-register indices of the sources, or [`NO_SRC`].
    srcs: [u32; 2],
}

/// The issue-queue residents in age order.
#[derive(Debug)]
pub(crate) struct IssueQueue {
    residents: VecDeque<Resident>,
    /// Ready cycle per flat physical register (0 = ready, `u64::MAX` =
    /// pending without a known completion yet).
    ready_at: Vec<u64>,
    /// No resident is ready before this cycle (0 = unknown: scan).
    quiet_until: u64,
}

impl IssueQueue {
    /// An empty queue with room for `capacity` residents, waking from
    /// `regs` physical registers that are all ready.
    #[must_use]
    pub(crate) fn new(capacity: usize, regs: usize) -> Self {
        IssueQueue {
            residents: VecDeque::with_capacity(capacity),
            ready_at: vec![0; regs],
            quiet_until: 0,
        }
    }

    /// Residents (the issue queue's occupancy).
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.residents.len()
    }

    /// The cycle at which flat register `reg` is ready.
    #[must_use]
    pub(crate) fn ready_at(&self, reg: usize) -> u64 {
        self.ready_at[reg]
    }

    /// Sets flat register `reg`'s ready cycle.
    pub(crate) fn set_ready(&mut self, reg: usize, cycle: u64) {
        self.ready_at[reg] = cycle;
        self.quiet_until = 0;
    }

    /// Marks every register ready (a flush rebuilt the rename state).
    pub(crate) fn reset_ready(&mut self) {
        self.ready_at.fill(0);
        self.quiet_until = 0;
    }

    /// No resident can be ready before this cycle: set by a selection
    /// scan that found none ready, 0 when unknown, `u64::MAX` when every
    /// resident waits on a producer that has not issued.
    #[must_use]
    pub(crate) fn quiet_until(&self) -> u64 {
        self.quiet_until
    }

    /// Adds the youngest entry, `seq`, with its renamed sources.
    /// `int_regs` is the integer register count that
    /// [`PhysReg::flat`] offsets floating-point registers by.
    pub(crate) fn push(&mut self, seq: u64, srcs: &[Option<PhysReg>; 2], int_regs: usize) {
        debug_assert!(
            self.residents.back().is_none_or(|r| r.seq < seq),
            "issue-queue residents must arrive in age order"
        );
        let flat = |p: Option<PhysReg>| {
            p.map_or(NO_SRC, |p| {
                u32::try_from(p.flat(int_regs)).expect("register index fits in u32")
            })
        };
        self.residents.push_back(Resident {
            seq,
            srcs: [flat(srcs[0]), flat(srcs[1])],
        });
        self.quiet_until = 0;
    }

    /// Fills `out` (cleared first) with the sequence numbers of the first
    /// `limit` residents, oldest first, whose sources are all ready at
    /// `now`. When there are none, remembers the earliest known cycle one
    /// can be, and skips the scan until then.
    pub(crate) fn select_ready(&mut self, now: u64, limit: usize, out: &mut Vec<u64>) {
        out.clear();
        if now < self.quiet_until {
            return;
        }
        let src_ready = |p: u32| {
            if p == NO_SRC {
                0
            } else {
                self.ready_at[p as usize]
            }
        };
        let mut earliest = u64::MAX;
        for r in &self.residents {
            if out.len() >= limit {
                break;
            }
            let ready = src_ready(r.srcs[0]).max(src_ready(r.srcs[1]));
            if ready <= now {
                out.push(r.seq);
            } else {
                earliest = earliest.min(ready);
            }
        }
        self.quiet_until = if out.is_empty() { earliest } else { 0 };
    }

    /// Sequence number of the `idx`-th oldest resident.
    #[must_use]
    pub(crate) fn nth(&self, idx: usize) -> Option<u64> {
        self.residents.get(idx).map(|r| r.seq)
    }

    /// Sequence numbers of the residents, oldest first.
    #[cfg(any(test, feature = "sanitize"))]
    pub(crate) fn seqs(&self) -> impl Iterator<Item = u64> + '_ {
        self.residents.iter().map(|r| r.seq)
    }

    /// Removes `seq` from the queue, if resident.
    pub(crate) fn remove(&mut self, seq: u64) {
        if let Ok(i) = self.residents.binary_search_by_key(&seq, |r| r.seq) {
            self.residents.remove(i);
        }
        self.quiet_until = 0;
    }

    /// Removes every resident younger than `seq` (a squash behind it).
    pub(crate) fn squash_after(&mut self, seq: u64) {
        let keep = self.residents.partition_point(|r| r.seq <= seq);
        self.residents.truncate(keep);
        self.quiet_until = 0;
    }

    /// Removes every resident (a full flush).
    pub(crate) fn clear(&mut self) {
        self.residents.clear();
        self.quiet_until = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rar_isa::RegClass;

    fn int(index: u16) -> PhysReg {
        PhysReg {
            class: RegClass::Int,
            index,
        }
    }

    /// A queue over 16 registers holding `seqs`, resident `s` reading
    /// register `s`.
    fn queue(seqs: std::ops::Range<u64>) -> IssueQueue {
        let mut iq = IssueQueue::new(8, 16);
        for seq in seqs {
            iq.push(seq, &[Some(int(seq as u16)), None], 8);
        }
        iq
    }

    #[test]
    fn selection_is_oldest_first_and_bounded() {
        let mut iq = queue(0..6);
        iq.set_ready(1, 50); // seq 1 waits
        let mut out = Vec::new();
        iq.select_ready(10, 3, &mut out);
        assert_eq!(out, [0, 2, 3]);
        iq.select_ready(50, 8, &mut out);
        assert_eq!(out, [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn floating_point_sources_use_the_flat_offset() {
        let mut iq = IssueQueue::new(2, 16);
        let fp = Some(PhysReg {
            class: RegClass::Fp,
            index: 2,
        });
        iq.push(0, &[fp, None], 8);
        iq.set_ready(8 + 2, 30);
        let mut out = Vec::new();
        iq.select_ready(29, 4, &mut out);
        assert!(out.is_empty());
        iq.select_ready(30, 4, &mut out);
        assert_eq!(out, [0]);
    }

    #[test]
    fn removal_squash_and_flush_keep_age_order() {
        let mut iq = IssueQueue::new(8, 16);
        for seq in 10..16 {
            iq.push(seq, &[None, None], 8);
        }
        iq.remove(12);
        iq.remove(12);
        iq.remove(99);
        assert_eq!(iq.seqs().collect::<Vec<_>>(), [10, 11, 13, 14, 15]);
        iq.squash_after(13);
        assert_eq!(iq.seqs().collect::<Vec<_>>(), [10, 11, 13]);
        assert_eq!(iq.nth(2), Some(13));
        assert_eq!(iq.nth(3), None);
        iq.squash_after(5);
        assert_eq!(iq.len(), 0);
        iq.push(3, &[None, None], 8);
        iq.clear();
        assert_eq!(iq.len(), 0);
    }

    #[test]
    fn an_idle_scan_records_the_earliest_finite_ready_time() {
        let mut iq = queue(0..3);
        iq.set_ready(0, u64::MAX); // producer not issued yet
        iq.set_ready(1, 40);
        iq.set_ready(2, 25);
        let mut out = Vec::new();
        iq.select_ready(10, 4, &mut out);
        assert!(out.is_empty());
        assert_eq!(iq.quiet_until(), 25);
        iq.select_ready(24, 4, &mut out);
        assert!(out.is_empty(), "skipped scan");
        iq.select_ready(25, 4, &mut out);
        assert_eq!(out, [2]);
        assert_eq!(
            iq.quiet_until(),
            0,
            "a scan with candidates records nothing"
        );

        let mut waiting = queue(0..1);
        waiting.set_ready(0, u64::MAX);
        waiting.select_ready(10, 4, &mut out);
        assert_eq!(
            waiting.quiet_until(),
            u64::MAX,
            "nothing can wake on its own"
        );
    }

    #[test]
    fn every_mutation_and_ready_time_write_forgets_the_wake() {
        let idle = || {
            let mut iq = queue(0..2);
            iq.set_ready(0, 90);
            iq.set_ready(1, 80);
            iq.select_ready(10, 4, &mut Vec::new());
            assert_eq!(iq.quiet_until(), 80);
            iq
        };
        type Mutation = (&'static str, fn(&mut IssueQueue));
        let mutations: [Mutation; 7] = [
            ("push", |iq| iq.push(5, &[None, None], 8)),
            ("remove", |iq| iq.remove(1)),
            ("remove absent", |iq| iq.remove(9)),
            ("squash", |iq| iq.squash_after(0)),
            ("clear", IssueQueue::clear),
            ("set_ready", |iq| iq.set_ready(1, 12)),
            ("reset_ready", IssueQueue::reset_ready),
        ];
        for (name, mutate) in mutations {
            let mut iq = idle();
            mutate(&mut iq);
            assert_eq!(iq.quiet_until(), 0, "{name}");
        }
    }

    #[test]
    fn a_cached_wake_never_hides_a_ready_resident() {
        // Seeded random pushes, removals and ready-time writes; after each
        // step the cached selection must equal a fresh scan's.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut rand = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let mut iq = IssueQueue::new(8, 16);
        let mut next_seq = 0;
        let mut out = Vec::new();
        for now in 0..5_000u64 {
            match rand(6) {
                0 if iq.len() < 8 => {
                    let src = |r: u64| (r < 16).then(|| int(r as u16));
                    iq.push(next_seq, &[src(rand(20)), src(rand(20))], 8);
                    next_seq += 1;
                }
                1 => iq.remove(next_seq.saturating_sub(1 + rand(8))),
                2 => {
                    let at = match rand(3) {
                        0 => u64::MAX,
                        _ => now + rand(40),
                    };
                    iq.set_ready(rand(16) as usize, at);
                }
                _ => {}
            }
            iq.select_ready(now, 4, &mut out);
            let mut fresh = IssueQueue {
                residents: iq.residents.clone(),
                ready_at: iq.ready_at.clone(),
                quiet_until: 0,
            };
            let mut expected = Vec::new();
            fresh.select_ready(now, 4, &mut expected);
            assert_eq!(out, expected, "cycle {now}");
        }
    }
}
