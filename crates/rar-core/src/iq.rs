//! The issue queue: the ROB's un-issued entries, oldest first.
//!
//! Each resident carries what issue selection reads — the entry's
//! sequence number and the flat indices of its physical source registers —
//! so selection scans this short list and the register ready-times instead
//! of every ROB entry. The core updates the list wherever an entry enters
//! or leaves the scheduler: dispatch, issue, commit, squashes, flushes and
//! injected "lost valid bit" strikes.

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
}

impl IssueQueue {
    /// An empty queue with room for `capacity` residents.
    #[must_use]
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        IssueQueue {
            residents: VecDeque::with_capacity(capacity),
        }
    }

    /// Residents (the issue queue's occupancy).
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.residents.len()
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
    }

    /// Fills `out` (cleared first) with the sequence numbers of the first
    /// `limit` residents, oldest first, whose sources are all ready at
    /// `now`: `ready_at` holds each flat register's ready cycle.
    pub(crate) fn select_ready(
        &self,
        ready_at: &[u64],
        now: u64,
        limit: usize,
        out: &mut Vec<u64>,
    ) {
        out.clear();
        for r in &self.residents {
            if out.len() >= limit {
                break;
            }
            if r.srcs
                .iter()
                .all(|&p| p == NO_SRC || ready_at[p as usize] <= now)
            {
                out.push(r.seq);
            }
        }
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
    }

    /// Removes every resident younger than `seq` (a squash behind it).
    pub(crate) fn squash_after(&mut self, seq: u64) {
        let keep = self.residents.partition_point(|r| r.seq <= seq);
        self.residents.truncate(keep);
    }

    /// Removes every resident (a full flush).
    pub(crate) fn clear(&mut self) {
        self.residents.clear();
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

    #[test]
    fn selection_is_oldest_first_and_bounded() {
        let mut iq = IssueQueue::with_capacity(8);
        for seq in 0..6 {
            iq.push(seq, &[Some(int(seq as u16)), None], 8);
        }
        let mut ready_at = vec![0u64; 16];
        ready_at[1] = 50; // seq 1 waits
        let mut out = Vec::new();
        iq.select_ready(&ready_at, 10, 3, &mut out);
        assert_eq!(out, [0, 2, 3]);
        iq.select_ready(&ready_at, 50, 8, &mut out);
        assert_eq!(out, [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn floating_point_sources_use_the_flat_offset() {
        let mut iq = IssueQueue::with_capacity(2);
        let fp = Some(PhysReg {
            class: RegClass::Fp,
            index: 2,
        });
        iq.push(0, &[fp, None], 8);
        let mut ready_at = vec![0u64; 16];
        ready_at[8 + 2] = 30;
        let mut out = Vec::new();
        iq.select_ready(&ready_at, 29, 4, &mut out);
        assert!(out.is_empty());
        iq.select_ready(&ready_at, 30, 4, &mut out);
        assert_eq!(out, [0]);
    }

    #[test]
    fn removal_squash_and_flush_keep_age_order() {
        let mut iq = IssueQueue::with_capacity(8);
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
}
