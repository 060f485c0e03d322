//! Cross-structure invariant sanitizer.
//!
//! The checkers here validate conservation invariants that tie the
//! pipeline's redundant bookkeeping together — the counters the core
//! updates incrementally must always agree with the ground truth
//! recomputed from the ROB, the register file, the MSHR file, and the ACE
//! window sets. A single corrupted counter (a missed decrement on a
//! squash path, a leaked physical register, an unmatched MSHR release)
//! otherwise only surfaces as a wedged simulation or a silently skewed
//! statistic thousands of cycles later.
//!
//! The [`Sanitizer`] is deliberately dependency-free: every check takes
//! plain numbers, so `rar-core` and `rar-mem` can feed it their state
//! without this crate depending on them. It records the **first**
//! violation with enough context to debug it (invariant, cycle,
//! expected/actual, free-form detail) and ignores the rest — once one
//! invariant breaks, downstream noise is not useful.
//!
//! Checks are wired into the pipeline behind the `sanitize` feature of
//! `rar-core`; they only *read* simulator state, so a sanitized build
//! produces bit-identical statistics to a default build.

use std::fmt;

/// The invariant catalogue (see DESIGN.md §10 for derivations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// Every uop dispatched into the back-end is eventually committed or
    /// squashed: `dispatched + carried = committed + squashed + in_flight`
    /// (`carried` re-baselines entries in flight across a measurement
    /// reset).
    UopConservation,
    /// Physical-register conservation per class:
    /// `free + RAT-mapped + in-flight old mappings = total`.
    PrfLeak,
    /// ROB entries are age-ordered: sequence numbers strictly increase
    /// from head to tail.
    RobAgeOrder,
    /// The issue-queue list holds exactly the ROB's un-issued entries in
    /// age order, the incrementally-maintained LQ/SQ occupancy counters
    /// match the ground truth recomputed from the ROB, and loads/stores
    /// stay within queue capacity in program order.
    LsqOrder,
    /// MSHR allocate/release balance:
    /// `allocations = releases + outstanding`, with `outstanding` and the
    /// high-water mark bounded by the capacity.
    MshrBalance,
    /// ACE stall-window balance: the pipeline's open/close call counts
    /// match the window set's closed-window count and open flag.
    WindowBalance,
}

impl Invariant {
    /// Short stable name, for diagnostics and logs.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Invariant::UopConservation => "uop-conservation",
            Invariant::PrfLeak => "prf-leak",
            Invariant::RobAgeOrder => "rob-age-order",
            Invariant::LsqOrder => "lsq-order",
            Invariant::MshrBalance => "mshr-balance",
            Invariant::WindowBalance => "window-balance",
        }
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A failed invariant, with enough context to debug the first failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant failed.
    pub invariant: Invariant,
    /// Simulated cycle at which the check failed.
    pub cycle: u64,
    /// The value the invariant requires.
    pub expected: i128,
    /// The value actually observed.
    pub actual: i128,
    /// Free-form context: which structure, which register class, the
    /// contributing terms.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant {} violated at cycle {}: expected {}, got {} ({})",
            self.invariant, self.cycle, self.expected, self.actual, self.detail
        )
    }
}

/// First-violation collector plus the bookkeeping the window-balance and
/// conservation checks need across cycles.
#[derive(Debug, Clone, Default)]
pub struct Sanitizer {
    first: Option<Violation>,
    /// In-flight uops carried across the last measurement reset (their
    /// dispatch was counted before the reset zeroed the stats).
    carried_in_flight: u64,
    /// Stall-window open/close calls observed, per window kind.
    window_opens: Vec<u64>,
    window_closes: Vec<u64>,
}

impl Sanitizer {
    /// A fresh sanitizer tracking `window_kinds` stall-window kinds.
    #[must_use]
    pub fn new(window_kinds: usize) -> Self {
        Sanitizer {
            first: None,
            carried_in_flight: 0,
            window_opens: vec![0; window_kinds],
            window_closes: vec![0; window_kinds],
        }
    }

    /// The first violation observed, if any.
    #[must_use]
    pub fn first_violation(&self) -> Option<&Violation> {
        self.first.as_ref()
    }

    /// Re-baselines after a measurement reset: `in_flight` uops currently
    /// in the ROB were dispatched before the statistics were zeroed, and
    /// the window counters restart with the fresh ACE counter.
    pub fn reset_measurement(&mut self, in_flight: u64) {
        self.carried_in_flight = in_flight;
        self.window_opens.iter_mut().for_each(|c| *c = 0);
        self.window_closes.iter_mut().for_each(|c| *c = 0);
    }

    fn record(&mut self, v: Violation) {
        if self.first.is_none() {
            self.first = Some(v);
        }
    }

    fn check_eq(
        &mut self,
        invariant: Invariant,
        cycle: u64,
        expected: i128,
        actual: i128,
        detail: impl FnOnce() -> String,
    ) {
        if expected != actual {
            self.record(Violation {
                invariant,
                cycle,
                expected,
                actual,
                detail: detail(),
            });
        }
    }

    /// Uop conservation: everything dispatched is committed, squashed, or
    /// still in flight.
    pub fn check_uop_conservation(
        &mut self,
        cycle: u64,
        dispatched: u64,
        committed: u64,
        squashed: u64,
        in_flight: u64,
    ) {
        let carried = self.carried_in_flight;
        let expected = i128::from(dispatched) + i128::from(carried);
        let actual = i128::from(committed) + i128::from(squashed) + i128::from(in_flight);
        self.check_eq(Invariant::UopConservation, cycle, expected, actual, || {
            format!(
                "dispatched={dispatched} carried={carried} committed={committed} \
                 squashed={squashed} in_flight={in_flight}"
            )
        });
    }

    /// Physical-register conservation for one register class.
    pub fn check_prf(
        &mut self,
        cycle: u64,
        class: &str,
        free: usize,
        rat_mapped: usize,
        in_flight_old: usize,
        total: usize,
    ) {
        let actual = free + rat_mapped + in_flight_old;
        self.check_eq(
            Invariant::PrfLeak,
            cycle,
            total as i128,
            actual as i128,
            || {
                format!(
                    "{class}: free={free} rat_mapped={rat_mapped} \
                     in_flight_old={in_flight_old} total={total}"
                )
            },
        );
    }

    /// ROB age ordering: `seqs` must be strictly increasing head→tail.
    pub fn check_rob_order(&mut self, cycle: u64, seqs: impl IntoIterator<Item = u64>) {
        let mut prev: Option<u64> = None;
        for (pos, seq) in seqs.into_iter().enumerate() {
            if let Some(p) = prev {
                if seq <= p {
                    self.record(Violation {
                        invariant: Invariant::RobAgeOrder,
                        cycle,
                        expected: i128::from(p) + 1,
                        actual: i128::from(seq),
                        detail: format!("entry {pos} has seq {seq} after seq {p}"),
                    });
                    return;
                }
            }
            prev = Some(seq);
        }
    }

    /// A view of the issue queue (`what`: its residents, or the ones
    /// selected to issue) versus the same view recomputed from the ROB,
    /// both as sequence numbers, oldest first.
    pub fn check_issue_queue(
        &mut self,
        cycle: u64,
        what: &str,
        iq: impl IntoIterator<Item = u64>,
        rob: impl IntoIterator<Item = u64>,
    ) {
        let (mut iq, mut rob) = (iq.into_iter(), rob.into_iter());
        for pos in 0.. {
            let (actual, expected) = (iq.next(), rob.next());
            if actual == expected {
                if actual.is_none() {
                    return;
                }
                continue;
            }
            let show = |s: Option<u64>| s.map_or_else(|| "none".to_string(), |s| s.to_string());
            self.record(Violation {
                invariant: Invariant::LsqOrder,
                cycle,
                expected: expected.map_or(-1, i128::from),
                actual: actual.map_or(-1, i128::from),
                detail: format!(
                    "{what} {pos}: seq {} in the issue queue, seq {} from the ROB",
                    show(actual),
                    show(expected)
                ),
            });
            return;
        }
    }

    /// LQ/SQ occupancy counters versus ground truth from the ROB.
    #[allow(clippy::too_many_arguments)]
    pub fn check_queue_counts(
        &mut self,
        cycle: u64,
        lq_count: usize,
        sq_count: usize,
        rob_loads: usize,
        rob_stores: usize,
        lq_capacity: usize,
        sq_capacity: usize,
    ) {
        self.check_eq(
            Invariant::LsqOrder,
            cycle,
            rob_loads as i128,
            lq_count as i128,
            || format!("lq counter {lq_count} != {rob_loads} loads in ROB"),
        );
        self.check_eq(
            Invariant::LsqOrder,
            cycle,
            rob_stores as i128,
            sq_count as i128,
            || format!("sq counter {sq_count} != {rob_stores} stores in ROB"),
        );
        if lq_count > lq_capacity {
            self.record(Violation {
                invariant: Invariant::LsqOrder,
                cycle,
                expected: lq_capacity as i128,
                actual: lq_count as i128,
                detail: format!("load queue over capacity ({lq_count} > {lq_capacity})"),
            });
        }
        if sq_count > sq_capacity {
            self.record(Violation {
                invariant: Invariant::LsqOrder,
                cycle,
                expected: sq_capacity as i128,
                actual: sq_count as i128,
                detail: format!("store queue over capacity ({sq_count} > {sq_capacity})"),
            });
        }
    }

    /// MSHR allocate/release balance and capacity bounds.
    pub fn check_mshr(
        &mut self,
        cycle: u64,
        allocations: u64,
        releases: u64,
        outstanding: usize,
        capacity: usize,
        peak: usize,
    ) {
        let actual = i128::from(releases) + outstanding as i128;
        self.check_eq(
            Invariant::MshrBalance,
            cycle,
            i128::from(allocations),
            actual,
            || format!("allocations={allocations} releases={releases} outstanding={outstanding}"),
        );
        if outstanding > capacity || peak > capacity {
            self.record(Violation {
                invariant: Invariant::MshrBalance,
                cycle,
                expected: capacity as i128,
                actual: outstanding.max(peak) as i128,
                detail: format!(
                    "MSHR occupancy over capacity (outstanding={outstanding} \
                     peak={peak} capacity={capacity})"
                ),
            });
        }
    }

    /// Counts one stall-window open call of window kind `kind`.
    pub fn note_window_open(&mut self, kind: usize) {
        self.window_opens[kind] += 1;
    }

    /// Counts one stall-window close call of window kind `kind`.
    pub fn note_window_close(&mut self, kind: usize) {
        self.window_closes[kind] += 1;
    }

    /// Window balance for kind `kind`: the pipeline's call counts must
    /// match the ACE counter's closed-window count and open flag.
    pub fn check_windows(&mut self, cycle: u64, kind: usize, closed_windows: u64, open_now: bool) {
        let opens = self.window_opens[kind];
        let closes = self.window_closes[kind];
        self.check_eq(
            Invariant::WindowBalance,
            cycle,
            i128::from(closes) + i128::from(open_now),
            i128::from(opens),
            || format!("kind {kind}: opens={opens} closes={closes} open_now={open_now}"),
        );
        self.check_eq(
            Invariant::WindowBalance,
            cycle,
            i128::from(closes),
            i128::from(closed_windows),
            || format!("kind {kind}: close calls {closes} != {closed_windows} recorded windows"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_records_nothing() {
        let mut s = Sanitizer::new(2);
        s.check_uop_conservation(10, 100, 60, 30, 10);
        s.check_prf(10, "int", 100, 32, 36, 168);
        s.check_rob_order(10, [1, 2, 5, 9]);
        s.check_issue_queue(10, "resident", [4, 6, 7], [4, 6, 7]);
        s.check_queue_counts(10, 2, 1, 2, 1, 64, 64);
        s.check_mshr(10, 50, 45, 5, 20, 18);
        s.note_window_open(0);
        s.check_windows(10, 0, 0, true);
        s.note_window_close(0);
        s.check_windows(11, 0, 1, false);
        assert_eq!(s.first_violation(), None);
    }

    #[test]
    fn seeded_uop_leak_is_caught() {
        let mut s = Sanitizer::new(2);
        // One uop vanished: dispatched 100, accounted 99.
        s.check_uop_conservation(42, 100, 60, 30, 9);
        let v = s.first_violation().expect("violation");
        assert_eq!(v.invariant, Invariant::UopConservation);
        assert_eq!(v.cycle, 42);
        assert_eq!(v.expected, 100);
        assert_eq!(v.actual, 99);
    }

    #[test]
    fn seeded_free_list_leak_is_caught() {
        let mut s = Sanitizer::new(2);
        // A register was double-allocated: 167 accounted for out of 168.
        s.check_prf(7, "int", 99, 32, 36, 168);
        let v = s.first_violation().expect("violation");
        assert_eq!(v.invariant, Invariant::PrfLeak);
        assert!(v.detail.contains("int"), "{}", v.detail);
        assert!(v.to_string().contains("prf-leak"));
    }

    #[test]
    fn seeded_mshr_leak_is_caught() {
        let mut s = Sanitizer::new(2);
        // An entry was released twice: releases + outstanding overshoots.
        s.check_mshr(99, 50, 47, 5, 20, 18);
        let v = s.first_violation().expect("violation");
        assert_eq!(v.invariant, Invariant::MshrBalance);
        assert_eq!(v.expected, 50);
        assert_eq!(v.actual, 52);
    }

    #[test]
    fn mshr_over_capacity_is_caught() {
        let mut s = Sanitizer::new(2);
        s.check_mshr(5, 25, 0, 25, 20, 25);
        let v = s.first_violation().expect("violation");
        assert_eq!(v.invariant, Invariant::MshrBalance);
    }

    #[test]
    fn rob_misordering_is_caught() {
        let mut s = Sanitizer::new(2);
        s.check_rob_order(3, [4, 5, 5]);
        let v = s.first_violation().expect("violation");
        assert_eq!(v.invariant, Invariant::RobAgeOrder);
        assert!(v.detail.contains("entry 2"), "{}", v.detail);
    }

    #[test]
    fn queue_counter_drift_is_caught() {
        let mut s = Sanitizer::new(2);
        s.check_queue_counts(8, 5, 1, 4, 1, 64, 64);
        let v = s.first_violation().expect("violation");
        assert_eq!(v.invariant, Invariant::LsqOrder);
        assert!(v.detail.contains("lq counter"), "{}", v.detail);
    }

    #[test]
    fn issue_queue_drift_is_caught() {
        // A lost removal: seq 5 issued but is still listed.
        let mut s = Sanitizer::new(2);
        s.check_issue_queue(9, "resident", [4, 5, 6], [4, 6]);
        let v = s.first_violation().expect("violation");
        assert_eq!(v.invariant, Invariant::LsqOrder);
        assert_eq!((v.expected, v.actual), (6, 5));
        assert!(v.detail.contains("resident 1"), "{}", v.detail);
        // A missing resident at the young end.
        let mut s = Sanitizer::new(2);
        s.check_issue_queue(9, "resident", [4], [4, 6]);
        let v = s.first_violation().expect("violation");
        assert_eq!((v.expected, v.actual), (6, -1));
    }

    #[test]
    fn unbalanced_windows_are_caught() {
        let mut s = Sanitizer::new(2);
        s.note_window_open(1);
        s.note_window_open(1);
        s.note_window_close(1);
        // Two opens, one close, but the window is reported closed.
        s.check_windows(12, 1, 1, false);
        let v = s.first_violation().expect("violation");
        assert_eq!(v.invariant, Invariant::WindowBalance);
    }

    #[test]
    fn only_first_violation_is_kept() {
        let mut s = Sanitizer::new(1);
        s.check_uop_conservation(1, 10, 5, 4, 0);
        s.check_prf(2, "fp", 0, 0, 0, 1);
        let v = s.first_violation().expect("violation");
        assert_eq!(v.invariant, Invariant::UopConservation);
        assert_eq!(v.cycle, 1);
    }

    #[test]
    fn reset_rebaselines_conservation_and_windows() {
        let mut s = Sanitizer::new(1);
        s.note_window_open(0);
        s.note_window_close(0);
        // Measurement reset with 7 uops still in flight.
        s.reset_measurement(7);
        s.check_uop_conservation(100, 20, 15, 2, 10);
        s.check_windows(100, 0, 0, false);
        assert_eq!(s.first_violation(), None);
    }
}
