//! The per-run ACE accumulator.

use crate::structure::Structure;
use crate::window::{StallKind, WindowSet};

/// One committed occupancy interval, as recorded by
/// [`AceCounter::with_logging`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoggedInterval {
    /// Structure the bits lived in.
    pub structure: Structure,
    /// Vulnerable bits held.
    pub bits: u64,
    /// First vulnerable cycle (inclusive).
    pub start: u64,
    /// Last vulnerable cycle (exclusive).
    pub end: u64,
}

/// Accumulates ACE bit-cycles per structure, with stall-window attribution.
///
/// The core calls [`AceCounter::record_committed`] once per resource
/// interval *at commit time* (squash-terminated intervals are never
/// reported, making them un-ACE by construction), and opens/closes stall
/// windows as long-latency misses block commit.
///
/// # Examples
///
/// ```
/// use rar_ace::{AceCounter, Structure};
/// let mut ace = AceCounter::new();
/// ace.record_committed(Structure::Iq, 80, 10, 15);
/// assert_eq!(ace.abc(Structure::Iq), 400);
/// assert_eq!(ace.total_abc(), 400);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AceCounter {
    abc: [u128; Structure::COUNT],
    /// Statically-proven dynamically-dead bit-cycles, a subset of `abc`.
    /// Populated by [`AceCounter::record_dead`] when the core runs the
    /// `rar-verify` dead-value refinement; stays zero otherwise, so the
    /// unrefined (paper) figures are unchanged by default.
    dead_abc: [u128; Structure::COUNT],
    /// Bit-granular dead bit-cycles, a superset of `dead_abc` and a
    /// subset of `abc`. Populated by [`AceCounter::record_dead_bits`]
    /// when the core runs the bit-level (`rar-verify` bitlive)
    /// refinement; stays zero otherwise.
    bit_dead_abc: [u128; Structure::COUNT],
    windows: [WindowSet; StallKind::COUNT],
    abc_in_window: [u128; StallKind::COUNT],
    /// When `Some`, every committed interval is also recorded for
    /// phase analysis (see [`crate::phase`]).
    log: Option<Vec<LoggedInterval>>,
}

impl AceCounter {
    /// Creates a zeroed counter.
    #[must_use]
    pub fn new() -> Self {
        AceCounter::default()
    }

    /// Records a committed (ACE) resource interval: `bits` vulnerable bits
    /// held from cycle `start` (inclusive) to `end` (exclusive).
    ///
    /// Also attributes the interval's overlap with every currently-known
    /// stall window, for the Figure 5 breakdown.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `end < start`.
    pub fn record_committed(&mut self, structure: Structure, bits: u64, start: u64, end: u64) {
        debug_assert!(end >= start, "interval ends before it starts");
        if end <= start {
            return;
        }
        let cycles = end - start;
        self.abc[structure.index()] += u128::from(bits) * u128::from(cycles);
        if let Some(log) = &mut self.log {
            log.push(LoggedInterval {
                structure,
                bits,
                start,
                end,
            });
        }
        for kind in [StallKind::FullRobStall, StallKind::RobHeadBlocked] {
            let ov = self.windows[kind.index()].overlap(start, end);
            self.abc_in_window[kind.index()] += u128::from(bits) * u128::from(ov);
        }
    }

    /// Records that `dead_bits` of an interval previously reported via
    /// [`AceCounter::record_committed`] are dynamically dead (never read
    /// before overwrite), per the static un-ACE refinement. The caller must
    /// pass the same `[start, end)` interval and `dead_bits <= bits`, which
    /// keeps the refined ABC a lower bound of the unrefined one.
    pub fn record_dead(&mut self, structure: Structure, dead_bits: u64, start: u64, end: u64) {
        debug_assert!(end >= start, "interval ends before it starts");
        if end <= start || dead_bits == 0 {
            return;
        }
        let cycles = end - start;
        self.dead_abc[structure.index()] += u128::from(dead_bits) * u128::from(cycles);
        debug_assert!(
            self.dead_abc[structure.index()] <= self.abc[structure.index()],
            "dead bit-cycles exceed recorded ACE bit-cycles"
        );
    }

    /// Records that `dead_bits` of an interval previously reported via
    /// [`AceCounter::record_committed`] are dead under the *bit-level*
    /// refinement. The caller passes the same `[start, end)` interval;
    /// the count must dominate the word-level `record_dead` figure for
    /// the same interval (the per-value masks are constructed that
    /// way), which keeps `bit_refined <= refined <= unrefined`.
    pub fn record_dead_bits(&mut self, structure: Structure, dead_bits: u64, start: u64, end: u64) {
        debug_assert!(end >= start, "interval ends before it starts");
        if end <= start || dead_bits == 0 {
            return;
        }
        let cycles = end - start;
        self.bit_dead_abc[structure.index()] += u128::from(dead_bits) * u128::from(cycles);
        debug_assert!(
            self.bit_dead_abc[structure.index()] <= self.abc[structure.index()],
            "bit-dead bit-cycles exceed recorded ACE bit-cycles"
        );
    }

    /// Opens a stall window of the given kind at `cycle`.
    pub fn open_window(&mut self, kind: StallKind, cycle: u64) {
        self.windows[kind.index()].open(cycle);
    }

    /// Closes the stall window of the given kind at `cycle`, returning the
    /// recorded `(start, end)` interval (if any) so callers can forward the
    /// closed window to observability sinks.
    pub fn close_window(&mut self, kind: StallKind, cycle: u64) -> Option<(u64, u64)> {
        self.windows[kind.index()].close(cycle)
    }

    /// True if a window of `kind` is currently open.
    #[must_use]
    pub fn window_open(&self, kind: StallKind) -> bool {
        self.windows[kind.index()].is_open()
    }

    /// ACE bit-cycles accumulated in `structure`.
    #[must_use]
    pub fn abc(&self, structure: Structure) -> u128 {
        self.abc[structure.index()]
    }

    /// Total ACE bit-cycles across all structures (Equation 1).
    #[must_use]
    pub fn total_abc(&self) -> u128 {
        self.abc.iter().sum()
    }

    /// Dynamically-dead bit-cycles recorded against `structure`.
    #[must_use]
    pub fn dead_abc(&self, structure: Structure) -> u128 {
        self.dead_abc[structure.index()]
    }

    /// Refined ACE bit-cycles in `structure`: unrefined minus
    /// statically-proven dead. Equals the unrefined count when no
    /// refinement was recorded.
    #[must_use]
    pub fn refined_abc(&self, structure: Structure) -> u128 {
        self.abc[structure.index()] - self.dead_abc[structure.index()]
    }

    /// Total refined ACE bit-cycles across all structures.
    #[must_use]
    pub fn total_refined_abc(&self) -> u128 {
        self.total_abc() - self.dead_abc.iter().sum::<u128>()
    }

    /// Per-structure refined ABC snapshot in [`Structure::ALL`] order.
    #[must_use]
    pub fn refined_abc_by_structure(&self) -> [u128; Structure::COUNT] {
        let mut out = self.abc;
        for (o, d) in out.iter_mut().zip(self.dead_abc.iter()) {
            *o -= d;
        }
        out
    }

    /// Bit-granular dead bit-cycles recorded against `structure`.
    #[must_use]
    pub fn bit_dead_abc(&self, structure: Structure) -> u128 {
        self.bit_dead_abc[structure.index()]
    }

    /// Bit-refined ACE bit-cycles in `structure`: unrefined minus the
    /// bit-granular dead mass. Never exceeds [`AceCounter::refined_abc`]
    /// when both refinements were recorded from the same analysis, and
    /// equals the unrefined count when none was.
    #[must_use]
    pub fn bit_refined_abc(&self, structure: Structure) -> u128 {
        self.abc[structure.index()] - self.bit_dead_abc[structure.index()]
    }

    /// Total bit-refined ACE bit-cycles across all structures.
    #[must_use]
    pub fn total_bit_refined_abc(&self) -> u128 {
        self.total_abc() - self.bit_dead_abc.iter().sum::<u128>()
    }

    /// Per-structure bit-refined ABC snapshot in [`Structure::ALL`] order.
    #[must_use]
    pub fn bit_refined_abc_by_structure(&self) -> [u128; Structure::COUNT] {
        let mut out = self.abc;
        for (o, d) in out.iter_mut().zip(self.bit_dead_abc.iter()) {
            *o -= d;
        }
        out
    }

    /// ACE bit-cycles that fell inside windows of `kind`.
    #[must_use]
    pub fn abc_in_window(&self, kind: StallKind) -> u128 {
        self.abc_in_window[kind.index()]
    }

    /// Total cycles spent inside closed windows of `kind`.
    #[must_use]
    pub fn window_cycles(&self, kind: StallKind) -> u64 {
        self.windows[kind.index()].total_cycles()
    }

    /// Number of closed windows of `kind` (e.g. distinct blocking misses).
    #[must_use]
    pub fn window_count(&self, kind: StallKind) -> usize {
        self.windows[kind.index()].len()
    }

    /// Per-structure ABC snapshot in [`Structure::ALL`] order.
    #[must_use]
    pub fn abc_by_structure(&self) -> [u128; Structure::COUNT] {
        self.abc
    }

    /// Creates a counter that additionally records every committed
    /// interval.
    #[must_use]
    pub fn with_logging() -> Self {
        let mut c = AceCounter::new();
        c.enable_logging();
        c
    }

    /// Starts recording committed intervals.
    pub fn enable_logging(&mut self) {
        if self.log.is_none() {
            self.log = Some(Vec::new());
        }
    }

    /// The recorded interval log (empty unless logging was enabled).
    #[must_use]
    pub fn interval_log(&self) -> &[LoggedInterval] {
        self.log.as_deref().unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_per_structure() {
        let mut ace = AceCounter::new();
        ace.record_committed(Structure::Rob, 120, 0, 10);
        ace.record_committed(Structure::Rob, 120, 10, 20);
        ace.record_committed(Structure::Sq, 184, 5, 6);
        assert_eq!(ace.abc(Structure::Rob), 120 * 20);
        assert_eq!(ace.abc(Structure::Sq), 184);
        assert_eq!(ace.total_abc(), 120 * 20 + 184);
    }

    #[test]
    fn empty_interval_is_ignored() {
        let mut ace = AceCounter::new();
        ace.record_committed(Structure::Iq, 80, 7, 7);
        assert_eq!(ace.total_abc(), 0);
    }

    #[test]
    fn window_attribution_partial_overlap() {
        let mut ace = AceCounter::new();
        ace.open_window(StallKind::RobHeadBlocked, 100);
        ace.close_window(StallKind::RobHeadBlocked, 200);
        ace.record_committed(Structure::Rob, 120, 150, 250);
        assert_eq!(ace.abc_in_window(StallKind::RobHeadBlocked), 120 * 50);
        assert_eq!(ace.abc_in_window(StallKind::FullRobStall), 0);
    }

    #[test]
    fn attribution_sees_open_window() {
        let mut ace = AceCounter::new();
        ace.open_window(StallKind::FullRobStall, 10);
        // Interval committed while the window is still open: for attribution
        // purposes the window covers everything up to the interval end.
        ace.record_committed(Structure::Lq, 120, 20, 30);
        assert_eq!(ace.abc_in_window(StallKind::FullRobStall), 120 * 10);
    }

    #[test]
    fn window_bookkeeping() {
        let mut ace = AceCounter::new();
        ace.open_window(StallKind::RobHeadBlocked, 0);
        assert!(ace.window_open(StallKind::RobHeadBlocked));
        ace.close_window(StallKind::RobHeadBlocked, 40);
        ace.open_window(StallKind::RobHeadBlocked, 50);
        ace.close_window(StallKind::RobHeadBlocked, 60);
        assert_eq!(ace.window_count(StallKind::RobHeadBlocked), 2);
        assert_eq!(ace.window_cycles(StallKind::RobHeadBlocked), 50);
    }

    #[test]
    fn refined_abc_subtracts_dead_bits() {
        let mut ace = AceCounter::new();
        ace.record_committed(Structure::RfInt, 64, 0, 10);
        ace.record_dead(Structure::RfInt, 16, 0, 10);
        assert_eq!(ace.abc(Structure::RfInt), 640);
        assert_eq!(ace.dead_abc(Structure::RfInt), 160);
        assert_eq!(ace.refined_abc(Structure::RfInt), 480);
        assert_eq!(ace.total_refined_abc(), 480);
        // Untouched structures are identical in both views.
        assert_eq!(ace.refined_abc(Structure::Rob), ace.abc(Structure::Rob));
    }

    #[test]
    fn refinement_defaults_to_unrefined() {
        let mut ace = AceCounter::new();
        ace.record_committed(Structure::Rob, 120, 0, 10);
        assert_eq!(ace.total_refined_abc(), ace.total_abc());
        assert_eq!(ace.refined_abc_by_structure(), ace.abc_by_structure());
        assert_eq!(ace.total_bit_refined_abc(), ace.total_abc());
        assert_eq!(ace.bit_refined_abc_by_structure(), ace.abc_by_structure());
    }

    #[test]
    fn bit_refined_abc_is_ordered_below_refined() {
        let mut ace = AceCounter::new();
        ace.record_committed(Structure::RfInt, 64, 0, 10);
        // Word level proves 16 dead bits; the bit level proves 40.
        ace.record_dead(Structure::RfInt, 16, 0, 10);
        ace.record_dead_bits(Structure::RfInt, 40, 0, 10);
        assert_eq!(ace.bit_dead_abc(Structure::RfInt), 400);
        assert_eq!(ace.bit_refined_abc(Structure::RfInt), 240);
        assert!(ace.bit_refined_abc(Structure::RfInt) <= ace.refined_abc(Structure::RfInt));
        assert!(ace.refined_abc(Structure::RfInt) <= ace.abc(Structure::RfInt));
        assert_eq!(ace.total_bit_refined_abc(), 240);
        assert_eq!(
            ace.bit_refined_abc_by_structure()[Structure::RfInt.index()],
            240
        );
    }

    #[test]
    fn attribution_never_exceeds_total() {
        let mut ace = AceCounter::new();
        ace.open_window(StallKind::RobHeadBlocked, 0);
        ace.close_window(StallKind::RobHeadBlocked, 1_000);
        ace.record_committed(Structure::Rob, 120, 100, 300);
        ace.record_committed(Structure::Iq, 80, 50, 120);
        assert!(ace.abc_in_window(StallKind::RobHeadBlocked) <= ace.total_abc());
    }
}
