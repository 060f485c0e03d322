//! Append-only stall-window sets for the Figure 5 attribution analysis.
//!
//! The core opens a window when a long-latency load miss blocks commit at
//! the ROB head (or when the ROB additionally fills up) and closes it when
//! the load returns. Windows therefore arrive in increasing time order and
//! never overlap within one [`WindowSet`], which lets overlap queries run
//! on prefix sums. The core asks about the intervals of instructions
//! committing now, which start no earlier than their dispatch, so many
//! query points lie at or after the last closed window: those cost O(1),
//! and any other point a binary search.

use std::fmt;

/// The two stall-window categories of the Figure 5 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallKind {
    /// The ROB is completely full while an LLC load miss blocks commit.
    FullRobStall,
    /// An LLC load miss blocks commit at the ROB head (superset of
    /// [`StallKind::FullRobStall`] in time).
    RobHeadBlocked,
}

impl StallKind {
    /// Number of categories.
    pub const COUNT: usize = 2;

    /// Dense index for array-backed counters.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            StallKind::FullRobStall => 0,
            StallKind::RobHeadBlocked => 1,
        }
    }
}

impl fmt::Display for StallKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StallKind::FullRobStall => write!(f, "full-ROB stall"),
            StallKind::RobHeadBlocked => write!(f, "ROB head blocked"),
        }
    }
}

/// A set of non-overlapping, time-ordered windows supporting overlap
/// queries in O(1) at or after the newest window and `O(log n)` elsewhere.
///
/// # Examples
///
/// ```
/// use rar_ace::WindowSet;
/// let mut w = WindowSet::new();
/// w.open(10);
/// w.close(20);
/// w.open(30);
/// w.close(40);
/// assert_eq!(w.overlap(0, 100), 20);
/// assert_eq!(w.overlap(15, 35), 10);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WindowSet {
    starts: Vec<u64>,
    ends: Vec<u64>,
    /// `prefix[i]` = total length of windows `0..i`.
    prefix: Vec<u64>,
    open_since: Option<u64>,
    total: u64,
}

impl WindowSet {
    /// Creates an empty window set.
    #[must_use]
    pub fn new() -> Self {
        WindowSet::default()
    }

    /// Opens a window at `cycle`. Opening an already-open set is a no-op
    /// (the earlier open stands), which tolerates re-detection of the same
    /// stall by the core.
    pub fn open(&mut self, cycle: u64) {
        if self.open_since.is_none() {
            debug_assert!(
                self.ends.last().is_none_or(|&e| e <= cycle),
                "windows must open in time order"
            );
            self.open_since = Some(cycle);
        }
    }

    /// True if a window is currently open.
    #[must_use]
    pub fn is_open(&self) -> bool {
        self.open_since.is_some()
    }

    /// Closes the open window at `cycle`, returning the recorded
    /// `(start, end)` interval. Closing with no open window is a no-op.
    /// Zero-length windows are discarded (and return `None`).
    pub fn close(&mut self, cycle: u64) -> Option<(u64, u64)> {
        let start = self.open_since.take()?;
        if cycle > start {
            self.starts.push(start);
            self.ends.push(cycle);
            self.prefix.push(self.total);
            self.total += cycle - start;
            Some((start, cycle))
        } else {
            None
        }
    }

    /// Total closed-window cycles (excludes any still-open window).
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.total
    }

    /// Number of closed windows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// True if no window has been closed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// End of the newest closed window (0 when none has closed).
    fn last_end(&self) -> u64 {
        self.ends.last().copied().unwrap_or(0)
    }

    /// Closed-window cycles strictly before time `t`.
    fn closed_before(&self, t: u64) -> u64 {
        if t >= self.last_end() {
            return self.total;
        }
        let i = self.starts.partition_point(|&s| s < t);
        if i == 0 {
            return 0;
        }
        // Windows 0..i-1 fully precede t; window i-1 may straddle it.
        self.prefix[i - 1] + self.ends[i - 1].min(t) - self.starts[i - 1]
    }

    /// Length of the intersection of `[start, end)` with the window set
    /// (including a still-open window, treated as extending to `end`).
    #[must_use]
    pub fn overlap(&self, start: u64, end: u64) -> u64 {
        if end <= start {
            return 0;
        }
        let open = self
            .open_since
            .map_or(0, |open| end.saturating_sub(open.max(start)));
        open + self.closed_before(end) - self.closed_before(start)
    }

    /// [`WindowSet::overlap`] by two binary searches and no fast path:
    /// the reference the fast path is tested against.
    #[cfg(test)]
    fn overlap_by_search(&self, start: u64, end: u64) -> u64 {
        let covered_before = |t: u64| {
            let i = self.starts.partition_point(|&s| s < t);
            let mut covered = if i == 0 {
                0
            } else {
                let full = self.prefix[i - 1];
                let last_end = self.ends[i - 1].min(t);
                full + last_end.saturating_sub(self.starts[i - 1])
            };
            if let Some(open) = self.open_since {
                covered += t.saturating_sub(open);
            }
            covered
        };
        if end <= start {
            return 0;
        }
        covered_before(end) - covered_before(start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rar_isa::rng::XorShift64Star;

    #[test]
    fn empty_set_has_zero_overlap() {
        let w = WindowSet::new();
        assert_eq!(w.overlap(0, 1_000), 0);
        assert!(w.is_empty());
    }

    #[test]
    fn single_window_overlaps() {
        let mut w = WindowSet::new();
        w.open(100);
        w.close(200);
        assert_eq!(w.overlap(0, 50), 0);
        assert_eq!(w.overlap(0, 150), 50);
        assert_eq!(w.overlap(150, 160), 10);
        assert_eq!(w.overlap(150, 400), 50);
        assert_eq!(w.overlap(300, 400), 0);
        assert_eq!(w.total_cycles(), 100);
    }

    #[test]
    fn multiple_windows() {
        let mut w = WindowSet::new();
        for (s, e) in [(10, 20), (30, 40), (50, 60)] {
            w.open(s);
            w.close(e);
        }
        assert_eq!(w.len(), 3);
        assert_eq!(w.overlap(0, 100), 30);
        assert_eq!(w.overlap(15, 55), 5 + 10 + 5);
        assert_eq!(w.overlap(20, 30), 0);
    }

    #[test]
    fn open_window_counts_toward_overlap() {
        let mut w = WindowSet::new();
        w.open(100);
        assert!(w.is_open());
        assert_eq!(w.overlap(50, 150), 50);
        w.close(200);
        assert_eq!(w.overlap(50, 150), 50);
    }

    #[test]
    fn double_open_keeps_first() {
        let mut w = WindowSet::new();
        w.open(10);
        w.open(50);
        w.close(100);
        assert_eq!(w.total_cycles(), 90);
    }

    #[test]
    fn close_without_open_is_noop() {
        let mut w = WindowSet::new();
        assert_eq!(w.close(10), None);
        assert!(w.is_empty());
    }

    #[test]
    fn close_returns_recorded_interval() {
        let mut w = WindowSet::new();
        w.open(10);
        assert_eq!(w.close(25), Some((10, 25)));
        w.open(30);
        assert_eq!(w.close(30), None, "zero-length windows are discarded");
    }

    #[test]
    fn zero_length_window_discarded() {
        let mut w = WindowSet::new();
        w.open(10);
        w.close(10);
        assert!(w.is_empty());
        assert!(!w.is_open());
    }

    /// Cycles in `[start, end)` covered by a closed window or by an open
    /// one (which covers every cycle from its start), counted one by one.
    fn brute_overlap(closed: &[(u64, u64)], open: Option<u64>, start: u64, end: u64) -> u64 {
        (start..end)
            .filter(|&c| {
                closed.iter().any(|&(s, e)| (s..e).contains(&c)) || open.is_some_and(|o| c >= o)
            })
            .count() as u64
    }

    /// Compares 25 queries, in no particular order and some empty or
    /// reversed, with the cycle-by-cycle count and the search reference.
    fn check_queries(
        w: &WindowSet,
        closed: &[(u64, u64)],
        open: Option<u64>,
        rng: &mut XorShift64Star,
    ) {
        for _ in 0..25 {
            let a = rng.below(700);
            let b = rng.below(700);
            let expected = brute_overlap(closed, open, a, b);
            assert_eq!(
                w.overlap(a, b),
                expected,
                "[{a}, {b}) over {closed:?} open {open:?}"
            );
            assert_eq!(w.overlap_by_search(a, b), expected);
        }
    }

    #[test]
    fn overlap_matches_a_cycle_by_cycle_count() {
        let mut rng = XorShift64Star::new(1);
        for _ in 0..40 {
            let mut w = WindowSet::new();
            let mut closed = Vec::new();
            let mut t = rng.below(20);
            for _ in 0..rng.below(24) {
                // Gaps and lengths of zero included: back-to-back windows
                // and discarded zero-length ones.
                t += rng.below(12);
                w.open(t);
                if rng.next_u64().is_multiple_of(4) {
                    w.open(t + 3); // re-detection keeps the first open
                }
                let start = t;
                t += rng.below(30);
                let recorded = w.close(t);
                if t > start {
                    closed.push((start, t));
                    assert_eq!(recorded, Some((start, t)));
                } else {
                    assert_eq!(recorded, None);
                }
                check_queries(&w, &closed, None, &mut rng);
            }
            if rng.next_u64().is_multiple_of(2) {
                t += rng.below(12);
                w.open(t);
                check_queries(&w, &closed, Some(t), &mut rng);
            }
            let total: u64 = closed.iter().map(|(s, e)| e - s).sum();
            assert_eq!(w.total_cycles(), total);
            assert_eq!(w.len(), closed.len());
        }
    }

    #[test]
    fn stall_kind_indices() {
        assert_ne!(
            StallKind::FullRobStall.index(),
            StallKind::RobHeadBlocked.index()
        );
        assert!(StallKind::FullRobStall.index() < StallKind::COUNT);
        assert!(StallKind::RobHeadBlocked.index() < StallKind::COUNT);
    }
}
