//! Phase-resolved vulnerability: AVF as a time series.
//!
//! Soft-error vulnerability is strongly phase-dependent (the paper's
//! motivation, and [Fu et al., MASCOTS 2006] in its related work): AVF
//! spikes while long-latency misses block commit and collapses during
//! compute phases. This module turns a recorded interval log into a
//! windowed AVF series, which the `vulnerability_phases` example plots as
//! a terminal sparkline and which downstream users can feed into
//! phase-aware scheduling studies (the authors' own HPCA 2017 work).
//!
//! # Examples
//!
//! ```
//! use rar_ace::{AceCounter, OccupancyProfile, Structure};
//!
//! let mut ace = AceCounter::with_logging();
//! ace.record_committed(Structure::Rob, 120, 0, 100);
//! let profile = OccupancyProfile::from_log(ace.interval_log());
//! assert_eq!(profile.ace_bits(Structure::Rob, 50), 120);
//! assert_eq!(profile.ace_bits(Structure::Rob, 100), 0);
//! ```

use crate::counter::LoggedInterval;
use crate::metrics::StructureCapacities;
use crate::structure::Structure;

/// A per-structure step function: how many committed-ACE bits each
/// structure held at any cycle. Built once from the interval log;
/// queries are `O(log n)`.
#[derive(Debug, Clone)]
pub struct OccupancyProfile {
    /// Per structure: sorted event times and the ACE-bit level *after*
    /// each event.
    steps: [Vec<(u64, u64)>; Structure::COUNT],
}

impl OccupancyProfile {
    /// Builds the profile from a recorded interval log.
    #[must_use]
    pub fn from_log(log: &[LoggedInterval]) -> Self {
        let mut events: [Vec<(u64, i64)>; Structure::COUNT] = Default::default();
        for iv in log {
            let e = &mut events[iv.structure.index()];
            e.push((iv.start, iv.bits as i64));
            e.push((iv.end, -(iv.bits as i64)));
        }
        let mut steps: [Vec<(u64, u64)>; Structure::COUNT] = Default::default();
        for (s, mut ev) in events.into_iter().enumerate() {
            ev.sort_unstable();
            let mut level: i64 = 0;
            let mut out: Vec<(u64, u64)> = Vec::with_capacity(ev.len());
            for (t, delta) in ev {
                level += delta;
                debug_assert!(level >= 0, "interval accounting went negative");
                match out.last_mut() {
                    Some(last) if last.0 == t => last.1 = level as u64,
                    _ => out.push((t, level as u64)),
                }
            }
            steps[s] = out;
        }
        OccupancyProfile { steps }
    }

    /// Committed-ACE bits resident in `structure` at `cycle`.
    #[must_use]
    pub fn ace_bits(&self, structure: Structure, cycle: u64) -> u64 {
        let steps = &self.steps[structure.index()];
        match steps.partition_point(|&(t, _)| t <= cycle) {
            0 => 0,
            i => steps[i - 1].1,
        }
    }

    /// The [first, last) event-time span of the recorded intervals.
    /// Useful for choosing the analysed cycle range when the log was
    /// captured after a measurement reset (interval timestamps are
    /// absolute core cycles).
    #[must_use]
    pub fn span(&self) -> std::ops::Range<u64> {
        let start = self
            .steps
            .iter()
            .filter_map(|s| s.first().map(|&(t, _)| t))
            .min()
            .unwrap_or(0);
        let end = self
            .steps
            .iter()
            .filter_map(|s| s.last().map(|&(t, _)| t))
            .max()
            .unwrap_or(0);
        start..end
    }

    /// Exact ABC recomputed from the profile (validates the log against
    /// the counter's running totals).
    #[must_use]
    pub fn total_abc(&self) -> u128 {
        let mut total: u128 = 0;
        for steps in &self.steps {
            for w in steps.windows(2) {
                total += u128::from(w[0].1) * u128::from(w[1].0 - w[0].0);
            }
        }
        total
    }

    /// Exact ACE bit-cycles accumulated in `[start, end)`.
    #[must_use]
    pub fn abc_between(&self, start: u64, end: u64) -> u128 {
        if end <= start {
            return 0;
        }
        let mut total: u128 = 0;
        for s in Structure::ALL {
            total += self.structure_abc_between(s, start, end);
        }
        total
    }

    fn structure_abc_between(&self, structure: Structure, start: u64, end: u64) -> u128 {
        let steps = &self.steps[structure.index()];
        if steps.is_empty() {
            return 0;
        }
        let mut total: u128 = 0;
        // Level before the first step is 0; walk the step segments that
        // intersect [start, end).
        let mut idx = steps.partition_point(|&(t, _)| t <= start);
        let mut t = start;
        let mut level = if idx == 0 { 0 } else { steps[idx - 1].1 };
        while t < end {
            let next_t = if idx < steps.len() {
                steps[idx].0.min(end)
            } else {
                end
            };
            total += u128::from(level) * u128::from(next_t - t);
            t = next_t;
            if idx < steps.len() && steps[idx].0 <= t {
                level = steps[idx].1;
                idx += 1;
            }
        }
        total
    }
}

/// AVF sampled over fixed-width cycle windows.
#[derive(Debug, Clone)]
pub struct PhaseSeries {
    window: u64,
    start: u64,
    values: Vec<f64>,
}

impl PhaseSeries {
    /// Integrates the profile into `window`-cycle buckets over
    /// `[start, end)` and normalizes each bucket by capacity × window
    /// (i.e. per-window AVF).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or the range is empty.
    #[must_use]
    pub fn from_profile(
        profile: &OccupancyProfile,
        caps: &StructureCapacities,
        start: u64,
        end: u64,
        window: u64,
    ) -> Self {
        assert!(window > 0, "window must be nonzero");
        assert!(end > start, "range must be nonempty");
        let denom = caps.total_bits() as f64 * window as f64;
        let mut values = Vec::new();
        let mut t = start;
        while t < end {
            let hi = (t + window).min(end);
            let abc = profile.abc_between(t, hi);
            // Normalize partial windows by their actual width.
            let w = (hi - t) as f64 / window as f64;
            values.push(abc as f64 / (denom * w.max(f64::MIN_POSITIVE)));
            t = hi;
        }
        PhaseSeries {
            window,
            start,
            values,
        }
    }

    /// Window width in cycles.
    #[must_use]
    pub fn window(&self) -> u64 {
        self.window
    }

    /// First cycle of the series.
    #[must_use]
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Per-window AVF values.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mean AVF across windows (equals the run AVF for full windows).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Peak window AVF.
    #[must_use]
    pub fn peak(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// Fraction of windows whose AVF exceeds `threshold` — the knob a
    /// phase-aware scheduler would steer on.
    #[must_use]
    pub fn fraction_above(&self, threshold: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().filter(|&&v| v > threshold).count() as f64 / self.values.len() as f64
    }

    /// Renders a unicode sparkline of the series (for terminal reports).
    #[must_use]
    pub fn sparkline(&self, columns: usize) -> String {
        const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        if self.values.is_empty() || columns == 0 {
            return String::new();
        }
        let peak = self.peak().max(f64::MIN_POSITIVE);
        let chunk = self.values.len().div_ceil(columns);
        let mut out = String::new();
        for group in self.values.chunks(chunk) {
            let avg = group.iter().sum::<f64>() / group.len() as f64;
            let idx = ((avg / peak) * 7.0).round() as usize;
            out.push(BARS[idx.min(7)]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::EntryBits;
    use crate::counter::AceCounter;

    fn caps() -> StructureCapacities {
        StructureCapacities::from_entries(&EntryBits::table_iii(), 192, 92, 64, 64, 168, 168, 5, 3)
    }

    #[test]
    fn profile_reconstructs_abc() {
        let mut ace = AceCounter::with_logging();
        ace.record_committed(Structure::Rob, 120, 10, 200);
        ace.record_committed(Structure::Rob, 120, 50, 120);
        ace.record_committed(Structure::Iq, 80, 0, 40);
        let profile = OccupancyProfile::from_log(ace.interval_log());
        assert_eq!(profile.total_abc(), ace.total_abc());
        assert_eq!(profile.ace_bits(Structure::Rob, 60), 240);
        assert_eq!(profile.ace_bits(Structure::Rob, 150), 120);
        assert_eq!(profile.ace_bits(Structure::Iq, 39), 80);
        assert_eq!(profile.ace_bits(Structure::Iq, 40), 0);
    }

    #[test]
    fn abc_between_partitions_total() {
        let mut ace = AceCounter::with_logging();
        ace.record_committed(Structure::Rob, 120, 13, 177);
        ace.record_committed(Structure::Iq, 80, 50, 250);
        let p = OccupancyProfile::from_log(ace.interval_log());
        let total = p.abc_between(0, 300);
        assert_eq!(total, ace.total_abc());
        let split = p.abc_between(0, 100) + p.abc_between(100, 300);
        assert_eq!(split, total);
    }

    #[test]
    fn series_mean_matches_run_avf() {
        let mut ace = AceCounter::with_logging();
        ace.record_committed(Structure::Rob, 120, 0, 1_000);
        let p = OccupancyProfile::from_log(ace.interval_log());
        let caps = caps();
        let series = PhaseSeries::from_profile(&p, &caps, 0, 1_000, 100);
        assert_eq!(series.values().len(), 10);
        let expect = 120.0 / caps.total_bits() as f64;
        assert!((series.mean() - expect).abs() < 1e-12);
        assert!((series.peak() - expect).abs() < 1e-12);
    }

    #[test]
    fn phases_are_visible() {
        // Busy first half, idle second half.
        let mut ace = AceCounter::with_logging();
        ace.record_committed(Structure::Rob, 23_040, 0, 500);
        let p = OccupancyProfile::from_log(ace.interval_log());
        let series = PhaseSeries::from_profile(&p, &caps(), 0, 1_000, 100);
        assert!(series.values()[0] > 0.0);
        assert_eq!(series.values()[9], 0.0);
        assert!((series.fraction_above(0.0) - 0.5).abs() < 1e-12);
        let spark = series.sparkline(10);
        assert_eq!(spark.chars().count(), 10);
        assert!(spark.starts_with('█'));
        assert!(spark.ends_with('▁'));
    }

    #[test]
    fn partial_last_window_normalized() {
        let mut ace = AceCounter::with_logging();
        ace.record_committed(Structure::Rob, 120, 0, 150);
        let p = OccupancyProfile::from_log(ace.interval_log());
        let caps = caps();
        let series = PhaseSeries::from_profile(&p, &caps, 0, 150, 100);
        assert_eq!(series.values().len(), 2);
        // Both windows are fully occupied, so both report the same AVF.
        assert!((series.values()[0] - series.values()[1]).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "window must be nonzero")]
    fn zero_window_panics() {
        let p = OccupancyProfile::from_log(&[]);
        let _ = PhaseSeries::from_profile(&p, &caps(), 0, 10, 0);
    }
}
