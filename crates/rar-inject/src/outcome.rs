//! Outcome taxonomy and per-structure tallies with confidence intervals.
//!
//! Every injection is classified against a golden (fault-free) run of the
//! same workload into the standard three-way taxonomy — masked, silent
//! data corruption, detected/unrecoverable — plus an explicit *vacant*
//! bucket for strikes that addressed an unoccupied slot. Vacant strikes
//! are masked by construction, but keeping them separate preserves the
//! occupancy information that makes measured vulnerability directly
//! comparable to ACE-estimated AVF: both divide by the structure's full
//! bit capacity, not by its occupied fraction.

use rar_core::FaultTarget;
use rar_trace::jsonv::escape;

/// Architectural outcome of one injection, classified against the golden
/// run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The strike addressed an unoccupied slot; masked by construction.
    Vacant,
    /// The run completed with a commit digest identical to the golden run.
    Masked,
    /// The run completed but its commit digest diverged from golden:
    /// silent data corruption.
    Sdc,
    /// The run exhausted its cycle budget or wall-clock deadline — a
    /// hang/deadlock the watchdog detected (DUE).
    DueHang,
    /// The run panicked (an internal invariant tripped) — detected and
    /// unrecoverable (DUE).
    DuePanic,
}

impl Outcome {
    /// Stable lower-case name (used in journals and tally files).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Outcome::Vacant => "vacant",
            Outcome::Masked => "masked",
            Outcome::Sdc => "sdc",
            Outcome::DueHang => "due_hang",
            Outcome::DuePanic => "due_panic",
        }
    }

    /// Parses a [`Outcome::name`] back into the outcome.
    #[must_use]
    pub fn parse(s: &str) -> Option<Outcome> {
        [
            Outcome::Vacant,
            Outcome::Masked,
            Outcome::Sdc,
            Outcome::DueHang,
            Outcome::DuePanic,
        ]
        .into_iter()
        .find(|o| o.name() == s)
    }
}

/// Integer outcome counts for one injection target.
///
/// All fields are exact counts so rendered tallies are byte-stable across
/// platforms and thread counts; the derived rates and intervals are
/// computed on demand.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TargetTally {
    /// Strikes into unoccupied slots.
    pub vacant: u64,
    /// Completed runs with a golden-identical digest.
    pub masked: u64,
    /// Completed runs with a divergent digest.
    pub sdc: u64,
    /// Watchdog-detected hangs.
    pub due_hang: u64,
    /// Panicked runs.
    pub due_panic: u64,
}

impl TargetTally {
    /// Total injections attempted at this target.
    #[must_use]
    pub fn attempts(self) -> u64 {
        self.vacant + self.masked + self.sdc + self.due_hang + self.due_panic
    }

    /// Architecturally visible outcomes (SDC + DUE).
    #[must_use]
    pub fn unmasked(self) -> u64 {
        self.sdc + self.due_hang + self.due_panic
    }

    /// Measured vulnerability: `unmasked / attempts`, with vacant strikes
    /// in the denominator — the occupancy weighting that makes this the
    /// statistical estimator of AVF.
    #[must_use]
    pub fn vulnerability(self) -> f64 {
        let n = self.attempts();
        if n == 0 {
            return 0.0;
        }
        self.unmasked() as f64 / n as f64
    }

    /// Half-width of the 95% normal-approximation confidence interval on
    /// [`TargetTally::vulnerability`]: `1.96 * sqrt(p(1-p)/n)`.
    #[must_use]
    pub fn ci95(self) -> f64 {
        let n = self.attempts();
        if n == 0 {
            return 0.0;
        }
        let p = self.vulnerability();
        1.96 * (p * (1.0 - p) / n as f64).sqrt()
    }

    pub(crate) fn record(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Vacant => self.vacant += 1,
            Outcome::Masked => self.masked += 1,
            Outcome::Sdc => self.sdc += 1,
            Outcome::DueHang => self.due_hang += 1,
            Outcome::DuePanic => self.due_panic += 1,
        }
    }
}

/// Outcome counts for every injection target of a campaign.
///
/// Tallies are sums of per-injection counts, so they are independent of
/// completion order — identical across thread counts and across
/// interrupted-then-resumed runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    per_target: [TargetTally; FaultTarget::ALL.len()],
}

fn target_index(target: FaultTarget) -> usize {
    FaultTarget::ALL
        .iter()
        .position(|&t| t == target)
        .expect("FaultTarget::ALL covers every variant")
}

impl Tally {
    /// An empty tally.
    #[must_use]
    pub fn new() -> Self {
        Tally::default()
    }

    /// Records one classified injection.
    pub fn record(&mut self, target: FaultTarget, outcome: Outcome) {
        self.per_target[target_index(target)].record(outcome);
    }

    /// Counts for one target.
    #[must_use]
    pub fn get(&self, target: FaultTarget) -> TargetTally {
        self.per_target[target_index(target)]
    }

    /// Every target with at least one attempt, in [`FaultTarget::ALL`]
    /// order.
    pub fn targets(&self) -> impl Iterator<Item = (FaultTarget, TargetTally)> + '_ {
        FaultTarget::ALL
            .into_iter()
            .map(|t| (t, self.get(t)))
            .filter(|&(_, c)| c.attempts() > 0)
    }

    /// Total injections across all targets.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.per_target.iter().map(|c| c.attempts()).sum()
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        for (mine, theirs) in self.per_target.iter_mut().zip(&other.per_target) {
            mine.vacant += theirs.vacant;
            mine.masked += theirs.masked;
            mine.sdc += theirs.sdc;
            mine.due_hang += theirs.due_hang;
            mine.due_panic += theirs.due_panic;
        }
    }

    /// Renders the tally as a JSON object keyed by target name, counts
    /// only — integers render identically on every platform, so the output
    /// is byte-for-byte reproducible (the CI smoke job diffs it against a
    /// committed golden file).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for (target, c) in self.targets() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\"{}\":{{\"vacant\":{},\"masked\":{},\"sdc\":{},\"due_hang\":{},\"due_panic\":{}}}",
                target.name(),
                c.vacant,
                c.masked,
                c.sdc,
                c.due_hang,
                c.due_panic
            ));
        }
        out.push('}');
        out
    }
}

/// Renders the `rar-inject-tally-v1` document: the baseline (`ooo`) and
/// RAR tallies of one paired campaign on `workload` at `inject_seed`.
/// The CLI's `inject --tally-out` and the daemon's inject jobs both write
/// it, byte for byte (CI diffs each against `results/inject_golden.json`).
#[must_use]
pub fn tally_document(workload: &str, inject_seed: u64, ooo: &Tally, rar: &Tally) -> String {
    format!(
        "{{\"schema\":\"rar-inject-tally-v1\",\"workload\":\"{}\",\
         \"inject_seed\":{inject_seed},\"ooo\":{},\"rar\":{}}}\n",
        escape(workload),
        ooo.to_json(),
        rar.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_names_round_trip() {
        for o in [
            Outcome::Vacant,
            Outcome::Masked,
            Outcome::Sdc,
            Outcome::DueHang,
            Outcome::DuePanic,
        ] {
            assert_eq!(Outcome::parse(o.name()), Some(o));
        }
        assert_eq!(Outcome::parse("bogus"), None);
    }

    #[test]
    fn vulnerability_counts_vacant_in_the_denominator() {
        let mut t = Tally::new();
        for _ in 0..50 {
            t.record(FaultTarget::Rob, Outcome::Vacant);
        }
        for _ in 0..30 {
            t.record(FaultTarget::Rob, Outcome::Masked);
        }
        for _ in 0..15 {
            t.record(FaultTarget::Rob, Outcome::Sdc);
        }
        for _ in 0..5 {
            t.record(FaultTarget::Rob, Outcome::DueHang);
        }
        let c = t.get(FaultTarget::Rob);
        assert_eq!(c.attempts(), 100);
        assert_eq!(c.unmasked(), 20);
        assert!((c.vulnerability() - 0.20).abs() < 1e-12);
        // 1.96 * sqrt(0.2*0.8/100) = 0.0784
        assert!((c.ci95() - 0.0784).abs() < 1e-4);
    }

    #[test]
    fn tally_merge_is_order_independent() {
        let mut a = Tally::new();
        a.record(FaultTarget::Iq, Outcome::Sdc);
        a.record(FaultTarget::Fu, Outcome::Masked);
        let mut b = Tally::new();
        b.record(FaultTarget::Iq, Outcome::DuePanic);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.total(), 3);
    }

    #[test]
    fn json_rendering_is_stable_and_integer_only() {
        let mut t = Tally::new();
        t.record(FaultTarget::Sq, Outcome::Masked);
        t.record(FaultTarget::Rob, Outcome::Sdc);
        let json = t.to_json();
        // FaultTarget::ALL order: rob before sq, regardless of insert order.
        assert_eq!(
            json,
            "{\"rob\":{\"vacant\":0,\"masked\":0,\"sdc\":1,\"due_hang\":0,\"due_panic\":0},\
             \"sq\":{\"vacant\":0,\"masked\":1,\"sdc\":0,\"due_hang\":0,\"due_panic\":0}}"
        );
        assert!(!json.contains('.'), "floats are not byte-stable: {json}");
    }
}
