//! The composed TAGE-SC-L predictor with BTB.

use crate::btb::Btb;
use crate::loop_pred::LoopPredictor;
use crate::sc::StatisticalCorrector;
use crate::tage::{Tage, TageConfig, TagePrediction};

/// A full fetch-time prediction.
#[derive(Debug, Clone, Copy)]
pub struct Prediction {
    /// Predicted direction.
    pub taken: bool,
    /// Predicted target if taken and the BTB hit.
    pub target: Option<u64>,
    /// Internal TAGE state threaded to the update.
    tage: TagePrediction,
}

/// Aggregate prediction statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictorStats {
    /// Conditional-branch predictions made.
    pub predictions: u64,
    /// Direction mispredictions.
    pub mispredictions: u64,
    /// Taken branches whose target missed in the BTB.
    pub btb_misses: u64,
}

impl PredictorStats {
    /// Mispredictions per kilo-prediction.
    #[must_use]
    pub fn mpki_of(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            return 0.0;
        }
        self.mispredictions as f64 * 1000.0 / instructions as f64
    }

    /// Direction accuracy in [0, 1].
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.predictions == 0 {
            return 1.0;
        }
        1.0 - self.mispredictions as f64 / self.predictions as f64
    }
}

/// TAGE-SC-L + BTB, the front-end predictor of the baseline core.
///
/// Call [`BranchPredictor::predict`] at fetch and
/// [`BranchPredictor::update`] at branch resolution with the true outcome.
///
/// # Examples
///
/// ```
/// use rar_frontend::BranchPredictor;
/// let mut bp = BranchPredictor::tage_sc_l_8kb();
/// let p = bp.predict(0x400);
/// bp.update(0x400, true, 0x800);
/// assert!(bp.stats().predictions >= 1);
/// let _ = p;
/// ```
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    tage: Tage,
    loop_pred: LoopPredictor,
    sc: StatisticalCorrector,
    btb: Btb,
    stats: PredictorStats,
    /// Prediction awaiting update, keyed by pc (single outstanding per pc
    /// is sufficient for the in-order fetch/in-order resolve usage).
    pending: Option<(u64, Prediction)>,
}

impl BranchPredictor {
    /// Builds the paper's 8 KB TAGE-SC-L with a 2K-entry BTB.
    #[must_use]
    pub fn tage_sc_l_8kb() -> Self {
        BranchPredictor {
            tage: Tage::new(TageConfig::budget_8kb()),
            loop_pred: LoopPredictor::new(32),
            sc: StatisticalCorrector::new(10),
            btb: Btb::new(512, 4),
            stats: PredictorStats::default(),
            pending: None,
        }
    }

    /// Predicts direction and target for the conditional branch at `pc`.
    pub fn predict(&mut self, pc: u64) -> Prediction {
        let tage = self.tage.predict(pc);
        let taken = match self.loop_pred.predict(pc) {
            Some(t) => t,
            None => self.sc.correct(pc, tage.taken, tage.weak),
        };
        let target = if taken { self.btb.lookup(pc) } else { None };
        let p = Prediction {
            taken,
            target,
            tage,
        };
        self.pending = Some((pc, p));
        p
    }

    /// Trains every component with the resolved outcome and returns whether
    /// the most recent [`BranchPredictor::predict`] for this `pc`
    /// mispredicted the direction.
    ///
    /// If no prediction is pending for `pc` (e.g. the branch was fetched on
    /// the wrong path and squashed), a fresh prediction is made internally
    /// so that training still happens.
    pub fn update(&mut self, pc: u64, taken: bool, target: u64) -> bool {
        let pred = match self.pending.take() {
            Some((ppc, p)) if ppc == pc => p,
            _ => self.predict(pc),
        };
        self.pending = None;
        self.stats.predictions += 1;
        let mispredicted = pred.taken != taken;
        if mispredicted {
            self.stats.mispredictions += 1;
        }
        if taken {
            match pred.target {
                Some(t) if t == target => {}
                _ => self.stats.btb_misses += 1,
            }
            self.btb.update(pc, target);
        }
        self.sc.update(pc, pred.tage.taken, taken);
        self.loop_pred.update(pc, taken);
        self.tage.update(pc, pred.tage, taken);
        mispredicted
    }

    /// Aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> PredictorStats {
        self.stats
    }

    /// Zeroes the statistics (predictor state is untouched).
    pub fn reset_stats(&mut self) {
        self.stats = PredictorStats::default();
    }
}

impl Default for BranchPredictor {
    fn default() -> Self {
        BranchPredictor::tage_sc_l_8kb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(bp: &mut BranchPredictor, pc: u64, outcomes: &[bool]) -> u64 {
        let before = bp.stats().mispredictions;
        for &o in outcomes {
            let _ = bp.predict(pc);
            bp.update(pc, o, pc + 0x100);
        }
        bp.stats().mispredictions - before
    }

    #[test]
    fn composed_predictor_learns_biased_branch() {
        let mut bp = BranchPredictor::tage_sc_l_8kb();
        drive(&mut bp, 0x400, &[true; 128]);
        let late = drive(&mut bp, 0x400, &[true; 64]);
        assert_eq!(late, 0);
        assert!(bp.stats().accuracy() > 0.9);
    }

    #[test]
    fn loop_component_beats_long_trip_counts() {
        let mut bp = BranchPredictor::tage_sc_l_8kb();
        // Trip count 200 >> TAGE history: loop predictor must catch the exit.
        let mut pattern = vec![true; 199];
        pattern.push(false);
        for _ in 0..3 {
            drive(&mut bp, 0x500, &pattern);
        }
        let late = drive(&mut bp, 0x500, &pattern);
        assert_eq!(late, 0, "loop exit should be predicted exactly");
    }

    #[test]
    fn btb_misses_counted_for_new_targets() {
        let mut bp = BranchPredictor::tage_sc_l_8kb();
        let _ = bp.predict(0x600);
        bp.update(0x600, true, 0x1000);
        assert_eq!(bp.stats().btb_misses, 1);
        // Second time the target is cached.
        let _ = bp.predict(0x600);
        bp.update(0x600, true, 0x1000);
        assert_eq!(bp.stats().btb_misses, 1);
    }

    #[test]
    fn update_without_predict_still_trains() {
        let mut bp = BranchPredictor::tage_sc_l_8kb();
        for _ in 0..64 {
            bp.update(0x700, true, 0x800);
        }
        assert!(bp.predict(0x700).taken);
    }

    #[test]
    fn stats_mpki() {
        let s = PredictorStats {
            predictions: 100,
            mispredictions: 8,
            btb_misses: 0,
        };
        assert!((s.mpki_of(1000) - 8.0).abs() < 1e-12);
        assert!((s.accuracy() - 0.92).abs() < 1e-12);
    }
}
