//! TAGE: the TAgged GEometric-history-length branch predictor.
//!
//! A faithful (budget-scaled) implementation of Seznec's TAGE: a bimodal
//! base predictor plus `N` partially-tagged tables indexed by hashes of the
//! program counter and geometrically longer slices of global branch
//! history. Prediction comes from the matching table with the longest
//! history (the *provider*); allocation on mispredictions steals
//! not-useful entries in longer tables.

use rar_isa::rng::{XorShift64Star, GOLDEN_GAMMA};

/// Geometry of a TAGE predictor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TageConfig {
    /// log2 entries of the bimodal base table.
    pub base_bits: u32,
    /// log2 entries of each tagged table.
    pub tagged_bits: u32,
    /// Tag width in bits for the tagged tables.
    pub tag_bits: u32,
    /// Global-history lengths per tagged table, shortest first.
    pub history_lengths: Vec<u32>,
}

impl TageConfig {
    /// A configuration scaled to roughly the paper's 8 KB budget:
    /// 4K-entry bimodal (1 KB) + 4 × 1K-entry tagged tables
    /// (~14 bits/entry ≈ 7 KB).
    #[must_use]
    pub fn budget_8kb() -> Self {
        TageConfig {
            base_bits: 12,
            tagged_bits: 10,
            tag_bits: 9,
            history_lengths: vec![5, 15, 44, 130],
        }
    }
}

impl Default for TageConfig {
    fn default() -> Self {
        TageConfig::budget_8kb()
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct TaggedEntry {
    tag: u16,
    /// 3-bit signed counter, -4..=3; >= 0 predicts taken.
    ctr: i8,
    /// 2-bit useful counter.
    useful: u8,
}

/// What TAGE predicted and where the prediction came from; fed back to
/// [`Tage::update`] so the update logic can reconstruct provider state.
#[derive(Debug, Clone, Copy)]
pub struct TagePrediction {
    /// Predicted direction.
    pub taken: bool,
    /// Provider table (None = bimodal base).
    provider: Option<usize>,
    /// Prediction of the alternate (next-longest) provider.
    alt_taken: bool,
    /// Whether the provider counter was weak (|ctr| low).
    pub weak: bool,
}

/// A circular global-history register. Its capacity is a power of two,
/// so a bit of any age up to the capacity is one masked load.
#[derive(Debug, Clone)]
struct GlobalHistory {
    bits: Vec<bool>,
    head: usize,
}

impl GlobalHistory {
    fn new(capacity: usize) -> Self {
        GlobalHistory {
            bits: vec![false; capacity.next_power_of_two()],
            head: 0,
        }
    }

    fn push(&mut self, taken: bool) {
        self.head = (self.head + 1) & (self.bits.len() - 1);
        self.bits[self.head] = taken;
    }

    /// The bit pushed `age` pushes ago (0 = the most recent).
    fn bit(&self, age: usize) -> bool {
        self.bits[self.head.wrapping_sub(age) & (self.bits.len() - 1)]
    }

    /// Folds the most recent `len` history bits into `out_bits` bits,
    /// rescanning them one at a time. The reference for
    /// [`FoldedHistory`], which keeps the same value up to date in O(1)
    /// per pushed bit.
    #[cfg(test)]
    fn fold(&self, len: u32, out_bits: u32) -> u64 {
        let mut acc: u64 = 0;
        let mut chunk: u64 = 0;
        let mut pos = 0;
        for i in 0..len as usize {
            chunk = (chunk << 1) | u64::from(self.bit(i));
            pos += 1;
            if pos == out_bits {
                acc ^= chunk;
                chunk = 0;
                pos = 0;
            }
        }
        if pos > 0 {
            acc ^= chunk;
        }
        acc & ((1u64 << out_bits) - 1)
    }
}

/// The most recent `len` history bits folded into `width` bits, kept
/// current as bits are pushed.
///
/// The fold cuts the history, newest first, into `width`-bit chunks and
/// XORs them; within a chunk the newest bit is the most significant. A
/// bit of age `a` in a whole chunk therefore sits at bit
/// `width - 1 - a % width`, and the `tail_bits = len % width` oldest bits,
/// which form a short last chunk, sit at `tail_bits - 1 - a % width`. So
/// the value is `whole ^ tail`, where `whole` folds the ages below
/// `whole_len = len - tail_bits` and `tail` holds the rest. A push ages
/// every bit by one: `whole` rotates right by one bit, takes the new bit
/// at the top and loses the bit now aged `whole_len` (which was at the
/// top after the rotation, since `whole_len` is a multiple of `width`);
/// that bit enters `tail` at its top as `tail` shifts right and drops its
/// oldest bit.
#[derive(Debug, Clone, Copy)]
struct FoldedHistory {
    width: u32,
    whole_len: usize,
    tail_bits: u32,
    whole: u64,
    tail: u64,
}

impl FoldedHistory {
    /// The fold of an all-zero history.
    fn new(len: u32, width: u32) -> Self {
        debug_assert!(width < 64, "fold width must be at most 63 bits");
        // A zero-width fold is always zero, like the fold of no bits.
        let (len, width) = if width == 0 { (0, 1) } else { (len, width) };
        let tail_bits = len % width;
        FoldedHistory {
            width,
            whole_len: (len - tail_bits) as usize,
            tail_bits,
            whole: 0,
            tail: 0,
        }
    }

    fn value(&self) -> u64 {
        self.whole ^ self.tail
    }

    /// Accounts for the bit `history` has just pushed.
    fn push(&mut self, history: &GlobalHistory) {
        let top = self.width - 1;
        let newest = history.bit(0);
        let leaving = history.bit(self.whole_len);
        self.whole = (self.whole >> 1) | ((self.whole & 1) << top);
        self.whole ^= u64::from(newest ^ leaving) << top;
        if self.tail_bits > 0 {
            self.tail = (self.tail >> 1) | (u64::from(leaving) << (self.tail_bits - 1));
        }
    }
}

/// The three folds one tagged table hashes with.
#[derive(Debug, Clone, Copy)]
struct TableFolds {
    /// Into the index width.
    index: FoldedHistory,
    /// Into the tag width.
    tag: FoldedHistory,
    /// Into the tag width minus one.
    tag_short: FoldedHistory,
}

/// The TAGE predictor.
///
/// # Examples
///
/// ```
/// use rar_frontend::{Tage, TageConfig};
/// let mut t = Tage::new(TageConfig::budget_8kb());
/// for _ in 0..32 {
///     let p = t.predict(0x400);
///     t.update(0x400, p, true);
/// }
/// assert!(t.predict(0x400).taken);
/// ```
#[derive(Debug, Clone)]
pub struct Tage {
    config: TageConfig,
    /// 2-bit saturating counters, 0..=3; >= 2 predicts taken.
    base: Vec<u8>,
    tagged: Vec<Vec<TaggedEntry>>,
    history: GlobalHistory,
    /// Per tagged table, its history length folded to each hash width.
    folds: Vec<TableFolds>,
    use_alt_on_new: i8,
    /// Allocation tie-breaks.
    rng: XorShift64Star,
}

impl Tage {
    /// Creates a predictor with all counters weakly not-taken.
    #[must_use]
    pub fn new(config: TageConfig) -> Self {
        let base = vec![1u8; 1 << config.base_bits];
        let tagged = config
            .history_lengths
            .iter()
            .map(|_| vec![TaggedEntry::default(); 1 << config.tagged_bits])
            .collect();
        let max_hist = config.history_lengths.iter().copied().max().unwrap_or(1) as usize + 1;
        let folds = config
            .history_lengths
            .iter()
            .map(|&len| TableFolds {
                index: FoldedHistory::new(len, config.tagged_bits),
                tag: FoldedHistory::new(len, config.tag_bits),
                tag_short: FoldedHistory::new(len, config.tag_bits - 1),
            })
            .collect();
        Tage {
            base,
            tagged,
            history: GlobalHistory::new(max_hist.max(64)),
            folds,
            use_alt_on_new: 0,
            rng: XorShift64Star::new(GOLDEN_GAMMA),
            config,
        }
    }

    fn base_index(&self, pc: u64) -> usize {
        ((pc >> 2) & ((1 << self.config.base_bits) - 1)) as usize
    }

    fn tagged_index(&self, pc: u64, table: usize) -> usize {
        let h = self.folds[table].index.value();
        let pc_part = (pc >> 2) ^ (pc >> (2 + u64::from(self.config.tagged_bits)));
        ((pc_part ^ h ^ (table as u64).wrapping_mul(0x9e3779b9))
            & ((1 << self.config.tagged_bits) - 1)) as usize
    }

    fn tag(&self, pc: u64, table: usize) -> u16 {
        let folds = &self.folds[table];
        let h = folds.tag.value();
        let h2 = folds.tag_short.value() << 1;
        (((pc >> 2) ^ h ^ h2) & ((1 << self.config.tag_bits) - 1)) as u16
    }

    /// Predicts the direction of the branch at `pc`.
    #[must_use]
    pub fn predict(&self, pc: u64) -> TagePrediction {
        let mut provider = None;
        let mut alt = None;
        for t in (0..self.tagged.len()).rev() {
            let idx = self.tagged_index(pc, t);
            let e = &self.tagged[t][idx];
            if e.tag == self.tag(pc, t) && e.useful != u8::MAX {
                if provider.is_none() {
                    provider = Some((t, idx));
                } else {
                    alt = Some((t, idx));
                    break;
                }
            }
        }
        let base_taken = self.base[self.base_index(pc)] >= 2;
        match provider {
            Some((t, idx)) => {
                let e = &self.tagged[t][idx];
                let alt_taken = match alt {
                    Some((at, ai)) => self.tagged[at][ai].ctr >= 0,
                    None => base_taken,
                };
                let weak = e.ctr == 0 || e.ctr == -1;
                let newly_alloc = e.useful == 0 && weak;
                let taken = if newly_alloc && self.use_alt_on_new >= 0 {
                    alt_taken
                } else {
                    e.ctr >= 0
                };
                TagePrediction {
                    taken,
                    provider: Some(t),
                    alt_taken,
                    weak,
                }
            }
            None => TagePrediction {
                taken: base_taken,
                provider: None,
                alt_taken: base_taken,
                weak: self.base[self.base_index(pc)] == 1 || self.base[self.base_index(pc)] == 2,
            },
        }
    }

    /// Updates predictor state with the resolved outcome, then shifts the
    /// outcome into global history. `pred` must be the value returned by
    /// [`Tage::predict`] for this dynamic branch.
    pub fn update(&mut self, pc: u64, pred: TagePrediction, taken: bool) {
        let mispredicted = pred.taken != taken;

        // Provider (or base) counter update.
        match pred.provider {
            Some(t) => {
                let idx = self.tagged_index(pc, t);
                let e = &mut self.tagged[t][idx];
                e.ctr = (e.ctr + if taken { 1 } else { -1 }).clamp(-4, 3);
                // Useful bit: provider correct and alternate wrong.
                if pred.taken == taken && pred.alt_taken != taken {
                    e.useful = (e.useful + 1).min(3);
                }
                if pred.taken != taken && pred.alt_taken == taken && e.useful > 0 {
                    e.useful -= 1;
                }
                // use_alt_on_new chooser.
                if e.useful == 0 && (e.ctr == 0 || e.ctr == -1) && pred.taken != pred.alt_taken {
                    let delta = if pred.alt_taken == taken { 1 } else { -1 };
                    self.use_alt_on_new = (self.use_alt_on_new + delta).clamp(-8, 7);
                }
            }
            None => {
                let idx = self.base_index(pc);
                let c = &mut self.base[idx];
                if taken {
                    *c = (*c + 1).min(3);
                } else {
                    *c = c.saturating_sub(1);
                }
            }
        }

        // Allocation on misprediction into a longer-history table.
        if mispredicted {
            let start = pred.provider.map_or(0, |t| t + 1);
            if start < self.tagged.len() {
                // The first two candidate tables, those with useful == 0.
                let mut candidates = (start..self.tagged.len())
                    .filter(|&t| self.tagged[t][self.tagged_index(pc, t)].useful == 0);
                let (first, second) = (candidates.next(), candidates.next());
                // Probabilistically skip the first candidate to spread
                // allocations across tables (as in Seznec's code).
                let skip = self.rng.next_u64() & 1 == 1;
                let chosen = if skip { second.or(first) } else { first };
                if let Some(t) = chosen {
                    let idx = self.tagged_index(pc, t);
                    let tag = self.tag(pc, t);
                    self.tagged[t][idx] = TaggedEntry {
                        tag,
                        ctr: if taken { 0 } else { -1 },
                        useful: 0,
                    };
                } else {
                    // Decay useful bits so future allocations succeed.
                    for t in start..self.tagged.len() {
                        let idx = self.tagged_index(pc, t);
                        let u = &mut self.tagged[t][idx].useful;
                        *u = u.saturating_sub(1);
                    }
                }
            }
        }

        self.history.push(taken);
        for folds in &mut self.folds {
            folds.index.push(&self.history);
            folds.tag.push(&self.history);
            folds.tag_short.push(&self.history);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train(t: &mut Tage, pc: u64, pattern: &[bool], reps: usize) -> u32 {
        let mut mispredicts = 0;
        for _ in 0..reps {
            for &taken in pattern {
                let p = t.predict(pc);
                if p.taken != taken {
                    mispredicts += 1;
                }
                t.update(pc, p, taken);
            }
        }
        mispredicts
    }

    #[test]
    fn learns_always_taken() {
        let mut t = Tage::new(TageConfig::budget_8kb());
        train(&mut t, 0x400, &[true], 64);
        assert!(t.predict(0x400).taken);
    }

    #[test]
    fn learns_always_not_taken() {
        let mut t = Tage::new(TageConfig::budget_8kb());
        train(&mut t, 0x404, &[false], 64);
        assert!(!t.predict(0x404).taken);
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        let mut t = Tage::new(TageConfig::budget_8kb());
        // T,N,T,N... bimodal alone cannot learn this; tagged tables can.
        let warmup = train(&mut t, 0x408, &[true, false], 200);
        let late = train(&mut t, 0x408, &[true, false], 50);
        assert!(
            late < warmup / 3,
            "should converge: warmup={warmup}, late={late}"
        );
        assert!(
            late <= 5,
            "alternating pattern should be near-perfect, got {late}"
        );
    }

    #[test]
    fn learns_short_periodic_pattern() {
        let mut t = Tage::new(TageConfig::budget_8kb());
        let pattern = [true, true, false, true, false, false];
        train(&mut t, 0x40c, &pattern, 300);
        let late = train(&mut t, 0x40c, &pattern, 50);
        assert!(late <= 15, "period-6 pattern should be learned, got {late}");
    }

    #[test]
    fn random_branch_is_hard() {
        let mut t = Tage::new(TageConfig::budget_8kb());
        // Deterministic pseudo-random outcome sequence.
        let mut x = 12345u64;
        let mut outcomes = Vec::new();
        for _ in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            outcomes.push((x >> 33) & 1 == 1);
        }
        let mut mis = 0;
        for &o in &outcomes {
            let p = t.predict(0x500);
            if p.taken != o {
                mis += 1;
            }
            t.update(0x500, p, o);
        }
        let rate = f64::from(mis) / outcomes.len() as f64;
        assert!(rate > 0.3, "random outcomes should stay hard, rate={rate}");
    }

    #[test]
    fn distinct_pcs_do_not_interfere_much() {
        let mut t = Tage::new(TageConfig::budget_8kb());
        for i in 0..64u64 {
            train(&mut t, 0x1000 + i * 4, &[true], 8);
        }
        let mut wrong = 0;
        for i in 0..64u64 {
            if !t.predict(0x1000 + i * 4).taken {
                wrong += 1;
            }
        }
        assert!(wrong <= 4, "{wrong} of 64 trained branches forgotten");
    }

    #[test]
    fn folded_registers_match_the_bit_by_bit_fold() {
        let cfg = TageConfig::budget_8kb();
        let mut pairs = Vec::new();
        for &len in &cfg.history_lengths {
            for width in [cfg.tagged_bits, cfg.tag_bits, cfg.tag_bits - 1] {
                pairs.push((len, width));
            }
        }
        // A length below the width, a multiple of it, the longest length
        // the register holds, and one-bit, empty and zero-width folds.
        pairs.extend([(3, 8), (24, 8), (255, 7), (7, 1), (0, 5), (9, 0)]);
        let mut history = GlobalHistory::new(256);
        let mut folds: Vec<FoldedHistory> = pairs
            .iter()
            .map(|&(len, width)| FoldedHistory::new(len, width))
            .collect();
        let mut rng = XorShift64Star::new(1);
        for step in 0..20_000 {
            // Long runs of one value as well as random bits.
            let taken = if step % 3_000 < 400 {
                step % 6_000 < 3_000
            } else {
                rng.next_u64() & 1 == 1
            };
            history.push(taken);
            for (fold, &(len, width)) in folds.iter_mut().zip(&pairs) {
                fold.push(&history);
                assert_eq!(
                    fold.value(),
                    history.fold(len, width),
                    "len {len} width {width} after {} pushes",
                    step + 1
                );
            }
        }
    }

    #[test]
    fn history_fold_is_bounded() {
        let mut h = GlobalHistory::new(256);
        for i in 0..300 {
            h.push(i % 3 == 0);
        }
        for out_bits in [5u32, 9, 10] {
            let v = h.fold(130, out_bits);
            assert!(v < (1 << out_bits));
        }
    }
}
