//! Output digests: one 64-bit fingerprint over every simulated result a
//! pass produces, compared across passes and against committed goldens.

use rar_sim::SimResult;

/// FNV-1a over a canonical text rendering of results.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `text` into the digest.
    pub fn text(&mut self, text: &str) {
        for &b in text.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Folds one result in: cycles, committed instructions, ABC per
    /// structure and the three AVF tiers (as exact bit patterns).
    pub fn result(&mut self, r: &SimResult) {
        let rel = &r.reliability;
        self.text(&format!(
            "{}/{} cycles={} committed={} abc={:?} avf={:016x}/{:016x}/{:016x}",
            r.workload,
            r.technique,
            r.stats.cycles,
            r.stats.committed,
            r.abc_by_structure,
            rel.avf().to_bits(),
            rel.refined_avf().to_bits(),
            rel.bit_refined_avf().to_bits(),
        ));
    }

    /// The digest so far.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// The digest of a sequence of cells in order; a cell that produced no
/// result is folded in as a marker.
pub fn of_cells<'a>(results: impl IntoIterator<Item = Option<&'a SimResult>>) -> u64 {
    let mut d = Digest::default();
    for r in results {
        match r {
            Some(r) => d.result(r),
            None => d.text("missing"),
        }
    }
    d.value()
}
