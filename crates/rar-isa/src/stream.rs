//! Instruction-stream abstraction with flush-and-refetch support.
//!
//! The simulator is trace-driven: workloads produce an infinite, *dynamic*
//! (correct-path) sequence of micro-ops. A cycle-level core, however, needs
//! to re-read parts of that sequence — after a branch-misprediction recovery,
//! a runahead-exit flush, or a FLUSH-style pipeline flush, fetch is
//! redirected to an instruction that was already delivered once. Rather than
//! forcing every workload generator to support random access, [`TraceWindow`]
//! buffers a sliding window of generated micro-ops and serves repeated reads
//! by *dynamic sequence number*.

use crate::uop::Uop;
use std::collections::VecDeque;

/// A source of micro-ops addressable by dynamic sequence number.
///
/// Sequence numbers start at zero and index the *correct-path* dynamic
/// instruction stream. Implementations must be deterministic: `get(n)` must
/// return the same micro-op every time it is called, and `release_before`
/// is a promise from the caller that sequence numbers below the given bound
/// will never be requested again.
pub trait UopSource {
    /// Returns the micro-op at dynamic sequence number `seq`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `seq` precedes a bound previously passed
    /// to [`UopSource::release_before`].
    fn get(&mut self, seq: u64) -> &Uop;

    /// Declares that all sequence numbers `< bound` are dead and their
    /// storage may be reclaimed.
    fn release_before(&mut self, bound: u64);
}

/// Adapts any infinite `Iterator<Item = Uop>` into a [`UopSource`] by
/// buffering a sliding window.
///
/// The window grows on demand (runahead mode can read hundreds of micro-ops
/// past the newest committed one) and is trimmed by
/// [`UopSource::release_before`], which the core calls at commit.
///
/// # Examples
///
/// ```
/// use rar_isa::{TraceWindow, Uop, UopKind, UopSource};
/// let mut w = TraceWindow::new((0u64..).map(|i| Uop::alu(i * 4, UopKind::IntAlu)));
/// assert_eq!(w.get(5).pc(), 20);
/// assert_eq!(w.get(2).pc(), 8); // re-read within the window
/// w.release_before(4);
/// assert_eq!(w.get(4).pc(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct TraceWindow<I> {
    inner: I,
    /// Sequence number of `buf[0]`.
    base: u64,
    buf: VecDeque<Uop>,
    generated: u64,
}

impl<I: Iterator<Item = Uop>> TraceWindow<I> {
    /// Wraps an infinite micro-op iterator.
    pub fn new(inner: I) -> Self {
        TraceWindow {
            inner,
            base: 0,
            buf: VecDeque::new(),
            generated: 0,
        }
    }

    /// Number of micro-ops currently buffered.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Total micro-ops pulled from the underlying generator so far.
    #[must_use]
    pub fn generated(&self) -> u64 {
        self.generated
    }

    fn fill_to(&mut self, seq: u64) {
        while self.generated <= seq {
            let u = self
                .inner
                .next()
                .expect("workload generators must produce an infinite stream");
            // A micro-op released before it was generated is dropped.
            if self.generated >= self.base {
                self.buf.push_back(u);
            }
            self.generated += 1;
        }
    }
}

impl<I: Iterator<Item = Uop>> UopSource for TraceWindow<I> {
    fn get(&mut self, seq: u64) -> &Uop {
        assert!(
            seq >= self.base,
            "sequence {seq} was released (window base {})",
            self.base
        );
        self.fill_to(seq);
        &self.buf[(seq - self.base) as usize]
    }

    fn release_before(&mut self, bound: u64) {
        let buffered = bound.saturating_sub(self.base).min(self.buf.len() as u64);
        self.buf.drain(..buffered as usize);
        self.base = self.base.max(bound);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShift64Star;
    use crate::uop::UopKind;

    fn counting_stream() -> impl Iterator<Item = Uop> {
        (0u64..).map(|i| Uop::alu(i, UopKind::IntAlu))
    }

    #[test]
    fn serves_by_sequence_number() {
        let mut w = TraceWindow::new(counting_stream());
        assert_eq!(w.get(0).pc(), 0);
        assert_eq!(w.get(10).pc(), 10);
        assert_eq!(w.get(3).pc(), 3);
    }

    #[test]
    fn rereads_are_identical() {
        let mut w = TraceWindow::new(counting_stream());
        let a = w.get(7).clone();
        let b = w.get(7).clone();
        assert_eq!(a, b);
    }

    #[test]
    fn release_trims_window() {
        let mut w = TraceWindow::new(counting_stream());
        let _ = w.get(100);
        assert_eq!(w.buffered(), 101);
        w.release_before(50);
        assert_eq!(w.buffered(), 51);
        assert_eq!(w.get(50).pc(), 50);
    }

    #[test]
    fn release_beyond_buffer_is_safe() {
        let mut w = TraceWindow::new(counting_stream());
        let _ = w.get(5);
        w.release_before(1_000);
        // The window empties, and the stream resumes at the bound.
        assert_eq!(w.buffered(), 0);
        assert_eq!(w.get(1_000).pc(), 1_000);
        assert_eq!(w.buffered(), 1);
    }

    #[test]
    #[should_panic(expected = "was released")]
    fn reading_released_sequence_panics() {
        let mut w = TraceWindow::new(counting_stream());
        let _ = w.get(10);
        w.release_before(5);
        let _ = w.get(2);
    }

    #[test]
    #[should_panic(expected = "was released")]
    fn reading_released_ungenerated_sequence_panics() {
        let mut w = TraceWindow::new(counting_stream());
        let _ = w.get(3);
        w.release_before(50);
        let _ = w.get(20);
    }

    /// Seeded twin: random interleavings of reads (re-reads inside the
    /// window, and runahead-style reads far past its tail) and releases
    /// (inside the window and past the tail) against the same stream
    /// collected into a `Vec`. Every read must match it, and every read
    /// below a released bound must panic.
    #[test]
    fn seeded_interleavings_match_the_collected_stream() {
        const LEN: u64 = 20_000;
        let stream = || {
            (0u64..).map(|i| match i % 3 {
                0 => Uop::alu(4 * i, UopKind::IntAlu),
                1 => Uop::load(4 * i, 64 * i, 8),
                _ => Uop::alu(4 * i, UopKind::FpMul).with_dest(crate::ArchReg::int((i % 32) as u8)),
            })
        };
        let reference: Vec<Uop> = stream().take(LEN as usize).collect();
        let quiet = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for seed in 1..=24 {
            let mut rng = XorShift64Star::new(seed);
            let mut w = TraceWindow::new(stream());
            // Highest sequence read so far plus one, and highest bound.
            let (mut tail, mut released) = (0u64, 0u64);
            while tail < LEN - 2_000 {
                match rng.below(8) {
                    // Re-read anywhere in the live window.
                    0..=3 if tail > released => {
                        let seq = released + rng.below(tail - released);
                        assert_eq!(w.get(seq), &reference[seq as usize], "seed {seed}");
                    }
                    // Read at or past the tail, up to far ahead.
                    0..=5 => {
                        let reach = if rng.below(16) == 0 { 1_500 } else { 8 };
                        let seq = tail.max(released) + rng.below(reach);
                        assert_eq!(w.get(seq), &reference[seq as usize], "seed {seed}");
                        tail = tail.max(seq + 1);
                    }
                    // Release: usually inside the window, sometimes past it.
                    6 => {
                        let bound = released + rng.below(tail.saturating_sub(released) + 64);
                        w.release_before(bound);
                        released = released.max(bound);
                    }
                    _ if released > 0 => {
                        let seq = rng.below(released);
                        let mut probe = w.clone();
                        let read = std::panic::catch_unwind(move || probe.get(seq).clone());
                        assert!(read.is_err(), "seed {seed}: read {seq} below {released}");
                    }
                    _ => {}
                }
                assert_eq!(w.buffered() as u64, tail.saturating_sub(released));
            }
        }
        std::panic::set_hook(quiet);
    }

    #[test]
    fn generated_counts_pulls_not_reads() {
        let mut w = TraceWindow::new(counting_stream());
        let _ = w.get(9);
        let _ = w.get(9);
        assert_eq!(w.generated(), 10);
    }
}
