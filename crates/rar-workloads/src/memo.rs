//! Shareable, memoized trace prefixes.
//!
//! Every simulation of a given (workload, seed) consumes exactly the same
//! deterministic micro-op stream, and the dead-value analysis in
//! `rar-verify` additionally needs a materialized prefix of that stream.
//! Before this module existed each run generated the stream twice (once
//! for the liveness pass, once for the core) and every cell of a sweep
//! regenerated it from scratch. [`TracePrefix`] materializes the prefix
//! *once*, keeps the generator state positioned immediately after it, and
//! hands out [`SharedTraceIter`]s that replay the shared prefix and then
//! continue generating privately — so a prefix behind an `Arc` can feed
//! any number of concurrent simulations plus the liveness analysis
//! without regenerating a single micro-op.
//!
//! # Examples
//!
//! ```
//! use rar_workloads::{workload, TracePrefix};
//! use std::sync::Arc;
//!
//! let spec = workload("mcf").unwrap();
//! let prefix = Arc::new(TracePrefix::generate(&spec, 1, 100));
//! // The shared prefix replays identically for every consumer...
//! let a: Vec<_> = TracePrefix::resume(&prefix).take(150).collect();
//! let b: Vec<_> = TracePrefix::resume(&prefix).take(150).collect();
//! assert_eq!(a, b);
//! // ...and matches a fresh generator exactly, past the prefix too.
//! let fresh: Vec<_> = spec.trace(1).take(150).collect();
//! assert_eq!(a, fresh);
//! ```

use crate::gen::TraceGenerator;
use crate::spec::WorkloadSpec;
use rar_isa::Uop;
use std::sync::Arc;

/// A materialized prefix of one workload trace, plus the generator state
/// needed to continue past it. Cheap to share behind an [`Arc`]; see the
/// module docs.
#[derive(Debug, Clone)]
pub struct TracePrefix {
    workload: &'static str,
    seed: u64,
    uops: Vec<Uop>,
    /// Generator positioned immediately after `uops`.
    cont: TraceGenerator,
}

impl TracePrefix {
    /// Generates the first `len` micro-ops of `spec`'s trace for `seed`.
    #[must_use]
    pub fn generate(spec: &WorkloadSpec, seed: u64, len: usize) -> Self {
        let mut cont = spec.trace(seed);
        let uops: Vec<Uop> = cont.by_ref().take(len).collect();
        TracePrefix {
            workload: spec.name(),
            seed,
            uops,
            cont,
        }
    }

    /// A longer prefix of the same trace, continuing from this one's
    /// generator state (no micro-op is ever generated twice). Returns a
    /// clone when `len` does not exceed the current length.
    #[must_use]
    pub fn extended(&self, len: usize) -> Self {
        let mut next = self.clone();
        while next.uops.len() < len {
            let u = next
                .cont
                .next()
                .expect("workload generators must produce an infinite stream");
            next.uops.push(u);
        }
        next
    }

    /// Heap bytes this prefix holds: the micro-op buffer by capacity plus
    /// the continuation generator. This is what a memo of prefixes pays
    /// per entry; `len() * size_of::<Uop>()` is only a lower bound.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.uops.capacity() * size_of::<Uop>() + self.cont.heap_bytes()
    }

    /// Benchmark name this prefix was generated from.
    #[must_use]
    pub fn workload(&self) -> &'static str {
        self.workload
    }

    /// Generator seed this prefix was generated with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The materialized micro-ops.
    #[must_use]
    pub fn uops(&self) -> &[Uop] {
        &self.uops
    }

    /// Prefix length in micro-ops.
    #[must_use]
    pub fn len(&self) -> usize {
        self.uops.len()
    }

    /// Whether the prefix is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }

    /// An iterator over the *full* (infinite) trace: replays the shared
    /// prefix, then continues with a private clone of the stored
    /// generator state.
    #[must_use]
    pub fn resume(prefix: &Arc<Self>) -> SharedTraceIter {
        SharedTraceIter {
            prefix: Arc::clone(prefix),
            pos: 0,
            cont: None,
        }
    }
}

/// Iterator handed out by [`TracePrefix::resume`]. The continuation
/// generator is cloned lazily, so consumers that stay within the prefix
/// never copy generator state.
#[derive(Debug, Clone)]
pub struct SharedTraceIter {
    prefix: Arc<TracePrefix>,
    pos: usize,
    cont: Option<TraceGenerator>,
}

impl Iterator for SharedTraceIter {
    type Item = Uop;

    fn next(&mut self) -> Option<Uop> {
        if self.pos < self.prefix.uops.len() {
            let u = self.prefix.uops[self.pos].clone();
            self.pos += 1;
            return Some(u);
        }
        self.cont
            .get_or_insert_with(|| self.prefix.cont.clone())
            .next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;

    #[test]
    fn prefix_matches_fresh_generator() {
        let spec = workload("libquantum").unwrap();
        let prefix = TracePrefix::generate(&spec, 7, 500);
        let fresh: Vec<Uop> = spec.trace(7).take(500).collect();
        assert_eq!(prefix.uops(), &fresh[..]);
        assert_eq!(prefix.len(), 500);
        assert_eq!(prefix.workload(), "libquantum");
        assert_eq!(prefix.seed(), 7);
    }

    #[test]
    fn resume_continues_past_the_prefix_identically() {
        let spec = workload("mcf").unwrap();
        let prefix = Arc::new(TracePrefix::generate(&spec, 3, 200));
        let resumed: Vec<Uop> = TracePrefix::resume(&prefix).take(600).collect();
        let fresh: Vec<Uop> = spec.trace(3).take(600).collect();
        assert_eq!(resumed, fresh);
    }

    #[test]
    fn two_resumes_do_not_interfere() {
        let spec = workload("omnetpp").unwrap();
        let prefix = Arc::new(TracePrefix::generate(&spec, 1, 50));
        let mut a = TracePrefix::resume(&prefix);
        let mut b = TracePrefix::resume(&prefix);
        // Interleave: each iterator must keep its own continuation state.
        let a1: Vec<Uop> = a.by_ref().take(120).collect();
        let b1: Vec<Uop> = b.by_ref().take(120).collect();
        assert_eq!(a1, b1);
        assert_eq!(a.next(), b.next());
    }

    #[test]
    fn extended_prefix_is_consistent_with_longer_generation() {
        let spec = workload("gcc").unwrap();
        let short = TracePrefix::generate(&spec, 9, 100);
        let long = short.extended(400);
        let fresh = TracePrefix::generate(&spec, 9, 400);
        assert_eq!(long.uops(), fresh.uops());
        // Extending to a smaller/equal length is a no-op.
        assert_eq!(long.extended(10).len(), 400);
    }

    #[test]
    fn heap_bytes_covers_the_uops_and_grows_with_the_prefix() {
        let spec = workload("mcf").unwrap();
        let short = TracePrefix::generate(&spec, 4, 1_000);
        let floor = short.len() * size_of::<Uop>();
        // The continuation generator owns heap of its own on top.
        assert!(
            short.heap_bytes() > floor,
            "{} <= {floor}",
            short.heap_bytes()
        );
        let long = short.extended(3_000);
        assert!(long.heap_bytes() >= long.len() * size_of::<Uop>());
        assert!(long.heap_bytes() > short.heap_bytes());
        // A copy holds no more than the original: clones drop spare
        // capacity.
        assert!(long.extended(10).heap_bytes() <= long.heap_bytes());
    }

    #[test]
    fn empty_prefix_resumes_from_the_start() {
        let spec = workload("milc").unwrap();
        let prefix = Arc::new(TracePrefix::generate(&spec, 2, 0));
        assert!(prefix.is_empty());
        let resumed: Vec<Uop> = TracePrefix::resume(&prefix).take(50).collect();
        let fresh: Vec<Uop> = spec.trace(2).take(50).collect();
        assert_eq!(resumed, fresh);
    }
}
