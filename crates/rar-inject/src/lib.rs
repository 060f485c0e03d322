//! Statistical fault-injection campaigns that cross-validate ACE-based
//! AVF estimates.
//!
//! ACE-bit analysis (the estimator the paper's Table III is built on) and
//! statistical fault injection (SFI) are the two standard ways to measure
//! architectural vulnerability, and each keeps the other honest: ACE
//! analysis is conservative (un-ACE-ness must be *proven*), while SFI is
//! ground truth for the sampled sites but only statistical. This crate
//! provides the campaign half:
//!
//! - [`outcome`] — the masked / SDC / DUE taxonomy, per-structure integer
//!   tallies, and 95% normal-approximation confidence intervals;
//! - [`journal`] — a JSONL completion journal with batched fsync and
//!   torn-tail-tolerant loading, making campaigns crash-consistent, and
//!   its writer, which cuts a failed append back off and which the
//!   daemon's queue journal shares;
//! - [`campaign`] — the resumable multi-threaded runner: `catch_unwind`
//!   per injection, transient-failure retry with capped backoff, and
//!   graceful degradation to partial results;
//! - [`validate`] — per-prediction-stratum tallies for auditing the
//!   static bit-liveness analysis: strikes into bits the analysis proved
//!   dead must show vulnerability statistically consistent with zero.
//!
//! Site planning (what to hit, when) lives in `rar_core::inject`; the
//! simulator-facing executor that arms a fault, runs the pipeline under a
//! watchdog, and diffs commit digests lives in `rar-sim`. This crate is
//! deliberately simulator-agnostic: the runner only needs a
//! [`rar_core::FaultInjector`] and a classification closure, which is what
//! makes its determinism and resume logic testable with mock executors in
//! milliseconds.

pub mod campaign;
pub mod journal;
pub mod outcome;
pub mod validate;

pub use campaign::{run_campaign, CampaignResult, CampaignSpec};
pub use journal::{
    load_journal, validate_journal_path, JournalPathError, JournalRecord, JournalWriter,
};
pub use outcome::{tally_document, Outcome, Tally, TargetTally};
pub use validate::{StratifiedTally, Stratum};
