//! rar-serve: a long-running campaign service over the RAR sweep engine.
//!
//! The crate turns the batch-oriented simulator into a daemon: a
//! dependency-free HTTP/1.1 server ([`server::CampaignServer`]) fronting
//! a persistent priority job queue ([`queue::JobQueue`]) and a shared
//! worker pool. Every job runs through one shared
//! [`rar_sim::SweepSession`], so the content-addressed result cache and
//! the single-flight deduplication gate span clients: two requests for
//! the same sweep cell cost one simulation.
//!
//! The queue journals submissions and terminal states to disk through
//! rar-inject's campaign-journal writer (`rar_inject::JournalWriter`),
//! and both journals replay through one function
//! (`rar_inject::journal::replay`); a killed daemon restarted on the same
//! data directory resumes every queued or running job. Fault-injection
//! jobs additionally journal per injection, so resumption is
//! injection-exact.
//!
//! Modules:
//! - [`http`] — minimal HTTP/1.1 request parsing and response writing
//! - [`jobs`] — job specs, phases, and flat-JSON (de)serialization
//! - [`queue`] — the journaled priority queue
//! - [`server`] — the daemon: routes, workers, cancellation, metrics
//! - [`client`] — a thin blocking client for the CLI and CI smoke tests

pub mod client;
pub mod http;
pub mod jobs;
pub mod queue;
pub mod server;

pub use client::ServeClient;
pub use jobs::{InjectJob, JobKind, JobPhase, JobSpec, SweepJob};
pub use queue::{JobQueue, QueuedJob};
pub use server::{CampaignServer, ServeOptions};
