//! The out-of-order core and every runahead variant — the paper's
//! contribution.
//!
//! This crate implements a cycle-level out-of-order core (Table II:
//! 4-wide, 192-entry ROB, 92-entry IQ, 64/64 LQ/SQ, 168+168 physical
//! registers, the Table II functional-unit pool) together with the eight
//! evaluated techniques ([`Technique`]):
//!
//! - the **OoO** baseline,
//! - **FLUSH** (Weaver et al.): flush behind a blocking miss, refill on
//!   return,
//! - **TR / TR-EARLY** (Mutlu et al.): traditional runahead — execute the
//!   whole future stream, flush at exit,
//! - **PRE / PRE-EARLY** (Naithani et al., HPCA 2020): lean runahead over
//!   stalling slices ([`sst::Sst`], [`sst::Prdq`]), ROB kept at exit,
//! - **RAR-LATE / RAR** (*this paper*): PRE plus flush-at-exit (back-end
//!   state becomes un-ACE) and, for RAR, the early countdown-timer trigger
//!   that fires as soon as a miss blocks commit.
//!
//! Reliability is accounted through `rar-ace` at commit/squash granularity:
//! see [`pipeline::Core`] for the modelling notes.
//!
//! # Examples
//!
//! ```
//! use rar_core::{Core, CoreConfig, Technique};
//! use rar_mem::MemConfig;
//! use rar_isa::{TraceWindow, Uop, UopKind, ArchReg};
//!
//! let stream = (0u64..).map(|i| {
//!     Uop::alu(0x1000 + (i % 32) * 4, UopKind::IntAlu)
//!         .with_dest(ArchReg::int((i % 8) as u8))
//! });
//! let mut core = Core::new(
//!     CoreConfig::baseline(),
//!     MemConfig::baseline(),
//!     Technique::Rar,
//!     TraceWindow::new(stream),
//! );
//! core.run_until_committed(500);
//! let report = core.reliability_report();
//! assert!(report.avf() >= 0.0);
//! ```

pub mod config;
pub mod fu;
pub mod inject;
mod iq;
pub mod pipeline;
pub mod regfile;
pub mod rob;
pub mod runahead;
pub mod sst;
pub mod stall;
pub mod stats;
pub mod technique;

pub use config::{exec_latency, CoreConfig, FuConfig};
pub use inject::{
    FaultInjector, FaultLanding, FaultReport, FaultTarget, PlannedFault, SiteSampler,
};
pub use pipeline::{Core, PipelineSnapshot, RunVerdict};
pub use rar_trace::{NullSink, RingSink, TraceEvent, TraceSink};
pub use stall::{occ_bucket, StallBucket, StallProfile, OCC_BUCKETS, OCC_STRUCTURES};
pub use stats::CoreStats;
pub use technique::{RunaheadFeatures, Technique};
