//! ACE-bit soft-error accounting.
//!
//! Implements the reliability methodology of Section IV-B of the paper
//! (Mukherjee et al.'s *Architecturally Correct Execution* analysis):
//!
//! - **ABC** (ACE Bit Count): total vulnerable bit-cycles exposed by
//!   correct-path instructions, broken down per microarchitectural
//!   structure ([`Structure`]) with the per-entry bit widths of Table III
//!   ([`bits`]).
//! - **AVF** (Architectural Vulnerability Factor): `ABC / (N × T)`.
//! - **FIT / MTTF**: derated failure rates; we report MTTF *relative to a
//!   baseline*, which cancels the technology-dependent raw error rate.
//!
//! The accounting is *squash-aware by construction*: the core reports a
//! resource interval only when the occupying instruction **commits**. Any
//! interval terminated by a squash — branch-misprediction recovery, a
//! runahead-exit flush (RAR/TR), or a FLUSH-style pipeline flush — is simply
//! never reported, making wrong-path, NOP, and runahead-speculative state
//! un-ACE exactly as the paper prescribes.
//!
//! For the Figure 5 analysis, [`AceCounter`] additionally attributes ACE
//! bit-cycles to *stall windows*: the core opens a [`StallKind`] window when
//! a long-latency load blocks commit (or when the ROB fills), closes it when
//! the load returns, and every committed interval is intersected against
//! those windows.
//!
//! # Examples
//!
//! ```
//! use rar_ace::{AceCounter, Structure, StallKind};
//!
//! let mut ace = AceCounter::new();
//! ace.open_window(StallKind::RobHeadBlocked, 100);
//! ace.close_window(StallKind::RobHeadBlocked, 250);
//! // A ROB entry (120 bits) occupied from cycle 50 to 300:
//! ace.record_committed(Structure::Rob, 120, 50, 300);
//! assert_eq!(ace.abc(Structure::Rob), 120 * 250);
//! // 150 of those 250 cycles fell inside the blocked window:
//! assert_eq!(ace.abc_in_window(StallKind::RobHeadBlocked), 120 * 150);
//! ```

pub mod bits;
pub mod counter;
pub mod metrics;
pub mod phase;
pub mod structure;
pub mod window;

pub use bits::EntryBits;
pub use counter::{AceCounter, LoggedInterval};
pub use metrics::{avf, mttf_relative, ReliabilityReport, StructureCapacities};
pub use phase::{OccupancyProfile, PhaseSeries};
pub use structure::Structure;
pub use window::{StallKind, WindowSet};
