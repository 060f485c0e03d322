//! Static analysis and runtime verification for the RAR workspace.
//!
//! Four cooperating layers, none of which perturbs the simulation:
//!
//! - [`liveness`] — a single backward pass over [`rar_isa`] uop streams
//!   that classifies first-level (FDD) and transitively (TDD)
//!   dynamically-dead destination values and dead destination bits.
//!   Mukherjee-style ACE accounting counts every committed instruction as
//!   ACE; BEC-style static analysis shows that a committed value nobody
//!   ever reads is architecturally un-ACE. The resulting per-uop
//!   [`AceClass`] lets the ACE counter report a *refined* AVF next to the
//!   paper's unrefined one.
//! - [`transfer`] — per-`UopKind` bit-transfer functions refining *which
//!   bits* of a live value are ACE (branch conditions collapse to one bit,
//!   addresses to their low 48, carry chains to their live prefix), which
//!   the same pass applies to yield the bit-refined AVF. The same
//!   transfer table drives the core's forward per-bit poison propagation,
//!   so every static dead-bit claim is falsifiable by fault injection; a
//!   bit-exact reference interpreter ([`interp`]) backs the property
//!   tests.
//! - [`sanitize`] — cross-structure conservation invariants (uop, register
//!   and MSHR bookkeeping, ROB ordering, ACE stall-window balance) checked
//!   every cycle when the core is built with `--features sanitize`, with
//!   precise first-violation diagnostics.
//! - [`config`] — typed configuration errors ([`ConfigError`]) shared by
//!   the core, memory and simulation config validators so inconsistent
//!   Table II parameters are rejected before a simulation starts instead
//!   of surfacing as runtime panics inside a sweep.
//!
//! # Examples
//!
//! ```
//! use rar_isa::{ArchReg, Uop, UopKind};
//! use rar_verify::{analyze, AceClass};
//!
//! // r1 is written twice with no intervening read: the first write is
//! // first-level dynamically dead (FDD).
//! let uops = vec![
//!     Uop::alu(0x0, UopKind::IntAlu).with_dest(ArchReg::int(1)),
//!     Uop::alu(0x4, UopKind::IntAlu).with_dest(ArchReg::int(1)),
//!     Uop::alu(0x8, UopKind::IntAlu)
//!         .with_src(ArchReg::int(1))
//!         .with_dest(ArchReg::int(2)),
//! ];
//! let refinement = analyze(&uops);
//! assert_eq!(refinement.class(0), AceClass::Fdd);
//! assert_eq!(refinement.class(1), AceClass::Live);
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod interp;
pub mod liveness;
pub mod sanitize;
pub mod transfer;

pub use config::ConfigError;
pub use interp::{interpret, Observation, ValueFlip};
pub use liveness::{analyze, AceClass, AceRefinement, RefinementSummary, ADDR_BITS};
pub use sanitize::{Invariant, Sanitizer, Violation};
pub use transfer::{
    all_if_any, consumed_src_mask, dest_poison_mask, smear_down, smear_up, src_live_mask,
    ADDR_MASK, ALL_KINDS, MASK_BITS,
};
