//! Micro-op ISA, register model, and instruction-stream abstractions.
//!
//! This crate defines the dynamic instruction representation shared by every
//! other crate in the RAR workspace: [`Uop`] (a decoded micro-operation with
//! its register operands, memory reference, and branch metadata), the
//! architectural register file model ([`ArchReg`], [`RegClass`]), and the
//! [`UopSource`]/[`TraceWindow`] machinery that lets a cycle-level simulator
//! re-fetch instructions after a pipeline flush without requiring workload
//! generators to support random access.
//!
//! # Examples
//!
//! ```
//! use rar_isa::{Uop, UopKind, ArchReg, TraceWindow, UopSource};
//!
//! // A trivial stream of independent integer adds.
//! let stream = (0u64..).map(|i| {
//!     Uop::alu(0x1000 + 4 * i, UopKind::IntAlu)
//!         .with_dest(ArchReg::int((i % 8) as u8))
//! });
//! let mut window = TraceWindow::new(stream);
//! let first = window.get(0).clone();
//! assert_eq!(first.pc(), 0x1000);
//! // Re-fetching after a flush yields the identical micro-op.
//! assert_eq!(window.get(0).pc(), first.pc());
//! ```

pub mod block;
pub mod reg;
pub mod rng;
pub mod stream;
pub mod uop;

pub use block::{cache_line, CACHE_LINE_BYTES};
pub use reg::{ArchReg, RegClass, NUM_ARCH_REGS_PER_CLASS};
pub use stream::{TraceWindow, UopSource};
pub use uop::{BranchClass, BranchInfo, MemInfo, Uop, UopKind};
