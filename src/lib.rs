//! # Reliability-Aware Runahead (RAR)
//!
//! A cycle-level out-of-order core simulator with ACE-bit soft-error
//! accounting, reproducing *"Reliability-Aware Runahead"* (Naithani &
//! Eeckhout, HPCA 2022).
//!
//! This facade crate re-exports the whole workspace:
//!
//! - [`isa`] — micro-op ISA and instruction streams,
//! - [`workloads`] — synthetic SPEC-like workload generators,
//! - [`frontend`] — TAGE-SC-L branch prediction and front-end model,
//! - [`mem`] — cache hierarchy, MSHRs, stride prefetching, DDR3 DRAM,
//! - [`ace`] — ACE/ABC/AVF/MTTF reliability accounting,
//! - [`core`] — the out-of-order core and every runahead variant,
//! - [`trace`] — cycle-level pipeline tracing sinks and exporters,
//! - [`sim`] — configuration, the simulation driver, and experiment runners.
//!
//! # Quickstart
//!
//! ```
//! use rar::sim::{SimConfig, Simulation};
//! use rar::core::Technique;
//!
//! let cfg = SimConfig::builder()
//!     .workload("libquantum")
//!     .technique(Technique::Rar)
//!     .instructions(5_000)
//!     .build();
//! let result = Simulation::run(&cfg);
//! assert!(result.ipc() > 0.0);
//! ```
//!
//! # Reproducing the paper
//!
//! The `rar-experiments` binary regenerates every table and figure of the
//! evaluation section; `EXPERIMENTS.md` records paper-versus-measured
//! values and `DESIGN.md` documents the calibration decisions and
//! deliberate deviations. Beyond the paper, the workspace implements the
//! related-work design points it compares against (dispatch throttling,
//! runahead buffer, continuous runahead, vector runahead), statistical
//! fault injection, phase-resolved AVF, and a first-order energy model.

pub use rar_ace as ace;
pub use rar_core as core;
pub use rar_frontend as frontend;
pub use rar_isa as isa;
pub use rar_mem as mem;
pub use rar_sim as sim;
pub use rar_trace as trace;
pub use rar_workloads as workloads;
