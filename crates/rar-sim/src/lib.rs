//! Simulation driver and experiment harness.
//!
//! Ties the workspace together: [`SimConfig`] describes one run (workload,
//! technique, core/memory configuration, instruction budget);
//! [`Simulation::run`] executes it and returns a [`SimResult`] with
//! performance, reliability, and memory statistics; [`experiment`]
//! regenerates every table and figure of the paper's evaluation section;
//! [`report`] provides the aggregation rules (arithmetic mean for ABC and
//! MLP, harmonic mean for IPC, geometric mean for MTTF — following John's
//! methodology, as the paper does) and table/CSV formatting.
//!
//! # Examples
//!
//! ```
//! use rar_sim::{SimConfig, Simulation};
//! use rar_core::Technique;
//!
//! let cfg = SimConfig::builder()
//!     .workload("libquantum")
//!     .technique(Technique::Rar)
//!     .instructions(3_000)
//!     .warmup(500)
//!     .build();
//! let result = Simulation::run(&cfg);
//! assert!(result.ipc() > 0.0);
//! ```

pub mod cache;
pub mod config;
pub mod dashboard;
pub mod energy;
pub mod experiment;
pub mod inject;
pub mod json;
pub mod protection;
pub mod report;
pub mod run;
pub mod sweep;

pub use cache::{DiskCache, CACHE_VERSION};
pub use config::{SimConfig, SimConfigBuilder, TraceSettings};
pub use energy::EnergyModel;
pub use experiment::{ExperimentOptions, Suite};
pub use inject::{run_injection_campaign, InjectionHarness};
pub use report::{amean, gmean, hmean, Table};
pub use run::{RunOutput, SimResult, Simulation};
pub use sweep::{RunError, SweepSession, SweepStats, Watchdog};
