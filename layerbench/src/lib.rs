//! A dependency-free, layered benchmark of the RAR simulator.
//!
//! Six workloads ([`spec::Workload`]) drive the workspace crates through
//! their public functions only, timed from outside with
//! [`std::time::Instant`]:
//!
//! - [`workloads::measure`] is the untraced run behind the end-to-end
//!   metrics ([`spec::END_TO_END`]);
//! - [`workloads::trace`] is the separate traced run behind the
//!   per-layer metrics ([`spec::PER_LAYER`]): it calls each layer itself
//!   ([`layered`]), wraps each call in a span, and checks its results
//!   equal `Simulation::try_run`'s byte for byte;
//! - [`report`] turns either into the printed metrics, the JSON report,
//!   `trace.json` and `layers.json`, and compares two reports.
//!
//! Every simulated output is folded into a [`digest`] that must agree
//! across passes and, at the default seed, with the committed goldens.

pub mod digest;
pub mod json;
pub mod layered;
pub mod report;
pub mod serve;
pub mod spec;
pub mod stats;
pub mod workloads;
