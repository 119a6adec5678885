//! Library half of the repo benchmark: the harness, the probe, the trace
//! recorder and the four workloads. `main.rs` is the command the driver
//! runs; `bin/aa_report.rs` turns result lines into `AA.md`. See README.md.

pub mod harness;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod os;
pub mod probe;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod workloads;
