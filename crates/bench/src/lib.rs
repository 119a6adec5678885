//! # smol-bench
//!
//! The experiment harness: shared plumbing ([`context`], [`report`]), one
//! timing estimator ([`measure()`]), one pass/fail path ([`Gate`]), and the
//! binaries built on them (see `src/bin/`):
//!
//! * `paper_shapes` — every table and figure of the paper's §7–§8 and
//!   Appendix A. Each section prints a paper-vs-measured table, writes a
//!   CSV under `results/`, and asserts the qualitative shape the paper
//!   reports (an ordering, a crossover, "lowest error"), never an absolute
//!   number; `docs/PAPER_SHAPES.md` lists each shape and its reading.
//! * eight system gates (`decode_hotpath`, `serve_concurrent`,
//!   `serve_fleet`, `figure_lowres`, `figure_video`, `variant_store`,
//!   `live_stream`, `figure_cascade`), each exiting non-zero when a
//!   threshold fails.
//!
//! Quick mode (`SMOL_QUICK=1`) shrinks sample counts for CI; full runs
//! reproduce the shapes with more statistical weight.
#![deny(unsafe_code)]

pub mod context;
pub mod gate;
pub mod imagexp;
pub mod measure;
pub mod report;

pub use context::{
    decode_label, default_planner, naive_planner, quick_mode, run_once, scaled, simple_plan,
    t4_device, tier_model, ModelZoo, VariantKind, VariantSet, VCPUS,
};
pub use gate::Gate;
pub use measure::{measure, timed, Paired, REPS};
pub use report::{fmt_pct, fmt_ratio, fmt_tput, Table};
