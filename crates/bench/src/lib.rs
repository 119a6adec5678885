//! # smol-bench
//!
//! The experiment harness: shared plumbing ([`context`], [`report`]) and
//! one binary per paper table/figure (see `src/bin/`). Each binary prints
//! a paper-vs-measured table and writes a CSV under `results/`.
//!
//! Quick mode (`SMOL_QUICK=1`) shrinks sample counts for smoke runs; full
//! runs reproduce the shapes with more statistical weight.

pub mod context;
pub mod imagexp;
pub mod report;

pub use context::{
    candidate, decode_label, default_planner, naive_planner, quick_mode, run_once, scaled,
    simple_plan, t4_device, tier_model, ModelZoo, VariantKind, VariantSet, VCPUS,
};
pub use report::{fmt_pct, fmt_ratio, fmt_tput, results_dir, Table};
