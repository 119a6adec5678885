//! # smol-imgproc
//!
//! Image containers and preprocessing operators for the Smol visual-analytics
//! engine, together with the preprocessing computation-DAG optimizer described
//! in §6.2 of the paper (rule-based reordering + fusion, cost-based plan
//! selection by arithmetic-operation counting).
//!
//! The operators implemented here cover the standard DNN inference
//! preprocessing pipeline (§2 of the paper):
//!
//! 1. decode (lives in `smol-codec` / `smol-video`),
//! 2. aspect-preserving resize + central crop,
//! 3. conversion to `f32`, division by 255, per-channel normalization,
//! 4. channel reordering to planar CHW ("split").
//!
//! All operators exist both as standalone kernels and as a fused tail kernel
//! (`ops::fused`) that performs convert+normalize+split in one memory pass,
//! which the DAG optimizer selects when profitable.
//!
//! [`tier`] compiles the lane-batched kernels (the compiled prefix here, the
//! decoders' block reconstruction in `smol-codec` / `smol-video`) a second
//! time for AVX2 and picks the copy at runtime; it is the one module of the
//! workspace where the `unsafe_code` lint is allowed.
//!
//! [`rng`] is the workspace's one seeded generator (synthetic corpora,
//! weight initialisation, sample orders); it lives here because every crate
//! that draws from it already depends on this one.
#![deny(unsafe_code)]

pub mod dag;
pub mod error;
pub mod image;
pub mod ops;
pub mod rng;
pub mod tier;

pub use dag::{DagOptimizer, OpCost, OpSpec, PlacedOp, Placement, PreprocPlan};
pub use error::{Error, Result};
pub use image::{psnr, ImageU8, Layout, Rect, TensorF32};
