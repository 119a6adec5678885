//! # smol-analytics
//!
//! The query-processing methods of the two client systems Smol is
//! integrated into (§3.2, §8):
//!
//! * [`cascade`] — Tahoma-style classification cascades: a cheap
//!   specialized classifier answers confident inputs; the rest pass to the
//!   accurate target model;
//! * [`aggregation`] — BlazeIt-style aggregation with specialized-NN
//!   control variates: sequential sampling until the confidence interval
//!   meets the error target, with variance reduced by the correlation
//!   between the specialized predictions and the truth;
//! * [`windows`] — tumbling-window rollups for continuous queries: the
//!   per-window mean/coverage bookkeeping behind live-stream results.
//!
//! Both use *real* trained `smol-nn` models for accuracy/selectivity and
//! the virtual accelerator + runtime pipeline for time.
#![deny(unsafe_code)]

pub mod aggregation;
pub mod cascade;
pub mod windows;

pub use aggregation::{
    control_variate_mean, correlation, naive_mean, AggregationConfig, AggregationOutcome,
    SpecializedCounter,
};
pub use cascade::{tahoma_variants, Cascade, CascadeEval, CascadeVariant};
pub use windows::{WindowAggregate, WindowRollup};
