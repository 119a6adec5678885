//! # smol-core
//!
//! The paper's primary contribution: preprocessing-aware cost modeling and
//! joint (DNN × input format) plan optimization.
//!
//! * [`constraints`] — declarative query constraints (accuracy floors,
//!   throughput floors, cost ceilings) with typed [`PlanError`] failures
//!   and plan-cache key derivation — the vocabulary of the §3.1 contract
//!   ("the user provides an accuracy target, Smol picks the plan");
//! * [`costmodel`] — the three throughput estimators of §4/Table 3:
//!   Smol's `min(preproc, exec)`, BlazeIt's exec-only, Tahoma's additive —
//!   plus cascade throughput (Eq. 2);
//! * [`plan`] — plan representation (DNN, input variant, preprocessing
//!   pipeline, decode mode);
//! * [`pareto`] — the Pareto frontier (§3.1);
//! * [`placement`] — CPU/accelerator operator placement (§6.3): the split
//!   search the planner runs on every candidate ([`Planner::place`]), both
//!   sides on one clock;
//! * [`planner`] — D × F enumeration with lesion toggles (DAG
//!   optimization, storage-aware costing, cascades, placement) used by the
//!   Figure 7–8 experiments and the gates. GOP-structured video
//!   inputs get their own decode ladder — [`plan::FrameSelection`]
//!   (all / keyframe-only) × an in-loop-deblock knob — costed
//!   per *source* frame with the I-frame amortized over the GOP and
//!   accuracies discounted through [`planner::VideoFidelity`];
//! * [`stream`] — live-stream pacing vocabulary: [`stream::PacingPolicy`]
//!   maps observed lag onto degradation-ladder rungs or GOP drops, the
//!   deadline-driven counterpart of batch degradation;
//! * [`rewrite`] — decode-aware plan rewriting: elides or shrinks the
//!   resize when a partial/reduced decode already produced the needed
//!   geometry (§6.4), shared by the planner (costing) and runtime
//!   (execution); plus [`rewrite::decode_cost`], the one weighted-op price
//!   of every decode mode, stills and video GOPs alike.
#![deny(unsafe_code)]

pub mod constraints;
pub mod costmodel;
pub mod pareto;
pub mod placement;
pub mod plan;
pub mod planner;
pub mod rewrite;
pub mod stream;

pub use constraints::{Constraint, ConstraintKey, PlanError};
pub use costmodel::{
    cascade_exec_throughput, estimate_throughput, percent_error, storage_adjusted_preproc,
    CascadeStage, CostModelKind, StorageProfile,
};
pub use pareto::pareto_frontier;
pub use placement::{choose_placement, PlacementDecision, PlacementEstimate, PlacementRates};
pub use plan::{
    CascadePlan, DecodeMode, FrameSelection, InputVariant, PlacementSignature, PlanCandidate,
    QueryPlan,
};
pub use planner::{CandidateSpec, Planner, PlannerConfig, RoutingSpec, VideoFidelity};
pub use rewrite::{costed_preproc_for_decode, decode_cost, rewrite_preproc_for_decode, DecodeCost};
pub use stream::{PaceDecision, PacingPolicy};
