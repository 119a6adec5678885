//! # smol-serve
//!
//! The execution engine of the Smol reproduction, built for the case the
//! paper stops short of. The paper's engine (§6.1) executes one query at a
//! time; at production scale many analytics queries arrive concurrently
//! and must share one accelerator. There is one engine for both — a
//! one-shot run is [`Server::run_once`], the same server with one query in
//! it. This crate provides:
//!
//! * [`Session`] — the declarative, constraint-driven facade (§3.1's
//!   contract): register a [`Dataset`] once — still images or a
//!   GOP-structured video corpus ([`Dataset::video`]) — submit [`Query`]s
//!   stating an accuracy/throughput/cost constraint plus per-tenant SLOs
//!   ([`Query::deadline`], [`Query::priority`],
//!   [`Query::allow_degradation`]), and the session profiles, plans,
//!   caches, and executes — no hand-built `CandidateSpec`s or
//!   `QueryPlan`s, and typed [`SessionError`] failures (including
//!   [`SessionError::DeadlineInfeasible`]). For video, frame selection is
//!   the planner's call: GOPs are the serving items and reports count
//!   frames;
//! * [`Server`] — a long-lived runtime accepting concurrent
//!   [`smol_core::QueryPlan`] submissions ([`Server::submit`] of a
//!   [`SubmitRequest`], closed or open) over a *fleet* of
//!   [`smol_accel::VirtualDevice`]s ([`Server::with_devices`]): one shared
//!   producer pool, priority-aware bounded admission
//!   ([`ServeError::Backpressure`]), dispatch of each batch to the
//!   device lane expected to finish it first, work stealing between lanes, and load-adaptive
//!   degradation down each query's calibrated plan ladder
//!   ([`SubmitOptions`]);
//! * [`scheduler`] — the fair-share + signature-batching policy: item-level
//!   round-robin across queries, cross-query device batches formed
//!   whenever plans share a [`smol_core::PlacementSignature`], the three
//!   rules that release a batch (full, signature drained, priority drain —
//!   a partial batch never waits for lower-priority work), and the lane
//!   choice;
//! * [`QueryHandle`]/[`QueryReport`] — per-query resolution, blocking
//!   ([`QueryHandle::wait`]) or non-blocking ([`QueryHandle::poll`],
//!   [`QueryHandle::wait_deadline`]), with
//!   p50/p95 item latency; an open query's handle also takes items
//!   ([`QueryHandle::append`]) and delivers per-item [`Completion`]s; plus
//!   fleet-wide [`ServerStats`] (aggregate
//!   counters + per-device [`DeviceLaneStats`]).
//!
//! Inside, [`server`] holds admission, each query's state and the producer
//! loop; a private `window` module holds a query's per-item state (a slot
//! per item from its oldest unresolved one to its newest), and a private
//! `lanes` module the device half — lane queues, dispatch, consumer
//! threads and stealing — which sees formed batches, never a query's
//! items. Reports and completions travel over `std::sync::mpsc` channels;
//! [`Server`] and [`QueryHandle`] are `Send + Sync`.
//!
//! The per-image and per-batch stage code is `smol_runtime`'s
//! ([`smol_runtime::produce_item`] / [`smol_runtime::launch_device_batch`]),
//! which is also what the profiler runs on its own, so a plan is profiled
//! on the stage code that serves it. `tests/serve_concurrency.rs` pins a
//! served query's results bit for bit to the scalar reference decoder.
#![deny(unsafe_code)]

pub mod calibration;
pub mod dataset;
mod lanes;
pub mod plancache;
pub mod scheduler;
pub mod server;
pub mod session;
pub mod stats;
mod window;

pub use calibration::{AccuracyTable, Calibration, MeasuredCalibration};
pub use dataset::Dataset;
pub use plancache::{CacheStats, ChosenPlan, DeviceKey, PlanCache, PlanKey};
pub use scheduler::{BatchFormer, FormedBatch, Priority};
pub use server::{
    Completion, DegradeStep, QueryHandle, QueryId, QueryPoll, ServeError, ServeResult, Server,
    ServerConfig, SubmitOptions, SubmitRequest,
};
pub use session::{Explanation, Query, Session, SessionConfig, SessionError, StreamLadder};
pub use stats::{percentile, BoxedPrediction, DeviceLaneStats, QueryReport, ServerStats};
