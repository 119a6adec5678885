//! # smol-runtime
//!
//! The mechanism of Smol's optimized end-to-end inference engine (§6.1) —
//! the stages, buffers and caches that `smol_serve::Server` schedules —
//! plus the profiling helpers the cost models consume and the baseline
//! runtime personalities of the appendix comparison.
//!
//! * [`pipeline`] — the stage functions of the pipelined executor: the
//!   producer stage decodes and preprocesses on the CPU, the consumer
//!   stage drives the virtual accelerator (transfer → accelerator-side
//!   preprocessing kernels → DNN batches). All §6.1 optimizations
//!   (producer count, buffer reuse, pinned staging) are runtime options
//!   for the Figure 7/8 lesion studies.
//! * [`media`] — the unit of decode work: a [`MediaItem`] is a still
//!   image or a video GOP; GOP items fan out into one staged tensor per
//!   frame the plan's frame selection materializes
//!   ([`pipeline::produce_media_item`]).
//! * [`bufferpool`] — recycled staging slots (f32 tensors, or the u8
//!   intermediate of a plan whose elementwise tail is accelerator-placed,
//!   §6.3): a server-lifetime arena, and per-query entitlements over it
//!   that provide the backpressure;
//! * [`tensorcache`] — the bounded decoded-tensor cache with single-flight
//!   fill: repeat queries over a hot corpus skip decode entirely (the
//!   in-memory half of the physical-representation store). It keeps what
//!   saves the most decode time per byte (access frequency × measured fill
//!   cost ÷ bytes) and admits a fill only if it outvalues what it would
//!   displace, so a cyclic scan larger than the budget cannot flush it;
//! * [`profiler`] — preprocessing/decode/execution throughput measurement:
//!   the producer stage run on its own, against the same pool type;
//! * [`personalities`] — DALI-like and PyTorch-like configurations
//!   (Figure 10).
#![deny(unsafe_code)]

pub mod bufferpool;
pub mod media;
pub mod personalities;
pub mod pipeline;
pub mod profiler;
pub mod tensorcache;

pub use bufferpool::{
    BufferPool, PoolStats, PooledBuffer, ShelfStats, SlotKind, StagingArena, StagingStats,
};
pub use media::{video_decode_params, wrap_gops, wrap_images, MediaItem, OutputLayout};
pub use personalities::Personality;
pub use pipeline::{
    decode_item, execute_device_batch, launch_device_batch, produce_decoded, produce_item,
    produce_media_item, route_stage, DeviceBatchSpec, PlanContext, ProducedItem, Result,
    RuntimeError, RuntimeOptions,
};
pub use profiler::{measure_exec_throughput, measure_preproc_throughput, Profiler};
pub use tensorcache::{TensorCache, TensorCacheStats};
