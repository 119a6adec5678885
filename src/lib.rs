//! # Smol — umbrella crate
//!
//! Re-exports the public API of the Smol reproduction so that examples and
//! downstream users can depend on a single crate. See the workspace README
//! for the architecture overview and `docs/ARCHITECTURE.md` for the crate map.
//!
//! The front door is the declarative [`Session`] (§3.1's contract):
//! register a [`Dataset`], state a constraint, get a served result. This
//! is the README's Quickstart at doctest scale (it really runs —
//! profiling, planning, caching, serving):
//!
//! ```
//! use smol::accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
//! use smol::data::{serving_variants, still_catalog};
//! use smol::{AccuracyTable, Calibration, Dataset, Query, Session, SessionConfig};
//!
//! # fn main() -> Result<(), smol::Error> {
//! let device = VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 0.05);
//! let session = Session::new(device, SessionConfig::default());
//! // The §8.1 serving layout: full-res sjpg(q=95) + 161px thumbnails.
//! let spec = &still_catalog()[3];
//! session.register(
//!     Dataset::new("photos")
//!         .with_model(ModelKind::ResNet50)
//!         .with_model(ModelKind::ResNet34)
//!         .with_encoded_variants(serving_variants(spec, 1, 8).expect("encode"))
//!         .with_calibration(Calibration::Table(
//!             AccuracyTable::new()
//!                 .with(ModelKind::ResNet50, "full-res sjpg(q=95)", 0.7516)
//!                 .with(ModelKind::ResNet50, "161 spng", 0.7500)
//!                 .with(ModelKind::ResNet34, "full-res sjpg(q=95)", 0.7272),
//!         )),
//! )?;
//! // "Within half a point of the best accuracy, go as fast as possible."
//! let report = session.run(&Query::new("photos").max_accuracy_loss(0.005))?;
//! assert_eq!(report.images, 8);
//! session.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! Video corpora go through the same door — GOPs are the serving items,
//! the planner picks the frame selection (see `examples/video_query.rs`
//! for the full walkthrough):
//!
//! ```
//! use smol::accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
//! use smol::data::{gop_corpus, video_catalog};
//! use smol::{AccuracyTable, Calibration, Dataset, Query, Session, SessionConfig};
//!
//! # fn main() -> Result<(), smol::Error> {
//! let corpus = gop_corpus(&video_catalog()[1], 7, 4, 6); // 4 GOPs x 6 frames
//! let variant = corpus.name.clone();
//! let device = VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 0.05);
//! let session = Session::new(device, SessionConfig::default());
//! session.register(
//!     Dataset::video("traffic", corpus)
//!         .with_model(ModelKind::ResNet50)
//!         .with_calibration(Calibration::Table(
//!             AccuracyTable::new()
//!                 .with(ModelKind::ResNet50, &variant, 0.81)
//!                 .with_keyframes(ModelKind::ResNet50, &variant, 0.81, 0.79),
//!         )),
//! )?;
//! // Tolerant: the planner picks keyframe-only decode — 1 frame per GOP.
//! let fast = session.run(&Query::new("traffic").max_accuracy_loss(0.03))?;
//! assert_eq!(fast.images, 4);
//! // Zero-loss: full-GOP decode — every frame.
//! let strict = session.run(&Query::new("traffic").max_accuracy_loss(0.0))?;
//! assert_eq!(strict.images, 24);
//! session.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! The lower layers stay addressable for harnesses and lesion studies:
//!
//! ```
//! use smol::imgproc::{DagOptimizer, PreprocPlan};
//! let plan = PreprocPlan::standard(256, 224, 224);
//! let optimized = DagOptimizer::default().optimize(&plan, 640, 480);
//! assert!(optimized.ops.len() <= plan.ops.len());
//! ```
#![deny(unsafe_code)]

// The declarative top of the stack, at the crate root.
pub use smol_core::{Constraint, FrameSelection, PlanError};
pub use smol_serve::{
    AccuracyTable, CacheStats, Calibration, Dataset, Explanation, MeasuredCalibration, PlanCache,
    Priority, Query, Session, SessionConfig, SessionError,
};
pub use smol_stream::{
    run_stream, FeedSource, StreamConfig, StreamHandle, StreamSource, StreamStats, WindowResult,
};

/// The workspace-level error type: everything `Session` operations can
/// fail with (planning, serving, registration).
pub use smol_serve::SessionError as Error;

pub use smol_accel as accel;
pub use smol_analytics as analytics;
pub use smol_codec as codec;
pub use smol_core as core;
pub use smol_data as data;
pub use smol_imgproc as imgproc;
pub use smol_nn as nn;
pub use smol_runtime as runtime;
pub use smol_serve as serve;
pub use smol_stream as stream;
pub use smol_video as video;
