//! Guards the `smol` umbrella crate's re-export surface: every module the
//! facade promises must resolve, and the flagship types must be nameable
//! through it. A manifest regression (dropped member crate, renamed
//! package, broken `pub use`) fails this file at compile time, so
//! `cargo test` catches it before any downstream user does.

use smol::accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol::analytics::{Cascade, SpecializedCounter};
use smol::codec::{EncodedImage, Format, SjpgEncoder};
use smol::core::{CostModelKind, Planner, PlannerConfig, QueryPlan};
use smol::data::{still_catalog, video_catalog};
use smol::imgproc::dag::{DagOptimizer, PreprocPlan};
use smol::imgproc::{ImageU8, Layout, Rect, TensorF32};
use smol::nn::{SmolClassifier, Tier};
use smol::runtime::{BufferPool, Personality, RuntimeOptions};
use smol::stream::{PaceDecision, PacingPolicy};
use smol::video::{EncodedVideo, VideoEncoder};
use smol::{AccuracyTable, Constraint, Dataset, PlanError, Query, Session, SessionConfig};

/// Every facade module path resolves and its flagship types are usable
/// (not just importable) through `smol::*`.
#[test]
fn facade_types_are_constructible() {
    let img = ImageU8::zeros(8, 8, 3);
    assert_eq!((img.width(), img.height()), (8, 8));
    let _: Rect = Rect::new(0, 0, 4, 4);
    let _: &[Layout] = &[];
    let _: Option<TensorF32> = None;

    let plan = PreprocPlan::standard(256, 224, 224);
    let optimized = DagOptimizer::default().optimize(&plan, 640, 480);
    assert!(optimized.ops.len() <= plan.ops.len());

    let encoded = EncodedImage::encode(&img, Format::sjpg(90)).unwrap();
    assert_eq!((encoded.width, encoded.height), (8, 8));
    let _ = SjpgEncoder::new(90);

    let planner = Planner::new(PlannerConfig::default());
    let _: &Planner = &planner;
    let _: CostModelKind = CostModelKind::Smol;
    let _: Option<QueryPlan> = None;

    let pool = BufferPool::new(2, 64, true, false);
    assert_eq!(pool.stats().allocated, 0);
    let _: RuntimeOptions = RuntimeOptions::default();
    let _: Option<Personality> = None;

    let device = VirtualDevice::new(GpuModel::K80, ExecutionEnv::TensorRt, 1.0);
    assert!(device.model_throughput(ModelKind::ResNet50, 16) > 0.0);

    assert!(!still_catalog().is_empty());
    assert!(!video_catalog().is_empty());

    // The declarative top of the stack lives at the crate root, and
    // `smol::Error` aliases the session error type.
    let _: Query = Query::new("photos").max_accuracy_loss(0.005);
    let _: Dataset = Dataset::new("photos");
    let _: AccuracyTable = AccuracyTable::new();
    let _: Constraint = Constraint::MinThroughput(100.0);
    let typed: smol::Error = PlanError::NoCandidates.into();
    assert!(matches!(typed, smol::Error::Plan(PlanError::NoCandidates)));
    let _: Option<Session> = None;
    let _: SessionConfig = SessionConfig::default();

    let _: Option<SmolClassifier> = None;
    let _: Tier = Tier::T18;
    let _: Option<SpecializedCounter> = None;
    let _: Option<Cascade> = None;
    let _: Option<EncodedVideo> = None;
    let _: Option<VideoEncoder> = None;

    // Live-stream serving: the pacing policy is pure and constructible.
    let policy = PacingPolicy::default();
    assert_eq!(policy.decide(0.0, 3), PaceDecision::Submit { rung: 0 });
    let _: Option<smol::StreamConfig> = None;
    let _: Option<smol::StreamHandle> = None;
    let _: Option<smol::StreamStats> = None;
    let _: Option<smol::WindowResult> = None;
    let _: Option<smol::FeedSource> = None;
}

/// The facade modules alias the underlying `smol_*` crates (same types,
/// not parallel copies), so code mixing both spellings interoperates.
#[test]
fn facade_modules_alias_member_crates() {
    fn takes_member_crate_type(img: smol_imgproc::ImageU8) -> smol::imgproc::ImageU8 {
        img
    }
    let img = smol::imgproc::ImageU8::zeros(2, 2, 1);
    assert_eq!(takes_member_crate_type(img).channels(), 1);
}

/// The public serving handles cross threads and are shared between them (a
/// stream shares its query handle with its driver): a channel or field
/// that drops `Sync` from one of them fails this file at compile time.
#[test]
fn public_handles_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<smol::serve::Server>();
    assert_send_sync::<smol::serve::QueryHandle>();
    assert_send_sync::<smol::stream::StreamHandle>();
}
