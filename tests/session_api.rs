//! The declarative `Session` API: plan-cache behavior (hit ⇒ no
//! re-profiling; config/device change ⇒ miss), typed failures, measured
//! calibration, and the constraint-selection monotonicity property.

use proptest::prelude::*;
use smol::accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol::codec::{EncodedImage, Format};
use smol::core::{Constraint, DecodeMode, InputVariant, PlanCandidate, PlanError, QueryPlan};
use smol::imgproc::ops::resize::resize_short_edge_u8;
use smol::imgproc::{ImageU8, PreprocPlan};
use smol::runtime::{Profiler, RuntimeOptions};
use smol::{
    AccuracyTable, Calibration, Dataset, MeasuredCalibration, PlanCache, Query, Session,
    SessionConfig, SessionError,
};
use std::sync::Arc;

/// Deterministic 96×96 test images with per-index texture.
fn tiny_images(n: usize) -> Vec<ImageU8> {
    (0..n)
        .map(|i| {
            let mut img = ImageU8::zeros(96, 96, 3);
            for (j, v) in img.data_mut().iter_mut().enumerate() {
                *v = ((i * 31 + j * 7) % 256) as u8;
            }
            img
        })
        .collect()
}

fn encode_all(images: &[ImageU8], fmt: Format) -> Vec<EncodedImage> {
    images
        .iter()
        .map(|img| EncodedImage::encode(img, fmt).unwrap())
        .collect()
}

/// A two-variant dataset (full 96px sjpg + 64px sjpg thumbnails) with a
/// table calibration whose best accuracy is exactly 0.80 (RN-50 @ full).
fn table_dataset(name: &str) -> Dataset {
    let natives = tiny_images(12);
    let thumbs: Vec<ImageU8> = natives
        .iter()
        .map(|img| resize_short_edge_u8(img, 64).unwrap())
        .collect();
    Dataset::new(name)
        .with_model(ModelKind::ResNet50)
        .with_model(ModelKind::ResNet34)
        .with_variant(
            InputVariant::new("full", Format::sjpg(95), 96, 96),
            encode_all(&natives, Format::sjpg(95)),
        )
        .with_variant(
            InputVariant::new("thumb", Format::sjpg(75), 64, 64).thumbnail(),
            encode_all(&thumbs, Format::sjpg(75)),
        )
        .with_calibration(Calibration::Table(
            AccuracyTable::new()
                .with(ModelKind::ResNet50, "full", 0.80)
                .with(ModelKind::ResNet50, "thumb", 0.78)
                .with(ModelKind::ResNet34, "full", 0.70),
        ))
}

fn t4() -> VirtualDevice {
    VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 1.0)
}

fn shared_session(
    device: VirtualDevice,
    cfg: SessionConfig,
) -> (Session, Arc<Profiler>, Arc<PlanCache>) {
    let profiler = Arc::new(Profiler::new(RuntimeOptions::default()).with_sample(8));
    let cache = Arc::new(PlanCache::new());
    let session = Session::with_shared(device, cfg, profiler.clone(), cache.clone());
    (session, profiler, cache)
}

/// Same dataset + same constraint + same config + same device ⇒ the
/// second submission is a pure cache hit: no new profiler measurements,
/// no new plans.
#[test]
fn repeated_query_hits_cache_without_reprofiling() {
    let (session, profiler, _cache) = shared_session(t4(), SessionConfig::default());
    session.register(table_dataset("tiny")).unwrap();
    // max_accuracy_loss(0.0) always selects the most accurate candidate:
    // deterministic regardless of measured throughputs.
    let q = Query::new("tiny").max_accuracy_loss(0.0);

    let r1 = session.run(&q).unwrap();
    let calls_after_first = profiler.calls();
    assert_eq!(calls_after_first, 2, "one measurement per variant");
    assert_eq!(r1.label, "ResNet-50 @ full");

    let r2 = session.run(&q).unwrap();
    assert_eq!(
        profiler.calls(),
        calls_after_first,
        "cache hit must not re-profile"
    );
    assert_eq!(r2.label, r1.label);

    let stats = session.cache_stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.plans, 1);
    assert_eq!(stats.profiles, 2);
    session.shutdown();
}

/// A different `PlannerConfig` keys differently: the cached plan is not
/// reused and the variants are re-profiled (geometry changed).
#[test]
fn planner_config_change_misses_cache() {
    let profiler = Arc::new(Profiler::new(RuntimeOptions::default()).with_sample(8));
    let cache = Arc::new(PlanCache::new());
    let q = Query::new("tiny").max_accuracy_loss(0.0);

    let a = Session::with_shared(
        t4(),
        SessionConfig::default(),
        profiler.clone(),
        cache.clone(),
    );
    a.register(table_dataset("tiny")).unwrap();
    a.run(&q).unwrap();
    let calls = profiler.calls();
    a.shutdown();

    let b = Session::with_shared(
        t4(),
        SessionConfig {
            planner: smol::core::PlannerConfig {
                dnn_input: 112,
                ..Default::default()
            },
            ..Default::default()
        },
        profiler.clone(),
        cache.clone(),
    );
    b.register(table_dataset("tiny")).unwrap();
    b.run(&q).unwrap();
    let stats = cache.stats();
    assert_eq!(stats.misses, 2, "changed PlannerConfig must miss");
    assert_eq!(stats.plans, 2);
    assert!(
        profiler.calls() > calls,
        "a new preprocessing geometry must be re-profiled"
    );
    b.shutdown();
}

/// A different device keys differently — but profiling is CPU-side and
/// device-independent, so the miss re-plans *without* re-measuring.
#[test]
fn device_change_misses_cache_but_reuses_profiles() {
    let profiler = Arc::new(Profiler::new(RuntimeOptions::default()).with_sample(8));
    let cache = Arc::new(PlanCache::new());
    let q = Query::new("tiny").max_accuracy_loss(0.0);

    let a = Session::with_shared(
        t4(),
        SessionConfig::default(),
        profiler.clone(),
        cache.clone(),
    );
    a.register(table_dataset("tiny")).unwrap();
    a.run(&q).unwrap();
    let calls = profiler.calls();

    let v100 = VirtualDevice::new(GpuModel::V100, ExecutionEnv::TensorRt, 1.0);
    let b = Session::with_shared(
        v100,
        SessionConfig::default(),
        profiler.clone(),
        cache.clone(),
    );
    b.register(table_dataset("tiny")).unwrap();
    b.run(&q).unwrap();
    let stats = cache.stats();
    assert_eq!(stats.misses, 2, "changed device must miss");
    assert_eq!(stats.plans, 2);
    assert_eq!(
        profiler.calls(),
        calls,
        "device change must not re-profile the CPU side"
    );
    // The planner's execution estimates follow the *session's* device,
    // regardless of what SessionConfig::planner carried: the V100 runs
    // ResNet-50 faster than the T4.
    let ea = a.explain(&q).unwrap();
    let eb = b.explain(&q).unwrap();
    assert!(
        eb.chosen.exec_throughput > ea.chosen.exec_throughput * 1.2,
        "V100 exec estimate {} must exceed T4's {}",
        eb.chosen.exec_throughput,
        ea.chosen.exec_throughput
    );
    a.shutdown();
    b.shutdown();
}

/// Two sessions sharing one `PlanCache` may register *different* datasets
/// under the same name: plan keys fingerprint the dataset contents, so the
/// second session re-plans against its own data instead of hitting the
/// first session's cached plan (which could reference variants it doesn't
/// have).
#[test]
fn shared_cache_distinguishes_same_named_datasets() {
    let profiler = Arc::new(Profiler::new(RuntimeOptions::default()).with_sample(8));
    let cache = Arc::new(PlanCache::new());
    let q = Query::new("tiny").max_accuracy_loss(0.0);

    let a = Session::with_shared(
        t4(),
        SessionConfig::default(),
        profiler.clone(),
        cache.clone(),
    );
    a.register(table_dataset("tiny")).unwrap();
    let ra = a.run(&q).unwrap();
    assert_eq!(ra.label, "ResNet-50 @ full");
    a.shutdown();

    // Same name, different contents: only one variant, differently named,
    // and a different calibration.
    let natives = tiny_images(8);
    let other = Dataset::new("tiny")
        .with_model(ModelKind::ResNet34)
        .with_variant(
            InputVariant::new("only", Format::sjpg(85), 96, 96),
            encode_all(&natives, Format::sjpg(85)),
        )
        .with_calibration(Calibration::Table(AccuracyTable::new().with(
            ModelKind::ResNet34,
            "only",
            0.60,
        )));
    let b = Session::with_shared(t4(), SessionConfig::default(), profiler, cache.clone());
    b.register(other).unwrap();
    let rb = b.run(&q).unwrap();
    assert_eq!(rb.label, "ResNet-34 @ only", "planned against its own data");
    assert_eq!(cache.stats().misses, 2, "no cross-dataset collision");
    b.shutdown();
}

/// Infeasible constraints are typed, not empty: the error carries the
/// best achievable accuracy so callers can relax toward it.
#[test]
fn infeasible_constraint_reports_best_accuracy() {
    let session = Session::new(t4(), SessionConfig::default());
    session.register(table_dataset("tiny")).unwrap();
    let err = session
        .run(&Query::new("tiny").min_accuracy(0.99))
        .unwrap_err();
    match err {
        SessionError::Plan(PlanError::Infeasible { best_accuracy }) => {
            assert!((best_accuracy - 0.80).abs() < 1e-12);
        }
        other => panic!("expected Infeasible, got {other:?}"),
    }
    session.shutdown();
}

#[test]
fn unknown_and_duplicate_datasets_are_typed() {
    let session = Session::new(t4(), SessionConfig::default());
    match session.run(&Query::new("nope")).unwrap_err() {
        SessionError::UnknownDataset { name } => assert_eq!(name, "nope"),
        other => panic!("expected UnknownDataset, got {other:?}"),
    }
    session.register(table_dataset("tiny")).unwrap();
    match session.register(table_dataset("tiny")).unwrap_err() {
        SessionError::DuplicateDataset { name } => assert_eq!(name, "tiny"),
        other => panic!("expected DuplicateDataset, got {other:?}"),
    }
    session.shutdown();
}

/// An uncalibrated dataset has no candidates: typed NoCandidates, not a
/// panic or an empty frontier.
#[test]
fn uncalibrated_dataset_yields_no_candidates() {
    let session = Session::new(t4(), SessionConfig::default());
    let natives = tiny_images(4);
    session
        .register(
            Dataset::new("blank")
                .with_model(ModelKind::ResNet50)
                .with_variant(
                    InputVariant::new("full", Format::sjpg(95), 96, 96),
                    encode_all(&natives, Format::sjpg(95)),
                ),
        )
        .unwrap();
    match session.run(&Query::new("blank")).unwrap_err() {
        SessionError::Plan(PlanError::NoCandidates) => {}
        other => panic!("expected NoCandidates, got {other:?}"),
    }
    session.shutdown();
}

/// Measured calibration: accuracies derived by re-encoding labeled
/// calibration images into each variant's stored form and scoring a
/// predictor. The class signal (left half brighter than right) survives
/// thumbnailing and lossy encoding, so both variants calibrate at 1.0 and
/// the session picks the thumbnail plan for a loss-tolerant query. Models
/// without predictors are skipped.
#[test]
fn measured_calibration_derives_candidates() {
    // 24 labeled calibration images: class 1 ⇔ left half brighter.
    let mut images = Vec::new();
    let mut labels = Vec::new();
    for i in 0..24usize {
        let class = i % 2;
        let mut img = ImageU8::zeros(96, 96, 3);
        let (w, c) = (96usize, 3usize);
        for (j, v) in img.data_mut().iter_mut().enumerate() {
            let x = (j / c) % w;
            let left = x < w / 2;
            let bright = (class == 1) == left;
            *v = if bright { 200 } else { 40 };
        }
        images.push(img);
        labels.push(class);
    }
    let brighter_left = |img: &ImageU8| -> usize {
        let (w, c) = (img.width(), img.channels());
        let mut left = 0u64;
        let mut right = 0u64;
        for (j, &v) in img.data().iter().enumerate() {
            let x = (j / c) % w;
            if x < w / 2 {
                left += v as u64;
            } else {
                right += v as u64;
            }
        }
        usize::from(left > right)
    };

    let thumbs: Vec<ImageU8> = images
        .iter()
        .map(|img| resize_short_edge_u8(img, 64).unwrap())
        .collect();
    let session = Session::new(t4(), SessionConfig::default());
    session
        .register(
            Dataset::new("halves")
                .with_model(ModelKind::ResNet50)
                .with_model(ModelKind::ResNet34) // no predictor: skipped
                .with_variant(
                    InputVariant::new("full", Format::sjpg(95), 96, 96),
                    encode_all(&images, Format::sjpg(95)),
                )
                .with_variant(
                    InputVariant::new("thumb", Format::sjpg(75), 64, 64).thumbnail(),
                    encode_all(&thumbs, Format::sjpg(75)),
                )
                .with_calibration(Calibration::Measured(
                    MeasuredCalibration::new(images, labels)
                        .with_predictor(ModelKind::ResNet50, brighter_left),
                )),
        )
        .unwrap();

    let explanation = session
        .explain(&Query::new("halves").max_accuracy_loss(0.0))
        .unwrap();
    assert!(
        explanation
            .frontier
            .iter()
            .all(|c| c.plan.dnn == ModelKind::ResNet50),
        "models without predictors must not become candidates"
    );
    assert!(
        (explanation.chosen.accuracy - 1.0).abs() < 1e-12,
        "the halves signal survives every variant: measured accuracy 1.0"
    );
    let report = session
        .run(&Query::new("halves").max_accuracy_loss(0.0).take(8))
        .unwrap();
    assert_eq!(report.images, 8);
    session.shutdown();
}

/// An impossible deadline is rejected with a typed error *before*
/// admission; a generous one is met and recorded in the report and the
/// server's deadline buckets.
#[test]
fn deadline_slos_are_checked_and_reported() {
    use std::time::Duration;
    let session = Session::new(t4(), SessionConfig::default());
    session.register(table_dataset("tiny")).unwrap();
    let err = session
        .run(
            &Query::new("tiny")
                .max_accuracy_loss(0.0)
                .deadline(Duration::from_nanos(1)),
        )
        .unwrap_err();
    match err {
        SessionError::DeadlineInfeasible {
            deadline_s,
            estimated_s,
        } => {
            assert!(deadline_s < estimated_s);
        }
        other => panic!("expected DeadlineInfeasible, got {other:?}"),
    }
    let report = session
        .run(
            &Query::new("tiny")
                .max_accuracy_loss(0.0)
                .deadline(Duration::from_secs(120)),
        )
        .unwrap();
    assert_eq!(report.deadline_missed, Some(false));
    assert!(report.wall_s < 120.0);
    let stats = session.stats();
    assert_eq!(stats.deadline_met, 1);
    assert_eq!(stats.deadline_misses, 0);
    assert_eq!(stats.deadline_miss_rate(), 0.0);
    session.shutdown();
}

/// The deadline pre-check converts only the device side to the wall clock:
/// the preprocessing rate was profiled there. On a session whose device
/// runs 20x faster in wall time than simulated, a preprocessing-bound
/// query's deadline between `items / (20 · preproc)` and `items / preproc`
/// cannot be met, and is rejected before admission.
#[test]
fn deadline_precheck_keeps_preprocessing_on_the_wall_clock() {
    use std::time::Duration;
    let device = VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 0.05);
    let session = Session::new(device, SessionConfig::default());
    assert_eq!(session.sim_to_wall(), 20.0);
    // Coefficient-dense 384² stills: decode dominates, the DNN is cheap.
    let images: Vec<ImageU8> = (0..12)
        .map(|i| {
            let mut img = ImageU8::zeros(384, 384, 3);
            for (j, v) in img.data_mut().iter_mut().enumerate() {
                *v = ((i * 31 + j * 7 + (j * j) % 97) % 256) as u8;
            }
            img
        })
        .collect();
    session
        .register(
            Dataset::new("dense")
                .with_model(ModelKind::ResNet18)
                .with_variant(
                    InputVariant::new("full", Format::sjpg(95), 384, 384),
                    encode_all(&images, Format::sjpg(95)),
                )
                .with_calibration(Calibration::Table(AccuracyTable::new().with(
                    ModelKind::ResNet18,
                    "full",
                    0.7,
                ))),
        )
        .unwrap();
    let query = || Query::new("dense").max_accuracy_loss(0.0);
    let chosen = session.explain(&query()).unwrap().chosen;
    let preproc = chosen.preproc_throughput;
    assert!(
        preproc < chosen.exec_throughput,
        "preprocessing-bound even in simulated time: {chosen:?}"
    );
    let deadline_s = images.len() as f64 / (4.0 * preproc);
    match session.submit(&query().deadline(Duration::from_secs_f64(deadline_s))) {
        Err(SessionError::DeadlineInfeasible { estimated_s, .. }) => {
            assert!(estimated_s > deadline_s, "{estimated_s} vs {deadline_s}");
        }
        Err(other) => panic!("expected DeadlineInfeasible, got {other:?}"),
        Ok(_) => panic!("a {deadline_s:.4} s deadline at {preproc:.0} items/s was admitted"),
    }
    session.shutdown();
}

/// A fleet keys plans distinctly from a single device with the same
/// primary: the cached plan of one must not be reused for the other
/// (fleet composition changes the serving capacity the plan feeds).
#[test]
fn fleet_composition_is_part_of_the_plan_key() {
    let profiler = Arc::new(Profiler::new(RuntimeOptions::default()).with_sample(8));
    let cache = Arc::new(PlanCache::new());
    let q = Query::new("tiny").max_accuracy_loss(0.0);

    let single = Session::with_shared(
        t4(),
        SessionConfig::default(),
        profiler.clone(),
        cache.clone(),
    );
    single.register(table_dataset("tiny")).unwrap();
    let r1 = single.run(&q).unwrap();
    single.shutdown();

    let fleet = Session::with_shared_fleet(
        vec![
            t4(),
            VirtualDevice::new(GpuModel::V100, ExecutionEnv::TensorRt, 1.0),
        ],
        SessionConfig::default(),
        profiler,
        cache.clone(),
    );
    fleet.register(table_dataset("tiny")).unwrap();
    let r2 = fleet.run(&q).unwrap();
    assert_eq!(r1.label, r2.label, "same primary device, same winning plan");
    assert_eq!(
        cache.stats().misses,
        2,
        "a 2-device fleet must not hit the single-device cache entry"
    );
    assert_eq!(fleet.stats().devices.len(), 2);
    fleet.shutdown();
}

/// End-to-end degradation through the declarative API: a
/// throughput-constrained query (which plans the *most accurate* plan
/// above its floor) opted into degradation steps down to the faster
/// same-variant frontier rung when another tenant pressures admission.
#[test]
fn throughput_constrained_query_degrades_under_pressure() {
    use smol::serve::ServerConfig;
    // Execution must be the bottleneck for a faster-DNN rung to exist on
    // the frontier: a CPU pseudo-device makes every DNN exec-bound.
    let cpu = || VirtualDevice::new(GpuModel::CpuOnly, ExecutionEnv::PyTorch, 0.02);
    let session = Session::with_fleet(
        vec![cpu()],
        SessionConfig {
            server: ServerConfig {
                runtime: RuntimeOptions {
                    producers: 2,
                    consumers: 1,
                    extra_cpu_s_per_image: 0.01,
                    ..Default::default()
                },
                max_active_queries: 1,
                batch_queue: 2,
                tensor_cache_bytes: 256 << 20,
            },
            profile_sample: 8,
            ..Default::default()
        },
    );
    let natives = tiny_images(24);
    session
        .register(
            Dataset::new("pressure")
                .with_model(ModelKind::ResNet50)
                .with_model(ModelKind::ResNet34)
                .with_variant(
                    InputVariant::new("full", Format::sjpg(95), 96, 96),
                    encode_all(&natives, Format::sjpg(95)),
                )
                .with_calibration(Calibration::Table(
                    AccuracyTable::new()
                        .with(ModelKind::ResNet50, "full", 0.80)
                        .with(ModelKind::ResNet34, "full", 0.70),
                )),
        )
        .unwrap();
    let q = Query::new("pressure")
        .min_throughput(0.1)
        .allow_degradation(true);
    // The ladder exists before any load: ResNet-34 is the faster rung.
    let explanation = session.explain(&q).unwrap();
    assert_eq!(explanation.chosen.plan.dnn, ModelKind::ResNet50);
    assert!(
        explanation
            .frontier
            .iter()
            .any(|c| c.plan.dnn == ModelKind::ResNet34
                && c.est_throughput > explanation.chosen.est_throughput),
        "ResNet-34 must be a strictly faster frontier rung on a CPU device"
    );
    let (r1, r2) = std::thread::scope(|scope| {
        let h1 = session.submit(&q).expect("admitted");
        let t2 = scope.spawn(|| {
            // Second tenant: blocks at admission (capacity 1) → pressure.
            session
                .run(&Query::new("pressure").min_throughput(0.1).take(4))
                .expect("resolves")
        });
        (h1.wait().expect("resolves"), t2.join().expect("tenant 2"))
    });
    assert_eq!(r1.images, 24);
    assert!(
        r1.degraded_steps >= 1,
        "admission pressure must step the loaded query down its ladder"
    );
    assert_eq!(r1.accuracy, Some(0.70), "finished on the ResNet-34 rung");
    assert_eq!(
        r1.accuracy_floor, None,
        "a throughput constraint bounds no accuracy"
    );
    assert_eq!(r2.images, 4);
    assert!(session.stats().degradations >= 1);
    session.shutdown();
}

/// Accuracy-constrained queries already run the fastest feasible plan:
/// opting into degradation is a no-op (empty ladder), so results stay
/// bit-stable even under pressure.
#[test]
fn accuracy_constrained_queries_have_no_ladder() {
    let session = Session::new(t4(), SessionConfig::default());
    session.register(table_dataset("tiny")).unwrap();
    let report = session
        .run(
            &Query::new("tiny")
                .max_accuracy_loss(0.5)
                .allow_degradation(true),
        )
        .unwrap();
    assert_eq!(report.degraded_steps, 0);
    assert_eq!(session.stats().degradations, 0);
    session.shutdown();
}

fn cand(acc: f64, tput: f64) -> PlanCandidate {
    PlanCandidate {
        plan: QueryPlan {
            dnn: ModelKind::ResNet18,
            input: InputVariant::new("x", Format::Spng, 100, 100),
            preproc: PreprocPlan::thumbnail(224, 224),
            decode: DecodeMode::Full,
            batch: 64,
        },
        preproc_throughput: tput,
        exec_throughput: tput,
        est_throughput: tput,
        accuracy: acc,
        cascade: None,
        placement: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Tightening an accuracy floor never selects a *less* accurate plan
    /// than a looser floor, and a floor that was feasible stays feasible
    /// when loosened.
    #[test]
    fn tightening_accuracy_floor_is_monotone(
        pairs in prop::collection::vec((0.0f64..1.0, 1.0f64..10_000.0), 1usize..10),
        f1 in 0.0f64..1.0,
        f2 in 0.0f64..1.0,
    ) {
        let cands: Vec<PlanCandidate> = pairs.iter().map(|&(a, t)| cand(a, t)).collect();
        let (loose, tight) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        let loose_sel = Constraint::MinAccuracy(loose).select(&cands);
        let tight_sel = Constraint::MinAccuracy(tight).select(&cands);
        match (loose_sel, tight_sel) {
            (Ok(l), Ok(t)) => prop_assert!(
                t.accuracy >= l.accuracy,
                "tight floor {tight} chose accuracy {} below loose floor {loose}'s {}",
                t.accuracy, l.accuracy
            ),
            (Err(_), Ok(_)) => prop_assert!(false, "loose floor infeasible but tight feasible"),
            (Ok(_), Err(_)) | (Err(_), Err(_)) => {}
        }
    }

    /// The same monotonicity holds for throughput floors: tightening never
    /// yields a slower plan.
    #[test]
    fn tightening_throughput_floor_is_monotone(
        pairs in prop::collection::vec((0.0f64..1.0, 1.0f64..10_000.0), 1usize..10),
        f1 in 0.0f64..10_000.0,
        f2 in 0.0f64..10_000.0,
    ) {
        let cands: Vec<PlanCandidate> = pairs.iter().map(|&(a, t)| cand(a, t)).collect();
        let (loose, tight) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        match (
            Constraint::MinThroughput(loose).select(&cands),
            Constraint::MinThroughput(tight).select(&cands),
        ) {
            (Ok(l), Ok(t)) => prop_assert!(t.est_throughput >= l.est_throughput * (1.0 - 1e-12)),
            (Err(_), Ok(_)) => prop_assert!(false, "loose floor infeasible but tight feasible"),
            _ => {}
        }
    }
}

/// A second identical submission is served entirely from the decoded-
/// tensor cache: every item reports a cache hit and the query does zero
/// decode work.
#[test]
fn repeat_submission_reports_zero_decode_work() {
    let (session, _profiler, _cache) = shared_session(t4(), SessionConfig::default());
    session.register(table_dataset("tiny")).unwrap();
    let q = Query::new("tiny").max_accuracy_loss(0.0);

    let r1 = session.run(&q).unwrap();
    assert_eq!(r1.images, 12);
    assert!(
        r1.decode_cpu_s > 0.0,
        "a cold cache pays decode: {}",
        r1.decode_cpu_s
    );

    let r2 = session.run(&q).unwrap();
    assert_eq!(r2.images, 12);
    assert_eq!(r2.cache_hits, r2.images, "every item served from cache");
    assert_eq!(r2.decode_cpu_s, 0.0, "a warm cache pays no decode");

    let cache = session.stats().tensor_cache;
    assert_eq!(cache.decodes, 12, "each item decoded exactly once");
    assert!(cache.hits >= 12);
    assert_eq!(cache.evictions, 0);
    session.shutdown();
}

/// Disabling the cache (`tensor_cache_bytes: 0`) restores decode-per-item
/// behavior and keeps every counter at zero.
#[test]
fn disabled_tensor_cache_decodes_every_submission() {
    use smol::serve::ServerConfig;
    let cfg = SessionConfig {
        server: ServerConfig {
            tensor_cache_bytes: 0,
            ..Default::default()
        },
        ..Default::default()
    };
    let (session, _profiler, _cache) = shared_session(t4(), cfg);
    session.register(table_dataset("tiny")).unwrap();
    let q = Query::new("tiny").max_accuracy_loss(0.0);
    session.run(&q).unwrap();
    let r2 = session.run(&q).unwrap();
    assert_eq!(r2.cache_hits, 0);
    assert!(r2.decode_cpu_s > 0.0, "no cache ⇒ decode every item");
    let cache = session.stats().tensor_cache;
    assert_eq!((cache.hits, cache.misses, cache.decodes), (0, 0, 0));
    session.shutdown();
}

/// `Session::explain` shows the §6.3 split with both sides on one clock: a
/// preprocessing-bound query has its elementwise tail on the accelerator,
/// the same query on a device slowed until *it* is the bottleneck keeps
/// everything on the CPU, and the "-Placement" lesion plans as if the
/// mechanism did not exist.
#[test]
fn explain_shows_the_split_and_a_slow_device_keeps_the_cpu() {
    use smol::core::{Planner, PlannerConfig};
    use smol::imgproc::dag::Placement;
    // Half a millisecond of lesion sleep per item caps the profiled CPU side
    // at 8 k im/s on any host (and a loaded one still manages hundreds);
    // ResNet-50 on the T4 serves 4 513 im/s of simulated time.
    let config = |enable_placement| {
        let mut cfg = SessionConfig::default();
        cfg.planner.enable_placement = enable_placement;
        cfg.server.runtime.extra_cpu_s_per_image = 0.0005;
        cfg
    };
    let device = |scale| VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, scale);
    let q = Query::new("tiny").max_accuracy_loss(0.0);
    let explain = |scale, enable_placement| {
        let session = Session::new(device(scale), config(enable_placement));
        session.register(table_dataset("tiny")).unwrap();
        let explanation = session.explain(&q).unwrap();
        session.shutdown();
        explanation
    };
    let accel_ops = |plan: &QueryPlan| plan.placement_signature().accel_ops.len();

    // 90 k im/s of device in wall time against a few thousand of CPU.
    let fast = explain(0.05, true);
    let placement = fast.chosen.placement.expect("placement evaluated");
    assert_eq!(placement.split + 1, fast.chosen.plan.preproc.ops.len());
    assert_eq!(accel_ops(&fast.chosen.plan), 1, "the fused tail moved");
    assert!(placement.cpu_side < placement.accel_side, "{placement:?}");
    // The offload is worth what the CPU no longer does.
    assert!(placement.cpu_side > fast.chosen.preproc_throughput);
    let shown = fast.to_string();
    assert!(shown.contains("→ accelerator [fused]"), "{shown}");
    assert!(shown.contains("wall clock: CPU side "), "{shown}");
    // The label does not carry the split; the report's label is unchanged.
    assert_eq!(fast.chosen.plan.label(), "ResNet-50 @ full");

    // 45 im/s in wall time: the device is the bottleneck, nothing moves.
    let slow = explain(100.0, true);
    let placement = slow.chosen.placement.expect("placement evaluated");
    assert_eq!(placement.split, slow.chosen.plan.preproc.ops.len());
    assert_eq!(accel_ops(&slow.chosen.plan), 0);
    assert!(placement.accel_side < placement.cpu_side, "{placement:?}");
    assert!(slow.to_string().contains("all CPU ["), "{slow}");

    // The lesion: no estimate, and exactly the plan the parent planned.
    let lesion = explain(0.05, false);
    assert!(lesion.chosen.placement.is_none());
    assert!(lesion.to_string().contains("placement not evaluated"));
    let all_cpu = Planner::new(PlannerConfig::default()).build_preproc(&lesion.chosen.plan.input);
    assert_eq!(lesion.chosen.plan.preproc, all_cpu);
    assert!(all_cpu.ops.iter().all(|op| op.placement == Placement::Cpu));
    assert_eq!(lesion.chosen.plan.decode, fast.chosen.plan.decode);
    // Placement moved no existing estimate.
    assert_eq!(fast.chosen.exec_throughput, lesion.chosen.exec_throughput);
}
