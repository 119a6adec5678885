//! Input-adaptive cascade serving: per-item plan routing driven by
//! bitstream-derived difficulty signals.
//!
//! The battery checks the three contract-level properties of cascades:
//!
//! 1. **Differential equivalence** — an item the signal escalates to the
//!    full rung produces a result bit-identical to a pure full-plan run
//!    (routing happens *before* decode, so the escalated pipeline is the
//!    uniform pipeline).
//! 2. **Accuracy floor** — a session-planned cascade under
//!    `Calibration::Measured` never reports accuracy below the
//!    constraint's floor, and the `enable_cascades` lesion removes
//!    cascade candidates entirely.
//! 3. **Co-residency** — cascade and uniform queries share one `Server`
//!    without deadlock or cross-talk, with correct per-stage batch
//!    accounting in each report.
//! 4. **Failure on either rung** — an item that fails production after
//!    being routed, to the aggressive or to the full rung, is released
//!    under every rung it was counted under.

use smol::accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol::codec::{signal::image_signal, EncodedImage, Format};
use smol::core::{CascadePlan, DecodeMode, InputVariant, Planner, PlannerConfig, QueryPlan};
use smol::data::fingerprint;
use smol::imgproc::ImageU8;
use smol::runtime::{route_stage, wrap_images, MediaItem};
use smol::serve::{Server, ServerConfig, SubmitOptions, SubmitRequest};
use smol::{Calibration, Dataset, MeasuredCalibration, Query, Session, SessionConfig};
use std::time::Duration;

const W: usize = 96;

/// An "easy" item: a gentle gradient — few coded coefficients, low AC
/// energy, so its difficulty score sits well below any noisy image's.
fn smooth(seed: usize) -> ImageU8 {
    let mut img = ImageU8::zeros(W, W, 3);
    for y in 0..W {
        for x in 0..W {
            for c in 0..3 {
                img.set(x, y, c, (((x + y) / 4 + seed) % 64 + 96) as u8);
            }
        }
    }
    img
}

/// A "hard" item: per-pixel noise — dense coefficients, high AC energy.
fn noisy(seed: usize) -> ImageU8 {
    let mut img = ImageU8::zeros(W, W, 3);
    let mut state = (seed as u64).wrapping_mul(0x9e3779b97f4a7c15) | 1;
    for v in img.data_mut().iter_mut() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *v = (state & 0xff) as u8;
    }
    img
}

/// `n_easy` smooth + `n_hard` noisy images, interleaved so routing is
/// exercised mid-query, with difficulty labels (0 = easy, 1 = hard).
fn mixed_corpus(n_easy: usize, n_hard: usize) -> (Vec<ImageU8>, Vec<usize>) {
    let mut images = Vec::new();
    let mut labels = Vec::new();
    let total = n_easy + n_hard;
    let mut easy = 0;
    let mut hard = 0;
    for i in 0..total {
        // Spread the hard items across the corpus.
        if hard < n_hard && (i + 1) * n_hard >= (hard + 1) * total {
            images.push(noisy(hard + 1));
            labels.push(1);
            hard += 1;
        } else {
            images.push(smooth(easy));
            labels.push(0);
            easy += 1;
        }
    }
    (images, labels)
}

fn encode_all(images: &[ImageU8]) -> Vec<EncodedImage> {
    images
        .iter()
        .map(|img| EncodedImage::encode(img, Format::sjpg(85)).unwrap())
        .collect()
}

/// The full rung, the aggressive stage-1 rung (cheaper DNN on the
/// planner's reduced decode), and a threshold that splits the corpus at
/// the gap between smooth and noisy difficulty scores.
fn cascade_plans(items: &[EncodedImage]) -> (QueryPlan, QueryPlan, f64) {
    let planner = Planner::new(PlannerConfig {
        dnn_input: 32,
        batch: 4,
        ..Default::default()
    });
    let input = InputVariant::new("mixed sjpg", Format::sjpg(85), W, W);
    let full = QueryPlan {
        dnn: ModelKind::ResNet50,
        input: input.clone(),
        preproc: planner.build_preproc(&input),
        decode: DecodeMode::Full,
        batch: 4,
    };
    let stage1 = QueryPlan {
        dnn: ModelKind::ResNet18,
        decode: planner
            .reduced_decode_mode(&input)
            .expect("96px sjpg has a reduced decode at dnn_input=32"),
        ..full.clone()
    };
    let mut scores: Vec<f64> = items
        .iter()
        .map(|enc| image_signal(enc).expect("sjpg signal").score())
        .collect();
    scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let threshold = (scores[scores.len() / 2 - 1] + scores[scores.len() / 2]) / 2.0;
    (full, stage1, threshold)
}

fn fast_t4() -> VirtualDevice {
    VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 0.02)
}

/// Escalated items of a cascade query are bit-identical to a pure
/// full-plan run: routing precedes decode, so stage-2 items execute the
/// uniform pipeline unchanged. The report's stage accounting matches a
/// host-side re-derivation of the routing decisions.
#[test]
fn escalated_items_match_pure_full_plan_run() {
    let (images, _) = mixed_corpus(12, 6);
    let items = encode_all(&images);
    let n = items.len();
    let (full, stage1, threshold) = cascade_plans(&items);

    // Reference: the uniform full plan over the same corpus.
    let server = Server::with_devices(vec![fast_t4()], ServerConfig::default());
    let handle = server
        .submit(SubmitRequest::stills(full.clone(), &items).infer(fingerprint))
        .expect("admitted");
    let mut report = handle.wait().expect("resolves");
    assert!(report.error.is_none());
    assert!(
        report.stage_histogram.is_empty(),
        "uniform queries report no stage histogram"
    );
    assert_eq!(report.escalated_items, 0);
    let uniform = report.take_results::<u64>();
    server.shutdown();

    // Cascade run: same corpus, same full rung, per-item routing.
    let expected_stages: Vec<usize> = items
        .iter()
        .map(|enc| route_stage(&MediaItem::Image(enc.clone()), threshold))
        .collect();
    let escalated = expected_stages.iter().filter(|&&s| s == 1).count();
    assert!(
        escalated > 0 && escalated < n,
        "the mixed corpus must engage both rungs (escalated {escalated}/{n})"
    );

    let server = Server::with_devices(vec![fast_t4()], ServerConfig::default());
    let opts = SubmitOptions {
        cascade: Some(CascadePlan {
            stage1,
            threshold,
            escalation_rate: escalated as f64 / n as f64,
        }),
        ..Default::default()
    };
    let handle = server
        .submit_media_opts_with_infer(full, wrap_images(&items), opts, fingerprint)
        .expect("admitted");
    let mut report = handle.wait().expect("resolves");
    assert!(report.error.is_none());
    assert_eq!(report.images, n);
    assert_eq!(report.escalated_items, escalated);
    assert_eq!(report.stage_histogram, vec![n - escalated, escalated]);
    let cascaded = report.take_results::<u64>();
    server.shutdown();

    let mut diffs = 0;
    for (i, stage) in expected_stages.iter().enumerate() {
        if *stage == 1 && cascaded[i] != uniform[i] {
            diffs += 1;
        }
    }
    assert_eq!(
        diffs, 0,
        "escalated items must be bit-identical to the uniform full-plan run"
    );
}

/// Session-planned cascades under measured calibration: the planner
/// derives routing operating points from per-image joint scoring, picks a
/// cascade when it dominates, and the served report's accuracy never
/// falls below the constraint floor. The `enable_cascades` lesion removes
/// every cascade candidate.
#[test]
fn measured_cascade_respects_accuracy_floor() {
    let (images, labels) = mixed_corpus(12, 4);
    let hard = labels.iter().sum::<usize>();

    // Difficulty statistic: mean absolute horizontal neighbor difference.
    let texture = |img: &ImageU8| -> f64 {
        let (w, h, c) = (img.width(), img.height(), 3);
        let mut total = 0u64;
        let data = img.data();
        for y in 0..h {
            for x in 1..w {
                let a = data[(y * w + x) * c] as i64;
                let b = data[(y * w + x - 1) * c] as i64;
                total += a.abs_diff(b);
            }
        }
        total as f64 / ((w - 1) * h) as f64
    };
    // The big DNN detects noise only at full resolution (its stand-in
    // for fidelity loss under reduced decode): reduced-decode uniform
    // plans are infeasible at zero accuracy loss.
    let big = move |img: &ImageU8| -> usize {
        usize::from(img.width().min(img.height()) == W && texture(img) > 20.0)
    };
    // The small DNN never detects noise: correct on easy items only.
    let small = |_img: &ImageU8| -> usize { 0 };

    let dataset = |name: &str| {
        Dataset::new(name)
            .with_model(ModelKind::ResNet50)
            .with_model(ModelKind::ResNet18)
            .with_variant(
                InputVariant::new("mixed", Format::sjpg(95), W, W),
                encode_all(&images),
            )
            .with_calibration(Calibration::Measured(
                MeasuredCalibration::new(images.clone(), labels.clone())
                    .with_predictor(ModelKind::ResNet50, big)
                    .with_predictor(ModelKind::ResNet18, small),
            ))
    };
    let cfg = |enable_cascades: bool| SessionConfig {
        planner: PlannerConfig {
            dnn_input: 32,
            enable_cascades,
            ..Default::default()
        },
        ..Default::default()
    };

    let session = Session::new(fast_t4(), cfg(true));
    session.register(dataset("mixed")).unwrap();
    let query = Query::new("mixed").max_accuracy_loss(0.0);
    let explanation = session.explain(&query).unwrap();
    let chosen = &explanation.chosen;
    assert!(
        chosen.cascade.is_some(),
        "zero-loss on this corpus is fastest through the cascade, got {}",
        chosen.plan.label()
    );
    assert!((chosen.accuracy - 1.0).abs() < 1e-12);

    let report = session.run(&query).unwrap();
    let floor = report.accuracy_floor.expect("accuracy constraint");
    let accuracy = report.accuracy.expect("calibrated accuracy");
    assert!(
        accuracy >= floor,
        "reported accuracy {accuracy} below floor {floor}"
    );
    assert_eq!(report.images, images.len());
    assert_eq!(
        report.escalated_items, hard,
        "exactly the noisy items escalate at the calibrated threshold"
    );
    assert_eq!(
        report.stage_histogram.iter().sum::<usize>(),
        report.images,
        "every produced output is attributed to exactly one stage"
    );
    session.shutdown();

    // Lesion: disabling cascades removes every cascade candidate and
    // falls back to the uniform full plan at the same accuracy.
    let lesioned = Session::new(fast_t4(), cfg(false));
    lesioned.register(dataset("mixed")).unwrap();
    let explanation = lesioned.explain(&query).unwrap();
    assert!(explanation.chosen.cascade.is_none());
    assert!(explanation.frontier.iter().all(|c| c.cascade.is_none()));
    assert!((explanation.chosen.accuracy - 1.0).abs() < 1e-12);
    let report = lesioned.run(&query).unwrap();
    assert_eq!(report.escalated_items, 0);
    assert!(report.stage_histogram.is_empty());
    lesioned.shutdown();
}

/// A cascade query and a uniform query sharing one server complete
/// without deadlock, produce the same per-item results as solo runs
/// (batching may interleave them, never mix them up), and report
/// per-stage accounting independently.
#[test]
fn cascade_and_uniform_queries_coexist_in_one_server() {
    let (cascade_images, _) = mixed_corpus(10, 5);
    let cascade_items = encode_all(&cascade_images);
    let (full, stage1, threshold) = cascade_plans(&cascade_items);
    let uniform_items = encode_all(&(0..8).map(smooth).collect::<Vec<_>>());
    let uniform_plan = stage1.clone(); // same signature as the stage-1 rung
    let opts = || SubmitOptions {
        cascade: Some(CascadePlan {
            stage1: stage1.clone(),
            threshold,
            escalation_rate: 0.33,
        }),
        ..Default::default()
    };

    // Solo reference runs.
    let server = Server::with_devices(vec![fast_t4()], ServerConfig::default());
    let handle = server
        .submit_media_opts_with_infer(
            full.clone(),
            wrap_images(&cascade_items),
            opts(),
            fingerprint,
        )
        .expect("admitted");
    let solo_cascade = handle.wait().expect("resolves").take_results::<u64>();
    let handle = server
        .submit(SubmitRequest::stills(uniform_plan.clone(), &uniform_items).infer(fingerprint))
        .expect("admitted");
    let solo_uniform = handle.wait().expect("resolves").take_results::<u64>();
    server.shutdown();

    // Co-resident: both queries in flight on one server at once.
    let server = Server::with_devices(vec![fast_t4()], ServerConfig::default());
    let cascade_handle = server
        .submit_media_opts_with_infer(full, wrap_images(&cascade_items), opts(), fingerprint)
        .expect("admitted");
    let uniform_handle = server
        .submit(SubmitRequest::stills(uniform_plan, &uniform_items).infer(fingerprint))
        .expect("admitted");

    let mut cascade_report = cascade_handle.wait().expect("resolves");
    let mut uniform_report = uniform_handle.wait().expect("resolves");
    assert!(cascade_report.error.is_none());
    assert!(uniform_report.error.is_none());

    let expected_escalated = cascade_items
        .iter()
        .filter(|enc| route_stage(&MediaItem::Image((*enc).clone()), threshold) == 1)
        .count();
    assert_eq!(cascade_report.images, cascade_items.len());
    assert_eq!(cascade_report.escalated_items, expected_escalated);
    assert_eq!(
        cascade_report.stage_histogram,
        vec![cascade_items.len() - expected_escalated, expected_escalated],
    );
    assert_eq!(uniform_report.images, uniform_items.len());
    assert_eq!(uniform_report.escalated_items, 0);
    assert!(uniform_report.stage_histogram.is_empty());

    assert_eq!(
        cascade_report.take_results::<u64>(),
        solo_cascade,
        "co-residency must not alter cascade results"
    );
    assert_eq!(
        uniform_report.take_results::<u64>(),
        solo_uniform,
        "co-residency must not alter uniform results"
    );

    let stats = server.stats();
    assert_eq!(
        stats.images_done,
        (cascade_items.len() + uniform_items.len()) as u64
    );
    server.shutdown();
}

/// A routed item that fails production is counted, until then, under every
/// rung of its query. Whichever rung it was routed to — a truncated easy
/// item takes the aggressive one, a truncated hard item escalates — the
/// query resolves with every output accounted for, and nothing is left
/// behind in the scheduler: a uniform query on the same server (sharing the
/// stage-1 signature) is served in full afterwards.
#[test]
fn a_failure_on_either_rung_of_a_cascade_resolves_and_leaks_nothing() {
    let (images, labels) = mixed_corpus(10, 5);
    let items = encode_all(&images);
    let (full, stage1, threshold) = cascade_plans(&items);
    let uniform_items = encode_all(&(0..8).map(smooth).collect::<Vec<_>>());
    let server = Server::with_devices(vec![fast_t4()], ServerConfig::default());
    // (index, rung `route_stage` sends it to): a hard item at an odd index,
    // an easy one at an even index.
    for (bad, stage) in [(5, 1), (6, 0)] {
        assert_eq!(labels[bad], stage, "corpus layout");
        let mut items = items.clone();
        // One byte short: the header and row index still parse, so the
        // item routes as it would intact; every decode then fails.
        items[bad].bytes = items[bad].bytes.slice(0..items[bad].bytes.len() - 1);
        assert_eq!(
            route_stage(&MediaItem::Image(items[bad].clone()), threshold),
            stage
        );
        let opts = SubmitOptions {
            cascade: Some(CascadePlan {
                stage1: stage1.clone(),
                threshold,
                escalation_rate: 0.33,
            }),
            ..Default::default()
        };
        let report = server
            .submit_media_opts(full.clone(), wrap_images(&items), opts)
            .expect("admitted")
            .wait_deadline(Duration::from_secs(60))
            .expect("server alive")
            .expect("the cascade query resolves");
        assert!(report.error.is_some());
        assert_eq!(report.failed, 1);
        assert_eq!(
            report.images + report.failed + report.skipped,
            items.len(),
            "{report:?}"
        );
        assert_eq!(
            report.stage_histogram.iter().sum::<usize>(),
            report.images,
            "every staged output is attributed to one rung"
        );

        let report = server
            .submit(SubmitRequest::stills(stage1.clone(), &uniform_items))
            .expect("admitted")
            .wait_deadline(Duration::from_secs(60))
            .expect("server alive")
            .expect("the uniform query resolves");
        assert!(report.error.is_none(), "{:?}", report.error);
        assert_eq!(report.images, uniform_items.len());
    }
    assert_eq!(server.stats().pending_batch_items, 0);
    server.shutdown();
}
