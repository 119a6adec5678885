//! figure_cascade: input-adaptive cascades end to end — per-item plan
//! routing from header-derived difficulty signals vs the best uniform
//! plan on a mixed-difficulty corpus.
//!
//! The cascade's claim is input adaptivity: easy items (few coded bits
//! per block) take an aggressive rung (reduced decode + small DNN) while
//! hard items escalate to the full plan, with the route decided *before*
//! any decode from the sjpg row index's segment lengths. This binary
//! is the CI gate for that claim; it exits non-zero unless:
//!
//! 1. the cascade beats the best zero-loss uniform plan end to end by
//!    ≥ 1.3× (the shared paired estimator, `smol_bench::measure`, each
//!    side on a fresh server),
//! 2. the session-planned cascade satisfies its accuracy constraint
//!    (report accuracy ≥ floor) under measured calibration,
//! 3. the `enable_cascades` lesion falls back to a uniform plan at the
//!    same accuracy (no cascade candidates survive the toggle), and
//! 4. escalated items are bit-identical to a pure full-plan run — zero
//!    result diffs.
#![deny(unsafe_code)]

use smol_accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol_bench::{fmt_ratio, fmt_tput, measure, scaled, timed, Gate, Table};
use smol_codec::{signal::image_signal, EncodedImage, Format};
use smol_core::{CascadePlan, DecodeMode, InputVariant, Planner, PlannerConfig, QueryPlan};
use smol_data::fingerprint;
use smol_imgproc::ImageU8;
use smol_runtime::{route_stage, wrap_images, MediaItem};
use smol_serve::{
    Calibration, Dataset, MeasuredCalibration, Query, Server, ServerConfig, Session, SessionConfig,
    SubmitOptions, SubmitRequest,
};
use std::process::ExitCode;

/// End-to-end gate: cascade vs best uniform plan on the mixed corpus.
const MIN_SPEEDUP: f64 = 1.3;

/// Source edge; at `DNN_INPUT` 32 the planner's reduced decode runs the
/// factor-8 scaled IDCT, so the aggressive rung skips ~98% of IDCT work.
const SRC: usize = 256;
const DNN_INPUT: u32 = 32;

/// Easy item: gentle gradient — sparse coefficients, low difficulty score.
fn smooth(seed: usize) -> ImageU8 {
    let mut img = ImageU8::zeros(SRC, SRC, 3);
    for y in 0..SRC {
        for x in 0..SRC {
            for c in 0..3 {
                img.set(x, y, c, (((x + y) / 8 + seed) % 64 + 96) as u8);
            }
        }
    }
    img
}

/// Hard item: per-pixel noise — dense coefficients, high difficulty score.
fn noisy(seed: usize) -> ImageU8 {
    let mut img = ImageU8::zeros(SRC, SRC, 3);
    let mut state = (seed as u64).wrapping_mul(0x9e3779b97f4a7c15) | 1;
    for v in img.data_mut().iter_mut() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *v = (state & 0xff) as u8;
    }
    img
}

/// Mostly-easy corpus with hard items spread throughout (the serving
/// regime cascades pay off in), plus difficulty labels (0 easy, 1 hard).
fn mixed_corpus(n_easy: usize, n_hard: usize) -> (Vec<ImageU8>, Vec<usize>) {
    let total = n_easy + n_hard;
    let (mut images, mut labels) = (Vec::new(), Vec::new());
    let (mut easy, mut hard) = (0, 0);
    for i in 0..total {
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

fn fast_t4() -> VirtualDevice {
    // A fast device keeps the CPU side the bottleneck: the gate measures
    // the decode/preprocessing work routing avoids, not device time.
    VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 0.02)
}

fn main() -> ExitCode {
    let n_easy = scaled(40);
    let n_hard = (n_easy / 5).max(2);
    let (images, labels) = mixed_corpus(n_easy, n_hard);
    let items: Vec<EncodedImage> = images
        .iter()
        .map(|img| EncodedImage::encode(img, Format::sjpg(85)).expect("encode"))
        .collect();
    let n = items.len();

    let planner = Planner::new(PlannerConfig {
        dnn_input: DNN_INPUT,
        batch: 16,
        ..Default::default()
    });
    let input = InputVariant::new("mixed sjpg(q=85)", Format::sjpg(85), SRC, SRC);
    let full = QueryPlan {
        dnn: ModelKind::ResNet50,
        input: input.clone(),
        preproc: planner.build_preproc(&input),
        decode: DecodeMode::Full,
        batch: 16,
    };
    let stage1 = QueryPlan {
        dnn: ModelKind::ResNet18,
        decode: planner
            .reduced_decode_mode(&input)
            .expect("256px sjpg has a reduced decode at dnn_input=32"),
        ..full.clone()
    };

    // Threshold at the score gap between the easy and hard clusters.
    let mut scores: Vec<f64> = items
        .iter()
        .map(|enc| image_signal(enc).expect("sjpg signal").score())
        .collect();
    scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let threshold = (scores[n_easy - 1] + scores[n_easy]) / 2.0;
    let expected_stages: Vec<usize> = items
        .iter()
        .map(|enc| route_stage(&MediaItem::Image(enc.clone()), threshold))
        .collect();
    let escalated = expected_stages.iter().filter(|&&s| s == 1).count();
    assert!(
        escalated > 0 && escalated < n,
        "mixed corpus must engage both rungs (escalated {escalated}/{n})"
    );
    let cascade_opts = || SubmitOptions {
        cascade: Some(CascadePlan {
            stage1: stage1.clone(),
            threshold,
            escalation_rate: escalated as f64 / n as f64,
        }),
        ..Default::default()
    };

    // Differential: escalated items vs the pure full-plan run.
    let server = Server::with_devices(vec![fast_t4()], ServerConfig::default());
    let handle = server
        .submit(SubmitRequest::stills(full.clone(), &items).infer(fingerprint))
        .expect("admitted");
    let uniform_results = handle.wait().expect("resolves").take_results::<u64>();
    let handle = server
        .submit_media_opts_with_infer(
            full.clone(),
            wrap_images(&items),
            cascade_opts(),
            fingerprint,
        )
        .expect("admitted");
    let mut report = handle.wait().expect("resolves");
    assert_eq!(report.escalated_items, escalated);
    assert_eq!(report.stage_histogram, vec![n - escalated, escalated]);
    let cascade_results = report.take_results::<u64>();
    server.shutdown();
    let diffs = expected_stages
        .iter()
        .enumerate()
        .filter(|&(i, &s)| s == 1 && cascade_results[i] != uniform_results[i])
        .count();

    // Paired runs, each on a fresh server so neither side reads the
    // tensors the other decoded.
    let run = |opts: SubmitOptions| {
        let server = Server::with_devices(vec![fast_t4()], ServerConfig::default());
        let submit = || {
            let items = wrap_images(&items);
            server.submit_media_opts_with_infer(full.clone(), items, opts, fingerprint)
        };
        let wall = timed(|| submit().expect("admitted").wait().expect("resolves")).0;
        server.shutdown();
        wall
    };
    let paired = measure(|| run(SubmitOptions::default()), || run(cascade_opts()));
    let (uni_wall, cas_wall, speedup) = (paired.a, paired.b, paired.ratio);

    // Session-planned cascade under measured calibration: constraint
    // satisfied with cascades on; lesion parity with cascades off. The
    // big DNN detects noise only at full resolution (its stand-in for
    // fidelity loss under reduced decode), so the only zero-loss uniform
    // plan is the full one and the cascade is the only faster candidate.
    let texture = |img: &ImageU8| -> f64 {
        let (w, h, c) = (img.width(), img.height(), 3);
        let mut total = 0u64;
        let data = img.data();
        for y in 0..h {
            for x in 1..w {
                total += (data[(y * w + x) * c] as i64).abs_diff(data[(y * w + x - 1) * c] as i64);
            }
        }
        total as f64 / ((w - 1) * h) as f64
    };
    let big = move |img: &ImageU8| -> usize {
        usize::from(img.width().min(img.height()) == SRC && texture(img) > 20.0)
    };
    let small = |_img: &ImageU8| -> usize { 0 };
    let dataset = || {
        Dataset::new("mixed")
            .with_model(ModelKind::ResNet50)
            .with_model(ModelKind::ResNet18)
            .with_variant(input.clone(), items.clone())
            .with_calibration(Calibration::Measured(
                MeasuredCalibration::new(images.clone(), labels.clone())
                    .with_predictor(ModelKind::ResNet50, big)
                    .with_predictor(ModelKind::ResNet18, small),
            ))
    };
    let cfg = |enable_cascades: bool| SessionConfig {
        planner: PlannerConfig {
            dnn_input: DNN_INPUT,
            enable_cascades,
            ..Default::default()
        },
        ..Default::default()
    };
    let query = Query::new("mixed").max_accuracy_loss(0.0);

    let session = Session::new(fast_t4(), cfg(true));
    session.register(dataset()).expect("register");
    let explanation = session.explain(&query).expect("plan");
    let cascade_chosen = explanation.chosen.cascade.is_some();
    let session_report = session.run(&query).expect("run");
    let floor = session_report.accuracy_floor.expect("accuracy constraint");
    let accuracy = session_report.accuracy.expect("calibrated accuracy");
    session.shutdown();

    let lesioned = Session::new(fast_t4(), cfg(false));
    lesioned.register(dataset()).expect("register");
    let lesion_explanation = lesioned.explain(&query).expect("plan");
    let lesion_clean = lesion_explanation.chosen.cascade.is_none()
        && lesion_explanation
            .frontier
            .iter()
            .all(|c| c.cascade.is_none());
    let lesion_report = lesioned.run(&query).expect("run");
    let lesion_accuracy = lesion_report.accuracy.expect("calibrated accuracy");
    lesioned.shutdown();

    let mut table = Table::new(
        format!(
            "figure_cascade — per-item routing on {n} mixed images \
             ({n_easy} easy / {n_hard} hard, {SRC}px sjpg, batch 16)"
        ),
        &["Plan", "Wall (s)", "im/s", "Escalated", "Speedup"],
    );
    table.row(&[
        "uniform full (RN50, full decode)".to_string(),
        format!("{uni_wall:.3}"),
        fmt_tput(n as f64 / uni_wall),
        "-".to_string(),
        fmt_ratio(1.0),
    ]);
    table.row(&[
        "cascade (RN18 reduced → RN50 full)".to_string(),
        format!("{cas_wall:.3}"),
        fmt_tput(n as f64 / cas_wall),
        format!("{escalated}/{n}"),
        fmt_ratio(speedup),
    ]);
    table.print();
    table.write_csv("figure_cascade");

    println!(
        "\ndifferential: {diffs} escalated-item diffs vs pure full-plan run (gate: 0)\n\
         session: cascade chosen = {cascade_chosen}, accuracy {accuracy:.3} vs floor {floor:.3}\n\
         lesion: cascade-free frontier = {lesion_clean}, accuracy {lesion_accuracy:.3}\n\
         speedup {speedup:.2}x vs best uniform plan (gate ≥ {MIN_SPEEDUP}x)"
    );

    let mut gate = Gate::new("figure_cascade");
    gate.check(
        diffs == 0,
        format!("{diffs} escalated items differ from the uniform full-plan run"),
    );
    gate.check(
        speedup >= MIN_SPEEDUP,
        format!("cascade speedup {speedup:.2}x (gate ≥ {MIN_SPEEDUP}x)"),
    );
    gate.check(
        cascade_chosen,
        "the session planner chooses a cascade at zero accuracy loss",
    );
    gate.check(
        accuracy >= floor,
        format!("cascade session accuracy {accuracy:.3} vs floor {floor:.3}"),
    );
    gate.check(
        lesion_clean && (lesion_accuracy - accuracy).abs() <= 1e-12,
        format!(
            "lesion parity (cascade-free = {lesion_clean}, accuracy {lesion_accuracy:.3} vs \
             {accuracy:.3})"
        ),
    );
    gate.finish()
}
