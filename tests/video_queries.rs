//! The video query path end to end: GOPs as serving items, frames as
//! outputs, planner-chosen reduced-fidelity decode, and the batching
//! invariant that video and image queries sharing one `Server` never
//! co-batch.

use smol::accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol::codec::{EncodedImage, Format};
use smol::core::{DecodeMode, FrameSelection, InputVariant, Planner, PlannerConfig, QueryPlan};
use smol::data::{fingerprint, gop_corpus, textured, video_catalog, GopCorpus};
use smol::imgproc::ImageU8;
use smol::runtime::{wrap_gops, MediaItem};
use smol::serve::{DegradeStep, Server, ServerConfig, SubmitOptions, SubmitRequest};
use smol::{AccuracyTable, Calibration, Dataset, Query, Session, SessionConfig};
use std::time::{Duration, Instant};

const GOPS: usize = 6;
const GOP_LEN: usize = 8;

fn corpus() -> GopCorpus {
    let spec = video_catalog()
        .into_iter()
        .find(|s| s.name == "taipei")
        .unwrap();
    gop_corpus(&spec, 11, GOPS, GOP_LEN)
}

fn fast_device() -> VirtualDevice {
    VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 0.05)
}

fn video_dataset(name: &str, corpus: GopCorpus) -> Dataset {
    let variant = corpus.name.clone();
    Dataset::video(name, corpus)
        .with_model(ModelKind::ResNet50)
        .with_calibration(Calibration::Table(
            AccuracyTable::new()
                .with(ModelKind::ResNet50, &variant, 0.81)
                .with_keyframes(ModelKind::ResNet50, &variant, 0.81, 0.79)
                .with_deblock_skip(ModelKind::ResNet50, &variant, 0.81, 0.80),
        ))
}

/// The declarative path: a tolerant constraint picks the keyframe plan
/// (one inferred frame per GOP), a zero-loss constraint forces full-GOP
/// decode (every frame inferred), and the second submission of each plans
/// from cache.
#[test]
fn session_video_queries_end_to_end() {
    let session = Session::new(fast_device(), SessionConfig::default());
    session
        .register(video_dataset("traffic", corpus()))
        .unwrap();

    let tolerant = Query::new("traffic").max_accuracy_loss(0.03);
    let explanation = session.explain(&tolerant).unwrap();
    assert_eq!(
        explanation.chosen.plan.decode,
        DecodeMode::Video {
            selection: FrameSelection::Keyframes,
            deblock: false
        },
        "tolerant constraint must pick the cheapest calibrated plan"
    );
    let report = session.run(&tolerant).unwrap();
    assert_eq!(report.images, GOPS, "one keyframe per GOP");
    assert_eq!(report.failed, 0);
    assert!(report.error.is_none());

    let strict = session
        .run(&Query::new("traffic").max_accuracy_loss(0.0))
        .unwrap();
    assert_eq!(strict.images, GOPS * GOP_LEN, "full-GOP decode: all frames");

    // Identical resubmission: pure cache hit, no re-profiling.
    let calls_before = session.profiler().calls();
    let again = session.explain(&tolerant).unwrap();
    assert!(again.cache_hit);
    assert_eq!(session.profiler().calls(), calls_before);
}

/// `Query::take(n)` limits *items* (GOPs); reports still count frames.
#[test]
fn take_limits_gops_not_frames() {
    let session = Session::new(fast_device(), SessionConfig::default());
    session
        .register(video_dataset("traffic", corpus()))
        .unwrap();
    let report = session
        .run(&Query::new("traffic").max_accuracy_loss(0.0).take(2))
        .unwrap();
    assert_eq!(report.images, 2 * GOP_LEN);
}

/// A video query and an image query with the *same* DNN, batch size, and
/// output geometry share one server; only the placement signature's
/// frame-selection component separates them. They must both resolve and
/// must never share a device batch.
#[test]
fn video_and_image_queries_do_not_cross_batch() {
    let corpus = corpus();
    let planner = Planner::new(PlannerConfig {
        dnn_input: 32,
        batch: 8,
        ..Default::default()
    });

    let video_input = InputVariant::new(
        corpus.name.clone(),
        corpus.format(),
        corpus.width,
        corpus.height,
    )
    .video(corpus.gop_len);
    let video_plan = QueryPlan {
        dnn: ModelKind::ResNet50,
        input: video_input.clone(),
        preproc: planner.build_preproc(&video_input),
        decode: DecodeMode::Video {
            selection: FrameSelection::All,
            deblock: true,
        },
        batch: 8,
    };

    let image_input = InputVariant::new("stills", Format::sjpg(85), 96, 96);
    let image_plan = QueryPlan {
        dnn: ModelKind::ResNet50,
        input: image_input.clone(),
        preproc: planner.build_preproc(&image_input),
        decode: DecodeMode::Full,
        batch: 8,
    };
    // The *only* device-relevant difference is the frame selection.
    let (vs, is) = (
        video_plan.placement_signature(),
        image_plan.placement_signature(),
    );
    assert_eq!(
        (vs.dnn, vs.batch, vs.out_w, vs.out_h),
        (is.dnn, is.batch, is.out_w, is.out_h)
    );
    assert_ne!(vs, is, "frame selection must split the signatures");

    let images: Vec<EncodedImage> = (0..24)
        .map(|i| EncodedImage::encode(&textured(96, 96, i), Format::sjpg(85)).unwrap())
        .collect();

    let server = Server::new(fast_device(), ServerConfig::default());
    let video_handle = server
        .submit(SubmitRequest::new(video_plan, wrap_gops(&corpus.gops)))
        .unwrap();
    let image_handle = server
        .submit(SubmitRequest::stills(image_plan, &images))
        .unwrap();
    let video_report = video_handle.wait().unwrap();
    let image_report = image_handle.wait().unwrap();
    assert_eq!(video_report.images, GOPS * GOP_LEN);
    assert!(video_report.error.is_none());
    assert_eq!(image_report.images, 24);
    assert!(image_report.error.is_none());

    let stats = server.stats();
    assert_eq!(
        stats.cross_query_batches, 0,
        "video and image items must never share a device batch"
    );
    assert_eq!(
        stats.images_done,
        (GOPS * GOP_LEN + 24) as u64,
        "every frame and every image executed"
    );
    server.shutdown();
}

/// Keyframe-only and full-GOP *video* queries are likewise separated by
/// the signature, while the deblock knob alone is not a separator.
#[test]
fn frame_selection_splits_signatures_deblock_does_not() {
    let corpus = corpus();
    let planner = Planner::default();
    let input = InputVariant::new(
        corpus.name.clone(),
        corpus.format(),
        corpus.width,
        corpus.height,
    )
    .video(corpus.gop_len);
    let plan = |selection, deblock| QueryPlan {
        dnn: ModelKind::ResNet50,
        input: input.clone(),
        preproc: planner.build_preproc(&input),
        decode: DecodeMode::Video { selection, deblock },
        batch: 16,
    };
    let keys = plan(FrameSelection::Keyframes, true).placement_signature();
    let keys_fast = plan(FrameSelection::Keyframes, false).placement_signature();
    let all = plan(FrameSelection::All, true).placement_signature();
    assert_ne!(keys, all);
    assert_eq!(keys, keys_fast);
}

/// One open query whose appender mixes the full-GOP rung and a
/// keyframes-only rung produces, output for output, the bits of one closed
/// query per rung over the same GOPs.
#[test]
fn open_query_matches_one_closed_query_per_rung() {
    let corpus = corpus();
    let planner = Planner::default();
    let input = InputVariant::new(
        corpus.name.clone(),
        corpus.format(),
        corpus.width,
        corpus.height,
    )
    .video(corpus.gop_len);
    let plan = |selection| QueryPlan {
        dnn: ModelKind::ResNet50,
        input: input.clone(),
        preproc: planner.build_preproc(&input),
        decode: DecodeMode::Video {
            selection,
            deblock: true,
        },
        batch: 4,
    };
    let rungs = [plan(FrameSelection::All), plan(FrameSelection::Keyframes)];
    let rung_of = |gop: usize| usize::from(gop % 3 == 1);
    let digest = |_: usize, img: &ImageU8| fingerprint(0, img);

    let server = Server::new(fast_device(), ServerConfig::default());
    let keyframes = DegradeStep {
        plan: rungs[1].clone(),
        accuracy: 0.79,
        est_throughput: 0.0,
    };
    let options = SubmitOptions {
        ladder: vec![keyframes],
        ..Default::default()
    };
    let request = SubmitRequest::new(rungs[0].clone(), Vec::new())
        .options(options)
        .infer(digest)
        .open();
    let open = server.submit(request).unwrap();
    for (i, gop) in corpus.gops.iter().enumerate() {
        let item = open.append(MediaItem::Gop(gop.clone()), rung_of(i));
        assert_eq!(item.unwrap(), i);
    }
    open.close();
    let mut per_gop: Vec<Vec<Option<u64>>> = vec![Vec::new(); GOPS];
    let deadline = Instant::now() + Duration::from_secs(60);
    for _ in 0..GOPS {
        let completion = open.next_completion(deadline).expect("every GOP completes");
        assert_eq!(completion.failed, 0);
        per_gop[completion.item] = completion
            .results
            .into_iter()
            .map(|r| r.and_then(|b| b.downcast::<u64>().ok()).map(|b| *b))
            .collect();
    }
    assert!(open.next_completion(deadline).is_none(), "one per GOP");
    let report = open.wait().unwrap();
    let frames: usize = per_gop.iter().map(Vec::len).sum();
    assert_eq!((report.images, report.failed), (frames, 0));

    for (rung, plan) in rungs.into_iter().enumerate() {
        let on_rung = |i: &usize| rung_of(*i) == rung;
        let gops = (0..GOPS).filter(on_rung);
        let items = gops
            .map(|i| MediaItem::Gop(corpus.gops[i].clone()))
            .collect();
        let closed = server.submit(SubmitRequest::new(plan, items).infer(digest));
        let expected = closed.unwrap().wait().unwrap().take_results::<u64>();
        let got: Vec<Option<u64>> = (0..GOPS)
            .filter(on_rung)
            .flat_map(|i| per_gop[i].clone())
            .collect();
        assert!(got.iter().all(Option::is_some));
        assert_eq!(got, expected, "rung {rung}: open ≡ closed, bit for bit");
    }
    server.shutdown();
}
