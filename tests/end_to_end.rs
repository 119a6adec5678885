//! Cross-crate integration tests: planner → engine → virtual device (one-
//! shot runs are `Server::run_once`), video through the analytics stack.
//! The min() law and the cost models' ranking are rate claims; they are
//! asserted by `paper_shapes` (Table 3, §8.2), not here.

use smol::accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol::analytics::{control_variate_mean, naive_mean, AggregationConfig, SpecializedCounter};
use smol::codec::{EncodedImage, Format};
use smol::core::{DecodeMode, FrameSelection, InputVariant, Planner, PlannerConfig, QueryPlan};
use smol::data::{generate_video, gop_corpus, still_catalog, throughput_images, video_catalog};
use smol::imgproc::ops::resize::resize_short_edge_u8;
use smol::nn::Tier;
use smol::runtime::{wrap_gops, wrap_images, MediaItem, OutputLayout, Personality, RuntimeOptions};
use smol::serve::{QueryReport, Server};
use smol::video::{DecodeOptions, EncodedVideo, VideoEncoder};

fn encode_batch(n: usize, fmt: Format) -> Vec<EncodedImage> {
    let spec = &still_catalog()[3];
    throughput_images(spec, 5, n)
        .iter()
        .map(|img| {
            let thumb = resize_short_edge_u8(img, 120).unwrap();
            EncodedImage::encode(&thumb, fmt).unwrap()
        })
        .collect()
}

fn plan_for(items: &[EncodedImage], fmt: Format, batch: usize) -> QueryPlan {
    let planner = Planner::new(PlannerConfig {
        dnn_input: 112,
        ..Default::default()
    });
    let input = InputVariant::new("test", fmt, items[0].width, items[0].height).thumbnail();
    QueryPlan {
        dnn: ModelKind::ResNet50,
        input: input.clone(),
        preproc: planner.build_preproc(&input),
        decode: planner.decode_mode(&input),
        batch,
    }
}

/// A one-shot run that must not lose an item.
fn run_clean(
    device: &VirtualDevice,
    opts: RuntimeOptions,
    plan: &QueryPlan,
    items: Vec<MediaItem>,
) -> QueryReport {
    let report = Server::run_once(device, opts, plan, items).unwrap();
    assert!(report.error.is_none(), "run failed: {:?}", report.error);
    assert_eq!((report.failed, report.skipped), (0, 0));
    report
}

fn fast_device(env: ExecutionEnv) -> VirtualDevice {
    VirtualDevice::new(GpuModel::T4, env, 0.02)
}

/// A one-shot run accounts every output of every item, under each §6.1
/// lesion and each Figure 10 personality the binaries route through it.
#[test]
fn run_once_conserves_stills_under_every_lesion_and_personality() {
    let items = encode_batch(40, Format::sjpg(85));
    let plan = plan_for(&items, Format::sjpg(85), 8);
    let lesions = [
        RuntimeOptions::default(),
        RuntimeOptions {
            producers: 1,
            ..Default::default()
        },
        RuntimeOptions {
            memory_reuse: false,
            ..Default::default()
        },
    ];
    assert_eq!(lesions[1].effective_producers(), 1);
    for opts in lesions {
        let report = run_clean(
            &fast_device(ExecutionEnv::TensorRt),
            opts,
            &plan,
            wrap_images(&items),
        );
        assert_eq!(report.images, 40, "{opts:?}");
        assert!(report.decode_cpu_s > 0.0 && report.cache_hits == 0);
        if !opts.memory_reuse {
            assert_eq!((report.pool.allocated, report.pool.reused), (40, 0));
        }
    }
    for personality in [Personality::Dali, Personality::PyTorch] {
        let device = fast_device(personality.env());
        let report = run_clean(&device, personality.options(2), &plan, wrap_images(&items));
        assert_eq!(report.images, 40, "{personality:?}");
        // DALI's extra host copy per batch reaches the device.
        let copies_per_batch = 1 + u64::from(personality == Personality::Dali);
        assert_eq!(device.stats().copies, 5 * copies_per_batch);
    }
}

/// GOP items fan out into the frames the plan's selection materializes, and
/// a one-shot run accounts each of them.
#[test]
fn run_once_conserves_gop_outputs_under_frame_selection() {
    let corpus = gop_corpus(&video_catalog()[1], 7, 4, 6); // 4 GOPs x 6 frames
    let items = wrap_gops(&corpus.gops);
    let input =
        InputVariant::new("v", corpus.format(), corpus.width, corpus.height).video(corpus.gop_len);
    for (selection, frames) in [
        (FrameSelection::Keyframes, 4),
        (FrameSelection::Stride(2), 12),
    ] {
        let plan = QueryPlan {
            dnn: ModelKind::ResNet50,
            preproc: Planner::default().build_preproc(&input),
            input: input.clone(),
            decode: DecodeMode::Video {
                selection,
                deblock: true,
            },
            batch: 8,
        };
        assert_eq!(OutputLayout::of(&items, plan.decode).total, frames);
        let report = run_clean(
            &fast_device(ExecutionEnv::TensorRt),
            RuntimeOptions::default(),
            &plan,
            items.clone(),
        );
        assert_eq!(report.images, frames, "{selection:?}");
    }
}

/// A corrupted item is not an `Err` of the run: the report carries it, the
/// other outputs stay accounted, and the server's threads are gone by the
/// time `run_once` returns — the device it ran on has every batch on its
/// books, and a second run adds to them.
#[test]
fn run_once_reports_a_corrupt_item_and_returns_with_its_threads_joined() {
    let mut items = encode_batch(12, Format::sjpg(85));
    let plan = plan_for(&items, Format::sjpg(85), 4);
    let device = fast_device(ExecutionEnv::TensorRt);
    let opts = RuntimeOptions::default();

    let clean = run_clean(&device, opts, &plan, wrap_images(&items));
    assert_eq!(clean.images, 12);
    let after_first = device.stats();
    assert_eq!(after_first.kernels, 3, "12 items at batch 4");

    let mut bytes = items[5].bytes.to_vec();
    for b in bytes.iter_mut().skip(8) {
        *b = 0xFF;
    }
    items[5].bytes = bytes::Bytes::from(bytes);
    let report = Server::run_once(&device, opts, &plan, wrap_images(&items)).unwrap();
    assert!(report.error.is_some());
    assert!(report.failed > 0);
    assert_eq!(report.images + report.failed + report.skipped, 12);
    let after_second = device.stats();
    assert!(after_second.kernels > after_first.kernels);
    assert_eq!(after_second, device.stats(), "nothing still running");
}

/// Video → codec → decode → specialized NN → control-variate estimator,
/// with the estimator beating naive sampling.
#[test]
fn video_aggregation_end_to_end() {
    let spec = &video_catalog()[1]; // taipei
    let clip = generate_video(spec, 5, 240);
    let encoded = VideoEncoder::default()
        .encode_frames(&clip.frames, spec.fps)
        .unwrap();
    let video = EncodedVideo::parse(encoded).unwrap();
    let decoded = video.decode_all(DecodeOptions::default()).unwrap();
    assert_eq!(decoded.len(), 240);

    let counter =
        SpecializedCounter::train(&decoded[..120], &clip.counts[..120], Tier::T34, 96, 3, 12);
    let preds: Vec<f64> = decoded.iter().map(|f| counter.predict(f)).collect();
    let cfg = AggregationConfig {
        error_target: 0.15,
        seed: 9,
        ..Default::default()
    };
    let cv = control_variate_mean(&clip.counts, &preds, &cfg);
    let naive = naive_mean(&clip.counts, &cfg);
    assert!(
        (cv.estimate - cv.truth).abs() < 0.5,
        "estimate {} vs truth {}",
        cv.estimate,
        cv.truth
    );
    assert!(
        cv.samples <= naive.samples,
        "cv {} naive {}",
        cv.samples,
        naive.samples
    );
}

/// GOP-parallel decode equals sequential decode frame-for-frame.
#[test]
fn parallel_video_decode_matches_sequential() {
    let spec = &video_catalog()[2];
    let clip = generate_video(spec, 8, 60);
    let encoded = VideoEncoder {
        gop: 10,
        ..Default::default()
    }
    .encode_frames(&clip.frames, spec.fps)
    .unwrap();
    let video = EncodedVideo::parse(encoded).unwrap();
    let sequential = video.decode_all(DecodeOptions::default()).unwrap();
    let parallel = parking_lot::Mutex::new(vec![None; 60]);
    video
        .decode_parallel(4, DecodeOptions::default(), |idx, frame| {
            parallel.lock()[idx] = Some(frame.clone());
        })
        .unwrap();
    let parallel = parallel.into_inner();
    for (i, (s, p)) in sequential.iter().zip(&parallel).enumerate() {
        assert_eq!(s, p.as_ref().expect("decoded"), "frame {i}");
    }
}

/// The planner's full flow: profile → enumerate → frontier → the §5.2
/// motivating example holds with *measured* preprocessing rates.
#[test]
fn planner_prefers_thumbnails_with_measured_rates() {
    let full_items = {
        let spec = &still_catalog()[3];
        throughput_images(spec, 6, 32)
            .iter()
            .map(|img| EncodedImage::encode(img, Format::sjpg(95)).unwrap())
            .collect::<Vec<_>>()
    };
    let thumb_items = encode_batch(32, Format::Spng);
    let planner = Planner::default();
    let mk = |items: &[EncodedImage], name: &str, fmt: Format, thumb: bool| {
        let mut input = InputVariant::new(name, fmt, items[0].width, items[0].height);
        if thumb {
            input = input.thumbnail();
        }
        let plan = QueryPlan {
            dnn: ModelKind::ResNet50,
            input: input.clone(),
            preproc: planner.build_preproc(&input),
            decode: planner.decode_mode(&input),
            batch: 32,
        };
        let rate =
            smol::runtime::measure_preproc_throughput(items, &plan, &RuntimeOptions::default());
        (input, rate)
    };
    let (full_input, full_rate) = mk(&full_items, "full", Format::sjpg(95), false);
    let (thumb_input, thumb_rate) = mk(&thumb_items, "thumb", Format::Spng, true);
    assert!(
        thumb_rate > full_rate,
        "thumbnails must preprocess faster: {thumb_rate} vs {full_rate}"
    );
    let specs = vec![
        smol::core::CandidateSpec {
            dnn: ModelKind::ResNet50,
            input: full_input,
            accuracy: 0.75,
            preproc_throughput: full_rate,
            reduced_accuracy: None,
            cascade: None,
            routing: Vec::new(),
            video: None,
            storage: None,
        },
        smol::core::CandidateSpec {
            dnn: ModelKind::ResNet50,
            input: thumb_input,
            accuracy: 0.748,
            preproc_throughput: thumb_rate,
            reduced_accuracy: None,
            cascade: None,
            routing: Vec::new(),
            video: None,
            storage: None,
        },
    ];
    let frontier = planner.frontier(&specs).unwrap();
    assert!(frontier[0].plan.input.is_thumbnail);
}

/// Regression for the declarative `Session` path: registering a dataset
/// and stating `max_accuracy_loss(0.005)` must select the same plan the
/// old manual path (hand-built `CandidateSpec`s → `Planner::frontier` →
/// fastest frontier plan) selected, and execute it end to end.
#[test]
fn session_matches_manual_plan_selection() {
    use smol::{AccuracyTable, Calibration, Dataset, Query, Session, SessionConfig};

    let n = 32;
    let full_items: Vec<EncodedImage> = {
        let spec = &still_catalog()[3];
        throughput_images(spec, 6, n)
            .iter()
            .map(|img| EncodedImage::encode(img, Format::sjpg(95)).unwrap())
            .collect()
    };
    let thumb_items = encode_batch(n, Format::sjpg(75));
    let full_input = InputVariant::new("full", Format::sjpg(95), 320, 240);
    let thumb_input = InputVariant::new(
        "thumb",
        Format::sjpg(75),
        thumb_items[0].width,
        thumb_items[0].height,
    )
    .thumbnail();

    // --- the old manual path: profile, hand-build specs, take the
    // fastest frontier plan (what `examples/quickstart.rs` used to do).
    let planner = Planner::default();
    let measure = |items: &[EncodedImage], input: &InputVariant| {
        let plan = QueryPlan {
            dnn: ModelKind::ResNet50,
            input: input.clone(),
            preproc: planner.build_preproc(input),
            decode: planner.decode_mode(input),
            batch: planner.config.batch,
        };
        smol::runtime::measure_preproc_throughput(items, &plan, &RuntimeOptions::default())
    };
    let full_rate = measure(&full_items, &full_input);
    let thumb_rate = measure(&thumb_items, &thumb_input);
    assert!(
        thumb_rate > full_rate * 1.2,
        "thumbnails must preprocess decisively faster ({thumb_rate} vs {full_rate})"
    );
    let specs = vec![
        smol::core::CandidateSpec {
            dnn: ModelKind::ResNet50,
            input: full_input.clone(),
            accuracy: 0.7516,
            preproc_throughput: full_rate,
            reduced_accuracy: None,
            cascade: None,
            routing: Vec::new(),
            video: None,
            storage: None,
        },
        smol::core::CandidateSpec {
            dnn: ModelKind::ResNet50,
            input: thumb_input.clone(),
            accuracy: 0.7500,
            preproc_throughput: thumb_rate,
            reduced_accuracy: None,
            cascade: None,
            routing: Vec::new(),
            video: None,
            storage: None,
        },
        smol::core::CandidateSpec {
            dnn: ModelKind::ResNet34,
            input: full_input.clone(),
            accuracy: 0.7272,
            preproc_throughput: full_rate,
            reduced_accuracy: None,
            cascade: None,
            routing: Vec::new(),
            video: None,
            storage: None,
        },
    ];
    let frontier = planner.frontier(&specs).unwrap();
    let manual = &frontier[0]; // sorted by descending throughput

    // --- the declarative path over the same corpus and calibration.
    let device = VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 1.0);
    let session = Session::new(device, SessionConfig::default());
    session
        .register(
            Dataset::new("photos")
                .with_model(ModelKind::ResNet50)
                .with_model(ModelKind::ResNet34)
                .with_variant(full_input.clone(), full_items)
                .with_variant(thumb_input.clone(), thumb_items)
                .with_calibration(Calibration::Table(
                    AccuracyTable::new()
                        .with(ModelKind::ResNet50, "full", 0.7516)
                        .with(ModelKind::ResNet50, "thumb", 0.7500)
                        .with(ModelKind::ResNet34, "full", 0.7272),
                )),
        )
        .unwrap();
    let query = Query::new("photos").max_accuracy_loss(0.005);
    let explanation = session.explain(&query).unwrap();
    assert_eq!(
        explanation.chosen.plan.label(),
        manual.plan.label(),
        "declarative selection must match the manual path"
    );
    assert_eq!(explanation.chosen.plan.decode, manual.plan.decode);
    assert_eq!(
        explanation.chosen.accuracy, manual.accuracy,
        "calibrated accuracy must round-trip through the session"
    );

    let report = session.run(&query).unwrap();
    assert_eq!(report.label, manual.plan.label());
    assert_eq!(report.images, n);
    assert!(report.error.is_none(), "query failed: {:?}", report.error);
    session.shutdown();
}
