//! Live-stream serving end to end: GOPs arriving over wall-clock time,
//! the pacing scheduler downgrading and shedding under overload (and the
//! lesion — pacing off — falling unboundedly behind), windowed outputs
//! tracking ground truth, bounded non-blocking waits, and the per-frame
//! decoded-tensor cache shared across repeated video queries.

use smol::accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol::data::{timed_stream, video_catalog, StreamFeed};
use smol::runtime::{MediaItem, RuntimeOptions};
use smol::serve::{QueryPoll, ServerConfig, SubmitOptions, SubmitRequest};
use smol::stream::{PacingPolicy, StreamGop, StreamSource};
use smol::video::EncodedGop;
use smol::{
    run_stream, AccuracyTable, Calibration, Dataset, FeedSource, Priority, Query, Session,
    SessionConfig, StreamConfig, WindowResult,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const GOP_LEN: usize = 6;

/// A timed feed over the taipei scene (30 fps, 128x72 low-res GOPs).
fn feed(n_gops: usize, time_scale: f64, seed: u64) -> StreamFeed {
    let spec = video_catalog()
        .into_iter()
        .find(|s| s.name == "taipei")
        .unwrap();
    timed_stream(&spec, seed, n_gops, GOP_LEN, time_scale)
}

/// A session whose per-frame CPU cost is deterministic: `extra_cpu_s`
/// seconds of synthetic work per produced frame, so overload scenarios
/// don't depend on host speed.
fn session_with(extra_cpu_s: f64) -> Session {
    let device = VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 0.05);
    Session::new(
        device,
        SessionConfig {
            server: ServerConfig {
                runtime: RuntimeOptions {
                    extra_cpu_s_per_image: extra_cpu_s,
                    ..Default::default()
                },
                ..Default::default()
            },
            profile_sample: 4,
            ..Default::default()
        },
    )
}

/// Registers the feed's corpus with a calibration table giving the
/// planner a full downgrade ladder: deblock-skip and keyframe-only
/// decodes all sit above the 3%-loss floor.
fn register_stream(session: &Session, name: &str, feed: &StreamFeed) {
    let variant = feed.corpus.name.clone();
    session
        .register(
            Dataset::stream(name, feed)
                .with_model(ModelKind::ResNet50)
                .with_calibration(Calibration::Table(
                    AccuracyTable::new()
                        .with(ModelKind::ResNet50, &variant, 0.82)
                        .with_keyframes(ModelKind::ResNet50, &variant, 0.82, 0.80)
                        .with_deblock_skip(ModelKind::ResNet50, &variant, 0.82, 0.81),
                )),
        )
        .unwrap();
}

/// A counting function that returns the corpus's ground-truth per-frame
/// object count, so windowed means are checkable exactly.
fn truth_fn(feed: &StreamFeed) -> impl Fn(usize, &smol::imgproc::ImageU8) -> f64 + Send + Sync {
    let counts = feed.corpus.counts.clone();
    move |pos, _img| counts.get(pos).copied().unwrap_or(0) as f64
}

fn drain(handle: &smol::StreamHandle) -> Vec<WindowResult> {
    let mut out = Vec::new();
    while let Some(w) = handle.next_window() {
        out.push(w);
    }
    out
}

/// Ample capacity: every GOP runs on the base rung, nothing drops, every
/// window closes fully covered with its mean exactly the ground truth.
#[test]
fn ample_capacity_runs_at_full_fidelity() {
    let f = feed(6, 4.0, 11);
    let counts = f.corpus.counts.clone();
    let fps = f.corpus.fps;
    let session = Arc::new(session_with(0.0));
    register_stream(&session, "cam", &f);
    let query = Query::new("cam").max_accuracy_loss(0.03);
    let cfg = StreamConfig {
        window_s: 0.5,
        ..Default::default()
    };
    let truth = truth_fn(&f);
    let handle = run_stream(&session, &query, FeedSource::new(f), cfg, truth).unwrap();
    let windows = drain(&handle);
    let stats = handle.finish();

    assert_eq!(stats.gops_arrived, 6);
    assert_eq!(stats.gops_submitted, 6);
    assert_eq!(stats.gops_dropped, 0, "ample capacity must not shed");
    assert_eq!(stats.max_rung, 0, "ample capacity must not downgrade");
    assert_eq!(stats.floor_violations, 0);
    assert_eq!(stats.frames_total, 6 * GOP_LEN);
    assert_eq!(stats.frames_decoded, stats.frames_total);
    assert_eq!(stats.frames_dropped, 0);
    assert_eq!(stats.windows, windows.len());
    assert!((stats.window_coverage - 1.0).abs() < 1e-9);

    let fpw = ((0.5 * fps).round() as usize).max(1);
    let total_expected: usize = windows.iter().map(|w| w.expected_frames).sum();
    assert_eq!(total_expected, stats.frames_total);
    for w in &windows {
        assert_eq!(w.frames_dropped, 0);
        assert_eq!(w.frames_downgraded, 0);
        assert!((w.coverage - 1.0).abs() < 1e-9);
        assert_eq!(w.samples, w.expected_frames, "every frame executed");
        let s = w.index * fpw;
        let span = &counts[s..s + w.expected_frames];
        let truth_mean = span.iter().map(|&c| c as f64).sum::<f64>() / span.len() as f64;
        assert!(
            (w.mean - truth_mean).abs() < 1e-9,
            "window {} mean {} != ground truth {}",
            w.index,
            w.mean,
            truth_mean
        );
    }
}

/// Overload (arrivals far faster than the pipeline): the pacer sheds
/// and/or downgrades to bound lag, never violating the accuracy floor,
/// and windowed means stay inside the window's ground-truth count range.
/// The lesion (pacing disabled) executes everything, so it falls further
/// and further behind. Both halves are asserted here on counts; the lag
/// itself — bounded when paced, growing under the lesion — is a duration,
/// and the `live_stream` bench gate asserts it.
#[test]
fn overload_pacer_bounds_lag_where_lesion_grows() {
    const GOPS: usize = 48;
    let policy = PacingPolicy {
        enabled: true,
        target_lag_s: 0.05,
        drop_lag_s: 0.4,
    };
    let cfg = StreamConfig {
        window_s: 0.2,
        policy,
        priority: Priority::High,
    };

    // Paced run: 48 GOPs arriving ~200x real time, 4ms CPU per frame. The
    // backlog (~290 ms of synthetic CPU over four producers) is far past
    // the pacer's 50 ms target, so the pacer must act.
    let f = feed(GOPS, 200.0, 13);
    let counts = f.corpus.counts.clone();
    let fps = f.corpus.fps;
    let session = Arc::new(session_with(0.004));
    register_stream(&session, "cam", &f);
    let query = Query::new("cam").max_accuracy_loss(0.03);
    let truth = truth_fn(&f);
    let handle = run_stream(&session, &query, FeedSource::new(f), cfg, truth).unwrap();
    let paced_windows = drain(&handle);
    let paced = handle.finish();

    assert_eq!(paced.gops_arrived, GOPS);
    assert_eq!(
        paced.gops_arrived,
        paced.gops_submitted + paced.gops_dropped
    );
    assert!(
        paced.gops_dropped > 0 || paced.max_rung > 0,
        "overload must trigger shedding or downgrading (dropped={} max_rung={})",
        paced.gops_dropped,
        paced.max_rung
    );
    assert_eq!(
        paced.floor_violations, 0,
        "floor violations by construction"
    );
    assert!(paced.frames_decoded <= paced.frames_total);

    // Satellite: frame loss flows into the server-wide aggregate.
    let server_stats = session.server().stats();
    if paced.gops_dropped > 0 {
        assert!(server_stats.dropped_frames > 0);
    }
    if paced.max_rung > 0 {
        assert!(server_stats.downgraded_frames > 0);
    }

    // Windowed means stay inside the window's ground-truth value range
    // even when computed from a temporal subsample.
    let fpw = ((0.2 * fps).round() as usize).max(1);
    for w in paced_windows.iter().filter(|w| w.samples > 0) {
        let s = w.index * fpw;
        let span = &counts[s..s + w.expected_frames];
        let lo = span.iter().copied().min().unwrap() as f64;
        let hi = span.iter().copied().max().unwrap() as f64;
        assert!(
            w.mean >= lo - 1e-9 && w.mean <= hi + 1e-9,
            "window {} mean {} outside ground-truth range [{lo}, {hi}]",
            w.index,
            w.mean
        );
    }

    // Lesion: identical overload, pacing disabled. Everything executes
    // eventually, but staleness grows across the stream.
    let f = feed(GOPS, 200.0, 13);
    let session = Arc::new(session_with(0.004));
    register_stream(&session, "cam", &f);
    let truth = truth_fn(&f);
    let lesion_cfg = StreamConfig {
        policy: PacingPolicy::disabled(),
        ..cfg
    };
    let handle = run_stream(&session, &query, FeedSource::new(f), lesion_cfg, truth).unwrap();
    drain(&handle);
    let lesion = handle.finish();

    assert_eq!(lesion.gops_dropped, 0, "lesion never sheds");
    assert_eq!(lesion.max_rung, 0, "lesion never downgrades");
    assert_eq!(lesion.frames_decoded, lesion.frames_total);
}

/// `QueryHandle::poll` and `wait_deadline` under a query that is still
/// streaming through the pipeline: both return promptly (no hang), the
/// deadline wait reports `Ok(None)` at its timeout, and the query still
/// resolves fully afterwards.
#[test]
fn poll_and_wait_deadline_are_bounded_while_work_is_in_flight() {
    // 12 GOPs x 6 frames x 10ms synthetic CPU per frame: >= 180ms of
    // wall-clock work even with every producer busy, so a 50ms deadline
    // must expire first.
    let f = feed(12, 1.0, 17);
    let session = Arc::new(session_with(0.01));
    register_stream(&session, "cam", &f);
    let handle = session
        .submit(&Query::new("cam").max_accuracy_loss(0.0))
        .unwrap();

    match handle.poll() {
        QueryPoll::Pending {
            completed, total, ..
        } => assert!(completed < total),
        QueryPoll::Ready => panic!("720ms of synthetic CPU cannot finish instantly"),
    }

    let t0 = Instant::now();
    let timed_out = handle.wait_deadline(Duration::from_millis(50)).unwrap();
    let elapsed = t0.elapsed();
    assert!(timed_out.is_none(), "the deadline must expire first");
    assert!(
        elapsed >= Duration::from_millis(45) && elapsed < Duration::from_secs(5),
        "wait_deadline must return near its deadline, took {elapsed:?}"
    );

    let report = handle.wait().unwrap();
    assert_eq!(report.images, 12 * GOP_LEN);
    assert_eq!(report.dropped_frames, 0);
    assert_eq!(report.downgraded_frames, 0);
}

/// An endless source never completes; every `StreamHandle` wait is
/// bounded, `stop` takes effect promptly, and `finish` returns.
#[test]
fn endless_stream_waits_are_bounded_and_stop_is_prompt() {
    struct Endless {
        gop: EncodedGop,
        i: usize,
        fps: f64,
    }
    impl StreamSource for Endless {
        fn next_gop(&mut self) -> Option<StreamGop> {
            let start_frame = self.i * GOP_LEN;
            let arrival = Duration::from_secs_f64(
                (start_frame + GOP_LEN) as f64 / self.fps / self.time_scale(),
            );
            self.i += 1;
            Some(StreamGop {
                gop: self.gop.clone(),
                start_frame,
                arrival,
            })
        }
        fn fps(&self) -> f64 {
            self.fps
        }
        fn time_scale(&self) -> f64 {
            50.0
        }
    }

    let f = feed(6, 1.0, 19);
    let source = Endless {
        gop: f.corpus.gops[0].clone(),
        i: 0,
        fps: f.corpus.fps,
    };
    let session = Arc::new(session_with(0.002));
    register_stream(&session, "cam", &f);
    let query = Query::new("cam").max_accuracy_loss(0.03);
    let truth = truth_fn(&f);
    let handle = run_stream(&session, &query, source, StreamConfig::default(), truth).unwrap();

    // Bounded wait: returns within the timeout window whether or not a
    // window has closed yet — the stream itself never completes.
    let t0 = Instant::now();
    let _maybe_window = handle.next_window_deadline(Duration::from_millis(200));
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "next_window_deadline must not hang on an endless stream"
    );
    let _ = handle.next_window_deadline(Duration::ZERO); // non-blocking by definition

    handle.stop();
    let t1 = Instant::now();
    let stats = handle.finish();
    assert!(
        t1.elapsed() < Duration::from_secs(10),
        "finish after stop must be prompt"
    );
    assert!(stats.gops_arrived > 0, "the stream was live before stop");
    assert_eq!(stats.floor_violations, 0);
}

/// Satellite: repeated video queries share decoded frames through the
/// tensor cache, keyed per (GOP fingerprint, frame, decode fidelity) with
/// frame *selection* canonicalized out — so a later keyframes-only query
/// hits entries a full decode populated.
#[test]
fn repeated_video_queries_hit_the_frame_cache() {
    let f = feed(6, 1.0, 23);
    let variant = f.corpus.name.clone();
    let session = session_with(0.0);
    // Calibrate only full and keyframe decode (both deblocked), so the
    // tolerant plan differs from the strict one *only* in selection.
    session
        .register(
            Dataset::stream("cam", &f)
                .with_model(ModelKind::ResNet50)
                .with_calibration(Calibration::Table(
                    AccuracyTable::new()
                        .with(ModelKind::ResNet50, &variant, 0.82)
                        .with_keyframes(ModelKind::ResNet50, &variant, 0.82, 0.80),
                )),
        )
        .unwrap();

    let strict = Query::new("cam").max_accuracy_loss(0.0);
    session.run(&strict).unwrap();
    let after_first = session.server().tensor_cache_stats();

    session.run(&strict).unwrap();
    let after_second = session.server().tensor_cache_stats();
    assert!(
        after_second.hits >= after_first.hits + (6 * GOP_LEN) as u64,
        "identical re-decode must hit every cached frame ({} -> {})",
        after_first.hits,
        after_second.hits
    );
    assert_eq!(
        after_second.misses, after_first.misses,
        "identical re-decode must not decode anything"
    );

    // Keyframes-only plan, same fidelity: one lookup per GOP, all hits.
    let tolerant = Query::new("cam").max_accuracy_loss(0.03);
    session.run(&tolerant).unwrap();
    let after_keyframes = session.server().tensor_cache_stats();
    assert!(
        after_keyframes.hits >= after_second.hits + 6,
        "keyframe decode must reuse frames cached by the full decode"
    );
    assert_eq!(
        after_keyframes.misses, after_second.misses,
        "cross-selection reuse must not trigger new decodes"
    );
}

/// A stream is one server query: a 20-GOP `run_stream` raises
/// `submitted_queries` by exactly one, and its frames are all accounted
/// for when it ends.
#[test]
fn a_stream_is_one_server_query() {
    let f = feed(20, 8.0, 29);
    let session = Arc::new(session_with(0.0));
    register_stream(&session, "cam", &f);
    let before = session.server().stats();
    let query = Query::new("cam").max_accuracy_loss(0.03);
    let truth = truth_fn(&f);
    let handle = run_stream(
        &session,
        &query,
        FeedSource::new(f),
        StreamConfig::default(),
        truth,
    )
    .unwrap();
    drain(&handle);
    let stats = handle.finish();
    let after = session.server().stats();

    assert_eq!(stats.gops_arrived, 20);
    assert_eq!(after.submitted_queries - before.submitted_queries, 1);
    assert_eq!(after.completed_queries - before.completed_queries, 1);
    assert_eq!(
        after.images_done - before.images_done,
        stats.frames_decoded as u64
    );
}

/// `stop` cancels the GOPs of an overloaded stream that no producer has
/// claimed yet. Each appended frame is then counted exactly once by the
/// server: executed, or dropped — a stopped GOP is never both.
#[test]
fn stopping_a_stream_counts_every_appended_frame_once() {
    // 400 GOPs arriving at 200x real time against 4 ms of CPU per frame:
    // the source is far from its end, and the stream's query at its append
    // bound, when the stream is stopped.
    let f = feed(400, 200.0, 31);
    let clip: Vec<MediaItem> = f.corpus.gops.iter().cloned().map(MediaItem::Gop).collect();
    let session = Arc::new(session_with(0.004));
    register_stream(&session, "cam", &f);
    let before = session.server().stats();
    let query = Query::new("cam").max_accuracy_loss(0.03);
    let cfg = StreamConfig {
        policy: PacingPolicy::disabled(),
        ..Default::default()
    };
    let handle = run_stream(&session, &query, FeedSource::new(f), cfg, |_, _| 0.0).unwrap();
    let _ = handle.next_window_deadline(Duration::from_millis(300));
    // The premise: a GOP is queued, unclaimed, when the stream stops.
    // Producers claim from the highest priority down, so once a
    // High-priority query over the same clip is admitted, a GOP the stream
    // appends stays unclaimed for as long as that query has items left to
    // claim. It runs the stream's base plan, so its frames fill the batches
    // the stream's last produced GOPs wait in, and those resolve to make
    // room for the appends.
    let base = session.stream_ladder(&query).unwrap().rungs[0].plan.clone();
    let high = SubmitOptions {
        priority: Priority::High,
        ..Default::default()
    };
    let blocker = SubmitRequest::new(base, clip).options(high);
    let blocker = session.server().submit(blocker).unwrap();
    let admitted = session.server().stats().images_in;
    let t0 = Instant::now();
    while session.server().stats().images_in == admitted && t0.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        session.server().stats().images_in > admitted,
        "the stream appended a GOP behind the High-priority query"
    );
    handle.stop();
    // ...and it still has: more of its outputs unstaged than the producers
    // can hold between them, so no producer took a stream GOP since it was
    // admitted.
    let producers = RuntimeOptions::default().producers;
    match blocker.poll() {
        QueryPoll::Pending {
            produced, total, ..
        } => assert!(
            total - produced > producers * GOP_LEN,
            "the High-priority query kept every producer ({produced}/{total} produced)"
        ),
        QueryPoll::Ready => panic!("the High-priority query ended before the stop"),
    }
    blocker.cancel();
    let blocked = blocker.wait().unwrap();
    let stats = handle.finish();
    // Whatever the stream left in flight has finished before the count.
    let t0 = Instant::now();
    while session.server().stats().queue_depth > 0 && t0.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(5));
    }
    let after = session.server().stats();

    // The High-priority query's outputs are not the stream's.
    let blocked_in = (blocked.images + blocked.failed + blocked.skipped) as u64;
    let appended = after.images_in - before.images_in - blocked_in;
    let done = after.images_done - before.images_done - blocked.images as u64;
    let dropped = after.dropped_frames - before.dropped_frames - blocked.dropped_frames as u64;
    assert!(
        appended > 0 && dropped > 0,
        "the stop cancelled queued GOPs"
    );
    assert_eq!(
        done + dropped,
        appended,
        "every appended frame counted once"
    );
    assert_eq!(done, stats.frames_decoded as u64);
    assert_eq!(
        stats.frames_decoded + stats.frames_dropped,
        stats.frames_total
    );
}
