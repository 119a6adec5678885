//! `video_live` — an open loop: a bench-owned [`StreamSource`] offers GOPs at
//! a fixed rate through `smol_stream::run_stream`, cycling ≈ 120 distinct
//! seeded GOPs as a continuous feed.
//!
//! It exercises `smol_video` (P-frame motion compensation, deblocking),
//! `smol_stream` pacing, `smol_analytics::WindowRollup`, and the serve layer
//! used as ≈ 330 one-GOP queries per second — admission and finalise per
//! query rather than claim per item. The offered rate is well under
//! capacity, so nothing is shed and `failed` stays 0; `throughput_ips` is a
//! guard here (it equals the offered rate unless a backlog grows), and gains
//! show in `cpu_ms_per_item` and `latency_p50_ms`. The tensor cache is off:
//! a live feed never repeats, and a cycled corpus must not pretend it does.

use super::{device, plan_label, session_config, session_metrics};
use crate::harness::{SliceWork, Verdict, Workload};
use crate::inputs::{pixel_digest, RunDir};
use crate::layers::LayerMetrics;
use crate::replay;
use crate::stats::{median, percentile};
use crate::trace::{SpanId, Tracer};
use smol::accel::{GpuModel, ModelKind};
use smol::analytics::WindowRollup;
use smol::core::{CandidateSpec, FrameSelection, InputVariant, Planner, VideoFidelity};
use smol::data::{gop_corpus, video_catalog, GopCorpus};
use smol::imgproc::ImageU8;
use smol::runtime::MediaItem;
use smol::serve::Explanation;
use smol::stream::StreamGop;
use smol::video::DecodeOptions;
use smol::{
    run_stream, AccuracyTable, Calibration, Dataset, Query, Session, StreamConfig, StreamSource,
    StreamStats, WindowResult,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

pub struct VideoLive;

/// Distinct GOPs in the cycled corpus, and frames per GOP.
const CORPUS_GOPS: usize = 120;
const GOP_LEN: usize = 6;
/// The offered rate, frames per second: a constant of the benchmark, about
/// a quarter of what two cores sustain at reference speed.
pub const OFFERED_FPS: f64 = 2000.0;
/// GOPs one slice offers (≈ 0.48 s of feed).
const GOPS_PER_SLICE: usize = 160;
/// GOPs of the verification stream.
const VERIFY_GOPS: usize = 60;
const MODEL: ModelKind = ModelKind::TinyResNet;
/// The specialised model's input edge (BlazeIt-style tiny ResNet).
const DNN_INPUT: u32 = 64;
const FLOOR: f64 = 0.80;
const WINDOW_S: f64 = 1.0;

pub struct Inputs {
    corpus: GopCorpus,
    /// The corpus' GOPs again, shared with every stream source (GOP bodies
    /// are reference-counted, so this copies no payload).
    gops: Arc<Vec<smol::video::EncodedGop>>,
}

pub struct Env {
    session: Arc<Session>,
    query: Query,
    explanation: Explanation,
    register_s: f64,
    explain_cold_s: f64,
    stream_stats: Mutex<Vec<StreamStats>>,
    late_ms: Mutex<Vec<f64>>,
    run_stream_us: Mutex<Vec<f64>>,
}

/// Wall-clock due time of GOP `i` of a stream: once its last frame exists.
fn due(i: usize) -> Duration {
    Duration::from_secs_f64(((i + 1) * GOP_LEN) as f64 / OFFERED_FPS)
}

/// The bench-owned source: `n` GOPs drawn cyclically from the corpus from
/// `offset` on, renumbered as one dense stream, due at the offered rate.
struct CycledFeed {
    gops: Arc<Vec<smol::video::EncodedGop>>,
    offset: usize,
    n: usize,
    next: usize,
    fps: f64,
    /// Set at the first pull: the stream's time origin, shared with the
    /// frame callback.
    origin: Arc<OnceLock<Instant>>,
    /// How late each GOP was released: the driver pulls GOP `i + 1` right
    /// after it has submitted GOP `i`.
    late_ms: Arc<Mutex<Vec<f64>>>,
    /// `--self-check`: `(position, corpus index)` — this stream position
    /// carries another GOP's frames.
    swapped: Option<(usize, usize)>,
}

impl StreamSource for CycledFeed {
    fn next_gop(&mut self) -> Option<StreamGop> {
        let origin = *self.origin.get_or_init(Instant::now);
        if self.next > 0 {
            let late = origin.elapsed().saturating_sub(due(self.next - 1));
            self.late_ms
                .lock()
                .expect("lateness lock")
                .push(late.as_secs_f64() * 1e3);
        }
        if self.next == self.n {
            return None;
        }
        let i = self.next;
        self.next += 1;
        let pick = match self.swapped {
            Some((position, other)) if position == i => other,
            _ => self.offset + i,
        };
        Some(StreamGop {
            gop: self.gops[pick % self.gops.len()].clone(),
            start_frame: i * GOP_LEN,
            arrival: due(i),
        })
    }

    fn fps(&self) -> f64 {
        self.fps
    }

    fn time_scale(&self) -> f64 {
        OFFERED_FPS / self.fps
    }
}

/// The value a frame contributes to its window: a small integer, so window
/// sums are exact whatever order GOPs resolve in. Timed slices read one
/// pixel; the verification stream digests the whole frame.
fn frame_value(img: &ImageU8, full_digest: bool) -> f64 {
    if full_digest {
        (pixel_digest(img) % 251) as f64
    } else {
        img.data()[img.data().len() / 2] as f64
    }
}

/// Everything one finished stream hands back.
struct StreamRun {
    stats: StreamStats,
    windows: Vec<WindowResult>,
    /// Per frame position: nanoseconds from stream origin to its callback
    /// (0 = never called).
    done_ns: Vec<u64>,
    late_ms: Vec<f64>,
}

/// Which part of the cycled corpus one stream offers, and how.
struct Feed {
    /// First corpus GOP of the stream, and how many GOPs follow.
    offset: usize,
    n: usize,
    /// Digest whole frames (verification) instead of reading one pixel.
    full_digest: bool,
    /// `--self-check`: `(position, corpus index)` of a substituted GOP.
    swapped: Option<(usize, usize)>,
    /// Request id of the stream's spans.
    request: u64,
}

fn stream(env: &Env, inputs: &Inputs, feed: Feed, tracer: &Tracer, parent: SpanId) -> StreamRun {
    let Feed {
        offset,
        n,
        full_digest,
        swapped,
        request,
    } = feed;
    let origin = Arc::new(OnceLock::new());
    let late_ms = Arc::new(Mutex::new(Vec::with_capacity(n)));
    let done: Arc<Vec<AtomicU64>> = Arc::new((0..n * GOP_LEN).map(|_| AtomicU64::new(0)).collect());
    let source = CycledFeed {
        gops: Arc::clone(&inputs.gops),
        offset,
        n,
        next: 0,
        fps: inputs.corpus.fps,
        origin: Arc::clone(&origin),
        late_ms: Arc::clone(&late_ms),
        swapped,
    };
    let (cb_origin, cb_done) = (Arc::clone(&origin), Arc::clone(&done));
    let t0 = Instant::now();
    let handle = tracer
        .span("stream.run_stream", parent, request, |_| {
            run_stream(
                &env.session,
                &env.query,
                source,
                StreamConfig {
                    window_s: WINDOW_S,
                    ..StreamConfig::default()
                },
                move |pos, img| {
                    let value = frame_value(img, full_digest);
                    let at = cb_origin.get().map_or(0, |o| o.elapsed().as_nanos() as u64);
                    // Relaxed: the slots are read only after the driver
                    // thread has been joined.
                    cb_done[pos].store(at.max(1), Ordering::Relaxed);
                    value
                },
            )
        })
        .expect("start stream");
    env.run_stream_us
        .lock()
        .expect("timing lock")
        .push(t0.elapsed().as_secs_f64() * 1e6);
    let mut windows = Vec::new();
    tracer.span("stream.drain_windows", parent, request, |_| {
        while let Some(w) = handle.next_window() {
            windows.push(w);
        }
    });
    let stats = tracer.span("stream.finish", parent, request, |_| handle.finish());
    let late = late_ms.lock().expect("lateness lock").clone();
    StreamRun {
        stats,
        windows,
        done_ns: done.iter().map(|d| d.load(Ordering::Relaxed)).collect(),
        late_ms: late,
    }
}

impl Workload for VideoLive {
    const NAME: &'static str = "video_live";
    const OPEN_LOOP: bool = true;
    type Inputs = Inputs;
    type Env = Env;

    fn generate(seed: u64, _dir: &RunDir) -> Inputs {
        let corpus = gop_corpus(&video_catalog()[1], seed, CORPUS_GOPS, GOP_LEN);
        let gops = Arc::new(corpus.gops.clone());
        Inputs { corpus, gops }
    }

    fn setup(inputs: &Inputs, _dir: &RunDir, tracer: &Tracer, parent: SpanId) -> Env {
        let corpus = &inputs.corpus;
        let session = tracer.span("session.new", parent, 0, |_| {
            Arc::new(Session::new(
                device(GpuModel::T4, 1.0),
                session_config(0, DNN_INPUT),
            ))
        });
        let t0 = Instant::now();
        tracer.span("session.register", parent, 0, |_| {
            // Only the full-GOP, deblocked decode clears the floor: the
            // stream ladder has exactly one rung.
            let table = AccuracyTable::new()
                .with(MODEL, &corpus.name, FLOOR + 0.01)
                .with_keyframes(MODEL, &corpus.name, FLOOR + 0.01, FLOOR - 0.10)
                .with_deblock_skip(MODEL, &corpus.name, FLOOR + 0.01, FLOOR - 0.05);
            session
                .register(
                    Dataset::video("cam", corpus.clone())
                        .with_model(MODEL)
                        .with_calibration(Calibration::Table(table)),
                )
                .expect("register stream dataset")
        });
        let register_s = t0.elapsed().as_secs_f64();
        let query = Query::new("cam").min_accuracy(FLOOR);
        let t0 = Instant::now();
        let explanation = tracer
            .span("session.explain", parent, 0, |_| session.explain(&query))
            .expect("plan the stream");
        let explain_cold_s = t0.elapsed().as_secs_f64();
        let warm = tracer
            .span("warmup", parent, 0, |_| session.run(&query.clone().take(8)))
            .expect("warm-up query");
        assert_eq!(
            warm.images,
            8 * GOP_LEN,
            "warm-up decodes every frame of 8 GOPs"
        );
        Env {
            session,
            query,
            explanation,
            register_s,
            explain_cold_s,
            stream_stats: Mutex::default(),
            late_ms: Mutex::default(),
            run_stream_us: Mutex::default(),
        }
    }

    fn plan_labels(env: &Env) -> Vec<String> {
        let ladder = env
            .session
            .stream_ladder(&env.query)
            .expect("stream ladder");
        ladder
            .rungs
            .iter()
            .enumerate()
            .map(|(i, rung)| format!("rung {i}: {}", plan_label(&rung.plan)))
            .collect()
    }

    fn slice(
        env: &Env,
        inputs: &Inputs,
        index: usize,
        tracer: &Tracer,
        parent: SpanId,
    ) -> SliceWork {
        let feed = Feed {
            offset: index * GOPS_PER_SLICE,
            n: GOPS_PER_SLICE,
            full_digest: false,
            swapped: None,
            request: index as u64,
        };
        let run = stream(env, inputs, feed, tracer, parent);
        // GOP latency: due time → callback of its last frame. A GOP with a
        // frame that never came back has no latency and counts as failed.
        let mut latencies_ms = Vec::with_capacity(GOPS_PER_SLICE);
        let mut done_frames = 0u64;
        for (i, frames) in run.done_ns.chunks(GOP_LEN).enumerate() {
            done_frames += frames.iter().filter(|&&ns| ns > 0).count() as u64;
            if frames.iter().all(|&ns| ns > 0) {
                let last = *frames.iter().max().expect("GOP_LEN > 0") as f64 / 1e6;
                latencies_ms.push(last - due(i).as_secs_f64() * 1e3);
            }
        }
        let offered = (GOPS_PER_SLICE * GOP_LEN) as u64;
        env.late_ms
            .lock()
            .expect("lateness lock")
            .extend(run.late_ms);
        env.stream_stats.lock().expect("stats lock").push(run.stats);
        SliceWork {
            outputs: done_frames,
            failed: offered - done_frames,
            latencies_ms,
        }
    }

    fn verify(env: &Env, inputs: &Inputs, corrupt_one: bool) -> Verdict {
        let gops = &inputs.gops;
        let fps = inputs.corpus.fps;
        // Reference: every GOP decoded single-threaded, every frame's value
        // pushed through a WindowRollup of the stream's window length.
        let values: Vec<Vec<f64>> = gops
            .iter()
            .map(|gop| {
                let (decoded, _) = gop
                    .decode_selected(FrameSelection::All, DecodeOptions { deblock: true })
                    .expect("reference GOP decode");
                decoded
                    .iter()
                    .map(|f| frame_value(&f.image, true))
                    .collect()
            })
            .collect();
        // `--self-check` substitutes a GOP whose frames sum to something
        // else: consecutive GOPs of an empty road can be pixel-identical.
        let victim = VERIFY_GOPS / 2;
        let sum = |i: usize| values[i].iter().sum::<f64>();
        let swapped = corrupt_one.then(|| {
            let other = (0..gops.len())
                .find(|&j| sum(j) != sum(victim))
                .expect("a corpus of 120 GOPs has two that differ");
            (victim, other)
        });
        let feed = Feed {
            offset: 0,
            n: VERIFY_GOPS,
            full_digest: true,
            swapped,
            request: 0,
        };
        let run = stream(env, inputs, feed, &Tracer::new(), SpanId::NONE);
        let fpw = ((WINDOW_S * fps).round() as usize).max(1);
        let mut reference = WindowRollup::new(fpw);
        let mut frames = 0usize;
        for (i, gop_values) in values.iter().take(VERIFY_GOPS).enumerate() {
            for (k, &value) in gop_values.iter().enumerate() {
                reference.push(i * GOP_LEN + k, value);
                frames += 1;
            }
        }
        let expected = reference.drain_until(frames.div_ceil(fpw));
        let windows_ok = expected.len() == run.windows.len()
            && expected
                .iter()
                .zip(&run.windows)
                .all(|(e, w)| e.index == w.index && e.samples == w.samples && e.mean == w.mean);
        let wrong_frames: usize = expected
            .iter()
            .zip(&run.windows)
            .filter(|(e, w)| e.samples != w.samples || e.mean != w.mean)
            .map(|(e, _)| e.samples)
            .sum();
        let offered = VERIFY_GOPS * GOP_LEN;
        let missing = offered - run.stats.frames_decoded.min(offered);

        let timed = env.stream_stats.lock().expect("stats lock");
        let mut verdict = Verdict {
            attempted: offered as u64,
            failed: (missing + wrong_frames).min(offered) as u64,
            ..Verdict::default()
        };
        verdict.check(
            format!(
                "frames decoded {} == frames offered {offered}",
                run.stats.frames_decoded
            ),
            run.stats.frames_decoded == offered && run.stats.frames_total == offered,
        );
        verdict.check(
            format!(
                "{} window means equal a reference WindowRollup over a single-threaded decode",
                expected.len()
            ),
            windows_ok,
        );
        verdict.check(
            "timed slices: every offered frame decoded, none dropped or downgraded",
            timed.iter().all(|s| {
                s.frames_decoded == s.frames_total
                    && s.gops_dropped == 0
                    && s.gops_downgraded == 0
                    && s.floor_violations == 0
            }),
        );
        verdict
    }

    fn layer_stats(env: &Env, _: &Inputs, out: &mut LayerMetrics) {
        let runs = env.stream_stats.lock().expect("stats lock");
        let col = |f: fn(&StreamStats) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
        out.set("stream.lag_p50_ms", col(|s| s.lag_p50_s * 1e3));
        out.set(
            "stream.output_lag_p95_ms",
            col(|s| s.output_lag_p95_s * 1e3),
        );
        out.set("stream.coverage", col(|s| s.window_coverage));
        out.set(
            "stream.max_rung",
            runs.iter().map(|s| s.max_rung).max().unwrap_or(0) as f64,
        );
        out.set(
            "stream.gops_dropped",
            runs.iter().map(|s| s.gops_dropped).sum::<usize>() as f64,
        );
        out.set(
            "stream.generator_late_p95_ms",
            percentile(&env.late_ms.lock().expect("lateness lock"), 0.95),
        );
        let stats = env.session.stats();
        out.set("runtime.cache_hit_share", stats.tensor_cache.hit_rate());
        out.set(
            "runtime.cache_evictions",
            stats.tensor_cache.evictions as f64,
        );
        out.set("serve.register_s", env.register_s);
        out.set("serve.explain_cold_s", env.explain_cold_s);
        // Per-GOP admission happens inside run_stream; what the driver sees
        // is the call that starts a stream (ladder lookup + thread spawn).
        out.set(
            "serve.submit_us",
            median(&env.run_stream_us.lock().expect("timing lock")),
        );
        session_metrics(&env.session, &env.query, out);
    }

    fn replay(env: &Env, inputs: &Inputs, tracer: &Tracer, out: &mut LayerMetrics) -> f64 {
        let plan = &env.explanation.chosen.plan;
        let replayed =
            replay::replay_gops(tracer, out, plan, &inputs.gops, &device(GpuModel::T4, 1.0));
        let media: Vec<MediaItem> = inputs.gops.iter().cloned().map(MediaItem::Gop).collect();
        let config = session_config(0, DNN_INPUT);
        replay::time_profile(out, plan, &media, config.server.runtime);
        let corpus = &inputs.corpus;
        let specs = vec![CandidateSpec {
            dnn: MODEL,
            input: InputVariant::new(
                corpus.name.clone(),
                corpus.format(),
                corpus.width,
                corpus.height,
            )
            .video(corpus.gop_len),
            accuracy: FLOOR + 0.01,
            preproc_throughput: env.explanation.chosen.preproc_throughput,
            reduced_accuracy: None,
            cascade: None,
            video: Some(VideoFidelity {
                keyframe_accuracy: Some(FLOOR - 0.10),
                deblock_skip_accuracy: Some(FLOOR - 0.05),
            }),
            storage: None,
            routing: Vec::new(),
        }];
        replay::time_shared_structures(out, plan, &specs, &Planner::new(config.planner));
        replayed
    }

    fn teardown(env: Env) {
        // Every stream driver has been joined, so this is the last handle.
        if let Ok(session) = Arc::try_unwrap(env.session) {
            session.shutdown();
        }
    }
}
