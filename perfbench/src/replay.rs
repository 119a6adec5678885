//! Layer replay for traced runs: a seeded sample of a workload's items is
//! pushed single-threaded through the public stage functions in pipeline
//! order, with nested spans, plus direct timing loops on the small shared
//! structures. Every phase is bracketed by its own probe readings and runs
//! beside ballast on the other cores (see `Bracket`); its time-valued
//! results are reported at reference speed; counts are exact.
//!
//! Everything here calls the repository's public API from outside: no span
//! lives inside the program under test.

use crate::harness::producers;
use crate::layers::LayerMetrics;
use crate::os::thread_cpu_s;
use crate::probe::{self, Reading};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use smol::accel::VirtualDevice;
use smol::analytics::WindowRollup;
use smol::codec::{dct, sjpg, EncodedImage, Format};
use smol::core::{CandidateSpec, DecodeMode, FrameSelection, Planner, QueryPlan};
use smol::imgproc::ops::fused::fused_convert_normalize_split_into;
use smol::imgproc::ops::{center_crop_u8, resize_bilinear_u8, resize_short_edge_u8};
use smol::imgproc::{ImageU8, OpSpec, Placement, Rect};
use smol::runtime::{
    decode_item, execute_device_batch, produce_media_item, route_stage, BufferPool, MediaItem,
    PlanContext, Profiler, RuntimeOptions, TensorCache,
};
use smol::serve::BatchFormer;
use smol::video::{DecodeOptions as VideoDecodeOptions, EncodedGop};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Item replays per path: the sample is cycled until at least this many.
pub const MIN_REPLAYS: usize = 64;

fn us(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// Host conditions around one replay phase. The replay is single-threaded,
/// but on this sandbox one busy core runs faster, and far less steadily,
/// than two: while a phase runs, the other cores spin the probe kernel as
/// ballast, so the phase sees what a producer thread of a busy server sees,
/// and the probe readings that bracket it are taken on all cores.
struct Bracket {
    before: Reading,
    stop: Arc<AtomicBool>,
    ballast: Vec<std::thread::JoinHandle<()>>,
}

impl Bracket {
    /// Opens a bracket around a phase that keeps `busy` threads busy itself.
    fn open(busy: usize) -> Self {
        let cores = producers();
        let before = probe::measure(cores);
        let stop = Arc::new(AtomicBool::new(false));
        let ballast = (busy..cores)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // Relaxed: the flag publishes nothing but itself.
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::black_box(probe::kernel());
                    }
                })
            })
            .collect();
        Bracket {
            before,
            stop,
            ballast,
        }
    }

    fn close(self) -> Reading {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.ballast {
            thread.join().expect("ballast thread panicked");
        }
        Reading::between(self.before, probe::measure(producers()))
    }
}

/// Median of `samples` scaled to reference speed.
fn norm(samples: &[f64], speed: Reading) -> f64 {
    median(samples) * speed.cpu_speed()
}

/// Times `body` over `iters` calls; nanoseconds per call at reference speed.
fn loop_ns(iters: usize, mut body: impl FnMut(usize)) -> f64 {
    let bracket = Bracket::open(1);
    let t0 = Instant::now();
    for i in 0..iters {
        body(i);
    }
    let ns = t0.elapsed().as_secs_f64() * 1e9 / iters as f64;
    ns * bracket.close().cpu_speed()
}

/// The decode entry point a plan's mode resolves to, called directly on the
/// codec (no runtime wrapper), with its exact work counters when the codec
/// reports them.
fn codec_entry(enc: &EncodedImage, mode: DecodeMode) -> Option<sjpg::DecodeStats> {
    match (enc.format, mode) {
        (Format::Sjpg { .. }, DecodeMode::CentralRoi { crop_w, crop_h }) => {
            let roi = Rect::centered(enc.width, enc.height, crop_w.max(1), crop_h.max(1));
            let (img, _, stats) = sjpg::decode_roi(&enc.bytes, roi).expect("replay decode_roi");
            std::hint::black_box(img);
            Some(stats)
        }
        (Format::Sjpg { .. }, DecodeMode::ReducedResolution { factor }) => {
            let (img, stats) =
                sjpg::decode_scaled(&enc.bytes, factor as usize).expect("replay decode_scaled");
            std::hint::black_box(img);
            Some(stats)
        }
        (Format::Sjpg { .. }, _) => {
            let (img, stats) = sjpg::decode_with_stats(&enc.bytes).expect("replay decode");
            std::hint::black_box(img);
            Some(stats)
        }
        _ => {
            std::hint::black_box(enc.decode().expect("replay decode"));
            None
        }
    }
}

fn codec_metric(format: Format, mode: DecodeMode) -> &'static str {
    match (format, mode) {
        (Format::Sjpg { .. }, DecodeMode::CentralRoi { .. }) => "codec.sjpg_roi_us",
        (Format::Sjpg { .. }, DecodeMode::ReducedResolution { .. }) => "codec.sjpg_scaled_us",
        (Format::Sjpg { .. }, _) => "codec.sjpg_full_us",
        _ => "codec.spng_us",
    }
}

/// The CPU-placed operators of a plan context, executed one by one as the
/// producer stage does, with geometric ops under `imgproc.resize` and the
/// fused elementwise tail under `imgproc.normalize`. Returns the two
/// durations in µs.
fn run_prefix(
    ctx: &PlanContext,
    decoded: &ImageU8,
    buf: &mut [f32],
    tracer: &Tracer,
    parent: SpanId,
    request: u64,
) -> (f64, f64) {
    let mut owned: Option<ImageU8> = None;
    let (mut resize_us, mut normalize_us) = (0.0, 0.0);
    for op in ctx
        .preproc
        .ops
        .iter()
        .take_while(|o| o.placement != Placement::Accel)
    {
        let cur = owned.as_ref().unwrap_or(decoded);
        let t0 = Instant::now();
        match &op.spec {
            OpSpec::ResizeShortEdge { short } => {
                owned = Some(tracer.span("imgproc.resize", parent, request, |_| {
                    resize_short_edge_u8(cur, *short as usize).expect("replay resize")
                }));
                resize_us += us(t0);
            }
            OpSpec::ResizeExact { w, h } => {
                owned = Some(tracer.span("imgproc.resize", parent, request, |_| {
                    resize_bilinear_u8(cur, *w as usize, *h as usize).expect("replay resize")
                }));
                resize_us += us(t0);
            }
            OpSpec::CenterCrop { w, h } => {
                owned = Some(tracer.span("imgproc.resize", parent, request, |_| {
                    center_crop_u8(cur, *w as usize, *h as usize).expect("replay crop")
                }));
                resize_us += us(t0);
            }
            OpSpec::FusedCropResize { short, w, h } => {
                owned = Some(tracer.span("imgproc.resize", parent, request, |_| {
                    let scale = cur.short_edge() as f64 / (*short as f64).max(1.0);
                    let cw = ((*w as f64 * scale).round() as usize).clamp(1, cur.width());
                    let ch = ((*h as f64 * scale).round() as usize).clamp(1, cur.height());
                    let cropped = center_crop_u8(cur, cw, ch).expect("replay crop");
                    resize_bilinear_u8(&cropped, *w as usize, *h as usize).expect("replay resize")
                }));
                resize_us += us(t0);
            }
            OpSpec::ConvertF32 | OpSpec::Normalize | OpSpec::ChannelSplit | OpSpec::Fused(_) => {
                let n = cur.width() * cur.height() * 3;
                tracer.span("imgproc.normalize", parent, request, |_| {
                    fused_convert_normalize_split_into(cur, &ctx.norm, &mut buf[..n])
                        .expect("replay normalize")
                });
                normalize_us += us(t0);
                break;
            }
        }
    }
    (resize_us, normalize_us)
}

/// How the still replay treats the decoded-tensor cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePath {
    /// No cache: every item decodes (`tensor_cache_bytes: 0`).
    Disabled,
    /// A cache large enough for the sample, filled by a first pass: the
    /// measured pass hits on every item.
    Hot,
}

/// Replays `items` through one plan (or a cascade's two rungs) in pipeline
/// order with nested spans, and records the stage metrics it measures.
/// Returns the thread CPU µs per item of the producer stage (routing
/// included) at reference speed: the replayed half of
/// `serve.overhead_us_per_item`.
#[allow(clippy::too_many_arguments)]
pub fn replay_stills(
    tracer: &Tracer,
    out: &mut LayerMetrics,
    plan: &QueryPlan,
    cascade: Option<(&QueryPlan, f64)>,
    items: &[EncodedImage],
    cache_path: CachePath,
    device: &VirtualDevice,
) -> f64 {
    let full_ctx = PlanContext::new(plan);
    let stage1_ctx = cascade.map(|(p, _)| PlanContext::new(p));
    let pool = BufferPool::new(full_ctx.batch + 4, full_ctx.buf_len, true, true);
    let mut scratch = vec![0.0f32; full_ctx.buf_len];
    let media: Vec<MediaItem> = items.iter().cloned().map(MediaItem::Image).collect();
    let cache = (cache_path == CachePath::Hot).then(|| TensorCache::new(1 << 30));
    if let Some(cache) = &cache {
        for (i, item) in media.iter().enumerate() {
            produce_media_item(&full_ctx, i, item, &pool, false, 0.0, Some(cache))
                .expect("cache fill");
        }
    }
    let bracket = Bracket::open(1);
    let root = tracer.begin(
        match cache_path {
            CachePath::Disabled => "replay.uncached",
            CachePath::Hot => "replay.hit",
        },
        SpanId::NONE,
        0,
    );
    let (mut route_us, mut decode_us, mut entry_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut resize_us, mut normalize_us, mut produce_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut produce_cpu, mut replays) = (0.0, 0usize);
    let mut stats_sum = sjpg::DecodeStats::default();
    let mut stats_items = 0u64;
    let mut staged = Vec::new();
    let mut exec_ms = Vec::new();
    while replays < MIN_REPLAYS {
        for (i, (enc, item)) in items.iter().zip(&media).enumerate() {
            let request = replays as u64;
            let span = tracer.begin("replay.item", root, request);
            let c0 = thread_cpu_s();
            let ctx = match (&stage1_ctx, cascade) {
                (Some(s1), Some((_, threshold))) => {
                    let t0 = Instant::now();
                    let stage = tracer.span("runtime.route_stage", span, request, |_| {
                        route_stage(item, threshold)
                    });
                    route_us.push(us(t0));
                    if stage == 0 {
                        s1
                    } else {
                        &full_ctx
                    }
                }
                _ => &full_ctx,
            };
            let c_route = thread_cpu_s() - c0;
            // The stages one by one: cache lookup around the runtime's
            // decode wrapper, the codec entry point alone, then each op.
            let t0 = Instant::now();
            let decoded: Arc<ImageU8> = match &cache {
                Some(cache) => {
                    tracer
                        .span("cache.get_or_decode", span, request, |inner| {
                            cache.get_or_decode(enc.fingerprint(), ctx.decode, || {
                                tracer.span("runtime.decode_item", inner, request, |_| {
                                    decode_item(enc, ctx.decode)
                                })
                            })
                        })
                        .expect("replay decode")
                        .0
                }
                None => Arc::new(
                    tracer
                        .span("runtime.decode_item", span, request, |_| {
                            decode_item(enc, ctx.decode)
                        })
                        .expect("replay decode"),
                ),
            };
            decode_us.push(us(t0));
            if cache.is_none() {
                let t0 = Instant::now();
                let stats =
                    tracer.span(codec_metric(enc.format, ctx.decode), span, request, |_| {
                        codec_entry(enc, ctx.decode)
                    });
                entry_us.push(us(t0));
                if let (Some(s), true) = (stats, replays < items.len()) {
                    stats_sum.symbols_decoded += s.symbols_decoded;
                    stats_sum.idct_macs += s.idct_macs;
                    stats_sum.pixels_written += s.pixels_written;
                    stats_items += 1;
                }
            }
            let (r, n) = run_prefix(ctx, &decoded, &mut scratch, tracer, span, request);
            resize_us.push(r);
            normalize_us.push(n);
            // The whole producer stage as the server calls it.
            let (t0, c1) = (Instant::now(), thread_cpu_s());
            let produced = tracer
                .span("runtime.produce_media_item", span, request, |_| {
                    produce_media_item(ctx, i, item, &pool, false, 0.0, cache.as_ref())
                })
                .expect("replay produce");
            produce_us.push(us(t0));
            produce_cpu += thread_cpu_s() - c1 + c_route;
            staged.extend(produced);
            tracer.end(span);
            replays += 1;
            if staged.len() >= full_ctx.batch {
                exec_ms.push(execute_batch(tracer, root, device, &full_ctx, &mut staged));
            }
        }
    }
    if !staged.is_empty() {
        execute_batch(tracer, root, device, &full_ctx, &mut staged);
    }
    tracer.end(root);
    let speed = bracket.close();

    if !route_us.is_empty() {
        out.set("runtime.route_us", norm(&route_us, speed));
    }
    out.set("imgproc.resize_us", norm(&resize_us, speed));
    out.set("imgproc.normalize_us", norm(&normalize_us, speed));
    if !exec_ms.is_empty() {
        // Simulated device time: a sleep, reported as measured.
        out.set("runtime.exec_batch_ms", median(&exec_ms));
    }
    match cache_path {
        CachePath::Disabled => {
            out.set(
                codec_metric(items[0].format, full_ctx.decode),
                norm(&entry_us, speed),
            );
            out.set(
                "runtime.produce_uncached_self_us",
                (median(&produce_us)
                    - median(&decode_us)
                    - median(&resize_us)
                    - median(&normalize_us))
                    * speed.cpu_speed(),
            );
            if stats_items > 0 {
                let per = |v: u64| v as f64 / stats_items as f64;
                out.set("codec.symbols_per_item", per(stats_sum.symbols_decoded));
                out.set("codec.idct_macs_per_item", per(stats_sum.idct_macs));
                out.set("codec.pixels_per_item", per(stats_sum.pixels_written));
            }
        }
        CachePath::Hot => out.set("runtime.produce_hit_us", norm(&produce_us, speed)),
    }
    out.set(
        "codec.encoded_bytes_per_item",
        items.iter().map(|i| i.size_bytes() as f64).sum::<f64>() / items.len() as f64,
    );
    produce_cpu * 1e6 / replays as f64 * speed.cpu_speed()
}

/// Runs the consumer stage on the staged items and drops them (buffers
/// return to the pool). Returns the batch's wall time in ms.
fn execute_batch(
    tracer: &Tracer,
    parent: SpanId,
    device: &VirtualDevice,
    ctx: &PlanContext,
    staged: &mut Vec<smol::runtime::ProducedItem>,
) -> f64 {
    let spec = ctx.batch_spec(&RuntimeOptions::default());
    let bytes: usize = staged.iter().map(|p| p.transfer_bytes).sum();
    let ops: f64 = staged.iter().map(|p| p.accel_ops).sum();
    let t0 = Instant::now();
    tracer.span("runtime.execute_device_batch", parent, 0, |_| {
        execute_device_batch(device, &spec, staged.len(), bytes, ops)
    });
    staged.clear();
    t0.elapsed().as_secs_f64() * 1e3
}

/// Per-item decode time of one codec mode over `items`, µs at reference
/// speed, under a span named after the metric.
pub fn time_codec_mode(
    tracer: &Tracer,
    out: &mut LayerMetrics,
    items: &[EncodedImage],
    mode: DecodeMode,
) {
    let name = codec_metric(items[0].format, mode);
    let bracket = Bracket::open(1);
    let samples: Vec<f64> = items
        .iter()
        .enumerate()
        .map(|(i, enc)| {
            let t0 = Instant::now();
            tracer.span(name, SpanId::NONE, i as u64, |_| codec_entry(enc, mode));
            us(t0)
        })
        .collect();
    out.set(name, norm(&samples, bracket.close()));
}

/// The sjpg entry points a stills plan did not itself pick — full decode,
/// a reduced-resolution decode, and the decode-free difficulty scan — so
/// that entropy decode can be told apart from IDCT + colour conversion.
pub fn time_sjpg_modes(
    tracer: &Tracer,
    out: &mut LayerMetrics,
    items: &[EncodedImage],
    served: DecodeMode,
) {
    for mode in [
        DecodeMode::Full,
        DecodeMode::ReducedResolution { factor: 4 },
    ] {
        if codec_metric(items[0].format, mode) != codec_metric(items[0].format, served) {
            time_codec_mode(tracer, out, items, mode);
        }
    }
    time_signal(tracer, out, items);
}

/// The decode-free difficulty scan, µs per item at reference speed.
fn time_signal(tracer: &Tracer, out: &mut LayerMetrics, items: &[EncodedImage]) {
    let bracket = Bracket::open(1);
    let samples: Vec<f64> = items
        .iter()
        .enumerate()
        .map(|(i, enc)| {
            let t0 = Instant::now();
            tracer.span("codec.signal_us", SpanId::NONE, i as u64, |_| {
                std::hint::black_box(smol::codec::signal::image_signal(enc))
            });
            us(t0)
        })
        .collect();
    out.set("codec.signal_us", norm(&samples, bracket.close()));
}

/// The miss path of the producer stage (empty cache: decode + fill), and the
/// cache's own fill-and-evict cost with the decode taken out: a cache that
/// holds exactly one tensor evicts on every insert.
pub fn time_cache_miss_paths(out: &mut LayerMetrics, plan: &QueryPlan, items: &[EncodedImage]) {
    let ctx = PlanContext::new(plan);
    let pool = BufferPool::new(ctx.batch + 4, ctx.buf_len, true, true);
    let cold = TensorCache::new(1 << 30);
    let bracket = Bracket::open(1);
    let miss_us: Vec<f64> = items
        .iter()
        .enumerate()
        .map(|(i, enc)| {
            let t0 = Instant::now();
            let item = MediaItem::Image(enc.clone());
            std::hint::black_box(
                produce_media_item(&ctx, i, &item, &pool, false, 0.0, Some(&cold))
                    .expect("replay miss"),
            );
            us(t0)
        })
        .collect();
    out.set("runtime.produce_miss_us", norm(&miss_us, bracket.close()));

    let decoded: Vec<ImageU8> = items
        .iter()
        .map(|enc| decode_item(enc, ctx.decode).expect("replay decode"))
        .collect();
    let one = decoded.iter().map(|d| d.data().len()).max().unwrap_or(1);
    let tiny = TensorCache::new(one);
    let bracket = Bracket::open(1);
    let fill_us: Vec<f64> = decoded
        .iter()
        .enumerate()
        .map(|(i, img)| {
            let mut inner = 0.0;
            let t0 = Instant::now();
            tiny.get_or_decode(i as u64, ctx.decode, || {
                let c0 = Instant::now();
                let copy = img.clone();
                inner = us(c0);
                Ok::<_, std::convert::Infallible>(copy)
            })
            .expect("infallible");
            us(t0) - inner
        })
        .collect();
    out.set(
        "runtime.cache_fill_evict_us",
        norm(&fill_us, bracket.close()),
    );
}

/// GOP replay: the three decode rungs called directly on `smol_video`, then
/// each GOP through the producer and consumer stages of `plan`. Returns the
/// producer stage's thread CPU µs per output frame at reference speed.
pub fn replay_gops(
    tracer: &Tracer,
    out: &mut LayerMetrics,
    plan: &QueryPlan,
    gops: &[EncodedGop],
    device: &VirtualDevice,
) -> f64 {
    let rungs = [
        ("video.gop_all_us", FrameSelection::All, true),
        ("video.gop_nodeblock_us", FrameSelection::All, false),
        ("video.gop_keyframes_us", FrameSelection::Keyframes, true),
    ];
    let sample = &gops[..gops.len().min(MIN_REPLAYS)];
    for (name, selection, deblock) in rungs {
        let bracket = Bracket::open(1);
        let mut samples = Vec::with_capacity(sample.len());
        let (mut mc, mut frames) = (0u64, 0u64);
        for (i, gop) in sample.iter().enumerate() {
            let t0 = Instant::now();
            let (decoded, stats) = tracer
                .span(name, SpanId::NONE, i as u64, |_| {
                    gop.decode_selected(selection, VideoDecodeOptions { deblock })
                })
                .expect("replay GOP decode");
            samples.push(us(t0));
            std::hint::black_box(decoded);
            mc += stats.mc_macroblocks;
            frames += stats.frames_decoded;
        }
        out.set(name, norm(&samples, bracket.close()));
        if name == "video.gop_all_us" {
            out.set("video.mc_blocks_per_gop", mc as f64 / sample.len() as f64);
            out.set("video.frames_decoded", frames as f64);
        }
    }

    let ctx = PlanContext::new(plan);
    let fanout = sample.iter().map(EncodedGop::n_frames).max().unwrap_or(1);
    let pool = BufferPool::new(ctx.batch + 2 * fanout, ctx.buf_len, true, true);
    let bracket = Bracket::open(1);
    let root = tracer.begin("replay.uncached", SpanId::NONE, 0);
    let (mut produce_cpu, mut outputs, mut base) = (0.0, 0usize, 0usize);
    let mut staged = Vec::new();
    let mut exec_ms = Vec::new();
    for (i, gop) in sample.iter().enumerate() {
        let item = MediaItem::Gop(gop.clone());
        let span = tracer.begin("replay.item", root, i as u64);
        let c0 = thread_cpu_s();
        let produced = tracer
            .span("runtime.produce_media_item", span, i as u64, |_| {
                produce_media_item(&ctx, base, &item, &pool, true, 0.0, None)
            })
            .expect("replay produce GOP");
        produce_cpu += thread_cpu_s() - c0;
        tracer.end(span);
        base += produced.len();
        outputs += produced.len();
        staged.extend(produced);
        // One GOP per query in the stream: its frames are one device batch.
        exec_ms.push(execute_batch(tracer, root, device, &ctx, &mut staged));
    }
    tracer.end(root);
    out.set("runtime.exec_batch_ms", median(&exec_ms));
    produce_cpu * 1e6 / outputs.max(1) as f64 * bracket.close().cpu_speed()
}

/// Direct timing loops on the small structures every query touches. They do
/// not depend on the workload's items, only (for the pool) on its tensor
/// size.
pub fn time_shared_structures(
    out: &mut LayerMetrics,
    plan: &QueryPlan,
    specs: &[CandidateSpec],
    planner: &Planner,
) {
    let ctx = PlanContext::new(plan);

    let sig = Arc::new(plan.placement_signature());
    let mut former: BatchFormer<usize> = BatchFormer::new();
    out.set(
        "serve.former_push_ns",
        loop_ns(200_000, |i| {
            std::hint::black_box(former.push(&sig, i));
        }),
    );

    let pool = BufferPool::new(8, ctx.buf_len, true, true);
    out.set(
        "runtime.pool_acquire_ns",
        loop_ns(100_000, |_| {
            std::hint::black_box(pool.acquire());
        }),
    );

    let cache = TensorCache::new(1 << 20);
    let tiny = || Ok::<_, std::convert::Infallible>(ImageU8::zeros(8, 8, 3));
    cache
        .get_or_decode(7, DecodeMode::Full, tiny)
        .expect("infallible");
    out.set(
        "runtime.cache_hit_ns",
        loop_ns(200_000, |_| {
            std::hint::black_box(cache.get_or_decode(7, DecodeMode::Full, tiny).expect("hit"));
        }),
    );

    let mut rollup = WindowRollup::new(30);
    out.set(
        "analytics.window_push_ns",
        loop_ns(1_000_000, |i| rollup.push(i, (i & 7) as f64)),
    );
    std::hint::black_box(rollup.drain_until(1_000_000 / 30));

    let mut block = [0.0f32; dct::BLOCK * dct::BLOCK];
    for (i, c) in block.iter_mut().enumerate() {
        *c = ((i * 37 % 23) as f32 - 11.0) * 3.0;
    }
    let mut pixels = [0.0f32; dct::BLOCK * dct::BLOCK];
    out.set(
        "codec.idct_ns_per_block",
        loop_ns(200_000, |i| {
            block[0] = i as f32;
            dct::inverse_dct_vec_masked(&block, 0xff, &mut pixels);
            std::hint::black_box(&pixels);
        }),
    );

    let mut candidates = 0;
    out.set(
        "core.enumerate_us",
        loop_ns(2_000, |_| {
            candidates = std::hint::black_box(planner.enumerate(specs)).len();
        }) / 1e3,
    );
    out.set("core.candidates", candidates as f64);
}

/// One profiling call as `Session::explain` makes it on a cold plan cache:
/// the chosen variant's sample through the pipelined harness.
pub fn time_profile(
    out: &mut LayerMetrics,
    plan: &QueryPlan,
    items: &[MediaItem],
    runtime: RuntimeOptions,
) {
    let profiler = Profiler::new(runtime).with_sample(64);
    let bracket = Bracket::open(runtime.effective_producers());
    let t0 = Instant::now();
    std::hint::black_box(profiler.media_throughput(items, plan));
    let profile_s = t0.elapsed().as_secs_f64();
    out.set("runtime.profile_s", profile_s * bracket.close().cpu_speed());
}
