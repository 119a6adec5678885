//! Profiling helpers that produce the numbers the cost models consume
//! (§3.1: Smol "estimates the relative costs of preprocessing and DNN
//! execution"; §4: `T_exec` "can be directly measured using synthetic
//! data").

use crate::bufferpool::BufferPool;
use crate::media::{wrap_images, MediaItem, OutputLayout};
use crate::pipeline::{decode_item, produce_media_item, PlanContext, Result, RuntimeOptions};
use smol_accel::{ModelKind, VirtualDevice};
use smol_codec::EncodedImage;
use smol_core::{DecodeMode, QueryPlan};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// Reusable profiling front-end over the free measurement functions below:
/// one `RuntimeOptions` for every measurement, an optional per-measurement
/// sample cap, and an invocation counter.
///
/// The counter is the point: callers that *cache* profiled numbers (the
/// serve-layer `Session` plan cache, bench harnesses) can assert whether a
/// request actually re-ran a measurement or was served from cache — see
/// `tests/session_api.rs`.
#[derive(Debug)]
pub struct Profiler {
    opts: RuntimeOptions,
    sample: usize,
    calls: AtomicUsize,
}

impl Profiler {
    /// A profiler running the producer stage under `opts`, with no sample
    /// cap.
    pub fn new(opts: RuntimeOptions) -> Self {
        Profiler {
            opts,
            sample: usize::MAX,
            calls: AtomicUsize::new(0),
        }
    }

    /// Caps every measurement at the first `sample` items (0 means
    /// uncapped). Profiling feeds a *relative* cost comparison, so a
    /// bounded prefix is usually enough and keeps first-use planning cheap.
    pub fn with_sample(mut self, sample: usize) -> Self {
        self.sample = if sample == 0 { usize::MAX } else { sample };
        self
    }

    /// How many measurements this profiler has run (monotonic).
    pub fn calls(&self) -> usize {
        self.calls.load(Ordering::Acquire)
    }

    fn take<'a>(&self, items: &'a [EncodedImage]) -> &'a [EncodedImage] {
        &items[..items.len().min(self.sample)]
    }

    /// Decode+preprocess throughput of `plan` over (a sample of) `items` —
    /// [`measure_preproc_throughput`] with counting.
    pub fn preproc_throughput(&self, items: &[EncodedImage], plan: &QueryPlan) -> f64 {
        self.calls.fetch_add(1, Ordering::AcqRel);
        measure_preproc_throughput(self.take(items), plan, &self.opts)
    }

    /// [`Profiler::preproc_throughput`] over mixed media items (stills
    /// and/or GOPs): frames-per-second through the producer stage, decoded
    /// exactly as the plan prescribes (frame selection, deblock knob). The
    /// sample cap counts *items* (GOPs), matching the claim granularity of
    /// the serving scheduler.
    pub fn media_throughput(&self, items: &[MediaItem], plan: &QueryPlan) -> f64 {
        self.calls.fetch_add(1, Ordering::AcqRel);
        let take = &items[..items.len().min(self.sample)];
        measure_media_preproc_throughput(take, plan, &self.opts)
    }

    /// Decode-only throughput under `mode` — [`measure_decode_throughput`]
    /// with counting, using the profiler's producer count.
    pub fn decode_throughput(&self, items: &[EncodedImage], mode: DecodeMode) -> f64 {
        self.calls.fetch_add(1, Ordering::AcqRel);
        measure_decode_throughput(self.take(items), mode, self.opts.effective_producers())
    }
}

/// The one timing loop: `threads` scoped threads claim item indices from a
/// shared cursor and run `work` on each, with a per-thread `state`, until
/// the items run out or one fails. Returns `(outputs, wall_s)` — the sum of
/// what `work` returned and the seconds the sweep took — with `outputs`
/// zero when any item failed: a rate over a corpus that does not decode
/// would be the rate of something else.
fn sweep<S>(
    n_items: usize,
    threads: usize,
    state: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize) -> Result<usize> + Sync,
) -> (usize, f64) {
    // Relaxed throughout: a cursor, a stop flag and a sum that publish no
    // other data; the scope's join orders the reads below after the threads.
    let next = AtomicUsize::new(0);
    let outputs = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                let mut state = state();
                let mut done = 0;
                while !failed.load(Ordering::Relaxed) {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= n_items {
                        break;
                    }
                    match work(&mut state, idx) {
                        Ok(n) => done += n,
                        Err(_) => failed.store(true, Ordering::Relaxed),
                    }
                }
                outputs.fetch_add(done, Ordering::Relaxed);
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    if failed.into_inner() {
        (0, wall_s)
    } else {
        (outputs.into_inner(), wall_s)
    }
}

fn rate((outputs, wall_s): (usize, f64)) -> f64 {
    if outputs == 0 {
        0.0
    } else {
        outputs as f64 / wall_s
    }
}

/// Measured decode-only throughput (no post-decode preprocessing) under a
/// given decode mode — a plan with reduced-resolution or ROI decoding is
/// profiled at the decode work it actually performs, not at a full decode.
/// 0.0 when an item fails to decode.
pub fn measure_decode_throughput(items: &[EncodedImage], mode: DecodeMode, threads: usize) -> f64 {
    rate(sweep(
        items.len(),
        threads,
        || (),
        |_, idx| {
            let img = decode_item(&items[idx], mode)?;
            std::hint::black_box(img.data().len());
            Ok(1)
        },
    ))
}

/// Preprocessing throughput of `plan`: the preprocessing-only column of
/// Table 3, in images per second.
pub fn measure_preproc_throughput(
    items: &[EncodedImage],
    plan: &QueryPlan,
    opts: &RuntimeOptions,
) -> f64 {
    measure_media_preproc_throughput(&wrap_images(items), plan, opts)
}

/// [`measure_preproc_throughput`] over mixed media items; the rate is in
/// device-side outputs per second (frames, for GOP items). 0.0 when the
/// plan cannot be executed ([`PlanContext::validate`]) or an item fails.
pub fn measure_media_preproc_throughput(
    items: &[MediaItem],
    plan: &QueryPlan,
    opts: &RuntimeOptions,
) -> f64 {
    rate(profile_producer_stage(items, plan, opts))
}

/// Runs the serving engine's producer stage on its own — the §4 profile of
/// `T_preproc`: `effective_producers()` threads over one cursor, each
/// calling [`produce_media_item`] against the pool type, sizing and
/// `memory_reuse` / `pinned` / `extra_cpu_s_per_image` knobs a server's
/// producers run under, with no cache, no batch former and no device.
/// Returns `(outputs, wall_s)`.
///
/// The paper's footnote 1 notes its preprocessing measurements come from
/// "the experimental harness being optimized for pipelined execution". One
/// thing the pipeline does to a producer is keep its staged tensors alive
/// downstream — in the batch former, then with a consumer — so each thread
/// here holds a producer's share of a batch before releasing the oldest.
/// Dropping each tensor at once cycles a handful of cache-hot buffers and
/// reads above what the engine sustains. A sample shorter than a few
/// batches holds less, a quarter of each thread's items at most: a buffer's
/// first use costs a zeroed allocation and its page faults, which a server
/// pays once per buffer and a sample that never got to recycle one would
/// pay on every item.
fn profile_producer_stage(
    items: &[MediaItem],
    plan: &QueryPlan,
    opts: &RuntimeOptions,
) -> (usize, f64) {
    let ctx = PlanContext::new(plan);
    if ctx.validate().is_err() {
        return (0, 0.0);
    }
    let producers = opts.effective_producers();
    let layout = OutputLayout::of(items, ctx.decode);
    let pool = BufferPool::new(
        ctx.pool_capacity_fanout(producers, opts.consumers.max(1), layout.max_fanout),
        ctx.buf_len,
        opts.memory_reuse,
        opts.pinned,
    );
    let resident = ctx
        .batch
        .div_ceil(producers)
        .min(items.len().div_ceil(producers) / 4);
    sweep(items.len(), producers, VecDeque::new, |held, idx| {
        let staged = produce_media_item(
            &ctx,
            layout.offsets[idx],
            &items[idx],
            &pool,
            false,
            opts.extra_cpu_s_per_image,
            None,
        )?;
        let outputs = staged.len();
        held.extend(staged);
        while held.len() > resident {
            held.pop_front();
        }
        Ok(outputs)
    })
}

/// Measured DNN-execution throughput on the virtual device (im/s in
/// simulated time), by running `n_batches` back-to-back batches.
pub fn measure_exec_throughput(
    device: &VirtualDevice,
    model: ModelKind,
    batch: usize,
    n_batches: usize,
) -> f64 {
    let start = Instant::now();
    for _ in 0..n_batches.max(1) {
        device.dnn_batch(model, batch);
    }
    let wall = start.elapsed().as_secs_f64();
    // The device sleeps `simulated × time_scale` wall seconds, so the
    // simulated-time throughput is `count × time_scale / wall`.
    (n_batches.max(1) * batch) as f64 * device.time_scale() / wall
}

#[cfg(test)]
mod tests {
    use super::*;
    use smol_codec::Format;
    use smol_core::{InputVariant, Planner};
    use smol_imgproc::ImageU8;

    fn image(seed: usize, w: usize, h: usize) -> ImageU8 {
        let mut img = ImageU8::zeros(w, h, 3);
        for (j, v) in img.data_mut().iter_mut().enumerate() {
            *v = ((seed * 31 + j * 7) % 256) as u8;
        }
        img
    }

    fn items(n: usize) -> Vec<EncodedImage> {
        (0..n)
            .map(|i| EncodedImage::encode(&image(i, 96, 96), Format::sjpg(85)).unwrap())
            .collect()
    }

    fn plan() -> QueryPlan {
        let planner = Planner::default();
        let input = InputVariant::new("t", Format::sjpg(85), 96, 96);
        QueryPlan {
            dnn: ModelKind::ResNet50,
            input: input.clone(),
            preproc: planner.build_preproc(&input),
            decode: smol_core::DecodeMode::Full,
            batch: 8,
        }
    }

    fn corrupted(mut item: EncodedImage) -> EncodedImage {
        let mut bytes = item.bytes.to_vec();
        for b in bytes.iter_mut().skip(8) {
            *b = 0xFF;
        }
        item.bytes = bytes::Bytes::from(bytes);
        item
    }

    #[test]
    fn the_profile_stages_every_item_once_under_every_lesion() {
        let data = wrap_images(&items(40));
        let p = plan();
        let all_on = RuntimeOptions::default();
        for opts in [
            all_on,
            RuntimeOptions {
                producers: 1,
                ..all_on
            },
            RuntimeOptions {
                memory_reuse: false,
                pinned: false,
                extra_cpu_s_per_image: 1e-4,
                ..all_on
            },
            // More producer threads than a batch has tensors.
            RuntimeOptions {
                producers: 12,
                consumers: 1,
                ..all_on
            },
        ] {
            let (outputs, wall_s) = profile_producer_stage(&data, &p, &opts);
            assert_eq!(outputs, 40, "{opts:?}");
            assert!(wall_s > 0.0);
        }
        assert_eq!(profile_producer_stage(&[], &p, &all_on).0, 0);
        assert_eq!(measure_media_preproc_throughput(&[], &p, &all_on), 0.0);
    }

    #[test]
    fn the_profile_counts_frames_not_gops() {
        use smol_core::FrameSelection;
        let frames: Vec<ImageU8> = (0..12).map(|i| image(i, 64, 48)).collect();
        let enc = smol_video::VideoEncoder {
            gop: 4,
            ..Default::default()
        }
        .encode_frames(&frames, 30.0)
        .unwrap();
        let gops = crate::media::wrap_gops(&smol_video::EncodedVideo::parse(enc).unwrap().gops());
        let input = InputVariant::new("v", Format::Svid { quality: 80 }, 64, 48).video(4);
        for (selection, frames) in [
            (FrameSelection::All, 12),
            (FrameSelection::Keyframes, 3),
            (FrameSelection::Stride(2), 6),
        ] {
            let p = QueryPlan {
                preproc: Planner::default().build_preproc(&input),
                input: input.clone(),
                decode: DecodeMode::Video {
                    selection,
                    deblock: true,
                },
                ..plan()
            };
            let (outputs, _) = profile_producer_stage(&gops, &p, &RuntimeOptions::default());
            assert_eq!(outputs, OutputLayout::of(&gops, p.decode).total);
            assert_eq!(outputs, frames, "{selection:?}");
        }
    }

    #[test]
    fn a_corrupt_item_or_an_unexecutable_plan_profiles_as_zero() {
        let mut data = items(12);
        let p = plan();
        let opts = RuntimeOptions::default();
        assert!(measure_preproc_throughput(&data, &p, &opts) > 0.0);
        data[5] = corrupted(data[5].clone());
        assert_eq!(measure_preproc_throughput(&data, &p, &opts), 0.0);
        assert_eq!(measure_decode_throughput(&data, DecodeMode::Full, 2), 0.0);

        // A resize placed on the accelerator: no item could run this plan.
        let mut unexecutable = plan();
        for op in &mut unexecutable.preproc.ops {
            op.placement = smol_imgproc::dag::Placement::Accel;
        }
        assert!(PlanContext::new(&unexecutable).validate().is_err());
        assert_eq!(
            measure_preproc_throughput(&items(4), &unexecutable, &opts),
            0.0
        );
    }

    #[test]
    fn decode_at_scale_measures_the_reduced_path() {
        let data = items(48);
        let reduced = DecodeMode::ReducedResolution { factor: 4 };
        assert!(measure_decode_throughput(&data, reduced, 2) > 0.0);
        // The path it drives does a sixty-fourth of the transform work: a
        // count, not a time (the speed claim is `decode_hotpath`'s).
        let (img, stats) = data[0].decode_scaled(4).unwrap();
        assert_eq!((img.width(), img.height()), (24, 24));
        let (_, full) = data[0].decode_scaled(1).unwrap();
        assert_eq!(stats.idct_macs * 64, full.idct_macs);
    }

    #[test]
    fn profiler_counts_and_caps_samples() {
        let data = items(16);
        let p = plan();
        let profiler = Profiler::new(RuntimeOptions::default()).with_sample(4);
        assert_eq!(profiler.calls(), 0);
        let t = profiler.preproc_throughput(&data, &p);
        assert!(t > 0.0);
        assert_eq!(profiler.calls(), 1);
        let d = profiler.decode_throughput(&data, DecodeMode::Full);
        assert!(d > 0.0);
        assert_eq!(profiler.calls(), 2);
        // A zero cap means "uncapped", not "measure nothing".
        let uncapped = Profiler::new(RuntimeOptions::default()).with_sample(0);
        assert!(uncapped.preproc_throughput(&data, &p) > 0.0);
    }
}
