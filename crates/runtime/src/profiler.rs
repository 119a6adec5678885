//! Profiling helpers that produce the numbers the cost models consume
//! (§3.1: Smol "estimates the relative costs of preprocessing and DNN
//! execution"; §4: `T_exec` "can be directly measured using synthetic
//! data").

use crate::pipeline::{decode_item, preproc_only, PlanContext, RuntimeOptions};
use smol_accel::{ModelKind, VirtualDevice};
use smol_codec::EncodedImage;
use smol_core::{DecodeMode, QueryPlan};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Reusable profiling front-end over the free measurement functions below:
/// one `RuntimeOptions` for every measurement, an optional per-measurement
/// sample cap, and an invocation counter.
///
/// The counter is the point: callers that *cache* profiled numbers (the
/// serve-layer `Session` plan cache, bench harnesses) can assert whether a
/// request actually re-ran the pipeline or was served from cache — see
/// `tests/session_api.rs`.
#[derive(Debug)]
pub struct Profiler {
    opts: RuntimeOptions,
    sample: usize,
    calls: AtomicUsize,
}

impl Profiler {
    /// A profiler measuring through the pipelined harness under `opts`,
    /// with no sample cap.
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

    /// Pipelined decode+preprocess throughput of `plan` over (a sample of)
    /// `items` — [`measure_preproc_pipelined`] with counting.
    pub fn preproc_throughput(&self, items: &[EncodedImage], plan: &QueryPlan) -> f64 {
        self.calls.fetch_add(1, Ordering::AcqRel);
        measure_preproc_pipelined(self.take(items), plan, &self.opts)
    }

    /// [`Profiler::preproc_throughput`] over mixed media items (stills
    /// and/or GOPs): frames-per-second through the pipelined harness,
    /// decoded exactly as the plan prescribes (frame selection, deblock
    /// knob). The sample cap counts *items* (GOPs), matching the claim
    /// granularity of the serving scheduler.
    pub fn media_throughput(&self, items: &[crate::media::MediaItem], plan: &QueryPlan) -> f64 {
        self.calls.fetch_add(1, Ordering::AcqRel);
        let take = &items[..items.len().min(self.sample)];
        measure_media_preproc_pipelined(take, plan, &self.opts)
    }

    /// Decode-only throughput under `mode` — [`measure_decode_throughput`]
    /// with counting, using the profiler's producer count.
    pub fn decode_throughput(&self, items: &[EncodedImage], mode: DecodeMode) -> f64 {
        self.calls.fetch_add(1, Ordering::AcqRel);
        measure_decode_throughput(self.take(items), mode, self.opts.effective_producers())
    }
}

/// Measured preprocessing throughput (decode + CPU preprocessing) in
/// images/second using `threads` parallel workers over `items`.
pub fn measure_preproc_throughput(items: &[EncodedImage], plan: &QueryPlan, threads: usize) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let threads = threads.max(1);
    let ctx = PlanContext::new(plan);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (next, ctx) = (&next, &ctx);
            scope.spawn(move || {
                let mut scratch = vec![0.0f32; ctx.buf_len];
                loop {
                    let idx = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if idx >= items.len() {
                        break;
                    }
                    let _ = preproc_only(ctx, &items[idx], &mut scratch);
                }
            });
        }
    });
    items.len() as f64 / start.elapsed().as_secs_f64()
}

/// Measured decode-only throughput (no post-decode preprocessing) under a
/// given decode mode — a plan with reduced-resolution or ROI decoding is
/// profiled at the decode work it actually performs, not at a full decode.
pub fn measure_decode_throughput(items: &[EncodedImage], mode: DecodeMode, threads: usize) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let threads = threads.max(1);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let next = &next;
            scope.spawn(move || loop {
                let idx = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if idx >= items.len() {
                    break;
                }
                if let Ok(img) = decode_item(&items[idx], mode) {
                    std::hint::black_box(img.data().len());
                }
            });
        }
    });
    items.len() as f64 / start.elapsed().as_secs_f64()
}

/// Preprocessing throughput measured *through the pipelined harness* with
/// an unconstrained device, i.e. the preprocessing-only column of Table 3.
///
/// The paper's footnote 1 notes its preprocessing measurements come from
/// "the experimental harness being optimized for pipelined execution";
/// this is that measurement: all pipeline machinery (buffer pool, queue,
/// consumers) is in place, but the accelerator is infinitely fast, so the
/// CPU side is the only constraint.
pub fn measure_preproc_pipelined(
    items: &[EncodedImage],
    plan: &QueryPlan,
    opts: &crate::pipeline::RuntimeOptions,
) -> f64 {
    measure_media_preproc_pipelined(&crate::media::wrap_images(items), plan, opts)
}

/// [`measure_preproc_pipelined`] over mixed media items; the rate is in
/// device-side outputs per second (frames, for GOP items).
pub fn measure_media_preproc_pipelined(
    items: &[crate::media::MediaItem],
    plan: &QueryPlan,
    opts: &crate::pipeline::RuntimeOptions,
) -> f64 {
    use smol_accel::{DeviceSpec, ExecutionEnv, GpuModel};
    let spec = DeviceSpec {
        resnet50_batch64: 1e12,
        elementwise_ops_per_s: 1e15,
        pinned_copy_bps: f64::INFINITY,
        pageable_copy_bps: f64::INFINITY,
        ..GpuModel::T4.spec()
    };
    let device = VirtualDevice::with_spec(spec, ExecutionEnv::TensorRt, 1.0);
    match crate::pipeline::run_media_throughput(items, plan, &device, opts) {
        Ok(report) => report.throughput,
        Err(_) => 0.0,
    }
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
    use smol_accel::{ExecutionEnv, GpuModel};
    use smol_codec::Format;
    use smol_core::{InputVariant, Planner};
    use smol_imgproc::ImageU8;

    fn items(n: usize) -> Vec<EncodedImage> {
        (0..n)
            .map(|i| {
                let mut img = ImageU8::zeros(96, 96, 3);
                for (j, v) in img.data_mut().iter_mut().enumerate() {
                    *v = ((i * 31 + j * 7) % 256) as u8;
                }
                EncodedImage::encode(&img, Format::sjpg(85)).unwrap()
            })
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
            extra_stages: Vec::new(),
        }
    }

    #[test]
    fn preproc_throughput_positive_and_scales_with_threads() {
        let data = items(32);
        let p = plan();
        let t1 = measure_preproc_throughput(&data, &p, 1);
        let t4 = measure_preproc_throughput(&data, &p, 4);
        assert!(t1 > 0.0);
        // Parallel speedup is environment-dependent; just require no big
        // slowdown.
        assert!(t4 > t1 * 0.8, "t1={t1} t4={t4}");
    }

    #[test]
    fn decode_throughput_at_least_preproc() {
        let data = items(32);
        let p = plan();
        let d = measure_decode_throughput(&data, DecodeMode::Full, 2);
        let pp = measure_preproc_throughput(&data, &p, 2);
        assert!(d >= pp * 0.7, "decode {d} vs preproc {pp}");
    }

    #[test]
    fn decode_at_scale_measures_the_reduced_path() {
        let data = items(48);
        let full = measure_decode_throughput(&data, DecodeMode::Full, 2);
        let reduced =
            measure_decode_throughput(&data, DecodeMode::ReducedResolution { factor: 4 }, 2);
        // Wall-clock comparison with slack (the entropy floor dominates
        // these small noisy images, and CI runners add scheduling jitter):
        // the point is the profiler drives the scaled decode path, whose
        // deterministic work drop is asserted via DecodeStats below.
        assert!(
            reduced > full * 0.8,
            "reduced-resolution decode {reduced} must not trail full {full}"
        );
        let (img, stats) = data[0].decode_scaled(4).unwrap();
        assert_eq!((img.width(), img.height()), (24, 24));
        assert!(stats.idct_macs > 0);
    }

    #[test]
    fn profiler_counts_and_caps_samples() {
        let data = items(16);
        let p = plan();
        let profiler = Profiler::new(crate::pipeline::RuntimeOptions::default()).with_sample(4);
        assert_eq!(profiler.calls(), 0);
        let t = profiler.preproc_throughput(&data, &p);
        assert!(t > 0.0);
        assert_eq!(profiler.calls(), 1);
        let d = profiler.decode_throughput(&data, DecodeMode::Full);
        assert!(d > 0.0);
        assert_eq!(profiler.calls(), 2);
        // A zero cap means "uncapped", not "measure nothing".
        let uncapped = Profiler::new(crate::pipeline::RuntimeOptions::default()).with_sample(0);
        assert!(uncapped.preproc_throughput(&data, &p) > 0.0);
    }

    #[test]
    fn exec_throughput_close_to_catalog() {
        // Scale 1.0 keeps kernel durations far above sleep granularity.
        let device = VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 1.0);
        let measured = measure_exec_throughput(&device, ModelKind::ResNet50, 64, 10);
        let expected = device.model_throughput(ModelKind::ResNet50, 64);
        assert!(
            (measured - expected).abs() / expected < 0.1,
            "measured {measured} expected {expected}"
        );
    }
}
