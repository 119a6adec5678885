//! The stage functions of the pipelined execution engine (§6.1).
//!
//! Producer threads decode and preprocess on the CPU; consumer threads
//! drive the accelerator (transfer → optional accelerator-side
//! preprocessing kernels → DNN batch). Preprocessed tensors live in a
//! recycled (optionally pinned) buffer pool, so memory traffic,
//! backpressure, and the `min(preproc, exec)` pipelining law are all
//! physically realized.
//!
//! This module holds the *stages*, not the threads: the per-item producer
//! stage ([`produce_media_item`]) and the per-batch consumer stage
//! ([`launch_device_batch`] / [`execute_device_batch`]) are
//! plan-parameterized free functions, with [`PlanContext`] carrying the
//! precomputed per-plan state. The one engine that runs them is
//! `smol_serve::Server` — a one-shot run is `Server::run_once` — and the
//! profiler ([`crate::profiler`]) runs the producer stage on its own.
//!
//! Every §6.1 optimization is a [`RuntimeOptions`] toggle so the Figure 7/8
//! lesion and factor studies sweep them in-process:
//! `producers` (1 = the "-threading" lesion), `memory_reuse` (buffer
//! pool), `pinned` (DMA-fast transfers).

use crate::bufferpool::{BufferPool, PooledBuffer};
use crate::media::{video_decode_params, MediaItem};
use crate::tensorcache::TensorCache;
use smol_accel::sync::lock;
use smol_accel::{ModelKind, VirtualDevice};
use smol_codec::{DecodeOptions, EncodedImage};
use smol_core::{DecodeMode, FrameSelection, QueryPlan};
use smol_imgproc::dag::PreprocPlan;
use smol_imgproc::ops::normalize::Normalization;
use smol_imgproc::ops::prefix::CompiledPrefix;
use smol_imgproc::{ImageU8, Rect};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Engine configuration; defaults mirror the paper's g4dn.xlarge setup
/// (4 vCPU producers, a few CUDA-stream consumers, all optimizations on).
#[derive(Debug, Clone, Copy)]
pub struct RuntimeOptions {
    /// Producer (decode/preprocess) threads; "number of producers equal to
    /// the number of vCPU cores" (§6.1). 1 is the "-threading" lesion.
    pub producers: usize,
    /// Consumer threads per device lane, each a CUDA stream: it enqueues a
    /// batch's copy and kernels in order ([`launch_device_batch`]) and keeps
    /// a second batch enqueued behind the one executing.
    pub consumers: usize,
    /// Recycle staging buffers (lesion: off = allocate per image).
    pub memory_reuse: bool,
    /// Pinned staging memory for transfers (lesion: off = pageable).
    pub pinned: bool,
    /// Per-image extra CPU overhead in seconds (runtime personalities,
    /// e.g. eager-framework dispatch costs). 0 for Smol.
    pub extra_cpu_s_per_image: f64,
    /// Extra host-side copy per batch (personalities without inference-
    /// engine integration, e.g. DALI→TensorRT, Appendix A.1).
    pub extra_copy_per_batch: bool,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            producers: 4,
            consumers: 3,
            memory_reuse: true,
            pinned: true,
            extra_cpu_s_per_image: 0.0,
            extra_copy_per_batch: false,
        }
    }
}

impl RuntimeOptions {
    /// Producer threads actually started: `producers`, at least one.
    pub fn effective_producers(&self) -> usize {
        self.producers.max(1)
    }
}

/// Runtime error type.
#[derive(Debug)]
pub enum RuntimeError {
    Codec(smol_codec::Error),
    Image(smol_imgproc::Error),
    Config(String),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Codec(e) => write!(f, "codec error: {e}"),
            RuntimeError::Image(e) => write!(f, "image error: {e}"),
            RuntimeError::Config(msg) => write!(f, "config error: {msg}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<smol_codec::Error> for RuntimeError {
    fn from(e: smol_codec::Error) -> Self {
        RuntimeError::Codec(e)
    }
}

impl From<smol_imgproc::Error> for RuntimeError {
    fn from(e: smol_imgproc::Error) -> Self {
        RuntimeError::Image(e)
    }
}

pub type Result<T> = std::result::Result<T, RuntimeError>;

// ---------------------------------------------------------------------------
// Plan-parameterized stage functions (shared with `smol_serve`)
// ---------------------------------------------------------------------------

/// Precomputed per-plan execution state: everything the producer and
/// consumer stages need that does not change per image.
#[derive(Debug)]
pub struct PlanContext {
    pub decode: DecodeMode,
    /// The plan actually executed after decoding (partial decode modes
    /// replace the geometric prefix with a direct resize).
    pub preproc: PreprocPlan,
    /// Output tensor geometry.
    pub out_w: usize,
    pub out_h: usize,
    /// Staging-slot length in elements (`out_w * out_h * 3`): f32 values
    /// when the elementwise tail runs on the CPU, bytes when it is
    /// accelerator-placed.
    pub buf_len: usize,
    pub norm: Normalization,
    pub dnn: ModelKind,
    pub batch: usize,
    /// Geometry a decode of the variant's declared size emits (nominal:
    /// items may differ, and ROI decodes block-align).
    nominal_src: (usize, usize),
    /// The CPU prefix of `preproc`, compiled for the last decoded geometry
    /// seen and shared by every producer thread of the plan. On a repeated
    /// geometry a lookup is a lock, a dimension compare, and an `Arc` clone;
    /// on a new one the compile runs outside the lock.
    prefix: Mutex<Option<Arc<CompiledPrefix>>>,
}

impl PlanContext {
    pub fn new(plan: &QueryPlan) -> Self {
        let (ow, oh) = plan
            .preproc
            .output_dims(plan.input.width, plan.input.height);
        PlanContext {
            decode: plan.decode,
            preproc: effective_preproc(plan),
            out_w: ow,
            out_h: oh,
            buf_len: ow * oh * 3,
            norm: Normalization::IMAGENET,
            dnn: plan.dnn,
            batch: plan.batch.max(1),
            nominal_src: plan
                .decode
                .decoded_dims(plan.input.width, plan.input.height),
            prefix: Mutex::new(None),
        }
    }

    /// Checks, once and before any item runs, that the CPU prefix compiles
    /// and maps the variant's declared geometry to the plan's tensor
    /// geometry. A plan that fails here would fail on every item: the
    /// runtime executes geometric operators on the CPU only (a resize or
    /// crop placed on the accelerator leaves the staging buffer mis-sized),
    /// and one CPU prefix may resample at most once. The server calls this
    /// at submission, the profiler before it times anything.
    pub fn validate(&self) -> Result<()> {
        let prefix = self.prefix_for(self.nominal_src)?;
        self.check_out_dims(&prefix)
    }

    /// The compiled CPU prefix for a `dims` source: the cached one when the
    /// geometry matches the last item's, freshly compiled (and cached)
    /// otherwise. The compile runs outside the lock, so the producers of a
    /// mixed-geometry plan compile concurrently instead of queuing on it.
    fn prefix_for(&self, dims: (usize, usize)) -> Result<Arc<CompiledPrefix>> {
        let cached = lock(&self.prefix).clone();
        if let Some(prefix) = cached.filter(|p| p.src_dims() == dims) {
            return Ok(prefix);
        }
        let prefix = Arc::new(CompiledPrefix::compile(
            &self.preproc,
            dims.0,
            dims.1,
            &self.norm,
        )?);
        *lock(&self.prefix) = Some(Arc::clone(&prefix));
        Ok(prefix)
    }

    fn check_out_dims(&self, prefix: &CompiledPrefix) -> Result<()> {
        if prefix.out_dims() == (self.out_w, self.out_h) {
            return Ok(());
        }
        Err(smol_imgproc::Error::ShapeMismatch {
            expected: self.buf_len,
            actual: prefix.out_elems(),
            context: "CPU prefix output vs the plan's tensor geometry",
        }
        .into())
    }

    /// The prefix compiled for the most recent item, if any has run.
    pub fn compiled_prefix(&self) -> Option<Arc<CompiledPrefix>> {
        lock(&self.prefix).clone()
    }

    /// Executes the CPU-placed prefix of the plan on a decoded image into a
    /// slot drawn from `pool`: the final tensor, or — under an
    /// accelerator-placed tail — the u8 intermediate in a byte slot.
    ///
    /// Returns the slot with `(transfer_bytes, accel_ops)`: how many bytes
    /// it holds for the consumer to copy to the device, and the weighted-op
    /// cost of the remaining accelerator-side operators. An item the prefix
    /// does not map to the plan's output geometry (a mis-sized item under an
    /// elided resize, say) is a typed `ShapeMismatch` before any slot is
    /// drawn, never a partial or out-of-bounds write.
    fn stage(&self, img: &ImageU8, pool: &BufferPool) -> Result<(PooledBuffer, usize, f64)> {
        let prefix = self.prefix_for((img.width(), img.height()))?;
        self.check_out_dims(&prefix)?;
        let buffer = if prefix.stages_bytes() {
            let mut buffer = pool.acquire_bytes();
            prefix.run_into_bytes(img, buffer.as_bytes_mut())?;
            buffer
        } else {
            let mut buffer = pool.acquire();
            prefix.run_into(img, buffer.as_mut_slice())?;
            buffer
        };
        Ok((buffer, prefix.transfer_bytes(), prefix.accel_ops()))
    }

    /// Buffer-pool capacity that guarantees producers never starve on
    /// consumers (§6.1 over-allocation) *and* that a batch former holding
    /// up to `batch − 1` pending items can never exhaust the pool, for
    /// producers that each hold up to `held` staged tensors before any of
    /// them reach the batch former: an item's fan-out (a GOP's frames; 1
    /// for a still), times the items of a run where a producer stages
    /// several items before handing them on.
    /// The `2 · consumers · batch` term is §6.1's over-allocation: each
    /// consumer may hold the batch the device is executing *and* the one
    /// launched behind it (the two-deep launch window).
    pub fn pool_capacity_fanout(&self, producers: usize, consumers: usize, held: usize) -> usize {
        producers * held.max(1) + self.batch + 2 * consumers * self.batch
    }

    /// The device-side batch parameters derived from this plan + options.
    pub fn batch_spec(&self, opts: &RuntimeOptions) -> DeviceBatchSpec {
        DeviceBatchSpec {
            dnn: self.dnn,
            pinned: opts.pinned,
            extra_copy_per_batch: opts.extra_copy_per_batch,
        }
    }
}

/// One decoded + CPU-preprocessed image, staged for device consumption.
pub struct ProducedItem {
    /// Index of the image within its query's item list.
    pub idx: usize,
    /// Holds the staging slot until the consumer is done with the batch.
    pub buffer: PooledBuffer,
    /// Bytes the slot holds and the consumer copies to the device (u8
    /// intermediates are 4× smaller than f32 tensors — a real benefit of
    /// accelerator placement, on the host as well as on the copy engine).
    pub transfer_bytes: usize,
    /// Weighted-op cost of the remaining accelerator-side operators.
    pub accel_ops: f64,
    /// Decoded image, kept only when an inference callback needs it
    /// (shared with the tensor cache on hits, never copied).
    pub image: Option<Arc<ImageU8>>,
    /// CPU seconds spent decoding this item.
    pub decode_s: f64,
    /// CPU seconds spent preprocessing this item (incl. staging/waits).
    pub preproc_s: f64,
    /// True when the decode was served from the tensor cache (this item
    /// paid no decode work; `decode_s` is 0).
    pub cache_hit: bool,
}

/// Runs the per-image producer stage: decode per the plan's decode mode,
/// execute the CPU-placed preprocessing prefix into a pooled staging
/// buffer, and return the staged work item.
///
/// When `cache` is provided, the decode is routed through the
/// decoded-tensor cache keyed on ([`EncodedImage::cache_key`], decode
/// mode): a hit skips decoding entirely (bit-identical pixels,
/// `decode_s = 0`), and concurrent misses on the same key single-flight
/// into one decode. The key is hashed from the item's bytes on every call
/// — hit or miss — which is why it is the word-wide key and not the
/// byte-serial on-disk fingerprint.
pub fn produce_item(
    ctx: &PlanContext,
    idx: usize,
    enc: &EncodedImage,
    pool: &BufferPool,
    keep_image: bool,
    extra_cpu_s: f64,
    cache: Option<&TensorCache>,
) -> Result<ProducedItem> {
    let t0 = Instant::now();
    let decode = || decode_item(enc, ctx.decode);
    let (decoded, cache_hit) = match cache {
        Some(cache) => cache.get_or_decode(enc.cache_key(), ctx.decode, decode)?,
        None => (Arc::new(decode()?), false),
    };
    let t1 = Instant::now();
    let decode_s = if cache_hit {
        0.0
    } else {
        (t1 - t0).as_secs_f64()
    };
    let (buffer, transfer_bytes, accel_ops) = ctx.stage(&decoded, pool)?;
    if extra_cpu_s > 0.0 {
        std::thread::sleep(Duration::from_secs_f64(extra_cpu_s));
    }
    Ok(ProducedItem {
        idx,
        buffer,
        transfer_bytes,
        accel_ops,
        image: keep_image.then_some(decoded),
        decode_s,
        preproc_s: t1.elapsed().as_secs_f64(),
        cache_hit,
    })
}

/// Device-side parameters of a batch, shared by every item in it. Two
/// queries may share one device batch only when these (plus the tensor
/// geometry) agree — see `smol_core::PlacementSignature`.
#[derive(Debug, Clone)]
pub struct DeviceBatchSpec {
    pub dnn: ModelKind,
    pub pinned: bool,
    pub extra_copy_per_batch: bool,
}

/// Enqueues the per-batch consumer stage on the virtual device as one
/// stream — host→device transfer, optional accelerator-side preprocessing
/// kernel and the DNN batch, each ordered after the one before — and
/// returns when the last of them completes, without waiting for any.
/// Batches launched back to back pipeline on the device: the copy of the
/// second runs under the compute of the first.
pub fn launch_device_batch(
    device: &VirtualDevice,
    spec: &DeviceBatchSpec,
    images: usize,
    transfer_bytes: usize,
    accel_ops: f64,
) -> Instant {
    let mut done = Instant::now();
    if images == 0 {
        return done;
    }
    done = device.launch_transfer(transfer_bytes, spec.pinned, done);
    if spec.extra_copy_per_batch {
        done = device.launch_transfer(transfer_bytes, false, done);
    }
    if accel_ops > 0.0 {
        done = device.launch_preproc_kernel(accel_ops, done);
    }
    device.launch_dnn_batch(spec.dnn, images, done)
}

/// Runs the per-batch consumer stage to completion:
/// [`launch_device_batch`], then one wait for the whole stream.
pub fn execute_device_batch(
    device: &VirtualDevice,
    spec: &DeviceBatchSpec,
    images: usize,
    transfer_bytes: usize,
    accel_ops: f64,
) {
    VirtualDevice::wait_until(launch_device_batch(
        device,
        spec,
        images,
        transfer_bytes,
        accel_ops,
    ));
}

/// Runs the per-item producer stage for any media kind: still images
/// delegate to [`produce_item`]; GOP items stage every selected frame as
/// its own work item (indices `base_idx..base_idx + fanout`).
///
/// When `cache` is provided, each *frame* is routed through the
/// decoded-tensor cache keyed on (GOP content key mixed with the frame's
/// GOP position, deblock knob). The frame selection is canonicalized out
/// of the key: a frame's pixels depend only on its payload chain and the
/// in-loop filter, never on which other frames were selected, so a
/// keyframe decoded under `FrameSelection::All` hits again when a later
/// (e.g. downgraded) submission asks for `Keyframes`. Frames that miss
/// are decoded at most once per call — the GOP's reference chain decodes
/// sequentially into a local memo, and the first missing frame bears that
/// chain-decode cost in its `decode_s`; the cache charges every frame an
/// equal share of it as the frame's fill cost.
pub fn produce_media_item(
    ctx: &PlanContext,
    base_idx: usize,
    item: &MediaItem,
    pool: &BufferPool,
    keep_image: bool,
    extra_cpu_s: f64,
    cache: Option<&TensorCache>,
) -> Result<Vec<ProducedItem>> {
    let gop = match item {
        MediaItem::Image(enc) => {
            return Ok(vec![produce_item(
                ctx,
                base_idx,
                enc,
                pool,
                keep_image,
                extra_cpu_s,
                cache,
            )?])
        }
        MediaItem::Gop(g) => g,
    };
    let (selection, opts) = video_decode_params(ctx.decode);
    let selected: Vec<usize> = (0..gop.n_frames())
        .filter(|&p| selection.selects(p))
        .collect();
    // Cache-key mode with the selection pinned to `All`: pixels are
    // invariant to the selection, so cross-selection lookups must agree.
    let canon_mode = DecodeMode::Video {
        selection: FrameSelection::All,
        deblock: opts.deblock,
    };
    let gop_key = if cache.is_some() { gop.cache_key() } else { 0 };
    // The GOP's decoded frames in selection order, empty until the first
    // miss decodes the chain. Each is asked for at most once per call, so
    // it is moved out, not copied: into the staged item, or into the tensor
    // cache that then owns it, which charges each an equal share of the
    // chain decode as its fill cost.
    let mut memo: Vec<Option<ImageU8>> = Vec::new();
    let mut chain_share = Duration::ZERO;
    let mut out = Vec::with_capacity(selected.len());
    for (i, &pos) in selected.iter().enumerate() {
        let t0 = Instant::now();
        let mut decode_frame = || -> Result<(ImageU8, Duration)> {
            if memo.is_empty() {
                let (frames, _) = gop.decode_selected(selection, opts)?;
                debug_assert!(frames.iter().map(|f| f.index).eq(selected.iter().copied()));
                chain_share = t0.elapsed() / selected.len() as u32;
                memo = frames.into_iter().map(|f| Some(f.image)).collect();
            }
            let frame = memo.get_mut(i).and_then(Option::take).ok_or_else(|| {
                RuntimeError::Config(format!("selected frame {pos} missing from GOP decode"))
            })?;
            Ok((frame, chain_share))
        };
        let (decoded, cache_hit) = match cache {
            Some(cache) => cache.get_or_fill(frame_key(gop_key, pos), canon_mode, decode_frame)?,
            None => (Arc::new(decode_frame()?.0), false),
        };
        let t1 = Instant::now();
        let decode_s = if cache_hit {
            0.0
        } else {
            (t1 - t0).as_secs_f64()
        };
        let (buffer, transfer_bytes, accel_ops) = ctx.stage(&decoded, pool)?;
        if extra_cpu_s > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(extra_cpu_s));
        }
        out.push(ProducedItem {
            idx: base_idx + i,
            buffer,
            transfer_bytes,
            accel_ops,
            image: keep_image.then_some(decoded),
            decode_s,
            preproc_s: t1.elapsed().as_secs_f64(),
            cache_hit,
        });
    }
    Ok(out)
}

/// Decides which cascade rung a media item takes, *before any decode
/// happens*: its bitstream difficulty signal
/// ([`smol_codec::signal::image_signal`]) is compared against the plan's
/// calibrated threshold. Scores strictly above the threshold escalate to
/// the full rung (stage 1); at or below it, the item takes the
/// aggressive rung (stage 0). Items with no signal — non-sjpg stills,
/// GOP video, unparseable bytes — escalate: the full rung is always
/// correct, so "no information" must never cost accuracy.
///
/// The caller then runs [`produce_media_item`] under the chosen rung's own
/// context, so each rung keeps its decode mode, preprocessing rewrite and
/// tensor-cache keying, and an escalated item is produced exactly as a
/// uniform full plan would produce it.
pub fn route_stage(item: &MediaItem, threshold: f64) -> usize {
    let signal = match item {
        MediaItem::Image(enc) => smol_codec::signal::image_signal(enc),
        MediaItem::Gop(_) => None,
    };
    match signal {
        Some(sig) if sig.score() <= threshold => 0,
        _ => 1,
    }
}

/// Mixes a frame's GOP position into its GOP's content key (FNV-1a
/// steps), yielding the per-frame tensor-cache key.
fn frame_key(gop_key: u64, frame_pos: usize) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = gop_key;
    for &b in &(frame_pos as u64).to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Decodes an item according to the plan's decode mode.
pub fn decode_item(enc: &EncodedImage, mode: DecodeMode) -> Result<ImageU8> {
    decode_item_opts(enc, mode, DecodeOptions::default())
}

/// [`decode_item`] with explicit decode options, honoured by every mode:
/// `opts.scalar_kernels` decodes through the format's reference decoder —
/// the oracle callers compare served pixels against.
pub fn decode_item_opts(
    enc: &EncodedImage,
    mode: DecodeMode,
    opts: DecodeOptions,
) -> Result<ImageU8> {
    match mode {
        DecodeMode::Full => Ok(enc.decode_with_opts(opts)?),
        DecodeMode::CentralRoi { crop_w, crop_h } => {
            let roi = Rect::centered(enc.width, enc.height, crop_w.max(1), crop_h.max(1));
            let (img, _) = enc.decode_roi_opts(roi, opts)?;
            Ok(img)
        }
        DecodeMode::ReducedResolution { factor } => {
            let (img, _) = enc.decode_scaled_opts(factor as usize, opts)?;
            Ok(img)
        }
        // A still image under a video plan has no GOP structure to
        // select within: decode it fully.
        DecodeMode::Video { .. } => Ok(enc.decode_with_opts(opts)?),
    }
}

/// The plan actually executed after decoding: the shared decode-aware
/// rewrite pass (`smol_core::rewrite`) elides the resize when the decode
/// geometry already meets the DNN input (reduced-resolution decoding) and
/// otherwise replaces the geometric prefix with one direct resize.
fn effective_preproc(plan: &QueryPlan) -> PreprocPlan {
    smol_core::rewrite_preproc_for_decode(
        &plan.preproc,
        plan.decode,
        plan.input.width,
        plan.input.height,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::media::{wrap_gops, OutputLayout};
    use smol_accel::{DeviceStats, ExecutionEnv, GpuModel, ModelKind};
    use smol_codec::Format;
    use smol_core::{InputVariant, Planner, PlannerConfig};
    use smol_imgproc::dag::OpSpec;

    fn textured(w: usize, h: usize, seed: usize) -> ImageU8 {
        let mut img = ImageU8::zeros(w, h, 3);
        for y in 0..h {
            for x in 0..w {
                for c in 0..3 {
                    img.set(x, y, c, ((x * 3 + y * 7 + c * 11 + seed) % 256) as u8);
                }
            }
        }
        img
    }

    fn encoded_batch(n: usize, w: usize, h: usize) -> Vec<MediaItem> {
        (0..n)
            .map(|i| EncodedImage::encode(&textured(w, h, i), Format::sjpg(85)).unwrap())
            .map(MediaItem::Image)
            .collect()
    }

    fn test_plan(input: InputVariant, dnn_input: u32, decode: DecodeMode) -> QueryPlan {
        let planner = Planner::new(PlannerConfig {
            dnn_input,
            ..Default::default()
        });
        QueryPlan {
            dnn: ModelKind::ResNet50,
            preproc: planner.build_preproc(&input),
            input,
            decode,
            batch: 8,
        }
    }

    fn still_plan(w: usize, h: usize, dnn_input: u32, decode: DecodeMode) -> QueryPlan {
        let input = InputVariant::new("test sjpg", Format::sjpg(85), w, h);
        test_plan(input, dnn_input, decode)
    }

    /// Runs the producer stage alone over `items`, the way a producer
    /// thread does claim by claim; returns the staged tensors in order.
    fn produce_all(plan: &QueryPlan, items: &[MediaItem]) -> (PlanContext, Vec<ProducedItem>) {
        let ctx = PlanContext::new(plan);
        ctx.validate().unwrap();
        let layout = OutputLayout::of(items, ctx.decode);
        let pool = BufferPool::new(layout.total, ctx.buf_len, true, false);
        let staged: Vec<ProducedItem> = items
            .iter()
            .zip(&layout.offsets)
            .flat_map(|(item, &base)| {
                produce_media_item(&ctx, base, item, &pool, true, 0.0, None).unwrap()
            })
            .collect();
        for (i, item) in staged.iter().enumerate() {
            assert_eq!(item.idx, i, "output indices are contiguous per item");
            assert_eq!(item.buffer.as_slice().len(), ctx.buf_len);
            assert!(!item.cache_hit);
        }
        assert_eq!(staged.len(), layout.total);
        (ctx, staged)
    }

    fn fast_device() -> VirtualDevice {
        VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 0.02)
    }

    #[test]
    fn launching_a_batch_accounts_what_executing_it_does() {
        let spec = DeviceBatchSpec {
            dnn: ModelKind::ResNet50,
            pinned: true,
            extra_copy_per_batch: true,
        };
        let (launched, executed) = (fast_device(), fast_device());
        let origin = Instant::now();
        let done = launch_device_batch(&launched, &spec, 8, 8 * 12_288, 1e5);
        execute_device_batch(&executed, &spec, 8, 8 * 12_288, 1e5);
        let stats = launched.stats();
        assert_eq!(stats, executed.stats());
        assert_eq!((stats.copies, stats.kernels), (2, 2));
        // One stream: every op starts after the one before it ends.
        let serial = Duration::from_secs_f64(stats.copy_busy_s + stats.compute_busy_s);
        assert!(done >= origin + serial - Duration::from_nanos(5));

        let idle = fast_device();
        assert!(launch_device_batch(&idle, &spec, 0, 0, 0.0) <= Instant::now());
        assert_eq!(idle.stats(), DeviceStats::default());
    }

    #[test]
    fn scalar_reference_decode_is_bit_identical_in_every_decode_mode() {
        // The oracle a harness compares served pixels with: every mode
        // must hand the options to the codec (ROI and early stop used to
        // drop them) and every format's reference decoder must agree with
        // the path the producer stage runs.
        let img = textured(160, 112, 5);
        let modes = [
            DecodeMode::Full,
            DecodeMode::ReducedResolution { factor: 2 },
            DecodeMode::ReducedResolution { factor: 4 },
            DecodeMode::CentralRoi {
                crop_w: 96,
                crop_h: 64,
            },
        ];
        for format in [Format::sjpg(85), Format::sjpg420(85), Format::Spng] {
            let enc = EncodedImage::encode(&img, format).unwrap();
            for mode in modes {
                let served = decode_item(&enc, mode).unwrap();
                let oracle = decode_item_opts(&enc, mode, DecodeOptions::scalar_reference());
                assert_eq!(served, oracle.unwrap(), "{format:?} {mode:?}");
            }
        }
    }

    #[test]
    fn full_decode_stages_every_still_at_the_plan_geometry() {
        let plan = still_plan(96, 80, 64, DecodeMode::Full);
        let (ctx, staged) = produce_all(&plan, &encoded_batch(5, 96, 80));
        assert_eq!((ctx.out_w, ctx.out_h), (64, 64));
        for item in &staged {
            assert!(item.decode_s > 0.0 && item.transfer_bytes > 0);
            let kept = item.image.as_ref().expect("image kept for the callback");
            assert_eq!((kept.width(), kept.height()), (96, 80));
        }
    }

    #[test]
    fn roi_decode_replaces_the_geometric_prefix_with_one_resize() {
        let mode = DecodeMode::CentralRoi {
            crop_w: 80,
            crop_h: 80,
        };
        let plan = still_plan(128, 96, 64, mode);
        let (ctx, staged) = produce_all(&plan, &encoded_batch(6, 128, 96));
        assert!(matches!(
            ctx.preproc.ops[0].spec,
            OpSpec::ResizeExact { w: 64, h: 64 }
        ));
        // The decoder emitted the block-aligned ROI, not the whole image.
        let kept = staged[0].image.as_ref().unwrap();
        assert!(kept.width() < 128 && kept.height() < 96, "{kept:?}");
    }

    #[test]
    fn reduced_resolution_decode_at_the_dnn_input_elides_the_resize() {
        // 256 / 8 = 32 = DNN input: the rewrite pass must elide the resize
        // entirely (decode geometry meets the DNN input).
        let plan = still_plan(256, 256, 32, DecodeMode::ReducedResolution { factor: 8 });
        let (ctx, staged) = produce_all(&plan, &encoded_batch(6, 256, 256));
        assert!(
            ctx.preproc.ops.iter().all(|o| !matches!(
                o.spec,
                OpSpec::ResizeShortEdge { .. }
                    | OpSpec::ResizeExact { .. }
                    | OpSpec::CenterCrop { .. }
                    | OpSpec::FusedCropResize { .. }
            )),
            "resize must be elided: {:?}",
            ctx.preproc
        );
        assert_eq!((ctx.out_w, ctx.out_h), (32, 32));
        let kept = staged[0].image.as_ref().unwrap();
        assert_eq!((kept.width(), kept.height()), (32, 32));
    }

    #[test]
    fn reduced_resolution_inexact_geometry_shrinks_resize() {
        // 192 / 4 = 48 ≠ 32: the rewrite keeps one direct resize.
        let plan = still_plan(192, 160, 32, DecodeMode::ReducedResolution { factor: 4 });
        let (ctx, staged) = produce_all(&plan, &encoded_batch(4, 192, 160));
        assert!(matches!(
            ctx.preproc.ops[0].spec,
            OpSpec::ResizeExact { w: 32, h: 32 }
        ));
        let kept = staged[0].image.as_ref().unwrap();
        assert_eq!((kept.width(), kept.height()), (48, 40));
    }

    fn encoded_gops(n_gops: usize, frames_per: usize, w: usize, h: usize) -> Vec<MediaItem> {
        let frames: Vec<ImageU8> = (0..n_gops * frames_per)
            .map(|i| textured(w, h, i))
            .collect();
        let enc = smol_video::VideoEncoder {
            gop: frames_per,
            ..Default::default()
        }
        .encode_frames(&frames, 30.0)
        .unwrap();
        wrap_gops(&smol_video::EncodedVideo::parse(enc).unwrap().gops())
    }

    #[test]
    fn gop_items_fan_out_into_contiguous_frame_outputs() {
        let items = encoded_gops(3, 4, 64, 48);
        let input = InputVariant::new("test svid", Format::Svid { quality: 80 }, 64, 48).video(4);
        for (selection, deblock, frames) in [
            (FrameSelection::All, true, 12),
            (FrameSelection::Keyframes, false, 3),
            (FrameSelection::Stride(2), true, 6),
        ] {
            let mode = DecodeMode::Video { selection, deblock };
            // `produce_all` checks the indices run 0..total in item order.
            let (_, staged) = produce_all(&test_plan(input.clone(), 32, mode), &items);
            assert_eq!(staged.len(), frames, "{selection:?}");
            for item in &staged {
                let kept = item.image.as_ref().expect("frame kept for the callback");
                assert_eq!(kept.width(), 64, "full-geometry frames reach the callback");
            }
            // The GOP's reference chain decodes once; its first selected
            // frame bears the cost.
            assert!(staged[0].decode_s > 0.0);
        }
    }

    #[test]
    fn gop_frames_are_charged_an_equal_share_of_the_chain_decode() {
        let items = encoded_gops(1, 4, 64, 48);
        let input = InputVariant::new("test svid", Format::Svid { quality: 80 }, 64, 48).video(4);
        let mode = DecodeMode::Video {
            selection: FrameSelection::All,
            deblock: true,
        };
        let ctx = PlanContext::new(&test_plan(input, 32, mode));
        let pool = BufferPool::new(4, ctx.buf_len, true, false);
        let cache = TensorCache::new(1 << 20);
        let staged =
            produce_media_item(&ctx, 0, &items[0], &pool, false, 0.0, Some(&cache)).unwrap();
        assert_eq!(staged.len(), 4);
        let costs = cache.resident_costs();
        assert_eq!(costs.len(), 4, "every frame is resident");
        assert!(costs[0] > 0.0);
        assert!(costs.iter().all(|&c| c == costs[0]), "{costs:?}");
    }
}
