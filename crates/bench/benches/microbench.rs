//! Microbenches for the performance-critical kernels: codec
//! decode paths (full / ROI / early-stop / reduced-resolution sjpg, the spng
//! thumbnail decoder against its reference walk and across window widths,
//! block reconstruction — dequantization + IDCT — and the YCbCr→RGB row
//! flush under each instruction tier the host has),
//! preprocessing operators (fused vs unfused, the compiled CPU prefix vs the
//! reference interpreter, the producer stage's per-item content key and
//! cascade difficulty signal, launching vs executing a device batch), the video
//! decoder stage by stage (fast path vs the seed chain, and the keyframe
//! pair-LUT window sweep), the DAG optimizer, and the shared state a
//! producer run touches (its tensor-cache hits, its batching).
//!
//! Each row is timed per call by `smol_bench::per_iter` (batches of calls
//! sized to take at least 1 ms, one clock pair per batch) and printed as
//! `group/name: N ns/iter`, the median of its batches, with their
//! interquartile range over that median. `timer/empty` times an empty
//! routine: the timer's own floor. `-- --test` runs each routine once
//! instead (the CI smoke); a positional argument runs only the rows whose
//! `group/name` contains it (set-up code outside the routines and the
//! byte-staging gate still run).
#![deny(unsafe_code)]

use smol_accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol_bench::{per_iter, PerIter};
use smol_codec::signal::sjpg_signal;
use smol_codec::{hash, sjpg, spng, DecodeOptions, EncodedImage, Format, SjpgEncoder};
use smol_core::{DecodeMode, PlacementSignature};
use smol_data::{still_catalog, throughput_images};
use smol_imgproc::dag::{execute_plan, DagOptimizer, PreprocPlan};
use smol_imgproc::ops::fused::fused_convert_normalize_split;
use smol_imgproc::ops::layout::{hwc_to_chw, to_f32};
use smol_imgproc::ops::normalize::{normalize_chw, Normalization};
use smol_imgproc::ops::prefix::CompiledPrefix;
use smol_imgproc::ops::{center_crop_u8, resize_short_edge_u8};
use smol_imgproc::tier::{Kernel, Tier};
use smol_imgproc::Rect;
use smol_runtime::{execute_device_batch, launch_device_batch, DeviceBatchSpec, TensorCache};
use smol_serve::scheduler::Batcher;
use smol_serve::Priority;
use std::sync::Arc;

fn test_image() -> smol_imgproc::ImageU8 {
    let spec = &still_catalog()[3];
    throughput_images(spec, 1, 1).pop().expect("one image")
}

fn bench_codecs(rows: &Rows) {
    let img = test_image();
    let jpg = SjpgEncoder::new(85).encode(&img).unwrap();
    // The natively present thumbnails of the serving layout (§5.2): the
    // paper's 161-px short edge (a 75 KB body) and a 64-px one (9 KB).
    let png = spng::encode(&resize_short_edge_u8(&img, 161).unwrap()).unwrap();
    let png_small =
        spng::encode(&smol_imgproc::ops::resize_bilinear_u8(&img, 64, 64).unwrap()).unwrap();
    let roi = Rect::centered(img.width(), img.height(), 224, 224);

    rows.iter("codec_decode/sjpg_full", || {
        sjpg::decode(std::hint::black_box(&jpg)).unwrap()
    });
    rows.iter("codec_decode/sjpg_roi_224", || {
        sjpg::decode_roi(std::hint::black_box(&jpg), roi).unwrap()
    });
    rows.iter("codec_decode/sjpg_early_stop_64_rows", || {
        sjpg::decode_rows(std::hint::black_box(&jpg), 64).unwrap()
    });
    rows.iter("codec_decode/sjpg_scaled_4", || {
        sjpg::decode_scaled(std::hint::black_box(&jpg), 4).unwrap()
    });
    rows.iter("codec_decode/spng_reference", || {
        spng::decode_with_opts(
            std::hint::black_box(&png),
            DecodeOptions::scalar_reference(),
        )
        .unwrap()
    });
    rows.iter("codec_decode/spng_full", || {
        spng::decode(std::hint::black_box(&png)).unwrap()
    });
    // Literal/length window on the two thumbnail sizes served: 12 bits
    // wins on both, which is why `spng`'s window is a constant.
    for (name, body) in [("9k", &png_small), ("75k", &png)] {
        for bits in [8u32, 10, 12] {
            rows.iter(&format!("codec_decode/spng_window/{bits}/{name}"), || {
                spng::decode_with_window(std::hint::black_box(body), bits).unwrap()
            });
        }
    }
    // Block reconstruction alone, per tier: real luma blocks of the
    // fullres_cold corpus at q95 (nearly all 64 coded) and of a video
    // keyframe at q80 (short coded prefixes), reconstructed at 8 points, and
    // the q95 blocks at 4 points (a factor-2 decode's corner).
    let dense = luma_blocks(&img, 95);
    let keyframe = {
        use smol_core::FrameSelection;
        let corpus = smol_data::gops::gop_corpus(&smol_data::catalog::video_catalog()[1], 42, 1, 6);
        let gop = &corpus.gops[0];
        let opts = smol_video::DecodeOptions { deblock: true };
        let (frames, _) = gop
            .decode_selected(FrameSelection::Keyframes, opts)
            .unwrap();
        luma_blocks(&frames[0].image, gop.quality)
    };
    let tiers = [Some(Tier::BASELINE), Tier::avx2()];
    for (name, (blocks, steps), n) in [
        ("q95_dense", &dense, 8),
        ("q80_keyframe", &keyframe, 8),
        ("n4", &dense, 4),
    ] {
        for tier in tiers.into_iter().flatten() {
            rows.iter(
                &format!("codec_decode/block_reconstruct/{name}/{}", tier.name()),
                || {
                    tier.run(Reconstruct {
                        blocks: std::hint::black_box(blocks),
                        steps,
                        n,
                    })
                },
            );
        }
    }

    // The colour flush of one 224-px row of planar YCbCr (a ROI decode's
    // width), per tier: what the sjpg block loop runs once per image row.
    let planes: [Vec<u8>; 3] =
        std::array::from_fn(|c| (0..224).map(|x| img.at(x, 17, c)).collect::<Vec<u8>>());
    let mut rgb = vec![0u8; 3 * 224];
    for tier in tiers.into_iter().flatten() {
        rows.iter(
            &format!("codec_decode/ycbcr_row_224/{}", tier.name()),
            || {
                tier.run(YcbcrRow {
                    planes: std::hint::black_box(&planes),
                    rgb: &mut rgb,
                })
            },
        );
    }

    rows.iter("codec_encode/sjpg_q85", || {
        SjpgEncoder::new(85)
            .encode(std::hint::black_box(&img))
            .unwrap()
    });
    rows.iter("codec_encode/spng", || {
        spng::encode(std::hint::black_box(&img)).unwrap()
    });
}

/// The luma blocks of `img` as sjpg codes them at `quality` — level shift,
/// forward DCT, quantization — in the natural order the fast decoders
/// reconstruct from, each with its coded prefix length, plus the table's
/// dequantization steps.
fn luma_blocks(img: &smol_imgproc::ImageU8, quality: u8) -> (Vec<([i16; 64], usize)>, [f32; 64]) {
    use smol_codec::dct::forward_dct;
    use smol_codec::quant::{dequant_steps, quantize_zigzag, scale_table, BASE_LUMA, ZIGZAG};
    use smol_imgproc::ops::colorspace::rgb_pixel_to_ycbcr;
    let table = scale_table(&BASE_LUMA, quality).unwrap();
    let mut blocks = Vec::new();
    for by in 0..img.height() / 8 {
        for bx in 0..img.width() / 8 {
            let mut spatial = [0.0f32; 64];
            for (i, v) in spatial.iter_mut().enumerate() {
                let (x, y) = (bx * 8 + i % 8, by * 8 + i / 8);
                let (r, g, b) = (img.at(x, y, 0), img.at(x, y, 1), img.at(x, y, 2));
                *v = rgb_pixel_to_ycbcr(r, g, b).0 as f32 - 128.0;
            }
            let (mut freq, mut zz) = ([0.0f32; 64], [0i16; 64]);
            forward_dct(&spatial, &mut freq);
            quantize_zigzag(&freq, &table, &mut zz);
            let coded = zz.iter().rposition(|&c| c != 0).map_or(1, |k| k + 1);
            let mut natural = [0i16; 64];
            for (k, &c) in zz.iter().enumerate() {
                natural[ZIGZAG[k]] = c;
            }
            blocks.push((natural, coded));
        }
    }
    (blocks, dequant_steps(&table))
}

/// Dequantization + `n`-point IDCT of every block, as the sjpg block loop
/// runs them, as one tier kernel.
struct Reconstruct<'a> {
    blocks: &'a [([i16; 64], usize)],
    steps: &'a [f32; 64],
    n: usize,
}

impl Kernel for Reconstruct<'_> {
    type Output = f32;

    #[inline(always)]
    fn run(self) -> f32 {
        use smol_codec::dct::inverse_dct_scaled_vec_masked;
        use smol_codec::quant::dequantize_corner;
        let (mut freq, mut out, mut sum) = ([0.0f32; 64], [0.0f32; 64], 0.0);
        for (coefs, coded) in self.blocks {
            let mask = dequantize_corner(coefs, *coded, self.steps, self.n, &mut freq);
            inverse_dct_scaled_vec_masked(&freq, self.n, mask, &mut out);
            sum += out[0];
        }
        sum
    }
}

/// `ycbcr_row_to_rgb` over one row of planes as one tier kernel.
struct YcbcrRow<'a> {
    planes: &'a [Vec<u8>; 3],
    rgb: &'a mut [u8],
}

impl Kernel for YcbcrRow<'_> {
    type Output = u8;

    #[inline(always)]
    fn run(self) -> u8 {
        use smol_imgproc::ops::colorspace::ycbcr_row_to_rgb;
        let [y, cb, cr] = self.planes;
        ycbcr_row_to_rgb(y, cb, cr, self.rgb);
        self.rgb[0]
    }
}

fn bench_preproc(rows: &Rows) {
    let img = test_image();
    let resized = resize_short_edge_u8(&img, 256).unwrap();
    let cropped = center_crop_u8(&resized, 224, 224).unwrap();
    let norm = Normalization::IMAGENET;

    rows.iter("preproc_ops/resize_short_edge_256", || {
        resize_short_edge_u8(std::hint::black_box(&img), 256).unwrap()
    });
    rows.batched(
        "preproc_ops/unfused_convert_normalize_split",
        || cropped.clone(),
        |img| {
            let t = to_f32(&img);
            let mut chw = hwc_to_chw(&t);
            normalize_chw(&mut chw, &norm).unwrap();
            chw
        },
    );
    rows.iter("preproc_ops/fused_convert_normalize_split", || {
        fused_convert_normalize_split(std::hint::black_box(&cropped), &norm).unwrap()
    });

    // The producer stage's CPU prefix: the reference interpreter (one kernel
    // and one intermediate per op) against the compiled single pass, on the
    // five geometries the serving benchmark exercises (`80x60_to_224` is the
    // cascade's stage-1 upscale, whose x map has no run to read as a slice).
    // `prefix_recompiled` compiles per item: what a plan pays when every item's decoded geometry
    // differs from the last one's (mixed-size sources). `prefix_bytes` is
    // the same plan with its elementwise tail accelerator-placed (§6.3): the
    // CPU stops at the u8 intermediate and stages that.
    let thumb = PreprocPlan::thumbnail(224, 224);
    let small_thumb = PreprocPlan::thumbnail(64, 64);
    let crop_resize = DagOptimizer::default().optimize(&PreprocPlan::standard(73, 64, 64), 128, 72);
    let cases = [
        ("64x64_identity", &small_thumb, 64, 64),
        ("224x224_identity", &thumb, 224, 224),
        ("215x161_to_224", &thumb, 215, 161),
        ("128x72_crop_resize_64", &crop_resize, 128, 72),
        ("80x60_to_224", &thumb, 80, 60),
    ];

    for (name, plan, w, h) in cases {
        let src = smol_imgproc::ops::resize_bilinear_u8(&img, w, h).unwrap();
        let prefix = CompiledPrefix::compile(plan, w, h, &norm).unwrap();
        let mut staging = vec![0.0f32; prefix.out_elems()];
        let offloaded = plan.clone().split_at(plan.tail_start());
        let byte_prefix = CompiledPrefix::compile(&offloaded, w, h, &norm).unwrap();
        let mut byte_staging = vec![0u8; byte_prefix.out_elems()];
        rows.iter(&format!("preproc_prefix/prefix_reference/{name}"), || {
            execute_plan(plan, std::hint::black_box(&src), &norm).unwrap()
        });
        rows.iter(&format!("preproc_prefix/prefix_compiled/{name}"), || {
            prefix
                .run_into(std::hint::black_box(&src), &mut staging)
                .unwrap()
        });
        rows.iter(&format!("preproc_prefix/prefix_bytes/{name}"), || {
            byte_prefix
                .run_into_bytes(std::hint::black_box(&src), &mut byte_staging)
                .unwrap()
        });
        rows.iter(&format!("preproc_prefix/prefix_recompiled/{name}"), || {
            CompiledPrefix::compile(plan, w, h, &norm)
                .unwrap()
                .run_into(std::hint::black_box(&src), &mut staging)
                .unwrap()
        });
        // Gate (runs under `--test` too): staging bytes is never slower than
        // staging the tensor at the same geometry — a plan the planner moves
        // to the accelerator must not pay for it on the CPU. Interleaved
        // minima, the tensor path on both sides of the byte path; the gap
        // between its two readings is the estimator's noise.
        let time = |f: &mut dyn FnMut()| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        };
        let [mut before, mut bytes, mut after] = [f64::INFINITY; 3];
        for _ in 0..200 {
            let mut tensor = || {
                prefix
                    .run_into(std::hint::black_box(&src), &mut staging)
                    .unwrap()
            };
            before = before.min(time(&mut tensor));
            bytes = bytes.min(time(&mut || {
                byte_prefix
                    .run_into_bytes(std::hint::black_box(&src), &mut byte_staging)
                    .unwrap()
            }));
            after = after.min(time(&mut tensor));
        }
        let (tensor, noise) = (before.min(after), (before - after).abs());
        println!(
            "  gate prefix_bytes/{name}: bytes {:.2} us vs tensor {:.2} us (noise {:.2} us)",
            bytes * 1e6,
            tensor * 1e6,
            noise * 1e6
        );
        assert!(
            bytes <= tensor + noise.max(0.05 * tensor),
            "byte staging is slower than tensor staging on {name}"
        );
    }

    // What the producer stage computes from an item's encoded bytes before
    // (or instead of) decoding it: the tensor-cache key on every lookup —
    // `cache_key`, after the first call a read of the payload hash memoised
    // on the item's `Bytes` plus the header words; `payload_key_cold`, the
    // same key from scratch (what the first lookup of a buffer pays); and
    // the byte-serial on-disk `fingerprint` the word-wide hash replaced —
    // and the cascade's difficulty signal, table-driven against the
    // bit-by-bit reference walk. Two payload sizes: a 64-px lossless
    // thumbnail (~9 KB) and a full-resolution sjpg (~70 KB).
    let thumb = smol_imgproc::ops::resize_bilinear_u8(&img, 64, 64).unwrap();
    let items = [
        ("9k", EncodedImage::encode(&thumb, Format::Spng).unwrap()),
        ("70k", EncodedImage::encode(&img, Format::sjpg(95)).unwrap()),
    ];

    for (name, item) in &items {
        rows.iter(&format!("producer_keys/fingerprint/{name}"), || {
            std::hint::black_box(item).fingerprint()
        });
        let header = [0, item.width as u64, item.height as u64];
        rows.iter(&format!("producer_keys/payload_key_cold/{name}"), || {
            hash::content_key(&header, std::hint::black_box(&item.bytes))
        });
        // A memo read touches no payload byte: count lookups, not bytes.
        rows.iter(&format!("producer_keys/cache_key/{name}"), || {
            std::hint::black_box(item).cache_key()
        });
    }
    let (_, scan) = &items[1];
    rows.iter("producer_keys/signal/70k", || {
        sjpg_signal(std::hint::black_box(&scan.bytes)).unwrap()
    });

    // What a consumer thread spends per device batch before it can turn to
    // the next one: enqueueing the stream, or enqueueing it and sleeping it
    // out (the device time plus the host's wake-up overshoot). A ResNet-18
    // batch of 64 64-px tensors on a T4 at time scale 0.05.
    let spec = DeviceBatchSpec {
        dnn: ModelKind::ResNet18,
        pinned: true,
        extra_copy_per_batch: false,
    };
    let (images, bytes) = (64, 64 * 64 * 64 * 3 * 4);
    let device = VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 0.05);
    rows.iter("device_batch/launch", || {
        launch_device_batch(&device, &spec, images, bytes, 0.0)
    });
    rows.iter("device_batch/execute", || {
        execute_device_batch(&device, &spec, images, bytes, 0.0)
    });
}

/// `smol_video` stage by stage on the taipei serving corpus (128×72, six
/// frames per GOP) — the numbers `smol_core::rewrite::{P_FRAME_COST_RATIO,
/// DEBLOCK_COST_RATIO}` and `smol_codec::runlength::pair_window_bits` are
/// calibrated from. Every `*_fast` / `*_reference` pair produces the same
/// bytes (`tests/video_properties.rs`); each iteration covers all `GOPS`
/// GOPs (or all their P-frames / frames), so divide by that for per-item
/// time.
fn bench_video(rows: &Rows) {
    use smol_core::FrameSelection;
    use smol_video::{deblock, pframe, DecodeOptions as VideoOptions, FrameKind};
    const GOPS: usize = 16;
    let corpus = smol_data::gops::gop_corpus(&smol_data::catalog::video_catalog()[1], 42, GOPS, 6);
    let all = VideoOptions { deblock: true };
    // Every P-frame payload with the (filtered) frame it predicts from, and
    // every decoded frame before the filter.
    let mut pframes = Vec::new();
    let mut unfiltered = Vec::new();
    for gop in &corpus.gops {
        let (frames, _) = gop.decode_selected(FrameSelection::All, all).unwrap();
        for pos in 1..gop.n_frames() {
            let (kind, payload) = gop.frame_payload(pos);
            assert_eq!(kind, FrameKind::Predicted);
            pframes.push((payload, frames[pos - 1].image.clone()));
        }
        let (raw, _) = gop
            .decode_selected(FrameSelection::All, VideoOptions { deblock: false })
            .unwrap();
        unfiltered.extend(raw.into_iter().map(|f| f.image));
    }
    let (quality, range) = (corpus.gops[0].quality, corpus.gops[0].search_range);

    rows.iter("video_decode/gop_reference", || {
        for gop in &corpus.gops {
            std::hint::black_box(gop.decode_selected_reference(FrameSelection::All, all)).unwrap();
        }
    });
    rows.iter("video_decode/gop_fast", || {
        for gop in &corpus.gops {
            std::hint::black_box(gop.decode_selected(FrameSelection::All, all)).unwrap();
        }
    });
    rows.iter("video_decode/keyframe", || {
        for gop in &corpus.gops {
            std::hint::black_box(sjpg::decode(gop.frame_payload(0).1)).unwrap();
        }
    });
    rows.iter("video_decode/pframe_reference", || {
        for (payload, reference) in &pframes {
            pframe::decode_pframe_reference(payload, reference, quality, range).unwrap();
        }
    });
    rows.iter("video_decode/pframe_fast", || {
        for (payload, reference) in &pframes {
            pframe::decode_pframe(payload, reference, quality, range).unwrap();
        }
    });
    rows.batched(
        "video_decode/deblock_reference",
        || unfiltered.clone(),
        |mut frames| {
            frames
                .iter_mut()
                .for_each(|f| deblock::deblock_reference(f, 8));
            frames
        },
    );
    rows.batched(
        "video_decode/deblock_fast",
        || unfiltered.clone(),
        |mut frames| {
            frames.iter_mut().for_each(|f| deblock::deblock(f, 8));
            frames
        },
    );
    // Pair-LUT window against body size: a GOP keyframe (1.3 KB), a
    // half-size still (8 KB) and a full-resolution one (73 KB).
    let still = test_image();
    let half = smol_imgproc::ops::resize_bilinear_u8(&still, still.width() / 2, still.height() / 2)
        .unwrap();
    let bodies = [
        ("1k", corpus.gops[0].frame_payload(0).1.to_vec()),
        ("8k", SjpgEncoder::new(75).encode(&half).unwrap().to_vec()),
        ("70k", SjpgEncoder::new(95).encode(&still).unwrap().to_vec()),
    ];
    for (name, body) in &bodies {
        for bits in [8u32, 10, 12] {
            rows.iter(
                &format!("video_decode/keyframe_window/{bits}/{name}"),
                || sjpg::decode_with_window(std::hint::black_box(body), bits).unwrap(),
            );
        }
    }
}

fn bench_planner(rows: &Rows) {
    let plan = PreprocPlan::standard(256, 224, 224);
    rows.iter("dag_optimizer/optimize_standard_plan", || {
        DagOptimizer::default().optimize(std::hint::black_box(&plan), 640, 480)
    });
}

/// What a producer run of 16 cache-hit thumbnails costs in shared state,
/// single-threaded (so without the contention the run saves in a server):
/// its tensor-cache hits as one run lookup vs 16 single lookups, and its
/// batching — 16 items registered, pushed into a batch of 16 and settled
/// once — through the scheduler's `Batcher`.
fn bench_serving(rows: &Rows) {
    let cache = TensorCache::new(1 << 20);
    let keys: Vec<(u64, DecodeMode)> = (0..16).map(|k| (k, DecodeMode::Full)).collect();
    for &(key, mode) in &keys {
        let tiny = || Ok::<_, ()>(smol_imgproc::ImageU8::zeros(8, 8, 3));
        cache.get_or_decode(key, mode, tiny).unwrap();
    }
    rows.iter("tensor_cache/hits_run16", || {
        cache.get_resident_run(std::hint::black_box(&keys))
    });
    rows.iter("tensor_cache/hits_single16", || {
        for &(key, mode) in std::hint::black_box(&keys) {
            let miss = || -> Result<_, ()> { unreachable!("every key is resident") };
            std::hint::black_box(cache.get_or_decode(key, mode, miss).unwrap());
        }
    });

    let sig = Arc::new(PlacementSignature {
        dnn: ModelKind::ResNet18,
        batch: 16,
        out_w: 64,
        out_h: 64,
        frame_selection: None,
        accel_ops: Vec::new(),
    });
    let mut batcher: Batcher<u32> = Batcher::new(|_| Priority::Normal);
    let mut out = Vec::with_capacity(1);
    rows.iter("batcher/push_settle_16", || {
        batcher.register(&sig, Priority::Normal, 16);
        for token in 0..16 {
            out.extend(batcher.push(&sig, std::hint::black_box(token)));
        }
        batcher.settle(&sig, Priority::Normal, 16, &mut out);
        assert!(out.pop().is_some_and(|batch| batch.is_full()) && batcher.is_idle());
    });
}

/// The command line: `--test` runs each routine once, untimed; a
/// positional argument keeps only the rows whose `group/name` contains it.
struct Rows {
    smoke: bool,
    filter: Option<String>,
}

impl Rows {
    /// Times `routine` per call (see the module docs).
    fn iter<O>(&self, id: &str, mut routine: impl FnMut() -> O) {
        self.batched(id, || (), |()| routine());
    }

    /// Times `routine` per call on a fresh input from `setup`, which is
    /// built before the clock starts.
    fn batched<I, O>(
        &self,
        id: &str,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
    ) {
        if self
            .filter
            .as_ref()
            .is_some_and(|f| !id.contains(f.as_str()))
        {
            return;
        }
        if self.smoke {
            std::hint::black_box(routine(setup()));
            println!("  {id}: ok (smoke)");
        } else {
            let PerIter { ns, spread, batch } = per_iter(setup, routine);
            println!(
                "  {id}: {ns:.1} ns/iter (IQR {:.1}% of the median, batches of {batch})",
                spread * 100.0
            );
        }
    }
}

fn main() {
    // Cargo passes `--bench` (and `--test` under `cargo bench -- --test`).
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rows = Rows {
        smoke: args.iter().any(|a| a == "--test"),
        filter: args.into_iter().find(|a| !a.starts_with('-')),
    };
    rows.iter("timer/empty", || ());
    bench_codecs(&rows);
    bench_preproc(&rows);
    bench_video(&rows);
    bench_planner(&rows);
    bench_serving(&rows);
}
