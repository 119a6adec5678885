//! Decode hot path CI gate: the fast decode path (table-driven entropy
//! decoding, lane-batched IDCT/color kernels) against the scalar
//! reference — on `DecodeOptions::default()`, the options every producer
//! runs.
//!
//! Three checks on one grain-heavy sjpg corpus, the first two repeated for
//! the spng thumbnail decoder on the serving layout's thumbnails (`161
//! spng`, `64 spng`: fast ≡ seed walk in pixels and in `decode_rows`'
//! `consumed`, and ≥ 2× by the same estimator), plus a table of what each
//! low-resolution rung and the central-ROI decode cost beside a full decode
//! — the §5.2 premise as numbers: measured and planner-predicted time ratios
//! (printed), and the exact entropy symbols each reads (gated: a factor-4/8
//! decode reads at most a third of a full decode's, and the central ROI
//! skips at least half the symbols of the blocks left of the crop — their
//! high band, past the seek table):
//!
//! 1. **Bit identity** — the fast path must reproduce the reference
//!    decode exactly, at factor 1 and at every scaled-decode
//!    factor, for 4:4:4 and 4:2:0 chroma.
//! 2. **Speedup gate** — full decode through the fast path must beat the
//!    scalar sequential baseline by ≥ 2× wall-clock, as the median of
//!    paired, interleaved corpus passes (`smol_bench::measure`); the
//!    decode is single-threaded, so the gate is carried by the kernels
//!    alone.
//! 3. **Planner scenario** — with a 4:2:0 copy of the corpus registered as
//!    its own variant and *measured* decode throughput feeding the specs,
//!    a loss-tolerant constraint must choose the subsampled variant.
//!
//! Exits non-zero when any gate fails (CI wires this into bench-smoke).
#![deny(unsafe_code)]

use smol_accel::ModelKind;
use smol_bench::{measure, scaled, timed, Gate, Paired, Table};
use smol_codec::{sjpg, spng, Chroma, DecodeOptions, DecodeStats, EncodedImage, Format};
use smol_core::{decode_cost, CandidateSpec, Constraint, DecodeMode, InputVariant, Planner};
use smol_data::{serving_variants, still_catalog, throughput_images, StillSpec};
use smol_imgproc::ops::resize::resize_bilinear_u8;
use smol_imgproc::{ImageU8, Rect};
use std::process::ExitCode;

/// Wall-clock gate: fast path vs scalar sequential reference.
const MIN_SPEEDUP: f64 = 2.0;

/// Exact-count gate, as a fraction (numerator, denominator): a factor-4 or
/// factor-8 decode of the q95 stills reads at most a third of the entropy
/// symbols a full decode reads (two-segment streams: segment 1 only; ≈ 0.16×).
const MAX_REDUCED_SYMBOLS: (u64, u64) = (1, 3);

/// The central crop of the ROI rung: the DNN input edge the planner's
/// `CentralRoi` plans decode for.
const ROI_EDGE: usize = 224;

/// Source edge: large enough that per-decode timing dominates overhead.
const SRC_EDGE: usize = 768;

/// Adds deterministic fine-grain detail (±16 code values) on top of the
/// upsampled corpus. Bilinear upsampling produces unrealistically smooth
/// images whose blocks are nearly DC-only; real captures at this size
/// carry per-pixel texture that the entropy coder must actually encode,
/// which is exactly the cost the hot path optimizes.
fn add_grain(img: &mut ImageU8) {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for v in img.data_mut().iter_mut() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let n = ((state >> 59) as i16) - 16;
        *v = (*v as i16 + n).clamp(0, 255) as u8;
    }
}

/// The scalar reference against the fast path over a corpus: one decode
/// of every item per side per rep, paired. Asserts first that the two
/// decode every item identically.
fn reference_vs_fast<T: PartialEq + std::fmt::Debug>(
    n: usize,
    decode: impl Fn(usize, DecodeOptions) -> T,
) -> Paired {
    let (fast, reference) = (DecodeOptions::default(), DecodeOptions::scalar_reference());
    for i in 0..n {
        assert_eq!(
            decode(i, reference),
            decode(i, fast),
            "timed decodes diverged"
        );
    }
    let pass = |opts| {
        timed(|| {
            for i in 0..n {
                std::hint::black_box(decode(i, opts));
            }
        })
        .0
    };
    measure(|| pass(reference), || pass(fast))
}

/// The spng thumbnails of the serving layout for `spec`.
fn spng_thumbnails(spec: &StillSpec, n: usize) -> (String, Vec<EncodedImage>) {
    let variant = serving_variants(spec, 11, n)
        .expect("encode corpus")
        .into_iter()
        .find(|v| v.thumbnail && v.format == Format::Spng)
        .expect("the serving layout has an spng thumbnail");
    (variant.name, variant.items)
}

fn main() -> ExitCode {
    let spec = &still_catalog()[0];
    let n = scaled(12).min(12);
    let natives: Vec<ImageU8> = throughput_images(spec, 11, n)
        .iter()
        .map(|img| {
            let mut up = resize_bilinear_u8(img, SRC_EDGE, SRC_EDGE).expect("upsample");
            add_grain(&mut up);
            up
        })
        .collect();
    let fast = DecodeOptions::default();
    let reference = DecodeOptions::scalar_reference();

    // --- 1. Bit identity across chroma layouts and factors -------------
    for chroma in [Chroma::C444, Chroma::C420] {
        let enc = smol_codec::SjpgEncoder::with_chroma(90, chroma)
            .encode(&natives[0])
            .expect("encode");
        for factor in [1usize, 2, 4, 8] {
            let (a, sa) = sjpg::decode_scaled_opts(&enc, factor, reference).expect("reference");
            let (b, sb) = sjpg::decode_scaled_opts(&enc, factor, fast).expect("fast");
            assert_eq!(
                a.data(),
                b.data(),
                "fast path diverged: chroma {chroma:?} factor {factor}"
            );
            assert_eq!(sa.symbols_decoded, sb.symbols_decoded);
            assert_eq!(sa.idct_macs, sb.idct_macs);
        }
    }
    println!("bit identity: fast path == scalar sequential reference (444/420, factors 1/2/4/8)");

    // --- 2. Wall-clock speedup gate at factor 1 ------------------------
    // q=95: the high-fidelity ingest setting. Fine quantization keeps most
    // AC coefficients, which is exactly the regime the decode hot path is
    // for — and the regime where the bit-by-bit reference walk hurts most.
    let encoded: Vec<EncodedImage> = natives
        .iter()
        .map(|img| EncodedImage::encode(img, Format::sjpg(95)).expect("encode"))
        .collect();
    let sjpg_ab = reference_vs_fast(encoded.len(), |i, opts| {
        sjpg::decode_with_opts(&encoded[i].bytes, opts)
            .expect("decode")
            .0
    });
    let speedup = sjpg_ab.ratio;

    let mut table = Table::new(
        "Decode hot path — scalar sequential reference vs fast path",
        &["Path", "ms/image", "Speedup"],
    );
    table.row(&[
        "scalar sequential (reference)".to_string(),
        format!("{:.2}", sjpg_ab.a / encoded.len() as f64 * 1e3),
        "1.00x".to_string(),
    ]);
    table.row(&[
        "table-driven + SIMD (default options)".to_string(),
        format!("{:.2}", sjpg_ab.b / encoded.len() as f64 * 1e3),
        format!("{speedup:.2}x"),
    ]);
    table.print();
    table.write_csv("decode_hotpath");

    // --- 2b. spng thumbnails: bit identity and the same gate -----------
    // The natively present low-resolution inputs of §5.2, at the two sizes
    // the serving benchmark stores: the paper's 161-px short edge on
    // imagenet-sim, and 64 px on its thumbnail-scale rendering.
    let hard = still_catalog()[3].clone();
    let small = StillSpec {
        tput_native: (96, 96),
        tput_thumb_short: 64,
        ..hard.clone()
    };
    let mut spng_table = Table::new(
        "spng thumbnails — seed walk (reference) vs table-driven decoder",
        &["Variant", "KB", "reference us", "fast us", "Speedup"],
    );
    // (variant, speedup, fast µs) per thumbnail size, `hard` first.
    let mut spng_rows = Vec::new();
    for spec in [&hard, &small] {
        let (name, items) = spng_thumbnails(spec, n);
        for enc in &items {
            for rows in [1, enc.height / 3, enc.height - 1] {
                assert_eq!(
                    spng::decode_rows_opts(&enc.bytes, rows, reference).expect("reference"),
                    spng::decode_rows(&enc.bytes, rows).expect("fast"),
                    "{name}: early stop at {rows} rows diverged (pixels or consumed)"
                );
            }
        }
        let ab = reference_vs_fast(items.len(), |i, opts| {
            spng::decode_with_opts(&items[i].bytes, opts).expect("decode")
        });
        let per = 1e6 / items.len() as f64;
        spng_table.row(&[
            name.clone(),
            format!("{:.1}", items[0].size_bytes() as f64 / 1e3),
            format!("{:.0}", ab.a * per),
            format!("{:.0}", ab.b * per),
            format!("{:.2}x", ab.ratio),
        ]);
        spng_rows.push((name, ab.ratio, ab.b * per));
    }
    spng_table.print();
    spng_table.write_csv("decode_hotpath_spng");

    // --- 2c. The §5.2 premise as numbers -------------------------------
    // What each low-resolution rung costs beside the full-resolution decode
    // of the still the thumbnail was made from, beside what the planner's
    // weighted-op model predicts for it (ROADMAP item 4b; printed, not
    // gated), and the exact work per block: entropy symbols read and
    // coefficients dequantized. The symbol counts are gated: a factor-4/8
    // decode reads segment 1 of each row only.
    let stills: Vec<EncodedImage> = throughput_images(&hard, 11, n)
        .iter()
        .map(|img| EncodedImage::encode(img, Format::sjpg(95)).expect("encode"))
        .collect();
    let (w, h) = (stills[0].width, stills[0].height);
    let mut rungs = Table::new(
        format!(
            "Low-resolution rungs on {} {w}x{h} sjpg(q=95) (fast path)",
            hard.name
        ),
        &[
            "Decode",
            "us/image",
            "vs full",
            "planner vs full",
            "symbols/block",
            "coefs dequantized/block",
        ],
    );
    let blocks = (w.div_ceil(8) * h.div_ceil(8) * 3 * stills.len()) as f64;
    let input = InputVariant::new("q95", Format::sjpg(95), w, h);
    let predicted = |factor: usize| {
        let mode = match factor {
            1 => DecodeMode::Full,
            f => DecodeMode::reduced(f as u8).expect("factors 2/4/8"),
        };
        decode_cost(&input, mode).ops / decode_cost(&input, DecodeMode::Full).ops
    };
    // Each reduced rung paired against a full decode of the same stills.
    let pass = |factor: usize| {
        timed(|| {
            for enc in &stills {
                std::hint::black_box(sjpg::decode_scaled(&enc.bytes, factor).expect("decode"));
            }
        })
        .0
    };
    let vs_full: Vec<Paired> = [2, 4, 8]
        .into_iter()
        .map(|factor| measure(|| pass(1), || pass(factor)))
        .collect();
    let full_us = vs_full[0].a * 1e6 / stills.len() as f64;
    let mut full_symbols = 0;
    // (factor, symbols read) per reduced rung, for the gate below.
    let mut rung_symbols = Vec::new();
    for (i, factor) in [1usize, 2, 4, 8].into_iter().enumerate() {
        let mut work = DecodeStats::default();
        for enc in &stills {
            let stats = sjpg::decode_scaled(&enc.bytes, factor).expect("decode").1;
            work.symbols_decoded += stats.symbols_decoded;
            work.coefs_dequantized += stats.coefs_dequantized;
        }
        let (us, vs) = match i {
            0 => (full_us, 1.0),
            _ => {
                let p = &vs_full[i - 1];
                (p.b * 1e6 / stills.len() as f64, 1.0 / p.ratio)
            }
        };
        if factor == 1 {
            full_symbols = work.symbols_decoded;
        } else {
            rung_symbols.push((factor, work.symbols_decoded));
        }
        rungs.row(&[
            format!("sjpg factor {factor}"),
            format!("{us:.0}"),
            format!("{vs:.2}x"),
            format!("{:.2}x", predicted(factor)),
            format!("{:.2}", work.symbols_decoded as f64 / blocks),
            format!("{:.1}", work.coefs_dequantized as f64 / blocks),
        ]);
    }
    // The planner's central crop of the DNN input edge: µs and exact
    // symbols beside the full decode, and the walk the crop would take
    // without the seek table — from MCU column 0 — and what the blocks left
    // of the crop cost on it, for the gate below.
    let roi = Rect::centered(w, h, ROI_EDGE, ROI_EDGE);
    let aligned = roi.align_to_blocks(8, w, h);
    let roi_symbols = |rect: Rect| -> u64 {
        stills
            .iter()
            .map(|enc| {
                let (_, at, stats) = sjpg::decode_roi(&enc.bytes, rect).expect("decode");
                assert_eq!(at.x, rect.x, "the gate's regions are MCU-aligned");
                stats.symbols_decoded
            })
            .sum()
    };
    let central = roi_symbols(aligned);
    let from_col_0 = roi_symbols(Rect::new(0, aligned.y, aligned.x_end(), aligned.h));
    let margin = roi_symbols(Rect::new(0, aligned.y, aligned.x, aligned.h));
    let roi_pass = || {
        timed(|| {
            for enc in &stills {
                std::hint::black_box(sjpg::decode_roi(&enc.bytes, roi).expect("decode"));
            }
        })
        .0
    };
    let roi_ab = measure(|| pass(1), roi_pass);
    let roi_mode = DecodeMode::CentralRoi {
        crop_w: ROI_EDGE,
        crop_h: ROI_EDGE,
    };
    rungs.row(&[
        format!("sjpg central ROI {ROI_EDGE}"),
        format!("{:.0}", roi_ab.b * 1e6 / stills.len() as f64),
        format!("{:.2}x", 1.0 / roi_ab.ratio),
        format!(
            "{:.2}x",
            decode_cost(&input, roi_mode).ops / decode_cost(&input, DecodeMode::Full).ops
        ),
        format!("{:.2}", central as f64 / blocks),
        "-".to_string(),
    ]);
    let (thumb, _, thumb_us) = &spng_rows[0];
    rungs.row(&[
        format!("{thumb} thumbnail"),
        format!("{thumb_us:.0}"),
        format!("{:.2}x", thumb_us / full_us),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
    ]);
    rungs.print();
    rungs.write_csv("decode_hotpath_rungs");

    // --- 3. Planner scenario: the 4:2:0 variant wins -------------------
    // Both specs model a DNN calibrated at full 768² input whose accuracy
    // does NOT survive reduced-resolution decoding (reduced_accuracy well
    // below the tolerance), so the planner must decide on full decodes —
    // where the subsampled variant's measured decode throughput wins under
    // a loss-tolerant constraint.
    let planner = Planner::default();
    let mk_spec = |name: &str, format: Format, accuracy: f64, tput: f64| CandidateSpec {
        dnn: ModelKind::ResNet50,
        input: InputVariant::new(name, format, SRC_EDGE, SRC_EDGE),
        accuracy,
        preproc_throughput: tput,
        reduced_accuracy: Some(accuracy - 0.05),
        cascade: None,
        routing: Vec::new(),
        video: None,
        storage: None,
    };
    // Measure real relative decode throughput of the two chroma layouts.
    let enc444 = EncodedImage::encode(&natives[0], Format::sjpg(90)).expect("encode 444");
    let enc420 = smol_codec::SjpgEncoder::with_chroma(90, Chroma::C420)
        .encode(&natives[0])
        .expect("encode 420");
    let chroma = measure(
        || timed(|| sjpg::decode_with_opts(&enc444.bytes, fast)).0,
        || timed(|| sjpg::decode_with_opts(&enc420, fast)).0,
    );
    let (t444, t420) = (chroma.a, chroma.b);
    let specs = [
        mk_spec("full sjpg(q=90)", Format::sjpg(90), 0.7516, 1.0 / t444),
        mk_spec(
            "full sjpg420(q=90)",
            Format::sjpg420(90),
            0.7504,
            1.0 / t420,
        ),
    ];
    let chosen = planner
        .plan(&specs, &Constraint::MaxAccuracyLoss(0.005))
        .expect("constraint is feasible");
    println!(
        "\n420 decode: {:.2} ms vs 444 {:.2} ms ({:.2}x); planner chose: {}",
        t420 * 1e3,
        t444 * 1e3,
        t444 / t420,
        chosen.plan.input.name
    );

    let mut gate = Gate::new("decode_hotpath");
    gate.check(
        speedup >= MIN_SPEEDUP,
        format!("sjpg fast path {speedup:.2}x the scalar reference (gate ≥ {MIN_SPEEDUP}x)"),
    );
    for (name, speedup, _) in &spng_rows {
        gate.check(
            *speedup >= MIN_SPEEDUP,
            format!("{name} fast path {speedup:.2}x the seed walk (gate ≥ {MIN_SPEEDUP}x)"),
        );
    }
    for (factor, symbols) in rung_symbols.into_iter().filter(|&(f, _)| f >= 4) {
        gate.check(
            symbols * MAX_REDUCED_SYMBOLS.1 <= full_symbols * MAX_REDUCED_SYMBOLS.0,
            format!(
                "a factor-{factor} decode reads {symbols} entropy symbols, at most {}/{} of the \
                 full decode's {full_symbols}",
                MAX_REDUCED_SYMBOLS.0, MAX_REDUCED_SYMBOLS.1
            ),
        );
    }
    gate.check(
        2 * from_col_0.saturating_sub(central) >= margin,
        format!(
            "the central ROI decode reads {central} entropy symbols, {} fewer than its rows read \
             from column 0: at least half the {margin} of the blocks left of the crop",
            from_col_0.saturating_sub(central)
        ),
    );
    gate.check(
        chosen.plan.input.format.is_chroma_subsampled(),
        "the planner chooses the 4:2:0 variant under a loss-tolerant constraint",
    );
    gate.finish()
}
