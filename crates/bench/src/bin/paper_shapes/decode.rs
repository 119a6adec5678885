//! The preprocessing-cost sections: Figure 1's per-image breakdown and
//! Figure 3's partial decoding.

use smol_accel::ModelKind;
use smol_bench::{measure, scaled, t4_device, timed, Gate, Table, VCPUS};
use smol_codec::{sjpg, spng, SjpgEncoder};
use smol_data::{still_catalog, throughput_images};
use smol_imgproc::ops::fused::fused_convert_normalize_split;
use smol_imgproc::ops::layout::{hwc_to_chw, to_f32};
use smol_imgproc::ops::normalize::{normalize_hwc, Normalization};
use smol_imgproc::ops::{center_crop_u8, resize_short_edge_u8};
use smol_imgproc::Rect;

/// Seconds per item of one pass of `f` over items `0..n` — the cost a side
/// of [`measure()`] reports.
fn secs_per_item<T>(n: usize, f: impl Fn(usize) -> T) -> f64 {
    let pass = || {
        for i in 0..n {
            std::hint::black_box(f(i));
        }
    };
    timed(pass).0 / n as f64
}

/// Figure 1: per-image decode / resize / normalize cost on one core beside
/// ResNet-50 and ResNet-18 execution on the T4. Shape: preprocessing on
/// four vCPUs is slower than either DNN, and the gap widens for the
/// smaller one (paper: 7.1× and 22.9×).
pub fn figure1(gate: &mut Gate) {
    let spec = &still_catalog()[3]; // imagenet-sim, 320x240 natives
    let n = scaled(64);
    let encoder = SjpgEncoder::new(95);
    let encoded: Vec<_> = throughput_images(spec, 7, n)
        .iter()
        .map(|img| encoder.encode(img).expect("encode"))
        .collect();
    let decoded: Vec<_> = encoded
        .iter()
        .map(|e| sjpg::decode(e).expect("decode"))
        .collect();
    let resize_crop = |i: usize| {
        let resized = resize_short_edge_u8(&decoded[i], 256).expect("resize");
        center_crop_u8(&resized, 224, 224).expect("crop")
    };
    let cropped: Vec<_> = (0..n).map(resize_crop).collect();
    let norm = Normalization::IMAGENET;

    let front = measure(
        || secs_per_item(n, |i| sjpg::decode(&encoded[i]).expect("decode")),
        || secs_per_item(n, resize_crop),
    );
    let tail = measure(
        || {
            secs_per_item(n, |i| {
                let mut t = to_f32(&cropped[i]);
                normalize_hwc(&mut t, &norm).expect("normalize");
                hwc_to_chw(&t)
            })
        },
        || secs_per_item(n, |i| fused_convert_normalize_split(&cropped[i], &norm)),
    );
    let (decode_us, resize_us) = (front.a * 1e6, front.b * 1e6);
    let (unfused_us, fused_us) = (tail.a * 1e6, tail.b * 1e6);
    let preproc_single = decode_us + resize_us + unfused_us;
    // Preprocessing parallelizes across the vCPUs (§2's setup).
    let preproc_us = preproc_single / VCPUS as f64;
    let device = t4_device();
    let rn50_us = 1e6 / device.model_throughput(ModelKind::ResNet50, 64);
    let rn18_us = 1e6 / device.model_throughput(ModelKind::ResNet18, 64);

    let mut table = Table::new(
        "Figure 1 — per-image breakdown (µs); paper values in parentheses",
        &[
            "Stage",
            "Ours 1-core (µs)",
            "Ours 4-core (µs)",
            "Paper 4-core (µs)",
        ],
    );
    for (name, us, paper) in [
        ("decode", decode_us, "1668"),
        ("resize+crop", resize_us, "201"),
        ("convert+normalize+split", unfused_us, "125"),
        ("fused conv+norm+split", fused_us, "—"),
        ("TOTAL preprocessing", preproc_single, "~2000"),
    ] {
        table.row(&[
            name.to_string(),
            format!("{us:.0}"),
            format!("{:.0}", us / VCPUS as f64),
            paper.to_string(),
        ]);
    }
    for (name, us, paper) in [
        ("ResNet-50 execution", rn50_us, "222"),
        ("ResNet-18 execution", rn18_us, "79"),
    ] {
        table.row(&[name.into(), "-".into(), format!("{us:.0}"), paper.into()]);
    }
    table.print();
    table.write_csv("figure1");

    let (gap50, gap18) = (preproc_us / rn50_us, preproc_us / rn18_us);
    gate.check(
        gap50 > 1.0 && gap18 > gap50,
        format!(
            "Figure 1: preprocessing binds ResNet-50 ({gap50:.1}x; paper 7.1x) and the gap widens \
             for ResNet-18 ({gap18:.1}x; paper 22.9x)"
        ),
    );
    gate.observe(
        decode_us > preproc_single / 2.0,
        format!(
            "Figure 1: decode is most of preprocessing ({:.0} %; paper ~75 %)",
            decode_us / preproc_single * 100.0
        ),
    );
    gate.observe(
        tail.ratio > 1.0,
        format!(
            "Figure 1: the fused tail is faster than the unfused one ({:.2}x, spread {:.0} %)",
            tail.ratio,
            tail.spread * 100.0
        ),
    );
}

/// Figure 3 / Algorithm 1: ROI decoding and raster early stopping on sjpg,
/// early stopping on spng. Shape: each partial decode does less work than
/// a full one — asserted on the decoder's own counters, not on time.
pub fn figure3(gate: &mut Gate) {
    let spec = &still_catalog()[3];
    let n = scaled(48);
    let natives = throughput_images(spec, 3, n);
    let encoder = SjpgEncoder::new(95);
    let encoded: Vec<_> = natives
        .iter()
        .map(|i| encoder.encode(i).expect("encode"))
        .collect();
    let (w, h) = (natives[0].width(), natives[0].height());
    // The central-crop ROI for a 224-input DNN: pre-image of the crop
    // under resize-short-edge-256 (Algorithm 1's geometry).
    let crop = ((224.0 * h as f64 / 256.0).round()) as usize;
    let roi = Rect::centered(w, h, crop, crop);
    println!(
        "\nFigure 3: image {w}x{h}, central ROI {}x{} at ({}, {})",
        roi.w, roi.h, roi.x, roi.y
    );

    let modes = [
        "full decode",
        "ROI decode (macroblock)",
        "early stop (raster)",
    ];
    let decode = |mode: usize, e: &[u8]| match mode {
        0 => sjpg::decode_with_stats(e).expect("decode").1,
        1 => sjpg::decode_roi(e, roi).expect("roi decode").2,
        _ => sjpg::decode_rows(e, roi.y_end()).expect("early stop").1,
    };
    // (symbols, IDCT blocks, MCU rows skipped) per image, summed over the
    // corpus and divided once.
    let work: Vec<[u64; 3]> = (0..modes.len())
        .map(|mode| {
            let mut sum = [0u64; 3];
            for e in &encoded {
                let s = decode(mode, e);
                sum[0] += s.symbols_decoded;
                sum[1] += s.blocks_idct;
                sum[2] += s.rows_skipped;
            }
            sum.map(|v| v / n as u64)
        })
        .collect();
    let pass = |mode| secs_per_item(n, |i| decode(mode, &encoded[i]));
    // Each partial mode paired against a full decode.
    let timings: Vec<_> = (1..modes.len())
        .map(|mode| measure(|| pass(0), || pass(mode)))
        .collect();

    let mut table = Table::new(
        "Figure 3 — partial decoding modes (sjpg, per-image averages)",
        &[
            "Mode",
            "µs/image",
            "Speedup",
            "Huffman symbols",
            "IDCT blocks",
            "MCU rows skipped",
        ],
    );
    for (i, name) in modes.iter().enumerate() {
        let (us, speedup) = match i {
            0 => (timings[0].a * 1e6, 1.0),
            _ => (timings[i - 1].b * 1e6, timings[i - 1].ratio),
        };
        table.row(&[
            name.to_string(),
            format!("{us:.0}"),
            format!("{speedup:.2}x"),
            work[i][0].to_string(),
            work[i][1].to_string(),
            work[i][2].to_string(),
        ]);
    }
    table.print();
    table.write_csv("figure3");

    // spng: a sequential stream, early stopping only (Table 4's distinction).
    let png = spng::encode(&natives[0]).expect("spng encode");
    let consumed = spng::decode_rows(&png, roi.y_end())
        .expect("spng early stop")
        .1;
    let spng_time = measure(
        || timed(|| spng::decode(&png).expect("spng decode")).0,
        || timed(|| spng::decode_rows(&png, roi.y_end()).expect("spng early stop")).0,
    );
    println!(
        "spng early stop after row {}: {:.2}x faster, consumed {:.0}% of the stream",
        roi.y_end(),
        spng_time.ratio,
        consumed * 100.0
    );

    let [full_work, roi_work, early_work] = [work[0], work[1], work[2]];
    gate.check(
        roi_work[0] < full_work[0] && roi_work[1] < full_work[1] && roi_work[2] > 0,
        format!(
            "Figure 3: ROI decode skips MCU rows and reads fewer symbols ({} vs {}) and IDCT \
             blocks ({} vs {}) than a full decode",
            roi_work[0], full_work[0], roi_work[1], full_work[1]
        ),
    );
    gate.check(
        early_work[1] < full_work[1] && early_work[2] > 0 && consumed < 1.0,
        format!(
            "Figure 3: early stopping skips the rows past the ROI (sjpg {} vs {} IDCT blocks; \
             spng reads {:.0} % of its stream)",
            early_work[1],
            full_work[1],
            consumed * 100.0
        ),
    );
}
