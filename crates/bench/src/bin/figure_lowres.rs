//! Multi-resolution decoding end to end (§6.4, Table 4): full decode +
//! CPU resize vs the fused reduced-resolution (scaled-IDCT) decode, run
//! through the pipelined engine in the preprocessing-bound regime.
//!
//! The fused plan is the paper's signature shape — decode small, skip the
//! resize, feed the accelerator — and this binary is the CI gate for it:
//! it exits non-zero unless the fused plan (a) stays within a PSNR bound
//! of the reference path (full decode + downsample to the same geometry)
//! and (b) beats full-decode+resize end-to-end throughput by ≥ 1.3×, as
//! the median of paired runs (`smol_bench::measure`).
#![deny(unsafe_code)]

use smol_accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol_bench::{decode_label, measure, run_once, scaled, Gate, Table, VCPUS};
use smol_codec::{sjpg, EncodedImage, Format};
use smol_core::{DecodeMode, InputVariant, Planner, PlannerConfig, QueryPlan};
use smol_data::{still_catalog, throughput_images};
use smol_imgproc::ops::resize::{box_downsample_u8, resize_bilinear_u8};
use smol_imgproc::{psnr, ImageU8};
use smol_runtime::{wrap_images, RuntimeOptions};
use std::process::ExitCode;

/// Throughput-vs-reference gate: the fused plan must win by this factor.
const MIN_SPEEDUP: f64 = 1.3;
/// Fidelity gate for the fused decode vs full-decode + box-downsample.
const MIN_PSNR_DB: f64 = 24.0;

/// DNN input edge; sources are 8× larger so the factor-8 scaled decode
/// lands exactly on the DNN input and the resize is elided.
const DNN_INPUT: u32 = 64;
const SRC_EDGE: usize = 8 * DNN_INPUT as usize;

fn main() -> ExitCode {
    let spec = &still_catalog()[0];
    let n = scaled(48);
    // Natural-ish sources at 512×512 (dataset renders upsampled to the
    // multi-resolution-friendly geometry).
    let natives: Vec<ImageU8> = throughput_images(spec, 7, n)
        .iter()
        .map(|img| resize_bilinear_u8(img, SRC_EDGE, SRC_EDGE).expect("upsample"))
        .collect();
    let encoded: Vec<EncodedImage> = natives
        .iter()
        .map(|img| EncodedImage::encode(img, Format::sjpg(90)).expect("encode"))
        .collect();

    let planner = Planner::new(PlannerConfig {
        dnn_input: DNN_INPUT,
        batch: 16,
        ..Default::default()
    });
    let input = InputVariant::new(
        format!("{SRC_EDGE} sjpg(q=90)"),
        Format::sjpg(90),
        SRC_EDGE,
        SRC_EDGE,
    );
    let preproc = planner.build_preproc(&input);
    let mk_plan = |decode: DecodeMode| QueryPlan {
        dnn: ModelKind::ResNet50,
        input: input.clone(),
        preproc: preproc.clone(),
        decode,
        batch: 16,
    };
    let full_plan = mk_plan(DecodeMode::Full);
    // The planner must enumerate the fused mode itself (factor 8: 512/8 =
    // 64 = the DNN input, so the rewrite pass elides the resize).
    let reduced_mode = planner
        .reduced_decode_mode(&input)
        .expect("planner offers a reduced-resolution mode for this geometry");
    assert_eq!(
        reduced_mode,
        DecodeMode::reduced(8).expect("8 is a valid scaled-IDCT factor")
    );
    let reduced_plan = mk_plan(reduced_mode);

    // Fidelity: fused decode vs the reference path (full decode + box
    // downsample to the same geometry).
    let mut min_psnr = f64::INFINITY;
    let mut idct_full = 0u64;
    let mut idct_reduced = 0u64;
    for enc in encoded.iter().take(8) {
        let (full_img, fs) = sjpg::decode_with_stats(&enc.bytes).expect("full decode");
        let (small, rs) = sjpg::decode_scaled(&enc.bytes, 8).expect("scaled decode");
        let reference = box_downsample_u8(&full_img, 8).expect("reference downsample");
        min_psnr = min_psnr.min(psnr(&reference, &small));
        idct_full += fs.idct_macs;
        idct_reduced += rs.idct_macs;
    }

    // End-to-end throughput in the preprocessing-bound regime: a fast
    // device (scaled kernel times) keeps the CPU side the bottleneck.
    let opts = RuntimeOptions {
        producers: VCPUS,
        ..Default::default()
    };
    let device = || VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 0.02);
    let (mut full, mut reduced) = (None, None);
    let run = |plan, last: &mut Option<_>| {
        let report = run_once(&device(), opts, plan, wrap_images(&encoded));
        let wall = report.wall_s;
        *last = Some(report);
        wall
    };
    let speedup = measure(
        || run(&full_plan, &mut full),
        || run(&reduced_plan, &mut reduced),
    )
    .ratio;
    let (full, reduced) = (full.expect("ran"), reduced.expect("ran"));

    let mut table = Table::new(
        "Figure lowres — fused reduced-resolution decode vs full decode + resize",
        &[
            "Plan",
            "Decode",
            "im/s",
            "Speedup",
            "Decode CPU s",
            "IDCT MACs/image",
        ],
    );
    table.row(&[
        "full decode + resize".to_string(),
        decode_label(&full_plan.decode),
        format!("{:.0}", full.throughput),
        "1.00x".to_string(),
        format!("{:.2}", full.decode_cpu_s),
        format!("{}", idct_full / 8),
    ]);
    table.row(&[
        "fused reduced-res (resize elided)".to_string(),
        decode_label(&reduced_plan.decode),
        format!("{:.0}", reduced.throughput),
        format!("{speedup:.2}x"),
        format!("{:.2}", reduced.decode_cpu_s),
        format!("{}", idct_reduced / 8),
    ]);
    table.print();
    table.write_csv("figure_lowres");

    println!(
        "\nfidelity: min PSNR vs full-decode+box-downsample reference = {min_psnr:.1} dB \
         (gate ≥ {MIN_PSNR_DB} dB)"
    );
    println!(
        "IDCT work drop: {:.0}× fewer MACs; end-to-end speedup {speedup:.2}x (gate ≥ {MIN_SPEEDUP}x)",
        idct_full as f64 / idct_reduced.max(1) as f64
    );

    let mut gate = Gate::new("figure_lowres");
    gate.check(
        min_psnr >= MIN_PSNR_DB,
        format!("fused decode fidelity {min_psnr:.1} dB (gate ≥ {MIN_PSNR_DB} dB)"),
    );
    gate.check(
        speedup >= MIN_SPEEDUP,
        format!("end-to-end speedup {speedup:.2}x (gate ≥ {MIN_SPEEDUP}x)"),
    );
    gate.finish()
}
