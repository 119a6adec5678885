//! The video workload end to end (§6.4 applied to GOP-structured input):
//! keyframe-only + deblock-skip decoding vs full-GOP full-fidelity
//! decoding, run through the pipelined engine in the preprocessing-bound
//! regime.
//!
//! Keyframe-only selection is the video analogue of the paper's partial
//! decoding — it skips the motion-compensated P-frame path *entirely* —
//! and deblock skipping is Table 4's reduced-fidelity decoding. This
//! binary is the CI gate for the video plan path: it exits non-zero
//! unless the fast plan (a) keeps its decoded keyframes within a PSNR
//! bound of the pristine source frames (the accuracy floor), (b) beats
//! the full-decode plan by ≥ 2× in end-to-end wall time over the same
//! corpus (the median of paired runs, `smol_bench::measure`), and (c)
//! demonstrably performed zero motion compensation.
#![deny(unsafe_code)]

use smol_accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol_bench::{decode_label, measure, run_once, scaled, Gate, Table, VCPUS};
use smol_core::{DecodeMode, FrameSelection, InputVariant, Planner, PlannerConfig, QueryPlan};
use smol_data::{gop_corpus, video_catalog};
use smol_imgproc::ops::resize_short_edge_u8;
use smol_imgproc::{psnr, ImageU8};
use smol_runtime::{wrap_gops, RuntimeOptions};
use smol_video::DecodeOptions;
use std::process::ExitCode;

/// End-to-end corpus wall-time gate: the fast plan must win by this
/// factor.
const MIN_SPEEDUP: f64 = 2.0;
/// Accuracy floor: decoded keyframes (filter skipped) vs the pristine
/// source frames. 24 dB is well past "recognizable to a classifier" and
/// documents how much fidelity the deblock-skip path may cost.
const MIN_PSNR_DB: f64 = 24.0;

const GOP_LEN: usize = 12;

fn main() -> ExitCode {
    let spec = video_catalog()
        .into_iter()
        .find(|s| s.name == "taipei")
        .expect("taipei scene in the catalog");
    let n_gops = scaled(24);
    println!(
        "encoding {} GOPs x {GOP_LEN} frames of {} at {}x{} ...",
        n_gops, spec.name, spec.low_res.0, spec.low_res.1
    );
    let corpus = gop_corpus(&spec, 7, n_gops, GOP_LEN);
    println!(
        "corpus: {} frames, {:.0} KiB ({:.1}x compression)",
        corpus.n_frames(),
        corpus.size_bytes() as f64 / 1024.0,
        (corpus.n_frames() * corpus.width * corpus.height * 3) as f64 / corpus.size_bytes() as f64
    );

    // The planner must offer the fast mode itself for this input.
    let planner = Planner::new(PlannerConfig {
        dnn_input: 64,
        batch: 16,
        ..Default::default()
    });
    let input = InputVariant::new(
        corpus.name.clone(),
        corpus.format(),
        corpus.width,
        corpus.height,
    )
    .video(corpus.gop_len);
    let fast_mode = DecodeMode::Video {
        selection: FrameSelection::Keyframes,
        deblock: false,
    };
    assert!(
        planner.video_decode_modes(&input).contains(&fast_mode),
        "planner must enumerate keyframe-only + deblock-skip for GOP inputs"
    );
    let full_mode = planner.decode_mode(&input);
    assert_eq!(
        full_mode,
        DecodeMode::Video {
            selection: FrameSelection::All,
            deblock: true
        }
    );
    let mk_plan = |decode: DecodeMode| QueryPlan {
        dnn: ModelKind::ResNet50,
        input: input.clone(),
        preproc: planner.build_preproc(&input),
        decode,
        batch: 16,
    };

    // Fidelity + work accounting on the first few GOPs: keyframes decoded
    // without the filter vs the pristine rendered source frames. The
    // generator is deterministic per (spec, seed), so rendering only the
    // compared prefix reproduces the corpus's exact source frames.
    const FIDELITY_GOPS: usize = 8;
    let short = corpus.width.min(corpus.height);
    let sources: Vec<ImageU8> =
        smol_data::generate_video(&spec, 7, n_gops.min(FIDELITY_GOPS) * GOP_LEN)
            .frames
            .iter()
            .map(|f| resize_short_edge_u8(f, short).expect("source resize"))
            .collect();
    let mut min_psnr = f64::INFINITY;
    let mut mc_blocks = 0u64;
    let mut untouched = 0u64;
    for gop in corpus.gops.iter().take(FIDELITY_GOPS) {
        let (frames, stats) = gop
            .decode_selected(FrameSelection::Keyframes, DecodeOptions { deblock: false })
            .expect("keyframe decode");
        mc_blocks += stats.mc_macroblocks;
        untouched += stats.frames_untouched;
        for f in &frames {
            min_psnr = min_psnr.min(psnr(&sources[gop.start_frame + f.index], &f.image));
        }
    }

    // End-to-end wall time over the same corpus, preprocessing-bound (the
    // fast virtual device keeps the CPU side the bottleneck). The full
    // plan infers every frame; the fast plan answers the same corpus from
    // its keyframes — the win compounds decode savings and temporal
    // sampling, which is exactly the end-to-end trade the planner costs.
    let items = wrap_gops(&corpus.gops);
    let opts = RuntimeOptions {
        producers: VCPUS,
        ..Default::default()
    };
    let device = || VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 0.02);
    let full_plan = mk_plan(full_mode);
    let fast_plan = mk_plan(fast_mode);
    let (mut full, mut fast) = (None, None);
    let run = |plan, last: &mut Option<_>| {
        let report = run_once(&device(), opts, plan, items.clone());
        let wall = report.wall_s;
        *last = Some(report);
        wall
    };
    let speedup = measure(|| run(&full_plan, &mut full), || run(&fast_plan, &mut fast)).ratio;
    let (full, fast) = (full.expect("ran"), fast.expect("ran"));
    // Source-frames covered per second: both plans answer the same corpus
    // of n_gops x GOP_LEN source frames, so corpus frames over wall time
    // is the comparable end-to-end rate.
    let src_rate = |wall: f64| corpus.n_frames() as f64 / wall;

    let mut table = Table::new(
        "Figure video — keyframe-only + deblock-skip vs full-GOP decode",
        &[
            "Plan",
            "Decode",
            "Frames inferred",
            "Wall s",
            "Source frames/s",
            "Speedup",
        ],
    );
    table.row(&[
        "full-GOP, in-loop filter".to_string(),
        decode_label(&full_plan.decode),
        format!("{}", full.images),
        format!("{:.2}", full.wall_s),
        format!("{:.0}", src_rate(full.wall_s)),
        "1.00x".to_string(),
    ]);
    table.row(&[
        "keyframes, filter skipped".to_string(),
        decode_label(&fast_plan.decode),
        format!("{}", fast.images),
        format!("{:.2}", fast.wall_s),
        format!("{:.0}", src_rate(fast.wall_s)),
        format!("{speedup:.2}x"),
    ]);
    table.print();
    table.write_csv("figure_video");

    println!(
        "\nfidelity: min keyframe PSNR vs pristine source = {min_psnr:.1} dB (gate ≥ {MIN_PSNR_DB} dB)"
    );
    println!(
        "work skipped: {untouched} P-frames untouched, {mc_blocks} motion-compensated \
         macroblocks (must be 0); end-to-end speedup {speedup:.2}x (gate ≥ {MIN_SPEEDUP}x)"
    );

    let mut gate = Gate::new("figure_video");
    gate.check(
        mc_blocks == 0,
        format!("keyframe-only decode performed {mc_blocks} motion-compensated macroblocks"),
    );
    gate.check(
        min_psnr >= MIN_PSNR_DB,
        format!("keyframe fidelity {min_psnr:.1} dB (gate ≥ {MIN_PSNR_DB} dB)"),
    );
    gate.check(
        speedup >= MIN_SPEEDUP,
        format!("end-to-end speedup {speedup:.2}x (gate ≥ {MIN_SPEEDUP}x)"),
    );
    gate.finish()
}
