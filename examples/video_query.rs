//! Declarative video queries: GOPs in, constraint-driven plans out.
//!
//! ```sh
//! cargo run --release --example video_query
//! ```
//!
//! Registers a GOP-structured traffic corpus (encoded through the real
//! `smol_video` codec: sjpg I-frames, motion-compensated P-frames,
//! in-loop deblocking) with per-knob calibrated accuracies, then submits
//! two declarative queries. The tolerant one lets the planner pick the
//! keyframe-only + deblock-skip plan — decode skips every P-frame and the
//! in-loop filter, motion compensation never runs — while the
//! zero-loss one forces the full-GOP, full-fidelity plan. No
//! hand-assembled `QueryPlan`s anywhere: frame selection is the planner's
//! call, driven by the constraint and the calibration table.
#![deny(unsafe_code)]

use smol::accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol::data::{gop_corpus, video_catalog};
use smol::{AccuracyTable, Calibration, Dataset, Query, Session, SessionConfig};

fn main() -> Result<(), smol::Error> {
    let device = VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 1.0);
    let session = Session::new(device, SessionConfig::default());

    // 1. Encode the corpus: 16 GOPs x 12 frames of the taipei scene.
    let spec = video_catalog()
        .into_iter()
        .find(|s| s.name == "taipei")
        .expect("taipei scene");
    let corpus = gop_corpus(&spec, 7, 16, 12);
    let variant = corpus.name.clone();
    println!(
        "encoded {}: {} GOPs, {} frames, {:.0} KiB",
        variant,
        corpus.gops.len(),
        corpus.n_frames(),
        corpus.size_bytes() as f64 / 1024.0
    );

    // 2. Register it once. The calibration table records what each
    //    reduced-fidelity knob costs in accuracy: keyframe-only sampling
    //    (temporal 1-in-12) and deblock skipping (blocking artifacts +
    //    P-frame drift). Uncalibrated knobs would carry accuracy over.
    session.register(
        Dataset::video("traffic", corpus)
            .with_model(ModelKind::ResNet50)
            .with_calibration(Calibration::Table(
                AccuracyTable::new()
                    .with(ModelKind::ResNet50, &variant, 0.8100)
                    .with_keyframes(ModelKind::ResNet50, &variant, 0.8100, 0.7950)
                    .with_deblock_skip(ModelKind::ResNet50, &variant, 0.8100, 0.8060),
            )),
    )?;

    // 3. Tolerant query: "within 2 points of the best accuracy, go as
    //    fast as possible." The planner's joint cost model picks the
    //    keyframe-only + deblock-skip plan (decode cost amortizes to one
    //    intra frame per GOP; the DNN sees 1 of every 12 frames).
    let fast_query = Query::new("traffic").max_accuracy_loss(0.02);
    let explanation = session.explain(&fast_query)?;
    println!("\nPareto frontier over the video candidates:");
    for c in &explanation.frontier {
        println!(
            "  {:?} est {:6.0} source frames/s @ {:.2}% accuracy",
            c.plan.decode,
            c.est_throughput,
            c.accuracy * 100.0
        );
    }
    let fast = session.run(&fast_query)?;
    println!(
        "tolerant plan chose {:?}: inferred {} frames ({:.0} frames/s measured)",
        explanation.chosen.plan.decode, fast.images, fast.throughput
    );

    // 4. Zero-loss query: same dataset, same session — the constraint
    //    alone forces the full-GOP, in-loop-filtered plan.
    let strict = session.run(&Query::new("traffic").max_accuracy_loss(0.0))?;
    println!(
        "zero-loss plan fell back to full-GOP decode: inferred {} frames — \
         the tolerant plan answered the corpus {:.1}x faster",
        strict.images,
        strict.wall_s / fast.wall_s
    );
    session.shutdown();
    Ok(())
}
