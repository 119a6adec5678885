//! Quickstart: declarative, constraint-driven visual inference.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Registers a dataset (the §8.1 serving layout: full-resolution sjpg plus
//! natively-present thumbnails) with calibrated accuracies, then submits
//! two declarative queries: one tolerating 0.5 points of accuracy loss
//! (Smol picks the fast thumbnail plan) and one demanding full-fidelity
//! accuracy (forcing the naive full-resolution plan). No `CandidateSpec`s,
//! no hand-assembled `QueryPlan`s — profiling, calibration lookup, plan
//! selection, and caching all happen inside the session.
#![deny(unsafe_code)]

use smol::accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol::data::{serving_variants, still_catalog};
use smol::{AccuracyTable, Calibration, Dataset, Query, Session, SessionConfig};

fn main() -> Result<(), smol::Error> {
    // 1. One session = one device + one serving runtime + one plan cache.
    let device = VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 1.0);
    let session = Session::new(device, SessionConfig::default());

    // 2. Register the dataset once: 96 synthetic "photos" in the standard
    //    serving layout (full-res sjpg(q=95) + 161-px thumbnails), the DNN
    //    ladder to consider, and the calibration table accuracies are
    //    derived from (here the paper's published values; see
    //    `MeasuredCalibration` for deriving them from labeled images).
    let spec = &still_catalog()[3];
    let variants = serving_variants(spec, 1, 96).expect("encode serving variants");
    for v in &variants {
        println!(
            "registered {:22} {:4} KiB avg over {} images",
            v.name,
            v.items.iter().map(|e| e.size_bytes()).sum::<usize>() / v.items.len() / 1024,
            v.items.len()
        );
    }
    session.register(
        Dataset::new("photos")
            .with_model(ModelKind::ResNet50)
            .with_model(ModelKind::ResNet34)
            .with_encoded_variants(variants)
            .with_calibration(Calibration::Table(
                AccuracyTable::new()
                    .with(ModelKind::ResNet50, "full-res sjpg(q=95)", 0.7516)
                    .with(ModelKind::ResNet50, "161 spng", 0.7500)
                    .with(ModelKind::ResNet50, "161 sjpg(q=95)", 0.7497)
                    .with(ModelKind::ResNet50, "161 sjpg(q=75)", 0.7490)
                    .with(ModelKind::ResNet34, "full-res sjpg(q=95)", 0.7272),
            )),
    )?;

    // 3. Declarative query: "within half a point of the best accuracy,
    //    go as fast as possible." The session profiles each variant's
    //    decode+preprocess throughput, derives candidates, and resolves
    //    the constraint on the Pareto frontier.
    let query = Query::new("photos").max_accuracy_loss(0.005);
    let explanation = session.explain(&query)?;
    println!("\nPareto frontier:");
    for c in &explanation.frontier {
        println!(
            "  {:30} est {:6.0} im/s @ {:.2}% accuracy",
            c.plan.label(),
            c.est_throughput,
            c.accuracy * 100.0
        );
    }
    println!(
        "chosen under max_accuracy_loss(0.005): {}",
        explanation.chosen.plan.label()
    );

    let report = session.run(&query)?;
    println!(
        "\nexecuted {}: {:.0} im/s measured (estimate was {:.0})",
        report.label, report.throughput, explanation.chosen.est_throughput
    );

    // 4. A stricter tenant: full-fidelity accuracy only. The same session
    //    answers from the same calibrated candidates — the constraint, not
    //    the caller, picks the (slower) full-resolution plan.
    let strict = Query::new("photos").min_accuracy(0.7516);
    let strict_report = session.run(&strict)?;
    println!(
        "strict min_accuracy(0.7516) fell back to {}: {:.0} im/s — Smol speedup {:.1}x",
        strict_report.label,
        strict_report.throughput,
        report.throughput / strict_report.throughput
    );

    // 5. Identical queries replan for free: the plan cache answers them.
    let _ = session.explain(&query)?;
    let stats = session.cache_stats();
    println!(
        "\nplan cache: {} plans, {} profiled variants, {} hits / {} misses; \
         profiler ran {} measurements",
        stats.plans,
        stats.profiles,
        stats.hits,
        stats.misses,
        session.profiler().calls()
    );
    session.shutdown();
    Ok(())
}
