//! Image-classification workload (the Tahoma-style scenario of §3.2):
//! train real classifiers on a synthetic dataset, compare the naive
//! single-model deployment against Smol's thumbnail plan, and show a
//! cascade.
//!
//! ```sh
//! cargo run --release --example image_classification
//! ```
#![deny(unsafe_code)]

use smol::analytics::{tahoma_variants, Cascade};
use smol::data::{generate_stills, still_catalog};
use smol::nn::{ClassifierConfig, InputFormat, SmolClassifier, ThumbCodec, Tier};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // animals-10: 10 classes, moderate difficulty.
    let spec = still_catalog()
        .into_iter()
        .find(|s| s.name == "animals-10")
        .unwrap();
    println!("generating {} and training models...", spec.name);
    let ds = generate_stills(&spec, 7);
    let thumb = InputFormat::Thumbnail {
        short: spec.acc_thumb_short,
        codec: ThumbCodec::Lossless,
    };

    // Naive deployment: an accurate model on full-resolution inputs.
    let t0 = Instant::now();
    let target = SmolClassifier::train(
        &ClassifierConfig::new(Tier::T50),
        &ds.train,
        &ds.train_labels,
        ds.n_classes,
    );
    println!("trained SmolNet-50 in {:.1}s", t0.elapsed().as_secs_f64());
    let full_acc = target.evaluate(&ds.test, &ds.test_labels, InputFormat::FullRes);

    // Smol deployment: the same capacity, trained low-resolution-aware,
    // evaluated on thumbnails (which decode ~4x faster, §5.2).
    let aug = SmolClassifier::train(
        &ClassifierConfig::new(Tier::T50).with_augmentation(thumb),
        &ds.train,
        &ds.train_labels,
        ds.n_classes,
    );
    let naive_thumb_acc = target.evaluate(&ds.test, &ds.test_labels, thumb);
    let smol_thumb_acc = aug.evaluate(&ds.test, &ds.test_labels, thumb);
    println!("\naccuracy on {} test set:", spec.name);
    println!(
        "  SmolNet-50, full-res inputs:          {:.1}%",
        full_acc * 100.0
    );
    println!(
        "  SmolNet-50, thumbnails (naive train):  {:.1}%",
        naive_thumb_acc * 100.0
    );
    println!(
        "  SmolNet-50, thumbnails (aug train):    {:.1}%  <- Smol's plan",
        smol_thumb_acc * 100.0
    );

    // A Tahoma cascade: cheap specialized model in front of the target.
    let cascade = Cascade::train(
        tahoma_variants()[1],
        Arc::new(target),
        &ds.train,
        &ds.train_labels,
        ds.n_classes,
        3,
    );
    let eval = cascade.evaluate(&ds.test, &ds.test_labels, InputFormat::FullRes);
    println!(
        "\ncascade (T18@24px): {:.1}% accuracy, {:.0}% of inputs reach the target model",
        eval.accuracy * 100.0,
        eval.pass_rate * 100.0
    );
    println!(
        "-> with a pass rate of {:.2}, the cascade's effective execution rate is {:.0} im/s \
         (specialized 120k im/s, target 4.5k im/s)",
        eval.pass_rate,
        1.0 / (1.0 / 120_000.0 + eval.pass_rate / 4_513.0)
    );
    println!("\nBut remember Figure 4: on preprocessing-bound workloads all of these");
    println!("execution-side numbers are moot — the decode rate is the ceiling.");
}
