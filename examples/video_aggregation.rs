//! Video aggregation (the BlazeIt-style scenario of §3.2): "how many cars
//! per frame, on average?" answered with specialized-NN control variates.
//!
//! ```sh
//! cargo run --release --example video_aggregation
//! ```
#![deny(unsafe_code)]

use smol::analytics::{control_variate_mean, naive_mean, AggregationConfig, SpecializedCounter};
use smol::data::{generate_video, video_catalog};
use smol::nn::Tier;
use smol::video::{DecodeOptions, EncodedVideo, VideoEncoder};
use std::time::Instant;

fn main() {
    let spec = video_catalog()
        .into_iter()
        .find(|s| s.name == "taipei")
        .unwrap();
    println!("generating 600 frames of {}...", spec.name);
    let clip = generate_video(&spec, 5, 600);
    println!("true mean count: {:.3}", clip.mean_count());

    // Encode and decode the clip through the real video codec.
    let encoded = VideoEncoder::default()
        .encode_frames(&clip.frames, spec.fps)
        .unwrap();
    println!(
        "encoded: {:.0} KiB ({:.1}x compression)",
        encoded.len() as f64 / 1024.0,
        (clip.frames.len() * spec.full_res.0 * spec.full_res.1 * 3) as f64 / encoded.len() as f64
    );
    let video = EncodedVideo::parse(encoded).unwrap();
    let t0 = Instant::now();
    let decoded = video.decode_all(DecodeOptions::default()).unwrap();
    println!(
        "decoded {} frames in {:.2}s",
        decoded.len(),
        t0.elapsed().as_secs_f64()
    );

    // Train a specialized counter on the first half, predict everywhere.
    println!("training specialized counter...");
    let counter =
        SpecializedCounter::train(&decoded[..300], &clip.counts[..300], Tier::T50, 96, 11, 20);
    let preds: Vec<f64> = decoded.iter().map(|f| counter.predict(f)).collect();

    // Answer the query at a 0.2 absolute-error target, both ways. (With
    // only 600 frames, tighter targets exhaust the clip; Figure 9 handles
    // production scales.)
    let cfg = AggregationConfig {
        error_target: 0.2,
        seed: 1,
        ..Default::default()
    };
    let cv = control_variate_mean(&clip.counts, &preds, &cfg);
    let naive = naive_mean(&clip.counts, &cfg);
    println!("\naggregation query: mean cars/frame, error target 0.2 @ 95%");
    println!(
        "  control variate: estimate {:.3} (truth {:.3}), {} target-model samples, rho {:.2}",
        cv.estimate, cv.truth, cv.samples, cv.rho
    );
    println!(
        "  naive sampling:  estimate {:.3} (truth {:.3}), {} target-model samples",
        naive.estimate, naive.truth, naive.samples
    );
    let saved = naive.samples as f64 / cv.samples.max(1) as f64;
    println!("\nthe specialized NN cut target-model invocations by {saved:.1}x; at Mask R-CNN's");
    println!(
        "4 fps, that's {:.0}s of target-model time instead of {:.0}s.",
        cv.samples as f64 / 4.0,
        naive.samples as f64 / 4.0
    );
}
