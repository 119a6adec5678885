//! Partial decoding (§6.4, Figure 3): decode only the region a DNN needs.
//!
//! ```sh
//! cargo run --release --example partial_decode
//! ```
#![deny(unsafe_code)]

use smol::codec::{sjpg, EncodedImage, Format};
use smol::data::{still_catalog, throughput_images};
use smol::imgproc::Rect;
use std::time::Instant;

fn main() {
    let spec = &still_catalog()[2]; // birds-200: 400x300 natives
    let img = &throughput_images(spec, 2, 1)[0];
    let enc = EncodedImage::encode(img, Format::sjpg(90)).unwrap();
    println!(
        "image {}x{}, encoded {} KiB",
        img.width(),
        img.height(),
        enc.size_bytes() / 1024
    );

    // Full decode.
    let t0 = Instant::now();
    let (_, full_stats) = sjpg::decode_with_stats(&enc.bytes).unwrap();
    let full_us = t0.elapsed().as_secs_f64() * 1e6;

    // The DNN only wants the central 224x224-equivalent crop.
    let roi = Rect::centered(img.width(), img.height(), 263, 263);
    let t0 = Instant::now();
    let (crop_img, aligned, roi_stats) = sjpg::decode_roi(&enc.bytes, roi).unwrap();
    let roi_us = t0.elapsed().as_secs_f64() * 1e6;

    println!(
        "\nfull decode:  {full_us:.0} µs, {} Huffman symbols, {} IDCT blocks",
        full_stats.symbols_decoded, full_stats.blocks_idct
    );
    println!(
        "ROI decode:   {roi_us:.0} µs, {} Huffman symbols, {} IDCT blocks, {} MCU rows skipped",
        roi_stats.symbols_decoded, roi_stats.blocks_idct, roi_stats.rows_skipped
    );
    println!(
        "-> {:.1}x faster; decoded region {}x{} at ({}, {}) — block-aligned cover of the ROI",
        full_us / roi_us,
        crop_img.width(),
        crop_img.height(),
        aligned.x,
        aligned.y
    );

    // Early stopping: only the top rows (e.g. a sky detector).
    let t0 = Instant::now();
    let (top, stats) = sjpg::decode_rows(&enc.bytes, 64).unwrap();
    let early_us = t0.elapsed().as_secs_f64() * 1e6;
    println!(
        "\nearly stop after 64 rows: {early_us:.0} µs ({:.1}x faster), decoded {}x{}, {} rows skipped",
        full_us / early_us,
        top.width(),
        top.height(),
        stats.rows_skipped
    );
    println!("\nEvery skipped symbol/block is work not done — no model, just less decoding.");
}
