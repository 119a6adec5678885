//! serve_concurrent: throughput of homogeneous queries through the
//! `smol-serve` engine submitted all at once vs the same queries on the
//! same engine one at a time (`submit → wait`, a `Server::run_once` each).
//!
//! The serving regime is many *small* queries (here: one device batch
//! each). One at a time, each query runs as produce-everything →
//! execute-the-batch, so CPU preprocessing and accelerator execution
//! serialize *per query*; submitted together, the server overlaps query
//! k+1's preprocessing with query k's device execution and merges
//! same-signature items into shared batches. With preprocessing and
//! execution rates balanced (the worst case for either stage alone), the
//! overlap alone is worth up to 2×; the acceptance bar is ≥ 1.4× for 4
//! concurrent homogeneous queries, as the median of the shared paired
//! estimator's per-rep ratios (`smol_bench::measure`), with its spread
//! (interquartile range over median) at most 35 %.
//!
//! The device is calibrated from a *measured* preprocessing rate: we
//! profile the plan's CPU side, then pick a virtual-device spec whose
//! execution rate at the plan's batch size matches it.
#![deny(unsafe_code)]

use smol_accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol_bench::{fmt_ratio, fmt_tput, measure, run_once, simple_plan, timed, Gate, Table, REPS};
use smol_codec::{EncodedImage, Format};
use smol_core::{InputVariant, Planner, PlannerConfig};
use smol_data::textured;
use smol_runtime::{measure_preproc_throughput, wrap_images, RuntimeOptions};
use smol_serve::{Server, ServerConfig, SubmitRequest};
use std::process::ExitCode;

fn main() -> ExitCode {
    let n_queries = 4usize;
    // The workload is small by construction (one batch per query), so
    // quick mode changes nothing here — shrinking the queries would let
    // fixed overheads mask the overlap win.
    let items_per_query = 96;
    let batch = items_per_query; // one device batch per query: serving regime
    let (w, h) = (128usize, 96usize);
    let dnn_input = 64u32;

    let planner = Planner::new(PlannerConfig {
        dnn_input,
        batch,
        ..Default::default()
    });
    let input = InputVariant::new("128x96 sjpg(q=85)", Format::sjpg(85), w, h);
    let plan = simple_plan(&planner, ModelKind::ResNet50, input, batch);
    let opts = RuntimeOptions::default();

    let queries: Vec<Vec<EncodedImage>> = (0..n_queries)
        .map(|q| {
            (0..items_per_query)
                .map(|i| {
                    EncodedImage::encode(&textured(w, h, q * items_per_query + i), Format::sjpg(85))
                        .expect("encode")
                })
                .collect()
        })
        .collect();

    // Calibrate: preprocessing rate (the producer stage alone, this
    // machine) and a device whose execution rate at `batch` matches it. A
    // whole query's worth: on a 24-item sample one scheduling hiccup read a
    // quarter of the rate and unbalanced the comparison.
    let preproc_rate = measure_preproc_throughput(&queries[0], &plan, &opts);
    let t4_rate_at_batch = VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 1.0)
        .model_throughput(ModelKind::ResNet50, batch);
    let mut spec = GpuModel::T4.spec();
    spec.resnet50_batch64 *= preproc_rate / t4_rate_at_batch;
    println!(
        "calibration: preproc {} im/s → device exec {} im/s at batch {batch}\n",
        fmt_tput(preproc_rate),
        fmt_tput(
            VirtualDevice::with_spec(spec.clone(), ExecutionEnv::TensorRt, 1.0)
                .model_throughput(ModelKind::ResNet50, batch)
        ),
    );

    // The shared paired estimator: each rep runs one-at-a-time and
    // all-at-once back to back, alternating which goes first, so host-load
    // drift hits both modes alike; the gate reads the median per-rep
    // speedup and its spread. A fresh device per run keeps the reservation
    // timelines independent, and the server runs without the
    // decoded-tensor cache: every image here is unique, and the gate
    // measures pipelining overlap, not cache wins.
    let device = || VirtualDevice::with_spec(spec.clone(), ExecutionEnv::TensorRt, 1.0);
    let mut last = None;
    let paired = measure(
        || {
            let seq_device = device();
            timed(|| {
                for items in &queries {
                    run_once(&seq_device, opts, &plan, wrap_images(items));
                }
            })
            .0
        },
        || {
            let server = Server::new(
                device(),
                ServerConfig {
                    runtime: opts,
                    max_active_queries: n_queries,
                    tensor_cache_bytes: 0,
                    ..Default::default()
                },
            );
            let (wall, reports) = timed(|| {
                let handles: Vec<_> = queries
                    .iter()
                    .map(|items| {
                        server
                            .submit(SubmitRequest::stills(plan.clone(), items))
                            .expect("admitted")
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| handle.wait().expect("resolves"))
                    .collect::<Vec<_>>()
            });
            last = Some((reports, server.stats()));
            server.shutdown();
            wall
        },
    );
    let (speedup, spread) = (paired.ratio, paired.spread);
    let (seq_wall, srv_wall) = (paired.a, paired.b);
    let (reports, stats) = last.expect("the server ran");

    let total_images = (n_queries * items_per_query) as f64;

    let mut table = Table::new(
        format!(
            "serve_concurrent — {n_queries} homogeneous queries × {items_per_query} images \
             (batch {batch}, balanced preproc/exec)"
        ),
        &["Mode", "Wall (s)", "Throughput (im/s)", "Speedup"],
    );
    table.row(&[
        "one query at a time".to_string(),
        format!("{seq_wall:.3}"),
        fmt_tput(total_images / seq_wall),
        fmt_ratio(1.0),
    ]);
    table.row(&[
        format!("{n_queries} queries at once"),
        format!("{srv_wall:.3}"),
        fmt_tput(total_images / srv_wall),
        fmt_ratio(speedup),
    ]);
    table.print();
    table.write_csv("serve_concurrent");

    println!("\nper-query latency through the server:");
    for r in &reports {
        println!(
            "  query {:>2}: {:>3} images in {:.3}s  p50 {:.1}ms  p95 {:.1}ms",
            r.id,
            r.images,
            r.wall_s,
            r.latency_p50_s * 1e3,
            r.latency_p95_s * 1e3
        );
    }
    println!(
        "\nserver: {} batches ({} cross-query, {} full), device occupancy {:.0}%",
        stats.batches,
        stats.cross_query_batches,
        stats.full_batches,
        stats.device_occupancy() * 100.0
    );
    let mut gate = Gate::new("serve_concurrent");
    gate.check(
        speedup >= 1.4,
        format!("{speedup:.2}x vs one query at a time (median of {REPS} paired reps, gate ≥ 1.4x)"),
    );
    // A spread that wide means the host was too loaded for the speedup to
    // mean anything: it would pass or fail by luck.
    gate.check(
        spread <= 0.35,
        format!("paired spread {:.1} % (limit 35 %)", spread * 100.0),
    );
    gate.finish()
}
