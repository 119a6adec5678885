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
//! overlap alone is worth up to 2×; the acceptance bar is ≥ 1.4× (median
//! of 7 paired reps) for 4 concurrent homogeneous queries, with a
//! trimmed-spread stability check.
//!
//! The device is calibrated from a *measured* preprocessing rate: we
//! profile the plan's CPU side, then pick a virtual-device spec whose
//! execution rate at the plan's batch size matches it.

use smol_accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol_bench::{fmt_ratio, fmt_tput, run_once, Table};
use smol_codec::{EncodedImage, Format};
use smol_core::{InputVariant, Planner, PlannerConfig, QueryPlan};
use smol_imgproc::ImageU8;
use smol_runtime::{measure_preproc_throughput, wrap_images, RuntimeOptions};
use smol_serve::{Server, ServerConfig};
use std::time::Instant;

fn textured(w: usize, h: usize, seed: usize) -> ImageU8 {
    let mut img = ImageU8::zeros(w, h, 3);
    for y in 0..h {
        for x in 0..w {
            for c in 0..3 {
                img.set(x, y, c, ((x * 7 + y * 13 + c * 19 + seed * 23) % 256) as u8);
            }
        }
    }
    img
}

fn main() {
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
    let plan = QueryPlan {
        dnn: ModelKind::ResNet50,
        input: input.clone(),
        preproc: planner.build_preproc(&input),
        decode: planner.decode_mode(&input),
        batch,
    };
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

    // Interleaved A/B timing (the `decode_hotpath` estimator): each rep
    // runs one-at-a-time then all-at-once back to back, so slow host-load
    // drift hits both modes equally instead of biasing whichever block ran
    // second — the flake mode this gate used to exhibit when all
    // sequential reps ran first. The gate statistic is the **median of
    // the per-rep paired speedups** over 7 reps: pairing cancels
    // rep-scale load, and the median ignores the occasional rep where a
    // load spike landed inside exactly one block (the residual flake
    // mode of the old per-mode-minimum estimator, which read 1.47–1.59×
    // around the old 1.5× bar). A fresh device per repetition keeps the
    // reservation timelines independent, and both sides run without the
    // decoded-tensor cache: every image here is unique, and the gate
    // measures pipelining overlap, not cache wins.
    let reps = 7;
    let mut seq_walls = Vec::with_capacity(reps);
    let mut srv_walls = Vec::with_capacity(reps);
    let mut runs: Vec<(Vec<smol_serve::QueryReport>, smol_serve::ServerStats)> =
        Vec::with_capacity(reps);
    for _ in 0..reps {
        let seq_device = VirtualDevice::with_spec(spec.clone(), ExecutionEnv::TensorRt, 1.0);
        let seq_start = Instant::now();
        for items in &queries {
            run_once(&seq_device, opts, &plan, wrap_images(items));
        }
        seq_walls.push(seq_start.elapsed().as_secs_f64());

        let srv_device = VirtualDevice::with_spec(spec.clone(), ExecutionEnv::TensorRt, 1.0);
        let server = Server::new(
            srv_device,
            ServerConfig {
                runtime: opts,
                max_active_queries: n_queries,
                tensor_cache_bytes: 0,
                ..Default::default()
            },
        );
        let srv_start = Instant::now();
        let handles: Vec<_> = queries
            .iter()
            .map(|items| {
                server
                    .submit(plan.clone(), items.clone())
                    .expect("admitted")
            })
            .collect();
        let reports: Vec<_> = handles
            .into_iter()
            .map(|handle| handle.wait().expect("resolves"))
            .collect();
        srv_walls.push(srv_start.elapsed().as_secs_f64());
        let stats = server.stats();
        server.shutdown();
        runs.push((reports, stats));
    }
    let per_rep: Vec<f64> = seq_walls
        .iter()
        .zip(&srv_walls)
        .map(|(s, v)| s / v)
        .collect();
    let mut ranked: Vec<usize> = (0..reps).collect();
    ranked.sort_by(|&a, &b| per_rep[a].partial_cmp(&per_rep[b]).expect("finite walls"));
    let median_rep = ranked[reps / 2];
    let speedup = per_rep[median_rep];
    // Variance check over the middle five reps (min and max discarded):
    // a wide spread there means the host was too loaded for the numbers
    // to mean anything, and the gate should fail loudly rather than
    // pass or fail by luck.
    let trimmed: Vec<f64> = ranked[1..reps - 1].iter().map(|&i| per_rep[i]).collect();
    let spread = (trimmed[trimmed.len() - 1] - trimmed[0]) / speedup;
    let seq_wall = seq_walls[median_rep];
    let srv_wall = srv_walls[median_rep];
    let (reports, stats) = runs.swap_remove(median_rep);

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
    println!(
        "speedup {:.2}x vs one query at a time (median of {} paired reps, target ≥ 1.4x; \
         trimmed spread {:.1}%, limit 35%){}",
        speedup,
        reps,
        spread * 100.0,
        if speedup >= 1.4 && spread <= 0.35 {
            " — PASS"
        } else if speedup < 1.4 {
            " — BELOW TARGET"
        } else {
            " — UNSTABLE"
        }
    );
    // The acceptance gate is enforced (CI runs this in bench-smoke);
    // SMOL_NO_ENFORCE=1 opts out for exploratory runs on loaded machines.
    // An over-wide trimmed spread also fails: a measurement that noisy
    // would pass or fail by luck, which is exactly the flake this
    // estimator exists to remove.
    let enforce = std::env::var("SMOL_NO_ENFORCE")
        .map(|v| v != "1")
        .unwrap_or(true);
    if enforce && (speedup < 1.4 || spread > 0.35) {
        std::process::exit(1);
    }
}
