//! serve_fleet: fleet-scale serving gates — device sharding, work
//! stealing, and load-adaptive degradation.
//!
//! Three phases over the same calibrated workload:
//!
//! * **A — single device.** The baseline: 4 concurrent ResNet-50 queries
//!   through one lane. Records wall time and the worst per-query p95.
//! * **B — two-device fleet.** The identical workload over two lanes.
//!   The workload is calibrated *execution-bound* (device exec at 1/3 of
//!   the measured preprocessing rate), so adding a lane should nearly
//!   double aggregate throughput: the gate is ≥ 1.8×.
//! * **C — 2× overload with degradation.** 8 queries against the same
//!   2-lane fleet with admission capped at 4: the blocked submitters put
//!   the server under pressure, and each query carries a calibrated
//!   degradation ladder (ResNet-34 → ResNet-18) plus a deadline. The
//!   gates: at least one degradation fires, no report's accuracy lands
//!   below its floor, and the worst p95 stays under 2× the single-device
//!   baseline p95.
//! * **Mixed priority (printed, not gated).** One-batch High-priority
//!   queries on the same fleet, alone and beside a Normal-priority scan
//!   whose stills are 16× the pixels but whose plan has the same placement
//!   signature — so they share batches, which the scan fills slowly — as a
//!   ratio of query p50s, tensor cache off. The interactive tenant's tail
//!   is released when its own production is done, not when the scan has
//!   filled the batch they share; what is left of the ratio is the scan
//!   item a producer is in the middle of and the scan's batches ahead on
//!   the lanes.
//!
//! Calibration mirrors `serve_concurrent`: the plan's CPU side is
//! profiled on this machine, then the virtual-device spec is scaled so
//! its ResNet-50 rate at the serving batch is a fixed fraction of it.

use smol_accel::{DeviceSpec, ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol_bench::{fmt_ratio, fmt_tput, quick_mode, Table};
use smol_codec::{EncodedImage, Format};
use smol_core::{InputVariant, Planner, PlannerConfig, QueryPlan};
use smol_imgproc::ImageU8;
use smol_runtime::{measure_preproc_throughput, RuntimeOptions};
use smol_serve::{
    percentile, DegradeStep, Priority, QueryReport, Server, ServerConfig, ServerStats,
    SubmitOptions,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

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

fn plan_for(planner: &Planner, input: &InputVariant, dnn: ModelKind, batch: usize) -> QueryPlan {
    QueryPlan {
        dnn,
        input: input.clone(),
        preproc: planner.build_preproc(input),
        decode: planner.decode_mode(input),
        batch,
    }
}

/// One timed repetition: submit every query concurrently, wait for all,
/// return (wall, reports, stats). `max_active` below the query count
/// makes the surplus submitters block in admission (phase C's pressure).
fn serve_round(
    spec: &DeviceSpec,
    n_devices: usize,
    max_active: usize,
    plan: &QueryPlan,
    queries: &[Vec<EncodedImage>],
    opts_for: &dyn Fn(usize) -> SubmitOptions,
    runtime: &RuntimeOptions,
) -> (f64, Vec<QueryReport>, ServerStats) {
    let devices: Vec<_> = (0..n_devices)
        .map(|_| VirtualDevice::with_spec(spec.clone(), ExecutionEnv::TensorRt, 1.0))
        .collect();
    let server = Server::with_devices(
        devices,
        ServerConfig {
            runtime: *runtime,
            max_active_queries: max_active,
            ..Default::default()
        },
    );
    let start = Instant::now();
    let reports: Vec<QueryReport> = std::thread::scope(|scope| {
        let joins: Vec<_> = queries
            .iter()
            .enumerate()
            .map(|(i, items)| {
                let server = &server;
                let plan = plan.clone();
                let opts = opts_for(i);
                let items = items.clone();
                scope.spawn(move || {
                    server
                        .submit_opts(plan, items, opts)
                        .expect("admitted")
                        .wait()
                        .expect("resolves")
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("tenant"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let stats = server.stats();
    server.shutdown();
    (wall, reports, stats)
}

/// Wall seconds of `n` High-priority `interactive` queries, submitted one
/// after the other to a two-device fleet — alone, or beside a
/// Normal-priority tenant resubmitting `scan` for as long as they run.
fn interactive_walls(
    spec: &DeviceSpec,
    interactive: (&QueryPlan, &[EncodedImage]),
    scan: Option<(&QueryPlan, &[EncodedImage])>,
    runtime: &RuntimeOptions,
    n: usize,
) -> Vec<f64> {
    let devices = (0..2)
        .map(|_| VirtualDevice::with_spec(spec.clone(), ExecutionEnv::TensorRt, 1.0))
        .collect();
    let server = Server::with_devices(
        devices,
        ServerConfig {
            runtime: *runtime,
            tensor_cache_bytes: 0,
            ..Default::default()
        },
    );
    let stop = AtomicBool::new(false);
    let walls = std::thread::scope(|scope| {
        if let Some((plan, items)) = scan {
            let (server, stop) = (&server, &stop);
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let handle = server.submit(plan.clone(), items.to_vec());
                    handle.expect("admitted").wait().expect("resolves");
                }
            });
        }
        let high = SubmitOptions {
            priority: Priority::High,
            ..Default::default()
        };
        let walls = (0..n)
            .map(|_| {
                let start = Instant::now();
                let (plan, items) = interactive;
                let handle = server.submit_opts(plan.clone(), items.to_vec(), high.clone());
                handle.expect("admitted").wait().expect("resolves");
                start.elapsed().as_secs_f64()
            })
            .collect();
        stop.store(true, Ordering::Relaxed);
        walls
    });
    server.shutdown();
    walls
}

fn worst_p95(reports: &[QueryReport]) -> f64 {
    reports.iter().fold(0.0f64, |m, r| m.max(r.latency_p95_s))
}

fn main() {
    let items_per_query = 96usize;
    let batch = 16usize; // six device batches per query: fine-grained
                         // sharding so lanes can balance and steal
    let n_base = 4usize; // phases A and B
    let n_overload = 2 * n_base; // phase C: 2× overload
    let (w, h) = (128usize, 96usize);
    let dnn_input = 64u32;

    let planner = Planner::new(PlannerConfig {
        dnn_input,
        batch,
        ..Default::default()
    });
    let input = InputVariant::new("128x96 sjpg(q=85)", Format::sjpg(85), w, h);
    let plan = plan_for(&planner, &input, ModelKind::ResNet50, batch);
    // One consumer per lane: the virtual device serializes execution
    // anyway, and a single consumer keeps queue depth an honest load
    // signal for dispatch and stealing.
    let runtime = RuntimeOptions {
        consumers: 1,
        ..Default::default()
    };

    let queries: Vec<Vec<EncodedImage>> = (0..n_overload)
        .map(|q| {
            (0..items_per_query)
                .map(|i| {
                    EncodedImage::encode(&textured(w, h, q * items_per_query + i), Format::sjpg(85))
                        .expect("encode")
                })
                .collect()
        })
        .collect();

    // Calibrate execution-bound: device ResNet-50 rate at `batch` is 1/3
    // of the measured preprocessing rate, so the device — not the shared
    // producer pool — is the bottleneck and a second lane can pay off.
    let calib_items = if quick_mode() { 24 } else { items_per_query };
    let preproc_rate = measure_preproc_throughput(&queries[0][..calib_items], &plan, &runtime);
    let t4_rate_at_batch = VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 1.0)
        .model_throughput(ModelKind::ResNet50, batch);
    let mut spec = GpuModel::T4.spec();
    spec.resnet50_batch64 *= (preproc_rate / 3.0) / t4_rate_at_batch;
    let probe = VirtualDevice::with_spec(spec.clone(), ExecutionEnv::TensorRt, 1.0);
    println!(
        "calibration: preproc {} im/s → per-device exec {} im/s at batch {batch} (exec-bound)\n",
        fmt_tput(preproc_rate),
        fmt_tput(probe.model_throughput(ModelKind::ResNet50, batch)),
    );

    // The phase-C ladder: cheaper calibrated rungs over the *same* input
    // variant (ImageNet-style top-1 accuracies), all above the floor.
    let accuracy_rn50 = 0.7434;
    let floor = 0.66;
    let ladder = vec![
        DegradeStep {
            plan: plan_for(&planner, &input, ModelKind::ResNet34, batch),
            accuracy: 0.7190,
            est_throughput: probe.model_throughput(ModelKind::ResNet34, batch),
        },
        DegradeStep {
            plan: plan_for(&planner, &input, ModelKind::ResNet18, batch),
            accuracy: 0.6820,
            est_throughput: probe.model_throughput(ModelKind::ResNet18, batch),
        },
    ];

    let reps = if quick_mode() { 2 } else { 3 };
    let plain = |_: usize| SubmitOptions::default();

    // Phase A: single device, base load.
    let mut a: Option<(f64, Vec<QueryReport>, ServerStats)> = None;
    for _ in 0..reps {
        let round = serve_round(
            &spec,
            1,
            n_base,
            &plan,
            &queries[..n_base],
            &plain,
            &runtime,
        );
        if a.as_ref().is_none_or(|best| round.0 < best.0) {
            a = Some(round);
        }
    }
    let (wall_1, reports_1, _) = a.expect("phase A ran");
    let p95_1 = worst_p95(&reports_1);

    // Phase B: two-device fleet, identical load.
    let mut b: Option<(f64, Vec<QueryReport>, ServerStats)> = None;
    for _ in 0..reps {
        let round = serve_round(
            &spec,
            2,
            n_base,
            &plan,
            &queries[..n_base],
            &plain,
            &runtime,
        );
        if b.as_ref().is_none_or(|best| round.0 < best.0) {
            b = Some(round);
        }
    }
    let (wall_2, _, stats_2) = b.expect("phase B ran");
    let speedup = wall_1 / wall_2;

    // Phase C: 2× overload on the fleet. Admission capped at n_base puts
    // the surplus tenants in the wait queue (pressure), and a deadline
    // scaled off the single-device wall keeps the projection honest.
    let deadline = Duration::from_secs_f64((2.0 * wall_1).max(0.5));
    let slo = |_: usize| SubmitOptions {
        deadline: Some(deadline),
        ladder: ladder.clone(),
        accuracy: Some(accuracy_rn50),
        accuracy_floor: Some(floor),
        ..Default::default()
    };
    let mut c: Option<(f64, Vec<QueryReport>, ServerStats)> = None;
    for _ in 0..reps {
        let round = serve_round(&spec, 2, n_base, &plan, &queries, &slo, &runtime);
        if c.as_ref().is_none_or(|best| round.0 < best.0) {
            c = Some(round);
        }
    }
    let (wall_c, reports_c, stats_c) = c.expect("phase C ran");
    let p95_c = worst_p95(&reports_c);
    let degraded_queries = reports_c.iter().filter(|r| r.degraded_steps > 0).count();
    let floor_violations = reports_c
        .iter()
        .filter(|r| matches!((r.accuracy, r.accuracy_floor), (Some(acc), Some(fl)) if acc < fl))
        .count();
    let deadlines_met = reports_c
        .iter()
        .filter(|r| r.deadline_missed == Some(false))
        .count();

    // Mixed priority: alone and beside the scan, interleaved.
    let per_rep = if quick_mode() { 8 } else { 24 };
    let scan_input = InputVariant::new("512x384 sjpg(q=85)", Format::sjpg(85), 4 * w, 4 * h);
    let scan_plan = plan_for(&planner, &scan_input, ModelKind::ResNet50, batch);
    assert_eq!(
        scan_plan.placement_signature(),
        plan.placement_signature(),
        "the two tenants must share device batches"
    );
    let scan_items: Vec<EncodedImage> = (0..2 * batch)
        .map(|i| {
            EncodedImage::encode(&textured(4 * w, 4 * h, i), Format::sjpg(85)).expect("encode")
        })
        .collect();
    let interactive = (&plan, &queries[0][..batch]);
    let (mut alone, mut beside) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        for (walls, scan) in [
            (&mut alone, None),
            (&mut beside, Some((&scan_plan, &scan_items[..]))),
        ] {
            walls.extend(interactive_walls(
                &spec,
                interactive,
                scan,
                &runtime,
                per_rep,
            ));
        }
    }
    let (p50_alone, p50_beside) = (percentile(&alone, 0.5), percentile(&beside, 0.5));

    let total_base = (n_base * items_per_query) as f64;
    let total_over = (n_overload * items_per_query) as f64;
    let mut table = Table::new(
        format!(
            "serve_fleet — {n_base} queries × {items_per_query} images (batch {batch}, \
             exec-bound); overload = {n_overload} queries"
        ),
        &[
            "Phase",
            "Wall (s)",
            "Throughput (im/s)",
            "Worst p95 (ms)",
            "Speedup",
        ],
    );
    table.row(&[
        "A: 1 device".to_string(),
        format!("{wall_1:.3}"),
        fmt_tput(total_base / wall_1),
        format!("{:.1}", p95_1 * 1e3),
        fmt_ratio(1.0),
    ]);
    table.row(&[
        "B: 2-device fleet".to_string(),
        format!("{wall_2:.3}"),
        fmt_tput(total_base / wall_2),
        "—".to_string(),
        fmt_ratio(speedup),
    ]);
    table.row(&[
        "C: 2× overload + degrade".to_string(),
        format!("{wall_c:.3}"),
        fmt_tput(total_over / wall_c),
        format!("{:.1}", p95_c * 1e3),
        "—".to_string(),
    ]);
    table.print();
    table.write_csv("serve_fleet");

    println!(
        "\nfleet (phase B): {} batches, {} stolen; per-lane batches {:?}",
        stats_2.batches,
        stats_2.steals,
        stats_2
            .devices
            .iter()
            .map(|d| d.batches)
            .collect::<Vec<_>>(),
    );
    println!(
        "overload (phase C): {} degradations across {degraded_queries} queries, \
         {deadlines_met}/{n_overload} deadlines met, {floor_violations} floor violations",
        stats_c.degradations,
    );
    println!(
        "mixed priority (not gated): High {batch}-item query p50 {:.1} ms alone, {:.1} ms beside \
         a Normal {}-item scan of 16× the pixels sharing its signature — {} ({} queries \
         each, {reps} interleaved repetitions)",
        p50_alone * 1e3,
        p50_beside * 1e3,
        scan_items.len(),
        fmt_ratio(p50_beside / p50_alone),
        alone.len(),
    );

    let scale_ok = speedup >= 1.8;
    let p95_ok = p95_c < 2.0 * p95_1;
    let degrade_ok = stats_c.degradations > 0;
    let floor_ok = floor_violations == 0;
    println!(
        "\ngates: 1→2 device speedup {:.2}x (target ≥ 1.8x){} | overload p95 {:.1}ms vs \
         2×baseline {:.1}ms{} | degradations {}{} | floor violations {}{}",
        speedup,
        if scale_ok { " PASS" } else { " FAIL" },
        p95_c * 1e3,
        2.0 * p95_1 * 1e3,
        if p95_ok { " PASS" } else { " FAIL" },
        stats_c.degradations,
        if degrade_ok { " PASS" } else { " FAIL" },
        floor_violations,
        if floor_ok { " PASS" } else { " FAIL" },
    );
    // Enforced in CI (bench-smoke); SMOL_NO_ENFORCE=1 opts out for
    // exploratory runs on loaded machines.
    let enforce = std::env::var("SMOL_NO_ENFORCE")
        .map(|v| v != "1")
        .unwrap_or(true);
    if enforce && !(scale_ok && p95_ok && degrade_ok && floor_ok) {
        std::process::exit(1);
    }
}
