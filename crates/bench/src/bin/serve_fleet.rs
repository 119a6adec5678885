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
//! Phases are compared pairwise by the shared estimator
//! (`smol_bench::measure`): A against B on wall time, A against C on the
//! worst query p95, each the median of interleaved per-rep ratios.
//!
//! Calibration mirrors `serve_concurrent`: the plan's CPU side is
//! profiled on this machine, then the virtual-device spec is scaled so
//! its ResNet-50 rate at the serving batch is a fixed fraction of it.
#![deny(unsafe_code)]

use smol_accel::{DeviceSpec, ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol_bench::{fmt_ratio, fmt_tput, measure, quick_mode, simple_plan, timed, Gate, Table};
use smol_codec::{EncodedImage, Format};
use smol_core::{InputVariant, Planner, PlannerConfig, QueryPlan};
use smol_data::textured;
use smol_runtime::{measure_preproc_throughput, RuntimeOptions};
use smol_serve::{
    percentile, DegradeStep, Priority, QueryReport, Server, ServerConfig, ServerStats,
    SubmitOptions, SubmitRequest,
};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

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
    let (wall, reports) = timed(|| {
        std::thread::scope(|scope| {
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
                            .submit(SubmitRequest::stills(plan, &items).options(opts))
                            .expect("admitted")
                            .wait()
                            .expect("resolves")
                    })
                })
                .collect();
            joins
                .into_iter()
                .map(|j| j.join().expect("tenant"))
                .collect::<Vec<QueryReport>>()
        })
    });
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
                    let handle = server.submit(SubmitRequest::stills(plan.clone(), items));
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
                let (plan, items) = interactive;
                let submit = || {
                    server.submit(SubmitRequest::stills(plan.clone(), items).options(high.clone()))
                };
                timed(|| submit().expect("admitted").wait().expect("resolves")).0
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

fn main() -> ExitCode {
    // Twelve device batches per query: fine-grained sharding so lanes can
    // balance and steal, and enough of them that a round's pipeline fill
    // and drain stay a small share of its wall time.
    let items_per_query = 192usize;
    let batch = 16usize;
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
    let plan_for = |input: &InputVariant, dnn| simple_plan(&planner, dnn, input.clone(), batch);
    let plan = plan_for(&input, ModelKind::ResNet50);
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
            plan: plan_for(&input, ModelKind::ResNet34),
            accuracy: 0.7190,
            est_throughput: probe.model_throughput(ModelKind::ResNet34, batch),
        },
        DegradeStep {
            plan: plan_for(&input, ModelKind::ResNet18),
            accuracy: 0.6820,
            est_throughput: probe.model_throughput(ModelKind::ResNet18, batch),
        },
    ];

    let plain = |_: usize| SubmitOptions::default();
    let round =
        |n_devices, queries: &[Vec<EncodedImage>], opts_for: &dyn Fn(usize) -> SubmitOptions| {
            serve_round(&spec, n_devices, n_base, &plan, queries, opts_for, &runtime)
        };

    // Phases A and B: one device against a two-device fleet on the same
    // base load, paired on wall time.
    let mut phase_b = None;
    let scaling = measure(
        || round(1, &queries[..n_base], &plain).0,
        || {
            let (wall, _, stats) = round(2, &queries[..n_base], &plain);
            phase_b = Some(stats);
            wall
        },
    );
    let (wall_1, wall_2, speedup) = (scaling.a, scaling.b, scaling.ratio);
    let stats_2 = phase_b.expect("phase B ran");

    // Phase C: 2× overload on the fleet, paired against phase A on the
    // worst query p95. Admission capped at n_base puts the surplus tenants
    // in the wait queue (pressure), and a deadline scaled off the
    // single-device wall keeps the projection honest.
    let deadline = Duration::from_secs_f64((2.0 * wall_1).max(0.5));
    let slo = |_: usize| SubmitOptions {
        deadline: Some(deadline),
        ladder: ladder.clone(),
        accuracy: Some(accuracy_rn50),
        accuracy_floor: Some(floor),
        ..Default::default()
    };
    let mut phase_c = Vec::new();
    let overload = measure(
        || worst_p95(&round(1, &queries[..n_base], &plain).1),
        || {
            let (wall, reports, stats) = round(2, &queries, &slo);
            let p95 = worst_p95(&reports);
            phase_c.push((wall, reports, stats));
            p95
        },
    );
    let (p95_1, p95_c) = (overload.a, overload.b);
    let degraded_reps = phase_c.iter().filter(|c| c.2.degradations > 0).count();
    let floor_violations: usize = phase_c
        .iter()
        .flat_map(|c| &c.1)
        .filter(|r| matches!((r.accuracy, r.accuracy_floor), (Some(acc), Some(fl)) if acc < fl))
        .count();
    let phase_c_reps = phase_c.len();
    // The table and the counters print the last overload run.
    let (wall_c, reports_c, stats_c) = phase_c.pop().expect("phase C ran");
    let degraded_queries = reports_c.iter().filter(|r| r.degraded_steps > 0).count();
    let deadlines_met = reports_c
        .iter()
        .filter(|r| r.deadline_missed == Some(false))
        .count();

    // Mixed priority: alone and beside the scan, interleaved.
    let per_rep = if quick_mode() { 8 } else { 24 };
    let scan_input = InputVariant::new("512x384 sjpg(q=85)", Format::sjpg(85), 4 * w, 4 * h);
    let scan_plan = plan_for(&scan_input, ModelKind::ResNet50);
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
    let p50 = |scan| {
        percentile(
            &interactive_walls(&spec, interactive, scan, &runtime, per_rep),
            0.5,
        )
    };
    let priority = measure(|| p50(None), || p50(Some((&scan_plan, &scan_items[..]))));
    let (p50_alone, p50_beside) = (priority.a, priority.b);

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
         a Normal {}-item scan of 16× the pixels sharing its signature — {} (medians of \
         {per_rep}-query p50s, paired)",
        p50_alone * 1e3,
        p50_beside * 1e3,
        scan_items.len(),
        fmt_ratio(1.0 / priority.ratio),
    );

    let mut gate = Gate::new("serve_fleet");
    gate.check(
        speedup >= 1.8,
        format!("1→2 device speedup {speedup:.2}x (gate ≥ 1.8x)"),
    );
    gate.check(
        overload.ratio > 0.5,
        format!(
            "overload p95 {:.1} ms under 2x the single-device p95 {:.1} ms ({:.2}x, paired)",
            p95_c * 1e3,
            p95_1 * 1e3,
            1.0 / overload.ratio
        ),
    );
    gate.check(
        degraded_reps == phase_c_reps,
        format!("degradation fired in {degraded_reps}/{phase_c_reps} overload runs"),
    );
    gate.check(
        floor_violations == 0,
        format!("{floor_violations} accuracy-floor violations across the overload runs"),
    );
    gate.finish()
}
