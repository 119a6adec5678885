//! Multi-tenant serving: analytics tenants with different SLOs share a
//! two-device fleet through a declarative [`smol::Session`].
//!
//! Three tenants submit constraint-driven queries concurrently from
//! their own threads. Two tolerate a point of accuracy loss, so the
//! planner gives both the same fast thumbnail plan — their items merge
//! into shared device batches (same placement signature), and the second
//! tenant's planning is a pure cache hit. The third demands
//! full-fidelity accuracy and gets the full-resolution plan in its own
//! batches, interleaving fairly on the producers. A fourth tenant is
//! throughput-floored with degradation allowed — its query carries a
//! calibrated ladder of cheaper plans the scheduler may step down under
//! load — and is driven from the main thread with the non-blocking
//! handle (`poll`) instead of a blocking `wait`.
//!
//! Formed batches shard across the two device lanes (each to the lane
//! expected to finish it first); an idle lane steals from the fuller
//! queue. The per-device stats at the end show how the work split.
//!
//! ```sh
//! cargo run --release --example multi_tenant
//! ```
#![deny(unsafe_code)]

use smol::accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol::codec::{EncodedImage, Format};
use smol::core::{InputVariant, PlannerConfig};
use smol::imgproc::ops::resize::resize_short_edge_u8;
use smol::serve::{QueryPoll, ServerConfig};
use smol::{AccuracyTable, Calibration, Dataset, Priority, Query, Session, SessionConfig};
use std::time::Duration;

fn main() -> Result<(), smol::Error> {
    // A small heterogeneous fleet. The planner costs plans against the
    // first (slowest) device, so plans are conservative; the faster
    // V100 lane simply drains more batches.
    let fleet = vec![
        VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 1.0),
        VirtualDevice::new(GpuModel::V100, ExecutionEnv::TensorRt, 1.0),
    ];
    let session = Session::with_fleet(
        fleet,
        SessionConfig {
            planner: PlannerConfig {
                dnn_input: 112,
                batch: 16,
                ..Default::default()
            },
            server: ServerConfig {
                max_active_queries: 6,
                ..Default::default()
            },
            ..Default::default()
        },
    );

    // Shared synthetic footage, stored two ways: full-res frames and
    // natively-present 120-px thumbnails.
    let spec = &smol::data::still_catalog()[3];
    let natives = smol::data::throughput_images(spec, 11, 48);
    let full: Vec<EncodedImage> = natives
        .iter()
        .map(|img| EncodedImage::encode(img, Format::sjpg(95)).unwrap())
        .collect();
    let thumbs: Vec<EncodedImage> = natives
        .iter()
        .map(|img| {
            let t = resize_short_edge_u8(img, 120).unwrap();
            EncodedImage::encode(&t, Format::sjpg(75)).unwrap()
        })
        .collect();

    session.register(
        Dataset::new("footage")
            .with_model(ModelKind::ResNet50)
            .with_model(ModelKind::ResNet18)
            .with_variant(
                InputVariant::new("full-res sjpg(q=95)", Format::sjpg(95), 320, 240),
                full,
            )
            .with_variant(
                InputVariant::new("120 sjpg(q=75)", Format::sjpg(75), 160, 120).thumbnail(),
                thumbs,
            )
            .with_calibration(Calibration::Table(
                AccuracyTable::new()
                    .with(ModelKind::ResNet50, "full-res sjpg(q=95)", 0.750)
                    .with(ModelKind::ResNet50, "120 sjpg(q=75)", 0.740)
                    .with(ModelKind::ResNet18, "full-res sjpg(q=95)", 0.710)
                    .with(ModelKind::ResNet18, "120 sjpg(q=75)", 0.705),
            )),
    )?;

    // Each tenant states *requirements* — constraint plus SLOs; nobody
    // picks DNNs, formats, or devices.
    let tenants = [
        (
            "tenant-a (loss ≤ 1.5 pt, high prio)",
            Query::new("footage")
                .max_accuracy_loss(0.015)
                .priority(Priority::High)
                .deadline(Duration::from_secs(30)),
        ),
        (
            "tenant-b (loss ≤ 1.5 pt)",
            Query::new("footage").max_accuracy_loss(0.015),
        ),
        (
            "tenant-c (acc ≥ 0.745)",
            Query::new("footage").min_accuracy(0.745),
        ),
    ];
    // Throughput-floored with degradation allowed: the query ships with
    // the frontier's cheaper same-variant rungs (here ResNet-18 on
    // full-res) as its degradation ladder. Under pressure — or a
    // projected deadline miss — the scheduler steps the remaining items
    // down a rung; the report records how far it went.
    let tenant_d = Query::new("footage")
        .min_throughput(100.0)
        .allow_degradation(true)
        .deadline(Duration::from_secs(60));

    println!("tenants submitting concurrently…\n");
    let (reports, d_report) = std::thread::scope(|scope| {
        let handles: Vec<_> = tenants
            .iter()
            .map(|(name, query)| {
                let session = &session;
                scope.spawn(move || (*name, session.run(query).unwrap()))
            })
            .collect();
        // Tenant D stays on this thread and makes progress visible
        // through the non-blocking handle.
        let d_handle = session.submit(&tenant_d).unwrap();
        while let QueryPoll::Pending {
            produced, total, ..
        } = d_handle.poll()
        {
            println!("tenant-d (tput ≥ 100, degradable): {produced}/{total} produced");
            std::thread::sleep(Duration::from_millis(30));
        }
        let d_report = d_handle.wait().unwrap();
        let reports: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (reports, d_report)
    });

    println!();
    for (name, r) in reports
        .iter()
        .map(|(n, r)| (*n, r))
        .chain([("tenant-d (tput ≥ 100, degradable)", &d_report)])
    {
        let deadline = match r.deadline_missed {
            Some(false) => "deadline met",
            Some(true) => "deadline MISSED",
            None => "no deadline",
        };
        println!(
            "{name:<36} {} ({} images): {:6.1} im/s, p50 {:5.1} ms, p95 {:5.1} ms, \
             {} degradation steps, {deadline}",
            r.label,
            r.images,
            r.throughput,
            r.latency_p50_s * 1e3,
            r.latency_p95_s * 1e3,
            r.degraded_steps,
        );
    }
    let stats = session.stats();
    let cache = session.cache_stats();
    println!("\nserver totals:\n{stats}");
    for (i, lane) in stats.devices.iter().enumerate() {
        println!(
            "  lane {i}: {} batches ({} stolen in, {} launched behind another), {} images, \
             occupancy {:.0}%, retire lag {:.2} ms",
            lane.batches,
            lane.stolen_batches,
            lane.overlapped_batches,
            lane.images,
            lane.occupancy * 100.0,
            lane.retire_lag_s * 1e3
        );
    }
    println!(
        "plan cache: {} plans for 4 tenants ({} hits / {} misses)",
        cache.plans, cache.hits, cache.misses
    );
    session.shutdown();
    println!("session drained and shut down.");
    Ok(())
}
