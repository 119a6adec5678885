//! Live-stream serving: a continuous video query with deadline-driven
//! downgrading and frame dropping.
//!
//! ```sh
//! cargo run --release --example live_stream
//! ```
//!
//! A camera feed is a *schedule*, not a file: GOPs exist only once their
//! frames have been captured, and a pipeline that falls behind arrival
//! rate must pay **fidelity** — cheaper calibrated plans, ultimately shed
//! GOPs — never unbounded queueing. This example runs the same taipei
//! corpus twice through [`smol::run_stream`]:
//!
//! 1. paced — the scheduler watches how far the oldest in-flight GOP is
//!    behind its arrival and maps that lag onto the query's calibrated
//!    downgrade ladder (deblock-skip, keyframes-only) or onto dropping
//!    the GOP. Every rung is at or above the constraint's accuracy
//!    floor, so floor violations are zero by construction;
//! 2. lesion — pacing disabled: every frame executes at full fidelity
//!    and the output staleness grows without bound.
//!
//! Results surface as tumbling stream-time windows of the per-frame
//! object count, each carrying its own drop/downgrade/staleness
//! accounting.
#![deny(unsafe_code)]

use smol::accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol::data::{timed_stream, video_catalog};
use smol::runtime::RuntimeOptions;
use smol::serve::ServerConfig;
use smol::stream::PacingPolicy;
use smol::{
    run_stream, AccuracyTable, Calibration, Dataset, FeedSource, Priority, Query, Session,
    SessionConfig, StreamConfig, StreamStats,
};
use std::sync::Arc;

fn session() -> Arc<Session> {
    let device = VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 0.05);
    Arc::new(Session::new(
        device,
        SessionConfig {
            server: ServerConfig {
                runtime: RuntimeOptions {
                    // Deterministic per-frame CPU cost so the overload is
                    // reproducible on any host.
                    extra_cpu_s_per_image: 0.003,
                    ..Default::default()
                },
                ..Default::default()
            },
            profile_sample: 4,
            ..Default::default()
        },
    ))
}

fn run(policy: PacingPolicy) -> Result<StreamStats, smol::Error> {
    // 1. The live feed: 72 GOPs x 6 frames of the taipei scene arriving
    //    at 200x real time — the whole 14.4s clip lands in ~72ms of wall
    //    clock, far faster than 3ms/frame can execute: a sustained
    //    overload. At full fidelity the backlog grows to ~0.3s, long
    //    enough for the lag to walk past the first rung (deblock-skip,
    //    which saves none of the per-frame cost) to keyframes-only, which
    //    runs one frame in six.
    let spec = video_catalog()
        .into_iter()
        .find(|s| s.name == "taipei")
        .expect("taipei scene");
    let feed = timed_stream(&spec, 13, 72, 6, 200.0);
    let variant = feed.corpus.name.clone();
    let counts = feed.corpus.counts.clone();

    // 2. Register once; the calibration table is the downgrade ladder's
    //    raw material (each knob's accuracy cost, all within the floor).
    let session = session();
    session.register(
        Dataset::stream("camera", &feed)
            .with_model(ModelKind::ResNet50)
            .with_calibration(Calibration::Table(
                AccuracyTable::new()
                    .with(ModelKind::ResNet50, &variant, 0.8200)
                    .with_keyframes(ModelKind::ResNet50, &variant, 0.8200, 0.8000)
                    .with_deblock_skip(ModelKind::ResNet50, &variant, 0.8200, 0.8100),
            )),
    )?;

    // 3. The continuous query: count objects, tolerate 3 points of
    //    accuracy loss — that tolerance *is* the pacer's headroom.
    let query = Query::new("camera").max_accuracy_loss(0.03);
    let cfg = StreamConfig {
        window_s: 0.6,
        policy,
        priority: Priority::High,
    };
    let handle = run_stream(
        &session,
        &query,
        FeedSource::new(feed),
        cfg,
        move |pos, _| counts.get(pos).copied().unwrap_or(0) as f64,
    )?;

    // 4. Windows stream out as they close.
    println!("  win  mean  cover  decoded  downgraded  dropped  stale(ms)");
    while let Some(w) = handle.next_window() {
        println!(
            "  {:3}  {:4.1}  {:4.0}%  {:7}  {:10}  {:7}  {:9.0}",
            w.index,
            w.mean,
            w.coverage * 100.0,
            w.frames_decoded,
            w.frames_downgraded,
            w.frames_dropped,
            w.output_lag_s * 1e3,
        );
    }
    Ok(handle.finish())
}

fn main() -> Result<(), smol::Error> {
    println!("paced (downgrade, then drop, never violate the floor):");
    let paced = run(PacingPolicy {
        enabled: true,
        target_lag_s: 0.03,
        drop_lag_s: 0.25,
    })?;

    println!("\nlesion (pacing off — full fidelity, unbounded staleness):");
    let lesion = run(PacingPolicy::disabled())?;

    for (name, s) in [("paced", &paced), ("lesion", &lesion)] {
        println!(
            "\n{name}: {}/{} GOPs run ({} downgraded, {} shed), \
             lag p50/p95 {:.0}/{:.0} ms, window coverage {:.0}%, \
             floor violations {}",
            s.gops_submitted,
            s.gops_arrived,
            s.gops_downgraded,
            s.gops_dropped,
            s.lag_p50_s * 1e3,
            s.lag_p95_s * 1e3,
            s.window_coverage * 100.0,
            s.floor_violations,
        );
    }
    assert_eq!(paced.floor_violations, 0);
    assert!(paced.lag_p95_s <= lesion.lag_p95_s);
    Ok(())
}
