//! live_stream: continuous-query serving gates — deadline-driven
//! downgrading and shedding under sustained overload.
//!
//! The workload is calibrated on this machine: a batch run over a probe
//! corpus measures the pipeline's full-fidelity frame rate, then the
//! live feed is scheduled to arrive at **2× that rate** — a sustained
//! overload no amount of queueing can absorb. A deterministic per-frame
//! CPU cost (synthetic work, as in the personality harnesses) keeps the
//! ratio stable across hosts.
//!
//! Two runs over the identical feed:
//!
//! * **paced** — the stream scheduler downgrades GOPs along the query's
//!   calibrated ladder (deblock-skip, keyframes-only) and sheds only as
//!   a last resort. Gates: p95 window staleness < 2 window durations,
//!   window coverage ≥ 90%, zero accuracy-floor violations, and every
//!   windowed mean inside its window's ground-truth count range (the
//!   calibrated error bound for a temporal subsample);
//! * **lesion** — pacing disabled: every frame executes at full
//!   fidelity. Gate: staleness grows monotonically across windows (the
//!   unbounded-queueing failure mode the scheduler exists to prevent).
#![deny(unsafe_code)]

use smol_accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol_bench::{quick_mode, timed, Gate, Table};
use smol_data::{timed_stream, video_catalog, StreamFeed, VideoSpec};
use smol_runtime::RuntimeOptions;
use smol_serve::{Priority, Query, ServerConfig, Session, SessionConfig};
use smol_stream::{run_stream, FeedSource, PacingPolicy, StreamConfig, WindowResult};
use std::process::ExitCode;
use std::sync::Arc;

const GOP_LEN: usize = 6;
const EXTRA_CPU_S: f64 = 0.02; // deterministic per-frame cost
const WINDOW_S: f64 = 4.0; // stream seconds per output window

fn taipei() -> VideoSpec {
    video_catalog()
        .into_iter()
        .find(|s| s.name == "taipei")
        .expect("taipei scene")
}

fn session() -> Arc<Session> {
    let device = VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 0.05);
    Arc::new(Session::new(
        device,
        SessionConfig {
            server: ServerConfig {
                runtime: RuntimeOptions {
                    extra_cpu_s_per_image: EXTRA_CPU_S,
                    ..Default::default()
                },
                ..Default::default()
            },
            profile_sample: 2,
            ..Default::default()
        },
    ))
}

fn register(session: &Session, feed: &StreamFeed) {
    let variant = feed.corpus.name.clone();
    session
        .register(
            smol_serve::Dataset::stream("camera", feed)
                .with_model(ModelKind::ResNet50)
                .with_calibration(smol_serve::Calibration::Table(
                    smol_serve::AccuracyTable::new()
                        .with(ModelKind::ResNet50, &variant, 0.8200)
                        .with_keyframes(ModelKind::ResNet50, &variant, 0.8200, 0.8000)
                        .with_deblock_skip(ModelKind::ResNet50, &variant, 0.8200, 0.8100),
                )),
        )
        .expect("register");
}

/// Full-fidelity frames/second of the *streaming* pipeline at steady
/// state, measured by a probe run with pacing disabled and arrivals
/// effectively instant — the same GOP-granular query path the live runs
/// take. With arrivals instant, the spacing between window-close times
/// (staleness deltas) is pure processing time, so fixed startup costs
/// (planning, first batch formation) drop out. The probe uses a distinct
/// seed so its decoded frames can't pre-warm a cache for the live runs
/// (each run gets a fresh session anyway).
fn calibrate() -> f64 {
    let feed = timed_stream(&taipei(), 91, 24, GOP_LEN, 1000.0);
    let session = session();
    register(&session, &feed);
    let query = Query::new("camera").max_accuracy_loss(0.0);
    let probe_window_s = 1.0;
    let fpw = ((probe_window_s * feed.corpus.fps).round() as usize).max(1);
    let cfg = StreamConfig {
        window_s: probe_window_s,
        policy: PacingPolicy::disabled(),
        priority: Priority::High,
    };
    let (wall, (full_windows, stats)) = timed(|| {
        let handle = run_stream(&session, &query, FeedSource::new(feed), cfg, |_, _| 0.0)
            .expect("probe stream");
        let mut full_windows = Vec::new();
        while let Some(w) = handle.next_window() {
            if w.expected_frames == fpw {
                full_windows.push(w);
            }
        }
        (full_windows, handle.finish())
    });
    assert_eq!(stats.frames_decoded, stats.frames_total);
    let (first, last) = (full_windows.first(), full_windows.last());
    if let (Some(f), Some(l)) = (first, last) {
        let dt = l.output_lag_s - f.output_lag_s;
        let frames = ((l.index - f.index) * fpw) as f64;
        if l.index > f.index && dt > 1e-3 {
            return frames / dt;
        }
    }
    // Degenerate probe (too few windows): fall back to the whole run.
    stats.frames_total as f64 / wall
}

struct RunOutcome {
    windows: Vec<WindowResult>,
    stats: smol_stream::StreamStats,
    mean_abs_err: f64,
    range_violations: usize,
}

fn run(feed: &StreamFeed, policy: PacingPolicy) -> RunOutcome {
    let session = session();
    register(&session, feed);
    let query = Query::new("camera").max_accuracy_loss(0.03);
    let cfg = StreamConfig {
        window_s: WINDOW_S,
        policy,
        priority: Priority::High,
    };
    let counts = feed.corpus.counts.clone();
    let truth = counts.clone();
    let handle = run_stream(
        &session,
        &query,
        FeedSource::new(feed.clone()),
        cfg,
        move |pos, _| counts.get(pos).copied().unwrap_or(0) as f64,
    )
    .expect("stream starts");
    let mut windows = Vec::new();
    while let Some(w) = handle.next_window() {
        windows.push(w);
    }
    let stats = handle.finish();

    // Windowed means vs ground truth: the mean of any temporal subsample
    // lies inside the window's count range, and its absolute error is
    // the fidelity actually paid.
    let fpw = ((WINDOW_S * feed.corpus.fps).round() as usize).max(1);
    let mut err_sum = 0.0;
    let mut err_n = 0usize;
    let mut range_violations = 0usize;
    for w in windows.iter().filter(|w| w.samples > 0) {
        let span = &truth[w.index * fpw..w.index * fpw + w.expected_frames];
        let lo = span.iter().copied().min().unwrap() as f64;
        let hi = span.iter().copied().max().unwrap() as f64;
        let t = span.iter().map(|&c| c as f64).sum::<f64>() / span.len() as f64;
        err_sum += (w.mean - t).abs();
        err_n += 1;
        if w.mean < lo - 1e-9 || w.mean > hi + 1e-9 {
            range_violations += 1;
        }
    }
    RunOutcome {
        windows,
        stats,
        mean_abs_err: if err_n > 0 {
            err_sum / err_n as f64
        } else {
            0.0
        },
        range_violations,
    }
}

fn p95(values: &[f64]) -> f64 {
    smol_serve::percentile(values, 0.95)
}

fn main() -> ExitCode {
    let n_gops = if quick_mode() { 60 } else { 120 };
    let spec = taipei();

    // Calibrate, then schedule arrivals at 2× the measured rate.
    let rate = calibrate();
    let scale = (2.0 * rate / spec.fps).max(0.1);
    let feed = timed_stream(&spec, 13, n_gops, GOP_LEN, scale);
    let fpw = ((WINDOW_S * spec.fps).round() as usize).max(1);
    let window_wall_s = fpw as f64 / spec.fps / scale;
    println!(
        "calibration: {rate:.0} frames/s full fidelity → feed at {:.0} frames/s (2× overload), \
         {n_gops} GOPs, window = {fpw} frames = {:.0}ms wall\n",
        2.0 * rate,
        window_wall_s * 1e3,
    );

    let policy = PacingPolicy {
        enabled: true,
        target_lag_s: 0.1 * window_wall_s,
        drop_lag_s: 2.0 * window_wall_s,
    };
    let paced = run(&feed, policy);
    let lesion = run(&feed, PacingPolicy::disabled());

    let paced_lag_p95 = p95(&paced
        .windows
        .iter()
        .map(|w| w.output_lag_s)
        .collect::<Vec<_>>());
    let lesion_lags: Vec<f64> = lesion.windows.iter().map(|w| w.output_lag_s).collect();

    let mut table = Table::new(
        format!(
            "live_stream — {n_gops} GOPs × {GOP_LEN} frames at 2× real-time \
             ({:.0}ms windows)",
            window_wall_s * 1e3
        ),
        &[
            "Run",
            "Windows",
            "Coverage",
            "Stale p95 (ms)",
            "Downgraded",
            "Dropped",
            "Mean |err|",
        ],
    );
    for (name, o, lag) in [
        ("paced", &paced, paced_lag_p95),
        ("lesion", &lesion, p95(&lesion_lags)),
    ] {
        table.row(&[
            name.to_string(),
            format!("{}", o.stats.windows),
            format!("{:.0}%", o.stats.window_coverage * 100.0),
            format!("{:.0}", lag * 1e3),
            format!("{}", o.stats.gops_downgraded),
            format!("{}", o.stats.gops_dropped),
            format!("{:.2}", o.mean_abs_err),
        ]);
    }
    table.print();
    table.write_csv("live_stream");

    for (name, o) in [("paced", &paced), ("lesion", &lesion)] {
        println!(
            "\n{name} staleness per window (ms): {:?}",
            o.windows
                .iter()
                .map(|w| (w.output_lag_s * 1e3).round())
                .collect::<Vec<_>>()
        );
    }

    // Lesion staleness must grow monotonically (small timing jitter
    // tolerated) and end well above a window — unbounded queueing.
    let jitter = 0.15 * window_wall_s;
    let monotone = lesion_lags.windows(2).all(|p| p[1] >= p[0] - jitter);
    let lesion_grew = lesion_lags.last().copied().unwrap_or(0.0)
        > lesion_lags.first().copied().unwrap_or(0.0) + window_wall_s;

    let mut gate = Gate::new("live_stream");
    gate.check(
        paced.stats.gops_downgraded > 0 || paced.stats.gops_dropped > 0,
        format!(
            "pacer engaged ({} downgraded / {} dropped)",
            paced.stats.gops_downgraded, paced.stats.gops_dropped
        ),
    );
    gate.check(
        paced_lag_p95 < 2.0 * window_wall_s,
        format!(
            "stale p95 {:.0} ms under 2 windows {:.0} ms",
            paced_lag_p95 * 1e3,
            2.0 * window_wall_s * 1e3
        ),
    );
    gate.check(
        paced.stats.window_coverage >= 0.90,
        format!(
            "coverage {:.0} % (gate ≥ 90 %)",
            paced.stats.window_coverage * 100.0
        ),
    );
    gate.check(
        paced.stats.floor_violations == 0 && lesion.stats.floor_violations == 0,
        format!(
            "accuracy-floor violations: paced {}, lesion {}",
            paced.stats.floor_violations, lesion.stats.floor_violations
        ),
    );
    gate.check(
        paced.range_violations == 0,
        format!(
            "windowed means in ground-truth range ({} violations)",
            paced.range_violations
        ),
    );
    gate.check(
        monotone && lesion_grew,
        "lesion staleness grows monotonically",
    );
    gate.finish()
}
