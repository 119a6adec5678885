//! The run skeleton every workload shares: generate inputs, repeat set-up,
//! measure slices bracketed by probes, verify, report.
//!
//! Three rules, each an answer to a way an earlier benchmark of this
//! repository was too noisy to use:
//!
//! 1. *Many short slices, median per run.* A run is [`SETUP_REPS`] set-up
//!    repetitions plus as many ≈0.5 s slices of fixed work as fit in
//!    [`RUN_SECONDS`]; every timed metric is the median over slices (over
//!    repetitions for `setup_s`).
//! 2. *Host normalisation, one rule.* [`crate::probe`] runs before and after
//!    every slice and every set-up repetition; a slice's `speed` is
//!    `PROBE_REF_MS` over the CPU time of the two probes that bracket it
//!    ([`Timed::at_reference`]). Times, CPU or wall-clock, are reported as
//!    `time × speed` and rates as `rate ÷ speed`. A rate paced by an arrival
//!    schedule ([`Workload::OPEN_LOOP`]) is reported as measured; memory is
//!    never scaled. There are no per-workload factors.
//! 3. *Plans decided by accuracy, not by the profile.* Workloads calibrate
//!    so that exactly one plan clears each query's floor; the harness checks
//!    the plan labels are the same after every set-up repetition.

use crate::inputs::RunDir;
use crate::layers::LayerMetrics;
use crate::probe::{self, Reading};
use crate::stats::{median, percentile, relative_iqr};
use crate::trace::{SpanId, Tracer};
use crate::{json::Value, os};
use std::time::{Duration, Instant};

/// How long slices are measured for. The one value `--seconds` accepts and
/// the `run_seconds` of `BENCHMARK.json`: a shorter run is a different
/// benchmark, not a quicker one.
pub const RUN_SECONDS: u64 = 20;
/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Probe-only time on all cores before the first set-up repetition.
const WARM_UP: Duration = Duration::from_millis(1500);

/// What one measured slice did.
#[derive(Debug, Default)]
pub struct SliceWork {
    /// Device outputs completed (stills, or selected video frames).
    pub outputs: u64,
    /// Outputs failed, skipped, dropped or shed.
    pub failed: u64,
    /// One sample per query (or per GOP on the open-loop workload).
    pub latencies_ms: Vec<f64>,
}

/// Outcome of the untimed verification slice.
#[derive(Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    /// Named oracle checks with their outcome.
    pub checks: Vec<(String, bool)>,
}

impl Verdict {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }
}

pub trait Workload {
    const NAME: &'static str;
    /// True when an arrival schedule, not the CPU, paces the workload: its
    /// throughput is then reported as measured (its times still scale).
    const OPEN_LOOP: bool;
    type Inputs;
    type Env;

    /// Builds the inputs from the seed (untimed; materialises stores).
    fn generate(seed: u64, dir: &RunDir) -> Self::Inputs;
    /// One timed set-up: open store → load → session → register → first
    /// explain (profile + plan) → warm-up query resolved.
    fn setup(inputs: &Self::Inputs, dir: &RunDir, tracer: &Tracer, parent: SpanId) -> Self::Env;
    /// Label of every plan the workload runs, decode mode included.
    fn plan_labels(env: &Self::Env) -> Vec<String>;
    /// One slice of fixed work.
    fn slice(
        env: &Self::Env,
        inputs: &Self::Inputs,
        index: usize,
        tracer: &Tracer,
        parent: SpanId,
    ) -> SliceWork;
    /// The untimed verification slice; `corrupt` plants one bad item
    /// (`--self-check`) that the oracle must catch.
    fn verify(env: &Self::Env, inputs: &Self::Inputs, corrupt: bool) -> Verdict;
    /// Counters the serving stack kept over the run (traced runs).
    fn layer_stats(env: &Self::Env, inputs: &Self::Inputs, out: &mut LayerMetrics);
    /// Single-threaded replay of sampled items through the public stage
    /// functions (traced runs). Returns replayed stage CPU per output, µs
    /// at reference speed, for `serve.overhead_us_per_item`.
    fn replay(
        env: &Self::Env,
        inputs: &Self::Inputs,
        tracer: &Tracer,
        out: &mut LayerMetrics,
    ) -> f64;
    fn teardown(env: Self::Env);
}

pub struct RunArgs {
    pub seed: u64,
    pub trace: bool,
    pub self_check: bool,
}

/// One metric as reported: the value the driver reads, and the value as
/// measured when the two differ.
pub struct Reported {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub as_measured: Option<f64>,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Reported>,
}

impl Outcome {
    /// The one-line JSON result the driver parses.
    pub fn result_line(&self) -> String {
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Int(self.attempted)),
            ("failed", Value::Int(self.failed)),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Value::obj([("value", Value::Num(m.value)), ("unit", Value::str(m.unit))]),
                    )
                })),
            ),
        ])
        .encode()
    }
}

/// Wall and CPU time over one measured interval.
struct Spent {
    wall_s: f64,
    cpu_s: f64,
}

struct Clocks(Instant, f64);

impl Clocks {
    fn start() -> Self {
        Clocks(Instant::now(), os::process_cpu_s())
    }

    fn stop(self) -> Spent {
        Spent {
            wall_s: self.0.elapsed().as_secs_f64(),
            cpu_s: os::process_cpu_s() - self.1,
        }
    }
}

/// One measured slice, as measured.
struct Slice {
    traced: bool,
    /// Wall-clock and CPU milliseconds per completed output.
    wall_ms: f64,
    cpu_ms: f64,
    /// Median latency of the slice's queries.
    p50_ms: f64,
    /// The probe, halfway between the two readings that bracket the slice.
    probe: Reading,
}

/// A time as measured, with the probe reading that brackets it.
#[derive(Clone, Copy)]
struct Timed {
    time: f64,
    probe: Reading,
}

impl Timed {
    /// The one normalisation rule: the time a host takes whose probe runs
    /// in `PROBE_REF_MS`.
    fn at_reference(self) -> f64 {
        self.time * self.probe.cpu_speed()
    }
}

/// Median of a run's timings: `(at reference speed, as measured)`.
fn summarise(timings: impl Iterator<Item = Timed>) -> (f64, f64) {
    let (norm, raw): (Vec<f64>, Vec<f64>) = timings.map(|t| (t.at_reference(), t.time)).unzip();
    (median(&norm), median(&raw))
}

/// Threads the probe runs on: as many as the servers have producers.
pub fn producers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn run<W: Workload>(args: &RunArgs) -> Outcome {
    let threads = producers();
    println!(
        "workload {} seed {} seconds {RUN_SECONDS} trace {} cores {threads}",
        W::NAME,
        args.seed,
        args.trace as u8
    );
    let dir = RunDir::create().expect("create perfbench/out/run-<pid>");
    let t_gen = Instant::now();
    let inputs = W::generate(args.seed, &dir);
    println!(
        "inputs generated in {:.2} s (untimed)",
        t_gen.elapsed().as_secs_f64()
    );

    let tracer = Tracer::new();
    tracer.set_enabled(args.trace);

    // Host warm-up. On this sandbox the first seconds of work on all cores
    // after a quiet spell (input generation is single-threaded) run up to a
    // third slower than what follows; spend them on the probe instead of on
    // the first set-up repetitions.
    let warm = Instant::now();
    let mut readings = Vec::new();
    while warm.elapsed() < WARM_UP {
        readings.push(probe::measure(threads).cpu_ms);
    }
    println!(
        "host warm-up: probe {:.1} ms at first, {:.1} ms after {:.1} s",
        readings[0],
        readings[readings.len() - 1],
        warm.elapsed().as_secs_f64()
    );

    // Set-up repetitions. Each drops the previous session first, so they do
    // not stack in memory; the last one serves the slices.
    let mut setups: Vec<Timed> = Vec::with_capacity(SETUP_REPS);
    let mut labels: Vec<Vec<String>> = Vec::new();
    let mut env: Option<W::Env> = None;
    for rep in 0..SETUP_REPS {
        if let Some(old) = env.take() {
            W::teardown(old);
        }
        let before = probe::measure(threads);
        let span = tracer.begin("setup", SpanId::NONE, rep as u64);
        let clocks = Clocks::start();
        let fresh = W::setup(&inputs, &dir, &tracer, span);
        let spent = clocks.stop();
        tracer.end(span);
        let probe = Reading::between(before, probe::measure(threads));
        println!(
            "setup {rep} wall_ms {:.2} cpu_ms {:.2} probe_cpu_ms {:.2} probe_wall_ms {:.2}",
            spent.wall_s * 1e3,
            spent.cpu_s * 1e3,
            probe.cpu_ms,
            probe.wall_ms
        );
        setups.push(Timed {
            time: spent.wall_s,
            probe,
        });
        labels.push(W::plan_labels(&fresh));
        env = Some(fresh);
    }
    let env = env.expect("SETUP_REPS >= 1");
    let labels_stable = labels.windows(2).all(|w| w[0] == w[1]);
    for label in &labels[0] {
        println!("plan {label}");
    }
    println!(
        "setup cold {:.3} s, repetitions as measured {:?}",
        setups[0].time,
        setups
            .iter()
            .map(|t| (t.time * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );

    // Measured slices, each bracketed by probes. In a traced run every other
    // slice records spans, so the two halves give the tracing overhead.
    let mut slices: Vec<Slice> = Vec::new();
    let mut all_lat_raw: Vec<f64> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let budget = Duration::from_secs(RUN_SECONDS);
    let started = Instant::now();
    let mut before = probe::measure(threads);
    while started.elapsed() < budget {
        let index = slices.len();
        let traced = args.trace && index % 2 == 1;
        tracer.set_enabled(traced);
        let span = tracer.begin("slice", SpanId::NONE, index as u64);
        let clocks = Clocks::start();
        let work = W::slice(&env, &inputs, index, &tracer, span);
        let spent = clocks.stop();
        tracer.end(span);
        let after = probe::measure(threads);
        let probe = Reading::between(before, after);
        before = after;
        assert!(work.outputs > 0, "slice {index} completed no outputs");
        let p50_ms = percentile(&work.latencies_ms, 0.5);
        println!(
            "slice {index} outputs {} wall_ms {:.2} cpu_ms {:.2} p50_ms {:.3} probe_cpu_ms {:.2} probe_wall_ms {:.2}",
            work.outputs,
            spent.wall_s * 1e3,
            spent.cpu_s * 1e3,
            p50_ms,
            probe.cpu_ms,
            probe.wall_ms
        );
        attempted += work.outputs + work.failed;
        failed += work.failed;
        all_lat_raw.extend_from_slice(&work.latencies_ms);
        slices.push(Slice {
            traced,
            wall_ms: spent.wall_s * 1e3 / work.outputs as f64,
            cpu_ms: spent.cpu_s * 1e3 / work.outputs as f64,
            p50_ms,
            probe,
        });
    }
    tracer.set_enabled(args.trace);
    let speeds: Vec<f64> = slices.iter().map(|s| s.probe.cpu_speed()).collect();
    println!(
        "slices {} in {:.1} s, latency samples {}, host speed median {:.3} (min {:.3}, max {:.3})",
        slices.len(),
        started.elapsed().as_secs_f64(),
        all_lat_raw.len(),
        median(&speeds),
        speeds.iter().copied().fold(f64::INFINITY, f64::min),
        speeds.iter().copied().fold(0.0, f64::max),
    );
    // One timed quantity over the slices a filter lets through.
    let over = |keep: fn(&Slice) -> bool, time: fn(&Slice) -> f64| {
        summarise(slices.iter().filter(|s| keep(s)).map(|s| Timed {
            time: time(s),
            probe: s.probe,
        }))
    };

    // The untimed verification slice.
    let verdict = W::verify(&env, &inputs, args.self_check);
    attempted += verdict.attempted;
    failed += verdict.failed;
    let mut correct = failed == 0;
    for (name, ok) in verdict
        .checks
        .iter()
        .map(|(n, ok)| (n.as_str(), *ok))
        .chain([(
            "plan labels stable across set-up repetitions",
            labels_stable,
        )])
    {
        println!("check {name}: {}", if ok { "ok" } else { "FAILED" });
        correct &= ok;
    }

    let metrics = if args.trace {
        let mut layer = LayerMetrics::default();
        W::layer_stats(&env, &inputs, &mut layer);
        let replay_cpu_us = W::replay(&env, &inputs, &tracer, &mut layer);
        let untraced_cpu_us = over(|s| !s.traced, |s| s.cpu_ms * 1e3).0;
        println!(
            "cpu per output at reference speed: slices {untraced_cpu_us:.1} us, replayed stages \
             {replay_cpu_us:.1} us"
        );
        layer.set(
            "serve.overhead_us_per_item",
            untraced_cpu_us - replay_cpu_us,
        );
        layer.set("serve.latency_p95_ms", percentile(&all_lat_raw, 0.95));
        layer.set("bench.host_speed", median(&speeds));
        // Spread of what `throughput_ips` is the median of.
        let walls: Vec<f64> = slices
            .iter()
            .map(|s| match W::OPEN_LOOP {
                true => s.wall_ms,
                false => s.wall_ms * s.probe.cpu_speed(),
            })
            .collect();
        layer.set("bench.slice_spread_pct", relative_iqr(&walls) * 100.0);
        let plain = over(|s| !s.traced, |s| s.wall_ms).0;
        let traced = over(|s| s.traced, |s| s.wall_ms).0;
        layer.set("bench.trace_overhead_pct", (traced - plain) / plain * 100.0);
        let spans = tracer.spans();
        let path = crate::inputs::out_root().join(format!("{}.trace.json", W::NAME));
        std::fs::write(
            &path,
            crate::trace::to_json(W::NAME, args.seed, &spans).encode(),
        )
        .expect("write trace file");
        println!("trace {} spans written to {}", spans.len(), path.display());
        crate::layers::PER_LAYER
            .iter()
            .map(|&(name, unit, _)| Reported {
                name,
                unit,
                value: layer.get(name),
                as_measured: None,
            })
            .collect()
    } else {
        let (wall_ms, wall_ms_raw) = over(|_| true, |s| s.wall_ms);
        let (cpu_ms, cpu_ms_raw) = over(|_| true, |s| s.cpu_ms);
        let (lat_ms, lat_ms_raw) = over(|_| true, |s| s.p50_ms);
        let (setup_s, setup_s_raw) = summarise(setups.iter().copied());
        vec![
            Reported {
                name: "throughput_ips",
                unit: "outputs/s",
                // A rate paced by an arrival schedule does not move with the
                // host; every time does.
                value: 1e3 / if W::OPEN_LOOP { wall_ms_raw } else { wall_ms },
                as_measured: Some(1e3 / wall_ms_raw),
            },
            Reported {
                name: "cpu_ms_per_item",
                unit: "ms",
                value: cpu_ms,
                as_measured: Some(cpu_ms_raw),
            },
            Reported {
                name: "latency_p50_ms",
                unit: "ms",
                value: lat_ms,
                as_measured: Some(lat_ms_raw),
            },
            Reported {
                name: "peak_rss_mb",
                unit: "MB",
                value: os::peak_rss_mb(),
                as_measured: None,
            },
            Reported {
                name: "setup_s",
                unit: "s",
                value: setup_s,
                as_measured: Some(setup_s_raw),
            },
        ]
    };
    W::teardown(env);
    for m in &metrics {
        match m.as_measured {
            Some(raw) => println!(
                "{} {:.6} {} (as measured {:.6})",
                m.name, m.value, m.unit, raw
            ),
            None => println!("{} {:.6} {}", m.name, m.value, m.unit),
        }
    }
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
    }
}
