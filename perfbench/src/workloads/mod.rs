//! The four workloads and what they share: server sizing, plan labels, the
//! closed-loop tenant driver, and run-long counters.

pub mod mixed_tenants;
pub mod stills;
pub mod video_live;

use crate::harness::producers;
use crate::inputs::pixel_digest;
use crate::layers::LayerMetrics;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use smol::accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol::codec::{DecodeOptions, EncodedImage};
use smol::core::{CandidateSpec, InputVariant, PlannerConfig, QueryPlan};
use smol::data::EncodedVariant;
use smol::runtime::pipeline::decode_item_opts;
use smol::runtime::{PoolStats, RuntimeOptions, TensorCacheStats};
use smol::serve::{QueryHandle, QueryReport, ServerConfig};
use smol::{AccuracyTable, Query, Session, SessionConfig};
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// A TensorRT device whose simulated durations are multiplied by
/// `time_scale` (below 1 = faster than the modelled hardware).
pub fn device(model: GpuModel, time_scale: f64) -> VirtualDevice {
    VirtualDevice::new(model, ExecutionEnv::TensorRt, time_scale)
}

/// Session sizing used by every workload: `producers = nproc`, one consumer
/// per device lane, everything else at the server's defaults.
pub fn session_config(tensor_cache_bytes: usize, dnn_input: u32) -> SessionConfig {
    let runtime = RuntimeOptions {
        producers: producers(),
        consumers: 1,
        ..RuntimeOptions::default()
    };
    SessionConfig {
        planner: PlannerConfig {
            dnn_input,
            ..PlannerConfig::default()
        },
        server: ServerConfig {
            runtime,
            batch_queue: runtime.consumers,
            tensor_cache_bytes,
            ..ServerConfig::default()
        },
        ..SessionConfig::default()
    }
}

/// A plan's label with its decode mode, which `QueryPlan::label` omits and
/// which is exactly what a profile-driven plan flip would change.
pub fn plan_label(plan: &QueryPlan) -> String {
    format!(
        "{} | {:?} | batch {}",
        plan.label(),
        plan.decode,
        plan.batch
    )
}

/// The oracle digest of one still under a plan's decode mode: decoded
/// single-threaded through the scalar reference kernels.
pub fn oracle_digest(item: &EncodedImage, plan: &QueryPlan) -> Option<u64> {
    decode_item_opts(item, plan.decode, DecodeOptions::scalar_reference())
        .ok()
        .map(|img| pixel_digest(&img))
}

/// Tensor-cache activity since `since` (taken when set-up finished, so the
/// warm-up's compulsory misses are not counted): `(hit share, evictions)`.
/// The share is exact for a seed wherever the access order is.
pub fn cache_activity(now: TensorCacheStats, since: TensorCacheStats) -> (f64, f64) {
    let hits = now.hits - since.hits;
    let lookups = hits + now.misses - since.misses;
    (
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
        (now.evictions - since.evictions) as f64,
    )
}

/// A calibration table in which `served` is the one variant whose accuracy
/// under `model` clears `floor`; every other variant of the layout is
/// calibrated too, below the floor by a growing margin. This is what makes
/// plans a matter of accuracy rather than of the timing-dependent profile.
pub fn one_variant_clears(
    model: ModelKind,
    variants: &[EncodedVariant],
    served: &str,
    floor: f64,
) -> AccuracyTable {
    let mut below = 0;
    variants.iter().fold(AccuracyTable::new(), |table, v| {
        let accuracy = if v.name == served {
            floor + 0.01
        } else {
            below += 1;
            floor - 0.01 * below as f64
        };
        table.with(model, &v.name, accuracy)
    })
}

/// One planner spec per still variant, for timing `Planner::enumerate` on a
/// spec list shaped like the one `Session::explain` derives.
pub fn still_specs(
    model: ModelKind,
    variants: &[EncodedVariant],
    accuracy: f64,
    preproc_throughput: f64,
) -> Vec<CandidateSpec> {
    variants
        .iter()
        .map(|v| {
            let input = InputVariant::new(v.name.clone(), v.format, v.width, v.height);
            CandidateSpec {
                dnn: model,
                input: if v.thumbnail {
                    input.thumbnail()
                } else {
                    input
                },
                accuracy,
                preproc_throughput,
                reduced_accuracy: None,
                cascade: None,
                video: None,
                storage: None,
                routing: Vec::new(),
            }
        })
        .collect()
}

/// The per-layer metrics every workload reads off its session the same way:
/// batch shares and device occupancy from `ServerStats`, and one repeated
/// `explain`, which must answer from the plan cache.
pub fn session_metrics(session: &Session, query: &Query, out: &mut LayerMetrics) {
    let stats = session.stats();
    let per_batch = |n: u64| n as f64 / stats.batches.max(1) as f64;
    out.set("serve.batch_fill_share", per_batch(stats.full_batches));
    out.set(
        "serve.cross_query_batch_share",
        per_batch(stats.cross_query_batches),
    );
    out.set("serve.steal_share", per_batch(stats.steals));
    out.set("serve.degradations", stats.degradations as f64);
    out.set("accel.occupancy", stats.device_occupancy());
    let t0 = Instant::now();
    let warm = session.explain(query).expect("warm explain");
    assert!(
        warm.cache_hit,
        "a repeated explain answers from the plan cache"
    );
    out.set("serve.explain_warm_us", t0.elapsed().as_secs_f64() * 1e6);
}

/// How many served digests equal the oracle's.
pub fn matching_digests(got: &[Option<u64>], expected: &[Option<u64>]) -> usize {
    got.iter()
        .zip(expected)
        .filter(|(g, e)| g.is_some() && g == e)
        .count()
}

/// Counters a tenant accumulates from its `QueryReport`s over a run.
#[derive(Debug, Default)]
pub struct TenantCounters {
    pub queries: u64,
    pub submitted_outputs: u64,
    pub images: u64,
    pub cache_hits: u64,
    pub escalated: u64,
    /// Queries whose `images + failed + skipped` missed their submitted
    /// output count.
    pub unbalanced: u64,
    pub pool: PoolStats,
    pub item_p50_ms: Vec<f64>,
    pub item_p95_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub wait_ms: Vec<f64>,
}

impl TenantCounters {
    pub fn absorb(&mut self, report: &QueryReport, submitted_outputs: usize) {
        self.queries += 1;
        self.submitted_outputs += submitted_outputs as u64;
        self.images += report.images as u64;
        self.cache_hits += report.cache_hits as u64;
        self.escalated += report.escalated_items as u64;
        if report.images + report.failed + report.skipped != submitted_outputs {
            self.unbalanced += 1;
        }
        self.pool.reused += report.pool.reused;
        self.pool.allocated += report.pool.allocated;
        self.pool.waits += report.pool.waits;
        self.item_p50_ms.push(report.latency_p50_s * 1e3);
        self.item_p95_ms.push(report.latency_p95_s * 1e3);
    }

    pub fn pool_reuse_share(&self) -> f64 {
        let total = self.pool.reused + self.pool.allocated;
        if total == 0 {
            0.0
        } else {
            self.pool.reused as f64 / total as f64
        }
    }

    pub fn median_or_zero(samples: &[f64]) -> f64 {
        if samples.is_empty() {
            0.0
        } else {
            median(samples)
        }
    }
}

/// What one closed-loop burst of queries produced.
#[derive(Debug, Default)]
pub struct Burst {
    pub outputs: u64,
    pub failed: u64,
    pub latencies_ms: Vec<f64>,
}

/// Runs `n` queries with at most `in_flight` outstanding, as one closed-loop
/// client: the next query is submitted only when the oldest has resolved.
/// Latency is submit call → handle resolved. `submit(i)` returns the handle
/// and the number of outputs submitted.
pub fn closed_loop(
    n: usize,
    in_flight: usize,
    request_base: u64,
    tracer: &Tracer,
    parent: SpanId,
    counters: &Mutex<TenantCounters>,
    mut submit: impl FnMut(usize) -> (QueryHandle, usize),
) -> Burst {
    let mut burst = Burst::default();
    let mut pending: VecDeque<(QueryHandle, usize, Instant, u64)> = VecDeque::new();
    let resolve = |(handle, submitted, t0, request): (QueryHandle, usize, Instant, u64),
                   burst: &mut Burst| {
        let w0 = Instant::now();
        let report = tracer
            .span("handle.wait", parent, request, |_| handle.wait())
            .expect("the server outlives its queries");
        burst.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        burst.outputs += report.images as u64;
        burst.failed += (report.failed + report.skipped) as u64;
        let mut c = counters.lock().expect("counter lock");
        c.wait_ms.push(w0.elapsed().as_secs_f64() * 1e3);
        c.absorb(&report, submitted);
    };
    for i in 0..n {
        if pending.len() == in_flight {
            let oldest = pending.pop_front().expect("in_flight >= 1");
            resolve(oldest, &mut burst);
        }
        let request = request_base + i as u64;
        let t0 = Instant::now();
        let (handle, submitted) = tracer.span("session.submit", parent, request, |_| submit(i));
        counters
            .lock()
            .expect("counter lock")
            .submit_us
            .push(t0.elapsed().as_secs_f64() * 1e6);
        pending.push_back((handle, submitted, t0, request));
    }
    for rest in pending {
        resolve(rest, &mut burst);
    }
    burst
}
