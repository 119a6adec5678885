//! The two single-tenant still-image workloads. They share every line of
//! code and differ only in their parameters: which corpus, which variant
//! the calibration lets through, and whether the decoded-tensor cache is on.
//!
//! * `fullres_cold` — coefficient-dense 320×240 sjpg(q=95) stills, tensor
//!   cache disabled, fast DNN on a fast device: preprocessing-bound, and the
//!   codec plus imgproc are almost all of an item's CPU. Decoder work must
//!   show here and nowhere else.
//! * `thumbs_hot` — 64-px thumbnails, all resident in the tensor cache after
//!   warm-up (100 % hits asserted): the codec is never called, so what is
//!   left is small-input imgproc plus claim/integrate under the scheduler
//!   lock, batch forming, buffer pool, staging copy and cache lookup. The
//!   bypass workload for every codec change: the prediction is no move.

use super::{
    cache_activity, closed_loop, device, matching_digests, one_variant_clears, oracle_digest,
    plan_label, session_config, session_metrics, still_specs, TenantCounters,
};
use crate::harness::{SliceWork, Verdict, Workload};
use crate::inputs::{corrupt, fullres_spec, pixel_digest, small_spec, RunDir, SMALL_EDGE};
use crate::layers::LayerMetrics;
use crate::replay::{self, CachePath};
use crate::trace::{SpanId, Tracer};
use smol::accel::{GpuModel, ModelKind};
use smol::codec::Format;
use smol::core::{percent_error, Planner, QueryPlan};
use smol::data::{serving_variants, EncodedVariant, StillSpec};
use smol::runtime::{MediaItem, TensorCacheStats};
use smol::serve::{Explanation, SubmitOptions};
use smol::{Calibration, Dataset, Query, Session};
use std::marker::PhantomData;
use std::sync::Mutex;
use std::time::Instant;

const DATASET: &str = "photos";
const MODEL: ModelKind = ModelKind::ResNet18;
/// Simulated durations are divided by 20: ResNet-18 on this T4 sustains
/// ≈ 250 k outputs/s, so the plan is preprocessing-bound by a wide margin.
const DEVICE_TIME_SCALE: f64 = 0.05;
/// Closed loop: this many queries outstanding.
const IN_FLIGHT: usize = 2;

/// Parameters of one stills workload.
pub trait StillsParams {
    const NAME: &'static str;
    fn spec() -> StillSpec;
    /// Items in the dataset; every query runs over all of them.
    const ITEMS: usize;
    /// Fixed work of one slice, sized for ≈ 0.5 s at reference speed.
    const QUERIES_PER_SLICE: usize;
    const TENSOR_CACHE_BYTES: usize;
    const DNN_INPUT: u32;
    /// The one variant whose calibrated accuracy clears [`FLOOR`].
    fn served_variant() -> String;
}

/// The query's accuracy floor. Calibration puts exactly one (DNN, variant,
/// decode mode) at or above it, so the profile cannot change the plan.
const FLOOR: f64 = 0.75;

pub struct FullresCold;

impl StillsParams for FullresCold {
    const NAME: &'static str = "fullres_cold";
    fn spec() -> StillSpec {
        fullres_spec()
    }
    const ITEMS: usize = 32;
    const QUERIES_PER_SLICE: usize = 10;
    const TENSOR_CACHE_BYTES: usize = 0;
    const DNN_INPUT: u32 = 224;
    fn served_variant() -> String {
        "full-res sjpg(q=95)".into()
    }
}

pub struct ThumbsHot;

impl StillsParams for ThumbsHot {
    const NAME: &'static str = "thumbs_hot";
    fn spec() -> StillSpec {
        small_spec()
    }
    const ITEMS: usize = 512;
    const QUERIES_PER_SLICE: usize = 16;
    const TENSOR_CACHE_BYTES: usize = 256 << 20;
    const DNN_INPUT: u32 = SMALL_EDGE as u32;
    fn served_variant() -> String {
        format!("{SMALL_EDGE} spng")
    }
}

pub struct Stills<P>(PhantomData<P>);

pub struct Inputs {
    /// The §8.1 serving layout of the corpus, as generated (the oracle's
    /// copy; the server reads its own copy back from the store).
    variants: Vec<EncodedVariant>,
    /// Bytes the materialised store occupies on disk.
    store_bytes: u64,
}

pub struct Env {
    session: Session,
    query: Query,
    explanation: Explanation,
    store_load_s: f64,
    register_s: f64,
    explain_cold_s: f64,
    counters: Mutex<TenantCounters>,
    measured_ips: Mutex<Vec<f64>>,
    cache_after_setup: TensorCacheStats,
}

impl<P: StillsParams> Workload for Stills<P> {
    const NAME: &'static str = P::NAME;
    const OPEN_LOOP: bool = false;
    type Inputs = Inputs;
    type Env = Env;

    fn generate(seed: u64, dir: &RunDir) -> Inputs {
        let variants = serving_variants(&P::spec(), seed, P::ITEMS).expect("encode corpus");
        // Ahead-of-time materialisation: set-up only ever reads the store.
        dir.store(P::NAME)
            .and_then(|store| store.materialize(DATASET, &variants))
            .expect("materialise variant store");
        Inputs {
            variants,
            store_bytes: dir.size_bytes(),
        }
    }

    fn setup(_inputs: &Inputs, dir: &RunDir, tracer: &Tracer, parent: SpanId) -> Env {
        let t0 = Instant::now();
        let variants = tracer.span("store.load", parent, 0, |_| {
            dir.store(P::NAME)
                .and_then(|store| store.load(DATASET))
                .expect("load variant store")
        });
        let store_load_s = t0.elapsed().as_secs_f64();
        let session = tracer.span("session.new", parent, 0, |_| {
            Session::new(
                device(GpuModel::T4, DEVICE_TIME_SCALE),
                session_config(P::TENSOR_CACHE_BYTES, P::DNN_INPUT),
            )
        });
        let t0 = Instant::now();
        tracer.span("session.register", parent, 0, |_| {
            let table = one_variant_clears(MODEL, &variants, &P::served_variant(), FLOOR);
            session
                .register(
                    Dataset::new(DATASET)
                        .with_model(MODEL)
                        .with_encoded_variants(variants)
                        .with_calibration(Calibration::Table(table)),
                )
                .expect("register dataset")
        });
        let register_s = t0.elapsed().as_secs_f64();
        let query = Query::new(DATASET).min_accuracy(FLOOR);
        let t0 = Instant::now();
        let explanation = tracer
            .span("session.explain", parent, 0, |_| session.explain(&query))
            .expect("plan the query");
        let explain_cold_s = t0.elapsed().as_secs_f64();
        // Cache fill and lazy initialisation are paid here, not in slices.
        let warm = tracer
            .span("warmup", parent, 0, |_| session.run(&query))
            .expect("warm-up query");
        assert_eq!(
            warm.images,
            P::ITEMS,
            "warm-up must serve the whole dataset"
        );
        Env {
            cache_after_setup: session.server().tensor_cache_stats(),
            session,
            query,
            explanation,
            store_load_s,
            register_s,
            explain_cold_s,
            counters: Mutex::default(),
            measured_ips: Mutex::default(),
        }
    }

    fn plan_labels(env: &Env) -> Vec<String> {
        vec![plan_label(&env.explanation.chosen.plan)]
    }

    fn slice(env: &Env, _: &Inputs, index: usize, tracer: &Tracer, parent: SpanId) -> SliceWork {
        let t0 = Instant::now();
        let burst = closed_loop(
            P::QUERIES_PER_SLICE,
            IN_FLIGHT,
            (index * P::QUERIES_PER_SLICE) as u64,
            tracer,
            parent,
            &env.counters,
            |_| {
                let handle = env.session.submit(&env.query).expect("submit");
                (handle, P::ITEMS)
            },
        );
        env.measured_ips
            .lock()
            .expect("ips lock")
            .push(burst.outputs as f64 / t0.elapsed().as_secs_f64());
        SliceWork {
            outputs: burst.outputs,
            failed: burst.failed,
            latencies_ms: burst.latencies_ms,
        }
    }

    fn verify(env: &Env, inputs: &Inputs, corrupt_one: bool) -> Verdict {
        let plan = &env.explanation.chosen.plan;
        let served = inputs
            .variants
            .iter()
            .find(|v| v.name == env.explanation.variant)
            .expect("the chosen variant is one of the generated ones");
        let expected: Vec<Option<u64>> = served
            .items
            .iter()
            .map(|i| oracle_digest(i, plan))
            .collect();
        let mut items = served.items.clone();
        if corrupt_one {
            let victim = items.len() / 2;
            items[victim] = corrupt(&items[victim]);
        }
        let n = items.len();
        let mut report = env
            .session
            .server()
            .submit_media_opts_with_infer(
                plan.clone(),
                items.into_iter().map(MediaItem::Image).collect(),
                SubmitOptions::default(),
                |_, img| pixel_digest(img),
            )
            .and_then(|handle| handle.wait())
            .expect("verification query");
        let got = report.take_results::<u64>();
        let matching = matching_digests(&got, &expected);

        let c = env.counters.lock().expect("counter lock");
        let mut verdict = Verdict {
            attempted: n as u64,
            failed: (n - matching) as u64,
            ..Verdict::default()
        };
        verdict.check(
            "images + failed + skipped == submitted for every query",
            c.unbalanced == 0 && report.images + report.failed + report.skipped == n,
        );
        verdict.check(
            format!("{matching}/{n} pixel digests equal the scalar reference decode"),
            matching == n,
        );
        verdict.check(
            format!(
                "plan serves the calibrated variant {:?}",
                P::served_variant()
            ),
            env.explanation.variant == P::served_variant(),
        );
        if P::TENSOR_CACHE_BYTES > 0 {
            verdict.check(
                format!(
                    "cache hits {} == items {} in timed slices",
                    c.cache_hits, c.images
                ),
                c.cache_hits == c.images && c.images > 0,
            );
        } else {
            verdict.check("cache disabled: zero lookups", c.cache_hits == 0);
        }
        verdict
    }

    fn layer_stats(env: &Env, inputs: &Inputs, out: &mut LayerMetrics) {
        let c = env.counters.lock().expect("counter lock");
        let stats = env.session.stats();
        let (hit_share, evictions) = cache_activity(stats.tensor_cache, env.cache_after_setup);
        out.set("runtime.cache_hit_share", hit_share);
        out.set("runtime.cache_evictions", evictions);
        out.set("runtime.pool_reuse_share", c.pool_reuse_share());
        out.set(
            "serve.item_latency_p50_ms",
            TenantCounters::median_or_zero(&c.item_p50_ms),
        );
        out.set(
            "serve.item_latency_p95_ms",
            TenantCounters::median_or_zero(&c.item_p95_ms),
        );
        out.set(
            "serve.submit_us",
            TenantCounters::median_or_zero(&c.submit_us),
        );
        out.set("serve.wait_ms", TenantCounters::median_or_zero(&c.wait_ms));
        out.set("data.store_load_s", env.store_load_s);
        out.set(
            "data.store_load_mbps",
            inputs.store_bytes as f64 / 1e6 / env.store_load_s,
        );
        out.set("serve.register_s", env.register_s);
        out.set("serve.explain_cold_s", env.explain_cold_s);
        session_metrics(&env.session, &env.query, out);
        // §8.2: the planner's min(preproc, exec) estimate against what the
        // slices measured. The estimate's exec side is in simulated time.
        let chosen = &env.explanation.chosen;
        let estimate = chosen
            .preproc_throughput
            .min(chosen.exec_throughput / DEVICE_TIME_SCALE);
        let measured = TenantCounters::median_or_zero(&env.measured_ips.lock().expect("ips lock"));
        out.set("core.estimate_error_pct", percent_error(estimate, measured));
    }

    fn replay(env: &Env, inputs: &Inputs, tracer: &Tracer, out: &mut LayerMetrics) -> f64 {
        let plan: &QueryPlan = &env.explanation.chosen.plan;
        let served = inputs
            .variants
            .iter()
            .find(|v| v.name == env.explanation.variant)
            .expect("the chosen variant is one of the generated ones");
        let sample = &served.items[..served.items.len().min(replay::MIN_REPLAYS)];
        let fast = device(GpuModel::T4, DEVICE_TIME_SCALE);
        let cold =
            replay::replay_stills(tracer, out, plan, None, sample, CachePath::Disabled, &fast);
        if matches!(served.format, Format::Sjpg { .. }) {
            replay::time_sjpg_modes(tracer, out, sample, plan.decode);
        }
        let replayed = if P::TENSOR_CACHE_BYTES > 0 {
            replay::time_cache_miss_paths(out, plan, sample);
            replay::replay_stills(tracer, out, plan, None, sample, CachePath::Hot, &fast)
        } else {
            cold
        };
        let media: Vec<MediaItem> = sample.iter().cloned().map(MediaItem::Image).collect();
        let config = session_config(P::TENSOR_CACHE_BYTES, P::DNN_INPUT);
        replay::time_profile(out, plan, &media, config.server.runtime);
        let specs = still_specs(
            MODEL,
            &inputs.variants,
            FLOOR,
            env.explanation.chosen.preproc_throughput,
        );
        replay::time_shared_structures(out, plan, &specs, &Planner::new(config.planner));
        replayed
    }

    fn teardown(env: Env) {
        env.session.shutdown();
    }
}
