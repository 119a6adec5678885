//! `mixed_tenants` — two closed-loop tenants, one driver thread each, on a
//! two-lane heterogeneous fleet.
//!
//! * *scan* (Normal priority): 96-item queries over full-resolution
//!   sjpg(q=95) stills, submitted as a cascade (`SubmitOptions::cascade`)
//!   whose threshold is the corpus' median difficulty score, so half the
//!   items take the ResNet-18 reduced-decode rung and half escalate to the
//!   ResNet-50 full rung `Session::explain` chose.
//! * *interactive* (High priority): 16-item ResNet-50 queries over 161-px
//!   spng thumbnails, device-dominated, whose working set is twice the
//!   tensor-cache budget; a seeded hot-set / cold-sweep access order
//!   gives roughly half hits.
//!
//! The same layers as the single-tenant workloads, used differently: cache
//! fill and evict beside hits, tiny and large queries sharing one scheduler,
//! cross-query batching, lane dispatch and stealing, dual-signature cascade
//! accounting. A gain for one tenant paid for by the other shows here.

use super::{
    cache_activity, closed_loop, device, matching_digests, one_variant_clears, oracle_digest,
    plan_label, session_config, session_metrics, still_specs, TenantCounters,
};
use crate::harness::{SliceWork, Verdict, Workload};
use crate::inputs::{corrupt, fullres_spec, pixel_digest, RunDir, SplitMix64};
use crate::layers::LayerMetrics;
use crate::replay::{self, CachePath};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use smol::accel::{GpuModel, ModelKind};
use smol::codec::signal::image_signal;
use smol::codec::EncodedImage;
use smol::core::{CascadePlan, DecodeMode, Planner, QueryPlan};
use smol::data::{serving_variants, EncodedVariant};
use smol::runtime::{route_stage, MediaItem, TensorCacheStats};
use smol::serve::{Explanation, Priority, SubmitOptions};
use smol::{Calibration, Dataset, Query, Session, SessionConfig};
use std::sync::Mutex;
use std::time::Instant;

pub struct MixedTenants;

const SCAN_ITEMS: usize = 96;
const INTERACTIVE_ITEMS: usize = 128;
const INTERACTIVE_QUERY: usize = 16;
/// The hot eighth of the interactive corpus, and how many of a query's
/// slots draw from it; the rest sweep the cold seven eighths in order. The
/// scan tenant's decoded tensors churn through the same cache, so not every
/// hot draw hits: the interactive tenant sees roughly half hits.
const HOT_ITEMS: usize = INTERACTIVE_ITEMS / 8;
const HOT_SLOTS: usize = 10;
/// Fixed work per slice, sized so both tenants take ≈ 0.5 s at reference
/// speed and finish within 10 % of each other.
const SCAN_QUERIES_PER_SLICE: usize = 2;
const INTERACTIVE_QUERIES_PER_SLICE: usize = 9;
/// Tensor-cache budget: half the interactive tenant's decoded working set
/// (128 thumbnails of 215×161×3 bytes).
const TENSOR_CACHE_BYTES: usize = INTERACTIVE_ITEMS / 2 * 215 * 161 * 3;
/// Both lanes run at a quarter of real device speed, so a 16-item ResNet-50
/// batch (≈ 17 ms on the T4 lane) outweighs its CPU-side preparation.
const DEVICE_TIME_SCALE: f64 = 4.0;
/// Device batch size both tenants plan for. The interactive plan and the
/// scan's full rung share a placement signature (ResNet-50, same tensor), so
/// their items co-batch. At the planner's default of 64 a 16-item
/// interactive query that lands beside a scan waits for 48 escalated scan
/// items to fill its batch, and the tenant's latency is bimodal around its
/// median; 16 keeps the cross-query batching and bounds the wait to one
/// small batch.
const BATCH: usize = 16;
const SCAN_FLOOR: f64 = 0.79;
const INTERACTIVE_FLOOR: f64 = 0.74;
/// The cascade's stage-1 rung: fixed constants of the workload.
const STAGE1_DNN: ModelKind = ModelKind::ResNet18;
const STAGE1_DECODE: DecodeMode = DecodeMode::ReducedResolution { factor: 4 };

pub struct Inputs {
    variants: Vec<EncodedVariant>,
    /// Median difficulty score of the scan corpus: the cascade threshold.
    threshold: f64,
    /// Item indices of every interactive query of the run, in order.
    access_seed: u64,
    store_bytes: u64,
}

pub struct Env {
    session: Session,
    scan: Explanation,
    interactive: Explanation,
    scan_items: Vec<MediaItem>,
    interactive_items: Vec<EncodedImage>,
    cascade: CascadePlan,
    store_load_s: f64,
    register_s: f64,
    explain_cold_s: f64,
    scan_counters: Mutex<TenantCounters>,
    interactive_counters: Mutex<TenantCounters>,
    finish_gap_pct: Mutex<Vec<f64>>,
    /// Tensor-cache counters once the warm-up queries have resolved.
    cache_after_setup: Mutex<TensorCacheStats>,
    /// Sweep cursor and generator of the interactive access order.
    access: Mutex<(SplitMix64, usize)>,
}

fn config() -> SessionConfig {
    let mut config = session_config(TENSOR_CACHE_BYTES, 224);
    config.planner.batch = BATCH;
    config
}

fn variant<'a>(variants: &'a [EncodedVariant], name: &str) -> &'a EncodedVariant {
    variants
        .iter()
        .find(|v| v.name == name)
        .unwrap_or_else(|| panic!("variant {name:?} in the serving layout"))
}

const SCAN_VARIANT: &str = "full-res sjpg(q=95)";
const INTERACTIVE_VARIANT: &str = "161 spng";

/// The next interactive query's items: [`HOT_SLOTS`] distinct draws from
/// the hot set, the rest from the cold sweep.
fn next_access(state: &mut (SplitMix64, usize)) -> Vec<usize> {
    let (rng, cursor) = state;
    let mut picks: Vec<usize> = Vec::with_capacity(INTERACTIVE_QUERY);
    while picks.len() < HOT_SLOTS {
        let hot = rng.below(HOT_ITEMS);
        if !picks.contains(&hot) {
            picks.push(hot);
        }
    }
    while picks.len() < INTERACTIVE_QUERY {
        picks.push(HOT_ITEMS + *cursor % (INTERACTIVE_ITEMS - HOT_ITEMS));
        *cursor += 1;
    }
    picks
}

impl Env {
    fn scan_options(&self) -> SubmitOptions {
        SubmitOptions {
            priority: Priority::Normal,
            accuracy: Some(self.scan.chosen.accuracy),
            cascade: Some(self.cascade.clone()),
            ..SubmitOptions::default()
        }
    }

    fn interactive_options(&self) -> SubmitOptions {
        SubmitOptions {
            priority: Priority::High,
            accuracy: Some(self.interactive.chosen.accuracy),
            ..SubmitOptions::default()
        }
    }

    fn interactive_query(&self, picks: &[usize]) -> Vec<MediaItem> {
        picks
            .iter()
            .map(|&i| MediaItem::Image(self.interactive_items[i].clone()))
            .collect()
    }
}

impl Workload for MixedTenants {
    const NAME: &'static str = "mixed_tenants";
    const OPEN_LOOP: bool = false;
    type Inputs = Inputs;
    type Env = Env;

    fn generate(seed: u64, dir: &RunDir) -> Inputs {
        let variants =
            serving_variants(&fullres_spec(), seed, INTERACTIVE_ITEMS).expect("encode corpus");
        let mut scores: Vec<f64> = variant(&variants, SCAN_VARIANT).items[..SCAN_ITEMS]
            .iter()
            .map(|enc| image_signal(enc).expect("sjpg carries a signal").score())
            .collect();
        scores.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
        dir.store(Self::NAME)
            .and_then(|store| store.materialize("corpus", &variants))
            .expect("materialise variant store");
        Inputs {
            threshold: scores[SCAN_ITEMS / 2 - 1],
            variants,
            access_seed: seed ^ 0xACCE_55ED,
            store_bytes: dir.size_bytes(),
        }
    }

    fn setup(inputs: &Inputs, dir: &RunDir, tracer: &Tracer, parent: SpanId) -> Env {
        let t0 = Instant::now();
        let loaded = tracer.span("store.load", parent, 0, |_| {
            dir.store(Self::NAME)
                .and_then(|store| store.load("corpus"))
                .expect("load variant store")
        });
        let store_load_s = t0.elapsed().as_secs_f64();
        let session = tracer.span("session.new", parent, 0, |_| {
            Session::with_fleet(
                vec![
                    device(GpuModel::T4, DEVICE_TIME_SCALE),
                    device(GpuModel::V100, DEVICE_TIME_SCALE),
                ],
                config(),
            )
        });
        // Each tenant registers its own dataset: the scan tenant the
        // full-resolution variants, the interactive tenant the thumbnails.
        // In both, one (DNN, variant) pair clears the tenant's floor.
        let (full, thumbs): (Vec<_>, Vec<_>) = loaded.into_iter().partition(|v| !v.thumbnail);
        let scan_items: Vec<MediaItem> = variant(&full, SCAN_VARIANT).items[..SCAN_ITEMS]
            .iter()
            .cloned()
            .map(MediaItem::Image)
            .collect();
        let interactive_items = variant(&thumbs, INTERACTIVE_VARIANT).items.clone();
        let t0 = Instant::now();
        tracer.span("session.register", parent, 0, |_| {
            let scan_table =
                one_variant_clears(ModelKind::ResNet50, &full, SCAN_VARIANT, SCAN_FLOOR);
            let interactive_table = one_variant_clears(
                ModelKind::ResNet50,
                &thumbs,
                INTERACTIVE_VARIANT,
                INTERACTIVE_FLOOR,
            );
            session
                .register(
                    Dataset::new("scan")
                        .with_model(ModelKind::ResNet50)
                        .with_encoded_variants(full)
                        .with_calibration(Calibration::Table(scan_table)),
                )
                .expect("register scan dataset");
            session
                .register(
                    Dataset::new("interactive")
                        .with_model(ModelKind::ResNet50)
                        .with_encoded_variants(thumbs)
                        .with_calibration(Calibration::Table(interactive_table)),
                )
                .expect("register interactive dataset");
        });
        let register_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let (scan, interactive) = tracer.span("session.explain", parent, 0, |_| {
            (
                session
                    .explain(&Query::new("scan").min_accuracy(SCAN_FLOOR))
                    .expect("plan the scan tenant"),
                session
                    .explain(&Query::new("interactive").min_accuracy(INTERACTIVE_FLOOR))
                    .expect("plan the interactive tenant"),
            )
        });
        let explain_cold_s = t0.elapsed().as_secs_f64();
        let cascade = CascadePlan {
            stage1: QueryPlan {
                dnn: STAGE1_DNN,
                decode: STAGE1_DECODE,
                ..scan.chosen.plan.clone()
            },
            threshold: inputs.threshold,
            escalation_rate: 0.5,
        };
        let env = Env {
            session,
            scan,
            interactive,
            scan_items,
            interactive_items,
            cascade,
            store_load_s,
            register_s,
            explain_cold_s,
            scan_counters: Mutex::default(),
            interactive_counters: Mutex::default(),
            finish_gap_pct: Mutex::default(),
            cache_after_setup: Mutex::default(),
            access: Mutex::new((SplitMix64::new(inputs.access_seed), 0)),
        };
        // Warm-up: one query of each tenant, resolved.
        tracer.span("warmup", parent, 0, |_| {
            let scan = env
                .session
                .server()
                .submit_media_opts(
                    env.scan.chosen.plan.clone(),
                    env.scan_items.clone(),
                    env.scan_options(),
                )
                .expect("submit scan warm-up");
            let picks: Vec<usize> = (0..INTERACTIVE_QUERY).collect();
            let interactive = env
                .session
                .server()
                .submit_media_opts(
                    env.interactive.chosen.plan.clone(),
                    env.interactive_query(&picks),
                    env.interactive_options(),
                )
                .expect("submit interactive warm-up");
            scan.wait().expect("scan warm-up");
            interactive.wait().expect("interactive warm-up");
        });
        *env.cache_after_setup.lock().expect("cache snapshot lock") =
            env.session.server().tensor_cache_stats();
        env
    }

    fn plan_labels(env: &Env) -> Vec<String> {
        vec![
            format!("scan full rung: {}", plan_label(&env.scan.chosen.plan)),
            format!(
                "scan stage-1 rung: {} (threshold fixed per seed)",
                plan_label(&env.cascade.stage1)
            ),
            format!("interactive: {}", plan_label(&env.interactive.chosen.plan)),
        ]
    }

    fn slice(env: &Env, _: &Inputs, index: usize, tracer: &Tracer, parent: SpanId) -> SliceWork {
        let start = Instant::now();
        let (scan, scan_done, interactive, interactive_done) = std::thread::scope(|scope| {
            let scan = scope.spawn(|| {
                let burst = closed_loop(
                    SCAN_QUERIES_PER_SLICE,
                    1,
                    (index * SCAN_QUERIES_PER_SLICE) as u64,
                    tracer,
                    parent,
                    &env.scan_counters,
                    |_| {
                        let handle = env
                            .session
                            .server()
                            .submit_media_opts(
                                env.scan.chosen.plan.clone(),
                                env.scan_items.clone(),
                                env.scan_options(),
                            )
                            .expect("submit scan query");
                        (handle, SCAN_ITEMS)
                    },
                );
                (burst, start.elapsed().as_secs_f64())
            });
            let interactive = scope.spawn(|| {
                let burst = closed_loop(
                    INTERACTIVE_QUERIES_PER_SLICE,
                    1,
                    (1 << 32) + (index * INTERACTIVE_QUERIES_PER_SLICE) as u64,
                    tracer,
                    parent,
                    &env.interactive_counters,
                    |_| {
                        let picks = next_access(&mut env.access.lock().expect("access lock"));
                        let handle = env
                            .session
                            .server()
                            .submit_media_opts(
                                env.interactive.chosen.plan.clone(),
                                env.interactive_query(&picks),
                                env.interactive_options(),
                            )
                            .expect("submit interactive query");
                        (handle, INTERACTIVE_QUERY)
                    },
                );
                (burst, start.elapsed().as_secs_f64())
            });
            let (scan, scan_done) = scan.join().expect("scan driver panicked");
            let (interactive, interactive_done) =
                interactive.join().expect("interactive driver panicked");
            (scan, scan_done, interactive, interactive_done)
        });
        env.finish_gap_pct
            .lock()
            .expect("gap lock")
            .push((scan_done - interactive_done).abs() / scan_done.max(interactive_done) * 100.0);
        SliceWork {
            outputs: scan.outputs + interactive.outputs,
            failed: scan.failed + interactive.failed,
            // The interactive tenant's queries only: the scan tenant's
            // latency is its throughput seen from the other side.
            latencies_ms: interactive.latencies_ms,
        }
    }

    fn verify(env: &Env, _: &Inputs, corrupt_one: bool) -> Verdict {
        let server = env.session.server();
        // Scan: every item's digest against the reference decode of the rung
        // its bitstream signal routes it to.
        let threshold = env.cascade.threshold;
        let mut scan_items = env.scan_items.clone();
        if corrupt_one {
            if let MediaItem::Image(enc) = &scan_items[SCAN_ITEMS / 2] {
                scan_items[SCAN_ITEMS / 2] = MediaItem::Image(corrupt(enc));
            }
        }
        let routed: Vec<usize> = env
            .scan_items
            .iter()
            .map(|item| route_stage(item, threshold))
            .collect();
        let expected: Vec<Option<u64>> = env
            .scan_items
            .iter()
            .zip(&routed)
            .map(|(item, &stage)| {
                let MediaItem::Image(enc) = item else {
                    return None;
                };
                let plan = if stage == 0 {
                    &env.cascade.stage1
                } else {
                    &env.scan.chosen.plan
                };
                oracle_digest(enc, plan)
            })
            .collect();
        let mut report = server
            .submit_media_opts_with_infer(
                env.scan.chosen.plan.clone(),
                scan_items,
                env.scan_options(),
                |_, img| pixel_digest(img),
            )
            .and_then(|h| h.wait())
            .expect("scan verification query");
        let got = report.take_results::<u64>();
        let scan_ok = matching_digests(&got, &expected);
        let escalated: usize = routed.iter().sum();

        // Interactive: one seeded query, hits and misses alike.
        let picks = next_access(&mut (SplitMix64::new(0x5EED), 0));
        let plan = &env.interactive.chosen.plan;
        let expected: Vec<Option<u64>> = picks
            .iter()
            .map(|&i| oracle_digest(&env.interactive_items[i], plan))
            .collect();
        let mut ireport = server
            .submit_media_opts_with_infer(
                plan.clone(),
                env.interactive_query(&picks),
                env.interactive_options(),
                |_, img| pixel_digest(img),
            )
            .and_then(|h| h.wait())
            .expect("interactive verification query");
        let got = ireport.take_results::<u64>();
        let interactive_ok = matching_digests(&got, &expected);

        let (sc, ic) = (
            env.scan_counters.lock().expect("counter lock"),
            env.interactive_counters.lock().expect("counter lock"),
        );
        let attempted = SCAN_ITEMS + INTERACTIVE_QUERY;
        let mut verdict = Verdict {
            attempted: attempted as u64,
            failed: (attempted - scan_ok - interactive_ok) as u64,
            ..Verdict::default()
        };
        verdict.check(
            "images + failed + skipped == submitted for every query",
            sc.unbalanced == 0
                && ic.unbalanced == 0
                && report.images + report.failed + report.skipped == SCAN_ITEMS
                && ireport.images + ireport.failed + ireport.skipped == INTERACTIVE_QUERY,
        );
        verdict.check(
            format!(
                "scan: {scan_ok}/{SCAN_ITEMS} digests equal the routed rung's reference decode"
            ),
            scan_ok == SCAN_ITEMS,
        );
        verdict.check(
            format!(
                "interactive: {interactive_ok}/{INTERACTIVE_QUERY} digests equal the reference decode"
            ),
            interactive_ok == INTERACTIVE_QUERY,
        );
        verdict.check(
            format!(
                "escalated {} == replayed route_stage {escalated} (and in every timed query)",
                report.escalated_items
            ),
            (corrupt_one || report.escalated_items == escalated)
                && sc.escalated == sc.queries * escalated as u64,
        );
        verdict.check(
            format!(
                "interactive tenant saw both hits and misses ({} of {} outputs hit)",
                ic.cache_hits, ic.images
            ),
            ic.cache_hits > 0 && ic.cache_hits < ic.images,
        );
        verdict.check(
            "plans serve the calibrated variants",
            env.scan.variant == SCAN_VARIANT && env.interactive.variant == INTERACTIVE_VARIANT,
        );
        verdict
    }

    fn layer_stats(env: &Env, inputs: &Inputs, out: &mut LayerMetrics) {
        let (sc, ic) = (
            env.scan_counters.lock().expect("counter lock"),
            env.interactive_counters.lock().expect("counter lock"),
        );
        let stats = env.session.stats();
        let since = *env.cache_after_setup.lock().expect("cache snapshot lock");
        let (hit_share, evictions) = cache_activity(stats.tensor_cache, since);
        out.set("runtime.cache_hit_share", hit_share);
        out.set("runtime.cache_evictions", evictions);
        let reused = sc.pool.reused + ic.pool.reused;
        let allocated = sc.pool.allocated + ic.pool.allocated;
        out.set(
            "runtime.pool_reuse_share",
            reused as f64 / (reused + allocated).max(1) as f64,
        );
        out.set(
            "serve.item_latency_p50_ms",
            TenantCounters::median_or_zero(&ic.item_p50_ms),
        );
        out.set(
            "serve.item_latency_p95_ms",
            TenantCounters::median_or_zero(&ic.item_p95_ms),
        );
        out.set(
            "serve.submit_us",
            TenantCounters::median_or_zero(&ic.submit_us),
        );
        out.set("serve.wait_ms", TenantCounters::median_or_zero(&ic.wait_ms));
        out.set(
            "serve.tenant_finish_gap_pct",
            median(&env.finish_gap_pct.lock().expect("gap lock")),
        );
        out.set(
            "serve.escalated_share",
            sc.escalated as f64 / sc.submitted_outputs.max(1) as f64,
        );
        out.set("data.store_load_s", env.store_load_s);
        out.set(
            "data.store_load_mbps",
            inputs.store_bytes as f64 / 1e6 / env.store_load_s,
        );
        out.set("serve.register_s", env.register_s);
        out.set("serve.explain_cold_s", env.explain_cold_s);
        session_metrics(
            &env.session,
            &Query::new("interactive").min_accuracy(INTERACTIVE_FLOOR),
            out,
        );
    }

    fn replay(env: &Env, inputs: &Inputs, tracer: &Tracer, out: &mut LayerMetrics) -> f64 {
        let lane = device(GpuModel::T4, DEVICE_TIME_SCALE);
        let scan_sample: Vec<EncodedImage> = env
            .scan_items
            .iter()
            .take(replay::MIN_REPLAYS)
            .filter_map(|m| match m {
                MediaItem::Image(enc) => Some(enc.clone()),
                MediaItem::Gop(_) => None,
            })
            .collect();
        let scan_plan = &env.scan.chosen.plan;
        // Each rung's codec entry point on its own, then the routed path.
        replay::time_sjpg_modes(tracer, out, &scan_sample, scan_plan.decode);
        let scan = replay::replay_stills(
            tracer,
            out,
            scan_plan,
            Some((&env.cascade.stage1, env.cascade.threshold)),
            &scan_sample,
            CachePath::Disabled,
            &lane,
        );
        // The routed replay timed a mix of rungs under the full rung's
        // name; the full rung alone is what the name promises.
        replay::time_codec_mode(tracer, out, &scan_sample, scan_plan.decode);

        let plan = &env.interactive.chosen.plan;
        let thumbs = &env.interactive_items[..replay::MIN_REPLAYS];
        replay::time_codec_mode(tracer, out, thumbs, plan.decode);
        replay::time_cache_miss_paths(out, plan, thumbs);
        let hit = replay::replay_stills(tracer, out, plan, None, thumbs, CachePath::Hot, &lane);
        let miss_cpu_us = replay::replay_stills(
            tracer,
            &mut LayerMetrics::default(),
            plan,
            None,
            thumbs,
            CachePath::Disabled,
            &lane,
        );

        let media: Vec<MediaItem> = scan_sample.iter().cloned().map(MediaItem::Image).collect();
        let config = config();
        replay::time_profile(out, scan_plan, &media, config.server.runtime);
        let specs = still_specs(
            ModelKind::ResNet50,
            &inputs.variants,
            SCAN_FLOOR,
            env.scan.chosen.preproc_throughput,
        );
        replay::time_shared_structures(out, scan_plan, &specs, &Planner::new(config.planner));

        // Replayed stage CPU per output, weighted as the slices were: scan
        // outputs on the routed path, interactive outputs by hit share.
        let (sc, ic) = (
            env.scan_counters.lock().expect("counter lock"),
            env.interactive_counters.lock().expect("counter lock"),
        );
        let hits = ic.cache_hits as f64 / ic.images.max(1) as f64;
        let interactive_cpu_us = hits * hit + (1.0 - hits) * miss_cpu_us;
        let total = (sc.images + ic.images).max(1) as f64;
        (sc.images as f64 * scan + ic.images as f64 * interactive_cpu_us) / total
    }

    fn teardown(env: Env) {
        env.session.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order(seed: u64, queries: usize) -> Vec<Vec<usize>> {
        let mut state = (SplitMix64::new(seed), 0);
        (0..queries).map(|_| next_access(&mut state)).collect()
    }

    #[test]
    fn access_order_repeats_for_a_seed_and_differs_between_seeds() {
        assert_eq!(order(9, 40), order(9, 40));
        assert_ne!(order(9, 40), order(10, 40));
    }

    #[test]
    fn every_query_mixes_distinct_hot_draws_with_the_cold_sweep() {
        let queries = order(3, 30);
        let mut swept = Vec::new();
        for picks in &queries {
            assert_eq!(picks.len(), INTERACTIVE_QUERY);
            let (hot, cold) = picks.split_at(HOT_SLOTS);
            assert!(hot.iter().all(|&i| i < HOT_ITEMS));
            let mut distinct = hot.to_vec();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(
                distinct.len(),
                HOT_SLOTS,
                "hot draws are distinct within a query"
            );
            assert!(cold
                .iter()
                .all(|&i| (HOT_ITEMS..INTERACTIVE_ITEMS).contains(&i)));
            swept.extend_from_slice(cold);
        }
        // The sweep visits the cold items in order, wrapping around.
        for (k, &i) in swept.iter().enumerate() {
            assert_eq!(i, HOT_ITEMS + k % (INTERACTIVE_ITEMS - HOT_ITEMS));
        }
    }
}
