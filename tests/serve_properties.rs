//! Property tests for the serving scheduler. The batch former: under any
//! interleaving of produced items, a device batch never mixes placement
//! signatures, never exceeds its plan's batch size, and never loses or
//! duplicates an item. The batcher: under any interleaving of claims,
//! productions, failures and re-plans of queries at mixed priorities, its
//! counters track exactly what is outstanding and a pending output waits
//! only for work of its own priority or above. The server: whatever
//! fidelity policy a query runs
//! under and wherever an item fails, its handle resolves and its outputs
//! are conserved.

use proptest::prelude::*;
use smol::accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol::codec::{signal::image_signal, EncodedImage, Format};
use smol::core::{
    CascadePlan, DecodeMode, InputVariant, PlacementSignature, Planner, PlannerConfig, QueryPlan,
};
use smol::imgproc::{ImageU8, PreprocPlan};
use smol::runtime::RuntimeOptions;
use smol::serve::scheduler::{Batcher, SigCount};
use smol::serve::{
    BatchFormer, DegradeStep, Priority, Server, ServerConfig, SubmitOptions, SubmitRequest,
};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Three genuinely different plans (DNN × geometry × batch size), with the
/// signatures derived exactly as the server derives them.
fn signatures() -> Vec<Arc<PlacementSignature>> {
    let mk = |dnn: ModelKind, crop: u32, batch: usize| -> Arc<PlacementSignature> {
        Arc::new(
            QueryPlan {
                dnn,
                input: InputVariant::new("in", Format::sjpg(85), 640, 480),
                preproc: PreprocPlan::standard(256, crop, crop),
                decode: DecodeMode::Full,
                batch,
            }
            .placement_signature(),
        )
    };
    vec![
        mk(ModelKind::ResNet50, 224, 3),
        mk(ModelKind::ResNet18, 224, 5),
        mk(ModelKind::ResNet50, 192, 8),
    ]
}

/// An arbitrary interleaving: for each push, which of the three plans the
/// item belongs to.
fn arb_interleaving() -> impl Strategy<Value = Vec<usize>> {
    (any::<u64>(), 0usize..160).prop_map(|(seed, len)| {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) % 3) as usize
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Emitted batches are homogeneous, bounded by the plan's batch size,
    /// and full exactly when emitted by `push`.
    #[test]
    fn batches_never_mix_signatures_or_overflow(interleaving in arb_interleaving()) {
        let sigs = signatures();
        let mut former: BatchFormer<(usize, usize)> = BatchFormer::new();
        let mut emitted = Vec::new();
        for (token, &si) in interleaving.iter().enumerate() {
            if let Some(batch) = former.push(&sigs[si], (si, token)) {
                prop_assert_eq!(
                    batch.items.len(),
                    batch.sig.batch,
                    "push only emits full batches"
                );
                emitted.push(batch);
            }
        }
        emitted.extend(former.flush_all());
        for batch in &emitted {
            prop_assert!(batch.items.len() <= batch.sig.batch, "batch overflow");
            prop_assert!(!batch.items.is_empty());
            let expect_si = sigs.iter().position(|s| s == &batch.sig).expect("known sig");
            for &(si, _) in &batch.items {
                prop_assert_eq!(si, expect_si, "mixed placement signatures in one batch");
            }
        }
    }

    /// Conservation: every pushed item comes back exactly once across
    /// emitted batches plus the final flush.
    #[test]
    fn every_item_batched_exactly_once(interleaving in arb_interleaving()) {
        let sigs = signatures();
        let mut former: BatchFormer<(usize, usize)> = BatchFormer::new();
        let mut seen: Vec<(usize, usize)> = Vec::new();
        for (token, &si) in interleaving.iter().enumerate() {
            if let Some(batch) = former.push(&sigs[si], (si, token)) {
                seen.extend(batch.items);
            }
        }
        for batch in former.flush_all() {
            seen.extend(batch.items);
        }
        prop_assert_eq!(former.pending_total(), 0);
        seen.sort_unstable();
        let mut expected: Vec<(usize, usize)> = interleaving
            .iter()
            .enumerate()
            .map(|(token, &si)| (si, token))
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(seen, expected);
    }
}

/// A produced output as the batcher sees it: its query's priority, the
/// query, the item, and the signature it was produced under.
type Token = (Priority, usize, usize, usize);

/// What the test knows of one query, independently of the batcher.
struct ModelQuery {
    prio: Priority,
    /// Signatures an item not yet produced is counted under: one for a
    /// uniform query (re-planning moves it), two for a routed one.
    open: Vec<usize>,
    unclaimed: usize,
    /// Claims out, each with the `open` it was taken under.
    claims: Vec<Vec<usize>>,
    submitted: usize,
    failed: usize,
    skipped: usize,
}

impl ModelQuery {
    fn production_done(&self) -> bool {
        self.unclaimed == 0 && self.claims.is_empty()
    }
}

const PRIORITIES: [Priority; 3] = [Priority::Low, Priority::Normal, Priority::High];

/// The counters the batcher should hold for signature `si`: every
/// unclaimed item of a query open under it and every claim taken under it.
fn expected_count(queries: &[ModelQuery], si: usize) -> Option<SigCount> {
    let mut count = SigCount::default();
    for q in queries {
        let held = q.claims.iter().filter(|open| open.contains(&si)).count();
        let unclaimed = if q.open.contains(&si) { q.unclaimed } else { 0 };
        count.open[q.prio as usize] += held + unclaimed;
    }
    (count != SigCount::default()).then_some(count)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Queries × priorities × signatures, stepped in an arbitrary order:
    /// claim an item, integrate a claim (produced under one of the rungs
    /// it was open to, or failed — which drops the query's unclaimed rest),
    /// or re-plan a uniform query's unclaimed items onto another signature.
    /// After every step the batcher's counters equal the model's, only the
    /// signatures the step settled changed their groups, every released
    /// batch is homogeneous and within its batch size, and a pending output
    /// has work of its own priority or above still outstanding under its
    /// signature — so once every query of the highest live priority is done
    /// producing, none of them has an output pending. At the end everything
    /// pushed was emitted exactly once, the batcher is idle, and each
    /// query's outputs are conserved.
    #[test]
    fn priority_drain_keeps_counters_exact_and_waits_only_for_peers_and_betters(
        seed in any::<u64>(),
        n_queries in 1usize..7,
        n_priorities in 1usize..4,
    ) {
        let sigs = signatures();
        let mut state = seed | 1;
        let mut draw = |n: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as usize) % n
        };
        let mut queries: Vec<ModelQuery> = (0..n_queries)
            .map(|_| {
                let first = draw(3);
                let routed = draw(3) == 0;
                let n = draw(14);
                ModelQuery {
                    prio: PRIORITIES[draw(n_priorities)],
                    open: if routed { vec![first, (first + 1) % 3] } else { vec![first] },
                    unclaimed: n,
                    claims: Vec::new(),
                    submitted: n,
                    failed: 0,
                    skipped: 0,
                }
            })
            .collect();
        let mut batcher: Batcher<Token> = Batcher::new(|token| token.0);
        for q in &queries {
            for &si in &q.open {
                batcher.register(&sigs[si], q.prio, q.unclaimed);
            }
        }
        let mut pushed: Vec<Token> = Vec::new();
        let mut emitted: Vec<Token> = Vec::new();
        let mut expected_priority_flushes = 0;

        while queries.iter().any(|q| !q.production_done()) {
            let before: Vec<Vec<Token>> = sigs.iter().map(|s| batcher.group(s).to_vec()).collect();
            let mut out = Vec::new();
            let mut touched: Vec<usize> = Vec::new();
            let qi = loop {
                let qi = draw(n_queries);
                if !queries[qi].production_done() {
                    break qi;
                }
            };
            let q = &mut queries[qi];
            let action = draw(10);
            if q.unclaimed > 0 && (q.claims.is_empty() || action < 5) {
                q.unclaimed -= 1;
                q.claims.push(q.open.clone());
            } else if q.unclaimed > 0 && q.open.len() == 1 && action == 5 {
                // Re-plan: the unclaimed items change signature.
                let (old, new) = (q.open[0], (q.open[0] + 1 + draw(2)) % 3);
                batcher.register(&sigs[new], q.prio, q.unclaimed);
                batcher.settle(&sigs[old], q.prio, q.unclaimed, &mut out);
                q.open = vec![new];
                touched.extend([old, new]);
            } else {
                let held = q.claims.swap_remove(draw(q.claims.len()));
                if draw(8) == 0 {
                    q.failed += 1;
                    q.skipped += q.unclaimed;
                    if q.unclaimed > 0 {
                        for &si in &q.open {
                            batcher.settle(&sigs[si], q.prio, q.unclaimed, &mut out);
                        }
                        touched.extend(q.open.iter().copied());
                        q.unclaimed = 0;
                    }
                } else {
                    let si = held[draw(held.len())];
                    let token = (q.prio, qi, pushed.len(), si);
                    pushed.push(token);
                    out.extend(batcher.push(&sigs[si], token));
                }
                for &si in &held {
                    batcher.settle(&sigs[si], q.prio, 1, &mut out);
                }
                touched.extend(held);
            }

            for batch in out {
                let si = sigs.iter().position(|s| s == &batch.sig).expect("known sig");
                prop_assert!(!batch.items.is_empty() && batch.items.len() <= batch.sig.batch);
                prop_assert!(batch.items.iter().all(|t| t.3 == si), "mixed signatures");
                prop_assert!(touched.contains(&si), "a step released a group it did not settle");
                // A partial batch released while work is still counted
                // under its signature went by the priority rule.
                if !batch.is_full() && expected_count(&queries, si).is_some() {
                    expected_priority_flushes += 1;
                }
                emitted.extend(batch.items);
            }
            for (si, sig) in sigs.iter().enumerate() {
                let count = expected_count(&queries, si);
                prop_assert_eq!(batcher.count(sig), count, "counters drifted from the model");
                let group = batcher.group(sig);
                if !touched.contains(&si) {
                    prop_assert_eq!(group, &before[si][..], "an unsettled group changed");
                }
                if let Some(urgent) = group.iter().map(|t| t.0).max() {
                    let outstanding = count.unwrap_or_default();
                    prop_assert!(
                        PRIORITIES
                            .iter()
                            .zip(outstanding.open)
                            .any(|(&p, open)| p >= urgent && open > 0),
                        "an output waits for nothing of its own priority or above"
                    );
                }
            }
            let pending_of = |qi: usize| {
                sigs.iter().flat_map(|s| batcher.group(s)).filter(|t| t.1 == qi).count()
            };
            let live = |(qi, q): &(usize, &ModelQuery)| !q.production_done() || pending_of(*qi) > 0;
            if let Some(top) = queries.iter().enumerate().filter(live).map(|(_, q)| q.prio).max() {
                let mut leaders = queries.iter().enumerate().filter(|(_, q)| q.prio == top);
                if leaders.clone().all(|(_, q)| q.production_done()) {
                    prop_assert!(leaders.all(|(qi, _)| pending_of(qi) == 0));
                }
            }
        }

        prop_assert!(batcher.is_idle(), "counters or items outlived the last query");
        prop_assert_eq!(batcher.priority_flushes(), expected_priority_flushes);
        if n_priorities == 1 {
            prop_assert_eq!(batcher.priority_flushes(), 0, "one priority: rule 3 never fires");
        }
        for (qi, q) in queries.iter().enumerate() {
            let images = emitted.iter().filter(|t| t.1 == qi).count();
            prop_assert_eq!(images + q.failed + q.skipped, q.submitted);
        }
        emitted.sort_unstable_by_key(|t| t.2);
        prop_assert_eq!(emitted, pushed, "every pushed output is emitted exactly once");
    }
}

/// 64-px sjpg stills — smooth ramps at even indices, busy texture at odd
/// ones — encoded once for every case, and the difficulty score that
/// splits the two kinds.
fn corpus() -> &'static (Vec<EncodedImage>, f64) {
    static CORPUS: OnceLock<(Vec<EncodedImage>, f64)> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let items: Vec<EncodedImage> = (0..18)
            .map(|seed| {
                let mut img = ImageU8::zeros(64, 64, 3);
                for (j, v) in img.data_mut().iter_mut().enumerate() {
                    *v = match seed % 2 {
                        0 => (j / 192 + j % 192 / 6 + seed) as u8,
                        _ => ((j * 7 + j / 64 * 13 + seed * 31) % 256) as u8,
                    };
                }
                EncodedImage::encode(&img, Format::sjpg(85)).unwrap()
            })
            .collect();
        let score = |enc| image_signal(enc).expect("sjpg signal").score();
        let threshold = (score(&items[0]) + score(&items[1])) / 2.0;
        (items, threshold)
    })
}

/// A 64-px → 32-px plan on `dnn`, decoding per `decode`.
fn served_plan(dnn: ModelKind, decode: DecodeMode) -> QueryPlan {
    let planner = Planner::new(PlannerConfig {
        dnn_input: 32,
        batch: 4,
        ..Default::default()
    });
    let input = InputVariant::new("64 sjpg", Format::sjpg(85), 64, 64);
    QueryPlan {
        dnn,
        preproc: planner.build_preproc(&input),
        input,
        decode,
        batch: 4,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One accounting path for every fidelity policy: a 16-item query —
    /// uniform, laddered 1–3 steps deep (steps 1 and 2 share a signature),
    /// or routed — with a tenant blocked behind it at admission (the
    /// pressure that walks the ladder) and possibly one undecodable item,
    /// on 1–3 producers. Both handles resolve and every output is done,
    /// failed or skipped. (Debug builds also check at finalize that no
    /// signature counter outlives the last query.)
    #[test]
    fn every_policy_resolves_and_conserves_outputs(
        depth in 0usize..4,
        corrupt_at in 0usize..24,
        producers in 1usize..4,
        routed in 0u8..2,
    ) {
        let n = 16;
        let (corpus, threshold) = corpus();
        let mut items = corpus[..n].to_vec();
        let corrupt = corrupt_at < n; // else: a healthy query
        if corrupt {
            let bytes = &items[corrupt_at].bytes;
            items[corrupt_at].bytes = bytes.slice(..bytes.len() - 1);
        }
        let full = served_plan(ModelKind::ResNet50, DecodeMode::Full);
        let steps = [
            (ModelKind::ResNet34, 0.93),
            (ModelKind::ResNet34, 0.92),
            (ModelKind::ResNet18, 0.91),
        ];
        let opts = SubmitOptions {
            accuracy: Some(0.95),
            accuracy_floor: Some(0.9),
            ladder: steps[..depth]
                .iter()
                .map(|&(dnn, accuracy)| DegradeStep {
                    plan: served_plan(dnn, DecodeMode::Full),
                    accuracy,
                    est_throughput: 2_000.0,
                })
                .collect(),
            cascade: (routed == 1).then(|| CascadePlan {
                stage1: served_plan(
                    ModelKind::ResNet18,
                    DecodeMode::ReducedResolution { factor: 2 },
                ),
                threshold: *threshold,
                escalation_rate: 0.5,
            }),
            ..Default::default()
        };
        let server = Server::new(
            VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 0.02),
            ServerConfig {
                runtime: RuntimeOptions {
                    producers,
                    consumers: 1,
                    extra_cpu_s_per_image: 0.0005,
                    ..Default::default()
                },
                max_active_queries: 1,
                batch_queue: 2,
                ..Default::default()
            },
        );
        let resolve = |handle: smol::serve::QueryHandle| {
            handle
                .wait_deadline(Duration::from_secs(60))
                .expect("server alive")
        };
        let h1 = server.submit(SubmitRequest::stills(full.clone(), &items).options(opts)).expect("admitted");
        let (r1, r2) = std::thread::scope(|scope| {
            let tenant2 = scope.spawn(|| {
                resolve(server.submit(SubmitRequest::stills(full.clone(), &corpus[n..])).expect("admitted"))
            });
            (resolve(h1), tenant2.join().expect("tenant 2"))
        });
        let (Some(r1), Some(r2)) = (r1, r2) else {
            panic!("a handle did not resolve");
        };
        prop_assert_eq!(r1.images + r1.failed + r1.skipped, n);
        prop_assert_eq!(r1.failed, usize::from(corrupt));
        prop_assert_eq!(r1.error.is_some(), corrupt);
        if routed == 1 {
            prop_assert_eq!(r1.degraded_steps, 0, "a routed query ignores the ladder");
            prop_assert_eq!(r1.stage_histogram.iter().sum::<usize>(), r1.images);
        } else {
            prop_assert!(r1.degraded_steps <= depth);
            prop_assert!(r1.stage_histogram.is_empty());
        }
        prop_assert_eq!((r2.images, r2.failed), (corpus.len() - n, 0));
        prop_assert_eq!(server.stats().pending_batch_items, 0);
        server.shutdown();
    }
}
