//! Property tests for the serving scheduler. The batch former: under any
//! interleaving of produced items, a device batch never mixes placement
//! signatures, never exceeds its plan's batch size, and never loses or
//! duplicates an item. The server: whatever fidelity policy a query runs
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
use smol::serve::{BatchFormer, DegradeStep, Server, ServerConfig, SubmitOptions};
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
                extra_stages: Vec::new(),
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
        extra_stages: Vec::new(),
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
        let h1 = server.submit_opts(full.clone(), items, opts).expect("admitted");
        let (r1, r2) = std::thread::scope(|scope| {
            let tenant2 = scope.spawn(|| {
                resolve(server.submit(full.clone(), corpus[n..].to_vec()).expect("admitted"))
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
