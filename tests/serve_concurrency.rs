//! Concurrency battery for the `smol-serve` multi-query runtime: mixed
//! plans from many submitter threads, per-query image conservation,
//! bit-identical results vs the scalar reference decoder, admission
//! backpressure, drain-on-shutdown, error isolation, the
//! server-lifetime staging arena (reuse across queries, geometries and slot
//! kinds kept apart, the reuse lesion, degradation to another geometry or
//! placement), §6.3 placement as a batching boundary, and the
//! consumers' launch window (two deep, drained on shutdown, invisible in
//! results, no stealing from behind a launched batch, a panicking callback
//! fails one output).

use smol::accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol::codec::{Bytes, DecodeOptions, EncodedImage, Format};
use smol::core::{InputVariant, Planner, PlannerConfig, QueryPlan};
use smol::data::{fingerprint, textured};
use smol::runtime::pipeline::decode_item_opts;
use smol::runtime::{MediaItem, RuntimeOptions, SlotKind};
use smol::serve::{
    DegradeStep, QueryPoll, ServeError, Server, ServerConfig, ServerStats, SubmitOptions,
    SubmitRequest,
};
use std::time::{Duration, Instant};

fn encoded_batch(n: usize, w: usize, h: usize, seed: usize) -> Vec<EncodedImage> {
    (0..n)
        .map(|i| EncodedImage::encode(&textured(w, h, seed + i), Format::sjpg(85)).unwrap())
        .collect()
}

fn plan_for(dnn: ModelKind, w: usize, h: usize, dnn_input: u32, batch: usize) -> QueryPlan {
    let planner = Planner::new(PlannerConfig {
        dnn_input,
        batch,
        ..Default::default()
    });
    let input = InputVariant::new(format!("{w}x{h} sjpg"), Format::sjpg(85), w, h);
    QueryPlan {
        dnn,
        input: input.clone(),
        preproc: planner.build_preproc(&input),
        decode: smol::core::DecodeMode::Full,
        batch,
    }
}

fn fast_device() -> VirtualDevice {
    VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 0.02)
}

/// N queries with mixed plans from M submitter threads: nothing deadlocks,
/// every handle resolves, and image counts are conserved per query.
#[test]
fn stress_mixed_plans_from_many_threads() {
    let server = Server::new(
        fast_device(),
        ServerConfig {
            runtime: RuntimeOptions {
                producers: 4,
                consumers: 2,
                ..Default::default()
            },
            // Smaller than the total query count so admission blocking is
            // exercised under contention.
            max_active_queries: 4,
            batch_queue: 2,
            tensor_cache_bytes: 256 << 20,
        },
    );
    let threads = 4;
    let shapes = [
        (ModelKind::ResNet50, 64usize, 64usize, 32u32, 8usize, 7usize),
        (ModelKind::ResNet18, 80, 64, 48, 4, 12),
        (ModelKind::ResNet34, 64, 80, 32, 4, 5),
    ];
    std::thread::scope(|scope| {
        for t in 0..threads {
            let server = &server;
            scope.spawn(move || {
                for (qi, &(dnn, w, h, dnn_input, batch, n)) in shapes.iter().enumerate() {
                    let items = encoded_batch(n, w, h, t * 100 + qi * 10);
                    let plan = plan_for(dnn, w, h, dnn_input, batch);
                    let handle = server
                        .submit(SubmitRequest::stills(plan, &items))
                        .expect("admitted");
                    let report = handle.wait().expect("handle resolves");
                    assert_eq!(report.images, n, "thread {t} query {qi} conserves images");
                    assert_eq!(report.failed, 0);
                    assert!(report.error.is_none());
                    assert!(report.wall_s > 0.0);
                    assert!(report.latency_p95_s >= report.latency_p50_s);
                }
            });
        }
    });
    let stats = server.stats();
    let expected_images: u64 = (threads as u64) * shapes.iter().map(|s| s.5 as u64).sum::<u64>();
    assert_eq!(stats.submitted_queries, (threads * shapes.len()) as u64);
    assert_eq!(stats.completed_queries, stats.submitted_queries);
    assert_eq!(stats.images_in, expected_images);
    assert_eq!(stats.images_done, expected_images);
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.pending_batch_items, 0);
    assert!(stats.batches > 0);
    server.shutdown();
}

/// A query served through the runtime hands its callback, for every item,
/// exactly the pixels of a single-threaded scalar-reference decode of that
/// item — an oracle that shares neither threads nor kernels with the engine.
#[test]
fn server_matches_scalar_reference_decode_bitwise() {
    let items = encoded_batch(14, 96, 80, 7);
    let plan = plan_for(ModelKind::ResNet50, 96, 80, 64, 8);

    let reference: Vec<u64> = items
        .iter()
        .enumerate()
        .map(|(i, enc)| {
            let opts = DecodeOptions::scalar_reference();
            fingerprint(i, &decode_item_opts(enc, plan.decode, opts).unwrap())
        })
        .collect();

    let server = Server::new(fast_device(), ServerConfig::default());
    let handle = server
        .submit(SubmitRequest::stills(plan, &items).infer(fingerprint))
        .expect("admitted");
    let mut report = handle.wait().expect("resolves");
    assert_eq!(report.images, 14);
    let served = report.take_results::<u64>();
    server.shutdown();

    assert_eq!(reference.len(), served.len());
    for (i, (r, s)) in reference.iter().zip(&served).enumerate() {
        assert_eq!(
            *r,
            s.expect("server inferred"),
            "prediction {i} must be bit-identical"
        );
    }
}

/// Two homogeneous queries submitted together are merged into one full
/// cross-query device batch.
#[test]
fn homogeneous_queries_share_device_batches() {
    let server = Server::new(
        fast_device(),
        ServerConfig {
            runtime: RuntimeOptions {
                producers: 2,
                consumers: 1,
                // Slow production down so both queries are admitted long
                // before either can drain: with 2 producers at 20ms/item,
                // query 1 cannot drain (and partial-flush) until ~40ms
                // after its submit, while the pre-encoded second submit
                // lands microseconds later (deterministic batch merging).
                extra_cpu_s_per_image: 0.02,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let plan = plan_for(ModelKind::ResNet50, 64, 64, 32, 8);
    let items1 = encoded_batch(4, 64, 64, 1);
    let items2 = encoded_batch(4, 64, 64, 2);
    let h1 = server
        .submit(SubmitRequest::stills(plan.clone(), &items1))
        .unwrap();
    let h2 = server.submit(SubmitRequest::stills(plan, &items2)).unwrap();
    let r1 = h1.wait().unwrap();
    let r2 = h2.wait().unwrap();
    assert_eq!(r1.images + r2.images, 8);
    let stats = server.stats();
    assert_eq!(stats.batches, 1, "4+4 items at batch 8 → one device batch");
    assert_eq!(stats.cross_query_batches, 1);
    assert_eq!(stats.full_batches, 1);
    server.shutdown();
}

/// Decode mode is CPU-side state: a reduced-resolution (scaled-IDCT)
/// query and a full-decode query whose `PlacementSignature`s agree must
/// still share device batches — the regression guard for
/// `DecodeMode::ReducedResolution` staying out of the signature.
#[test]
fn reduced_resolution_and_full_decode_queries_co_batch() {
    let server = Server::new(
        fast_device(),
        ServerConfig {
            runtime: RuntimeOptions {
                producers: 2,
                consumers: 1,
                // Same deterministic-merge trick as
                // `homogeneous_queries_share_device_batches`: production is
                // slow enough that both queries are admitted before either
                // can drain.
                extra_cpu_s_per_image: 0.02,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    // Query A: 64×64 inputs, full decode. Query B: 256×256 inputs decoded
    // at 1/8 resolution — the decoder emits 32×32 (the DNN input), the
    // rewrite pass elides the resize, and the output tensor geometry
    // matches query A's.
    let plan_full = plan_for(ModelKind::ResNet50, 64, 64, 32, 8);
    let mut plan_reduced = plan_for(ModelKind::ResNet50, 256, 256, 32, 8);
    plan_reduced.decode = smol::core::DecodeMode::ReducedResolution { factor: 8 };
    assert_eq!(
        plan_full.placement_signature(),
        plan_reduced.placement_signature(),
        "decode mode must not leak into the placement signature"
    );
    // Both batches are encoded before the first submit, so the second lands
    // microseconds after it, not one encode later.
    let (items_full, items_reduced) =
        (encoded_batch(4, 64, 64, 21), encoded_batch(4, 256, 256, 22));
    let h1 = server
        .submit(SubmitRequest::stills(plan_full, &items_full))
        .unwrap();
    let h2 = server
        .submit(SubmitRequest::stills(plan_reduced, &items_reduced))
        .unwrap();
    let r1 = h1.wait().unwrap();
    let r2 = h2.wait().unwrap();
    assert_eq!(r1.images + r2.images, 8);
    assert_eq!(r1.failed + r2.failed, 0);
    let stats = server.stats();
    assert_eq!(
        stats.batches, 1,
        "4 full + 4 reduced items at batch 8 → one shared device batch"
    );
    assert_eq!(stats.cross_query_batches, 1);
    server.shutdown();
}

/// `try_submit` applies backpressure at the admission bound instead of
/// queueing unboundedly.
#[test]
fn admission_queue_applies_backpressure() {
    let server = Server::new(
        fast_device(),
        ServerConfig {
            runtime: RuntimeOptions {
                producers: 2,
                consumers: 1,
                extra_cpu_s_per_image: 0.02,
                ..Default::default()
            },
            max_active_queries: 1,
            batch_queue: 1,
            tensor_cache_bytes: 256 << 20,
        },
    );
    let plan = plan_for(ModelKind::ResNet50, 64, 64, 32, 4);
    let h1 = server
        .submit(SubmitRequest::stills(
            plan.clone(),
            &encoded_batch(8, 64, 64, 3),
        ))
        .unwrap();
    match server.submit(SubmitRequest::stills(plan.clone(), &encoded_batch(2, 64, 64, 4)).no_wait())
    {
        Err(ServeError::Backpressure { active, capacity }) => {
            assert_eq!(active, 1);
            assert_eq!(capacity, 1);
        }
        Err(other) => panic!("expected backpressure, got {other:?}"),
        Ok(_) => panic!("expected backpressure, got admission"),
    }
    assert_eq!(h1.wait().unwrap().images, 8);
    // Capacity freed: the same submission is admitted now.
    let h2 = server
        .submit(SubmitRequest::stills(plan, &encoded_batch(2, 64, 64, 4)).no_wait())
        .expect("capacity freed after completion");
    assert_eq!(h2.wait().unwrap().images, 2);
    server.shutdown();
}

/// Shutdown drains in-flight queries: handles resolve with every image
/// accounted for, and later submissions are refused.
#[test]
fn shutdown_drains_inflight_queries() {
    let server = Server::new(
        fast_device(),
        ServerConfig {
            runtime: RuntimeOptions {
                producers: 2,
                consumers: 1,
                extra_cpu_s_per_image: 0.002,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let plan = plan_for(ModelKind::ResNet50, 64, 64, 32, 4);
    let handle = server
        .submit(SubmitRequest::stills(
            plan.clone(),
            &encoded_batch(10, 64, 64, 5),
        ))
        .unwrap();
    let open = SubmitRequest::new(plan.clone(), Vec::new()).open();
    let open = server.submit(open).unwrap();
    for image in encoded_batch(3, 64, 64, 7) {
        open.append(MediaItem::Image(image), 0).unwrap();
    }
    server.shutdown(); // joins the stage threads after the drain
    let report = handle.wait().expect("drained, not dropped");
    assert_eq!(report.images, 10);
    // Shutdown closes an open query too: what was appended drains.
    let report = open.wait().expect("drained, not dropped");
    assert_eq!(report.images, 3);

    let server2 = Server::new(fast_device(), ServerConfig::default());
    let h = server2
        .submit(SubmitRequest::stills(
            plan.clone(),
            &encoded_batch(2, 64, 64, 6),
        ))
        .unwrap();
    drop(server2); // dropping also drains
    assert_eq!(h.wait().unwrap().images, 2);
}

/// A corrupt item stops its own query (which still resolves, carrying the
/// error) without poisoning a concurrent healthy query.
#[test]
fn production_error_is_isolated_per_query() {
    let server = Server::new(fast_device(), ServerConfig::default());
    let plan = plan_for(ModelKind::ResNet50, 64, 64, 32, 4);

    let mut bad_items = encoded_batch(6, 64, 64, 8);
    let mut corrupted = bad_items[2].bytes.to_vec();
    for b in corrupted.iter_mut().skip(8) {
        *b = 0xFF;
    }
    bad_items[2].bytes = Bytes::from(corrupted);

    let bad = server
        .submit(SubmitRequest::stills(plan.clone(), &bad_items))
        .unwrap();
    let good = server
        .submit(SubmitRequest::stills(
            plan.clone(),
            &encoded_batch(9, 64, 64, 9),
        ))
        .unwrap();

    let bad_report = bad.wait().expect("failing query still resolves");
    assert!(bad_report.error.is_some());
    assert!(bad_report.failed >= 1);
    assert!(bad_report.images < 6, "the corrupt item never completes");
    assert_eq!(
        bad_report.images + bad_report.failed + bad_report.skipped,
        6,
        "every submitted item is accounted as done, failed, or skipped"
    );

    let good_report = good.wait().expect("healthy query unaffected");
    assert!(good_report.error.is_none());
    assert_eq!(good_report.images, 9);
    server.shutdown();
}

/// An open query's items fail alone: a corrupt item completes with its
/// output failed, and every other item — appended before or after it —
/// executes.
#[test]
fn an_open_querys_failing_item_fails_alone() {
    let server = Server::new(fast_device(), ServerConfig::default());
    let plan = plan_for(ModelKind::ResNet50, 64, 64, 32, 4);
    let mut items = encoded_batch(12, 64, 64, 40);
    let mut corrupted = items[3].bytes.to_vec();
    corrupted.iter_mut().skip(8).for_each(|b| *b = 0xFF);
    items[3].bytes = Bytes::from(corrupted);

    let open = SubmitRequest::new(plan, Vec::new()).open();
    let open = server.submit(open).unwrap();
    for item in &items {
        open.append(MediaItem::Image(item.clone()), 0).unwrap();
    }
    open.close();
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut failed = vec![usize::MAX; items.len()];
    while let Some(completion) = open.next_completion(deadline) {
        failed[completion.item] = completion.failed;
    }
    let expected: Vec<usize> = (0..items.len()).map(|i| usize::from(i == 3)).collect();
    assert_eq!(
        failed, expected,
        "one completion per item; only item 3 fails"
    );
    let report = open.wait().unwrap();
    assert_eq!((report.images, report.failed, report.skipped), (11, 1, 0));
    assert!(report.error.is_some());
    server.shutdown();
}

/// An item that does not have the plan's geometry, under a plan whose resize
/// was elided (256 / 8 = 32 = the DNN input, so only the elementwise tail
/// remains): the compiled prefix reports a typed shape error for that one
/// item. The old interpreter sliced the staging buffer by the *item's* dims,
/// so the 512-px item (a 64-px decode) panicked the producer thread, which
/// never resolved the handle.
#[test]
fn mis_sized_item_fails_alone_with_a_typed_error() {
    let server = Server::new(fast_device(), ServerConfig::default());
    let plan = QueryPlan {
        decode: smol::core::DecodeMode::ReducedResolution { factor: 8 },
        ..plan_for(ModelKind::ResNet18, 256, 256, 32, 4)
    };
    let mut items = encoded_batch(6, 256, 256, 0);
    items[2] = encoded_batch(1, 512, 512, 2).remove(0);

    let report = server
        .submit(SubmitRequest::stills(plan.clone(), &items))
        .unwrap()
        .wait()
        .expect("the query resolves");
    let error = report.error.as_deref().expect("the error is recorded");
    assert!(error.contains("shape mismatch"), "typed error: {error}");
    assert_eq!(report.failed, 1);
    assert_eq!(report.images + report.failed + report.skipped, 6);

    // Every producer thread is still alive: a full-width healthy query on
    // the same plan completes afterwards.
    let report = server
        .submit(SubmitRequest::stills(
            plan,
            &encoded_batch(16, 256, 256, 100),
        ))
        .unwrap()
        .wait()
        .unwrap();
    assert!(report.error.is_none());
    assert_eq!(report.images, 16);
    server.shutdown();
}

/// Under a full decode the variant's declared size is nominal: a thumbnail
/// plan whose resize is a no-op for on-size items (32 px feeding a 32-px DNN
/// input) keeps it in the executed plan, so an off-size item is resized and
/// served like any other.
#[test]
fn off_size_item_under_a_full_decode_is_resized_and_served() {
    let server = Server::new(fast_device(), ServerConfig::default());
    let planner = Planner::new(PlannerConfig {
        dnn_input: 32,
        batch: 4,
        ..Default::default()
    });
    let input = InputVariant::new("32 spng", Format::Spng, 32, 32).thumbnail();
    let plan = QueryPlan {
        dnn: ModelKind::ResNet18,
        input: input.clone(),
        preproc: planner.build_preproc(&input),
        decode: planner.decode_mode(&input),
        batch: 4,
    };
    let encode = |w, h, seed| EncodedImage::encode(&textured(w, h, seed), Format::Spng).unwrap();
    let mut items: Vec<EncodedImage> = (0..6).map(|i| encode(32, 32, i)).collect();
    items[2] = encode(64, 48, 2);
    let report = server
        .submit(SubmitRequest::stills(plan, &items))
        .unwrap()
        .wait()
        .unwrap();
    assert!(report.error.is_none(), "{:?}", report.error);
    assert_eq!((report.images, report.failed), (6, 0));
    server.shutdown();
}

/// A plan no item could run — here a resize placed on the accelerator, which
/// the runtime does not execute there — is rejected at submission instead of
/// failing every item.
#[test]
fn unexecutable_plan_is_rejected_at_submission() {
    use smol::imgproc::dag::Placement;
    let server = Server::new(fast_device(), ServerConfig::default());
    let mut plan = plan_for(ModelKind::ResNet18, 64, 64, 32, 4);
    for op in &mut plan.preproc.ops {
        op.placement = Placement::Accel;
    }
    match server.submit(SubmitRequest::stills(plan, &encoded_batch(2, 64, 64, 0))) {
        Err(ServeError::InvalidPlan(why)) => assert!(why.contains("shape mismatch"), "{why}"),
        Err(other) => panic!("expected an invalid-plan rejection, got {other:?}"),
        Ok(_) => panic!("expected an invalid-plan rejection, got admission"),
    }
    server.shutdown();
}

/// Degenerate submissions resolve immediately.
#[test]
fn empty_query_resolves_immediately() {
    let server = Server::new(fast_device(), ServerConfig::default());
    let plan = plan_for(ModelKind::ResNet50, 64, 64, 32, 4);
    let report = server
        .submit(SubmitRequest::stills(plan, &Vec::new()))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(report.images, 0);
    assert!(report.error.is_none());
    server.shutdown();
}

/// At rest every buffer the arena ever allocated is idle on the shelf of its
/// own geometry, and no shelf ever held more than its own high-water mark.
fn assert_staging_at_rest(stats: &ServerStats) {
    let staging = &stats.staging;
    for shelf in &staging.shelves {
        assert_eq!(shelf.checked_out, 0, "{shelf:?}");
        assert!(shelf.idle <= shelf.peak_checked_out, "{shelf:?}");
    }
    let idle: usize = staging.shelves.iter().map(|s| s.idle).sum();
    assert_eq!(idle as u64, staging.totals.allocated);
}

/// A panic inside production (here `Duration::from_secs_f64(∞)` in the
/// producer stage's lesion sleep) fails that item through the ordinary
/// error path: the producer thread lives, the handle resolves with every
/// output accounted for and the panic text as its error, the staging
/// buffers the items held are back on their shelf, and shutdown returns.
#[test]
fn a_panicking_producer_fails_its_item_and_the_query_resolves() {
    let server = Server::new(
        fast_device(),
        ServerConfig {
            runtime: RuntimeOptions {
                producers: 2,
                extra_cpu_s_per_image: f64::INFINITY,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let plan = plan_for(ModelKind::ResNet50, 64, 64, 32, 4);
    // Twice: the second query finds the producers of the first still alive.
    for round in 0..2 {
        let report = server
            .submit(SubmitRequest::stills(
                plan.clone(),
                &encoded_batch(6, 64, 64, round),
            ))
            .unwrap()
            .wait_deadline(Duration::from_secs(60))
            .expect("server alive")
            .expect("the query resolves although its producers panicked");
        assert_eq!(report.images + report.failed + report.skipped, 6);
        assert!(report.failed >= 1);
        let error = report.error.as_deref().expect("the panic is recorded");
        assert!(error.starts_with("producer panicked: "), "{error}");
    }
    let stats = server.stats();
    assert_staging_at_rest(&stats);
    assert_eq!(stats.pending_batch_items, 0);
    server.shutdown();
}

/// Staging buffers outlive the query that allocated them: a query no larger
/// than one batch (which never sees a buffer twice on its own) is served
/// entirely from what the previous one returned, while a query of another
/// tensor geometry is handed none of them.
#[test]
fn staging_buffers_are_reused_across_queries_of_one_geometry_only() {
    let server = Server::new(fast_device(), ServerConfig::default());
    let plan_a = plan_for(ModelKind::ResNet50, 64, 64, 32, 8);
    let plan_b = plan_for(ModelKind::ResNet50, 64, 64, 48, 8);
    let run = |plan: &QueryPlan, seed| {
        let report = server
            .submit(SubmitRequest::stills(
                plan.clone(),
                &encoded_batch(5, 64, 64, seed),
            ))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(report.images, 5);
        assert!(report.error.is_none(), "{:?}", report.error);
        report.pool
    };
    let first = run(&plan_a, 0);
    assert_eq!((first.allocated, first.reused), (5, 0));
    let second = run(&plan_a, 10);
    assert_eq!((second.allocated, second.reused), (0, 5));

    // Side by side: the 48-px query finds five idle 32-px buffers in the
    // arena and must allocate its own all the same.
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| run(&plan_a, 20));
        let b = scope.spawn(|| run(&plan_b, 30));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!((a.allocated, a.reused), (0, 5));
    assert_eq!((b.allocated, b.reused), (5, 0));

    let stats = server.stats();
    assert_staging_at_rest(&stats);
    let shelves: Vec<_> = stats
        .staging
        .shelves
        .iter()
        .map(|s| (s.buf_len, s.idle))
        .collect();
    assert_eq!(shelves, [(32 * 32 * 3, 5), (48 * 48 * 3, 5)]);
    assert_eq!(stats.staging.totals.reused, 10);
    assert_eq!(stats.staging.idle_bytes(), 5 * 4 * 3 * (32 * 32 + 48 * 48));
    server.shutdown();
}

/// `plan` with its elementwise tail on the accelerator (§6.3): the producer
/// stages the u8 intermediate in a byte slot and the device batch carries a
/// preprocessing kernel.
fn offloaded(plan: &QueryPlan) -> QueryPlan {
    QueryPlan {
        preproc: plan.preproc.clone().split_at(plan.preproc.tail_start()),
        ..plan.clone()
    }
}

/// Placement is a device-side property: two queries of one DNN and one
/// tensor geometry share a device batch when their splits agree — CPU tail
/// or accelerator tail — and never when they differ, and their staging
/// slots live on shelves of their own kind.
#[test]
fn placement_splits_device_batches_and_staging_shelves() {
    let config = || ServerConfig {
        runtime: RuntimeOptions {
            producers: 2,
            consumers: 1,
            // As in `homogeneous_queries_share_device_batches`: both queries
            // are admitted long before either can drain.
            extra_cpu_s_per_image: 0.02,
            ..Default::default()
        },
        ..Default::default()
    };
    let cpu_tail = plan_for(ModelKind::ResNet50, 64, 64, 32, 8);
    let accel_tail = offloaded(&cpu_tail);
    assert_ne!(
        cpu_tail.placement_signature(),
        accel_tail.placement_signature()
    );
    let run_pair = |first: &QueryPlan, second: &QueryPlan| {
        let server = Server::new(fast_device(), config());
        let h1 = server
            .submit(SubmitRequest::stills(
                first.clone(),
                &encoded_batch(4, 64, 64, 1),
            ))
            .unwrap();
        let h2 = server
            .submit(SubmitRequest::stills(
                second.clone(),
                &encoded_batch(4, 64, 64, 2),
            ))
            .unwrap();
        let (r1, r2) = (h1.wait().unwrap(), h2.wait().unwrap());
        assert_eq!((r1.images, r1.failed, r2.images, r2.failed), (4, 0, 4, 0));
        let stats = server.stats();
        assert_staging_at_rest(&stats);
        server.shutdown();
        stats
    };

    // Same placement, accelerator tail: one full cross-query batch, staged
    // as bytes, with the tail billed to the device as a second kernel.
    let same = run_pair(&accel_tail, &accel_tail);
    assert_eq!((same.batches, same.cross_query_batches), (1, 1));
    assert_eq!(same.device().kernels, 2, "preprocessing kernel + DNN");
    let shelves: Vec<_> = same
        .staging
        .shelves
        .iter()
        .map(|s| (s.kind, s.buf_len, s.idle))
        .collect();
    assert_eq!(shelves, [(SlotKind::Bytes, 32 * 32 * 3, 8)]);
    assert_eq!(same.staging.idle_bytes(), 8 * 32 * 32 * 3);

    // Different placements: never one batch, and each kind's slots return
    // to its own shelf — four of each, none exchanged.
    let mixed = run_pair(&cpu_tail, &accel_tail);
    assert_eq!((mixed.batches, mixed.cross_query_batches), (2, 0));
    assert_eq!(mixed.device().kernels, 3, "one batch carries a kernel");
    let shelves: Vec<_> = mixed
        .staging
        .shelves
        .iter()
        .map(|s| (s.kind, s.buf_len, s.idle, s.peak_checked_out))
        .collect();
    assert_eq!(
        shelves,
        [
            (SlotKind::Tensor, 32 * 32 * 3, 4, 4),
            (SlotKind::Bytes, 32 * 32 * 3, 4, 4)
        ]
    );
    assert_eq!(
        (mixed.staging.totals.allocated, mixed.staging.totals.reused),
        (8, 0)
    );
}

/// A degradation step onto a rung of the same geometry but another
/// placement draws byte slots of its own: the tensor slots of the abandoned
/// rung go back to the tensor shelf, and the items staged after the step are
/// never handed one.
#[test]
fn a_degradation_rung_of_another_placement_draws_its_own_slots() {
    let server = Server::new(
        fast_device(),
        ServerConfig {
            runtime: RuntimeOptions {
                producers: 2,
                consumers: 1,
                extra_cpu_s_per_image: 0.01,
                ..Default::default()
            },
            max_active_queries: 1,
            batch_queue: 2,
            ..Default::default()
        },
    );
    let full = plan_for(ModelKind::ResNet50, 64, 64, 32, 4);
    let cheap = offloaded(&plan_for(ModelKind::ResNet18, 64, 64, 32, 4));
    let n = 24;
    let h1 = server
        .submit(
            SubmitRequest::stills(full.clone(), &encoded_batch(n, 64, 64, 50)).options(
                SubmitOptions {
                    ladder: vec![DegradeStep {
                        plan: cheap,
                        accuracy: 0.9,
                        est_throughput: 4_000.0,
                    }],
                    ..Default::default()
                },
            ),
        )
        .unwrap();
    // A second tenant blocked at admission (capacity 1) is the pressure.
    let (r1, r2) = std::thread::scope(|scope| {
        let t2 = scope.spawn(|| {
            server
                .submit(SubmitRequest::stills(
                    full.clone(),
                    &encoded_batch(4, 64, 64, 60),
                ))
                .unwrap()
                .wait()
                .unwrap()
        });
        (h1.wait().unwrap(), t2.join().unwrap())
    });
    assert_eq!(r1.degraded_steps, 1);
    assert_eq!((r1.images, r1.failed), (n, 0));
    assert!(r1.error.is_none(), "{:?}", r1.error);
    assert_eq!((r2.images, r2.failed), (4, 0));
    let stats = server.stats();
    assert_staging_at_rest(&stats);
    let kinds: Vec<_> = stats
        .staging
        .shelves
        .iter()
        .map(|s| (s.kind, s.buf_len))
        .collect();
    assert_eq!(
        kinds,
        [
            (SlotKind::Tensor, 32 * 32 * 3),
            (SlotKind::Bytes, 32 * 32 * 3)
        ]
    );
    assert!(stats.staging.shelves.iter().all(|s| s.idle > 0));
    server.shutdown();
}

/// The Figure 7 "- mem reuse" lesion bypasses the arena: every acquire is a
/// fresh allocation, whatever earlier queries returned, and nothing is kept.
#[test]
fn memory_reuse_off_allocates_on_every_acquire() {
    let server = Server::new(
        fast_device(),
        ServerConfig {
            runtime: RuntimeOptions {
                memory_reuse: false,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let plan = plan_for(ModelKind::ResNet50, 64, 64, 32, 4);
    for round in 0..2 {
        let report = server
            .submit(SubmitRequest::stills(
                plan.clone(),
                &encoded_batch(12, 64, 64, round),
            ))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(report.images, 12);
        assert_eq!((report.pool.allocated, report.pool.reused), (12, 0));
    }
    let staging = server.stats().staging;
    assert_eq!((staging.totals.allocated, staging.totals.reused), (24, 0));
    assert_eq!(staging.idle_bytes(), 0);
    server.shutdown();
}

/// A degradation step onto a rung of another tensor geometry swaps the
/// query's entitlement over to that geometry's shelf: the rung is never
/// handed the abandoned plan's buffers (a mis-sized buffer would fail the
/// item with a shape error), and those go back to their own shelf.
#[test]
fn a_degradation_rung_of_another_geometry_draws_its_own_buffers() {
    let server = Server::new(
        fast_device(),
        ServerConfig {
            runtime: RuntimeOptions {
                producers: 2,
                consumers: 1,
                extra_cpu_s_per_image: 0.01,
                ..Default::default()
            },
            max_active_queries: 1,
            batch_queue: 2,
            ..Default::default()
        },
    );
    let full = plan_for(ModelKind::ResNet50, 64, 64, 32, 4);
    let cheap = plan_for(ModelKind::ResNet50, 64, 64, 16, 4);
    let n = 24;
    let h1 = server
        .submit(
            SubmitRequest::stills(full.clone(), &encoded_batch(n, 64, 64, 50)).options(
                SubmitOptions {
                    ladder: vec![DegradeStep {
                        plan: cheap,
                        accuracy: 0.9,
                        est_throughput: 4_000.0,
                    }],
                    ..Default::default()
                },
            ),
        )
        .unwrap();
    // A second tenant blocked at admission (capacity 1) is the pressure.
    let (r1, r2) = std::thread::scope(|scope| {
        let t2 = scope.spawn(|| {
            server
                .submit(SubmitRequest::stills(
                    full.clone(),
                    &encoded_batch(4, 64, 64, 60),
                ))
                .unwrap()
                .wait()
                .unwrap()
        });
        (h1.wait().unwrap(), t2.join().unwrap())
    });
    assert_eq!(r1.degraded_steps, 1);
    assert_eq!((r1.images, r1.failed), (n, 0));
    assert!(r1.error.is_none(), "{:?}", r1.error);
    assert_eq!((r2.images, r2.failed), (4, 0));
    let stats = server.stats();
    assert_staging_at_rest(&stats);
    let lens: Vec<_> = stats.staging.shelves.iter().map(|s| s.buf_len).collect();
    assert_eq!(lens, [16 * 16 * 3, 32 * 32 * 3]);
    assert!(stats.staging.shelves.iter().all(|s| s.idle > 0));
    server.shutdown();
}

/// The arena belongs to its server: once a server is gone (handles
/// resolved, threads joined) its buffers are gone with it, and a new server
/// starts from an empty arena.
#[test]
fn each_server_starts_with_an_empty_arena() {
    let plan = plan_for(ModelKind::ResNet50, 64, 64, 32, 8);
    for round in 0..2 {
        let server = Server::new(fast_device(), ServerConfig::default());
        assert!(server.stats().staging.shelves.is_empty());
        let report = server
            .submit(SubmitRequest::stills(
                plan.clone(),
                &encoded_batch(5, 64, 64, round),
            ))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!((report.pool.allocated, report.pool.reused), (5, 0));
        drop(server);
    }
}

/// A T4 slowed `time_scale`x: at 20 a ResNet-50 batch of 4 holds the device
/// for ~35 ms, far longer than four 64-px items take to produce, so batches
/// queue up behind the device and the launch window fills.
fn slow_device(time_scale: f64) -> VirtualDevice {
    VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, time_scale)
}

fn one_lane(consumers: usize) -> ServerConfig {
    ServerConfig {
        runtime: RuntimeOptions {
            consumers,
            ..Default::default()
        },
        batch_queue: 4,
        ..Default::default()
    }
}

/// Inference callbacks are user code on the lane's consumer thread. One
/// that panics fails its own output and is reported; the consumer, the
/// batches launched behind that one, and every later query carry on.
#[test]
fn a_panicking_callback_fails_its_item_not_the_lane() {
    let server = Server::new(fast_device(), one_lane(1));
    let plan = plan_for(ModelKind::ResNet50, 64, 64, 32, 4);
    let (n, bad) = (14, 5);
    let handle = server
        .submit(
            SubmitRequest::stills(plan.clone(), &encoded_batch(n, 64, 64, 40)).infer(
                move |idx, img| {
                    assert!(idx != bad, "callback bug on item {idx}");
                    fingerprint(idx, img)
                },
            ),
        )
        .unwrap();
    let mut report = handle.wait().expect("the handle resolves");
    assert_eq!(
        (report.images, report.failed, report.skipped),
        (n - 1, 1, 0)
    );
    let error = report.error.as_deref().expect("the panic is recorded");
    assert!(error.contains("callback bug on item 5"), "{error}");
    let results = report.take_results::<u64>();
    for (idx, result) in results.iter().enumerate() {
        assert_eq!(result.is_none(), idx == bad, "output {idx}");
    }

    // The lane's only consumer is still there.
    let mut report = server
        .submit(SubmitRequest::stills(plan, &encoded_batch(n, 64, 64, 60)).infer(fingerprint))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!((report.images, report.failed), (n, 0));
    assert!(report.error.is_none());
    assert!(report.take_results::<u64>().iter().all(Option::is_some));
    server.shutdown();
}

/// How many streams drive the device, and how deep each one's window is,
/// changes timing only: results and per-query counts are the same.
#[test]
fn results_and_counts_do_not_depend_on_the_consumer_count() {
    let plan = plan_for(ModelKind::ResNet50, 64, 64, 32, 4);
    let items = encoded_batch(37, 64, 64, 80);
    let outcomes: Vec<_> = (1..=3)
        .map(|consumers| {
            let server = Server::new(fast_device(), one_lane(consumers));
            let mut report = server
                .submit(SubmitRequest::stills(plan.clone(), &items).infer(fingerprint))
                .unwrap()
                .wait()
                .unwrap();
            let stats = server.stats();
            server.shutdown();
            assert!(report.error.is_none());
            (
                report.take_results::<u64>(),
                (report.images, report.failed, report.skipped),
                report.cache_hits,
                (stats.batches, stats.full_batches, stats.images_done),
            )
        })
        .collect();
    assert_eq!(outcomes[0].1, (37, 0, 0));
    assert_eq!(outcomes[0], outcomes[1]);
    assert_eq!(outcomes[0], outcomes[2]);
}

/// A consumer keeps at most two batches launched — one executing, one
/// enqueued behind it — and when batches arrive faster than the device
/// retires them it does launch the second before the first is retired.
#[test]
fn the_launch_window_is_two_deep_per_consumer() {
    let plan = plan_for(ModelKind::ResNet50, 64, 64, 32, 4);
    for consumers in [1, 2] {
        let server = Server::new(slow_device(20.0), one_lane(consumers));
        let handle = server
            .submit(SubmitRequest::stills(
                plan.clone(),
                &encoded_batch(32, 64, 64, 90),
            ))
            .unwrap();
        let report = loop {
            let lane = &server.stats().devices[0];
            assert!(lane.in_flight_batches <= 2 * consumers, "{lane:?}");
            if let Some(report) = handle.wait_deadline(Duration::ZERO).unwrap() {
                break report;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(report.images, 32);
        let lane = &server.stats().devices[0];
        assert_eq!((lane.batches, lane.in_flight_batches), (8, 0));
        assert!(lane.overlapped_batches >= 1, "{lane:?}");
        assert!(lane.overlapped_batches <= lane.batches - consumers as u64);
        assert!(lane.retire_lag_s >= 0.0);
        server.shutdown();
    }
}

/// Shutdown waits for launched batches like it waits for queued ones: with
/// the window full, both batches retire and every handle resolves whole.
#[test]
fn shutdown_drains_a_full_launch_window() {
    let server = Server::new(slow_device(20.0), one_lane(1));
    let plan = plan_for(ModelKind::ResNet50, 64, 64, 32, 4);
    let first = server
        .submit(SubmitRequest::stills(
            plan.clone(),
            &encoded_batch(8, 64, 64, 100),
        ))
        .unwrap();
    let second = server
        .submit(SubmitRequest::stills(plan, &encoded_batch(8, 64, 64, 110)))
        .unwrap();
    while server.stats().devices[0].in_flight_batches < 2 {
        assert!(
            matches!(second.poll(), QueryPoll::Pending { .. }),
            "the window never filled"
        );
        std::thread::yield_now();
    }
    server.shutdown();
    assert_eq!(first.wait().expect("drained").images, 8);
    assert_eq!(second.wait().expect("drained").images, 8);
}

/// A consumer with a batch on the device is not idle, and does not steal:
/// a stolen batch would wait behind the launched one. Lane 0 is pinned on
/// one half-second batch while lane 1, a fast device, serves a whole query;
/// every dispatch wakes lane 0's consumer with room in its window and, as
/// often as not, a batch sitting in lane 1's queue.
#[test]
fn a_lane_with_a_launched_batch_never_steals() {
    let mut cfg = one_lane(1);
    // Batches form one at a time, each after lane 1 has finished the last:
    // dispatch always finds lane 1 the less loaded and never hands lane 0 a
    // batch of its own to fill its window with.
    cfg.runtime.extra_cpu_s_per_image = 0.002;
    let server = Server::with_devices(vec![slow_device(300.0), fast_device()], cfg);
    let plan = plan_for(ModelKind::ResNet50, 64, 64, 32, 4);
    // One-batch queries until lane 0's consumer is the one that launches
    // it — by a steal from lane 1's queue, where dispatch puts every batch
    // (the slow lane is never expected to finish one first).
    let mut pins = Vec::new();
    let stolen_before = 'pin: loop {
        assert!(pins.len() < 1000, "lane 0 never launched a batch");
        let pin = server
            .submit(SubmitRequest::stills(
                plan.clone(),
                &encoded_batch(4, 64, 64, 120),
            ))
            .unwrap();
        while matches!(pin.poll(), QueryPoll::Pending { .. }) {
            let lane = &server.stats().devices[0];
            if lane.in_flight_batches == 1 {
                pins.push(pin);
                break 'pin lane.stolen_batches;
            }
            std::thread::yield_now();
        }
        pins.push(pin);
    };
    let report = server
        .submit(SubmitRequest::stills(plan, &encoded_batch(96, 64, 64, 130)))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(report.images, 96);
    let stats = server.stats();
    assert_eq!(stats.devices[0].stolen_batches, stolen_before, "{stats}");
    assert!(stats.devices[1].batches >= 20, "{stats}");
    for pin in pins {
        assert_eq!(pin.wait().unwrap().images, 4);
    }
    server.shutdown();
}
