//! Fleet-serving battery: multi-device sharding and work stealing keep
//! per-query ordering and bit-identical outputs vs a single device,
//! load-adaptive degradation never breaks a query's accuracy floor,
//! admission is priority-aware, a partial batch never waits for work of
//! lower priority than what it holds (and equal priorities still fill each
//! other's batches), and the non-blocking handle surface (`poll` /
//! `wait_deadline`) behaves.

use proptest::prelude::*;
use smol::accel::sync::lock;
use smol::accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol::codec::{signal::image_signal, EncodedImage, Format};
use smol::core::{
    CascadePlan, Constraint, DecodeMode, InputVariant, PlanCandidate, Planner, PlannerConfig,
    QueryPlan,
};
use smol::data::{fingerprint, textured};
use smol::imgproc::ImageU8;
use smol::runtime::RuntimeOptions;
use smol::serve::{
    DegradeStep, Priority, QueryHandle, QueryPoll, QueryReport, ServeError, Server, ServerConfig,
    ServerStats, SubmitOptions, SubmitRequest,
};
use std::sync::{Arc, Mutex};
use std::time::Duration;

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

fn fast_device(model: GpuModel) -> VirtualDevice {
    VirtualDevice::new(model, ExecutionEnv::TensorRt, 0.02)
}

/// A T4 slowed down by `factor` (queue-depth skew generator), running in
/// unscaled device time: a batch of four ResNet-50 images is milliseconds
/// on the real T4 and tens of milliseconds on the slowed one — far above a
/// scheduler quantum, so which lane runs more batches is decided by the
/// devices, not by which consumer thread the OS happens to wake first.
fn unscaled_t4(factor: f64) -> VirtualDevice {
    let mut spec = GpuModel::T4.spec();
    spec.resnet50_batch64 /= factor;
    VirtualDevice::with_spec(spec, ExecutionEnv::TensorRt, 1.0)
}

/// Runs `items` through a server built over `devices` and returns the
/// per-item fingerprints in submission order.
fn serve_fingerprints(
    devices: Vec<VirtualDevice>,
    cfg: ServerConfig,
    plan: QueryPlan,
    items: Vec<EncodedImage>,
) -> Vec<Option<u64>> {
    let n = items.len();
    let server = Server::with_devices(devices, cfg);
    let handle = server
        .submit(SubmitRequest::stills(plan, &items).infer(fingerprint))
        .expect("admitted");
    let mut report = handle.wait().expect("resolves");
    assert_eq!(report.images, n);
    assert!(report.error.is_none());
    let out = report.take_results::<u64>();
    server.shutdown();
    out
}

/// A heterogeneous 3-device fleet produces the same per-item results, in
/// the same order, as one device — sharding and stealing move *batches*,
/// never the work inside them.
#[test]
fn fleet_matches_single_device_bitwise_and_ordered() {
    let items = encoded_batch(22, 80, 64, 40);
    let plan = plan_for(ModelKind::ResNet50, 80, 64, 48, 4);
    let single = serve_fingerprints(
        vec![fast_device(GpuModel::T4)],
        ServerConfig::default(),
        plan.clone(),
        items.clone(),
    );
    let fleet = serve_fingerprints(
        vec![
            fast_device(GpuModel::T4),
            fast_device(GpuModel::P100),
            fast_device(GpuModel::V100),
        ],
        ServerConfig::default(),
        plan,
        items,
    );
    assert_eq!(single.len(), fleet.len());
    for (i, (s, f)) in single.iter().zip(&fleet).enumerate() {
        assert_eq!(
            s.expect("single inferred"),
            f.expect("fleet inferred"),
            "prediction {i} must be bit-identical across fleet sizes"
        );
    }
}

/// Lane accounting is conserved across the fleet: every executed batch and
/// image is attributed to exactly one lane, and a heavily skewed fleet
/// (one device 16x slower) still produces bit-identical, ordered results.
/// The fast lane drains its own queue and steals from the laggard.
#[test]
fn skewed_fleet_conserves_work_and_steals() {
    let n = 96;
    let items = encoded_batch(n, 64, 64, 70);
    let plan = plan_for(ModelKind::ResNet50, 64, 64, 32, 4);
    let cfg = ServerConfig {
        runtime: RuntimeOptions {
            producers: 4,
            consumers: 1,
            ..Default::default()
        },
        max_active_queries: 4,
        batch_queue: 4,
        tensor_cache_bytes: 256 << 20,
    };
    let single = serve_fingerprints(
        vec![fast_device(GpuModel::T4)],
        cfg,
        plan.clone(),
        items.clone(),
    );

    let server = Server::with_devices(vec![unscaled_t4(1.0), unscaled_t4(16.0)], cfg);
    let handle = server
        .submit(SubmitRequest::stills(plan, &items).infer(fingerprint))
        .expect("admitted");
    let mut report = handle.wait().expect("resolves");
    assert_eq!(report.images, n);
    let fleet = report.take_results::<u64>();
    let stats = server.stats();
    server.shutdown();

    assert_eq!(
        single, fleet,
        "stolen batches must not reorder or alter results"
    );
    assert_eq!(stats.devices.len(), 2);
    let lane_batches: u64 = stats.devices.iter().map(|l| l.batches).sum();
    let lane_images: u64 = stats.devices.iter().map(|l| l.images).sum();
    assert_eq!(
        lane_batches, stats.batches,
        "each batch runs on exactly one lane"
    );
    assert_eq!(lane_images, n as u64);
    assert_eq!(
        stats.steals,
        stats.devices.iter().map(|l| l.stolen_batches).sum::<u64>()
    );
    assert!(
        stats.devices[0].batches > stats.devices[1].batches,
        "the 16x-slower lane must not execute the majority of batches: {stats}"
    );
}

/// Under admission pressure a laddered query steps down its plan ladder,
/// but never onto a rung below its accuracy floor — the below-floor rung
/// in the submitted ladder is discarded at admission.
#[test]
fn degradation_respects_accuracy_floor_under_pressure() {
    let server = Server::with_devices(
        vec![fast_device(GpuModel::T4)],
        ServerConfig {
            runtime: RuntimeOptions {
                producers: 2,
                consumers: 1,
                extra_cpu_s_per_image: 0.01,
                ..Default::default()
            },
            max_active_queries: 1,
            batch_queue: 2,
            tensor_cache_bytes: 256 << 20,
        },
    );
    let plan50 = plan_for(ModelKind::ResNet50, 64, 64, 32, 4);
    let plan34 = plan_for(ModelKind::ResNet34, 64, 64, 32, 4);
    let plan18 = plan_for(ModelKind::ResNet18, 64, 64, 32, 4);
    let opts = SubmitOptions {
        accuracy: Some(0.95),
        accuracy_floor: Some(0.92),
        ladder: vec![
            DegradeStep {
                plan: plan34,
                accuracy: 0.93,
                est_throughput: 2_000.0,
            },
            // Below the floor: must never be degraded onto.
            DegradeStep {
                plan: plan18,
                accuracy: 0.85,
                est_throughput: 4_000.0,
            },
        ],
        ..Default::default()
    };
    let n = 24;
    let h1 = server
        .submit(SubmitRequest::stills(plan50.clone(), &encoded_batch(n, 64, 64, 50)).options(opts))
        .expect("admitted");
    // A second tenant blocks at admission (capacity 1) → pressure.
    let r2 = std::thread::scope(|scope| {
        let t2 = scope.spawn(|| {
            server
                .submit(SubmitRequest::stills(
                    plan50.clone(),
                    &encoded_batch(4, 64, 64, 60),
                ))
                .expect("eventually admitted")
                .wait()
                .expect("resolves")
        });
        let r1 = h1.wait().expect("resolves");
        assert_eq!(r1.images, n, "degraded query conserves images");
        assert_eq!(
            r1.degraded_steps, 1,
            "one feasible rung: pressure steps down once, the below-floor \
             rung is not available"
        );
        assert_eq!(r1.accuracy, Some(0.93));
        assert!(r1.accuracy.unwrap() >= r1.accuracy_floor.unwrap());
        t2.join().expect("tenant 2")
    });
    assert_eq!(r2.images, 4);
    let stats = server.stats();
    assert_eq!(stats.degradations, 1);
    server.shutdown();
}

/// A production error on a claim taken *before* a degradation step may
/// arrive after the degraded rung has drained and its signature counters
/// are gone: the failed claim is released under the rung it was taken on,
/// the query resolves with every output accounted for, and the tenant
/// waiting behind it is served.
#[test]
fn a_late_failure_on_an_older_rung_still_resolves_the_query() {
    let server = Server::with_devices(
        vec![fast_device(GpuModel::T4)],
        ServerConfig {
            runtime: RuntimeOptions {
                producers: 2,
                consumers: 1,
                extra_cpu_s_per_image: 0.0005,
                ..Default::default()
            },
            max_active_queries: 1,
            batch_queue: 2,
            tensor_cache_bytes: 0,
        },
    );
    // 256 / 8 = 32 = the DNN input: the resize is elided, so an off-size
    // item fails the compiled prefix's shape check — after it has decoded.
    let plan50 = QueryPlan {
        decode: smol::core::DecodeMode::ReducedResolution { factor: 8 },
        ..plan_for(ModelKind::ResNet50, 256, 256, 32, 4)
    };
    let plan34 = QueryPlan {
        dnn: ModelKind::ResNet34,
        ..plan50.clone()
    };
    // Item 0 decodes for far longer than the 40 behind it take to drain.
    let mut items = encoded_batch(1, 3072, 3072, 7);
    items.extend(encoded_batch(40, 256, 256, 8));
    let tenant2 = encoded_batch(1, 256, 256, 90);
    let opts = SubmitOptions {
        accuracy: Some(0.95),
        accuracy_floor: Some(0.9),
        ladder: vec![DegradeStep {
            plan: plan34,
            accuracy: 0.93,
            est_throughput: 2_000.0,
        }],
        ..Default::default()
    };
    let h1 = server
        .submit(SubmitRequest::stills(plan50.clone(), &items).options(opts))
        .expect("admitted");
    // A second tenant blocks at admission (capacity 1) → pressure → the
    // items not yet claimed move to the ResNet-34 rung.
    let r2 = std::thread::scope(|scope| {
        let t2 = scope.spawn(|| {
            server
                .submit(SubmitRequest::stills(plan50.clone(), &tenant2))
                .expect("eventually admitted")
                .wait_deadline(Duration::from_secs(60))
                .expect("server alive")
        });
        let r1 = h1
            .wait_deadline(Duration::from_secs(60))
            .expect("server alive")
            .expect("the query resolves after its late failure");
        assert_eq!(r1.images + r1.failed + r1.skipped, 41);
        assert_eq!(r1.failed, 1, "{:?}", r1.error);
        assert_eq!(r1.degraded_steps, 1);
        t2.join().expect("tenant 2")
    });
    assert_eq!(r2.expect("the blocked tenant is served").images, 1);
    assert_eq!(server.stats().pending_batch_items, 0);
    server.shutdown();
}

/// Admission is priority-ordered: with one slot, a blocked high-priority
/// submitter is admitted before a low-priority one that arrived earlier.
#[test]
fn high_priority_waiter_admitted_first() {
    let server = Server::with_devices(
        vec![fast_device(GpuModel::T4)],
        ServerConfig {
            runtime: RuntimeOptions {
                producers: 2,
                consumers: 1,
                extra_cpu_s_per_image: 0.01,
                ..Default::default()
            },
            max_active_queries: 1,
            batch_queue: 2,
            tensor_cache_bytes: 256 << 20,
        },
    );
    let plan = plan_for(ModelKind::ResNet50, 64, 64, 32, 4);
    // Occupy the only slot for a while.
    let h1 = server
        .submit(SubmitRequest::stills(
            plan.clone(),
            &encoded_batch(40, 64, 64, 80),
        ))
        .expect("admitted");
    let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
    std::thread::scope(|scope| {
        let low = {
            let order = Arc::clone(&order);
            let plan = plan.clone();
            let server = &server;
            scope.spawn(move || {
                let h = server
                    .submit(
                        SubmitRequest::stills(plan, &encoded_batch(2, 64, 64, 81)).options(
                            SubmitOptions {
                                priority: Priority::Low,
                                ..Default::default()
                            },
                        ),
                    )
                    .expect("admitted");
                lock(&order).push("low");
                h.wait().expect("resolves")
            })
        };
        // Give the low-priority submitter time to block first.
        std::thread::sleep(Duration::from_millis(30));
        let high = {
            let order = Arc::clone(&order);
            let plan = plan.clone();
            let server = &server;
            scope.spawn(move || {
                let h = server
                    .submit(
                        SubmitRequest::stills(plan, &encoded_batch(2, 64, 64, 82)).options(
                            SubmitOptions {
                                priority: Priority::High,
                                ..Default::default()
                            },
                        ),
                    )
                    .expect("admitted");
                lock(&order).push("high");
                h.wait().expect("resolves")
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        // A same-priority try_submit is refused while higher-priority
        // submitters wait, even before capacity is checked.
        assert!(server
            .submit(SubmitRequest::stills(plan.clone(), &encoded_batch(1, 64, 64, 83)).no_wait())
            .is_err());
        assert_eq!(h1.wait().expect("resolves").images, 40);
        assert_eq!(low.join().expect("low resolves").images, 2);
        assert_eq!(high.join().expect("high resolves").images, 2);
    });
    assert_eq!(
        *lock(&order),
        vec!["high", "low"],
        "the later high-priority arrival must be admitted first"
    );
    server.shutdown();
}

/// The non-blocking handle surface: `poll` reports progress without
/// consuming the report, `wait_deadline` times out cleanly and then
/// delivers, and at `Duration::ZERO` turns `Some` exactly once.
#[test]
fn poll_and_wait_deadline() {
    let server = Server::with_devices(
        vec![fast_device(GpuModel::T4)],
        ServerConfig {
            runtime: RuntimeOptions {
                producers: 1,
                consumers: 1,
                extra_cpu_s_per_image: 0.01,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let plan = plan_for(ModelKind::ResNet50, 64, 64, 32, 4);
    let n = 16;
    let handle = server
        .submit(SubmitRequest::stills(
            plan.clone(),
            &encoded_batch(n, 64, 64, 90),
        ))
        .expect("admitted");
    match handle.poll() {
        QueryPoll::Pending {
            completed, total, ..
        } => {
            assert_eq!(total, n);
            assert!(completed <= n);
        }
        QueryPoll::Ready => {
            // Legal but vanishingly unlikely this early; the later
            // assertions still hold.
        }
    }
    // 16 items at >=10ms each on one producer cannot finish in 1ms.
    assert!(handle
        .wait_deadline(Duration::from_millis(1))
        .expect("server alive")
        .is_none());
    let report = loop {
        if let Some(r) = handle
            .wait_deadline(Duration::from_secs(5))
            .expect("server alive")
        {
            break r;
        }
    };
    assert_eq!(report.images, n);
    assert!(matches!(handle.poll(), QueryPoll::Ready));
    assert!(
        matches!(
            handle.wait_deadline(Duration::ZERO),
            Err(ServeError::Aborted)
        ),
        "the report was already taken"
    );

    // An empty query resolves immediately; a zero-deadline wait picks it
    // up without blocking.
    let h = server
        .submit(SubmitRequest::stills(plan, &Vec::new()))
        .expect("admitted");
    let mut got = None;
    for _ in 0..500 {
        if let Some(r) = h.wait_deadline(Duration::ZERO).expect("server alive") {
            got = Some(r);
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(got.expect("resolved").images, 0);
    server.shutdown();
}

/// Ladder rungs whose output layout differs from the submitted plan's are
/// discarded at admission: a degradation can never change how many
/// outputs a query produces (results are indexed by output slot).
#[test]
fn layout_incompatible_rungs_are_ignored() {
    let server = Server::with_devices(
        vec![fast_device(GpuModel::T4)],
        ServerConfig {
            runtime: RuntimeOptions {
                producers: 2,
                consumers: 1,
                extra_cpu_s_per_image: 0.005,
                ..Default::default()
            },
            max_active_queries: 1,
            batch_queue: 2,
            tensor_cache_bytes: 256 << 20,
        },
    );
    let plan = plan_for(ModelKind::ResNet50, 64, 64, 32, 4);
    // Same geometry, different DNN — layout-compatible (stills fan out
    // 1:1 regardless of plan), so this rung IS eligible; the test pins
    // the complementary case too: stills can't produce an incompatible
    // layout, hence the whole ladder survives and degradation proceeds.
    let opts = SubmitOptions {
        accuracy: Some(0.95),
        accuracy_floor: Some(0.90),
        ladder: vec![DegradeStep {
            plan: plan_for(ModelKind::ResNet18, 64, 64, 32, 4),
            accuracy: 0.91,
            est_throughput: 4_000.0,
        }],
        ..Default::default()
    };
    let h1 = server
        .submit(SubmitRequest::stills(plan.clone(), &encoded_batch(16, 64, 64, 95)).options(opts))
        .expect("admitted");
    let r2 = std::thread::scope(|scope| {
        let t2 = scope.spawn(|| {
            server
                .submit(SubmitRequest::stills(
                    plan.clone(),
                    &encoded_batch(2, 64, 64, 96),
                ))
                .expect("eventually admitted")
                .wait()
                .expect("resolves")
        });
        let r1 = h1.wait().expect("resolves");
        assert_eq!(
            r1.images, 16,
            "output slot count is invariant under degradation"
        );
        t2.join().expect("tenant 2")
    });
    assert_eq!(r2.images, 2);
    server.shutdown();
}

/// A server on which production is slow and ordered (one producer, 5 ms
/// asleep per item) and the device is not (a T4 at 1/50 of real time): a
/// scan's remaining items take far longer to produce than a released batch
/// takes to execute. Batch 64 is larger than any pair of queries below, so
/// no group ever fills — every batch is released by one of the two flush
/// rules.
fn slow_production_server(max_active_queries: usize) -> Server {
    Server::with_devices(
        vec![fast_device(GpuModel::T4)],
        ServerConfig {
            runtime: RuntimeOptions {
                producers: 1,
                consumers: 1,
                extra_cpu_s_per_image: 0.005,
                ..Default::default()
            },
            max_active_queries,
            batch_queue: 2,
            tensor_cache_bytes: 0,
        },
    )
}

const SCAN_ITEMS: usize = 40;
const INTERACTIVE_ITEMS: usize = 8;
const NEVER_FILLS: usize = 64;

fn with_priority(priority: Priority) -> SubmitOptions {
    SubmitOptions {
        priority,
        ..Default::default()
    }
}

/// Waits for `interactive`, then reports whether `scan` was still producing
/// at that moment: the ordering the priority-drain rule makes possible.
fn resolves_mid_scan(interactive: QueryHandle, scan: &QueryHandle) -> (QueryReport, bool) {
    let report = interactive
        .wait_deadline(Duration::from_secs(60))
        .expect("server alive")
        .expect("the interactive query resolves");
    let mid_scan = matches!(
        scan.poll(),
        QueryPoll::Pending { produced, total, .. } if produced < total
    );
    (report, mid_scan)
}

fn drain(server: Server, scan: QueryHandle, scan_items: usize) -> ServerStats {
    assert_eq!(scan.wait().expect("scan resolves").images, scan_items);
    let stats = server.stats();
    assert_eq!(stats.pending_batch_items, 0);
    server.shutdown();
    stats
}

/// A High-priority query does not wait for a Normal-priority scan to fill —
/// here, to finish — the batch they share: its tail is released the moment
/// its own production is done, while the scan is still producing. (Released
/// only when the signature drains, the shared group would hold the
/// interactive outputs until the scan's last item: the handle could not
/// resolve before `produced == total`.)
#[test]
fn a_high_priority_query_does_not_wait_for_a_normal_scan_to_fill_its_batch() {
    let server = slow_production_server(4);
    let plan = plan_for(ModelKind::ResNet50, 64, 64, 32, NEVER_FILLS);
    let scan = server
        .submit(
            SubmitRequest::stills(plan.clone(), &encoded_batch(SCAN_ITEMS, 64, 64, 200))
                .options(with_priority(Priority::Normal)),
        )
        .expect("admitted");
    let interactive = server
        .submit(
            SubmitRequest::stills(plan, &encoded_batch(INTERACTIVE_ITEMS, 64, 64, 300))
                .options(with_priority(Priority::High)),
        )
        .expect("admitted");
    let (report, mid_scan) = resolves_mid_scan(interactive, &scan);
    assert_eq!(report.images, INTERACTIVE_ITEMS);
    assert!(
        mid_scan,
        "the High-priority query resolved only once the scan had produced everything"
    );
    let stats = drain(server, scan, SCAN_ITEMS);
    assert_eq!(stats.priority_flushes, 1, "{stats}");
    assert_eq!(stats.batches, 2, "{stats}");
    assert!(stats.cross_query_batches <= 1, "{stats}");
}

/// Equal priorities still wait for each other: the same pair at one
/// priority forms the one 48-item batch it always did, and two same-priority
/// queries in flight (the shape of the `thumbs_hot`, `fullres_cold` and
/// `video_live` benchmark workloads) fill each other's batches — the
/// priority-drain rule never fires and the batch sizes are those of the
/// signature-drained rule alone.
#[test]
fn equal_priorities_keep_filling_each_others_batches() {
    let server = slow_production_server(4);
    let plan = plan_for(ModelKind::ResNet50, 64, 64, 32, NEVER_FILLS);
    let scan = server
        .submit(SubmitRequest::stills(
            plan.clone(),
            &encoded_batch(SCAN_ITEMS, 64, 64, 200),
        ))
        .expect("admitted");
    let peer = server
        .submit(SubmitRequest::stills(
            plan,
            &encoded_batch(INTERACTIVE_ITEMS, 64, 64, 300),
        ))
        .expect("admitted");
    let (report, mid_scan) = resolves_mid_scan(peer, &scan);
    assert_eq!(report.images, INTERACTIVE_ITEMS);
    assert!(!mid_scan, "a peer's tail waits for the batch they share");
    let stats = drain(server, scan, SCAN_ITEMS);
    assert_eq!(stats.priority_flushes, 0, "{stats}");
    assert_eq!(
        (stats.batches, stats.cross_query_batches, stats.images_done),
        (1, 1, (SCAN_ITEMS + INTERACTIVE_ITEMS) as u64),
        "{stats}"
    );

    // Two 40-item queries in flight at batch 16: five full batches,
    // whatever the interleaving.
    let server = slow_production_server(4);
    let plan = plan_for(ModelKind::ResNet50, 64, 64, 32, 16);
    let first = server
        .submit(SubmitRequest::stills(
            plan.clone(),
            &encoded_batch(SCAN_ITEMS, 64, 64, 200),
        ))
        .expect("admitted");
    let second = server
        .submit(SubmitRequest::stills(
            plan,
            &encoded_batch(SCAN_ITEMS, 64, 64, 300),
        ))
        .expect("admitted");
    assert_eq!(first.wait().expect("resolves").images, SCAN_ITEMS);
    let stats = drain(server, second, SCAN_ITEMS);
    assert_eq!(stats.priority_flushes, 0, "{stats}");
    assert_eq!((stats.batches, stats.full_batches), (5, 5), "{stats}");
}

/// A gentle ramp: few coded coefficients, so its difficulty score sits
/// well below `textured`'s.
fn ramp(w: usize, h: usize, seed: usize) -> ImageU8 {
    let mut img = ImageU8::zeros(w, h, 3);
    for y in 0..h {
        for x in 0..w {
            for c in 0..3 {
                img.set(x, y, c, ((x + y) / 4 + seed % 32 + 96) as u8);
            }
        }
    }
    img
}

/// A routed High-priority query is counted under both of its rungs until
/// each item is routed, so its last item releases *both* rungs' groups —
/// each holds some of its outputs, and only the Normal-priority cascade
/// scan sharing both signatures is still outstanding under either.
#[test]
fn a_routed_high_priority_query_releases_both_rungs_groups() {
    let encode = |img: ImageU8| EncodedImage::encode(&img, Format::sjpg(85)).unwrap();
    // Easy items at even indices, hard ones at odd: both rungs get outputs.
    let corpus = |n: usize, seed: usize| -> Vec<EncodedImage> {
        (0..n)
            .map(|i| match i % 2 {
                0 => encode(ramp(64, 64, seed + i)),
                _ => encode(textured(64, 64, seed + i)),
            })
            .collect()
    };
    let score = |enc: &EncodedImage| image_signal(enc).expect("sjpg signal").score();
    let (scan_items, interactive_items) = (corpus(SCAN_ITEMS, 200), corpus(INTERACTIVE_ITEMS, 300));
    let threshold = (score(&scan_items[0]) + score(&scan_items[1])) / 2.0;
    let full = plan_for(ModelKind::ResNet50, 64, 64, 32, NEVER_FILLS);
    let cascade = CascadePlan {
        stage1: QueryPlan {
            dnn: ModelKind::ResNet18,
            decode: DecodeMode::ReducedResolution { factor: 2 },
            ..full.clone()
        },
        threshold,
        escalation_rate: 0.5,
    };
    let routed = |priority| SubmitOptions {
        priority,
        cascade: Some(cascade.clone()),
        ..Default::default()
    };
    let server = slow_production_server(4);
    let scan = server
        .submit(SubmitRequest::stills(full.clone(), &scan_items).options(routed(Priority::Normal)))
        .expect("admitted");
    let interactive = server
        .submit(SubmitRequest::stills(full, &interactive_items).options(routed(Priority::High)))
        .expect("admitted");
    let (report, mid_scan) = resolves_mid_scan(interactive, &scan);
    assert_eq!(report.images, INTERACTIVE_ITEMS);
    assert_eq!(
        report.stage_histogram,
        vec![INTERACTIVE_ITEMS / 2, INTERACTIVE_ITEMS / 2],
        "the corpus engages both rungs"
    );
    assert!(mid_scan, "both rungs' groups were held for the scan");
    let stats = drain(server, scan, SCAN_ITEMS);
    assert_eq!(stats.priority_flushes, 2, "{stats}");
    assert_eq!(stats.batches, 4, "{stats}");
}

/// A degraded High-priority query releases the group of the rung it
/// finished on: under admission pressure it steps from ResNet-50 down to
/// the ResNet-34 rung a Normal-priority scan is running on, and its outputs
/// there do not wait for the scan. (The ResNet-50 rung it left has nothing
/// else outstanding: that group goes by the signature-drained rule.)
#[test]
fn a_degraded_high_priority_query_releases_its_current_rungs_group() {
    let server = slow_production_server(2);
    let plan50 = plan_for(ModelKind::ResNet50, 64, 64, 32, NEVER_FILLS);
    let plan34 = plan_for(ModelKind::ResNet34, 64, 64, 32, NEVER_FILLS);
    let scan = server
        .submit(SubmitRequest::stills(
            plan34.clone(),
            &encoded_batch(SCAN_ITEMS, 64, 64, 200),
        ))
        .expect("admitted");
    let opts = SubmitOptions {
        priority: Priority::High,
        accuracy: Some(0.95),
        accuracy_floor: Some(0.9),
        ladder: vec![DegradeStep {
            plan: plan34,
            accuracy: 0.93,
            est_throughput: 2_000.0,
        }],
        ..Default::default()
    };
    let interactive = server
        .submit(
            SubmitRequest::stills(plan50.clone(), &encoded_batch(16, 64, 64, 300)).options(opts),
        )
        .expect("admitted");
    std::thread::scope(|scope| {
        // A third tenant blocks at admission (capacity 2) → pressure → the
        // interactive query's unclaimed items move to the ResNet-34 rung.
        let blocked = scope.spawn(|| {
            server
                .submit(SubmitRequest::stills(
                    plan50.clone(),
                    &encoded_batch(1, 64, 64, 400),
                ))
                .expect("eventually admitted")
                .wait()
                .expect("resolves")
        });
        let (report, mid_scan) = resolves_mid_scan(interactive, &scan);
        assert_eq!(report.images, 16);
        assert_eq!(report.degraded_steps, 1);
        assert!(mid_scan, "the degraded rung's group was held for the scan");
        assert_eq!(blocked.join().expect("tenant 3").images, 1);
    });
    let stats = drain(server, scan, SCAN_ITEMS);
    assert_eq!(stats.priority_flushes, 1, "{stats}");
}

/// Arbitrary Pareto frontiers for the degradation-ladder property test.
fn arb_candidates() -> impl Strategy<Value = Vec<(f64, f64)>> {
    proptest::collection::vec((0.5f64..1.0, 100.0f64..10_000.0), 1usize..12)
}

fn candidate(accuracy: f64, est_throughput: f64) -> PlanCandidate {
    PlanCandidate {
        plan: plan_for(ModelKind::ResNet50, 64, 64, 32, 4),
        preproc_throughput: est_throughput,
        exec_throughput: est_throughput,
        est_throughput,
        accuracy,
        cascade: None,
        placement: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any candidate set and constraint, every ladder rung is (a) at
    /// or above the constraint's accuracy floor, (b) strictly faster than
    /// the chosen plan, and (c) sorted most-accurate-first — so stepping
    /// down the ladder monotonically trades accuracy for speed and can
    /// never violate the floor.
    #[test]
    fn degradation_ladder_never_breaks_the_floor(
        raw in arb_candidates(),
        loss in 0.0f64..0.3,
        tput_floor in 100.0f64..5_000.0,
    ) {
        let candidates: Vec<PlanCandidate> =
            raw.iter().map(|&(a, t)| candidate(a, t)).collect();
        for constraint in [
            Constraint::MaxAccuracyLoss(loss),
            Constraint::MinThroughput(tput_floor),
        ] {
            let Ok(chosen) = constraint.select(&candidates) else {
                continue; // infeasible draw: nothing to ladder
            };
            let floor = constraint.accuracy_floor(&candidates);
            let ladder = constraint.degradation_ladder(&candidates, chosen);
            for rung in &ladder {
                prop_assert!(rung.accuracy >= floor, "rung below the accuracy floor");
                prop_assert!(
                    rung.est_throughput > chosen.est_throughput,
                    "a rung that isn't faster is not a degradation"
                );
            }
            for pair in ladder.windows(2) {
                prop_assert!(
                    pair[0].accuracy >= pair[1].accuracy,
                    "ladder must be most-accurate-first"
                );
            }
        }
    }
}
