//! §6.3 placement as the planner applies it: over the serving layout (full
//! resolution 4:4:4 / 4:2:0 sjpg, three thumbnail formats, a GOP video
//! variant) under random geometries, profiles, devices, device clocks and
//! lesions, every candidate `Planner::enumerate` emits — base, reduced
//! resolution, both cascade rungs, the video ladder — is executable
//! (`PlanContext::validate`), moves nothing but a suffix of its elementwise
//! tail, reports the split it carries, and under the "-Placement" lesion is
//! the all-CPU plan with every estimate unchanged.

use proptest::prelude::*;
use smol::accel::{GpuModel, ModelKind};
use smol::codec::Format;
use smol::core::{
    CandidateSpec, DecodeMode, InputVariant, PlanCandidate, Planner, PlannerConfig, QueryPlan,
    RoutingSpec,
};
use smol::imgproc::dag::{OpSpec, Placement};
use smol::runtime::PlanContext;

/// The §8.1 serving layout of a `w × h` corpus with `short`-edge thumbnails
/// (`smol_data::serving_variants`, without the pixels), plus the corpus as
/// GOP video.
fn serving_layout(w: usize, h: usize, short: usize, gop: usize) -> Vec<InputVariant> {
    let scale = short as f64 / w.min(h) as f64;
    let (tw, th) = (
        ((w as f64 * scale).round() as usize).max(1),
        ((h as f64 * scale).round() as usize).max(1),
    );
    vec![
        InputVariant::new("full-res sjpg(q=95)", Format::sjpg(95), w, h),
        InputVariant::new("full-res sjpg420(q=95)", Format::sjpg420(95), w, h),
        InputVariant::new(format!("{short} spng"), Format::Spng, tw, th).thumbnail(),
        InputVariant::new(format!("{short} sjpg(q=95)"), Format::sjpg(95), tw, th).thumbnail(),
        InputVariant::new(format!("{short} sjpg(q=75)"), Format::sjpg(75), tw, th).thumbnail(),
        InputVariant::new("svid(q=80)", Format::Svid { quality: 80 }, w, h).video(gop),
    ]
}

fn specs(
    layout: &[InputVariant],
    dnn: ModelKind,
    profile: f64,
    routed: bool,
) -> Vec<CandidateSpec> {
    layout
        .iter()
        .enumerate()
        .map(|(i, input)| CandidateSpec {
            dnn,
            input: input.clone(),
            accuracy: 0.8 - 0.01 * i as f64,
            // Smaller representations profile faster.
            preproc_throughput: profile * (1 + i) as f64,
            reduced_accuracy: Some(0.7),
            cascade: None,
            video: None,
            storage: None,
            routing: if routed {
                vec![RoutingSpec {
                    stage1_dnn: ModelKind::TinyResNet,
                    stage1_decode: DecodeMode::ReducedResolution { factor: 8 },
                    threshold: 10.0,
                    escalation_rate: 0.3,
                    accuracy: 0.75,
                    signal_throughput: 40.0 * profile,
                }]
            } else {
                Vec::new()
            },
        })
        .collect()
}

fn is_tail(spec: &OpSpec) -> bool {
    spec.is_elementwise() || matches!(spec, OpSpec::Fused(_))
}

/// One plan's invariants; returns its split.
fn check_plan(plan: &QueryPlan) -> usize {
    let ops = &plan.preproc.ops;
    let split = ops
        .iter()
        .position(|op| op.placement == Placement::Accel)
        .unwrap_or(ops.len());
    for op in &ops[split..] {
        assert_eq!(
            op.placement,
            Placement::Accel,
            "a suffix: {:?}",
            plan.preproc
        );
        assert!(is_tail(&op.spec), "tail ops only: {:?}", plan.preproc);
    }
    let moved: Vec<OpSpec> = ops[split..].iter().map(|op| op.spec.clone()).collect();
    assert_eq!(plan.placement_signature().accel_ops, moved);
    let verdict = PlanContext::new(plan).validate();
    assert!(verdict.is_ok(), "{:?}: {plan:?}", verdict.err());
    split
}

/// A candidate's invariants under a planner whose device runs `clock` times
/// faster in wall time than in simulated time.
fn check_candidate(c: &PlanCandidate, clock: f64) {
    let split = check_plan(&c.plan);
    let placement = c.placement.expect("a usable profile was given");
    assert_eq!(placement.split, split);
    assert!(placement.cpu_side > 0.0 && placement.accel_side > 0.0);
    match &c.cascade {
        Some(cascade) => {
            check_plan(&cascade.stage1);
            assert_eq!(cascade.stage1.input, c.plan.input);
        }
        // A uniform candidate's all-CPU estimate, on the wall clock, is what
        // its own fields say; work moved only if the CPU was the bottleneck
        // and the pipeline is estimated faster for it.
        None => {
            let (cpu, device) = (c.preproc_throughput, c.exec_throughput * clock);
            if split < c.plan.preproc.ops.len() {
                assert!(cpu < device, "{c:?}");
                assert!(placement.throughput() > cpu, "{c:?}");
            } else {
                assert!((placement.cpu_side / cpu - 1.0).abs() < 1e-9, "{c:?}");
                assert!((placement.accel_side / device - 1.0).abs() < 1e-9, "{c:?}");
            }
        }
    }
}

fn arb_case() -> impl Strategy<Value = (PlannerConfig, f64, [usize; 4], ModelKind, f64, bool)> {
    (
        (0usize..3, 0usize..4, 0usize..3, any::<bool>()),
        (64usize..=640, 64usize..=640, 16usize..=200, 2usize..=12),
        (0usize..4, 0usize..5, 0usize..5, any::<bool>()),
    )
        .prop_map(
            |((input, dev, batch, dag_opt), (w, h, short, gop), (dnn, profile, clock, routed))| {
                let config = PlannerConfig {
                    dnn_input: [32, 64, 224][input],
                    device: [
                        GpuModel::K80,
                        GpuModel::T4,
                        GpuModel::V100,
                        GpuModel::CpuOnly,
                    ][dev],
                    batch: [1, 16, 64][batch],
                    enable_dag_opt: dag_opt,
                    ..PlannerConfig::default()
                };
                let dnn = [
                    ModelKind::ResNet18,
                    ModelKind::ResNet50,
                    ModelKind::TinyResNet,
                    ModelKind::MaskRcnn,
                ][dnn];
                let profile = [30.0, 400.0, 2_500.0, 30_000.0, 400_000.0][profile];
                let clock = [0.05, 0.25, 1.0, 4.0, 20.0][clock];
                (
                    config,
                    clock,
                    [w, h, short.min(w.min(h)), gop],
                    dnn,
                    profile,
                    routed,
                )
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn every_enumerated_candidate_is_executable_and_moves_only_its_tail(
        (config, clock, [w, h, short, gop], dnn, profile, routed) in arb_case()
    ) {
        let layout = serving_layout(w, h, short, gop);
        let specs = specs(&layout, dnn, profile, routed);
        let planner = Planner::new(config).with_device_clock(clock);
        let placed = planner.enumerate(&specs);
        prop_assert!(placed.len() >= layout.len());
        for c in &placed {
            check_candidate(c, clock);
        }

        // The lesion: the same candidates in the same order, every operator
        // on the CPU (the plan `build_preproc` authors — the parent's), and
        // no estimate, accuracy or decode choice moved by placement.
        let lesioned = Planner::new(PlannerConfig { enable_placement: false, ..config })
            .with_device_clock(clock);
        let all_cpu = lesioned.enumerate(&specs);
        prop_assert_eq!(all_cpu.len(), placed.len());
        for (l, p) in all_cpu.iter().zip(&placed) {
            prop_assert!(l.placement.is_none());
            prop_assert_eq!(&l.plan.preproc, &lesioned.build_preproc(&l.plan.input));
            prop_assert_eq!(&l.plan.preproc, &p.plan.preproc.clone().split_at(usize::MAX));
            prop_assert_eq!(l.plan.decode, p.plan.decode);
            prop_assert_eq!((l.plan.dnn, l.plan.batch), (p.plan.dnn, p.plan.batch));
            prop_assert_eq!(&l.plan.input, &p.plan.input);
            let estimates = |c: &PlanCandidate| {
                [c.preproc_throughput, c.exec_throughput, c.est_throughput, c.accuracy]
                    .map(f64::to_bits)
            };
            prop_assert_eq!(estimates(l), estimates(p));
            prop_assert_eq!(l.cascade.is_some(), p.cascade.is_some());
            if let (Some(lc), Some(pc)) = (&l.cascade, &p.cascade) {
                prop_assert_eq!(&lc.stage1.preproc, &pc.stage1.preproc.clone().split_at(usize::MAX));
                prop_assert_eq!(lc.stage1.decode, pc.stage1.decode);
            }
            check_plan(&l.plan);
        }

        // A device so slow in wall time (a millionth of its simulated rate)
        // that no CPU profile trails it: DNN-bound plans stay all-CPU.
        for c in Planner::new(config).with_device_clock(1e-6).enumerate(&specs) {
            let placement = c.placement.expect("evaluated");
            assert_eq!(placement.split, c.plan.preproc.ops.len(), "{placement:?}");
            assert_eq!(check_plan(&c.plan), placement.split);
        }
    }
}
