//! Bit-identity battery for the compiled CPU preprocessing prefix: whatever
//! the producer stage writes into the staging buffer must equal, bit for
//! bit, what the reference interpreter (`dag::execute_plan`, one kernel and
//! one intermediate image per op) computes for the same plan and image —
//! for every geometric shape the planner emits, every tail placement, 1-px
//! edges, the identity case, and a second geometry through the same
//! `PlanContext` (the re-compile path). Under an accelerator-placed tail
//! what is staged is a byte slot holding the reference u8 intermediate.

use proptest::prelude::*;
use smol::accel::ModelKind;
use smol::codec::{EncodedImage, Format};
use smol::core::{DecodeMode, InputVariant, Planner, PlannerConfig, QueryPlan};
use smol::imgproc::dag::{execute_plan, OpSpec, PlacedOp, Placement, PreprocPlan};
use smol::imgproc::ops::fused::fused_convert_normalize_split;
use smol::imgproc::ops::normalize::Normalization;
use smol::imgproc::ops::prefix::CompiledPrefix;
use smol::imgproc::{Error as ImageError, ImageU8};
use smol::runtime::{
    decode_item, produce_item, BufferPool, PlanContext, PooledBuffer, RuntimeError, SlotKind,
};

fn noise(w: usize, h: usize, seed: u64) -> ImageU8 {
    let mut state = seed | 1;
    let mut img = ImageU8::zeros(w, h, 3);
    for v in img.data_mut() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *v = (state >> 56) as u8;
    }
    img
}

/// The four geometric chains the planner emits.
#[derive(Debug, Clone, Copy)]
enum Shape {
    ResizeExact,
    ShortEdgeThenCrop,
    FusedCropResize,
    BareCrop,
}

/// Where the elementwise tail runs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tail {
    CpuUnfused,
    CpuFused,
    Accel,
}

fn geometric(shape: Shape, tw: u32, th: u32, short: u32) -> Vec<OpSpec> {
    match shape {
        Shape::ResizeExact => vec![OpSpec::ResizeExact { w: tw, h: th }],
        Shape::ShortEdgeThenCrop => vec![
            OpSpec::ResizeShortEdge { short },
            OpSpec::CenterCrop { w: tw, h: th },
        ],
        Shape::FusedCropResize => vec![OpSpec::FusedCropResize {
            short,
            w: tw,
            h: th,
        }],
        Shape::BareCrop => vec![OpSpec::CenterCrop { w: tw, h: th }],
    }
}

fn with_tail(geom: Vec<OpSpec>, tail: Tail) -> PreprocPlan {
    let parts = vec![OpSpec::ConvertF32, OpSpec::Normalize, OpSpec::ChannelSplit];
    let (tail_ops, placement) = match tail {
        Tail::CpuUnfused => (parts, Placement::Cpu),
        Tail::CpuFused => (vec![OpSpec::Fused(parts)], Placement::Cpu),
        Tail::Accel => (parts, Placement::Accel),
    };
    let mut ops: Vec<PlacedOp> = geom.into_iter().map(PlacedOp::cpu).collect();
    ops.extend(
        tail_ops
            .into_iter()
            .map(|spec| PlacedOp { spec, placement }),
    );
    PreprocPlan::new(ops)
}

/// What the staging slot must hold: the reference tensor, or — when the
/// tail is accelerator-placed — the reference u8 intermediate's interleaved
/// bytes (here widened: exactly what geometric ops + `ConvertF32` produce).
fn reference(plan: &PreprocPlan, tail: Tail, img: &ImageU8) -> Vec<f32> {
    let norm = Normalization::IMAGENET;
    if tail != Tail::Accel {
        return execute_plan(plan, img, &norm).unwrap().into_vec();
    }
    let mut ops: Vec<PlacedOp> = plan
        .ops
        .iter()
        .filter(|o| o.placement == Placement::Cpu)
        .cloned()
        .collect();
    ops.push(PlacedOp::cpu(OpSpec::ConvertF32));
    execute_plan(&PreprocPlan::new(ops), img, &norm)
        .unwrap()
        .into_vec()
}

fn plan_over(preproc: PreprocPlan, w: usize, h: usize) -> QueryPlan {
    QueryPlan {
        dnn: ModelKind::ResNet18,
        input: InputVariant::new("battery spng", Format::Spng, w, h),
        preproc,
        decode: DecodeMode::Full,
        batch: 1,
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The values a staging slot holds, bytes widened the way [`reference`]
/// widens them, with the slot's kind.
fn staged_values(buffer: &PooledBuffer) -> (SlotKind, Vec<f32>) {
    let values = match buffer.kind() {
        SlotKind::Tensor => buffer.as_slice().to_vec(),
        SlotKind::Bytes => buffer.as_bytes().iter().map(|&b| b as f32).collect(),
    };
    (buffer.kind(), values)
}

/// Stages `img` (losslessly encoded) through the producer stage: a byte
/// slot exactly when the tail is accelerator-placed.
fn stage(
    ctx: &PlanContext,
    pool: &BufferPool,
    tail: Tail,
    img: &ImageU8,
) -> Result<Vec<f32>, RuntimeError> {
    let enc = EncodedImage::encode(img, Format::Spng).unwrap();
    let produced = produce_item(ctx, 0, &enc, pool, false, 0.0, None)?;
    let (kind, values) = staged_values(&produced.buffer);
    assert_eq!(kind == SlotKind::Bytes, tail == Tail::Accel);
    assert_eq!(
        produced.transfer_bytes,
        values.len() * kind.elem_bytes(),
        "the transfer is what the slot holds"
    );
    Ok(values)
}

fn arb_case() -> impl Strategy<Value = (Shape, Tail, [usize; 4], [u32; 3], u64)> {
    (
        0usize..4,
        0usize..3,
        (1usize..=96, 1usize..=96, 1usize..=96, 1usize..=96),
        (1u32..=80, 1u32..=80, 1u32..=64),
        any::<u64>(),
    )
        .prop_map(|(shape, tail, (w, h, w2, h2), (tw, th, short), seed)| {
            let shape = [
                Shape::ResizeExact,
                Shape::ShortEdgeThenCrop,
                Shape::FusedCropResize,
                Shape::BareCrop,
            ][shape];
            let tail = [Tail::CpuUnfused, Tail::CpuFused, Tail::Accel][tail];
            (shape, tail, [w, h, w2, h2], [tw, th, short], seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Compiled ≡ interpreted, on the first geometry a context sees and on
    /// a different second one.
    #[test]
    fn compiled_prefix_is_bit_identical_to_execute_plan(
        (shape, tail, [w, h, w2, h2], [tw, th, short], seed) in arb_case()
    ) {
        let preproc = with_tail(geometric(shape, tw, th, short), tail);
        let ctx = PlanContext::new(&plan_over(preproc, w, h));
        let pool = BufferPool::new(2, ctx.buf_len, true, false);

        let first = noise(w, h, seed);
        let staged = stage(&ctx, &pool, tail, &first).unwrap();
        prop_assert_eq!(bits(&staged), bits(&reference(&ctx.preproc, tail, &first)));
        prop_assert_eq!(
            ctx.compiled_prefix().unwrap().transfer_bytes(),
            ctx.buf_len * if tail == Tail::Accel { 1 } else { 4 }
        );

        // A second item of another geometry through the same context: the
        // prefix re-compiles. Where the plan maps it to the same output
        // geometry the staged tensor is again exact; where it does not,
        // the item is a typed error and the buffer is never part-written.
        let second = noise(w2, h2, seed ^ 0x9e37_79b9);
        let result = stage(&ctx, &pool, tail, &second);
        if ctx.preproc.output_dims(w2, h2) == (ctx.out_w, ctx.out_h) {
            prop_assert_eq!(
                bits(&result.unwrap()),
                bits(&reference(&ctx.preproc, tail, &second))
            );
            prop_assert_eq!(ctx.compiled_prefix().unwrap().src_dims(), (w2, h2));
        } else {
            prop_assert!(matches!(
                result,
                Err(RuntimeError::Image(ImageError::ShapeMismatch { .. }))
            ));
        }
        // And back: the first geometry is still exact after the switch.
        prop_assert_eq!(bits(&stage(&ctx, &pool, tail, &first).unwrap()), bits(&staged));
    }

    /// A source already at the output geometry compiles to the identity
    /// path under every shape that can express it, and stages exactly the
    /// fused elementwise pass.
    #[test]
    fn exact_geometry_is_the_identity_path(
        (w, h, tail, seed) in (1usize..=96, 1usize..=96, 0usize..3, any::<u64>())
    ) {
        let tail = [Tail::CpuUnfused, Tail::CpuFused, Tail::Accel][tail];
        let img = noise(w, h, seed);
        let (tw, th) = (w as u32, h as u32);
        let short = w.min(h) as u32;
        let chains = [
            vec![],
            geometric(Shape::ResizeExact, tw, th, short),
            geometric(Shape::ShortEdgeThenCrop, tw, th, short),
            geometric(Shape::FusedCropResize, tw, th, short),
            geometric(Shape::BareCrop, tw + 3, th + 3, short),
        ];
        for chain in chains {
            let plan = with_tail(chain, tail);
            let prefix = CompiledPrefix::compile(&plan, w, h, &Normalization::IMAGENET).unwrap();
            prop_assert!(prefix.is_identity(), "{plan:?}");
            prop_assert_eq!(prefix.stages_bytes(), tail == Tail::Accel);
            let out = if prefix.stages_bytes() {
                let mut out = vec![0xA5u8; prefix.out_elems()];
                prefix.run_into_bytes(&img, &mut out).unwrap();
                // The identity path under byte staging is a plain copy.
                prop_assert_eq!(&out[..], img.data());
                out.into_iter().map(|b| b as f32).collect()
            } else {
                let mut out = vec![f32::NAN; prefix.out_elems()];
                prefix.run_into(&img, &mut out).unwrap();
                out
            };
            prop_assert_eq!(bits(&out), bits(&reference(&plan, tail, &img)));
        }
    }
}

/// The geometries the serving benchmark and the cascade resample at, which
/// the drawn cases above (sources ≤ 96 px, targets ≤ 80 px) never build: a
/// 224-wide x map of long runs with repeated and clamped columns (215 → 224),
/// a near-unity crop-resize (the 63-px window of 128×72 → 64), the stage-1
/// upscale whose taps never run (80×60 → 224), a bare crop (one run per
/// row) and a 1-px-wide source (every column clamped). Each is staged
/// through the producer under tensor and byte staging.
#[test]
fn benchmark_geometries_are_bit_identical_under_both_stagings() {
    let cases = [
        (215, 161, Shape::ResizeExact, [224, 224, 224]),
        (128, 72, Shape::FusedCropResize, [64, 64, 73]),
        (80, 60, Shape::ResizeExact, [224, 224, 224]),
        (215, 161, Shape::BareCrop, [128, 96, 0]),
        (1, 37, Shape::ResizeExact, [224, 224, 224]),
    ];
    for (i, (w, h, shape, [tw, th, short])) in cases.into_iter().enumerate() {
        let img = noise(w, h, 4242 + i as u64);
        for tail in [Tail::CpuUnfused, Tail::CpuFused, Tail::Accel] {
            let preproc = with_tail(geometric(shape, tw, th, short), tail);
            let ctx = PlanContext::new(&plan_over(preproc, w, h));
            let pool = BufferPool::new(1, ctx.buf_len, true, false);
            let staged = stage(&ctx, &pool, tail, &img).unwrap();
            assert_eq!(
                bits(&staged),
                bits(&reference(&ctx.preproc, tail, &img)),
                "{w}x{h} {shape:?} {tw}x{th} under {tail:?}"
            );
            assert!(!ctx.compiled_prefix().unwrap().is_identity());
        }
    }
}

/// A validated context stages items of its declared geometry through the
/// prefix `validate` compiled, which they read without the context's lock,
/// and every other geometry through the shared slot. A nominal item right
/// after an off-size one is still exact, and `compiled_prefix()` names the
/// off-size item's prefix until another off-size geometry replaces it:
/// nominal items never go through the slot.
#[test]
fn a_nominal_item_after_an_off_size_one_stages_exactly() {
    for tail in [Tail::CpuUnfused, Tail::CpuFused, Tail::Accel] {
        let preproc = with_tail(geometric(Shape::ResizeExact, 32, 32, 32), tail);
        let ctx = PlanContext::new(&plan_over(preproc, 48, 40));
        assert!(ctx.compiled_prefix().is_none(), "nothing compiled yet");
        ctx.validate().unwrap();
        assert_eq!(ctx.compiled_prefix().unwrap().src_dims(), (48, 40));

        let pool = BufferPool::new(2, ctx.buf_len, true, false);
        let (nominal, off_size) = (noise(48, 40, 21), noise(70, 50, 22));
        for (img, slot_dims) in [
            (&nominal, (48, 40)),
            (&off_size, (70, 50)),
            (&nominal, (70, 50)),
            (&nominal, (70, 50)),
        ] {
            assert_eq!(
                bits(&stage(&ctx, &pool, tail, img).unwrap()),
                bits(&reference(&ctx.preproc, tail, img)),
                "{}x{} under {tail:?}",
                img.width(),
                img.height()
            );
            assert_eq!(ctx.compiled_prefix().unwrap().src_dims(), slot_dims);
        }
    }
}

/// Two resamples round to u8 twice and cannot collapse into one pass: the
/// compiler says so instead of approximating.
#[test]
fn double_resample_is_rejected_at_compile_time() {
    let plan = with_tail(
        vec![
            OpSpec::ResizeExact { w: 40, h: 40 },
            OpSpec::ResizeExact { w: 20, h: 20 },
        ],
        Tail::CpuFused,
    );
    assert!(matches!(
        CompiledPrefix::compile(&plan, 64, 64, &Normalization::IMAGENET),
        Err(ImageError::InvalidPlan(_))
    ));
    // The runtime says so once, at submission, not once per item.
    assert!(matches!(
        PlanContext::new(&plan_over(plan, 64, 64)).validate(),
        Err(RuntimeError::Image(ImageError::InvalidPlan(_)))
    ));
}

/// `fullres_cold`'s geometry: a 320×240 4:4:4 sjpg under the planner's
/// central-ROI decode. The 210-px ROI block-aligns to exactly 224×224, so
/// although the rewritten plan keeps its (nominal) `ResizeExact`, the
/// producer must run no geometric kernel.
#[test]
fn roi_decode_landing_on_the_dnn_input_stages_the_fused_pass_only() {
    let planner = Planner::new(PlannerConfig::default());
    let input = InputVariant::new("320x240 sjpg", Format::sjpg(95), 320, 240);
    let plan = QueryPlan {
        dnn: ModelKind::ResNet50,
        input: input.clone(),
        preproc: planner.build_preproc(&input),
        decode: planner.decode_mode(&input),
        batch: 8,
    };
    assert!(matches!(plan.decode, DecodeMode::CentralRoi { .. }));
    let ctx = PlanContext::new(&plan);
    assert!(
        matches!(
            ctx.preproc.ops[0].spec,
            OpSpec::ResizeExact { w: 224, h: 224 }
        ),
        "ROI dims are nominal at plan time: {:?}",
        ctx.preproc
    );

    let enc = EncodedImage::encode(&noise(320, 240, 7), Format::sjpg(95)).unwrap();
    let decoded = decode_item(&enc, plan.decode).unwrap();
    assert_eq!((decoded.width(), decoded.height()), (224, 224));

    let pool = BufferPool::new(2, ctx.buf_len, true, false);
    let produced = produce_item(&ctx, 0, &enc, &pool, true, 0.0, None).unwrap();
    let expected = fused_convert_normalize_split(&decoded, &ctx.norm).unwrap();
    assert_eq!(bits(produced.buffer.as_slice()), bits(expected.data()));
    assert!(ctx.compiled_prefix().unwrap().is_identity());
    assert_eq!(produced.image.as_deref(), Some(&decoded));

    // The same plan with its tail on the accelerator (what the planner emits
    // for this preprocessing-bound workload) stages the decoded bytes.
    let offloaded = QueryPlan {
        preproc: plan.preproc.clone().split_at(plan.preproc.tail_start()),
        ..plan
    };
    let ctx = PlanContext::new(&offloaded);
    ctx.validate().unwrap();
    let produced = produce_item(&ctx, 0, &enc, &pool, false, 0.0, None).unwrap();
    assert_eq!(produced.buffer.as_bytes(), decoded.data());
    assert_eq!(produced.transfer_bytes, 224 * 224 * 3);
    assert!(produced.accel_ops > 0.0);
}

/// `thumbs_hot`'s geometry: a 64-px spng thumbnail under a 64-px DNN input.
/// The executed plan keeps its upscale (the declared size is nominal), the
/// compiled prefix sees it is a no-op on the decoded item and the producer
/// stages the fused pass only — while an off-size item through the same
/// context is still resized.
#[test]
fn thumbnail_at_the_dnn_input_stages_the_fused_pass_only() {
    let planner = Planner::new(PlannerConfig {
        dnn_input: 64,
        ..Default::default()
    });
    let input = InputVariant::new("64 spng", Format::Spng, 64, 64).thumbnail();
    let plan = QueryPlan {
        dnn: ModelKind::ResNet18,
        input: input.clone(),
        preproc: planner.build_preproc(&input),
        decode: planner.decode_mode(&input),
        batch: 8,
    };
    let ctx = PlanContext::new(&plan);
    ctx.validate().unwrap();

    let img = noise(64, 64, 11);
    let pool = BufferPool::new(2, ctx.buf_len, true, false);
    let expected = fused_convert_normalize_split(&img, &ctx.norm).unwrap();
    assert_eq!(
        bits(&stage(&ctx, &pool, Tail::CpuFused, &img).unwrap()),
        bits(expected.data())
    );
    assert!(ctx.compiled_prefix().unwrap().is_identity());

    let off_size = noise(96, 80, 12);
    let expected = execute_plan(&ctx.preproc, &off_size, &ctx.norm).unwrap();
    assert_eq!(
        bits(&stage(&ctx, &pool, Tail::CpuFused, &off_size).unwrap()),
        bits(expected.data())
    );
    assert!(!ctx.compiled_prefix().unwrap().is_identity());

    // With the tail on the accelerator (the split the planner gives this
    // plan on a fast device) the same two items stage their u8
    // intermediates: the thumbnail's own bytes, and the resized off-size one.
    let offloaded = QueryPlan {
        preproc: plan.preproc.clone().split_at(plan.preproc.tail_start()),
        ..plan
    };
    let ctx = PlanContext::new(&offloaded);
    ctx.validate().unwrap();
    for item in [&img, &off_size] {
        assert_eq!(
            bits(&stage(&ctx, &pool, Tail::Accel, item).unwrap()),
            bits(&reference(&ctx.preproc, Tail::Accel, item))
        );
    }
}
