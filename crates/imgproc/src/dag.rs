//! Preprocessing computation-DAG representation and optimizer (§6.2).
//!
//! A [`PreprocPlan`] is the ordered sequence of post-decode preprocessing
//! operators (preprocessing pipelines are sequential chains, as §6.3 notes).
//! The [`DagOptimizer`] rewrites a plan using the paper's reordering rules,
//!
//! 1. normalization and data-type conversion can be placed at any point,
//! 2. normalization, conversion, and channel reordering can be fused,
//! 3. resizing and cropping can be swapped,
//!
//! then prunes candidates with the rules
//!
//! 1. resizing is cheaper with fewer pixels,
//! 2. resizing is cheaper with smaller data types,
//! 3. fusion always improves performance,
//!
//! and finally selects the cheapest remaining plan by counting weighted
//! arithmetic operations for the given input geometry.

use crate::error::{Error, Result};
use crate::image::{ImageU8, Layout, TensorF32};
use crate::ops;
use crate::ops::normalize::Normalization;

/// Where an operator executes. Decode is always on the CPU (entropy decoding
/// is branchy and accelerator-hostile, §6.4); post-decode operators may be
/// placed on either side (§6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    Cpu,
    Accel,
}

/// A single preprocessing operator.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OpSpec {
    /// Aspect-preserving resize so the short edge equals `short`.
    ResizeShortEdge { short: u32 },
    /// Resize to exactly `w × h`.
    ResizeExact { w: u32, h: u32 },
    /// Central crop to `w × h`.
    CenterCrop { w: u32, h: u32 },
    /// Crop-first equivalent of `ResizeShortEdge{short}` followed by
    /// `CenterCrop{w,h}`: centrally crops the pre-image of the `w × h`
    /// window and resizes it straight to `w × h`. Produced by reorder rule
    /// (3); cheaper because the resize writes `w × h` pixels instead of the
    /// full short-edge-resized frame (pruning rule 1).
    FusedCropResize { short: u32, w: u32, h: u32 },
    /// u8 → f32 conversion (no scaling).
    ConvertF32,
    /// `(x/255 − mean)/std` per channel; requires f32 input.
    Normalize,
    /// HWC → CHW reorder ("split").
    ChannelSplit,
    /// Fused elementwise tail (any of ConvertF32 / Normalize / ChannelSplit,
    /// in semantic order), executed in a single memory pass.
    Fused(Vec<OpSpec>),
}

impl OpSpec {
    /// True for operators that touch every element exactly once and carry no
    /// geometry change — the fusion candidates of reorder rule (2).
    pub fn is_elementwise(&self) -> bool {
        matches!(
            self,
            OpSpec::ConvertF32 | OpSpec::Normalize | OpSpec::ChannelSplit
        )
    }

    /// Short human-readable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            OpSpec::ResizeShortEdge { .. } => "resize",
            OpSpec::ResizeExact { .. } => "resize_exact",
            OpSpec::CenterCrop { .. } => "crop",
            OpSpec::FusedCropResize { .. } => "crop_resize",
            OpSpec::ConvertF32 => "convert",
            OpSpec::Normalize => "normalize",
            OpSpec::ChannelSplit => "split",
            OpSpec::Fused(_) => "fused",
        }
    }
}

/// An operator with its device placement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlacedOp {
    pub spec: OpSpec,
    pub placement: Placement,
}

impl PlacedOp {
    pub fn cpu(spec: OpSpec) -> Self {
        PlacedOp {
            spec,
            placement: Placement::Cpu,
        }
    }
}

/// An ordered preprocessing pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PreprocPlan {
    pub ops: Vec<PlacedOp>,
}

impl PreprocPlan {
    pub fn new(ops: Vec<PlacedOp>) -> Self {
        PreprocPlan { ops }
    }

    /// The standard ResNet pipeline of §2: short-edge resize, central crop,
    /// convert, normalize, split — all unfused, all on CPU.
    pub fn standard(short: u32, crop_w: u32, crop_h: u32) -> Self {
        PreprocPlan::new(vec![
            PlacedOp::cpu(OpSpec::ResizeShortEdge { short }),
            PlacedOp::cpu(OpSpec::CenterCrop {
                w: crop_w,
                h: crop_h,
            }),
            PlacedOp::cpu(OpSpec::ConvertF32),
            PlacedOp::cpu(OpSpec::Normalize),
            PlacedOp::cpu(OpSpec::ChannelSplit),
        ])
    }

    /// Pipeline for natively low-resolution inputs (e.g. 161-px thumbnails):
    /// resize straight to the DNN input size, then convert/normalize/split.
    /// For a thumbnail stored *at* the DNN input size the resize is a no-op:
    /// the compiled prefix ([`crate::ops::prefix::CompiledPrefix`]) runs no
    /// geometric work for such an item, and the planner does not charge for
    /// any (`smol_core::costed_preproc_for_decode`).
    pub fn thumbnail(dnn_w: u32, dnn_h: u32) -> Self {
        PreprocPlan::new(vec![
            PlacedOp::cpu(OpSpec::ResizeExact { w: dnn_w, h: dnn_h }),
            PlacedOp::cpu(OpSpec::ConvertF32),
            PlacedOp::cpu(OpSpec::Normalize),
            PlacedOp::cpu(OpSpec::ChannelSplit),
        ])
    }

    /// Output geometry after running the plan on a `w × h` input.
    pub fn output_dims(&self, w: usize, h: usize) -> (usize, usize) {
        let mut dims = (w, h);
        for op in &self.ops {
            dims = op_output_dims(&op.spec, dims);
        }
        dims
    }

    /// Index of the first operator of the elementwise tail (convert,
    /// normalize, split — fused or not): the operators the §6.3 placement
    /// pass may move to the accelerator. Geometric operators stay on the CPU
    /// in this implementation, so a placement chooses among the split points
    /// `tail_start()..=ops.len()`, matching Smol's "typically under 5
    /// configurations" observation.
    pub fn tail_start(&self) -> usize {
        self.ops
            .iter()
            .rposition(|op| !op.spec.is_elementwise() && !matches!(op.spec, OpSpec::Fused(_)))
            .map_or(0, |last_geometric| last_geometric + 1)
    }

    /// Where the plan's operators run, for reports: `all CPU [resize, fused]`
    /// or `CPU [resize] → accelerator [fused]`.
    pub fn placement_label(&self) -> String {
        let names = |ops: &[PlacedOp]| {
            let names: Vec<&str> = ops.iter().map(|op| op.spec.name()).collect();
            names.join(", ")
        };
        let split = self
            .ops
            .iter()
            .position(|op| op.placement == Placement::Accel)
            .unwrap_or(self.ops.len());
        if split == self.ops.len() {
            format!("all CPU [{}]", names(&self.ops))
        } else {
            format!(
                "CPU [{}] → accelerator [{}]",
                names(&self.ops[..split]),
                names(&self.ops[split..])
            )
        }
    }

    /// The plan with its first `split` operators on the CPU and the rest on
    /// the accelerator (§6.3's split point).
    pub fn split_at(mut self, split: usize) -> Self {
        for (i, op) in self.ops.iter_mut().enumerate() {
            op.placement = if i < split {
                Placement::Cpu
            } else {
                Placement::Accel
            };
        }
        self
    }
}

fn op_output_dims(spec: &OpSpec, (w, h): (usize, usize)) -> (usize, usize) {
    match spec {
        OpSpec::ResizeShortEdge { short } => ops::resize::scaled_dims(w, h, *short as usize),
        OpSpec::ResizeExact { w: tw, h: th } => (*tw as usize, *th as usize),
        OpSpec::CenterCrop { w: cw, h: ch } => ((*cw as usize).min(w), (*ch as usize).min(h)),
        OpSpec::FusedCropResize { w: tw, h: th, .. } => (*tw as usize, *th as usize),
        OpSpec::ConvertF32 | OpSpec::Normalize | OpSpec::ChannelSplit => (w, h),
        OpSpec::Fused(_) => (w, h),
    }
}

// ---------------------------------------------------------------------------
// Cost model (weighted arithmetic-operation counting, §6.2)
// ---------------------------------------------------------------------------

/// Relative per-element cost weight of f32 arithmetic vs u8 arithmetic
/// (pruning rule 2: "INT8 resizing is cheaper than FLOAT32 resizing").
const F32_FACTOR: f64 = 2.0;
/// Cost charged per element per memory pass; fusion saves these.
const MEM_PASS: f64 = 1.0;
/// Arithmetic ops per output element of a bilinear resize
/// (per channel: 2 lerps horizontal, 1 vertical ≈ 8 mul/add).
const RESIZE_ARITH: f64 = 8.0;

/// Cost of a single operator at a given pipeline state.
#[derive(Debug, Clone, PartialEq)]
pub struct OpCost {
    pub name: &'static str,
    /// Weighted arithmetic+memory operation count.
    pub weighted_ops: f64,
    /// Elements written by the operator.
    pub out_elems: usize,
}

#[derive(Clone, Copy)]
struct CostState {
    w: usize,
    h: usize,
    c: usize,
    is_f32: bool,
}

fn op_cost(spec: &OpSpec, st: &mut CostState) -> f64 {
    let dtype = if st.is_f32 { F32_FACTOR } else { 1.0 };
    let cost = match spec {
        OpSpec::ResizeShortEdge { .. } | OpSpec::ResizeExact { .. } => {
            let (ow, oh) = op_output_dims(spec, (st.w, st.h));
            let out = ow * oh * st.c;
            (RESIZE_ARITH * dtype + MEM_PASS) * out as f64
        }
        OpSpec::FusedCropResize { .. } => {
            let (ow, oh) = op_output_dims(spec, (st.w, st.h));
            let out = ow * oh * st.c;
            (RESIZE_ARITH * dtype + MEM_PASS) * out as f64
        }
        OpSpec::CenterCrop { .. } => {
            let (ow, oh) = op_output_dims(spec, (st.w, st.h));
            // Pure copy: one memory pass over the output.
            (MEM_PASS * dtype) * (ow * oh * st.c) as f64
        }
        OpSpec::ConvertF32 => (1.0 + MEM_PASS) * (st.w * st.h * st.c) as f64,
        OpSpec::Normalize => (2.0 * F32_FACTOR + MEM_PASS) * (st.w * st.h * st.c) as f64,
        OpSpec::ChannelSplit => (MEM_PASS * F32_FACTOR) * (st.w * st.h * st.c) as f64,
        OpSpec::Fused(parts) => {
            // One memory pass, summed arithmetic.
            let elems = (st.w * st.h * st.c) as f64;
            let mut arith = 0.0;
            for p in parts {
                arith += match p {
                    OpSpec::ConvertF32 => 1.0,
                    OpSpec::Normalize => 2.0 * F32_FACTOR,
                    OpSpec::ChannelSplit => 0.5 * F32_FACTOR,
                    _ => 0.0,
                };
            }
            (arith + MEM_PASS) * elems
        }
    };
    let (nw, nh) = op_output_dims(spec, (st.w, st.h));
    st.w = nw;
    st.h = nh;
    match spec {
        OpSpec::ConvertF32 => st.is_f32 = true,
        OpSpec::Fused(parts) if parts.iter().any(|p| matches!(p, OpSpec::ConvertF32)) => {
            st.is_f32 = true
        }
        _ => {}
    }
    cost
}

/// DCT block edge of the block codecs the decode cost model describes
/// (JPEG anatomy; `smol_codec::sjpg` concretely). Kept here rather than in
/// the codec crate because the planner costs decode and preprocessing
/// *jointly* through this module's weighted-op scale.
const DCT_BLOCK: usize = 8;
/// Weighted ops charged per component block for entropy decoding — branchy
/// sequential Huffman work, charged in full at every IDCT edge. That was
/// the codec's floor before sjpg stream version 3; a v3 factor-4 or
/// factor-8 decode reads each row's low-frequency segment only, about a
/// sixth of a coefficient-dense block's symbols (`decode_hotpath` prints
/// the exact counts beside this model's ratios). The constants stay until
/// they are fitted from those counters (ROADMAP item 4b).
const ENTROPY_PER_BLOCK: f64 = 320.0;
/// Arithmetic ops per written pixel for YCbCr→RGB conversion + clamping.
const COLOR_CONVERT: f64 = 5.0;

/// Weighted-op cost of decoding a `w × h` 3-channel DCT block image whose
/// 8×8 blocks are inverse-transformed at `idct_edge` points per axis
/// (8 = full decode; 4/2/1 = reduced-resolution decode at 1/2, 1/4, 1/8
/// scale). The entropy term is scale-independent, the IDCT term shrinks
/// with the cube of the edge (`2n³` MACs per separable transform), and the
/// pixel writes shrink quadratically — so the planner's Pareto frontier
/// sees the true joint decode+preprocess cost of a reduced-resolution plan
/// instead of assuming every candidate pays a full decode.
///
/// When `chroma_subsampled` is true the image stores chroma at half
/// resolution per axis (4:2:0), so the two chroma components carry one
/// block per *four* luma blocks — half the total entropy symbols and
/// transform MACs of 4:4:4 at equal geometry. Pixel writes are unchanged
/// (the output is still `w × h × 3` RGB at the decoded scale).
///
/// This is the still-image formula only; the planner prices a decode
/// *mode* (ROI, reduced resolution, GOPs) through
/// `smol_core::rewrite::decode_cost`, which calls it.
pub fn decode_cost(w: usize, h: usize, idct_edge: usize, chroma_subsampled: bool) -> f64 {
    let n = idct_edge.clamp(1, DCT_BLOCK) as f64;
    let luma_blocks = (w.div_ceil(DCT_BLOCK) * h.div_ceil(DCT_BLOCK)) as f64;
    let chroma_blocks = if chroma_subsampled {
        2.0 * (w.div_ceil(2 * DCT_BLOCK) * h.div_ceil(2 * DCT_BLOCK)) as f64
    } else {
        2.0 * luma_blocks
    };
    let entropy = (luma_blocks + chroma_blocks) * ENTROPY_PER_BLOCK;
    // 4:2:0 chroma blocks reconstruct at min(8, 2n) points per axis (the
    // half-resolution plane needs twice the per-block edge to cover the
    // same output patch; see `sjpg::decode_scaled`).
    let cn = if chroma_subsampled {
        (2.0 * n).min(DCT_BLOCK as f64)
    } else {
        n
    };
    let idct = (luma_blocks * 2.0 * n * n * n + chroma_blocks * 2.0 * cn * cn * cn) * F32_FACTOR;
    let scale = n / DCT_BLOCK as f64;
    let written = (w as f64 * scale).ceil() * (h as f64 * scale).ceil() * 3.0;
    entropy + idct + written * (COLOR_CONVERT + MEM_PASS)
}

/// Total weighted-operation cost of a plan on a `w × h × 3` input.
pub fn plan_cost(plan: &PreprocPlan, w: usize, h: usize) -> f64 {
    let mut st = CostState {
        w,
        h,
        c: 3,
        is_f32: false,
    };
    plan.ops.iter().map(|op| op_cost(&op.spec, &mut st)).sum()
}

/// Per-operator cost breakdown (used for placement decisions and reports).
pub fn plan_op_costs(plan: &PreprocPlan, w: usize, h: usize) -> Vec<OpCost> {
    let mut st = CostState {
        w,
        h,
        c: 3,
        is_f32: false,
    };
    plan.ops
        .iter()
        .map(|op| {
            let weighted = op_cost(&op.spec, &mut st);
            OpCost {
                name: op.spec.name(),
                weighted_ops: weighted,
                out_elems: st.w * st.h * st.c,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Optimizer
// ---------------------------------------------------------------------------

/// Rule- and cost-based preprocessing-plan optimizer.
#[derive(Debug, Clone, Copy)]
pub struct DagOptimizer {
    /// Apply the fusion rewrite (lesion studies toggle this off).
    pub enable_fusion: bool,
    /// Apply the resize/crop reorder rewrite.
    pub enable_reorder: bool,
}

impl Default for DagOptimizer {
    fn default() -> Self {
        DagOptimizer {
            enable_fusion: true,
            enable_reorder: true,
        }
    }
}

impl DagOptimizer {
    /// All ablations off: returns plans unchanged.
    pub fn disabled() -> Self {
        DagOptimizer {
            enable_fusion: false,
            enable_reorder: false,
        }
    }

    /// Exhaustively generates candidate plans (reorderings + fusions),
    /// returning each with its weighted-op cost for the given input size.
    pub fn candidates(&self, plan: &PreprocPlan, w: usize, h: usize) -> Vec<(PreprocPlan, f64)> {
        let mut cands = vec![plan.clone()];
        if self.enable_reorder {
            let mut reordered = Vec::new();
            for c in &cands {
                reordered.extend(reorder_variants(c));
            }
            cands.extend(reordered);
        }
        if self.enable_fusion {
            let mut fused = Vec::new();
            for c in &cands {
                if let Some(f) = fuse_tail(c) {
                    fused.push(f);
                }
            }
            cands.extend(fused);
        }
        cands.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        cands.dedup();
        cands
            .into_iter()
            .map(|c| {
                let cost = plan_cost(&c, w, h);
                (c, cost)
            })
            .collect()
    }

    /// Optimizes a plan for a `w × h` input: generate candidates, prune by
    /// rules, select cheapest by cost.
    pub fn optimize(&self, plan: &PreprocPlan, w: usize, h: usize) -> PreprocPlan {
        let mut cands = self.candidates(plan, w, h);
        // Pruning rule 3: fusion always improves performance — drop unfused
        // plans when a fused sibling exists.
        if self.enable_fusion && cands.iter().any(|(p, _)| has_fused(p)) {
            cands.retain(|(p, _)| has_fused(p) || fuse_tail(p).is_none());
        }
        cands
            .into_iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite costs"))
            .map(|(p, _)| p)
            .unwrap_or_else(|| plan.clone())
    }
}

fn has_fused(plan: &PreprocPlan) -> bool {
    plan.ops.iter().any(|o| matches!(o.spec, OpSpec::Fused(_)))
}

/// Reorder rule (3): replace adjacent `ResizeShortEdge` + `CenterCrop` with
/// the crop-first macro-op.
fn reorder_variants(plan: &PreprocPlan) -> Vec<PreprocPlan> {
    let mut out = Vec::new();
    for i in 0..plan.ops.len().saturating_sub(1) {
        if let (OpSpec::ResizeShortEdge { short }, OpSpec::CenterCrop { w, h }) =
            (&plan.ops[i].spec, &plan.ops[i + 1].spec)
        {
            let mut ops = plan.ops.clone();
            let placement = ops[i].placement;
            ops.splice(
                i..i + 2,
                [PlacedOp {
                    spec: OpSpec::FusedCropResize {
                        short: *short,
                        w: *w,
                        h: *h,
                    },
                    placement,
                }],
            );
            out.push(PreprocPlan::new(ops));
        }
    }
    out
}

/// Fusion rule: fuse the maximal trailing run of elementwise ops into one
/// `Fused` op (they are always adjacent at the tail in valid plans).
fn fuse_tail(plan: &PreprocPlan) -> Option<PreprocPlan> {
    let n = plan.ops.len();
    let mut start = n;
    while start > 0 && plan.ops[start - 1].spec.is_elementwise() {
        start -= 1;
    }
    if n - start < 2 {
        return None;
    }
    let mut ops = plan.ops[..start].to_vec();
    let placement = plan.ops[start].placement;
    let parts: Vec<OpSpec> = plan.ops[start..].iter().map(|o| o.spec.clone()).collect();
    ops.push(PlacedOp {
        spec: OpSpec::Fused(parts),
        placement,
    });
    Some(PreprocPlan::new(ops))
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

enum State {
    U8(ImageU8),
    F32(TensorF32),
}

/// Executes a preprocessing plan on a decoded image op by op, producing the
/// DNN input tensor. Placement is ignored here (the runtime engine handles
/// device assignment). This is the semantic reference: the runtime executes
/// [`crate::ops::prefix::CompiledPrefix`] instead, which the property tests
/// hold bit-identical to this function.
pub fn execute_plan(plan: &PreprocPlan, img: &ImageU8, norm: &Normalization) -> Result<TensorF32> {
    let mut state = State::U8(img.clone());
    for op in &plan.ops {
        state = apply_op(&op.spec, state, norm)?;
    }
    match state {
        State::F32(t) => Ok(t),
        State::U8(_) => Err(Error::InvalidPlan(
            "plan did not convert to f32 (missing ConvertF32)".into(),
        )),
    }
}

fn apply_op(spec: &OpSpec, state: State, norm: &Normalization) -> Result<State> {
    match (spec, state) {
        (OpSpec::ResizeShortEdge { short }, State::U8(img)) => Ok(State::U8(
            ops::resize::resize_short_edge_u8(&img, *short as usize)?,
        )),
        (OpSpec::ResizeExact { w, h }, State::U8(img)) => Ok(State::U8(
            ops::resize::resize_bilinear_u8(&img, *w as usize, *h as usize)?,
        )),
        (OpSpec::ResizeExact { w, h }, State::F32(t)) => Ok(State::F32(
            ops::resize::resize_bilinear_f32(&t, *w as usize, *h as usize)?,
        )),
        (OpSpec::CenterCrop { w, h }, State::U8(img)) => Ok(State::U8(ops::crop::center_crop_u8(
            &img,
            *w as usize,
            *h as usize,
        )?)),
        (OpSpec::FusedCropResize { short, w, h }, State::U8(img)) => {
            // Determine the source window whose image under
            // resize-short-edge(short) would be the centered w×h crop.
            let scale = img.short_edge() as f64 / (*short as f64).max(1.0);
            let cw = ((*w as f64) * scale).round() as usize;
            let ch = ((*h as f64) * scale).round() as usize;
            let cw = cw.clamp(1, img.width());
            let ch = ch.clamp(1, img.height());
            let cropped = ops::crop::center_crop_u8(&img, cw, ch)?;
            Ok(State::U8(ops::resize::resize_bilinear_u8(
                &cropped,
                *w as usize,
                *h as usize,
            )?))
        }
        (OpSpec::ConvertF32, State::U8(img)) => Ok(State::F32(ops::layout::to_f32(&img))),
        (OpSpec::Normalize, State::F32(mut t)) => {
            match t.layout() {
                Layout::Hwc => ops::normalize::normalize_hwc(&mut t, norm)?,
                Layout::Chw => ops::normalize::normalize_chw(&mut t, norm)?,
            }
            Ok(State::F32(t))
        }
        (OpSpec::ChannelSplit, State::F32(t)) => Ok(State::F32(ops::layout::hwc_to_chw(&t))),
        (OpSpec::Fused(parts), State::U8(img)) => {
            // Only the canonical convert+normalize+split fusion has a
            // dedicated kernel; other combinations fall back to sequential.
            let canonical = parts.len() == 3
                && matches!(parts[0], OpSpec::ConvertF32)
                && matches!(parts[1], OpSpec::Normalize)
                && matches!(parts[2], OpSpec::ChannelSplit);
            if canonical {
                Ok(State::F32(ops::fused::fused_convert_normalize_split(
                    &img, norm,
                )?))
            } else {
                let mut st = State::U8(img);
                for p in parts {
                    st = apply_op(p, st, norm)?;
                }
                Ok(st)
            }
        }
        (OpSpec::Fused(parts), State::F32(t)) => {
            let mut st = State::F32(t);
            for p in parts {
                st = apply_op(p, st, norm)?;
            }
            Ok(st)
        }
        (spec, State::U8(_)) => Err(Error::InvalidPlan(format!(
            "{} requires f32 input",
            spec.name()
        ))),
        (spec, State::F32(_)) => Err(Error::InvalidPlan(format!(
            "{} requires u8 input",
            spec.name()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic(w: usize, h: usize) -> ImageU8 {
        let mut img = ImageU8::zeros(w, h, 3);
        for y in 0..h {
            for x in 0..w {
                for c in 0..3 {
                    img.set(x, y, c, ((x * 3 + y * 7 + c * 11) % 256) as u8);
                }
            }
        }
        img
    }

    #[test]
    fn standard_plan_executes_to_chw_224() {
        let img = synthetic(320, 256);
        let plan = PreprocPlan::standard(256, 224, 224);
        let out = execute_plan(&plan, &img, &Normalization::IMAGENET).unwrap();
        assert_eq!((out.width(), out.height()), (224, 224));
        assert_eq!(out.layout(), Layout::Chw);
    }

    #[test]
    fn optimizer_produces_cheaper_plan() {
        let plan = PreprocPlan::standard(256, 224, 224);
        let opt = DagOptimizer::default().optimize(&plan, 640, 480);
        let base = plan_cost(&plan, 640, 480);
        let best = plan_cost(&opt, 640, 480);
        assert!(
            best < base,
            "optimized {best} should be cheaper than {base}"
        );
    }

    #[test]
    fn optimizer_applies_crop_first_and_fusion() {
        let plan = PreprocPlan::standard(256, 224, 224);
        let opt = DagOptimizer::default().optimize(&plan, 640, 480);
        assert!(opt
            .ops
            .iter()
            .any(|o| matches!(o.spec, OpSpec::FusedCropResize { .. })));
        assert!(has_fused(&opt));
    }

    #[test]
    fn disabled_optimizer_is_identity() {
        let plan = PreprocPlan::standard(256, 224, 224);
        let opt = DagOptimizer::disabled().optimize(&plan, 640, 480);
        assert_eq!(opt, plan);
    }

    #[test]
    fn optimized_plan_output_close_to_reference() {
        let img = synthetic(320, 256);
        let plan = PreprocPlan::standard(256, 224, 224);
        let reference = execute_plan(&plan, &img, &Normalization::IMAGENET).unwrap();
        let opt_plan = DagOptimizer::default().optimize(&plan, 320, 256);
        let optimized = execute_plan(&opt_plan, &img, &Normalization::IMAGENET).unwrap();
        assert_eq!(
            (optimized.width(), optimized.height()),
            (reference.width(), reference.height())
        );
        // Crop-before-resize changes interpolation slightly; outputs must be
        // close in normalized units.
        let d = optimized.mean_abs_diff(&reference).unwrap();
        assert!(d < 0.15, "mean abs diff too large: {d}");
    }

    #[test]
    fn fusion_only_toggle_keeps_resize_order() {
        let opt = DagOptimizer {
            enable_fusion: true,
            enable_reorder: false,
        };
        let plan = PreprocPlan::standard(256, 224, 224);
        let best = opt.optimize(&plan, 640, 480);
        assert!(best
            .ops
            .iter()
            .any(|o| matches!(o.spec, OpSpec::ResizeShortEdge { .. })));
        assert!(has_fused(&best));
    }

    #[test]
    fn thumbnail_plan_executes() {
        let img = synthetic(161, 161);
        let plan = PreprocPlan::thumbnail(224, 224);
        let out = execute_plan(&plan, &img, &Normalization::IMAGENET).unwrap();
        assert_eq!((out.width(), out.height()), (224, 224));
    }

    #[test]
    fn thumbnail_cheaper_than_full_res_standard() {
        let full = PreprocPlan::standard(256, 224, 224);
        let thumb = PreprocPlan::thumbnail(224, 224);
        let full_cost = plan_cost(&full, 640, 480);
        let thumb_cost = plan_cost(&thumb, 161, 161);
        assert!(thumb_cost < full_cost);
    }

    #[test]
    fn plan_without_convert_errors() {
        let img = synthetic(64, 64);
        let plan = PreprocPlan::new(vec![PlacedOp::cpu(OpSpec::ResizeExact { w: 32, h: 32 })]);
        assert!(execute_plan(&plan, &img, &Normalization::UNIT).is_err());
    }

    #[test]
    fn normalize_before_convert_errors() {
        let img = synthetic(8, 8);
        let plan = PreprocPlan::new(vec![
            PlacedOp::cpu(OpSpec::Normalize),
            PlacedOp::cpu(OpSpec::ConvertF32),
        ]);
        assert!(execute_plan(&plan, &img, &Normalization::UNIT).is_err());
    }

    #[test]
    fn candidate_set_contains_original() {
        let plan = PreprocPlan::standard(256, 224, 224);
        let cands = DagOptimizer::default().candidates(&plan, 640, 480);
        assert!(cands.iter().any(|(p, _)| *p == plan));
        assert!(cands.len() >= 3);
    }

    #[test]
    fn op_costs_sum_to_plan_cost() {
        let plan = PreprocPlan::standard(256, 224, 224);
        let per_op = plan_op_costs(&plan, 640, 480);
        let total: f64 = per_op.iter().map(|c| c.weighted_ops).sum();
        assert!((total - plan_cost(&plan, 640, 480)).abs() < 1e-6);
    }

    #[test]
    fn decode_cost_drops_with_idct_edge_but_keeps_entropy_floor() {
        let full = decode_cost(640, 480, 8, false);
        let half = decode_cost(640, 480, 4, false);
        let eighth = decode_cost(640, 480, 1, false);
        assert!(half < full / 2.0, "half {half} vs full {full}");
        assert!(eighth < half);
        // The model charges the whole entropy stream at every edge: the
        // cost never collapses below that floor.
        let blocks = (640usize.div_ceil(8) * 480usize.div_ceil(8) * 3) as f64;
        assert!(eighth > blocks * 300.0);
    }

    #[test]
    fn subsampled_chroma_cuts_decode_cost() {
        // 4:2:0 halves the entropy symbols (6 blocks per 16x16 instead of
        // 12) and quarters the chroma block count, so full decode and deep
        // reductions are strictly cheaper — but never below half of 4:4:4
        // (entropy is halved exactly; luma and pixel writes are unchanged).
        for edge in [8usize, 2, 1] {
            let full = decode_cost(640, 480, edge, false);
            let sub = decode_cost(640, 480, edge, true);
            assert!(sub < full, "edge {edge}: sub {sub} vs full {full}");
            assert!(sub > full * 0.5, "edge {edge}: sub {sub} vs full {full}");
        }
        // At edge 4 (factor-2 decode) the subsampled chroma blocks must run
        // their IDCT at the full 8-point edge to land on the 8x8 patch, so
        // the transform surcharge roughly cancels the entropy savings: the
        // model pins near-parity there rather than a win.
        let full4 = decode_cost(640, 480, 4, false);
        let sub4 = decode_cost(640, 480, 4, true);
        assert!(
            (sub4 - full4).abs() < full4 * 0.05,
            "sub {sub4} vs full {full4}"
        );
    }

    #[test]
    fn joint_cost_favors_fused_reduced_decode() {
        // Full decode + standard preproc vs reduced decode (exact DNN
        // geometry) + elementwise tail only: the joint cost must prefer
        // the fused plan.
        let standard = PreprocPlan::standard(256, 224, 224);
        let tail = PreprocPlan::new(vec![
            PlacedOp::cpu(OpSpec::ConvertF32),
            PlacedOp::cpu(OpSpec::Normalize),
            PlacedOp::cpu(OpSpec::ChannelSplit),
        ]);
        let joint_full = decode_cost(896, 896, 8, false) + plan_cost(&standard, 896, 896);
        let joint_reduced = decode_cost(896, 896, 2, false) + plan_cost(&tail, 224, 224);
        assert!(
            joint_reduced < joint_full / 2.0,
            "reduced {joint_reduced} vs full {joint_full}"
        );
    }

    #[test]
    fn output_dims_tracks_geometry() {
        let plan = PreprocPlan::standard(256, 224, 224);
        assert_eq!(plan.output_dims(640, 480), (224, 224));
        let thumb = PreprocPlan::thumbnail(224, 224);
        assert_eq!(thumb.output_dims(161, 161), (224, 224));
    }
}
