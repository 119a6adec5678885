//! Query-plan representation: a plan is a DNN choice × an input format ×
//! a preprocessing pipeline × decode options (§3.1: "a plan (concretely,
//! a DNN and an input format)").

use crate::placement::PlacementEstimate;
use smol_accel::ModelKind;
use smol_codec::Format;
use smol_imgproc::dag::{OpSpec, Placement};
use smol_imgproc::PreprocPlan;

/// Which frames of a GOP-structured video item the decoder materializes
/// (§6.4 applied to video: the decode work a plan performs is a planner
/// decision, not a fixed cost).
///
/// The selection changes *both* the decode cost and the number of tensors
/// an item contributes to the device, so it is part of
/// [`PlacementSignature`] — a keyframe-only query and a full-GOP query
/// must never share a device batch (their per-item fan-out differs, which
/// would make batch-drain accounting depend on the other query's GOP
/// structure).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameSelection {
    /// Decode and infer every frame of the GOP.
    All,
    /// Decode only I-frames (the GOP's random-access points). This skips
    /// the motion-compensated P-frame path *entirely* — no motion vectors,
    /// no residual IDCT, no reference chain — which is the big video
    /// analogue of reduced-resolution decoding.
    Keyframes,
    /// Infer every `n`-th frame of the GOP (positions `0, n, 2n, …`).
    /// P-frames between selected positions must still be decoded to keep
    /// the reference chain intact, so this thins *inference and output*
    /// work but not decode work past the last selected frame.
    Stride(usize),
}

impl FrameSelection {
    /// Whether the frame at `pos` within its GOP is selected for output.
    pub fn selects(&self, pos: usize) -> bool {
        match *self {
            FrameSelection::All => true,
            FrameSelection::Keyframes => pos == 0,
            FrameSelection::Stride(n) => pos.is_multiple_of(n.max(1)),
        }
    }

    /// How many of a GOP's `len` frames this selection outputs.
    pub fn count(&self, len: usize) -> usize {
        match *self {
            FrameSelection::All => len,
            FrameSelection::Keyframes => len.min(1),
            FrameSelection::Stride(n) => len.div_ceil(n.max(1)),
        }
    }

    /// Index of the last frame that must be *decoded* (not necessarily
    /// output) in a GOP of `len` frames; decode may stop after it.
    pub fn last_decoded(&self, len: usize) -> usize {
        match *self {
            FrameSelection::All => len.saturating_sub(1),
            FrameSelection::Keyframes => 0,
            FrameSelection::Stride(n) => {
                let n = n.max(1);
                if len == 0 {
                    0
                } else {
                    ((len - 1) / n) * n
                }
            }
        }
    }
}

/// How much of each image the decoder touches (§6.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecodeMode {
    /// Decode everything.
    Full,
    /// Decode only the macroblock-aligned central crop the DNN consumes
    /// (ROI decoding; Algorithm 1).
    CentralRoi { crop_w: usize, crop_h: usize },
    /// Decode directly to `1/factor` resolution via a scaled IDCT
    /// (multi-resolution decoding, Table 4): the downsample is fused into
    /// the decoder, so the plan's resize can shrink or disappear entirely
    /// (see [`crate::rewrite::rewrite_preproc_for_decode`]). `factor` must
    /// be 2, 4, or 8.
    ReducedResolution { factor: u8 },
    /// GOP-structured video decoding: which frames to materialize and
    /// whether to run the in-loop deblocking filter. `deblock: false` is
    /// the reduced-fidelity fast path (H.264/HEVC expose exactly this
    /// knob): genuinely cheaper per frame, genuinely drift-inducing on
    /// P-frames, and therefore accuracy-discounted through calibration
    /// exactly like `ReducedResolution` (see
    /// [`CandidateSpec::video`](crate::planner::CandidateSpec)).
    Video {
        selection: FrameSelection,
        deblock: bool,
    },
}

impl DecodeMode {
    /// Validated constructor for [`DecodeMode::ReducedResolution`]: the
    /// scaled-IDCT bases exist only for factors 2, 4, and 8 (§6.4), so any
    /// other factor is a typed
    /// [`PlanError::InvalidDecodeFactor`](crate::constraints::PlanError::InvalidDecodeFactor)
    /// instead of a doc-comment contract the decoder discovers at runtime.
    pub fn reduced(factor: u8) -> Result<DecodeMode, crate::constraints::PlanError> {
        match factor {
            2 | 4 | 8 => Ok(DecodeMode::ReducedResolution { factor }),
            _ => Err(crate::constraints::PlanError::InvalidDecodeFactor { factor }),
        }
    }

    /// Dimensions the planner prices decoding and preprocessing at for a
    /// `w × h` source. Every mode but `CentralRoi` decodes exactly this
    /// geometry. A central-ROI decode returns the codec's region for the
    /// crop (`smol_codec::roi_region`: for sjpg the crop's MCU-aligned
    /// cover, up to one MCU larger per edge), while this is the crop itself.
    pub fn decoded_dims(&self, w: usize, h: usize) -> (usize, usize) {
        match *self {
            DecodeMode::Full => (w, h),
            DecodeMode::CentralRoi { crop_w, crop_h } => (crop_w.clamp(1, w), crop_h.clamp(1, h)),
            DecodeMode::ReducedResolution { factor } => {
                let f = (factor as usize).max(1);
                (w.div_ceil(f), h.div_ceil(f))
            }
            // Video decoding emits full frames; the selection thins which
            // frames exist, not their geometry.
            DecodeMode::Video { .. } => (w, h),
        }
    }

    /// The frame selection of a video decode mode (`None` for image
    /// modes, which decode exactly one output per item).
    pub fn frame_selection(&self) -> Option<FrameSelection> {
        match *self {
            DecodeMode::Video { selection, .. } => Some(selection),
            _ => None,
        }
    }
}

/// A natively-available input variant (an element of the paper's F).
#[derive(Debug, Clone, PartialEq)]
pub struct InputVariant {
    /// Human-readable label ("full-res sjpg(q=95)", "161 spng", …).
    pub name: String,
    pub format: Format,
    /// Stored dimensions of this variant.
    pub width: usize,
    pub height: usize,
    /// True when this is a natively-present low-resolution variant (§5.2).
    pub is_thumbnail: bool,
    /// GOP length for video variants (frames per group-of-pictures); `0`
    /// for still images. The planner uses it to amortize the I-frame
    /// decode cost over a GOP's outputs when costing [`FrameSelection`]s.
    pub gop_len: usize,
}

impl InputVariant {
    pub fn new(name: impl Into<String>, format: Format, width: usize, height: usize) -> Self {
        InputVariant {
            name: name.into(),
            format,
            width,
            height,
            is_thumbnail: false,
            gop_len: 0,
        }
    }

    pub fn thumbnail(mut self) -> Self {
        self.is_thumbnail = true;
        self
    }

    /// Marks this variant as GOP-structured video with `gop_len` frames
    /// per GOP (items are GOPs; outputs are frames).
    pub fn video(mut self, gop_len: usize) -> Self {
        self.gop_len = gop_len.max(1);
        self
    }

    /// True when this variant stores GOP-structured video.
    pub fn is_video(&self) -> bool {
        self.gop_len > 0
    }

    pub fn pixels(&self) -> usize {
        self.width * self.height
    }
}

/// A fully-specified executable plan.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    pub dnn: ModelKind,
    pub input: InputVariant,
    pub preproc: PreprocPlan,
    pub decode: DecodeMode,
    pub batch: usize,
}

impl QueryPlan {
    /// Short label for reports: "ResNet-50 @ 161 spng".
    pub fn label(&self) -> String {
        format!("{} @ {}", self.dnn.spec().name, self.input.name)
    }

    /// The device-facing identity of this plan: everything that must agree
    /// before items from two different queries may share one device batch.
    ///
    /// CPU-side differences (input format, decode mode, geometric prefix)
    /// are deliberately *excluded* — producers resolve those per item
    /// before the device ever sees the tensor. What must match is the
    /// output tensor geometry, the accelerator-placed operator suffix, the
    /// DNN, and the batch size the plan was costed at.
    pub fn placement_signature(&self) -> PlacementSignature {
        let (out_w, out_h) = self
            .preproc
            .output_dims(self.input.width, self.input.height);
        PlacementSignature {
            dnn: self.dnn,
            batch: self.batch.max(1),
            out_w,
            out_h,
            frame_selection: self.decode.frame_selection(),
            accel_ops: self
                .preproc
                .ops
                .iter()
                .filter(|o| o.placement == Placement::Accel)
                .map(|o| o.spec.clone())
                .collect(),
        }
    }
}

/// Hashable device-batch compatibility key of a [`QueryPlan`]; see
/// [`QueryPlan::placement_signature`]. Queries whose signatures are equal
/// may be batched together on the accelerator (the `smol_serve` scheduler
/// does exactly that); unequal signatures must never share a batch.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlacementSignature {
    pub dnn: ModelKind,
    /// Device batch size; cross-query batches are formed up to this bound.
    pub batch: usize,
    /// Output tensor geometry (`out_w × out_h × 3`).
    pub out_w: usize,
    pub out_h: usize,
    /// Video frame selection (`None` for image plans). Selection stays in
    /// the signature — unlike the image decode modes, which are CPU-side
    /// details — because it changes how many tensors one *item* fans out
    /// into mid-flight: a full-GOP item still mid-production may
    /// contribute up to `gop` more tensors while a keyframe item
    /// contributes exactly one, so mixing them would make partial-batch
    /// drain timing depend on the other query's GOP structure. The
    /// `deblock` knob, by contrast, is a pure CPU-side fidelity choice and
    /// is deliberately excluded (deblock-on and deblock-off plans of the
    /// same selection co-batch).
    pub frame_selection: Option<FrameSelection>,
    /// Accelerator-placed operator suffix (empty for all-CPU plans).
    pub accel_ops: Vec<OpSpec>,
}

/// An input-adaptive two-rung routing plan (ROADMAP item 3; Tahoma-style
/// cascades crossed with bitstream-derived difficulty routing).
///
/// The carrying [`QueryPlan`] *is* the full rung: a cascade candidate's
/// `plan` field stays a complete, uniform fallback plan, so every
/// consumer that ignores cascades (degradation ladders, lesioned
/// planners, report labels) still sees a valid plan. `stage1` is the
/// aggressive rung easy items take — same input variant, same output
/// geometry (its [`PlacementSignature`] differs only in the DNN), but a
/// cheaper decode mode and a smaller model. Per item, a difficulty score
/// computed from the encoded bitstream (`smol_codec::signal`) decides
/// the rung *before any decode happens*: scores above `threshold`
/// escalate straight to the full rung, so an escalated item's result is
/// bit-identical to the uniform full plan's by construction.
#[derive(Debug, Clone)]
pub struct CascadePlan {
    /// The aggressive rung (reduced decode + small DNN). Must share the
    /// carrying plan's input variant and output geometry.
    pub stage1: QueryPlan,
    /// Difficulty-score threshold in coded bits per block (the units of
    /// `smol_codec::DifficultySignal::score`), calibrated on the score's
    /// empirical quantiles: items scoring strictly above it escalate to
    /// the full rung, as do items whose bitstream yields no signal at all.
    pub threshold: f64,
    /// Calibrated fraction of items expected to escalate (drives the
    /// `stage1 + rate × stage2` cost estimate and accuracy accounting).
    pub escalation_rate: f64,
}

/// A plan candidate with its resource estimates (the planner's unit of
/// comparison and the Pareto frontier's element type).
#[derive(Debug, Clone)]
pub struct PlanCandidate {
    pub plan: QueryPlan,
    /// Estimated (or measured) preprocessing throughput, im/s.
    pub preproc_throughput: f64,
    /// Estimated DNN-execution throughput, im/s (cascade-adjusted).
    pub exec_throughput: f64,
    /// End-to-end estimate under the active cost model.
    pub est_throughput: f64,
    /// Estimated accuracy in [0, 1] (from the calibration set).
    pub accuracy: f64,
    /// Input-adaptive routing attached to this candidate: `plan` is the
    /// full rung and `cascade.stage1` the easy-item rung. `None` for
    /// uniform plans.
    pub cascade: Option<CascadePlan>,
    /// The §6.3 split `plan.preproc` carries and both sides' estimated
    /// throughput under it, on the *wall* clock (the three estimates above
    /// keep the planner's historical clocks: measured preprocessing against
    /// simulated-time execution, all-CPU). `None` when placement was not
    /// evaluated — the "-Placement" lesion, hand-built candidates, or a
    /// profile that measured nothing.
    pub placement: Option<PlacementEstimate>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_variant_labels() {
        let v = InputVariant::new("full", Format::Spng, 320, 240);
        assert!(!v.is_thumbnail);
        assert_eq!(v.pixels(), 320 * 240);
        let t = InputVariant::new("thumb", Format::sjpg(75), 161, 161).thumbnail();
        assert!(t.is_thumbnail);
    }

    #[test]
    fn reduced_constructor_validates_factor() {
        for f in [2u8, 4, 8] {
            assert_eq!(
                DecodeMode::reduced(f).unwrap(),
                DecodeMode::ReducedResolution { factor: f }
            );
        }
        for f in [0u8, 1, 3, 5, 16] {
            assert_eq!(
                DecodeMode::reduced(f).unwrap_err(),
                crate::constraints::PlanError::InvalidDecodeFactor { factor: f }
            );
        }
    }

    #[test]
    fn plan_label_readable() {
        let plan = QueryPlan {
            dnn: ModelKind::ResNet50,
            input: InputVariant::new("161 spng", Format::Spng, 161, 161).thumbnail(),
            preproc: PreprocPlan::thumbnail(224, 224),
            decode: DecodeMode::Full,
            batch: 64,
        };
        assert_eq!(plan.label(), "ResNet-50 @ 161 spng");
    }

    fn sig_plan(dnn: ModelKind, short: u32, crop: u32, batch: usize) -> QueryPlan {
        QueryPlan {
            dnn,
            input: InputVariant::new("full", Format::sjpg(95), 640, 480),
            preproc: PreprocPlan::standard(short, crop, crop),
            decode: DecodeMode::Full,
            batch,
        }
    }

    #[test]
    fn signatures_ignore_cpu_side_differences() {
        // Same DNN, output geometry, batch — but different input variants
        // and decode modes: these may share a device batch.
        let a = sig_plan(ModelKind::ResNet50, 256, 224, 64);
        let mut b = QueryPlan {
            input: InputVariant::new("thumb", Format::Spng, 300, 300).thumbnail(),
            preproc: PreprocPlan::thumbnail(224, 224),
            ..a.clone()
        };
        b.decode = DecodeMode::ReducedResolution { factor: 2 };
        assert_eq!(a.placement_signature(), b.placement_signature());
    }

    #[test]
    fn signatures_differ_on_device_side_state() {
        let base = sig_plan(ModelKind::ResNet50, 256, 224, 64);
        let sig = base.placement_signature();
        assert_eq!(sig.out_w, 224);

        let other_dnn = sig_plan(ModelKind::ResNet18, 256, 224, 64);
        assert_ne!(sig, other_dnn.placement_signature());

        let other_batch = sig_plan(ModelKind::ResNet50, 256, 224, 32);
        assert_ne!(sig, other_batch.placement_signature());

        let other_geometry = sig_plan(ModelKind::ResNet50, 256, 192, 64);
        assert_ne!(sig, other_geometry.placement_signature());
    }

    #[test]
    fn frame_selection_math() {
        assert_eq!(FrameSelection::All.count(12), 12);
        assert_eq!(FrameSelection::Keyframes.count(12), 1);
        assert_eq!(FrameSelection::Keyframes.count(0), 0);
        assert_eq!(FrameSelection::Stride(4).count(12), 3);
        assert_eq!(FrameSelection::Stride(5).count(12), 3); // 0, 5, 10
        assert_eq!(FrameSelection::Stride(0).count(7), 7, "stride 0 = every");
        assert_eq!(FrameSelection::All.last_decoded(12), 11);
        assert_eq!(FrameSelection::Keyframes.last_decoded(12), 0);
        assert_eq!(FrameSelection::Stride(5).last_decoded(12), 10);
        assert!(FrameSelection::Stride(3).selects(6));
        assert!(!FrameSelection::Stride(3).selects(7));
        assert!(FrameSelection::Keyframes.selects(0));
        assert!(!FrameSelection::Keyframes.selects(1));
    }

    #[test]
    fn video_mode_keeps_frame_geometry() {
        let mode = DecodeMode::Video {
            selection: FrameSelection::Keyframes,
            deblock: false,
        };
        assert_eq!(mode.decoded_dims(320, 240), (320, 240));
        assert_eq!(mode.frame_selection(), Some(FrameSelection::Keyframes));
        assert_eq!(DecodeMode::Full.frame_selection(), None);
    }

    #[test]
    fn signatures_split_on_frame_selection_but_not_deblock() {
        let base = sig_plan(ModelKind::ResNet50, 256, 224, 64);
        let video = |selection, deblock| {
            let mut p = base.clone();
            p.input = p.input.video(8);
            p.decode = DecodeMode::Video { selection, deblock };
            p
        };
        let keyframes = video(FrameSelection::Keyframes, true);
        let full_gop = video(FrameSelection::All, true);
        // Image plans never batch with video plans, and keyframe-only
        // never batches with full-GOP (per-item fan-out differs).
        assert_ne!(base.placement_signature(), keyframes.placement_signature());
        assert_ne!(
            keyframes.placement_signature(),
            full_gop.placement_signature()
        );
        // The deblock knob is CPU-side fidelity only: it must co-batch.
        let no_deblock = video(FrameSelection::Keyframes, false);
        assert_eq!(
            keyframes.placement_signature(),
            no_deblock.placement_signature()
        );
    }

    #[test]
    fn signatures_differ_on_accel_placement() {
        let cpu = sig_plan(ModelKind::ResNet50, 256, 224, 64);
        let mut accel = cpu.clone();
        for op in accel.preproc.ops.iter_mut() {
            if op.spec.is_elementwise() {
                op.placement = Placement::Accel;
            }
        }
        assert_ne!(cpu.placement_signature(), accel.placement_signature());
        assert!(!accel.placement_signature().accel_ops.is_empty());
    }
}
