//! Decode-aware plan rewriting (§6.4 meets §6.2): once a plan's decode
//! mode changes the geometry the decoder emits, the preprocessing DAG's
//! geometric prefix is stale — a reduced-resolution decode has already
//! done some (or all) of the resizing. This pass rewrites the declarative
//! preprocessing pipeline against the decode mode so that
//!
//! * a decode that lands **exactly** on the DNN input geometry elides the
//!   resize/crop prefix entirely (the paper's signature plan: decode
//!   small, skip resize, feed the accelerator);
//! * any other partial decode replaces the prefix with a single direct
//!   resize from the decoded geometry to the plan's output geometry
//!   (a *shrunk* resize: it reads the decoder's smaller output instead of
//!   the full frame).
//!
//! Outside reduced-resolution decoding, plan-time geometry is nominal: ROI
//! decodes emit block-aligned regions, and the items of a
//! `Full` / `Video` plan need not all have the variant's declared size. The
//! executed plan therefore always keeps the resize of those modes. When an
//! item actually decodes to the output geometry, the runtime's compiled
//! prefix (`smol_imgproc::ops::prefix`) recognizes the identity on the
//! decoded image and runs no geometric work; an item of any other size is
//! still resized and served. (The reduced-resolution elision does take the
//! declared size at its word: an item whose scaled decode misses the output
//! geometry is a typed shape error at run time.)
//!
//! The pass is shared by the runtime (which executes the rewritten plan)
//! and the planner, which costs [`costed_preproc_for_decode`] — the
//! executed plan minus a resize that is a no-op at the declared geometry
//! (§5.2; Tahoma assumes a representation stored at the DNN input size
//! costs nothing to feed) — jointly with [`decode_cost`], the one price of
//! a decode mode, so the Pareto frontier compares decode+preprocess
//! totals, not preprocessing in isolation.

use crate::plan::{DecodeMode, InputVariant};
use smol_imgproc::dag::{self, OpSpec, PlacedOp, PreprocPlan};

/// IDCT edge (points per axis per 8×8 block) a decode mode implies; the
/// `idct_edge` argument of [`smol_imgproc::dag::decode_cost`].
fn idct_edge(mode: DecodeMode) -> usize {
    match mode {
        DecodeMode::Full
        | DecodeMode::CentralRoi { .. }
        // Video I-frames and residuals run the full 8-point transform.
        | DecodeMode::Video { .. } => 8,
        DecodeMode::ReducedResolution { factor } => 8 / (factor as usize).clamp(1, 8),
    }
}

/// Decode cost of a motion-compensated P-frame relative to an intra
/// (sjpg-anatomy) frame of the same geometry. A P-frame replaces the
/// dense entropy+IDCT pass with one frame copy (the skipped macroblocks),
/// row copies for the motion-compensated ones and sparse residual blocks —
/// much cheaper than an I-frame, far from free. Measured on the
/// `smol_video` fast path over the taipei serving corpus (128×72, q 80,
/// `microbench` `video_decode/{keyframe, pframe_fast}`): 10.8–13.7 µs per
/// P-frame against 62.6–79.5 µs per keyframe, 0.169–0.173 in each of four
/// runs (the seed decoder read 0.39). The `figure_video` CI gate checks the
/// resulting plan ranking against wall-clock reality.
pub const P_FRAME_COST_RATIO: f64 = 0.17;

/// Cost of one in-loop deblocking pass relative to an intra decode of the
/// same frame: two directional sweeps over the 8-px block grid touch
/// roughly a quarter of the samples with a few ops each. Same corpus and
/// runs as [`P_FRAME_COST_RATIO`] (`video_decode/deblock_fast`): 5.5–7.2 µs
/// per frame, 0.089–0.091 of a keyframe (the seed filter read 0.20–0.27).
pub const DEBLOCK_COST_RATIO: f64 = 0.09;

/// What decoding one item costs the CPU under a decode mode
/// ([`decode_cost`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeCost {
    /// Weighted ops to decode one item: a still, or a whole GOP.
    pub ops: f64,
    /// Source frames the item covers: 1 for a still, the GOP length for
    /// video.
    pub frames: usize,
    /// Frames the item hands to preprocessing and the DNN: 1 for a still,
    /// the frames a video mode's selection outputs.
    pub outputs: usize,
}

/// The planner's one decode price (§6.4): the weighted-op cost of decoding
/// one item of `input` under `mode`, charging only the work the decoder
/// actually does, on [`smol_imgproc::dag::decode_cost`]'s scale with the
/// variant's chroma storage (4:2:0 halves the entropy work every mode
/// pays):
///
/// * `Full` / `ReducedResolution` read the whole frame (the latter at a
///   reduced IDCT edge);
/// * `CentralRoi` skips rows outside the crop via the MCU-row index and
///   stops each row after the crop's last column; blocks left of the crop
///   skip the IDCT and, on a stream with a seek table (sjpg v4), read
///   only their DC and low band (≈ ⅙ of a q95 block's symbols). The charge
///   is still half the left margin at full block cost, so it now
///   overcharges the margin: what it costs the decoder is that low-band
///   entropy alone (ROADMAP item 2 prices it from the decoder's counters);
/// * `Video` prices one GOP of `input.gop_len` frames: the I-frame pays a
///   full intra decode, P-frames up to the last *selected* frame pay
///   [`P_FRAME_COST_RATIO`] each — frames past it are never touched
///   (keyframe-only decode therefore skips motion compensation entirely)
///   — and the in-loop filter, when enabled, runs on every decoded frame
///   (it feeds the reference chain, so it cannot be skipped selectively).
pub fn decode_cost(input: &InputVariant, mode: DecodeMode) -> DecodeCost {
    let (w, h) = (input.width, input.height);
    let subsampled = input.format.is_chroma_subsampled();
    let still = |ops| DecodeCost {
        ops,
        frames: 1,
        outputs: 1,
    };
    match mode {
        DecodeMode::Full | DecodeMode::ReducedResolution { .. } => {
            still(dag::decode_cost(w, h, idct_edge(mode), subsampled))
        }
        DecodeMode::CentralRoi { .. } => {
            let (dec_w, dec_h) = mode.decoded_dims(w, h);
            let cols = (dec_w + (w - dec_w) / 2).min(w);
            still(dag::decode_cost(cols, dec_h, 8, subsampled))
        }
        DecodeMode::Video { selection, deblock } => {
            let g = input.gop_len.max(1);
            let intra = dag::decode_cost(w, h, 8, subsampled);
            let decoded = (selection.last_decoded(g) + 1).min(g) as f64;
            let mut ops = intra + (decoded - 1.0) * intra * P_FRAME_COST_RATIO;
            if deblock {
                ops += decoded * intra * DEBLOCK_COST_RATIO;
            }
            DecodeCost {
                ops,
                frames: g,
                outputs: selection.count(g).max(1),
            }
        }
    }
}

/// Rewrites a declarative preprocessing pipeline (authored against the
/// full-resolution input) for execution after `mode` decoded a `w × h`
/// source. The output geometry of the rewritten plan on the *decoded*
/// image always equals the original plan's output on the full image.
pub fn rewrite_preproc_for_decode(
    preproc: &PreprocPlan,
    mode: DecodeMode,
    w: usize,
    h: usize,
) -> PreprocPlan {
    // Video decoding emits full-geometry frames (the selection thins
    // which frames exist, not their shape), so like `Full` the authored
    // pipeline is already correct.
    if matches!(mode, DecodeMode::Full | DecodeMode::Video { .. }) {
        return preproc.clone();
    }
    let (out_w, out_h) = preproc.output_dims(w, h);
    let (dec_w, dec_h) = mode.decoded_dims(w, h);
    let tail: Vec<PlacedOp> = preproc
        .ops
        .iter()
        .filter(|o| o.spec.is_elementwise() || matches!(o.spec, OpSpec::Fused(_)))
        .cloned()
        .collect();
    // The elide applies only to reduced-resolution decoding: its geometry
    // is exact, whereas ROI decodes emit block-aligned regions
    // whose dims are only nominal here (see the module docs).
    if matches!(mode, DecodeMode::ReducedResolution { .. }) && (dec_w, dec_h) == (out_w, out_h) {
        // Decode geometry already meets the DNN input: the resize is
        // elided — only the elementwise tail remains.
        return PreprocPlan::new(tail);
    }
    // Shrunk resize: one direct resize from the decoded geometry to the
    // output geometry replaces the geometric prefix.
    let mut ops: Vec<PlacedOp> = vec![PlacedOp::cpu(OpSpec::ResizeExact {
        w: out_w as u32,
        h: out_h as u32,
    })];
    ops.extend(tail);
    PreprocPlan::new(ops)
}

/// The plan the planner *costs* for `mode` on a `w × h` variant:
/// [`rewrite_preproc_for_decode`] minus a leading `ResizeExact` to the dims a
/// `Full` / `Video` decode of the declared geometry emits. The runtime's
/// compiled prefix runs no geometric work for such an item, so the estimate
/// must not charge for any. ROI plans keep theirs: the block-aligned
/// region is known only on the decoded image.
pub fn costed_preproc_for_decode(
    preproc: &PreprocPlan,
    mode: DecodeMode,
    w: usize,
    h: usize,
) -> PreprocPlan {
    let mut costed = rewrite_preproc_for_decode(preproc, mode, w, h);
    let noop = OpSpec::ResizeExact {
        w: w as u32,
        h: h as u32,
    };
    if matches!(mode, DecodeMode::Full | DecodeMode::Video { .. })
        && costed.ops.first().is_some_and(|op| op.spec == noop)
    {
        costed.ops.remove(0);
    }
    costed
}

#[cfg(test)]
mod tests {
    use super::*;
    use smol_codec::Format;
    use smol_imgproc::dag::plan_cost;

    #[test]
    fn full_mode_is_identity() {
        let plan = PreprocPlan::standard(256, 224, 224);
        let rewritten = rewrite_preproc_for_decode(&plan, DecodeMode::Full, 640, 480);
        assert_eq!(rewritten, plan);
    }

    #[test]
    fn exact_reduced_decode_elides_resize() {
        let plan = PreprocPlan::standard(256, 224, 224);
        // 896 / 4 = 224 — the decode lands exactly on the DNN input.
        let mode = DecodeMode::ReducedResolution { factor: 4 };
        let rewritten = rewrite_preproc_for_decode(&plan, mode, 896, 896);
        assert!(
            rewritten.ops.iter().all(|o| o.spec.is_elementwise()),
            "geometric ops must be elided: {rewritten:?}"
        );
        assert_eq!(rewritten.output_dims(224, 224), (224, 224));
    }

    #[test]
    fn thumbnail_at_the_dnn_input_is_costed_tail_only() {
        // A stored representation already at the DNN input size: the
        // authored upscale is a no-op under a full decode, and an exact
        // reduced decode (448 / 2) lands on it too.
        let plan = PreprocPlan::thumbnail(224, 224);
        let full = costed_preproc_for_decode(&plan, DecodeMode::Full, 224, 224);
        let reduced =
            costed_preproc_for_decode(&plan, DecodeMode::ReducedResolution { factor: 2 }, 448, 448);
        for costed in [full, reduced] {
            assert_eq!(costed.ops.len(), 3, "{costed:?}");
            assert!(costed.ops.iter().all(|o| o.spec.is_elementwise()));
            assert_eq!(costed.output_dims(224, 224), (224, 224));
            assert!(plan_cost(&costed, 224, 224) < plan_cost(&plan, 224, 224));
        }
        // Any other stored size is charged for the upscale.
        assert_eq!(
            costed_preproc_for_decode(&plan, DecodeMode::Full, 161, 161),
            plan
        );
        // The *executed* plan keeps the resize under a full decode — the
        // declared size is nominal, and an off-size item must still be
        // resized — while the reduced decode's scale factor is exact.
        assert_eq!(
            rewrite_preproc_for_decode(&plan, DecodeMode::Full, 224, 224),
            plan
        );
    }

    #[test]
    fn roi_keeps_its_resize_even_at_nominal_identity() {
        // The ROI's decoded dims are nominal (block alignment is only known
        // on the decoded image), so the resize stays in the plan even when
        // they equal the output; the compiled prefix elides it per item.
        let plan = PreprocPlan::thumbnail(224, 224);
        let mode = DecodeMode::CentralRoi {
            crop_w: 224,
            crop_h: 224,
        };
        assert_eq!(mode.decoded_dims(320, 240), (224, 224));
        for rewritten in [
            rewrite_preproc_for_decode(&plan, mode, 320, 240),
            costed_preproc_for_decode(&plan, mode, 320, 240),
        ] {
            assert!(matches!(
                rewritten.ops[0].spec,
                OpSpec::ResizeExact { w: 224, h: 224 }
            ));
        }
    }

    #[test]
    fn inexact_reduced_decode_shrinks_resize() {
        let plan = PreprocPlan::standard(256, 224, 224);
        let mode = DecodeMode::ReducedResolution { factor: 2 };
        let rewritten = rewrite_preproc_for_decode(&plan, mode, 960, 720);
        assert!(matches!(
            rewritten.ops[0].spec,
            OpSpec::ResizeExact { w: 224, h: 224 }
        ));
        // The shrunk pipeline (operating on the 480×360 decode) must be
        // cheaper than the original on the full frame.
        assert!(plan_cost(&rewritten, 480, 360) < plan_cost(&plan, 960, 720));
    }

    #[test]
    fn roi_gets_direct_resize() {
        let plan = PreprocPlan::standard(256, 224, 224);
        let mode = DecodeMode::CentralRoi {
            crop_w: 300,
            crop_h: 300,
        };
        let rewritten = rewrite_preproc_for_decode(&plan, mode, 640, 480);
        assert!(matches!(
            rewritten.ops[0].spec,
            OpSpec::ResizeExact { w: 224, h: 224 }
        ));
    }

    #[test]
    fn rewrite_preserves_fused_tail_and_placement() {
        use smol_imgproc::dag::DagOptimizer;
        let plan =
            DagOptimizer::default().optimize(&PreprocPlan::standard(256, 224, 224), 896, 896);
        let mode = DecodeMode::ReducedResolution { factor: 4 };
        let rewritten = rewrite_preproc_for_decode(&plan, mode, 896, 896);
        assert!(rewritten
            .ops
            .iter()
            .any(|o| matches!(o.spec, OpSpec::Fused(_))));
    }

    fn still(format: Format) -> InputVariant {
        InputVariant::new("still", format, 896, 896)
    }

    #[test]
    fn decode_cost_honors_skipped_work_per_mode() {
        let input = still(Format::sjpg(95));
        let full = decode_cost(&input, DecodeMode::Full).ops;
        let roi = decode_cost(
            &input,
            DecodeMode::CentralRoi {
                crop_w: 784,
                crop_h: 784,
            },
        )
        .ops;
        let reduced = decode_cost(&input, DecodeMode::ReducedResolution { factor: 4 }).ops;
        // ROI decodes really skip rows/columns: their cost must sit
        // strictly below the full-frame decode.
        assert!(roi < full, "roi {roi} vs full {full}");
        // Reduced resolution reads every block (entropy floor) but skips
        // almost all transform work.
        assert!(reduced < full / 2.0, "reduced {reduced} vs full {full}");
        // A still is one frame and one output in every still mode.
        let price = decode_cost(&input, DecodeMode::Full);
        assert_eq!((price.frames, price.outputs), (1, 1));
    }

    #[test]
    fn subsampled_storage_cuts_full_and_roi_decode_cost() {
        let modes = [
            DecodeMode::Full,
            DecodeMode::CentralRoi {
                crop_w: 784,
                crop_h: 784,
            },
        ];
        for mode in modes {
            let full = decode_cost(&still(Format::sjpg(95)), mode).ops;
            let sub = decode_cost(&still(Format::sjpg420(95)), mode).ops;
            assert!(sub < full, "{mode:?}: sub {sub} vs full {full}");
        }
    }

    #[test]
    fn video_mode_rewrite_is_identity() {
        use crate::plan::FrameSelection;
        let plan = PreprocPlan::standard(256, 224, 224);
        let mode = DecodeMode::Video {
            selection: FrameSelection::Keyframes,
            deblock: false,
        };
        assert_eq!(rewrite_preproc_for_decode(&plan, mode, 640, 480), plan);
    }

    #[test]
    fn gop_cost_orders_the_video_decode_plans() {
        use crate::plan::FrameSelection;
        let input = InputVariant::new("v", Format::Svid { quality: 80 }, 320, 240).video(12);
        let gop =
            |selection, deblock| decode_cost(&input, DecodeMode::Video { selection, deblock });
        let full = gop(FrameSelection::All, true).ops;
        let full_no_filter = gop(FrameSelection::All, false).ops;
        let keys = gop(FrameSelection::Keyframes, true).ops;
        let keys_fast = gop(FrameSelection::Keyframes, false).ops;
        let stride = gop(FrameSelection::Stride(4), true).ops;
        // Skipping the filter is cheaper; skipping P-frames much cheaper.
        assert!(full_no_filter < full);
        assert!(keys < full_no_filter);
        assert!(keys_fast < keys);
        // Keyframe-only must skip the whole motion-compensated tail: its
        // GOP cost is a single intra decode, where the full twelve-frame
        // GOP is that plus eleven P-frames and twelve filter passes
        // (1 + 11 × 0.17 + 12 × 0.09 ≈ 3.95 intra decodes).
        assert!(keys_fast * 3.5 < full, "keys {keys_fast} vs full {full}");
        assert!(full < keys_fast * 4.5, "keys {keys_fast} vs full {full}");
        // Striding still decodes the reference chain up to the last
        // selected frame, so it sits between keyframes-only and full.
        assert!(keys < stride && stride < full);
        // A GOP covers its twelve frames and outputs what its selection
        // keeps.
        let counts = |c: DecodeCost| (c.frames, c.outputs);
        assert_eq!(counts(gop(FrameSelection::All, true)), (12, 12));
        assert_eq!(counts(gop(FrameSelection::Keyframes, false)), (12, 1));
        assert_eq!(counts(gop(FrameSelection::Stride(4), true)), (12, 3));
    }

    #[test]
    fn idct_edge_per_mode() {
        assert_eq!(idct_edge(DecodeMode::Full), 8);
        assert_eq!(idct_edge(DecodeMode::ReducedResolution { factor: 2 }), 4);
        assert_eq!(idct_edge(DecodeMode::ReducedResolution { factor: 8 }), 1);
    }

    #[test]
    fn decoded_dims_per_mode() {
        assert_eq!(DecodeMode::Full.decoded_dims(640, 480), (640, 480));
        assert_eq!(
            DecodeMode::ReducedResolution { factor: 4 }.decoded_dims(642, 480),
            (161, 120)
        );
        assert_eq!(
            DecodeMode::CentralRoi {
                crop_w: 300,
                crop_h: 700
            }
            .decoded_dims(640, 480),
            (300, 480)
        );
    }
}
