//! Plan generation and selection (§3.1): enumerate D × F, estimate costs
//! with the active cost model, and hand back the Pareto frontier or a
//! constraint-satisfying plan.

use crate::constraints::{Constraint, PlanError};
use crate::costmodel::{
    estimate_throughput, storage_adjusted_preproc, CascadeStage, CostModelKind, StorageProfile,
};
use crate::pareto;
use crate::placement::{choose_placement, PlacementEstimate, PlacementRates};
use crate::plan::{
    CascadePlan, DecodeMode, FrameSelection, InputVariant, PlanCandidate, QueryPlan,
};
use crate::rewrite::{costed_preproc_for_decode, decode_cost, DecodeCost};
use smol_accel::{throughput, ExecutionEnv, GpuModel, ModelKind};
use smol_imgproc::dag::plan_cost;
use smol_imgproc::{DagOptimizer, PreprocPlan};

/// One (DNN, input format) combination with its profiled resources — the
/// planner's raw input. Accuracy comes from the calibration set (§3.1) and
/// `preproc_throughput` from profiling the decode+preprocess path.
#[derive(Debug, Clone)]
pub struct CandidateSpec {
    pub dnn: ModelKind,
    pub input: InputVariant,
    pub accuracy: f64,
    pub preproc_throughput: f64,
    /// Calibrated accuracy when the input is decoded at reduced resolution
    /// (§6.4's fidelity/throughput trade). `None` means the DNN is
    /// low-res tolerant (e.g. trained with downsampling augmentation) and
    /// the full-decode accuracy carries over.
    pub reduced_accuracy: Option<f64>,
    /// When this candidate is a cascade (Tahoma-style), the stage list
    /// replaces the single-DNN execution estimate.
    pub cascade: Option<Vec<CascadeStage>>,
    /// Calibrated accuracies under reduced-fidelity *video* decoding, for
    /// GOP-structured inputs ([`InputVariant::is_video`]). `None` on a
    /// video spec means the query is tolerant of both knobs (accuracy
    /// carries over), mirroring `reduced_accuracy`'s semantics. Ignored
    /// for still inputs.
    pub video: Option<VideoFidelity>,
    /// Storage-side profile when this candidate's variant is materialized
    /// in the physical-representation store: storage-read and
    /// transcode-amortization terms plus the tensor-cache hit signal fold
    /// into the preprocessing estimate ([`storage_adjusted_preproc`]).
    /// `None` for a purely on-the-fly variant.
    pub storage: Option<StorageProfile>,
    /// Calibrated per-item routing options for this candidate: each entry
    /// describes a cheap stage-1 rung plus the measured escalation rate
    /// and end-to-end routed accuracy at one difficulty threshold. The
    /// planner turns each into a cascade candidate whose full rung is
    /// this spec's `(dnn, input)`. Empty when no routing was calibrated
    /// (proxy calibration, non-sjpg inputs, video).
    pub routing: Vec<RoutingSpec>,
}

/// One calibrated routing option of a [`CandidateSpec`]: the stage-1
/// rung, the difficulty threshold, and the quantities measured on the
/// calibration set at that threshold (Tahoma-style cascades with
/// bitstream-derived routing; ROADMAP item 3). Produced by
/// `Calibration::Measured` — the escalation rate and routed accuracy are
/// *measured*, not modeled, which is what lets `MaxAccuracyLoss` /
/// `MinAccuracy` constraints keep holding end to end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutingSpec {
    /// Stage-1 model (must be cheaper than the spec's full `dnn`; the
    /// planner drops specs whose rungs would share a placement
    /// signature, i.e. the same model).
    pub stage1_dnn: ModelKind,
    /// Stage-1 decode mode (typically the factor-8 reduced decode).
    pub stage1_decode: DecodeMode,
    /// Difficulty-score threshold items must exceed to escalate.
    pub threshold: f64,
    /// Measured fraction of calibration items escalating at `threshold`.
    pub escalation_rate: f64,
    /// Measured end-to-end accuracy of the routed pipeline (stage-1
    /// answers below the threshold, full-rung answers above it).
    pub accuracy: f64,
    /// Measured throughput of the difficulty signal itself, items/s
    /// (every item pays it, easy or hard). Non-finite or non-positive
    /// means "free".
    pub signal_throughput: f64,
}

/// Per-knob calibrated accuracies for reduced-fidelity video decoding
/// (§6.4 applied to the GOP path). Each `None` field means "not
/// calibrated: the full-decode accuracy carries over". When a candidate
/// combines both knobs (keyframe-only **and** deblock-skip), the harsher
/// calibrated value wins — `min` is a conservative floor, exactly what
/// the constraint semantics need.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VideoFidelity {
    /// Accuracy when only I-frames are decoded and scored
    /// ([`FrameSelection::Keyframes`]): the aggregate answer is computed
    /// from a 1-in-`gop` temporal sample.
    pub keyframe_accuracy: Option<f64>,
    /// Accuracy when the in-loop deblocking filter is skipped
    /// (`deblock: false`): blocking artifacts on I-frames plus reference
    /// drift on P-frames.
    pub deblock_skip_accuracy: Option<f64>,
}

impl VideoFidelity {
    /// Resolves the accuracy of a video candidate decoded under
    /// `selection` / `deblock`, starting from the full-fidelity
    /// `accuracy`.
    pub fn accuracy_for(&self, accuracy: f64, selection: FrameSelection, deblock: bool) -> f64 {
        let mut acc = accuracy;
        if !matches!(selection, FrameSelection::All) {
            // Stride sampling is bounded by the keyframe calibration: it
            // samples at least as densely as keyframe-only, so the
            // keyframe value is a valid lower bound.
            acc = acc.min(self.keyframe_accuracy.unwrap_or(accuracy));
        }
        if !deblock {
            acc = acc.min(self.deblock_skip_accuracy.unwrap_or(accuracy));
        }
        acc
    }
}

/// Planner configuration; the toggles drive the lesion/factor studies
/// (Figures 7–8's DAG and placement steps, the "-Storage" and "-Cascade"
/// gates). Two equal configs enumerate and cost candidates identically,
/// so the config is its own plan-cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlannerConfig {
    pub device: GpuModel,
    pub env: ExecutionEnv,
    pub batch: usize,
    /// Run the preprocessing-DAG optimizer (§6.2). Off in "-Preproc opt".
    pub enable_dag_opt: bool,
    /// Fold [`CandidateSpec::storage`] profiles into the preprocessing
    /// estimate (storage reads, transcode amortization, tensor-cache hit
    /// rate). Off in the "-Storage" lesion, which prices every candidate
    /// as if it decoded from scratch.
    pub enable_storage_aware: bool,
    /// Enumerate input-adaptive cascade candidates from
    /// [`CandidateSpec::routing`] calibrations (per-item plan routing on
    /// bitstream difficulty signals). Off in the "-Cascade" lesion,
    /// which leaves only uniform plans.
    pub enable_cascades: bool,
    /// Evaluate the §6.3 CPU/accelerator split of every candidate's
    /// preprocessing plan ([`Planner::place`]). Off in the "-Placement"
    /// lesion, which leaves every operator on the CPU.
    pub enable_placement: bool,
    /// DNN input edge (224 in the paper's pipelines).
    pub dnn_input: u32,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            device: GpuModel::T4,
            env: ExecutionEnv::TensorRt,
            batch: 64,
            enable_dag_opt: true,
            enable_storage_aware: true,
            enable_cascades: true,
            enable_placement: true,
            dnn_input: 224,
        }
    }
}

/// The Smol planner.
#[derive(Debug, Clone, Copy)]
pub struct Planner {
    pub config: PlannerConfig,
    /// A `config.device` rate in simulated time × this = the serving
    /// fleet's rate on the wall clock preprocessing is profiled on. See
    /// [`Planner::with_device_clock`].
    device_clock: f64,
}

impl Default for Planner {
    fn default() -> Self {
        Planner::new(PlannerConfig::default())
    }
}

impl Planner {
    /// A planner over a device running in real time (simulated rates are
    /// wall-clock rates).
    pub fn new(config: PlannerConfig) -> Self {
        Planner {
            config,
            device_clock: 1.0,
        }
    }

    /// Tells the planner how fast the serving fleet runs relative to
    /// `config.device`'s simulated time (`> 1`: faster — a `time_scale`
    /// below 1, or more devices). Only placement (§6.3) reads it: a split
    /// compares the CPU side with the accelerator side, so both must be on
    /// one clock. Every other estimate keeps device rates in simulated time.
    pub fn with_device_clock(mut self, sim_to_wall: f64) -> Self {
        self.device_clock = sim_to_wall;
        self
    }

    /// Builds the preprocessing pipeline for an input variant, applying the
    /// DAG optimizer when enabled.
    pub fn build_preproc(&self, input: &InputVariant) -> PreprocPlan {
        let d = self.config.dnn_input;
        let base = if input.is_thumbnail {
            // Thumbnails upscale straight to the DNN input (§5.2).
            PreprocPlan::thumbnail(d, d)
        } else {
            // Full-resolution follows the standard resize+crop path (§2),
            // scaled from the 256→224 convention.
            let short = (d as f64 * 256.0 / 224.0).round() as u32;
            PreprocPlan::standard(short, d, d)
        };
        if self.config.enable_dag_opt {
            DagOptimizer::default().optimize(&base, input.width, input.height)
        } else {
            base
        }
    }

    /// Chooses the decode mode for an input variant (§6.4): full-resolution
    /// sjpg images use ROI decoding of the central crop; GOP-structured
    /// video decodes every frame at full fidelity (the reduced-fidelity
    /// video plans come from [`Self::video_decode_modes`]); everything
    /// else decodes fully (thumbnails are already near the DNN input
    /// size).
    pub fn decode_mode(&self, input: &InputVariant) -> DecodeMode {
        if input.is_video() {
            return DecodeMode::Video {
                selection: FrameSelection::All,
                deblock: true,
            };
        }
        if self.config.enable_dag_opt
            && !input.is_thumbnail
            && matches!(input.format, smol_codec::Format::Sjpg { .. })
        {
            // The ROI is the pre-image of the central crop.
            let d = self.config.dnn_input as usize;
            let short = input.width.min(input.height);
            let scale = short as f64 / (d as f64 * 256.0 / 224.0);
            let crop = ((d as f64) * scale).round() as usize;
            DecodeMode::CentralRoi {
                crop_w: crop.min(input.width),
                crop_h: crop.min(input.height),
            }
        } else {
            DecodeMode::Full
        }
    }

    /// The reduced-resolution decode mode for an input variant (§6.4,
    /// Table 4 multi-resolution decoding): the largest factor whose decoded
    /// short edge still covers the DNN input, so the fused downsample never
    /// costs accuracy to upsampling. `None` when the format lacks
    /// multi-resolution decoding, the variant is already small, or no
    /// factor keeps the DNN input covered.
    pub fn reduced_decode_mode(&self, input: &InputVariant) -> Option<DecodeMode> {
        if input.is_thumbnail
            || input.is_video()
            || !matches!(input.format, smol_codec::Format::Sjpg { .. })
        {
            return None;
        }
        let d = self.config.dnn_input as usize;
        [8u8, 4, 2]
            .into_iter()
            .map(|f| DecodeMode::reduced(f).expect("factors 8/4/2 are valid"))
            .find(|mode| {
                let (dw, dh) = mode.decoded_dims(input.width, input.height);
                dw.min(dh) >= d
            })
    }

    /// The CPU's weighted-op bill for `input` decoded under `mode`: the
    /// item's [`decode_cost`], plus the preprocessing plan to cost for each
    /// of its outputs ([`costed_preproc_for_decode`]) and the geometry that
    /// plan runs on.
    fn cpu_work(
        &self,
        input: &InputVariant,
        preproc: &PreprocPlan,
        mode: DecodeMode,
    ) -> (DecodeCost, PreprocPlan, (usize, usize)) {
        let (w, h) = (input.width, input.height);
        (
            decode_cost(input, mode),
            costed_preproc_for_decode(preproc, mode, w, h),
            mode.decoded_dims(w, h),
        )
    }

    /// Estimated preprocessing throughput of the same input decoded under
    /// `mode`, scaled from the measured throughput under `base` by the
    /// ratio of their joint decode+preprocess weighted-op costs per source
    /// frame ([`decode_cost`] plus [`plan_cost`] per output): the Pareto
    /// frontier compares decode and preprocessing as one quantity, not
    /// preprocessing alone. For a still that is `decode + preprocess`; a
    /// GOP's decode amortizes over its frames, and preprocessing runs only
    /// on the frames its selection outputs. The base mode's cost honors the
    /// work its decode already skips (ROI rows, P-frames past the last
    /// selected frame), so a reduced candidate is never credited against
    /// an inflated full-frame baseline.
    fn scaled_preproc_throughput(
        &self,
        measured: f64,
        preproc: &PreprocPlan,
        base: DecodeMode,
        mode: DecodeMode,
        input: &InputVariant,
    ) -> f64 {
        let joint = |m: DecodeMode| {
            let (decode, costed, (dw, dh)) = self.cpu_work(input, preproc, m);
            (decode.ops + decode.outputs as f64 * plan_cost(&costed, dw, dh)) / decode.frames as f64
        };
        let base_cost = joint(base);
        let mode_cost = joint(mode);
        if base_cost <= 0.0 || mode_cost <= 0.0 {
            return measured;
        }
        measured * base_cost / mode_cost
    }

    /// §6.3 for one plan: moves as much of `preproc`'s elementwise tail to
    /// the accelerator as raises `min(cpu side, accelerator side)`, and says
    /// what both sides are then expected to sustain.
    ///
    /// * `cpu_throughput` — the profiled rate of decode + all-CPU
    ///   preprocessing under `mode`, outputs/s on the wall clock. It is
    ///   split into a decode term and a per-op rate by the weighted-op model
    ///   every other candidate is costed with
    ///   ([`PlacementRates::from_profile`]).
    /// * `exec_throughput` — the DNN's rate on `config.device` in simulated
    ///   time; it and the device's elementwise rate
    ///   (`DeviceSpec::elementwise_ops_per_s`) are brought onto the wall
    ///   clock with [`Planner::with_device_clock`]'s factor, so a device
    ///   that is slow *in wall time* keeps its plans all-CPU however fast
    ///   it is on paper.
    ///
    /// Only the elementwise tail moves ([`choose_placement`]), so the result
    /// always passes `smol_runtime::PlanContext::validate`. DNN-bound and
    /// tied plans come back unchanged, as does every plan under the
    /// "-Placement" lesion or without a usable profile (estimate `None`).
    pub fn place(
        &self,
        input: &InputVariant,
        preproc: PreprocPlan,
        mode: DecodeMode,
        cpu_throughput: f64,
        exec_throughput: f64,
    ) -> (PreprocPlan, Option<PlacementEstimate>) {
        let usable = |rate: f64| rate.is_finite() && rate > 0.0;
        if !self.config.enable_placement || !usable(cpu_throughput) || !usable(exec_throughput) {
            return (preproc, None);
        }
        let (decode, costed, (dw, dh)) = self.cpu_work(input, &preproc, mode);
        let rates = PlacementRates::from_profile(
            cpu_throughput,
            decode.ops / decode.outputs as f64,
            plan_cost(&costed, dw, dh),
            self.config.device.spec().elementwise_ops_per_s * self.device_clock,
            exec_throughput * self.device_clock,
        );
        let decision = choose_placement(&costed, dw, dh, &rates);
        // The costed plan shares the authored plan's tail op for op (the
        // rewrite only replaces the geometric prefix): count from the end.
        let split = preproc.ops.len() - (costed.ops.len() - decision.estimate.split);
        let estimate = PlacementEstimate {
            split,
            ..decision.estimate
        };
        (preproc.split_at(split), Some(estimate))
    }

    /// Builds one estimated candidate for a spec under a given decode
    /// mode. `exec_scale` converts the device's per-inference rate into
    /// the plan's accounting unit: `1.0` for stills (one inference per
    /// item), and the temporal sampling factor `gop / outputs` for video
    /// plans, whose throughput is measured in *source* frames per second
    /// (a keyframe-only plan covers `gop` frames of video per inference).
    fn candidate(
        &self,
        s: &CandidateSpec,
        decode: DecodeMode,
        preproc_throughput: f64,
        accuracy: f64,
        exec_scale: f64,
    ) -> PlanCandidate {
        // Storage-aware costing: a materialized variant's read and
        // transcode-amortization terms plus its cache-hit signal reshape
        // the preprocessing estimate before the pipelining law applies.
        let preproc_throughput = match &s.storage {
            Some(storage) if self.config.enable_storage_aware => {
                storage_adjusted_preproc(preproc_throughput, storage)
            }
            _ => preproc_throughput,
        };
        let mut exec_stages = s.cascade.clone().unwrap_or_else(|| {
            CascadeStage::single(throughput(
                s.dnn,
                self.config.device,
                self.config.env,
                self.config.batch,
            ))
        });
        if exec_scale != 1.0 {
            for stage in &mut exec_stages {
                stage.throughput *= exec_scale;
            }
        }
        let exec = crate::costmodel::cascade_exec_throughput(&exec_stages);
        let est = estimate_throughput(CostModelKind::Smol, preproc_throughput, &exec_stages);
        // Placement is per output (one inference); the candidate's rates
        // are per source frame, `exec_scale` outputs apart.
        let (preproc, placement) = self.place(
            &s.input,
            self.build_preproc(&s.input),
            decode,
            preproc_throughput / exec_scale,
            exec / exec_scale,
        );
        PlanCandidate {
            plan: QueryPlan {
                dnn: s.dnn,
                input: s.input.clone(),
                preproc,
                decode,
                batch: self.config.batch,
                // `s.cascade` is a cost-model input only (Eq. 2, already in
                // `exec` above): the plan executes `dnn` alone.
            },
            preproc_throughput,
            exec_throughput: exec,
            est_throughput: est,
            accuracy,
            cascade: None,
            placement: placement.map(|p| PlacementEstimate {
                cpu_side: p.cpu_side * exec_scale,
                accel_side: p.accel_side * exec_scale,
                ..p
            }),
        }
    }

    /// Builds one cascade candidate from a calibrated [`RoutingSpec`]:
    /// full rung = the spec's `(dnn, input)` under `base` decode, easy
    /// rung = `(stage1_dnn, stage1_decode)` over the same input and
    /// preprocessing. Costing follows the issue's contract,
    /// `stage1_cost + escalation_rate × stage2_cost`, on both axes:
    ///
    /// * **CPU**: every item pays the signal, every item pays its
    ///   routed decode — `1/pc = 1/signal + (1−r)/p1 + r/p2` (the
    ///   routing happens *before* any decode, so the two rungs'
    ///   preprocessing costs blend exactly, not additively);
    /// * **device**: `[CascadeStage(t1, 1), CascadeStage(t2, r)]` — the
    ///   classic Tahoma accounting. It slightly overestimates cost for
    ///   this runtime (escalated items skip stage 1 entirely, so `1−r`
    ///   would be exact), which errs on the safe side: a cascade is
    ///   selected only when it wins even under the conservative bill.
    ///
    /// Accuracy is the calibration's *measured* routed accuracy, not a
    /// blend of per-rung numbers.
    fn cascade_candidate(
        &self,
        s: &CandidateSpec,
        base: DecodeMode,
        preproc: &PreprocPlan,
        r: &RoutingSpec,
    ) -> Option<PlanCandidate> {
        // The serving layer batches the two rungs separately; rungs of one
        // model over one input would share a placement signature and merge
        // their accounting, so such a pairing is not a cascade at all.
        if r.stage1_dnn == s.dnn {
            return None;
        }
        let rate = r.escalation_rate.clamp(0.0, 1.0);
        let p1 = self.scaled_preproc_throughput(
            s.preproc_throughput,
            preproc,
            base,
            r.stage1_decode,
            &s.input,
        );
        let per_item = |t: f64| {
            if t.is_finite() && t > 0.0 {
                1.0 / t
            } else {
                0.0
            }
        };
        let t = per_item(r.signal_throughput)
            + (1.0 - rate) * per_item(p1)
            + rate * per_item(s.preproc_throughput);
        if t <= 0.0 {
            return None;
        }
        let mut pc = 1.0 / t;
        if let (Some(storage), true) = (&s.storage, self.config.enable_storage_aware) {
            pc = storage_adjusted_preproc(pc, storage);
        }
        let dev = |dnn| throughput(dnn, self.config.device, self.config.env, self.config.batch);
        let stages = [
            CascadeStage::new(dev(r.stage1_dnn), 1.0),
            CascadeStage::new(dev(s.dnn), rate),
        ];
        // Each rung is placed as the uniform plan it is for the items routed
        // to it: its own CPU rate against its own DNN.
        let (full_preproc, placement) = self.place(
            &s.input,
            preproc.clone(),
            base,
            s.preproc_throughput,
            dev(s.dnn),
        );
        let (stage1_preproc, _) = self.place(
            &s.input,
            preproc.clone(),
            r.stage1_decode,
            p1,
            dev(r.stage1_dnn),
        );
        let full = QueryPlan {
            dnn: s.dnn,
            input: s.input.clone(),
            preproc: full_preproc,
            decode: base,
            batch: self.config.batch,
        };
        let stage1 = QueryPlan {
            dnn: r.stage1_dnn,
            preproc: stage1_preproc,
            decode: r.stage1_decode,
            ..full.clone()
        };
        Some(PlanCandidate {
            plan: full,
            preproc_throughput: pc,
            exec_throughput: crate::costmodel::cascade_exec_throughput(&stages),
            est_throughput: estimate_throughput(CostModelKind::Smol, pc, &stages),
            accuracy: r.accuracy,
            cascade: Some(CascadePlan {
                stage1,
                threshold: r.threshold,
                escalation_rate: rate,
            }),
            placement,
        })
    }

    /// The reduced-fidelity video decode modes enumerated next to a
    /// GOP-structured input's base (full-GOP, in-loop-filtered) plan:
    /// deblock skipping, then (for GOPs longer than one frame)
    /// keyframe-only selection with and without it — the video analogues
    /// of the §6.4 partial-decode ladder. Empty for still inputs.
    pub fn video_decode_modes(&self, input: &InputVariant) -> Vec<DecodeMode> {
        if !input.is_video() {
            return Vec::new();
        }
        let mut modes = vec![DecodeMode::Video {
            selection: FrameSelection::All,
            deblock: false,
        }];
        if input.gop_len > 1 {
            modes.push(DecodeMode::Video {
                selection: FrameSelection::Keyframes,
                deblock: true,
            });
            modes.push(DecodeMode::Video {
                selection: FrameSelection::Keyframes,
                deblock: false,
            });
        }
        modes
    }

    /// Turns candidate specs into estimated plan candidates. Each spec
    /// yields its base plan (per [`Self::decode_mode`]) plus its
    /// reduced-fidelity ladder, each rung priced from the measured base
    /// rate by [`decode_cost`]: for a still, a reduced-resolution plan
    /// whose decode fuses the downsample (§6.4) when the format has
    /// multi-resolution decoding, with accuracy from `reduced_accuracy`;
    /// for a video spec, the ladder of [`Self::video_decode_modes`], with
    /// accuracies discounted through the spec's [`VideoFidelity`]
    /// calibration and throughput in source frames per second. Still specs
    /// then add their calibrated cascades.
    pub fn enumerate(&self, specs: &[CandidateSpec]) -> Vec<PlanCandidate> {
        let mut out = Vec::with_capacity(specs.len());
        for s in specs {
            let base = self.decode_mode(&s.input);
            let preproc = self.build_preproc(&s.input);
            out.push(self.candidate(s, base, s.preproc_throughput, s.accuracy, 1.0));
            let ladder = self.reduced_decode_mode(&s.input).into_iter();
            for mode in ladder.chain(self.video_decode_modes(&s.input)) {
                let tput = self.scaled_preproc_throughput(
                    s.preproc_throughput,
                    &preproc,
                    base,
                    mode,
                    &s.input,
                );
                let acc = match mode {
                    DecodeMode::Video { selection, deblock } => s
                        .video
                        .unwrap_or_default()
                        .accuracy_for(s.accuracy, selection, deblock),
                    _ => s.reduced_accuracy.unwrap_or(s.accuracy),
                };
                // Device work per source frame: one inference per output.
                let price = decode_cost(&s.input, mode);
                let sampling = price.frames as f64 / price.outputs as f64;
                out.push(self.candidate(s, mode, tput, acc, sampling));
            }
            if self.config.enable_cascades && !s.input.is_video() {
                out.extend(
                    s.routing
                        .iter()
                        .filter_map(|r| self.cascade_candidate(s, base, &preproc, r)),
                );
            }
        }
        out
    }

    /// The Pareto-optimal set over the enumerated candidates (§3.1).
    /// Errors with [`PlanError::NoCandidates`] when enumeration produces
    /// nothing (empty specs) instead of handing back an empty frontier the
    /// caller must remember to check.
    pub fn frontier(&self, specs: &[CandidateSpec]) -> Result<Vec<PlanCandidate>, PlanError> {
        let candidates = self.enumerate(specs);
        if candidates.is_empty() {
            return Err(PlanError::NoCandidates);
        }
        Ok(pareto::pareto_frontier(candidates))
    }

    /// Constraint-driven selection (§3.1's declarative contract): enumerate
    /// every candidate for `specs` and resolve `constraint` over them. The
    /// returned candidate's plan is fully executable. Infeasible
    /// constraints yield [`PlanError::Infeasible`] carrying the best
    /// achievable accuracy.
    pub fn plan(
        &self,
        specs: &[CandidateSpec],
        constraint: &Constraint,
    ) -> Result<PlanCandidate, PlanError> {
        constraint.select(&self.enumerate(specs)).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smol_codec::Format;

    fn full_res(preproc: f64) -> InputVariant {
        let _ = preproc;
        InputVariant::new("full sjpg(q=95)", Format::sjpg(95), 480, 360)
    }

    fn thumb() -> InputVariant {
        InputVariant::new("161 spng", Format::Spng, 215, 161).thumbnail()
    }

    fn specs() -> Vec<CandidateSpec> {
        vec![
            CandidateSpec {
                dnn: ModelKind::ResNet50,
                input: full_res(527.0),
                accuracy: 0.7516,
                preproc_throughput: 527.0,
                reduced_accuracy: None,
                cascade: None,
                video: None,
                storage: None,
                routing: Vec::new(),
            },
            CandidateSpec {
                dnn: ModelKind::ResNet34,
                input: full_res(527.0),
                accuracy: 0.7272,
                preproc_throughput: 527.0,
                reduced_accuracy: None,
                cascade: None,
                video: None,
                storage: None,
                routing: Vec::new(),
            },
            CandidateSpec {
                dnn: ModelKind::ResNet50,
                input: thumb(),
                accuracy: 0.75,
                preproc_throughput: 1995.0,
                reduced_accuracy: None,
                cascade: None,
                video: None,
                storage: None,
                routing: Vec::new(),
            },
            CandidateSpec {
                dnn: ModelKind::ResNet34,
                input: thumb(),
                accuracy: 0.725,
                preproc_throughput: 1995.0,
                reduced_accuracy: None,
                cascade: None,
                video: None,
                storage: None,
                routing: Vec::new(),
            },
        ]
    }

    /// The motivating example of §5.2: ResNet-50 on 161-px thumbnails beats
    /// ResNet-34 on full resolution — both faster *and* more accurate.
    #[test]
    fn motivating_example_resnet50_on_thumbnails_wins() {
        let planner = Planner::default();
        let cands = planner.enumerate(&specs());
        let rn50_thumb = cands
            .iter()
            .find(|c| c.plan.dnn == ModelKind::ResNet50 && c.plan.input.is_thumbnail)
            .unwrap();
        let rn34_full = cands
            .iter()
            .find(|c| c.plan.dnn == ModelKind::ResNet34 && !c.plan.input.is_thumbnail)
            .unwrap();
        assert!(rn50_thumb.est_throughput > rn34_full.est_throughput);
        assert!(rn50_thumb.accuracy > rn34_full.accuracy);
    }

    #[test]
    fn frontier_prefers_thumbnail_plans() {
        let planner = Planner::default();
        let frontier = planner.frontier(&specs()).unwrap();
        assert!(frontier.iter().any(|c| c.plan.input.is_thumbnail));
        // Everything on the frontier when low-res is available should be a
        // thumbnail plan here (dominates in both axes given equal accuracy).
        assert!(frontier
            .iter()
            .all(|c| c.plan.input.is_thumbnail || c.accuracy > 0.7516 - 1e-9));
    }

    #[test]
    fn preproc_plan_respects_dag_toggle() {
        let on = Planner::default();
        let off = Planner::new(PlannerConfig {
            enable_dag_opt: false,
            ..Default::default()
        });
        let input = full_res(527.0);
        assert_ne!(on.build_preproc(&input), off.build_preproc(&input));
    }

    #[test]
    fn decode_mode_uses_roi_for_full_res_sjpg() {
        let planner = Planner::default();
        match planner.decode_mode(&full_res(527.0)) {
            DecodeMode::CentralRoi { crop_w, crop_h } => {
                assert!(crop_w > 0 && crop_w <= 480);
                assert_eq!(crop_w, crop_h);
            }
            other => panic!("expected ROI decode, got {other:?}"),
        }
        assert_eq!(planner.decode_mode(&thumb()), DecodeMode::Full);
    }

    fn big_full_res() -> InputVariant {
        // 896/4 = 224: the factor-4 reduced decode lands exactly on the
        // DNN input, so the resize is elided.
        InputVariant::new("big sjpg(q=95)", Format::sjpg(95), 896, 896)
    }

    fn big_spec(accuracy: f64, reduced_accuracy: Option<f64>) -> CandidateSpec {
        CandidateSpec {
            dnn: ModelKind::ResNet50,
            input: big_full_res(),
            accuracy,
            preproc_throughput: 150.0,
            reduced_accuracy,
            cascade: None,
            video: None,
            storage: None,
            routing: Vec::new(),
        }
    }

    #[test]
    fn reduced_decode_mode_picks_largest_covering_factor() {
        let planner = Planner::default();
        assert_eq!(
            planner.reduced_decode_mode(&big_full_res()),
            Some(DecodeMode::ReducedResolution { factor: 4 })
        );
        // 480×360 at factor 2 leaves a 180-px short edge < 224: no factor
        // covers the DNN input, so no reduced plan is offered.
        assert_eq!(planner.reduced_decode_mode(&full_res(527.0)), None);
        // Thumbnails and non-sjpg formats are never reduced.
        assert_eq!(planner.reduced_decode_mode(&thumb()), None);
    }

    #[test]
    fn enumerate_emits_reduced_candidate_with_joint_cost_gain() {
        let planner = Planner::default();
        let cands = planner.enumerate(&[big_spec(0.75, None)]);
        assert_eq!(cands.len(), 2, "base + reduced");
        let base = cands
            .iter()
            .find(|c| !matches!(c.plan.decode, DecodeMode::ReducedResolution { .. }))
            .unwrap();
        let reduced = cands
            .iter()
            .find(|c| matches!(c.plan.decode, DecodeMode::ReducedResolution { .. }))
            .unwrap();
        // The joint decode+preproc cost model must credit the fused
        // downsample with a large preprocessing speedup.
        assert!(
            reduced.preproc_throughput > base.preproc_throughput * 2.0,
            "reduced {} vs base {}",
            reduced.preproc_throughput,
            base.preproc_throughput
        );
        // Low-res tolerant DNN (no reduced_accuracy): accuracy carries
        // over, so the reduced plan lands on the Pareto frontier.
        let frontier = planner.frontier(&[big_spec(0.75, None)]).unwrap();
        assert!(frontier
            .iter()
            .any(|c| matches!(c.plan.decode, DecodeMode::ReducedResolution { .. })));
    }

    #[test]
    fn reduced_accuracy_penalty_is_respected() {
        let planner = Planner::default();
        let cands = planner.enumerate(&[big_spec(0.75, Some(0.71))]);
        let reduced = cands
            .iter()
            .find(|c| matches!(c.plan.decode, DecodeMode::ReducedResolution { .. }))
            .unwrap();
        assert!((reduced.accuracy - 0.71).abs() < 1e-12);
        // Both plans stay on the frontier: the reduced one is faster, the
        // full one more accurate.
        let frontier = planner.frontier(&[big_spec(0.75, Some(0.71))]).unwrap();
        assert_eq!(frontier.len(), 2);
    }

    fn video_input() -> InputVariant {
        InputVariant::new("traffic svid(q=80)", Format::Svid { quality: 80 }, 320, 240).video(12)
    }

    fn video_spec(video: Option<VideoFidelity>) -> CandidateSpec {
        CandidateSpec {
            dnn: ModelKind::ResNet50,
            input: video_input(),
            accuracy: 0.80,
            preproc_throughput: 300.0,
            reduced_accuracy: None,
            cascade: None,
            video,
            storage: None,
            routing: Vec::new(),
        }
    }

    #[test]
    fn video_enumeration_emits_the_reduced_fidelity_ladder() {
        let planner = Planner::default();
        let cands = planner.enumerate(&[video_spec(None)]);
        // Base (All+deblock) + All-no-deblock + Keyframes±deblock.
        assert_eq!(cands.len(), 4);
        let base = &cands[0];
        assert_eq!(
            base.plan.decode,
            DecodeMode::Video {
                selection: FrameSelection::All,
                deblock: true
            }
        );
        let keys_fast = cands
            .iter()
            .find(|c| {
                c.plan.decode
                    == DecodeMode::Video {
                        selection: FrameSelection::Keyframes,
                        deblock: false,
                    }
            })
            .expect("keyframe + deblock-skip candidate");
        // Keyframe-only decode skips the motion-compensated tail of every
        // GOP: the joint cost model must credit it with a large speedup in
        // source-frames/s.
        assert!(
            keys_fast.est_throughput > base.est_throughput * 2.0,
            "keyframes {} vs base {}",
            keys_fast.est_throughput,
            base.est_throughput
        );
        // Tolerant spec (no calibration): accuracy carries over, so the
        // fast plan dominates and wins a zero-loss constraint.
        let chosen = planner
            .plan(&[video_spec(None)], &Constraint::MaxAccuracyLoss(0.0))
            .unwrap();
        assert_eq!(
            chosen.plan.decode.frame_selection(),
            Some(FrameSelection::Keyframes)
        );
    }

    #[test]
    fn video_fidelity_discounts_are_respected() {
        let planner = Planner::default();
        let fid = VideoFidelity {
            keyframe_accuracy: Some(0.76),
            deblock_skip_accuracy: Some(0.78),
        };
        let cands = planner.enumerate(&[video_spec(Some(fid))]);
        let find = |sel: FrameSelection, deblock: bool| {
            cands
                .iter()
                .find(|c| {
                    c.plan.decode
                        == DecodeMode::Video {
                            selection: sel,
                            deblock,
                        }
                })
                .unwrap()
        };
        assert!((find(FrameSelection::All, true).accuracy - 0.80).abs() < 1e-12);
        assert!((find(FrameSelection::All, false).accuracy - 0.78).abs() < 1e-12);
        assert!((find(FrameSelection::Keyframes, true).accuracy - 0.76).abs() < 1e-12);
        // Combined knobs: the harsher discount (min) wins.
        assert!((find(FrameSelection::Keyframes, false).accuracy - 0.76).abs() < 1e-12);
        // A strict accuracy floor forces the full-fidelity plan.
        let chosen = planner
            .plan(&[video_spec(Some(fid))], &Constraint::MinAccuracy(0.80))
            .unwrap();
        assert_eq!(
            chosen.plan.decode,
            DecodeMode::Video {
                selection: FrameSelection::All,
                deblock: true
            }
        );
        // A loose one picks the fast keyframe plan.
        let fast = planner
            .plan(&[video_spec(Some(fid))], &Constraint::MinAccuracy(0.75))
            .unwrap();
        assert_eq!(
            fast.plan.decode.frame_selection(),
            Some(FrameSelection::Keyframes)
        );
    }

    #[test]
    fn video_inputs_never_get_image_partial_decodes() {
        let planner = Planner::default();
        assert_eq!(planner.reduced_decode_mode(&video_input()), None);
        assert!(matches!(
            planner.decode_mode(&video_input()),
            DecodeMode::Video { .. }
        ));
    }

    #[test]
    fn subsampled_chroma_variant_wins_a_throughput_constraint() {
        // The same content stored 4:2:0 decodes roughly twice as fast
        // (half the entropy symbols, half the IDCT blocks) and the DNN is
        // nearly insensitive to chroma detail, so a loss-tolerant
        // constraint must pick the subsampled variant over 4:4:4.
        let planner = Planner::default();
        let c444 = CandidateSpec {
            dnn: ModelKind::ResNet50,
            input: InputVariant::new("full sjpg(q=95)", Format::sjpg(95), 896, 896),
            accuracy: 0.7516,
            preproc_throughput: 150.0,
            reduced_accuracy: None,
            cascade: None,
            video: None,
            storage: None,
            routing: Vec::new(),
        };
        let c420 = CandidateSpec {
            dnn: ModelKind::ResNet50,
            input: InputVariant::new("full sjpg420(q=95)", Format::sjpg420(95), 896, 896),
            accuracy: 0.7504,
            preproc_throughput: 270.0,
            reduced_accuracy: None,
            cascade: None,
            video: None,
            storage: None,
            routing: Vec::new(),
        };
        let specs = [c444, c420];
        let chosen = planner
            .plan(&specs, &Constraint::MaxAccuracyLoss(0.005))
            .unwrap();
        assert!(
            chosen.plan.input.format.is_chroma_subsampled(),
            "expected the 4:2:0 variant, got {}",
            chosen.plan.input.name
        );
        // Both formats still ride the whole decode-mode ladder: the 4:2:0
        // spec gets a reduced-resolution candidate too, and its joint-cost
        // scaling stays finite and positive.
        let cands = planner.enumerate(&specs);
        let reduced_420 = cands
            .iter()
            .find(|c| {
                c.plan.input.format.is_chroma_subsampled()
                    && matches!(c.plan.decode, DecodeMode::ReducedResolution { .. })
            })
            .expect("reduced-resolution candidate for the 4:2:0 variant");
        assert!(reduced_420.preproc_throughput > 270.0);
        // A strict zero-loss constraint still selects full chroma.
        let strict = planner
            .plan(&specs, &Constraint::MinAccuracy(0.7516))
            .unwrap();
        assert!(!strict.plan.input.format.is_chroma_subsampled());
    }

    #[test]
    fn storage_aware_costing_flips_to_the_materialized_variant() {
        // The same content twice: an on-the-fly transcode path and a
        // materialized variant with a hot tensor cache. Equal accuracy,
        // equal raw preprocessing rate — only the storage terms differ.
        let on_the_fly = CandidateSpec {
            dnn: ModelKind::ResNet50,
            input: InputVariant::new("otf sjpg(q=95)", Format::sjpg(95), 480, 360),
            accuracy: 0.75,
            preproc_throughput: 500.0,
            reduced_accuracy: None,
            cascade: None,
            video: None,
            routing: Vec::new(),
            // On-the-fly transcode: every query pays the encode again, at
            // 250 items/s.
            storage: Some(StorageProfile {
                read_throughput: 250.0,
                cached_throughput: 0.0,
                cache_hit_rate: 0.0,
            }),
        };
        let materialized = CandidateSpec {
            input: InputVariant::new("store sjpg(q=95)", Format::sjpg(95), 480, 360),
            storage: Some(StorageProfile {
                read_throughput: 20_000.0,
                cached_throughput: 5_000.0,
                cache_hit_rate: 0.95,
            }),
            ..on_the_fly.clone()
        };
        let specs = [on_the_fly.clone(), materialized];
        let planner = Planner::default();
        let chosen = planner
            .plan(&specs, &Constraint::MaxAccuracyLoss(0.0))
            .unwrap();
        assert_eq!(
            chosen.plan.input.name, "store sjpg(q=95)",
            "hot storage must beat re-transcoding"
        );
        // A cold store (no hits, reads still paid) loses to the plain
        // decode path.
        let cold = CandidateSpec {
            input: InputVariant::new("cold sjpg(q=95)", Format::sjpg(95), 480, 360),
            storage: Some(StorageProfile {
                read_throughput: 1_000.0,
                cached_throughput: 0.0,
                cache_hit_rate: 0.0,
            }),
            ..on_the_fly.clone()
        };
        let plain = CandidateSpec {
            input: InputVariant::new("plain sjpg(q=95)", Format::sjpg(95), 480, 360),
            storage: None,
            ..on_the_fly.clone()
        };
        let chosen = planner
            .plan(
                &[cold.clone(), plain.clone()],
                &Constraint::MaxAccuracyLoss(0.0),
            )
            .unwrap();
        assert_eq!(chosen.plan.input.name, "plain sjpg(q=95)");
        // The "-Storage" lesion prices the storage terms away entirely.
        let lesioned = Planner::new(PlannerConfig {
            enable_storage_aware: false,
            ..Default::default()
        });
        let cands = lesioned.enumerate(&[cold, plain]);
        let tputs = |name: &str| {
            cands
                .iter()
                .filter(|c| c.plan.input.name == name)
                .map(|c| c.preproc_throughput)
                .collect::<Vec<_>>()
        };
        let (cold_t, plain_t) = (tputs("cold sjpg(q=95)"), tputs("plain sjpg(q=95)"));
        assert!(!cold_t.is_empty() && cold_t.len() == plain_t.len());
        for (a, b) in cold_t.iter().zip(&plain_t) {
            assert!((a - b).abs() < 1e-9, "lesion ignores storage profiles");
        }
    }

    fn routed_spec() -> CandidateSpec {
        CandidateSpec {
            routing: vec![RoutingSpec {
                stage1_dnn: ModelKind::ResNet18,
                stage1_decode: DecodeMode::ReducedResolution { factor: 8 },
                threshold: 10.0,
                escalation_rate: 0.25,
                accuracy: 0.74,
                signal_throughput: 50_000.0,
            }],
            ..big_spec(0.75, None)
        }
    }

    #[test]
    fn cascade_enumeration_costs_stage1_plus_escalations() {
        let planner = Planner::default();
        let cands = planner.enumerate(&[routed_spec()]);
        let cascade = cands
            .iter()
            .find(|c| c.cascade.is_some())
            .expect("cascade candidate");
        let base = cands
            .iter()
            .find(|c| c.cascade.is_none() && c.plan.decode == planner.decode_mode(&big_full_res()))
            .unwrap();
        // The full rung keeps the spec's model and base decode; the easy
        // rung carries the calibrated stage-1 pair.
        assert_eq!(cascade.plan.dnn, ModelKind::ResNet50);
        let cp = cascade.cascade.as_ref().unwrap();
        assert_eq!(cp.stage1.dnn, ModelKind::ResNet18);
        assert_eq!(
            cp.stage1.decode,
            DecodeMode::ReducedResolution { factor: 8 }
        );
        assert!((cp.escalation_rate - 0.25).abs() < 1e-12);
        assert_ne!(
            cp.stage1.placement_signature(),
            cascade.plan.placement_signature()
        );
        // Mostly-cheap routing must beat the uniform full plan on both
        // estimated axes, and carry the *measured* routed accuracy.
        assert!(cascade.preproc_throughput > base.preproc_throughput);
        assert!(cascade.est_throughput > base.est_throughput);
        assert!((cascade.accuracy - 0.74).abs() < 1e-12);
    }

    #[test]
    fn cascade_lesion_and_signature_guard() {
        let lesioned = Planner::new(PlannerConfig {
            enable_cascades: false,
            ..Default::default()
        });
        assert!(lesioned
            .enumerate(&[routed_spec()])
            .iter()
            .all(|c| c.cascade.is_none()));
        // A stage-1 rung that shares the full rung's placement signature
        // (same model) is dropped rather than enumerated as a fake cascade.
        let mut same = routed_spec();
        same.routing[0].stage1_dnn = ModelKind::ResNet50;
        assert!(Planner::default()
            .enumerate(&[same])
            .iter()
            .all(|c| c.cascade.is_none()));
    }

    #[test]
    fn cascade_cost_is_monotone_in_escalation_rate() {
        let planner = Planner::default();
        let est_at = |rate: f64| {
            let mut s = routed_spec();
            s.routing[0].escalation_rate = rate;
            planner
                .enumerate(&[s])
                .into_iter()
                .find(|c| c.cascade.is_some())
                .expect("cascade candidate")
                .est_throughput
        };
        let mut prev = f64::INFINITY;
        for i in 0..=10 {
            let est = est_at(i as f64 / 10.0);
            assert!(
                est <= prev + 1e-9,
                "estimate must not rise with escalation rate"
            );
            prev = est;
        }
    }

    #[test]
    fn empty_specs_are_a_typed_error_not_an_empty_frontier() {
        let planner = Planner::default();
        assert_eq!(
            planner.frontier(&[]).unwrap_err(),
            crate::constraints::PlanError::NoCandidates
        );
    }

    #[test]
    fn constraint_driven_plan_matches_motivating_example() {
        use crate::constraints::Constraint;
        let planner = Planner::default();
        // Within 0.5 points of the best accuracy, the fastest plan is
        // ResNet-50 on thumbnails (the §5.2 motivating example).
        let chosen = planner
            .plan(&specs(), &Constraint::MaxAccuracyLoss(0.005))
            .unwrap();
        assert_eq!(chosen.plan.dnn, ModelKind::ResNet50);
        assert!(chosen.plan.input.is_thumbnail);
        // An unreachable accuracy floor is a typed infeasibility carrying
        // the best achievable accuracy.
        let err = planner
            .plan(&specs(), &Constraint::MinAccuracy(0.99))
            .unwrap_err();
        assert_eq!(
            err,
            crate::constraints::PlanError::Infeasible {
                best_accuracy: 0.7516
            }
        );
    }
}
