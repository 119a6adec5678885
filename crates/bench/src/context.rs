//! Shared experiment plumbing: encoded variant sets, preprocessing
//! profiling, model training caches, and quick-mode scaling.

use smol_accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol_codec::{EncodedImage, Format};
use smol_core::{DecodeMode, InputVariant, Planner, PlannerConfig, QueryPlan};
use smol_data::{generate_stills, throughput_images, StillDataset, StillSpec};
use smol_imgproc::ops::resize::resize_short_edge_u8;
use smol_imgproc::ImageU8;
use smol_nn::{ClassifierConfig, InputFormat, SmolClassifier, ThumbCodec, Tier};
use smol_runtime::{MediaItem, Profiler, RuntimeOptions};
use smol_serve::{QueryReport, Server};

/// Whether the harness runs in quick mode (`SMOL_QUICK=1`): smaller image
/// counts and clips, same code paths. Full mode reproduces the shapes with
/// more statistical weight.
pub fn quick_mode() -> bool {
    std::env::var("SMOL_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Scales a sample count down in quick mode.
pub fn scaled(n: usize) -> usize {
    if quick_mode() {
        (n / 4).max(8)
    } else {
        n
    }
}

/// Number of worker threads standing in for the g4dn.xlarge's 4 vCPUs.
pub const VCPUS: usize = 4;

/// The four input variants of the still-image experiments (§8.1):
/// full-resolution sjpg(q=95) plus 161-short-side thumbnails in spng,
/// sjpg(q=95), and sjpg(q=75).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VariantKind {
    FullRes,
    ThumbPng,
    ThumbQ95,
    ThumbQ75,
}

impl VariantKind {
    pub fn all() -> [VariantKind; 4] {
        [
            VariantKind::FullRes,
            VariantKind::ThumbPng,
            VariantKind::ThumbQ95,
            VariantKind::ThumbQ75,
        ]
    }

    pub fn label(&self) -> &'static str {
        match self {
            VariantKind::FullRes => "full-res sjpg(q=95)",
            VariantKind::ThumbPng => "161 spng",
            VariantKind::ThumbQ95 => "161 sjpg(q=95)",
            VariantKind::ThumbQ75 => "161 sjpg(q=75)",
        }
    }

    pub fn is_thumbnail(&self) -> bool {
        !matches!(self, VariantKind::FullRes)
    }

    /// The accuracy-track input format this throughput variant maps to.
    fn accuracy_format(&self, thumb_short: usize) -> InputFormat {
        match self {
            VariantKind::FullRes => InputFormat::FullRes,
            VariantKind::ThumbPng => InputFormat::Thumbnail {
                short: thumb_short,
                codec: ThumbCodec::Lossless,
            },
            VariantKind::ThumbQ95 => InputFormat::Thumbnail {
                short: thumb_short,
                codec: ThumbCodec::Lossy { quality: 95 },
            },
            VariantKind::ThumbQ75 => InputFormat::Thumbnail {
                short: thumb_short,
                codec: ThumbCodec::Lossy { quality: 75 },
            },
        }
    }
}

/// Encoded throughput-track images for one dataset, in all variants.
pub struct VariantSet {
    pub spec: StillSpec,
    pub full: Vec<EncodedImage>,
    pub thumb_png: Vec<EncodedImage>,
    pub thumb_q95: Vec<EncodedImage>,
    pub thumb_q75: Vec<EncodedImage>,
}

impl VariantSet {
    /// Generates and encodes `n` throughput-track images for the dataset.
    pub fn build(spec: &StillSpec, n: usize, seed: u64) -> Self {
        let natives = throughput_images(spec, seed, n);
        let thumbs: Vec<ImageU8> = natives
            .iter()
            .map(|img| resize_short_edge_u8(img, spec.tput_thumb_short).expect("thumbnail resize"))
            .collect();
        let encode_all = |imgs: &[ImageU8], fmt: Format| -> Vec<EncodedImage> {
            imgs.iter()
                .map(|img| EncodedImage::encode(img, fmt).expect("encode"))
                .collect()
        };
        VariantSet {
            spec: spec.clone(),
            full: encode_all(&natives, Format::sjpg(95)),
            thumb_png: encode_all(&thumbs, Format::Spng),
            thumb_q95: encode_all(&thumbs, Format::sjpg(95)),
            thumb_q75: encode_all(&thumbs, Format::sjpg(75)),
        }
    }

    pub fn items(&self, kind: VariantKind) -> &[EncodedImage] {
        match kind {
            VariantKind::FullRes => &self.full,
            VariantKind::ThumbPng => &self.thumb_png,
            VariantKind::ThumbQ95 => &self.thumb_q95,
            VariantKind::ThumbQ75 => &self.thumb_q75,
        }
    }

    /// The planner-facing input variant descriptor.
    pub fn input_variant(&self, kind: VariantKind) -> InputVariant {
        let (w, h) = match kind {
            VariantKind::FullRes => self.spec.tput_native,
            _ => {
                let first = &self.items(kind)[0];
                (first.width, first.height)
            }
        };
        let format = match kind {
            VariantKind::FullRes | VariantKind::ThumbQ95 => Format::sjpg(95),
            VariantKind::ThumbQ75 => Format::sjpg(75),
            VariantKind::ThumbPng => Format::Spng,
        };
        let v = InputVariant::new(kind.label(), format, w, h);
        if kind.is_thumbnail() {
            v.thumbnail()
        } else {
            v
        }
    }

    /// Builds the executable plan for (model, variant) under a planner
    /// configuration, and profiles its preprocessing throughput by running
    /// the engine's producer stage alone (the paper's footnote-1
    /// methodology).
    pub fn plan_and_profile(
        &self,
        planner: &Planner,
        model: ModelKind,
        kind: VariantKind,
        threads: usize,
    ) -> (QueryPlan, f64) {
        let plan = simple_plan(
            planner,
            model,
            self.input_variant(kind),
            planner.config.batch,
        );
        let opts = RuntimeOptions {
            producers: threads,
            ..Default::default()
        };
        let tput = Profiler::new(opts).preproc_throughput(self.items(kind), &plan);
        (plan, tput)
    }
}

/// Trained accuracy-track models for one dataset: per tier, a regular model
/// and a low-resolution-augmented model.
pub struct ModelZoo {
    pub dataset: StillDataset,
    pub thumb_short: usize,
    /// (tier, regular, augmented)
    pub models: Vec<(Tier, SmolClassifier, SmolClassifier)>,
}

impl ModelZoo {
    /// Trains the full ladder (regular + augmented per tier).
    pub fn train(spec: &StillSpec, seed: u64) -> Self {
        let dataset = generate_stills(spec, seed);
        let png_thumb = InputFormat::Thumbnail {
            short: spec.acc_thumb_short,
            codec: ThumbCodec::Lossless,
        };
        let models = Tier::ladder()
            .into_iter()
            .map(|tier| {
                let reg = SmolClassifier::train(
                    &ClassifierConfig::new(tier),
                    &dataset.train,
                    &dataset.train_labels,
                    dataset.n_classes,
                );
                let aug = SmolClassifier::train(
                    &ClassifierConfig::new(tier).with_augmentation(png_thumb),
                    &dataset.train,
                    &dataset.train_labels,
                    dataset.n_classes,
                );
                (tier, reg, aug)
            })
            .collect();
        ModelZoo {
            dataset,
            thumb_short: spec.acc_thumb_short,
            models,
        }
    }

    /// Accuracy of a tier's model on a throughput-variant's format; Smol
    /// uses the augmented model on thumbnails, the regular model otherwise.
    pub fn accuracy(&self, tier: Tier, kind: VariantKind, augmented: bool) -> f64 {
        let (_, reg, aug) = self
            .models
            .iter()
            .find(|(t, _, _)| *t == tier)
            .expect("tier trained");
        let model = if augmented && kind.is_thumbnail() {
            aug
        } else {
            reg
        };
        model.evaluate(
            &self.dataset.test,
            &self.dataset.test_labels,
            kind.accuracy_format(self.thumb_short),
        )
    }

    pub fn model(&self, tier: Tier, augmented: bool) -> &SmolClassifier {
        let (_, reg, aug) = self
            .models
            .iter()
            .find(|(t, _, _)| *t == tier)
            .expect("tier trained");
        if augmented {
            aug
        } else {
            reg
        }
    }
}

/// Maps a classifier tier onto the virtual-accelerator model used for its
/// throughput accounting.
pub fn tier_model(tier: Tier) -> ModelKind {
    match tier {
        Tier::T18 => ModelKind::ResNet18,
        Tier::T34 => ModelKind::ResNet34,
        Tier::T50 => ModelKind::ResNet50,
    }
}

/// Standard T4 + TensorRT device at real time scale.
pub fn t4_device() -> VirtualDevice {
    VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 1.0)
}

/// The default planner used by the harnesses.
pub fn default_planner() -> Planner {
    Planner::new(PlannerConfig::default())
}

/// Builds a single-model plan without profiling (for pipeline-only runs).
pub fn simple_plan(
    planner: &Planner,
    model: ModelKind,
    input: InputVariant,
    batch: usize,
) -> QueryPlan {
    QueryPlan {
        dnn: model,
        input: input.clone(),
        preproc: planner.build_preproc(&input),
        decode: planner.decode_mode(&input),
        batch,
    }
}

/// Runs `plan` over `items` as one query on the engine
/// ([`Server::run_once`]). An experiment that lost an item measured
/// something else, so a production error panics here — the one check
/// every one-shot binary shares.
pub fn run_once(
    device: &VirtualDevice,
    opts: RuntimeOptions,
    plan: &QueryPlan,
    items: Vec<MediaItem>,
) -> QueryReport {
    let report = Server::run_once(device, opts, plan, items).expect("the plan is executable");
    assert!(
        report.error.is_none(),
        "{}: {} failed, {} skipped: {:?}",
        report.label,
        report.failed,
        report.skipped,
        report.error
    );
    report
}

/// A non-optimizing planner (lesion baselines): standard preprocessing,
/// full decode.
pub fn naive_planner() -> Planner {
    Planner::new(PlannerConfig {
        enable_dag_opt: false,
        ..Default::default()
    })
}

/// Decode-mode helper for printing. Deliberately exhaustive (no `_` arm):
/// a new `DecodeMode` variant must fail to compile here rather than
/// silently mislabel a report.
pub fn decode_label(mode: &DecodeMode) -> String {
    match mode {
        DecodeMode::Full => "full".to_string(),
        DecodeMode::CentralRoi { crop_w, crop_h } => format!("roi {crop_w}x{crop_h}"),
        DecodeMode::ReducedResolution { factor } => format!("1/{factor} scaled-idct"),
        DecodeMode::Video { selection, deblock } => {
            let sel = match selection {
                smol_core::FrameSelection::All => "all frames".to_string(),
                smol_core::FrameSelection::Keyframes => "keyframes".to_string(),
                smol_core::FrameSelection::Stride(n) => format!("every {n}th frame"),
            };
            format!("{sel}{}", if *deblock { "" } else { ", no deblock" })
        }
    }
}
