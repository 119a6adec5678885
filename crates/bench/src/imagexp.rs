//! Shared engine for the image-analytics experiments (Figures 4–6): one
//! per-dataset context ([`StillExperiment`]) from which the naive baseline,
//! Tahoma and Smol (accuracy, throughput) points are all derived, under
//! configurable optimization toggles.
//!
//! Accuracy comes from really-trained models ([`ModelZoo`], cascades);
//! throughput combines pipelined-profiled preprocessing rates with the
//! calibrated device execution rates through the validated `min` cost model
//! (Table 3 / §8.2 validate that model against full pipeline runs).

use crate::context::{tier_model, ModelZoo, VariantKind, VariantSet, VCPUS};
use crate::measure::measure;
use smol_accel::{throughput as model_throughput, ExecutionEnv, GpuModel, ModelKind};
use smol_core::{cascade_exec_throughput, CascadeStage, Planner, PlannerConfig};
use smol_data::StillSpec;
use smol_nn::{InputFormat, Tier};
use std::collections::HashMap;
use std::sync::Arc;

/// One (accuracy, throughput) point in a Figure-4-style plot.
#[derive(Debug, Clone)]
pub struct Point {
    pub system: &'static str,
    pub config: String,
    pub accuracy: f64,
    pub throughput: f64,
}

/// Which Smol optimizations are active (the Figure 5/6 toggles).
#[derive(Debug, Clone, Copy)]
pub struct Toggles {
    pub low_res: bool,
    pub preproc_opt: bool,
}

impl Toggles {
    pub fn all() -> Self {
        Toggles {
            low_res: true,
            preproc_opt: true,
        }
    }
}

fn exec_rate(tier: Tier) -> f64 {
    model_throughput(tier_model(tier), GpuModel::T4, ExecutionEnv::TensorRt, 64)
}

/// Everything Figures 4, 5 and 6 read for one dataset, built once: the
/// trained model zoo, the profiled preprocessing rates, and Smol's
/// accuracy per (tier, variant).
pub struct StillExperiment {
    pub zoo: ModelZoo,
    /// Preprocessing im/s per (variant, DAG optimizations on).
    rates: HashMap<(VariantKind, bool), f64>,
    /// Augmented models on thumbnails, regular ones on full resolution.
    accuracy: HashMap<(Tier, VariantKind), f64>,
}

impl StillExperiment {
    /// Trains the zoo and profiles `n_images` throughput-track images in
    /// every variant, with the DAG optimizations off and on paired by the
    /// shared estimator.
    pub fn new(spec: &StillSpec, n_images: usize) -> Self {
        let zoo = ModelZoo::train(spec, 42);
        let set = VariantSet::build(spec, n_images, 13);
        let planners = [false, true].map(|opt| {
            Planner::new(PlannerConfig {
                enable_dag_opt: opt,
                ..Default::default()
            })
        });
        let mut rates = HashMap::new();
        let mut accuracy = HashMap::new();
        for kind in VariantKind::all() {
            let secs_per_image =
                |p: &Planner| 1.0 / set.plan_and_profile(p, ModelKind::ResNet50, kind, VCPUS).1;
            let paired = measure(
                || secs_per_image(&planners[0]),
                || secs_per_image(&planners[1]),
            );
            rates.insert((kind, false), 1.0 / paired.a);
            rates.insert((kind, true), 1.0 / paired.b);
            for tier in Tier::ladder() {
                accuracy.insert((tier, kind), zoo.accuracy(tier, kind, true));
            }
        }
        StillExperiment {
            zoo,
            rates,
            accuracy,
        }
    }

    /// Profiled preprocessing throughput of a variant.
    fn rate(&self, kind: VariantKind, preproc_opt: bool) -> f64 {
        self.rates[&(kind, preproc_opt)]
    }

    /// The naive baseline: standard ResNets on full-resolution data,
    /// standard (unoptimized) preprocessing.
    pub fn naive_points(&self) -> Vec<Point> {
        let preproc = self.rate(VariantKind::FullRes, false);
        Tier::ladder()
            .into_iter()
            .map(|tier| Point {
                system: "naive",
                config: tier.name().to_string(),
                accuracy: self.accuracy[&(tier, VariantKind::FullRes)],
                throughput: preproc.min(exec_rate(tier)),
            })
            .collect()
    }

    /// Smol: the D × F product under the given toggles; augmented models on
    /// thumbnails, ROI/DAG-optimized preprocessing when enabled.
    pub fn smol_points(&self, toggles: Toggles) -> Vec<Point> {
        let mut points = Vec::new();
        for kind in VariantKind::all() {
            if kind.is_thumbnail() && !toggles.low_res {
                continue;
            }
            let preproc = self.rate(kind, toggles.preproc_opt);
            for tier in Tier::ladder() {
                points.push(Point {
                    system: "SMOL",
                    config: format!("{} @ {}", tier.name(), kind.label()),
                    accuracy: self.accuracy[&(tier, kind)],
                    throughput: preproc.min(exec_rate(tier)),
                });
            }
        }
        points
    }

    /// Tahoma: eight specialized-CNN cascades into the target model (four
    /// in quick mode), on full-resolution data with standard preprocessing.
    /// Cascade overheads (extra resize + copy per passed image,
    /// Appendix/§8.3) are charged on the CPU side.
    pub fn tahoma_points(&self, quick: bool, seed: u64) -> Vec<Point> {
        let zoo = &self.zoo;
        let target = Arc::new(zoo.model(Tier::T50, false).clone());
        let variants = smol_analytics::tahoma_variants();
        let take = if quick { 4 } else { variants.len() };
        let preproc = self.rate(VariantKind::FullRes, false);
        let target_rate = exec_rate(Tier::T50);
        let spec_rate = model_throughput(
            ModelKind::TahomaSmall,
            GpuModel::T4,
            ExecutionEnv::TensorRt,
            256,
        );
        variants
            .into_iter()
            .take(take)
            .enumerate()
            .map(|(i, variant)| {
                let cascade = smol_analytics::Cascade::train(
                    variant,
                    target.clone(),
                    &zoo.dataset.train,
                    &zoo.dataset.train_labels,
                    zoo.dataset.n_classes,
                    seed + i as u64,
                );
                let eval = cascade.evaluate(
                    &zoo.dataset.test,
                    &zoo.dataset.test_labels,
                    InputFormat::FullRes,
                );
                let stages = vec![
                    CascadeStage::new(spec_rate, 1.0),
                    CascadeStage::new(target_rate, eval.pass_rate),
                ];
                let exec = cascade_exec_throughput(&stages);
                // Passed images are re-preprocessed for the target's input
                // resolution and copied again (§8.3's "coalescing and
                // further preprocessing operations").
                let cascade_cpu = 1.0 / (1.0 / preproc * (1.0 + 0.5 * eval.pass_rate));
                Point {
                    system: "Tahoma",
                    config: format!(
                        "{}@{}px thr {:.2}",
                        variant.tier.name(),
                        variant.input_size,
                        variant.threshold
                    ),
                    accuracy: eval.accuracy,
                    throughput: cascade_cpu.min(exec),
                }
            })
            .collect()
    }
}

/// Pareto frontier over points (max throughput per accuracy level).
pub fn pareto(points: &[Point]) -> Vec<Point> {
    let mut sorted: Vec<Point> = points.to_vec();
    sorted.sort_by(|a, b| {
        b.throughput
            .partial_cmp(&a.throughput)
            .expect("finite")
            .then(b.accuracy.partial_cmp(&a.accuracy).expect("finite"))
    });
    let mut out: Vec<Point> = Vec::new();
    let mut best = f64::NEG_INFINITY;
    for p in sorted {
        if p.accuracy > best {
            best = p.accuracy;
            out.push(p);
        }
    }
    out
}

/// The highest throughput on a set of points.
pub fn peak(points: &[Point]) -> f64 {
    points.iter().map(|p| p.throughput).fold(0.0, f64::max)
}

/// Max speedup of `ours` over each `baseline` point at no accuracy loss:
/// returns (baseline config, baseline tput, best tput, speedup).
pub fn speedup_at_fixed_accuracy(
    ours: &[Point],
    baseline: &[Point],
) -> Vec<(String, f64, f64, f64)> {
    baseline
        .iter()
        .map(|b| {
            let best = ours
                .iter()
                .filter(|p| p.accuracy >= b.accuracy - 1e-9)
                .map(|p| p.throughput)
                .fold(0.0f64, f64::max);
            (b.config.clone(), b.throughput, best, best / b.throughput)
        })
        .collect()
}
