//! Tahoma-style classification cascades (§3.2).
//!
//! A cascade pairs a cheap specialized classifier with the accurate target
//! model: confident specialized predictions are accepted, the rest pass
//! through to the target. Tahoma enumerates many cascade variants and
//! picks among them by accuracy/throughput; we train a representative set
//! of eight (the paper's evaluation also uses eight, §8.1).

use smol_core::CascadeStage;
use smol_imgproc::ImageU8;
use smol_nn::{ClassifierConfig, InputFormat, SmolClassifier, Tier, TrainParams};
use std::sync::Arc;

/// One cascade variant's static configuration.
#[derive(Debug, Clone, Copy)]
pub struct CascadeVariant {
    /// Specialized model capacity.
    pub tier: Tier,
    /// Specialized model input edge (smaller = cheaper, less accurate).
    pub input_size: usize,
    /// Confidence threshold above which the specialized answer is final.
    pub threshold: f32,
}

/// The eight representative Tahoma cascade variants (§8.1: "a
/// representative set of 8 models from Tahoma cascaded with ResNet-50").
pub fn tahoma_variants() -> Vec<CascadeVariant> {
    let mut v = Vec::new();
    for &(tier, input) in &[
        (Tier::T18, 16),
        (Tier::T18, 24),
        (Tier::T18, 32),
        (Tier::T34, 16),
        (Tier::T34, 24),
        (Tier::T34, 32),
        (Tier::T50, 16),
        (Tier::T50, 24),
    ] {
        v.push(CascadeVariant {
            tier,
            input_size: input,
            threshold: 0.85,
        });
    }
    v
}

/// A trained cascade.
pub struct Cascade {
    pub variant: CascadeVariant,
    specialized: SmolClassifier,
    target: Arc<SmolClassifier>,
}

/// Accuracy and pass-rate measurement of a cascade on a test set.
#[derive(Debug, Clone, Copy)]
pub struct CascadeEval {
    pub accuracy: f64,
    /// Fraction of inputs that reached the target model (Eq. 2's α for the
    /// second stage).
    pub pass_rate: f64,
}

impl Cascade {
    /// Trains the specialized stage; `target` is the shared accurate model.
    pub fn train(
        variant: CascadeVariant,
        target: Arc<SmolClassifier>,
        images: &[ImageU8],
        labels: &[usize],
        n_classes: usize,
        seed: u64,
    ) -> Self {
        let mut cfg = ClassifierConfig::new(variant.tier);
        cfg.input_size = variant.input_size;
        cfg.backbone_seed = seed ^ 0x7A40;
        cfg.train = TrainParams {
            seed,
            ..Default::default()
        };
        let specialized = SmolClassifier::train(&cfg, images, labels, n_classes);
        Cascade {
            variant,
            specialized,
            target,
        }
    }

    /// Predicts a label; returns `(label, reached_target)`.
    pub fn predict(&self, native: &ImageU8, format: InputFormat) -> (usize, bool) {
        let probs = self.specialized.predict_probs(native, format);
        let (best, conf) = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, &p)| (i, p))
            .expect("nonempty probs");
        if conf >= self.variant.threshold {
            (best, false)
        } else {
            (self.target.predict(native, format), true)
        }
    }

    /// Measures cascade accuracy and pass rate on a test set.
    pub fn evaluate(
        &self,
        images: &[ImageU8],
        labels: &[usize],
        format: InputFormat,
    ) -> CascadeEval {
        if images.is_empty() {
            return CascadeEval {
                accuracy: 0.0,
                pass_rate: 0.0,
            };
        }
        let mut correct = 0usize;
        let mut passed = 0usize;
        for (img, &y) in images.iter().zip(labels) {
            let (pred, reached) = self.predict(img, format);
            if pred == y {
                correct += 1;
            }
            if reached {
                passed += 1;
            }
        }
        CascadeEval {
            accuracy: correct as f64 / images.len() as f64,
            pass_rate: passed as f64 / images.len() as f64,
        }
    }

    /// The execution-stage list for the cost model (Eq. 2): the specialized
    /// stage sees everything; the target sees `pass_rate`.
    pub fn exec_stages(
        &self,
        eval: &CascadeEval,
        spec_throughput: f64,
        target_throughput: f64,
    ) -> Vec<CascadeStage> {
        vec![
            CascadeStage::new(spec_throughput, 1.0),
            CascadeStage::new(target_throughput, eval.pass_rate),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smol_imgproc::rng::Rng;

    fn striped_dataset(n_per_class: usize, seed: u64) -> (Vec<ImageU8>, Vec<usize>) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut imgs = Vec::new();
        let mut labels = Vec::new();
        for class in 0..2usize {
            for _ in 0..n_per_class {
                let mut img = ImageU8::zeros(48, 48, 3);
                let phase: f64 = rng.f64() * 6.0;
                for y in 0..48 {
                    for x in 0..48 {
                        let t = if class == 0 {
                            (x as f64 / 4.0 + phase).sin()
                        } else {
                            (y as f64 / 4.0 + phase).sin()
                        };
                        let v = ((t * 0.5 + 0.5) * 200.0 + 25.0) as u8;
                        let n = (rng.f64() * 25.0) as u8;
                        img.set(x, y, 0, v.saturating_add(n));
                        img.set(x, y, 1, v);
                        img.set(x, y, 2, v / 2);
                    }
                }
                imgs.push(img);
                labels.push(class);
            }
        }
        (imgs, labels)
    }

    fn target(images: &[ImageU8], labels: &[usize]) -> Arc<SmolClassifier> {
        Arc::new(SmolClassifier::train(
            &ClassifierConfig::new(Tier::T50),
            images,
            labels,
            2,
        ))
    }

    #[test]
    fn cascade_accuracy_between_spec_and_target() {
        let (train_x, train_y) = striped_dataset(40, 1);
        let (test_x, test_y) = striped_dataset(20, 2);
        let tgt = target(&train_x, &train_y);
        let tgt_acc = tgt.evaluate(&test_x, &test_y, InputFormat::FullRes);
        let cascade = Cascade::train(
            CascadeVariant {
                tier: Tier::T18,
                input_size: 16,
                threshold: 0.9,
            },
            tgt.clone(),
            &train_x,
            &train_y,
            2,
            5,
        );
        let eval = cascade.evaluate(&test_x, &test_y, InputFormat::FullRes);
        assert!(
            eval.accuracy >= tgt_acc - 0.1,
            "cascade {eval:?} vs target {tgt_acc}"
        );
        assert!(eval.pass_rate >= 0.0 && eval.pass_rate <= 1.0);
    }

    #[test]
    fn threshold_one_passes_everything() {
        let (train_x, train_y) = striped_dataset(20, 3);
        let tgt = target(&train_x, &train_y);
        let cascade = Cascade::train(
            CascadeVariant {
                tier: Tier::T18,
                input_size: 16,
                threshold: 1.1, // unreachable confidence
            },
            tgt,
            &train_x,
            &train_y,
            2,
            6,
        );
        let eval = cascade.evaluate(&train_x, &train_y, InputFormat::FullRes);
        assert_eq!(eval.pass_rate, 1.0);
    }

    #[test]
    fn threshold_zero_never_passes() {
        let (train_x, train_y) = striped_dataset(20, 4);
        let tgt = target(&train_x, &train_y);
        let cascade = Cascade::train(
            CascadeVariant {
                tier: Tier::T18,
                input_size: 16,
                threshold: 0.0,
            },
            tgt,
            &train_x,
            &train_y,
            2,
            7,
        );
        let eval = cascade.evaluate(&train_x, &train_y, InputFormat::FullRes);
        assert_eq!(eval.pass_rate, 0.0);
    }

    #[test]
    fn eight_variants_defined() {
        let variants = tahoma_variants();
        assert_eq!(variants.len(), 8);
        assert!(variants.iter().any(|v| v.input_size == 16));
        assert!(variants.iter().any(|v| v.input_size == 32));
    }

    #[test]
    fn exec_stages_reflect_pass_rate() {
        let (train_x, train_y) = striped_dataset(15, 8);
        let tgt = target(&train_x, &train_y);
        let cascade = Cascade::train(tahoma_variants()[0], tgt, &train_x, &train_y, 2, 9);
        let eval = CascadeEval {
            accuracy: 0.9,
            pass_rate: 0.25,
        };
        let stages = cascade.exec_stages(&eval, 120_000.0, 4_513.0);
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[1].selectivity, 0.25);
        let t = smol_core::cascade_exec_throughput(&stages);
        assert!(t < 4_513.0 / 0.25 && t > 4_513.0);
    }
}
