//! End-to-end image classifiers: random-conv backbone + trained MLP head.
//!
//! [`Tier`] is the capacity ladder standing in for ResNet depth (§5.1's
//! expanded search space); training supports the paper's low-resolution
//! augmentation (§5.3) by unioning the full-resolution training set with
//! format-materialized copies.

use crate::augment::InputFormat;
use crate::backbone::RandomConvBackbone;
use crate::mlp::{Mlp, TrainParams};
use smol_imgproc::ImageU8;

/// Model-capacity tiers standing in for ResNet-18/34/50.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Stand-in for ResNet-18: small backbone, linear head.
    T18,
    /// Stand-in for ResNet-34: medium backbone, small hidden layer.
    T34,
    /// Stand-in for ResNet-50: large backbone, larger hidden layer.
    T50,
}

impl Tier {
    pub fn name(&self) -> &'static str {
        match self {
            Tier::T18 => "SmolNet-18",
            Tier::T34 => "SmolNet-34",
            Tier::T50 => "SmolNet-50",
        }
    }

    /// Number of random-conv filters in the backbone.
    fn backbone_filters(&self) -> usize {
        match self {
            Tier::T18 => 24,
            Tier::T34 => 48,
            Tier::T50 => 96,
        }
    }

    /// Hidden-layer width (0 = linear head).
    fn hidden_width(&self) -> usize {
        match self {
            Tier::T18 => 0,
            Tier::T34 => 64,
            Tier::T50 => 128,
        }
    }

    pub fn ladder() -> [Tier; 3] {
        [Tier::T18, Tier::T34, Tier::T50]
    }
}

/// Training configuration for a classifier.
#[derive(Debug, Clone)]
pub struct ClassifierConfig {
    pub tier: Tier,
    /// Square input edge the backbone sees (the miniature analogue of 224).
    pub input_size: usize,
    /// Head-training hyper-parameters.
    pub train: TrainParams,
    /// Additional input formats whose materializations are unioned into the
    /// training set (the paper's low-resolution augmentation, §5.3). Empty =
    /// regular training.
    pub augment_formats: Vec<InputFormat>,
    /// Seed for the fixed backbone.
    pub backbone_seed: u64,
}

impl ClassifierConfig {
    pub fn new(tier: Tier) -> Self {
        ClassifierConfig {
            tier,
            input_size: 32,
            train: TrainParams::default(),
            augment_formats: Vec::new(),
            backbone_seed: 0xBACC_B04E,
        }
    }

    /// Enables low-resolution-aware training for the given format.
    pub fn with_augmentation(mut self, format: InputFormat) -> Self {
        self.augment_formats.push(format);
        self
    }
}

/// A trained classifier.
#[derive(Debug, Clone)]
pub struct SmolClassifier {
    tier: Tier,
    input_size: usize,
    backbone: RandomConvBackbone,
    head: Mlp,
}

impl SmolClassifier {
    /// Trains a classifier on native-resolution images.
    pub fn train(
        cfg: &ClassifierConfig,
        images: &[ImageU8],
        labels: &[usize],
        n_classes: usize,
    ) -> Self {
        assert_eq!(images.len(), labels.len());
        assert!(n_classes >= 2);
        let backbone =
            RandomConvBackbone::new(cfg.backbone_seed, cfg.tier.backbone_filters(), 5, 2, 3);
        // Training set: full-res materializations plus any augmentation
        // formats (the paper's low-resolution-aware procedure).
        let mut formats = vec![InputFormat::FullRes];
        formats.extend(cfg.augment_formats.iter().copied());
        let mut features = Vec::with_capacity(images.len() * formats.len());
        let mut ys = Vec::with_capacity(images.len() * formats.len());
        for fmt in &formats {
            for (img, &y) in images.iter().zip(labels) {
                let seen = fmt.materialize(img, cfg.input_size);
                features.push(backbone.extract(&seen));
                ys.push(y);
            }
        }
        let dim = backbone.feature_dim();
        let sizes: Vec<usize> = if cfg.tier.hidden_width() == 0 {
            vec![dim, n_classes]
        } else {
            vec![dim, cfg.tier.hidden_width(), n_classes]
        };
        let mut head = Mlp::new(&sizes, cfg.train.seed);
        head.train(&features, &ys, &cfg.train);
        SmolClassifier {
            tier: cfg.tier,
            input_size: cfg.input_size,
            backbone,
            head,
        }
    }

    pub fn tier(&self) -> Tier {
        self.tier
    }

    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Extracts backbone features for an image already materialized to the
    /// model input (used by callers that manage formats themselves).
    pub fn features(&self, seen: &ImageU8) -> Vec<f32> {
        self.backbone.extract(seen)
    }

    /// Predicts the class of a native image as observed through `format`.
    pub fn predict(&self, native: &ImageU8, format: InputFormat) -> usize {
        let seen = format.materialize(native, self.input_size);
        self.head.predict(&self.backbone.extract(&seen))
    }

    /// Class probabilities for a native image observed through `format`.
    pub fn predict_probs(&self, native: &ImageU8, format: InputFormat) -> Vec<f32> {
        let seen = format.materialize(native, self.input_size);
        self.head.predict_probs(&self.backbone.extract(&seen))
    }

    /// Top-1 accuracy of the classifier on native images observed through
    /// `format`.
    pub fn evaluate(&self, images: &[ImageU8], labels: &[usize], format: InputFormat) -> f64 {
        if images.is_empty() {
            return 0.0;
        }
        let correct = images
            .iter()
            .zip(labels)
            .filter(|(img, &y)| self.predict(img, format) == y)
            .count();
        correct as f64 / images.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::ThumbCodec;
    use smol_imgproc::rng::Rng;

    /// Tiny 3-class texture dataset: classes differ in stripe orientation
    /// and stripe frequency (high-frequency content matters).
    fn texture_dataset(n_per_class: usize, seed: u64) -> (Vec<ImageU8>, Vec<usize>) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut imgs = Vec::new();
        let mut labels = Vec::new();
        for class in 0..3usize {
            for _ in 0..n_per_class {
                let mut img = ImageU8::zeros(48, 48, 3);
                let phase: f64 = rng.f64() * 10.0;
                for y in 0..48 {
                    for x in 0..48 {
                        let t = match class {
                            0 => (x as f64 / 3.0 + phase).sin(),
                            1 => (y as f64 / 3.0 + phase).sin(),
                            _ => ((x + y) as f64 / 1.5 + phase).sin(),
                        };
                        let v = ((t * 0.5 + 0.5) * 200.0 + 20.0) as u8;
                        let noise = (rng.f64() * 20.0) as u8;
                        img.set(x, y, 0, v.saturating_add(noise));
                        img.set(x, y, 1, v);
                        img.set(x, y, 2, 255 - v);
                    }
                }
                imgs.push(img);
                labels.push(class);
            }
        }
        (imgs, labels)
    }

    #[test]
    fn classifier_learns_textures() {
        let (train_x, train_y) = texture_dataset(30, 1);
        let (test_x, test_y) = texture_dataset(15, 2);
        let cfg = ClassifierConfig::new(Tier::T34);
        let clf = SmolClassifier::train(&cfg, &train_x, &train_y, 3);
        let acc = clf.evaluate(&test_x, &test_y, InputFormat::FullRes);
        assert!(acc > 0.8, "acc={acc}");
    }

    #[test]
    fn low_res_aug_training_recovers_low_res_accuracy() {
        let (train_x, train_y) = texture_dataset(30, 3);
        let (test_x, test_y) = texture_dataset(15, 4);
        let thumb = InputFormat::Thumbnail {
            short: 16,
            codec: ThumbCodec::Lossless,
        };
        let reg = SmolClassifier::train(&ClassifierConfig::new(Tier::T34), &train_x, &train_y, 3);
        let aug = SmolClassifier::train(
            &ClassifierConfig::new(Tier::T34).with_augmentation(thumb),
            &train_x,
            &train_y,
            3,
        );
        let reg_low = reg.evaluate(&test_x, &test_y, thumb);
        let aug_low = aug.evaluate(&test_x, &test_y, thumb);
        assert!(
            aug_low >= reg_low,
            "augmented training must not hurt low-res accuracy: reg={reg_low} aug={aug_low}"
        );
    }

    #[test]
    fn probs_sum_to_one_and_match_prediction() {
        let (train_x, train_y) = texture_dataset(10, 5);
        let clf = SmolClassifier::train(&ClassifierConfig::new(Tier::T18), &train_x, &train_y, 3);
        let p = clf.predict_probs(&train_x[0], InputFormat::FullRes);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        let pred = clf.predict(&train_x[0], InputFormat::FullRes);
        assert_eq!(crate::mlp::argmax(&p), pred);
    }

    #[test]
    fn tier_capacity_increases() {
        assert!(Tier::T50.backbone_filters() > Tier::T34.backbone_filters());
        assert!(Tier::T34.backbone_filters() > Tier::T18.backbone_filters());
    }

    #[test]
    fn deterministic_training() {
        let (train_x, train_y) = texture_dataset(10, 6);
        let cfg = ClassifierConfig::new(Tier::T18);
        let a = SmolClassifier::train(&cfg, &train_x, &train_y, 3);
        let b = SmolClassifier::train(&cfg, &train_x, &train_y, 3);
        for img in &train_x {
            assert_eq!(
                a.predict(img, InputFormat::FullRes),
                b.predict(img, InputFormat::FullRes)
            );
        }
    }
}
