//! BlazeIt-style aggregation queries with specialized-NN control variates
//! (§3.2, §8.4).
//!
//! The query "average number of cars per frame" is answered by sampling:
//! the expensive target model (Mask R-CNN) labels a random sample of
//! frames, while a cheap specialized NN labels *every* frame. Because the
//! specialized predictions correlate with the truth, they serve as a
//! control variate: the estimator's variance shrinks by `(1 − ρ²)`, so
//! fewer target-model invocations reach a given error bound. A more
//! accurate specialized NN (higher ρ) and cheaper preprocessing
//! (low-resolution video) are exactly Smol's two levers in Figure 9.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use smol_imgproc::ImageU8;
use smol_nn::{ClassifierConfig, InputFormat, SmolClassifier, Tier, TrainParams};

/// Configuration for the sequential sampling estimator.
#[derive(Debug, Clone, Copy)]
pub struct AggregationConfig {
    /// Absolute error target on the mean count (Figure 9's x-axis).
    pub error_target: f64,
    /// Confidence level for the CI (0.95 in BlazeIt's experiments).
    pub confidence: f64,
    pub min_samples: usize,
    pub max_samples: usize,
    pub seed: u64,
}

impl Default for AggregationConfig {
    fn default() -> Self {
        AggregationConfig {
            error_target: 0.03,
            confidence: 0.95,
            min_samples: 30,
            max_samples: usize::MAX,
            seed: 0,
        }
    }
}

/// Result of an aggregation query.
#[derive(Debug, Clone, Copy)]
pub struct AggregationOutcome {
    pub estimate: f64,
    pub truth: f64,
    /// Target-model invocations used.
    pub samples: usize,
    pub ci_half_width: f64,
    /// Pearson correlation between specialized predictions and truth.
    pub rho: f64,
}

fn z_value(confidence: f64) -> f64 {
    // Common two-sided normal quantiles; interpolation is unnecessary for
    // the confidence levels used in the experiments.
    if confidence >= 0.99 {
        2.576
    } else if confidence >= 0.95 {
        1.96
    } else if confidence >= 0.9 {
        1.645
    } else {
        1.282
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Pearson correlation.
pub fn correlation(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    if n < 2 {
        return 0.0;
    }
    let (ma, mb) = (mean(&a[..n]), mean(&b[..n]));
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for i in 0..n {
        let da = a[i] - ma;
        let db = b[i] - mb;
        cov += da * db;
        va += da * da;
        vb += db * db;
    }
    if va <= 0.0 || vb <= 0.0 {
        0.0
    } else {
        cov / (va * vb).sqrt()
    }
}

/// Control-variate mean estimator with sequential sampling: draws target
/// labels (`truth[i]`, the oracle) for uniformly sampled frames until the
/// CI half-width reaches the error target.
///
/// `spec_preds` must cover every frame (the specialized NN ran over the
/// whole video during the scan phase).
pub fn control_variate_mean(
    truth: &[u32],
    spec_preds: &[f64],
    cfg: &AggregationConfig,
) -> AggregationOutcome {
    assert_eq!(truth.len(), spec_preds.len());
    assert!(!truth.is_empty());
    let n_total = truth.len();
    let spec_mean_all = mean(spec_preds);
    let z = z_value(cfg.confidence);
    let mut order: Vec<usize> = (0..n_total).collect();
    order.shuffle(&mut StdRng::seed_from_u64(cfg.seed));

    let mut ys: Vec<f64> = Vec::new();
    let mut ss: Vec<f64> = Vec::new();
    let mut estimate = 0.0;
    let mut half = f64::INFINITY;
    for (taken, &idx) in order.iter().enumerate() {
        ys.push(truth[idx] as f64);
        ss.push(spec_preds[idx]);
        let n = taken + 1;
        if n < cfg.min_samples.max(2) {
            continue;
        }
        // Optimal control-variate coefficient from the sample.
        let my = mean(&ys);
        let ms = mean(&ss);
        let mut cov = 0.0;
        let mut var_s = 0.0;
        for i in 0..n {
            cov += (ys[i] - my) * (ss[i] - ms);
            var_s += (ss[i] - ms) * (ss[i] - ms);
        }
        let c = if var_s > 1e-12 { cov / var_s } else { 0.0 };
        // Adjusted observations and their variance.
        let adj: Vec<f64> = (0..n)
            .map(|i| ys[i] - c * (ss[i] - spec_mean_all))
            .collect();
        estimate = mean(&adj);
        let var_adj = adj.iter().map(|v| (v - estimate).powi(2)).sum::<f64>() / (n - 1) as f64;
        half = z * (var_adj / n as f64).sqrt();
        if half <= cfg.error_target || n >= cfg.max_samples || n == n_total {
            break;
        }
    }
    let truth_f: Vec<f64> = truth.iter().map(|&v| v as f64).collect();
    AggregationOutcome {
        estimate,
        truth: mean(&truth_f),
        samples: ys.len(),
        ci_half_width: half,
        rho: correlation(&truth_f, spec_preds),
    }
}

/// Naive (no control variate) sequential sampling baseline.
pub fn naive_mean(truth: &[u32], cfg: &AggregationConfig) -> AggregationOutcome {
    assert!(!truth.is_empty());
    let z = z_value(cfg.confidence);
    let mut order: Vec<usize> = (0..truth.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(cfg.seed));
    let mut ys: Vec<f64> = Vec::new();
    let mut estimate = 0.0;
    let mut half = f64::INFINITY;
    for (taken, &idx) in order.iter().enumerate() {
        ys.push(truth[idx] as f64);
        let n = taken + 1;
        if n < cfg.min_samples.max(2) {
            continue;
        }
        estimate = mean(&ys);
        let var = ys.iter().map(|v| (v - estimate).powi(2)).sum::<f64>() / (n - 1) as f64;
        half = z * (var / n as f64).sqrt();
        if half <= cfg.error_target || n >= cfg.max_samples || n == truth.len() {
            break;
        }
    }
    let truth_f: Vec<f64> = truth.iter().map(|&v| v as f64).collect();
    AggregationOutcome {
        estimate,
        truth: mean(&truth_f),
        samples: ys.len(),
        ci_half_width: half,
        rho: 0.0,
    }
}

/// A specialized per-frame object counter: a classifier over count classes
/// (BlazeIt trains its "tiny ResNet" the same way).
pub struct SpecializedCounter {
    clf: SmolClassifier,
}

impl SpecializedCounter {
    /// Trains on `(frame, count)` pairs. `input_size` is the square edge
    /// the frames are materialized to — it must be large enough that the
    /// objects of interest remain visible (a real accuracy/cost knob of
    /// specialized NNs).
    pub fn train(
        frames: &[ImageU8],
        counts: &[u32],
        tier: Tier,
        input_size: usize,
        seed: u64,
        epochs: usize,
    ) -> Self {
        assert_eq!(frames.len(), counts.len());
        let max_count = counts.iter().copied().max().unwrap_or(0) as usize;
        let labels: Vec<usize> = counts.iter().map(|&c| c as usize).collect();
        let mut cfg = ClassifierConfig::new(tier);
        cfg.input_size = input_size;
        cfg.train = TrainParams {
            epochs,
            seed,
            ..Default::default()
        };
        cfg.backbone_seed = seed ^ 0xC0DE;
        let clf = SmolClassifier::train(&cfg, frames, &labels, max_count + 2);
        SpecializedCounter { clf }
    }

    /// Predicted count for a frame: the expected value under the class
    /// posterior (smoother than argmax, which matters for control-variate
    /// correlation — BlazeIt likewise uses the specialized NN's continuous
    /// output).
    pub fn predict(&self, frame: &ImageU8) -> f64 {
        let probs = self.clf.predict_probs(frame, InputFormat::FullRes);
        probs
            .iter()
            .enumerate()
            .map(|(k, &p)| k as f64 * p as f64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Synthetic autocorrelated counts plus a noisy "specialized" proxy.
    fn series(n: usize, noise: f64, seed: u64) -> (Vec<u32>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut level: f64 = 2.0;
        let mut truth = Vec::with_capacity(n);
        let mut spec = Vec::with_capacity(n);
        for _ in 0..n {
            level += rng.gen::<f64>() - 0.5;
            level = level.clamp(0.0, 8.0);
            let t = level.round().max(0.0) as u32;
            truth.push(t);
            spec.push(t as f64 + (rng.gen::<f64>() - 0.5) * noise);
        }
        (truth, spec)
    }

    #[test]
    fn control_variate_reduces_samples() {
        let (truth, spec) = series(20_000, 0.5, 1);
        let cfg = AggregationConfig {
            error_target: 0.05,
            seed: 2,
            ..Default::default()
        };
        let cv = control_variate_mean(&truth, &spec, &cfg);
        let naive = naive_mean(&truth, &cfg);
        assert!(
            cv.samples < naive.samples / 2,
            "cv={} naive={}",
            cv.samples,
            naive.samples
        );
        assert!(cv.rho > 0.9);
    }

    #[test]
    fn estimates_respect_error_target() {
        for seed in 0..5 {
            let (truth, spec) = series(30_000, 1.0, seed);
            let cfg = AggregationConfig {
                error_target: 0.05,
                seed: seed + 100,
                ..Default::default()
            };
            let cv = control_variate_mean(&truth, &spec, &cfg);
            // CI half-width met, and the actual error is within ~2 CI (the
            // bound holds with 95% probability; 2× gives slack).
            assert!(cv.ci_half_width <= 0.05 + 1e-9);
            assert!(
                (cv.estimate - cv.truth).abs() < 0.1,
                "estimate {} vs truth {} (seed {seed})",
                cv.estimate,
                cv.truth
            );
        }
    }

    #[test]
    fn better_specialized_nn_means_fewer_samples() {
        let (truth, good_spec) = series(20_000, 0.4, 3);
        let (_, bad_spec) = {
            let (t, s) = series(20_000, 4.0, 3);
            (t, s)
        };
        let cfg = AggregationConfig {
            error_target: 0.04,
            seed: 7,
            ..Default::default()
        };
        let good = control_variate_mean(&truth, &good_spec, &cfg);
        let bad = control_variate_mean(&truth, &bad_spec, &cfg);
        assert!(
            good.samples < bad.samples,
            "good={} bad={}",
            good.samples,
            bad.samples
        );
    }

    #[test]
    fn tighter_error_needs_more_samples() {
        let (truth, spec) = series(50_000, 1.0, 4);
        let loose = control_variate_mean(
            &truth,
            &spec,
            &AggregationConfig {
                error_target: 0.05,
                seed: 9,
                ..Default::default()
            },
        );
        let tight = control_variate_mean(
            &truth,
            &spec,
            &AggregationConfig {
                error_target: 0.01,
                seed: 9,
                ..Default::default()
            },
        );
        assert!(tight.samples > loose.samples * 2);
    }

    #[test]
    fn correlation_bounds() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        assert!((correlation(&a, &a) - 1.0).abs() < 1e-9);
        let b: Vec<f64> = a.iter().map(|v| -v).collect();
        assert!((correlation(&a, &b) + 1.0).abs() < 1e-9);
        assert_eq!(correlation(&a, &[1.0, 1.0, 1.0, 1.0]), 0.0);
    }
}
