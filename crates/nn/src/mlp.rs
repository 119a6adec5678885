//! Multi-layer perceptron head trained with mini-batch SGD.

use crate::dense::{relu_backward, relu_forward, softmax_xent, Dense};
use smol_imgproc::rng::Rng;

/// An MLP classifier head: `input → [hidden ReLU]* → logits`.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
}

/// Hyper-parameters for head training.
#[derive(Debug, Clone, Copy)]
pub struct TrainParams {
    pub epochs: usize,
    pub batch: usize,
    pub lr: f32,
    pub momentum: f32,
    pub weight_decay: f32,
    pub seed: u64,
    /// Multiplicative LR decay applied each epoch.
    pub lr_decay: f32,
}

impl Default for TrainParams {
    fn default() -> Self {
        TrainParams {
            epochs: 12,
            batch: 32,
            lr: 0.15,
            momentum: 0.9,
            weight_decay: 1e-4,
            seed: 0,
            lr_decay: 0.9,
        }
    }
}

impl Mlp {
    /// Builds an MLP with the given layer sizes, e.g. `[in, hidden, classes]`
    /// or `[in, classes]` for a linear model.
    pub fn new(sizes: &[usize], seed: u64) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output dims");
        let mut rng = Rng::seed_from_u64(seed);
        let layers = sizes
            .windows(2)
            .map(|w| Dense::new(w[0], w[1], &mut rng))
            .collect();
        Mlp { layers }
    }

    pub fn n_classes(&self) -> usize {
        self.layers.last().expect("nonempty").out_dim
    }

    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Forward pass; returns logits.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut cur = x.to_vec();
        for (i, layer) in self.layers.iter().enumerate() {
            let mut out = vec![0.0f32; layer.out_dim];
            layer.forward(&cur, &mut out);
            if i + 1 < self.layers.len() {
                relu_forward(&mut out);
            }
            cur = out;
        }
        cur
    }

    /// Predicted class for one feature vector.
    pub fn predict(&self, x: &[f32]) -> usize {
        let logits = self.forward(x);
        argmax(&logits)
    }

    /// Softmax class probabilities.
    pub fn predict_probs(&self, x: &[f32]) -> Vec<f32> {
        let logits = self.forward(x);
        let mut probs = vec![0.0f32; logits.len()];
        // Label 0 is arbitrary; we only need the probabilities.
        softmax_xent(&logits, 0, &mut probs);
        probs
    }

    /// Trains on cached feature vectors; returns the final average loss.
    pub fn train(&mut self, features: &[Vec<f32>], labels: &[usize], params: &TrainParams) -> f32 {
        assert_eq!(features.len(), labels.len());
        assert!(!features.is_empty(), "empty training set");
        let n = features.len();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = Rng::seed_from_u64(params.seed.wrapping_add(0x5EED));
        let mut lr = params.lr;
        let mut final_loss = f32::INFINITY;
        // Per-layer activation and gradient scratch.
        let depth = self.layers.len();
        for _epoch in 0..params.epochs {
            rng.shuffle(&mut order);
            let mut total_loss = 0.0f32;
            for chunk in order.chunks(params.batch) {
                for &idx in chunk {
                    let x = &features[idx];
                    let y = labels[idx];
                    // Forward, keeping activations.
                    let mut acts: Vec<Vec<f32>> = Vec::with_capacity(depth + 1);
                    acts.push(x.clone());
                    for (i, layer) in self.layers.iter().enumerate() {
                        let mut out = vec![0.0f32; layer.out_dim];
                        layer.forward(acts.last().expect("pushed"), &mut out);
                        if i + 1 < depth {
                            relu_forward(&mut out);
                        }
                        acts.push(out);
                    }
                    let logits = acts.last().expect("pushed");
                    let mut probs = vec![0.0f32; logits.len()];
                    total_loss += softmax_xent(logits, y, &mut probs);
                    // Backward.
                    let mut grad = probs;
                    grad[y] -= 1.0;
                    for i in (0..depth).rev() {
                        let mut grad_in = if i > 0 {
                            vec![0.0f32; self.layers[i].in_dim]
                        } else {
                            Vec::new()
                        };
                        self.layers[i].backward(&acts[i], &grad, &mut grad_in);
                        if i > 0 {
                            relu_backward(&acts[i], &mut grad_in);
                            grad = grad_in;
                        }
                    }
                }
                for layer in &mut self.layers {
                    layer.sgd_step(lr, params.momentum, params.weight_decay, chunk.len());
                }
            }
            final_loss = total_loss / n as f32;
            lr *= params.lr_decay;
        }
        final_loss
    }

    /// Top-1 accuracy over cached features.
    pub fn accuracy(&self, features: &[Vec<f32>], labels: &[usize]) -> f64 {
        if features.is_empty() {
            return 0.0;
        }
        let correct = features
            .iter()
            .zip(labels)
            .filter(|(x, &y)| self.predict(x) == y)
            .count();
        correct as f64 / features.len() as f64
    }
}

/// Index of the maximum element.
pub fn argmax(v: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two Gaussian blobs in 8-D.
    fn blobs(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            let class = i % 2;
            let center = if class == 0 { 0.5 } else { -0.5 };
            let x: Vec<f32> = (0..8).map(|_| center + (rng.f32() - 0.5) * 0.8).collect();
            xs.push(x);
            ys.push(class);
        }
        (xs, ys)
    }

    #[test]
    fn linear_mlp_learns_blobs() {
        let (xs, ys) = blobs(200, 3);
        let mut mlp = Mlp::new(&[8, 2], 0);
        mlp.train(&xs, &ys, &TrainParams::default());
        assert!(mlp.accuracy(&xs, &ys) > 0.95);
    }

    #[test]
    fn hidden_layer_learns_xor_like_problem() {
        // XOR of the signs of the first two dims: not linearly separable.
        // Quadrants are cycled deterministically so the classes are
        // exactly balanced — the 0.75 linear ceiling below only holds for
        // balanced XOR (with imbalance, the best line can exceed it).
        let mut rng = Rng::seed_from_u64(11);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..400 {
            let a: f32 = if i % 2 == 0 { 1.0 } else { -1.0 };
            let b: f32 = if (i / 2) % 2 == 0 { 1.0 } else { -1.0 };
            let mut noise = || (rng.f32() - 0.5) * 0.2;
            xs.push(vec![a + noise(), b + noise()]);
            ys.push(((a > 0.0) ^ (b > 0.0)) as usize);
        }
        let mut linear = Mlp::new(&[2, 2], 1);
        let mut deep = Mlp::new(&[2, 16, 2], 1);
        let params = TrainParams {
            epochs: 60,
            lr: 0.1,
            ..Default::default()
        };
        linear.train(&xs, &ys, &params);
        deep.train(&xs, &ys, &params);
        let lin_acc = linear.accuracy(&xs, &ys);
        let deep_acc = deep.accuracy(&xs, &ys);
        assert!(lin_acc < 0.75, "linear cannot solve XOR: {lin_acc}");
        assert!(deep_acc > 0.9, "hidden layer should solve XOR: {deep_acc}");
    }

    #[test]
    fn training_is_deterministic_for_fixed_seed() {
        let (xs, ys) = blobs(100, 5);
        let mut a = Mlp::new(&[8, 2], 9);
        let mut b = Mlp::new(&[8, 2], 9);
        let params = TrainParams::default();
        a.train(&xs, &ys, &params);
        b.train(&xs, &ys, &params);
        for (x, _) in xs.iter().zip(&ys) {
            assert_eq!(a.predict(x), b.predict(x));
        }
    }

    #[test]
    fn probs_are_normalized() {
        let mlp = Mlp::new(&[4, 3], 2);
        let p = mlp.predict_probs(&[0.1, 0.2, 0.3, 0.4]);
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn param_count_correct() {
        let mlp = Mlp::new(&[10, 20, 5], 0);
        assert_eq!(mlp.param_count(), 10 * 20 + 20 + 20 * 5 + 5);
    }

    #[test]
    fn argmax_basic() {
        assert_eq!(argmax(&[0.1, 0.9, 0.5]), 1);
        assert_eq!(argmax(&[2.0]), 0);
    }
}
