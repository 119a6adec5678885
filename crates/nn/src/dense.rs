//! Fully-connected layer with SGD+momentum training.

use smol_imgproc::rng::Rng;

/// A dense (fully-connected) layer `out = W·x + b`.
///
/// Weights are stored row-major: `w[o * in_dim + i]`. Gradients accumulate
/// across a mini-batch and are applied by [`Dense::sgd_step`].
#[derive(Debug, Clone)]
pub struct Dense {
    pub in_dim: usize,
    pub out_dim: usize,
    w: Vec<f32>,
    b: Vec<f32>,
    grad_w: Vec<f32>,
    grad_b: Vec<f32>,
    vel_w: Vec<f32>,
    vel_b: Vec<f32>,
}

impl Dense {
    /// He-uniform initialization for ReLU networks: `U(-b, b)` with
    /// `b = sqrt(6 / fan_in)`, whose variance matches He-normal's
    /// `2 / fan_in` (a uniform bound of `sqrt(2 / fan_in)` yields only a
    /// third of that variance and starves deep heads of gradient signal).
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut Rng) -> Self {
        let scale = (6.0 / in_dim as f32).sqrt();
        let w = (0..in_dim * out_dim)
            .map(|_| (rng.f32() * 2.0 - 1.0) * scale)
            .collect();
        Dense {
            in_dim,
            out_dim,
            w,
            b: vec![0.0; out_dim],
            grad_w: vec![0.0; in_dim * out_dim],
            grad_b: vec![0.0; out_dim],
            vel_w: vec![0.0; in_dim * out_dim],
            vel_b: vec![0.0; out_dim],
        }
    }

    /// Forward pass for one sample.
    pub fn forward(&self, x: &[f32], out: &mut [f32]) {
        debug_assert_eq!(x.len(), self.in_dim);
        debug_assert_eq!(out.len(), self.out_dim);
        for (o, out_v) in out.iter_mut().enumerate() {
            let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
            let mut acc = self.b[o];
            for (wi, xi) in row.iter().zip(x) {
                acc += wi * xi;
            }
            *out_v = acc;
        }
    }

    /// Backward pass for one sample: accumulates gradients and writes
    /// dL/dx into `grad_in` (pass an empty slice to skip input gradients
    /// for the first layer).
    pub fn backward(&mut self, x: &[f32], grad_out: &[f32], grad_in: &mut [f32]) {
        debug_assert_eq!(grad_out.len(), self.out_dim);
        for (o, &go) in grad_out.iter().enumerate() {
            self.grad_b[o] += go;
            let row = &mut self.grad_w[o * self.in_dim..(o + 1) * self.in_dim];
            for (gw, xi) in row.iter_mut().zip(x) {
                *gw += go * xi;
            }
        }
        if !grad_in.is_empty() {
            debug_assert_eq!(grad_in.len(), self.in_dim);
            grad_in.fill(0.0);
            for (o, &go) in grad_out.iter().enumerate() {
                let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
                for (gi, wi) in grad_in.iter_mut().zip(row) {
                    *gi += go * wi;
                }
            }
        }
    }

    /// Applies accumulated gradients (averaged over `batch` samples) with
    /// momentum and weight decay, then clears them.
    pub fn sgd_step(&mut self, lr: f32, momentum: f32, weight_decay: f32, batch: usize) {
        let inv = 1.0 / batch.max(1) as f32;
        for i in 0..self.w.len() {
            let g = self.grad_w[i] * inv + weight_decay * self.w[i];
            self.vel_w[i] = momentum * self.vel_w[i] - lr * g;
            self.w[i] += self.vel_w[i];
            self.grad_w[i] = 0.0;
        }
        for i in 0..self.b.len() {
            let g = self.grad_b[i] * inv;
            self.vel_b[i] = momentum * self.vel_b[i] - lr * g;
            self.b[i] += self.vel_b[i];
            self.grad_b[i] = 0.0;
        }
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }
}

/// In-place ReLU; returns a mask usable for the backward pass.
pub fn relu_forward(x: &mut [f32]) {
    for v in x {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// Backward of ReLU: zeroes gradients where the activation was clamped.
pub fn relu_backward(activated: &[f32], grad: &mut [f32]) {
    for (g, &a) in grad.iter_mut().zip(activated) {
        if a <= 0.0 {
            *g = 0.0;
        }
    }
}

/// Numerically-stable softmax + cross-entropy.
///
/// Writes softmax probabilities into `probs` and returns the loss; the
/// gradient w.r.t. logits is `probs - onehot(label)` (computed by caller).
pub fn softmax_xent(logits: &[f32], label: usize, probs: &mut [f32]) -> f32 {
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for (p, &l) in probs.iter_mut().zip(logits) {
        *p = (l - max).exp();
        sum += *p;
    }
    for p in probs.iter_mut() {
        *p /= sum;
    }
    -(probs[label].max(1e-12)).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_computes_affine() {
        let mut rng = Rng::seed_from_u64(1);
        let mut d = Dense::new(2, 2, &mut rng);
        d.w.copy_from_slice(&[1.0, 2.0, -1.0, 0.5]);
        d.b.copy_from_slice(&[0.1, -0.1]);
        let mut out = [0.0; 2];
        d.forward(&[3.0, 4.0], &mut out);
        assert!((out[0] - (3.0 + 8.0 + 0.1)).abs() < 1e-6);
        assert!((out[1] - (-3.0 + 2.0 - 0.1)).abs() < 1e-6);
    }

    #[test]
    fn gradient_check_numerical() {
        let mut rng = Rng::seed_from_u64(7);
        let mut d = Dense::new(3, 2, &mut rng);
        let x = [0.5f32, -0.3, 0.8];
        let label = 1usize;
        let eps = 1e-3f32;

        // Analytic gradient of one parameter.
        let mut logits = [0.0f32; 2];
        let mut probs = [0.0f32; 2];
        d.forward(&x, &mut logits);
        softmax_xent(&logits, label, &mut probs);
        let mut grad_out = probs;
        grad_out[label] -= 1.0;
        let mut sink = [0.0f32; 3];
        d.backward(&x, &grad_out, &mut sink);
        let analytic = d.grad_w[2]; // dL/dw[0][2]

        // Numerical gradient.
        let orig = d.w[2];
        d.w[2] = orig + eps;
        d.forward(&x, &mut logits);
        let lp = softmax_xent(&logits, label, &mut probs);
        d.w[2] = orig - eps;
        d.forward(&x, &mut logits);
        let lm = softmax_xent(&logits, label, &mut probs);
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 1e-2,
            "analytic={analytic} numeric={numeric}"
        );
    }

    #[test]
    fn sgd_reduces_loss_on_toy_problem() {
        let mut rng = Rng::seed_from_u64(42);
        let mut d = Dense::new(2, 2, &mut rng);
        // Linearly separable: class = x0 > x1.
        let data: Vec<([f32; 2], usize)> = vec![
            ([1.0, 0.0], 0),
            ([0.8, 0.1], 0),
            ([0.9, -0.5], 0),
            ([0.0, 1.0], 1),
            ([0.1, 0.9], 1),
            ([-0.5, 0.7], 1),
        ];
        let mut loss_first = 0.0;
        let mut loss_last = 0.0;
        for epoch in 0..200 {
            let mut total = 0.0;
            for (x, y) in &data {
                let mut logits = [0.0f32; 2];
                let mut probs = [0.0f32; 2];
                d.forward(x, &mut logits);
                total += softmax_xent(&logits, *y, &mut probs);
                let mut g = probs;
                g[*y] -= 1.0;
                d.backward(x, &g, &mut []);
                d.sgd_step(0.1, 0.9, 0.0, 1);
            }
            if epoch == 0 {
                loss_first = total;
            }
            loss_last = total;
        }
        assert!(
            loss_last < loss_first * 0.1,
            "first={loss_first} last={loss_last}"
        );
    }

    #[test]
    fn softmax_probs_sum_to_one() {
        let logits = [1.0f32, 2.0, 3.0, -4.0];
        let mut probs = [0.0f32; 4];
        let loss = softmax_xent(&logits, 2, &mut probs);
        let sum: f32 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(loss > 0.0);
        assert!(probs[2] > probs[0]);
    }

    #[test]
    fn relu_roundtrip() {
        let mut x = [1.0f32, -2.0, 0.0, 3.0];
        relu_forward(&mut x);
        assert_eq!(x, [1.0, 0.0, 0.0, 3.0]);
        let mut g = [1.0f32; 4];
        relu_backward(&x, &mut g);
        assert_eq!(g, [1.0, 0.0, 0.0, 1.0]);
    }
}
