//! Fixed random convolutional feature backbones.
//!
//! The reproduction's stand-in for "ResNet depth" is backbone capacity:
//! a bank of fixed random convolution filters (random-feature methods are
//! well understood to approximate kernel machines; more filters ⇒ richer
//! features ⇒ higher attainable accuracy). Only the head on top of the
//! backbone is trained, mirroring the specialized-NN fine-tuning setup the
//! paper inherits from NoScope/BlazeIt/Tahoma.
//!
//! Crucially for §5.2/§5.3: filters respond to *spatial frequency content*,
//! so downsampling an input genuinely destroys feature information, and
//! training the head on low-resolution-augmented inputs genuinely adapts it.

use smol_imgproc::rng::Rng;
use smol_imgproc::ImageU8;

/// A bank of `n_filters` random `k×k×3` filters applied at `stride`,
/// followed by ReLU and average pooling over a `pool_grid × pool_grid`
/// spatial grid.
#[derive(Debug, Clone)]
pub struct RandomConvBackbone {
    filters: Vec<f32>,
    n_filters: usize,
    k: usize,
    stride: usize,
    pool_grid: usize,
}

impl RandomConvBackbone {
    pub fn new(seed: u64, n_filters: usize, k: usize, stride: usize, pool_grid: usize) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let len = n_filters * k * k * 3;
        // Zero-mean filters so responses measure structure, not brightness.
        let mut filters: Vec<f32> = (0..len).map(|_| rng.f32() * 2.0 - 1.0).collect();
        let per_filter = k * k * 3;
        for f in 0..n_filters {
            let chunk = &mut filters[f * per_filter..(f + 1) * per_filter];
            let mean: f32 = chunk.iter().sum::<f32>() / per_filter as f32;
            let mut norm = 0.0f32;
            for v in chunk.iter_mut() {
                *v -= mean;
                norm += *v * *v;
            }
            let norm = norm.sqrt().max(1e-6);
            for v in chunk.iter_mut() {
                *v /= norm;
            }
        }
        RandomConvBackbone {
            filters,
            n_filters,
            k,
            stride,
            pool_grid,
        }
    }

    /// Output feature dimensionality.
    pub fn feature_dim(&self) -> usize {
        self.n_filters * self.pool_grid * self.pool_grid
    }

    /// Extracts pooled random-conv features from an RGB image.
    ///
    /// The image may be any size ≥ `k`; responses are pooled into the fixed
    /// grid so the feature dimension is size-independent.
    pub fn extract(&self, img: &ImageU8) -> Vec<f32> {
        assert_eq!(img.channels(), 3, "backbone expects RGB");
        let (w, h) = (img.width(), img.height());
        let k = self.k;
        let out_w = (w.saturating_sub(k)) / self.stride + 1;
        let out_h = (h.saturating_sub(k)) / self.stride + 1;
        let g = self.pool_grid;
        let mut features = vec![0.0f32; self.feature_dim()];
        let mut counts = vec![0.0f32; g * g];
        let per_filter = k * k * 3;
        let mut patch = vec![0.0f32; per_filter];

        // Pool-cell assignment per output position.
        for oy in 0..out_h {
            let cell_y = (oy * g / out_h.max(1)).min(g - 1);
            for ox in 0..out_w {
                let cell_x = (ox * g / out_w.max(1)).min(g - 1);
                let cell = cell_y * g + cell_x;
                counts[cell] += 1.0;
                // All filters share the patch: its pixels are read and
                // centred to [-0.5, 0.5] once per position.
                let (x0, y0) = (ox * self.stride * 3, oy * self.stride);
                for (dy, taps) in patch.chunks_exact_mut(k * 3).enumerate() {
                    let row = &img.row(y0 + dy)[x0..x0 + k * 3];
                    for (tap, v) in taps.iter_mut().zip(row) {
                        *tap = *v as f32 / 255.0 - 0.5;
                    }
                }
                for (f, filt) in self.filters.chunks_exact(per_filter).enumerate() {
                    // Summed in tap order: bit-identical to the per-tap loop.
                    let acc = filt
                        .iter()
                        .zip(&patch)
                        .fold(0.0f32, |acc, (w, p)| acc + w * p);
                    if acc > 0.0 {
                        features[f * g * g + cell] += acc;
                    }
                }
            }
        }
        // Average within each pool cell.
        for f in 0..self.n_filters {
            for cell in 0..g * g {
                let c = counts[cell];
                if c > 0.0 {
                    features[f * g * g + cell] /= c;
                }
            }
        }
        features
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker(w: usize, h: usize, period: usize) -> ImageU8 {
        let mut img = ImageU8::zeros(w, h, 3);
        for y in 0..h {
            for x in 0..w {
                let v = if (x / period + y / period).is_multiple_of(2) {
                    220
                } else {
                    30
                };
                for c in 0..3 {
                    img.set(x, y, c, v);
                }
            }
        }
        img
    }

    /// The per-(position, filter, tap) loop `extract` replaced, which
    /// centred every pixel once per filter: the oracle its features are
    /// pinned to.
    fn extract_reference(b: &RandomConvBackbone, img: &ImageU8) -> Vec<f32> {
        let (w, h) = (img.width(), img.height());
        let k = b.k;
        let out_w = (w.saturating_sub(k)) / b.stride + 1;
        let out_h = (h.saturating_sub(k)) / b.stride + 1;
        let g = b.pool_grid;
        let mut features = vec![0.0f32; b.feature_dim()];
        let mut counts = vec![0.0f32; g * g];
        let per_filter = k * k * 3;
        for oy in 0..out_h {
            let cell_y = (oy * g / out_h.max(1)).min(g - 1);
            for ox in 0..out_w {
                let cell_x = (ox * g / out_w.max(1)).min(g - 1);
                let cell = cell_y * g + cell_x;
                counts[cell] += 1.0;
                let x0 = ox * b.stride;
                let y0 = oy * b.stride;
                for f in 0..b.n_filters {
                    let filt = &b.filters[f * per_filter..(f + 1) * per_filter];
                    let mut acc = 0.0f32;
                    let mut fi = 0usize;
                    for dy in 0..k {
                        let row = img.row(y0 + dy);
                        let base = x0 * 3;
                        for v in &row[base..base + k * 3] {
                            acc += filt[fi] * (*v as f32 / 255.0 - 0.5);
                            fi += 1;
                        }
                    }
                    if acc > 0.0 {
                        features[f * g * g + cell] += acc;
                    }
                }
            }
        }
        for f in 0..b.n_filters {
            for cell in 0..g * g {
                let c = counts[cell];
                if c > 0.0 {
                    features[f * g * g + cell] /= c;
                }
            }
        }
        features
    }

    #[test]
    fn features_are_bit_identical_to_the_per_tap_loop() {
        let shapes = [
            (0, 16, 5, 2, 3),
            (7, 8, 3, 1, 2),
            (11, 32, 5, 2, 3),
            (42, 5, 4, 3, 1),
        ];
        for (seed, n_filters, k, stride, pool_grid) in shapes {
            let b = RandomConvBackbone::new(seed, n_filters, k, stride, pool_grid);
            for (w, h) in [(k, k), (16, 16), (33, 20), (64, 48)] {
                let mut rng = Rng::seed_from_u64(seed + (w * h) as u64);
                let pixels = (0..w * h * 3).map(|_| rng.u8()).collect();
                let img = ImageU8::from_vec(w, h, 3, pixels).unwrap();
                let (fast, oracle) = (b.extract(&img), extract_reference(&b, &img));
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&fast), bits(&oracle), "seed {seed}, {w}x{h}");
            }
        }
    }

    #[test]
    fn feature_dim_matches() {
        let b = RandomConvBackbone::new(0, 16, 5, 2, 3);
        assert_eq!(b.feature_dim(), 16 * 9);
        assert_eq!(b.extract(&checker(32, 32, 4)).len(), 16 * 9);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = RandomConvBackbone::new(5, 8, 3, 1, 2);
        let b = RandomConvBackbone::new(5, 8, 3, 1, 2);
        let img = checker(16, 16, 2);
        assert_eq!(a.extract(&img), b.extract(&img));
    }

    #[test]
    fn different_textures_give_different_features() {
        let b = RandomConvBackbone::new(1, 16, 5, 2, 2);
        let fine = b.extract(&checker(32, 32, 2));
        let coarse = b.extract(&checker(32, 32, 8));
        let dist: f32 = fine
            .iter()
            .zip(&coarse)
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f32>()
            .sqrt();
        assert!(dist > 0.05, "dist={dist}");
    }

    #[test]
    fn brightness_invariance_from_zero_mean_filters() {
        let b = RandomConvBackbone::new(2, 8, 3, 1, 2);
        let dark = ImageU8::from_vec(16, 16, 3, vec![40; 16 * 16 * 3]).unwrap();
        let bright = ImageU8::from_vec(16, 16, 3, vec![200; 16 * 16 * 3]).unwrap();
        let fd = b.extract(&dark);
        let fb = b.extract(&bright);
        for (a, b) in fd.iter().zip(&fb) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn size_independent_feature_length() {
        let b = RandomConvBackbone::new(3, 8, 5, 2, 2);
        assert_eq!(
            b.extract(&checker(24, 24, 3)).len(),
            b.extract(&checker(48, 48, 3)).len()
        );
    }
}
