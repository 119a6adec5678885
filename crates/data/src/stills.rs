//! Synthetic still-image generator with controlled frequency content.
//!
//! Classes come in **families of two**: family-level appearance lives in low
//! spatial frequencies (palette, coarse stripe orientation/period), while
//! the two variants within a family differ in **mid-frequency texture**
//! (period ≈ 5–7 px) and **high-frequency grain** (period 2 px). The
//! `confusability` knob controls how much low-frequency evidence separates
//! variants.
//!
//! Consequences, by construction rather than assertion:
//!
//! * downsampling genuinely destroys variant evidence (high frequencies
//!   alias away) → naive low-resolution evaluation loses accuracy (§5.2);
//! * mid-frequency evidence survives a 24-px thumbnail in attenuated form →
//!   low-resolution-aware training can genuinely recover accuracy (§5.3);
//! * more classes + higher confusability + stronger noise = harder dataset
//!   (Table 6's difficulty ordering).

use crate::catalog::StillSpec;
use smol_imgproc::rng::Rng;
use smol_imgproc::ImageU8;

/// A generated dataset split into train and test.
#[derive(Debug, Clone)]
pub struct StillDataset {
    pub name: &'static str,
    pub n_classes: usize,
    pub train: Vec<ImageU8>,
    pub train_labels: Vec<usize>,
    pub test: Vec<ImageU8>,
    pub test_labels: Vec<usize>,
}

/// Per-class rendering parameters (derived deterministically).
#[derive(Debug, Clone)]
struct ClassParams {
    color_a: [f32; 3],
    color_b: [f32; 3],
    low_theta: f32,
    low_period: f32,
    mid_theta: f32,
    mid_period: f32,
    mid_amp: f32,
    hf_amp: f32,
    hf_mode: u8,
}

fn class_params(spec: &StillSpec, class: usize) -> ClassParams {
    let family = class / 2;
    let variant = class % 2;
    let seed = (spec.id as u64) << 32 | family as u64;
    let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // Harder datasets draw palettes from a narrower range, so families are
    // globally color-similar and fine texture carries the evidence.
    let span = (1.0 - spec.confusability as f32).clamp(0.08, 1.0);
    let lo = 0.5 - span / 2.0;
    let mut color = || lo + rng.f32() * span;
    let color_a = [color(), color(), color()];
    let color_b = [color(), color(), color()];
    let low_theta = rng.f32() * std::f32::consts::PI;
    let low_period = 9.0 + rng.f32() * 7.0;
    // Variant-level mid/high-frequency parameters always differ.
    let mid_theta = low_theta
        + if variant == 0 {
            std::f32::consts::FRAC_PI_4
        } else {
            -std::f32::consts::FRAC_PI_4
        };
    let mid_period = if variant == 0 { 5.0 } else { 6.5 };
    // Low-frequency separation shrinks as confusability grows.
    let sep = (1.0 - spec.confusability) as f32;
    let low_theta = low_theta + variant as f32 * sep * 0.9;
    let low_period = low_period + variant as f32 * sep * 5.0;
    ClassParams {
        color_a,
        color_b,
        low_theta,
        low_period,
        mid_theta,
        mid_period,
        mid_amp: 0.35,
        hf_amp: 0.18,
        hf_mode: variant as u8,
    }
}

/// Renders one instance of `class` at `w × h`. `scale` stretches pattern
/// periods (1.0 for accuracy-track 48-px images; larger for
/// throughput-track images so they remain visually plausible).
fn render_instance(
    spec: &StillSpec,
    class: usize,
    w: usize,
    h: usize,
    scale: f32,
    rng: &mut Rng,
) -> ImageU8 {
    let p = class_params(spec, class);
    let phase_low: f32 = rng.f32() * 20.0;
    let phase_mid: f32 = rng.f32() * 20.0;
    let jitter: f32 = (rng.f32() - 0.5) * 0.15;
    let noise_amp = spec.noise as f32;
    // Instance-level distortion of the low-frequency structure, scaled by
    // dataset confusability: hard datasets cannot be solved from coarse
    // structure alone, which forces texture evidence to matter.
    let conf = spec.confusability as f32;
    let low_theta = p.low_theta + (rng.f32() - 0.5) * conf * 1.2;
    let low_period = p.low_period * (1.0 + (rng.f32() - 0.5) * conf * 0.6);
    // Per-instance global color cast and weakened texture amplitude make
    // color statistics unreliable and shrink the texture margin on hard
    // datasets.
    let color_shift: [f32; 3] = [
        (rng.f32() - 0.5) * conf * 0.22,
        (rng.f32() - 0.5) * conf * 0.22,
        (rng.f32() - 0.5) * conf * 0.22,
    ];
    let mid_amp = p.mid_amp * (1.0 - conf * 0.25);
    let (sin_l, cos_l) = low_theta.sin_cos();
    let (sin_m, cos_m) = p.mid_theta.sin_cos();
    let tau = std::f32::consts::TAU;
    let mut img = ImageU8::zeros(w, h, 3);
    for y in 0..h {
        for x in 0..w {
            let xf = x as f32 / scale;
            let yf = y as f32 / scale;
            let low = (tau * (xf * cos_l + yf * sin_l) / low_period + phase_low).sin();
            let mid = (tau * (xf * cos_m + yf * sin_m) / p.mid_period + phase_mid).sin();
            // High-frequency grain: 2-px checkers in one of two phases.
            let hf = match p.hf_mode {
                0 => {
                    if (x + y) % 2 == 0 {
                        1.0
                    } else {
                        -1.0
                    }
                }
                _ => {
                    if x % 2 == 0 {
                        1.0
                    } else {
                        -1.0
                    }
                }
            };
            let t = (low * 0.5 + 0.5 + jitter).clamp(0.0, 1.0);
            for (c, &shift) in color_shift.iter().enumerate() {
                let base = p.color_a[c] + (p.color_b[c] - p.color_a[c]) * t + shift;
                let v = (base + mid_amp * mid * 0.5 + p.hf_amp * hf * 0.5) * 255.0;
                let n = (rng.f32() - 0.5) * noise_amp;
                img.set(x, y, c, (v + n).clamp(0.0, 255.0) as u8);
            }
        }
    }
    img
}

/// Generates the accuracy-track dataset (small native images) for a spec.
pub fn generate_stills(spec: &StillSpec, seed: u64) -> StillDataset {
    let s = spec.acc_native;
    let mut rng = Rng::seed_from_u64(seed ^ 0x0DA7_A5E7);
    let mut train = Vec::with_capacity(spec.n_classes * spec.train_per_class);
    let mut train_labels = Vec::with_capacity(train.capacity());
    let mut test = Vec::with_capacity(spec.n_classes * spec.test_per_class);
    let mut test_labels = Vec::with_capacity(test.capacity());
    for class in 0..spec.n_classes {
        for _ in 0..spec.train_per_class {
            train.push(render_instance(spec, class, s, s, 1.0, &mut rng));
            train_labels.push(class);
        }
        for _ in 0..spec.test_per_class {
            test.push(render_instance(spec, class, s, s, 1.0, &mut rng));
            test_labels.push(class);
        }
    }
    StillDataset {
        name: spec.name,
        n_classes: spec.n_classes,
        train,
        train_labels,
        test,
        test_labels,
    }
}

/// Generates `n` paper-scale native images for decode-throughput benches.
pub fn throughput_images(spec: &StillSpec, seed: u64, n: usize) -> Vec<ImageU8> {
    let (w, h) = spec.tput_native;
    let scale = w as f32 / spec.acc_native as f32;
    let mut rng = Rng::seed_from_u64(seed ^ 0x7407);
    (0..n)
        .map(|i| render_instance(spec, i % spec.n_classes, w, h, scale, &mut rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::still_catalog;

    #[test]
    fn dataset_sizes_match_spec() {
        let spec = &still_catalog()[0]; // bike-bird
        let ds = generate_stills(spec, 1);
        assert_eq!(ds.train.len(), spec.n_classes * spec.train_per_class);
        assert_eq!(ds.test.len(), spec.n_classes * spec.test_per_class);
        assert_eq!(ds.train.len(), ds.train_labels.len());
        assert!(ds.train_labels.iter().all(|&l| l < spec.n_classes));
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = &still_catalog()[0];
        let a = generate_stills(spec, 7);
        let b = generate_stills(spec, 7);
        assert_eq!(a.train[0], b.train[0]);
        assert_eq!(a.test.last(), b.test.last());
    }

    #[test]
    fn different_seeds_differ() {
        let spec = &still_catalog()[0];
        let a = generate_stills(spec, 1);
        let b = generate_stills(spec, 2);
        assert_ne!(a.train[0], b.train[0]);
    }

    #[test]
    fn classes_are_visually_distinct() {
        let spec = &still_catalog()[1]; // animals-10
        let mut rng = Rng::seed_from_u64(0);
        let a = render_instance(spec, 0, 48, 48, 1.0, &mut rng);
        let b = render_instance(spec, 2, 48, 48, 1.0, &mut rng);
        // Different families: mean color should differ noticeably.
        let mean = |img: &ImageU8| {
            img.data().iter().map(|&v| v as f64).sum::<f64>() / img.data().len() as f64
        };
        assert!((mean(&a) - mean(&b)).abs() > 1.0 || a != b);
    }

    #[test]
    fn within_family_variants_share_low_frequency_look() {
        let spec = &still_catalog()[3]; // imagenet-sim (high confusability)
        let pa = class_params(spec, 10);
        let pb = class_params(spec, 11);
        assert_eq!(pa.color_a, pb.color_a);
        assert!((pa.low_period - pb.low_period).abs() < 2.0);
        assert_ne!(pa.hf_mode, pb.hf_mode);
        assert_ne!(pa.mid_period, pb.mid_period);
    }

    #[test]
    fn easy_dataset_separates_variants_in_low_frequency() {
        let spec = &still_catalog()[0]; // bike-bird (low confusability)
        let pa = class_params(spec, 0);
        let pb = class_params(spec, 1);
        assert!((pa.low_theta - pb.low_theta).abs() > 0.3);
    }

    #[test]
    fn throughput_images_have_paper_scale() {
        let spec = &still_catalog()[2]; // birds-200 (largest)
        let imgs = throughput_images(spec, 0, 3);
        assert_eq!(imgs.len(), 3);
        assert_eq!((imgs[0].width(), imgs[0].height()), (400, 300));
    }
}
