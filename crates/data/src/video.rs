//! Synthetic traffic-scene video generator with ground-truth object counts.
//!
//! Scenes imitate the fixed-camera traffic webcams of BlazeIt's evaluation
//! (night-street, taipei, amsterdam, rialto): a static textured background
//! with lane bands, and objects ("cars") that enter stochastically, cross at
//! constant speed, and leave. Because objects persist across frames, the
//! per-frame count series is **temporally autocorrelated**, which is what
//! makes specialized-NN control variates effective (§3.2, Figure 9).

use crate::catalog::VideoSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smol_imgproc::ops::resize::resize_bilinear_u8;
use smol_imgproc::ImageU8;

/// A generated clip: frames plus the ground-truth object count per frame.
#[derive(Debug, Clone)]
pub struct SyntheticVideo {
    pub name: &'static str,
    pub frames: Vec<ImageU8>,
    pub counts: Vec<u32>,
    pub fps: f64,
}

impl SyntheticVideo {
    /// Mean object count over the clip (the aggregation query's answer).
    pub fn mean_count(&self) -> f64 {
        if self.counts.is_empty() {
            return 0.0;
        }
        self.counts.iter().map(|&c| c as f64).sum::<f64>() / self.counts.len() as f64
    }

    /// Downscales every frame (the "natively present" low-res variant).
    pub fn at_resolution(&self, w: usize, h: usize) -> SyntheticVideo {
        SyntheticVideo {
            name: self.name,
            frames: self
                .frames
                .iter()
                .map(|f| resize_bilinear_u8(f, w, h).expect("resize video frame"))
                .collect(),
            counts: self.counts.clone(),
            fps: self.fps,
        }
    }
}

#[derive(Debug, Clone)]
struct Car {
    lane: usize,
    x: f64,
    color: [u8; 3],
}

/// Renders the static background for a spec (deterministic).
fn background(spec: &VideoSpec, seed: u64) -> ImageU8 {
    let (w, h) = spec.full_res;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBACD);
    let mut img = ImageU8::zeros(w, h, 3);
    let base = spec.brightness as f32;
    // Smooth low-frequency texture from a few random sinusoids.
    let waves: Vec<(f32, f32, f32)> = (0..4)
        .map(|_| {
            (
                rng.gen::<f32>() * 0.2 + 0.02,
                rng.gen::<f32>() * 0.2 + 0.02,
                rng.gen::<f32>() * 6.0,
            )
        })
        .collect();
    for y in 0..h {
        for x in 0..w {
            let mut t = 0.0f32;
            for &(fx, fy, ph) in &waves {
                t += (x as f32 * fx + y as f32 * fy + ph).sin();
            }
            let v = base + t * 10.0 * spec.contrast as f32;
            // Lane bands are darker (asphalt).
            let lane_h = h / (spec.lanes + 1);
            let in_lane = (y / lane_h.max(1)) >= 1 && (y / lane_h.max(1)) <= spec.lanes;
            let v = if in_lane { v * 0.7 } else { v };
            for c in 0..3 {
                let tint = match c {
                    0 => 1.0,
                    1 => 0.97,
                    _ => 0.92,
                };
                img.set(x, y, c, (v * tint).clamp(0.0, 255.0) as u8);
            }
        }
    }
    img
}

fn lane_y(spec: &VideoSpec, lane: usize) -> usize {
    let (_, h) = spec.full_res;
    let lane_h = h / (spec.lanes + 1);
    lane_h * (lane + 1)
}

/// Generates `n_frames` of the scene.
pub fn generate_video(spec: &VideoSpec, seed: u64, n_frames: usize) -> SyntheticVideo {
    let (w, h) = spec.full_res;
    let bg = background(spec, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xCAB5);
    let (ow, oh) = spec.object_size;
    let mut cars: Vec<Car> = Vec::new();
    let mut frames = Vec::with_capacity(n_frames);
    let mut counts = Vec::with_capacity(n_frames);
    for _ in 0..n_frames {
        // Arrivals: one potential new car per lane per frame, only when the
        // lane entrance is clear (prevents overlap pileups).
        for lane in 0..spec.lanes {
            if rng.gen::<f64>() < spec.arrival_p {
                let entrance_clear = cars
                    .iter()
                    .filter(|c| c.lane == lane)
                    .all(|c| c.x > (ow as f64) * 1.5);
                if entrance_clear {
                    let shade = rng.gen_range(0u8..=2);
                    let color = match shade {
                        0 => [220, 60, 50],
                        1 => [60, 90, 220],
                        _ => [230, 230, 230],
                    };
                    cars.push(Car {
                        lane,
                        x: -(ow as f64),
                        color,
                    });
                }
            }
        }
        // Motion.
        for car in &mut cars {
            car.x += spec.speed as f64;
        }
        cars.retain(|c| c.x < w as f64);
        // Count = cars at least half-visible.
        let count = cars
            .iter()
            .filter(|c| c.x + ow as f64 / 2.0 >= 0.0 && c.x + ow as f64 / 2.0 <= w as f64)
            .count() as u32;
        // Render.
        let mut frame = bg.clone();
        for car in &cars {
            let y0 = lane_y(spec, car.lane).saturating_sub(oh / 2);
            for dy in 0..oh {
                let y = y0 + dy;
                if y >= h {
                    continue;
                }
                for dx in 0..ow {
                    let x = car.x as i64 + dx as i64;
                    if x < 0 || x >= w as i64 {
                        continue;
                    }
                    let edge = dy == 0 || dy == oh - 1 || dx == 0 || dx == ow - 1;
                    for c in 0..3 {
                        let v = if edge { car.color[c] / 2 } else { car.color[c] };
                        // Night scenes darken the cars too.
                        let v = (v as f32 * (0.4 + 0.6 * spec.contrast as f32)) as u8;
                        frame.set(x as usize, y, c, v);
                    }
                }
            }
        }
        frames.push(frame);
        counts.push(count);
    }
    SyntheticVideo {
        name: spec.name,
        frames,
        counts,
        fps: spec.fps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::video_catalog;

    /// Lag-1 autocorrelation of the count series (sanity metric: must be high
    /// for control variates to help).
    fn count_autocorrelation(counts: &[u32]) -> f64 {
        if counts.len() < 3 {
            return 0.0;
        }
        let n = counts.len();
        let mean = counts.iter().map(|&c| c as f64).sum::<f64>() / n as f64;
        let var: f64 = counts
            .iter()
            .map(|&c| (c as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        if var < 1e-12 {
            return 0.0;
        }
        let cov: f64 = counts
            .windows(2)
            .map(|w| (w[0] as f64 - mean) * (w[1] as f64 - mean))
            .sum::<f64>()
            / (n - 1) as f64;
        cov / var
    }

    #[test]
    fn counts_track_rendered_objects() {
        let spec = &video_catalog()[1]; // taipei: busiest
        let v = generate_video(spec, 3, 300);
        assert_eq!(v.frames.len(), 300);
        assert_eq!(v.counts.len(), 300);
        assert!(v.mean_count() > 0.2, "mean={}", v.mean_count());
    }

    #[test]
    fn counts_are_temporally_autocorrelated() {
        let spec = &video_catalog()[1];
        let v = generate_video(spec, 5, 600);
        let rho = count_autocorrelation(&v.counts);
        assert!(rho > 0.7, "autocorrelation too weak: {rho}");
    }

    #[test]
    fn busier_scenes_have_higher_counts() {
        let cat = video_catalog();
        let quiet = generate_video(&cat[0], 1, 400).mean_count(); // night-street
        let busy = generate_video(&cat[3], 1, 400).mean_count(); // rialto
        assert!(busy > quiet, "busy={busy} quiet={quiet}");
    }

    #[test]
    fn deterministic_generation() {
        let spec = &video_catalog()[2];
        let a = generate_video(spec, 9, 50);
        let b = generate_video(spec, 9, 50);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.frames[10], b.frames[10]);
    }

    #[test]
    fn low_res_variant_preserves_counts() {
        let spec = &video_catalog()[0];
        let v = generate_video(spec, 2, 60);
        let low = v.at_resolution(spec.low_res.0, spec.low_res.1);
        assert_eq!(low.counts, v.counts);
        assert_eq!(low.frames[0].width(), spec.low_res.0);
    }

    #[test]
    fn night_street_is_darker_than_rialto() {
        let cat = video_catalog();
        let night = generate_video(&cat[0], 4, 10);
        let day = generate_video(&cat[3], 4, 10);
        let mean = |img: &ImageU8| {
            img.data().iter().map(|&v| v as f64).sum::<f64>() / img.data().len() as f64
        };
        assert!(mean(&night.frames[0]) < mean(&day.frames[0]) - 20.0);
    }
}
