//! Dataset catalog: the paper's four still-image datasets (Table 6) and
//! four video datasets (§8.1), as synthetic analogues.
//!
//! Sample counts are scaled down from the paper (docs/PAPER_SHAPES.md)
//! so from-scratch CPU training stays tractable; class counts are preserved
//! except imagenet-sim (100 instead of 1000) and the difficulty *ordering*
//! (bike-bird easiest → imagenet hardest) is preserved by construction.

/// Identifier for the four still-image datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StillDatasetId {
    BikeBird,
    Animals10,
    Birds200,
    ImageNet,
}

/// Identifier for the four video datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VideoDatasetId {
    NightStreet,
    Taipei,
    Amsterdam,
    Rialto,
}

/// Specification of a still-image dataset.
#[derive(Debug, Clone)]
pub struct StillSpec {
    pub id: StillDatasetId,
    pub name: &'static str,
    /// Class count (paper's, except imagenet-sim: 100 for tractability).
    pub n_classes: usize,
    /// Paper's class count, for the Table 6 reference column.
    pub paper_classes: usize,
    /// Paper's train/test sizes (for the Table 6 reference columns).
    pub paper_train: &'static str,
    pub paper_test: &'static str,
    /// This reproduction's train/test images per class (accuracy track).
    pub train_per_class: usize,
    pub test_per_class: usize,
    /// Native size of the *accuracy-track* images (small, trainable).
    pub acc_native: usize,
    /// Thumbnail short edge for the accuracy track (≈ 161/224 of input).
    pub acc_thumb_short: usize,
    /// Native size of the *throughput-track* images (paper-scale decode
    /// cost; the paper likewise measures throughput on synthetic images,
    /// §2). `(width, height)`.
    pub tput_native: (usize, usize),
    /// Thumbnail short edge for the throughput track (the paper's 161).
    pub tput_thumb_short: usize,
    /// Difficulty knobs for the generator, higher = harder:
    /// instance noise amplitude (0..=40) and within-family confusability
    /// (0.0..=1.0).
    pub noise: u8,
    pub confusability: f64,
}

/// Specification of a video dataset.
#[derive(Debug, Clone)]
pub struct VideoSpec {
    pub id: VideoDatasetId,
    pub name: &'static str,
    /// Full-resolution frame size (the "720p" stand-in).
    pub full_res: (usize, usize),
    /// Low-resolution variant (the "480p" stand-in, natively present).
    pub low_res: (usize, usize),
    pub fps: f64,
    /// Traffic lanes (object paths).
    pub lanes: usize,
    /// Per-frame per-lane arrival probability (controls mean object count).
    pub arrival_p: f64,
    /// Object pixel speed per frame.
    pub speed: usize,
    /// Object size in pixels (at full resolution).
    pub object_size: (usize, usize),
    /// Scene brightness (night-street is dark/low contrast).
    pub brightness: u8,
    pub contrast: f64,
}

/// The four still-image datasets of Table 6.
pub fn still_catalog() -> Vec<StillSpec> {
    vec![
        StillSpec {
            id: StillDatasetId::BikeBird,
            name: "bike-bird",
            n_classes: 2,
            paper_classes: 2,
            paper_train: "23k",
            paper_test: "1k",
            train_per_class: 120,
            test_per_class: 60,
            acc_native: 48,
            acc_thumb_short: 24,
            tput_native: (320, 240),
            tput_thumb_short: 161,
            noise: 10,
            confusability: 0.1,
        },
        StillSpec {
            id: StillDatasetId::Animals10,
            name: "animals-10",
            n_classes: 10,
            paper_classes: 10,
            paper_train: "25.4k",
            paper_test: "2.8k",
            train_per_class: 60,
            test_per_class: 30,
            acc_native: 48,
            acc_thumb_short: 24,
            tput_native: (320, 240),
            tput_thumb_short: 161,
            noise: 16,
            confusability: 0.35,
        },
        StillSpec {
            id: StillDatasetId::Birds200,
            name: "birds-200",
            n_classes: 200,
            paper_classes: 200,
            paper_train: "6k",
            paper_test: "5.8k",
            train_per_class: 14,
            test_per_class: 5,
            acc_native: 48,
            acc_thumb_short: 24,
            // Paper: birds-200 has the largest average image size.
            tput_native: (400, 300),
            tput_thumb_short: 161,
            noise: 20,
            confusability: 0.6,
        },
        StillSpec {
            id: StillDatasetId::ImageNet,
            name: "imagenet-sim",
            n_classes: 100,
            paper_classes: 1000,
            paper_train: "1.2M",
            paper_test: "50K",
            train_per_class: 20,
            test_per_class: 10,
            acc_native: 48,
            acc_thumb_short: 24,
            tput_native: (320, 240),
            tput_thumb_short: 161,
            noise: 24,
            confusability: 0.8,
        },
    ]
}

/// The four video datasets of §8.1 (BlazeIt's evaluation videos).
pub fn video_catalog() -> Vec<VideoSpec> {
    vec![
        VideoSpec {
            id: VideoDatasetId::NightStreet,
            name: "night-street",
            full_res: (192, 108),
            low_res: (128, 72),
            fps: 30.0,
            lanes: 3,
            arrival_p: 0.008,
            speed: 5,
            object_size: (16, 8),
            brightness: 40,
            contrast: 0.5,
        },
        VideoSpec {
            id: VideoDatasetId::Taipei,
            name: "taipei",
            full_res: (192, 108),
            low_res: (128, 72),
            fps: 30.0,
            lanes: 5,
            arrival_p: 0.012,
            speed: 4,
            object_size: (14, 8),
            brightness: 140,
            contrast: 1.0,
        },
        VideoSpec {
            id: VideoDatasetId::Amsterdam,
            name: "amsterdam",
            full_res: (192, 108),
            low_res: (128, 72),
            fps: 30.0,
            lanes: 2,
            arrival_p: 0.012,
            speed: 4,
            object_size: (12, 7),
            brightness: 120,
            contrast: 0.8,
        },
        VideoSpec {
            id: VideoDatasetId::Rialto,
            name: "rialto",
            full_res: (192, 108),
            low_res: (128, 72),
            fps: 30.0,
            lanes: 4,
            arrival_p: 0.018,
            speed: 3,
            object_size: (12, 10),
            brightness: 150,
            contrast: 1.0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn still_catalog_matches_table6_structure() {
        let cat = still_catalog();
        assert_eq!(cat.len(), 4);
        assert_eq!(cat[0].paper_classes, 2);
        assert_eq!(cat[1].paper_classes, 10);
        assert_eq!(cat[2].paper_classes, 200);
        assert_eq!(cat[3].paper_classes, 1000);
    }

    #[test]
    fn difficulty_ordering_monotone() {
        let cat = still_catalog();
        for w in cat.windows(2) {
            assert!(w[0].confusability <= w[1].confusability);
            assert!(w[0].noise <= w[1].noise);
        }
    }

    #[test]
    fn thumbnail_ratio_mirrors_paper() {
        // Paper: 161 short-edge thumbnails for 224-input models (0.72).
        // Accuracy track: 24 thumbnails for 32-input models (0.75).
        for spec in still_catalog() {
            let ratio = spec.acc_thumb_short as f64 / 32.0;
            assert!((ratio - 161.0 / 224.0).abs() < 0.05, "{ratio}");
            assert_eq!(spec.tput_thumb_short, 161);
        }
    }

    #[test]
    fn video_catalog_has_four_scenes() {
        let cat = video_catalog();
        assert_eq!(cat.len(), 4);
        for spec in &cat {
            assert!(spec.full_res.0 > spec.low_res.0);
            assert!(spec.arrival_p > 0.0 && spec.arrival_p < 1.0);
        }
    }
}
