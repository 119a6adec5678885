//! Dataset registration: named input variants with their encoded serving
//! corpora, the DNN ladder to consider, calibration data, optional
//! ahead-of-time materialization into a [`VariantStore`], and the
//! structural fingerprint cache keys are built on.

use crate::calibration::{AccuracyTable, Calibration};
use smol_accel::ModelKind;
use smol_codec::EncodedImage;
use smol_core::InputVariant;
use smol_data::{EncodedVariant, GopCorpus, StreamFeed, VariantStore};
use smol_runtime::{wrap_gops, wrap_images, MediaItem};
use smol_video::EncodedGop;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
#[cfg(doc)]
use {crate::Session, smol_core::StorageProfile};

/// One registered input variant: the planner-facing descriptor plus the
/// encoded serving corpus (still images or video GOPs).
pub(crate) struct DatasetVariant {
    pub input: InputVariant,
    pub items: Arc<Vec<MediaItem>>,
}

impl DatasetVariant {
    /// The variant's still images (GOP items are skipped).
    pub(crate) fn images(&self) -> Vec<EncodedImage> {
        let still = |m: &MediaItem| match m {
            MediaItem::Image(i) => Some(i.clone()),
            MediaItem::Gop(_) => None,
        };
        self.items.iter().filter_map(still).collect()
    }
}

/// A registered dataset: named input variants, the DNN ladder to consider
/// (the paper's D), and calibration data the session derives accuracies
/// from.
pub struct Dataset {
    pub(crate) name: String,
    pub(crate) models: Vec<ModelKind>,
    pub(crate) variants: Vec<DatasetVariant>,
    pub(crate) calibration: Calibration,
    /// Measured verified-read throughput (items/s) of the variant store
    /// this dataset was materialized into; `None` until
    /// [`Dataset::materialize`] runs. Feeds the planner's storage-aware
    /// costing ([`StorageProfile`]).
    pub(crate) materialized_read: Option<f64>,
}

impl Dataset {
    /// An empty dataset; add models, variants, and calibration with the
    /// builder methods.
    pub fn new(name: impl Into<String>) -> Self {
        Dataset {
            name: name.into(),
            models: Vec::new(),
            variants: Vec::new(),
            calibration: Calibration::Table(AccuracyTable::new()),
            materialized_read: None,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a DNN to the candidate ladder.
    pub fn with_model(mut self, model: ModelKind) -> Self {
        if !self.models.contains(&model) {
            self.models.push(model);
        }
        self
    }

    /// A video dataset over an encoded GOP corpus (`smol_data::gop_corpus`
    /// or any [`GopCorpus`]): GOPs are the serving items, frames are the
    /// outputs, and the planner enumerates the reduced-fidelity video
    /// ladder (keyframe-only, deblock-skip) next to the full-GOP plan.
    /// Add models and calibration with the usual builder methods; the
    /// calibration table keys on the corpus name
    /// ([`AccuracyTable::with_keyframes`] /
    /// [`AccuracyTable::with_deblock_skip`] record what each knob costs
    /// in accuracy).
    ///
    /// ```
    /// use smol_accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
    /// use smol_data::{gop_corpus, video_catalog};
    /// use smol_serve::{
    ///     AccuracyTable, Calibration, Dataset, Query, Session, SessionConfig,
    /// };
    ///
    /// # fn main() -> Result<(), smol_serve::SessionError> {
    /// let corpus = gop_corpus(&video_catalog()[1], 7, 3, 6); // 3 GOPs x 6
    /// let variant = corpus.name.clone();
    /// let device = VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 0.05);
    /// let session = Session::new(device, SessionConfig::default());
    /// session.register(
    ///     Dataset::video("traffic", corpus)
    ///         .with_model(ModelKind::ResNet50)
    ///         .with_calibration(Calibration::Table(
    ///             AccuracyTable::new()
    ///                 .with(ModelKind::ResNet50, &variant, 0.81)
    ///                 .with_keyframes(ModelKind::ResNet50, &variant, 0.81, 0.79),
    ///         )),
    /// )?;
    /// // Tolerant constraint ⇒ keyframe-only plan: one frame per GOP.
    /// let report = session.run(&Query::new("traffic").max_accuracy_loss(0.03))?;
    /// assert_eq!(report.images, 3);
    /// session.shutdown();
    /// # Ok(())
    /// # }
    /// ```
    pub fn video(name: impl Into<String>, corpus: GopCorpus) -> Self {
        let format = corpus.format();
        let input = InputVariant::new(corpus.name, format, corpus.width, corpus.height)
            .video(corpus.gop_len);
        Dataset::new(name).with_gop_variant(input, corpus.gops)
    }

    /// A live-stream dataset over a timed GOP feed: planning, profiling,
    /// and calibration see exactly the [`Dataset::video`] registration of
    /// the feed's corpus — arrival *timing* lives in the
    /// [`StreamFeed`] itself, which a stream
    /// runner consumes GOP by GOP (see [`Session::stream_ladder`] for the
    /// per-GOP serving ladder the pacer walks).
    pub fn stream(name: impl Into<String>, feed: &StreamFeed) -> Self {
        Dataset::video(name, feed.corpus.clone())
    }

    /// Registers one still-image input variant with its encoded serving
    /// corpus.
    pub fn with_variant(mut self, input: InputVariant, items: Vec<EncodedImage>) -> Self {
        self.variants.push(DatasetVariant {
            input,
            items: Arc::new(wrap_images(&items)),
        });
        self
    }

    /// Registers one GOP-structured video variant. The `input` must carry
    /// its GOP length ([`InputVariant::video`]); GOPs are items, so
    /// `Query::take(n)` limits GOPs, and reports count frames.
    fn with_gop_variant(mut self, input: InputVariant, gops: Vec<EncodedGop>) -> Self {
        debug_assert!(input.is_video(), "tag the variant with InputVariant::video");
        self.variants.push(DatasetVariant {
            input,
            items: Arc::new(wrap_gops(&gops)),
        });
        self
    }

    /// Registers every variant of a `smol_data` encoded layout (e.g.
    /// [`smol_data::serving_variants`]) under its own name.
    pub fn with_encoded_variants(mut self, variants: Vec<EncodedVariant>) -> Self {
        for v in variants {
            let mut input = InputVariant::new(v.name, v.format, v.width, v.height);
            if v.thumbnail {
                input = input.thumbnail();
            }
            self.variants.push(DatasetVariant {
                input,
                items: Arc::new(wrap_images(&v.items)),
            });
        }
        self
    }

    /// Sets the calibration source accuracies are derived from.
    pub fn with_calibration(mut self, calibration: Calibration) -> Self {
        self.calibration = calibration;
        self
    }

    /// Ahead-of-time transcodes this dataset's still-image variants into
    /// `store` (content-addressed objects + a per-dataset manifest; see
    /// [`VariantStore::materialize`]) and measures the store's
    /// verified-read throughput — manifest parse plus a fingerprint check
    /// of every object, exactly the work a serving node pays to read the
    /// materialized corpus back. Sessions attach a [`StorageProfile`]
    /// (zero transcode amortization — the transcode is already paid — and
    /// the live tensor-cache hit rate) to every still candidate of a
    /// materialized dataset, so the planner can choose "read the
    /// materialized variant" when storage + cache beats
    /// transcode + decode. GOP variants pass through unmaterialized.
    pub fn materialize(mut self, store: &VariantStore) -> std::io::Result<Self> {
        let encoded: Vec<EncodedVariant> = self
            .variants
            .iter()
            .filter(|v| !v.input.is_video())
            .map(|v| EncodedVariant {
                name: v.input.name.clone(),
                format: v.input.format,
                width: v.input.width,
                height: v.input.height,
                thumbnail: v.input.is_thumbnail,
                items: v.images(),
            })
            .collect();
        store.materialize(&self.name, &encoded)?;
        let start = std::time::Instant::now();
        let loaded = store.load(&self.name)?;
        let items: usize = loaded.iter().map(|v| v.items.len()).sum();
        let secs = start.elapsed().as_secs_f64();
        self.materialized_read = Some(if secs > 0.0 && items > 0 {
            items as f64 / secs
        } else {
            f64::INFINITY
        });
        Ok(self)
    }

    /// True once [`Dataset::materialize`] has populated a variant store.
    pub fn is_materialized(&self) -> bool {
        self.materialized_read.is_some()
    }

    pub(crate) fn variant(&self, name: &str) -> Option<&DatasetVariant> {
        self.variants.iter().find(|v| v.input.name == name)
    }

    /// Structural identity of this dataset for cache keys: models,
    /// variant descriptors + corpus sizes, and the calibration contents
    /// (table entries bit-exactly; measured calibrations by instance
    /// nonce, since predictors are opaque). Two same-named datasets with
    /// different contents — e.g. registered in different sessions sharing
    /// one [`PlanCache`] — therefore never collide on cached plans or
    /// profiles.
    pub(crate) fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        let mut models: Vec<String> = self.models.iter().map(|m| format!("{m:?}")).collect();
        models.sort();
        models.hash(&mut h);
        let mut variants: Vec<String> = self
            .variants
            .iter()
            .map(|v| {
                format!(
                    "{}|{:?}|{}x{}|{}|gop{}|{}",
                    v.input.name,
                    v.input.format,
                    v.input.width,
                    v.input.height,
                    v.input.is_thumbnail,
                    v.input.gop_len,
                    v.items.len()
                )
            })
            .collect();
        variants.sort();
        variants.hash(&mut h);
        self.calibration.fingerprint_into(&mut h);
        // Materialization changes the specs a dataset derives (storage
        // profiles attach), so it must split cache keys too.
        self.materialized_read.is_some().hash(&mut h);
        h.finish()
    }
}

/// A dataset as held by a session: the registration plus its computed
/// fingerprint.
pub(crate) struct Registered {
    pub(crate) dataset: Dataset,
    pub(crate) fingerprint: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::{AccuracyTable, MeasuredCalibration};
    use smol_imgproc::ImageU8;

    #[test]
    fn dataset_fingerprints_track_contents() {
        let ds = |acc: f64| {
            Dataset::new("same-name")
                .with_model(ModelKind::ResNet50)
                .with_calibration(Calibration::Table(AccuracyTable::new().with(
                    ModelKind::ResNet50,
                    "full",
                    acc,
                )))
        };
        assert_eq!(
            ds(0.8).fingerprint(),
            ds(0.8).fingerprint(),
            "structurally identical datasets share cache entries"
        );
        assert_ne!(
            ds(0.8).fingerprint(),
            ds(0.7).fingerprint(),
            "different calibration must key differently"
        );
        // Measured calibrations are identity-keyed (opaque predictors).
        let measured = |imgs: Vec<ImageU8>| {
            Dataset::new("same-name").with_calibration(Calibration::Measured(
                MeasuredCalibration::new(imgs, Vec::new()),
            ))
        };
        assert_ne!(
            measured(Vec::new()).fingerprint(),
            measured(Vec::new()).fingerprint()
        );
    }
}
