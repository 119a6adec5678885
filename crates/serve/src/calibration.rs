//! Where a dataset's per-(DNN, variant) accuracies come from: a
//! pre-measured [`AccuracyTable`] or a [`MeasuredCalibration`] scored on
//! labeled registration images (which also calibrates cascade operating
//! points).

use smol_accel::sync::lock;
use smol_accel::ModelKind;
use smol_codec::EncodedImage;
use smol_core::{DecodeMode, InputVariant, RoutingSpec, VideoFidelity};
use smol_imgproc::{ops::resize_short_edge_u8, ImageU8};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Per-image prediction function standing in for a DNN's classification
/// head during calibration.
type PredictFn = Arc<dyn Fn(&ImageU8) -> usize + Send + Sync>;

/// Where a dataset's per-(DNN, variant) accuracies come from.
pub enum Calibration {
    /// A pre-measured accuracy table (e.g. offline evaluation, or the
    /// paper's published numbers).
    Table(AccuracyTable),
    /// Accuracies measured on registration data: each calibration image is
    /// re-encoded into the variant's stored form, decoded the way the
    /// plan would decode it, and scored against its label.
    Measured(MeasuredCalibration),
}

impl Calibration {
    pub(crate) fn accuracy(&self, model: ModelKind, input: &InputVariant) -> Option<f64> {
        match self {
            Calibration::Table(t) => t.get(model, &input.name).map(|e| e.accuracy),
            // Measured calibration re-encodes single images, which has no
            // meaning for GOP-structured variants: video datasets
            // calibrate through tables (no entry ⇒ not a candidate).
            Calibration::Measured(_) if input.is_video() => None,
            Calibration::Measured(m) => m.measure(model, input, None),
        }
    }

    /// The reduced-fidelity video calibration of a (DNN, variant) pair:
    /// `None` fields mean "not calibrated — accuracy carries over"
    /// (mirroring `reduced_accuracy`'s tolerant default).
    pub(crate) fn video_fidelity(
        &self,
        model: ModelKind,
        input: &InputVariant,
    ) -> Option<VideoFidelity> {
        if !input.is_video() {
            return None;
        }
        match self {
            Calibration::Table(t) => t.get(model, &input.name).map(|e| VideoFidelity {
                keyframe_accuracy: e.keyframes,
                deblock_skip_accuracy: e.no_deblock,
            }),
            Calibration::Measured(_) => None,
        }
    }

    pub(crate) fn reduced_accuracy(
        &self,
        model: ModelKind,
        input: &InputVariant,
        mode: DecodeMode,
    ) -> Option<f64> {
        let DecodeMode::ReducedResolution { factor } = mode else {
            return None;
        };
        match self {
            // Tables record no reduced-decode accuracy: the planner's
            // low-res-tolerant assumption (accuracy carries over) applies.
            Calibration::Table(_) => None,
            Calibration::Measured(m) => m.measure(model, input, Some(factor)),
        }
    }

    /// Feeds this calibration's identity into a dataset fingerprint: table
    /// entries bit-exactly; measured calibrations by instance nonce, since
    /// predictors are opaque.
    pub(crate) fn fingerprint_into(&self, h: &mut impl Hasher) {
        match self {
            Calibration::Table(t) => {
                let mut entries: Vec<String> = t
                    .entries
                    .iter()
                    .map(|((m, v), e)| {
                        format!(
                            "{m:?}|{v}|{:016x}|{:?}|{:?}",
                            e.accuracy.to_bits(),
                            e.keyframes.map(f64::to_bits),
                            e.no_deblock.map(f64::to_bits),
                        )
                    })
                    .collect();
                entries.sort();
                entries.hash(h);
            }
            Calibration::Measured(m) => m.nonce.hash(h),
        }
    }
}

#[derive(Debug, Clone)]
struct TableEntry {
    accuracy: f64,
    /// Accuracy under keyframe-only decoding (video variants).
    keyframes: Option<f64>,
    /// Accuracy with the in-loop deblocking filter skipped (video
    /// variants).
    no_deblock: Option<f64>,
}

/// A sparse (DNN, variant-name) → accuracy table.
#[derive(Debug, Default)]
pub struct AccuracyTable {
    entries: HashMap<(ModelKind, String), TableEntry>,
}

impl AccuracyTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the calibrated accuracy of `model` on variant `variant`.
    pub fn with(mut self, model: ModelKind, variant: &str, accuracy: f64) -> Self {
        self.entry(model, variant, accuracy);
        self
    }

    /// Like [`AccuracyTable::with`], additionally recording the accuracy
    /// measured under **keyframe-only** video decoding (the aggregate
    /// answer computed from a 1-in-GOP temporal sample). Video variants
    /// only; stills ignore the field.
    pub fn with_keyframes(
        mut self,
        model: ModelKind,
        variant: &str,
        accuracy: f64,
        keyframes: f64,
    ) -> Self {
        self.entry(model, variant, accuracy).keyframes = Some(keyframes);
        self
    }

    /// Like [`AccuracyTable::with`], additionally recording the accuracy
    /// measured with the in-loop **deblocking filter skipped** (§6.4's
    /// reduced-fidelity decode: cheaper, drift-inducing on P-frames).
    /// When a plan combines this with keyframe-only selection, the
    /// planner takes the harsher (minimum) of the two calibrated values.
    pub fn with_deblock_skip(
        mut self,
        model: ModelKind,
        variant: &str,
        accuracy: f64,
        no_deblock: f64,
    ) -> Self {
        self.entry(model, variant, accuracy).no_deblock = Some(no_deblock);
        self
    }

    fn entry(&mut self, model: ModelKind, variant: &str, accuracy: f64) -> &mut TableEntry {
        let e = self
            .entries
            .entry((model, variant.to_string()))
            .or_insert_with(|| TableEntry {
                accuracy,
                keyframes: None,
                no_deblock: None,
            });
        e.accuracy = accuracy;
        e
    }

    fn get(&self, model: ModelKind, variant: &str) -> Option<&TableEntry> {
        self.entries.get(&(model, variant.to_string()))
    }
}

/// Measures accuracies from labeled calibration images at registration
/// granularity: for each (DNN, variant) pair, every calibration image is
/// resized to the variant's stored geometry, encoded in its format,
/// decoded (fully, or at reduced resolution when scoring a scaled-decode
/// plan), and scored by the DNN's predictor. Results are memoized.
///
/// Predictors must tolerate the geometry the variant produces (thumbnails
/// and reduced decodes hand them smaller images than full decodes).
/// Memo key: (model, variant name, reduced-decode factor).
type MeasureKey = (ModelKind, String, Option<u8>);

/// Memo key for cascade calibration: (stage-1 DNN, full DNN, variant
/// name, stage-1 reduced-decode factor).
type CascadeKey = (ModelKind, ModelKind, String, u8);

pub struct MeasuredCalibration {
    images: Vec<ImageU8>,
    labels: Vec<usize>,
    predictors: HashMap<ModelKind, PredictFn>,
    memo: Mutex<HashMap<MeasureKey, f64>>,
    cascade_memo: Mutex<HashMap<CascadeKey, Vec<RoutingSpec>>>,
    /// Predictors are opaque closures, so measured calibrations can't be
    /// compared structurally; each instance gets a unique identity for
    /// dataset fingerprinting instead.
    nonce: u64,
}

/// Source of [`MeasuredCalibration::nonce`] values.
static MEASURED_NONCE: AtomicU64 = AtomicU64::new(1);

/// A calibration image re-encoded into `input`'s stored form: resized to
/// the variant's short edge when it is a thumbnail, encoded in its format.
fn stored_form(img: &ImageU8, input: &InputVariant) -> EncodedImage {
    let short = input.width.min(input.height);
    let staged;
    let variant_img = if input.is_thumbnail && img.width().min(img.height()) != short {
        staged = resize_short_edge_u8(img, short).expect("calibration resize");
        &staged
    } else {
        img
    };
    EncodedImage::encode(variant_img, input.format).expect("calibration encode")
}

impl MeasuredCalibration {
    /// A calibration set of labeled reference images (native resolution).
    pub fn new(images: Vec<ImageU8>, labels: Vec<usize>) -> Self {
        assert_eq!(images.len(), labels.len(), "one label per image");
        MeasuredCalibration {
            images,
            labels,
            predictors: HashMap::new(),
            memo: Mutex::new(HashMap::new()),
            cascade_memo: Mutex::new(HashMap::new()),
            nonce: MEASURED_NONCE.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Registers the predictor standing in for `model`'s classification
    /// head. Models without predictors are skipped during planning.
    pub fn with_predictor(
        mut self,
        model: ModelKind,
        predict: impl Fn(&ImageU8) -> usize + Send + Sync + 'static,
    ) -> Self {
        self.predictors.insert(model, Arc::new(predict));
        self
    }

    fn measure(&self, model: ModelKind, input: &InputVariant, factor: Option<u8>) -> Option<f64> {
        let predict = self.predictors.get(&model)?;
        if self.images.is_empty() {
            return None;
        }
        let key = (model, input.name.clone(), factor);
        if let Some(&acc) = lock(&self.memo).get(&key) {
            return Some(acc);
        }
        let mut correct = 0usize;
        for (img, &label) in self.images.iter().zip(&self.labels) {
            let enc = stored_form(img, input);
            let decoded = match factor {
                None => enc.decode().expect("calibration decode"),
                Some(f) => enc.decode_scaled(f as usize).expect("calibration decode").0,
            };
            if predict(&decoded) == label {
                correct += 1;
            }
        }
        let acc = correct as f64 / self.images.len() as f64;
        lock(&self.memo).insert(key, acc);
        Some(acc)
    }

    /// Calibrates a (small-on-reduced-decode, big-on-full-decode) cascade
    /// over `input`: per calibration image, the bitstream difficulty
    /// signal is computed (and timed) on the *encoded* bytes, the small
    /// DNN is scored on the stage-1 reduced decode, and the big DNN on
    /// the full decode. Candidate thresholds are score quantiles
    /// (0.5 / 0.75 / 0.9); each yields an operating point (threshold,
    /// escalation rate, routed accuracy). Images without a signal (e.g.
    /// non-sjpg) always escalate — exactly the runtime's routing rule.
    pub(crate) fn measure_cascade(
        &self,
        small: ModelKind,
        big: ModelKind,
        input: &InputVariant,
        factor: u8,
    ) -> Option<Vec<RoutingSpec>> {
        let small_p = self.predictors.get(&small)?;
        let big_p = self.predictors.get(&big)?;
        if self.images.is_empty() {
            return None;
        }
        let key = (small, big, input.name.clone(), factor);
        if let Some(points) = lock(&self.cascade_memo).get(&key) {
            return Some(points.clone());
        }
        let n = self.images.len();
        let mut scores = Vec::with_capacity(n);
        let mut small_ok = Vec::with_capacity(n);
        let mut big_ok = Vec::with_capacity(n);
        let mut signal_s = 0.0f64;
        for (img, &label) in self.images.iter().zip(&self.labels) {
            let enc = stored_form(img, input);
            let t0 = std::time::Instant::now();
            let sig = smol_codec::signal::image_signal(&enc);
            signal_s += t0.elapsed().as_secs_f64();
            // No signal ⇒ +inf score ⇒ the item escalates at any
            // threshold (the runtime routes missing signals the same way).
            scores.push(sig.map_or(f64::INFINITY, |s| s.score()));
            let reduced = enc
                .decode_scaled(factor as usize)
                .expect("calibration decode")
                .0;
            small_ok.push(small_p(&reduced) == label);
            big_ok.push(big_p(&enc.decode().expect("calibration decode")) == label);
        }
        let signal_throughput = if signal_s > 0.0 {
            n as f64 / signal_s
        } else {
            f64::INFINITY
        };
        let mut sorted = scores.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let mut points: Vec<RoutingSpec> = Vec::new();
        for q in [0.5, 0.75, 0.9] {
            let rank = ((q * (n - 1) as f64).round() as usize).min(n - 1);
            let threshold = sorted[rank];
            if !threshold.is_finite() || points.iter().any(|p| p.threshold == threshold) {
                continue;
            }
            let mut escalated = 0usize;
            let mut correct = 0usize;
            for i in 0..n {
                if scores[i] > threshold {
                    escalated += 1;
                    correct += big_ok[i] as usize;
                } else {
                    correct += small_ok[i] as usize;
                }
            }
            points.push(RoutingSpec {
                stage1_dnn: small,
                stage1_decode: DecodeMode::ReducedResolution { factor },
                threshold,
                escalation_rate: escalated as f64 / n as f64,
                accuracy: correct as f64 / n as f64,
                signal_throughput,
            });
        }
        lock(&self.cascade_memo).insert(key, points.clone());
        Some(points)
    }
}
