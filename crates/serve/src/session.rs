//! The declarative, constraint-driven query interface — the §3.1 contract
//! ("the user provides an accuracy target, Smol picks the plan") as an
//! API, layered over the multi-query [`Server`].
//!
//! A [`Session`] owns one server (one shared device) and a set of
//! registered [`Dataset`]s. Callers never build `CandidateSpec`s or
//! `QueryPlan`s: they register a dataset once (named input variants, the
//! DNN ladder to consider, and calibration data), then submit declarative
//! [`Query`]s:
//!
//! ```text
//! session.register(dataset)?;
//! let report = session.run(&Query::new("photos").max_accuracy_loss(0.005))?;
//! ```
//!
//! On first use of a `(dataset, constraint, planner-config, device)`
//! combination the session
//!
//! 1. profiles decode+preprocess throughput per variant by running the
//!    server's producer stage on its own ([`smol_runtime::Profiler`]),
//! 2. derives a [`CandidateSpec`] per calibrated (DNN, variant) pair —
//!    accuracies come from the dataset's [`Calibration`], not from
//!    call-site literals,
//! 3. resolves the constraint over the planner's enumeration
//!    ([`Planner::plan`]), and
//! 4. caches the chosen plan in a [`PlanCache`] keyed on exactly that
//!    4-tuple; later submissions with an equal key skip profiling and
//!    planning entirely (assertable via [`Profiler::calls`] and
//!    [`CacheStats`]).
//!
//! Execution always goes through the server's fair-share, cross-query
//! batching path, so concurrent declarative queries co-batch exactly like
//! hand-submitted plans.
//!
//! Failures are typed end to end: [`SessionError`] wraps the planner's
//! [`PlanError`] (e.g. [`PlanError::Infeasible`] with the best achievable
//! accuracy) and the server's [`ServeError`], plus registration errors
//! like [`SessionError::UnknownDataset`].
//!
//! A (DNN, variant) pair with no calibration entry is simply *not a
//! candidate* — datasets may calibrate a sparse subset of the D × F grid
//! (exactly like the paper, which only trains/evaluates the pairs it
//! serves). If nothing is calibrated, planning fails with
//! [`PlanError::NoCandidates`].

use crate::server::{
    DegradeStep, Priority, QueryHandle, ServeError, Server, ServerConfig, SubmitOptions,
};
use crate::stats::QueryReport;
use parking_lot::{Condvar, Mutex};
use smol_accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol_codec::{EncodedImage, Format};
use smol_core::{
    pareto_frontier, CandidateSpec, Constraint, ConstraintKey, DecodeMode, InputVariant,
    PlanCandidate, PlanError, Planner, PlannerConfig, QueryPlan, RoutingSpec, StorageProfile,
    VideoFidelity,
};
use smol_data::{EncodedVariant, GopCorpus, StreamFeed, VariantStore};
use smol_imgproc::{ops::resize_short_edge_u8, ImageU8};
use smol_runtime::{wrap_gops, wrap_images, MediaItem, Profiler};
use smol_video::EncodedGop;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Session-layer errors: the workspace-level failure hierarchy
/// (re-exported as `smol::Error`).
#[derive(Debug)]
pub enum SessionError {
    /// The query names a dataset that was never registered.
    UnknownDataset { name: String },
    /// A dataset with this name is already registered. Re-registration is
    /// rejected because cached plans are keyed by dataset name and would
    /// go stale silently.
    DuplicateDataset { name: String },
    /// Planning failed (no candidates, infeasible constraint, …).
    Plan(PlanError),
    /// The query carries a deadline the fleet cannot meet even under the
    /// most optimistic assumptions (fastest feasible plan, every device
    /// dedicated to this query, zero queueing). `estimated_s` is that
    /// optimistic wall-clock estimate; degradation cannot save a query
    /// whose *best* rung is already too slow, so it is rejected at
    /// submission instead of admitted to miss.
    DeadlineInfeasible { deadline_s: f64, estimated_s: f64 },
    /// The serving runtime rejected or dropped the query.
    Serve(ServeError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::UnknownDataset { name } => write!(f, "unknown dataset {name:?}"),
            SessionError::DuplicateDataset { name } => {
                write!(f, "dataset {name:?} is already registered")
            }
            SessionError::Plan(e) => write!(f, "planning failed: {e}"),
            SessionError::DeadlineInfeasible {
                deadline_s,
                estimated_s,
            } => write!(
                f,
                "deadline {deadline_s:.3}s is infeasible: optimistic completion \
                 estimate is {estimated_s:.3}s"
            ),
            SessionError::Serve(e) => write!(f, "serving failed: {e}"),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Plan(e) => Some(e),
            SessionError::Serve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlanError> for SessionError {
    fn from(e: PlanError) -> Self {
        SessionError::Plan(e)
    }
}

impl From<ServeError> for SessionError {
    fn from(e: ServeError) -> Self {
        SessionError::Serve(e)
    }
}

/// Per-image prediction function standing in for a DNN's classification
/// head during calibration.
pub type PredictFn = Arc<dyn Fn(&ImageU8) -> usize + Send + Sync>;

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
    fn accuracy(&self, model: ModelKind, input: &InputVariant) -> Option<f64> {
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
    fn video_fidelity(&self, model: ModelKind, input: &InputVariant) -> Option<VideoFidelity> {
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

    fn reduced_accuracy(
        &self,
        model: ModelKind,
        input: &InputVariant,
        mode: DecodeMode,
    ) -> Option<f64> {
        let DecodeMode::ReducedResolution { factor } = mode else {
            return None;
        };
        match self {
            Calibration::Table(t) => t.get(model, &input.name).and_then(|e| e.reduced_at(factor)),
            Calibration::Measured(m) => m.measure(model, input, Some(factor)),
        }
    }
}

#[derive(Debug, Clone)]
struct TableEntry {
    accuracy: f64,
    /// Reduced-resolution accuracy per scaled-IDCT factor.
    reduced: BTreeMap<u8, f64>,
    /// Accuracy under keyframe-only decoding (video variants).
    keyframes: Option<f64>,
    /// Accuracy with the in-loop deblocking filter skipped (video
    /// variants).
    no_deblock: Option<f64>,
}

impl TableEntry {
    /// Reduced accuracy to use when the planner decodes at `factor`:
    /// the exact calibrated value when recorded; otherwise the value at
    /// the closest *harsher* recorded factor (a valid lower bound — less
    /// downsampling cannot hurt accuracy); otherwise the value at the
    /// closest milder factor (the best available estimate). `None` when
    /// no reduced accuracy was calibrated at all, which falls back to the
    /// planner's low-res-tolerant assumption (accuracy carries over).
    fn reduced_at(&self, factor: u8) -> Option<f64> {
        if let Some(&acc) = self.reduced.get(&factor) {
            return Some(acc);
        }
        if let Some((_, &acc)) = self.reduced.range(factor..).next() {
            return Some(acc);
        }
        self.reduced
            .range(..factor)
            .next_back()
            .map(|(_, &acc)| acc)
    }
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
    /// measured under reduced-resolution decoding **at `factor`** (§6.4's
    /// fidelity/throughput trade). The factor matters: a value calibrated
    /// at factor 2 says nothing safe about factor 8, so lookups match the
    /// factor the planner actually selects (exact match, else the closest
    /// harsher factor's value as a lower bound, else the closest milder
    /// one as the best available estimate). Record one entry per factor
    /// you intend to serve.
    pub fn with_reduced(
        mut self,
        model: ModelKind,
        variant: &str,
        accuracy: f64,
        factor: u8,
        reduced: f64,
    ) -> Self {
        self.entry(model, variant, accuracy)
            .reduced
            .insert(factor, reduced);
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
                reduced: BTreeMap::new(),
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

/// One calibrated cascade operating point: routing items whose
/// bitstream-difficulty score exceeds `threshold` to the full rung
/// yields this escalation rate and end-to-end accuracy.
#[derive(Debug, Clone, Copy)]
struct CascadePoint {
    threshold: f64,
    escalation_rate: f64,
    accuracy: f64,
    /// Measured signal-computation throughput (items/s).
    signal_throughput: f64,
}

pub struct MeasuredCalibration {
    images: Vec<ImageU8>,
    labels: Vec<usize>,
    predictors: HashMap<ModelKind, PredictFn>,
    memo: Mutex<HashMap<MeasureKey, f64>>,
    cascade_memo: Mutex<HashMap<CascadeKey, Vec<CascadePoint>>>,
    /// Predictors are opaque closures, so measured calibrations can't be
    /// compared structurally; each instance gets a unique identity for
    /// dataset fingerprinting instead.
    nonce: u64,
}

/// Source of [`MeasuredCalibration::nonce`] values.
static MEASURED_NONCE: AtomicU64 = AtomicU64::new(1);

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
        if let Some(&acc) = self.memo.lock().get(&key) {
            return Some(acc);
        }
        let short = input.width.min(input.height);
        let mut correct = 0usize;
        for (img, &label) in self.images.iter().zip(&self.labels) {
            let staged;
            let variant_img = if input.is_thumbnail && img.width().min(img.height()) != short {
                staged = resize_short_edge_u8(img, short).expect("calibration resize");
                &staged
            } else {
                img
            };
            let enc = EncodedImage::encode(variant_img, input.format).expect("calibration encode");
            let decoded = match factor {
                None => enc.decode().expect("calibration decode"),
                Some(f) => enc.decode_scaled(f as usize).expect("calibration decode").0,
            };
            if predict(&decoded) == label {
                correct += 1;
            }
        }
        let acc = correct as f64 / self.images.len() as f64;
        self.memo.lock().insert(key, acc);
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
    fn measure_cascade(
        &self,
        small: ModelKind,
        big: ModelKind,
        input: &InputVariant,
        factor: u8,
    ) -> Option<Vec<CascadePoint>> {
        let small_p = self.predictors.get(&small)?;
        let big_p = self.predictors.get(&big)?;
        if self.images.is_empty() {
            return None;
        }
        let key = (small, big, input.name.clone(), factor);
        if let Some(points) = self.cascade_memo.lock().get(&key) {
            return Some(points.clone());
        }
        let short = input.width.min(input.height);
        let n = self.images.len();
        let mut scores = Vec::with_capacity(n);
        let mut small_ok = Vec::with_capacity(n);
        let mut big_ok = Vec::with_capacity(n);
        let mut signal_s = 0.0f64;
        for (img, &label) in self.images.iter().zip(&self.labels) {
            let staged;
            let variant_img = if input.is_thumbnail && img.width().min(img.height()) != short {
                staged = resize_short_edge_u8(img, short).expect("calibration resize");
                &staged
            } else {
                img
            };
            let enc = EncodedImage::encode(variant_img, input.format).expect("calibration encode");
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
        let mut points: Vec<CascadePoint> = Vec::new();
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
            points.push(CascadePoint {
                threshold,
                escalation_rate: escalated as f64 / n as f64,
                accuracy: correct as f64 / n as f64,
                signal_throughput,
            });
        }
        self.cascade_memo.lock().insert(key, points.clone());
        Some(points)
    }
}

/// One registered input variant: the planner-facing descriptor plus the
/// encoded serving corpus (still images or video GOPs).
pub struct DatasetVariant {
    pub input: InputVariant,
    pub items: Arc<Vec<MediaItem>>,
}

/// A registered dataset: named input variants, the DNN ladder to consider
/// (the paper's D), and calibration data the session derives accuracies
/// from.
pub struct Dataset {
    name: String,
    models: Vec<ModelKind>,
    variants: Vec<DatasetVariant>,
    calibration: Calibration,
    /// Measured verified-read throughput (items/s) of the variant store
    /// this dataset was materialized into; `None` until
    /// [`Dataset::materialize`] runs. Feeds the planner's storage-aware
    /// costing ([`StorageProfile`]).
    materialized_read: Option<f64>,
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
    pub fn with_gop_variant(mut self, input: InputVariant, gops: Vec<EncodedGop>) -> Self {
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
                items: v
                    .items
                    .iter()
                    .filter_map(|m| match m {
                        MediaItem::Image(i) => Some(i.clone()),
                        MediaItem::Gop(_) => None,
                    })
                    .collect(),
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

    fn variant(&self, name: &str) -> Option<&DatasetVariant> {
        self.variants.iter().find(|v| v.input.name == name)
    }

    /// Structural identity of this dataset for cache keys: models,
    /// variant descriptors + corpus sizes, and the calibration contents
    /// (table entries bit-exactly; measured calibrations by instance
    /// nonce, since predictors are opaque). Two same-named datasets with
    /// different contents — e.g. registered in different sessions sharing
    /// one [`PlanCache`] — therefore never collide on cached plans or
    /// profiles.
    fn fingerprint(&self) -> u64 {
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
        match &self.calibration {
            Calibration::Table(t) => {
                let mut entries: Vec<String> = t
                    .entries
                    .iter()
                    .map(|((m, v), e)| {
                        let reduced: Vec<(u8, u64)> =
                            e.reduced.iter().map(|(&f, a)| (f, a.to_bits())).collect();
                        format!(
                            "{m:?}|{v}|{:016x}|{reduced:?}|{:?}|{:?}",
                            e.accuracy.to_bits(),
                            e.keyframes.map(f64::to_bits),
                            e.no_deblock.map(f64::to_bits),
                        )
                    })
                    .collect();
                entries.sort();
                entries.hash(&mut h);
            }
            Calibration::Measured(m) => m.nonce.hash(&mut h),
        }
        // Materialization changes the specs a dataset derives (storage
        // profiles attach), so it must split cache keys too.
        self.materialized_read.is_some().hash(&mut h);
        h.finish()
    }
}

/// A dataset as held by a session: the registration plus its computed
/// fingerprint.
struct Registered {
    dataset: Dataset,
    fingerprint: u64,
}

/// A declarative query: a dataset name plus a [`Constraint`]. Defaults to
/// `max_accuracy_loss(0.0)` — the most accurate plan available.
///
/// ```
/// use smol_core::Constraint;
/// use smol_serve::Query;
///
/// // "Within half a point of the best accuracy, go as fast as possible,
/// //  over the first 100 items."
/// let q = Query::new("photos").max_accuracy_loss(0.005).take(100);
/// assert_eq!(q.dataset(), "photos");
/// assert_eq!(*q.constraint(), Constraint::MaxAccuracyLoss(0.005));
///
/// // Floors on the other axes; see `smol_core::constraints` for exact
/// // semantics (these select the most accurate feasible plan).
/// let _ = Query::new("photos").min_throughput(2000.0);
/// let _ = Query::new("photos").max_cost(30.0); // ¢ per million images
/// ```
/// SLO vocabulary rides on the same builder: `.deadline(..)` bounds
/// wall-clock completion (infeasible deadlines are rejected with
/// [`SessionError::DeadlineInfeasible`]), `.priority(..)` orders
/// admission and claiming against other tenants, and
/// `.allow_degradation(true)` lets the scheduler re-plan this query down
/// its calibrated Pareto ladder under load — never below the accuracy
/// floor its constraint implies.
#[derive(Debug, Clone)]
pub struct Query {
    dataset: String,
    constraint: Constraint,
    limit: Option<usize>,
    deadline: Option<Duration>,
    priority: Priority,
    allow_degradation: bool,
}

impl Query {
    pub fn new(dataset: impl Into<String>) -> Self {
        Query {
            dataset: dataset.into(),
            constraint: Constraint::MaxAccuracyLoss(0.0),
            limit: None,
            deadline: None,
            priority: Priority::Normal,
            allow_degradation: false,
        }
    }

    /// Accuracy within `loss` of the best candidate; fastest such plan.
    pub fn max_accuracy_loss(mut self, loss: f64) -> Self {
        self.constraint = Constraint::MaxAccuracyLoss(loss);
        self
    }

    /// Absolute accuracy floor; fastest plan at or above it.
    pub fn min_accuracy(mut self, floor: f64) -> Self {
        self.constraint = Constraint::MinAccuracy(floor);
        self
    }

    /// Estimated-throughput floor in im/s; most accurate plan above it.
    pub fn min_throughput(mut self, floor: f64) -> Self {
        self.constraint = Constraint::MinThroughput(floor);
        self
    }

    /// Cost ceiling in ¢ per million images at the default g4dn.xlarge
    /// price (§7); most accurate plan under the ceiling.
    pub fn max_cost(self, cents_per_million: f64) -> Self {
        self.max_cost_at(cents_per_million, Constraint::DEFAULT_PRICE_PER_HOUR)
    }

    /// Cost ceiling at an explicit instance price in $/hour.
    pub fn max_cost_at(mut self, cents_per_million: f64, price_per_hour: f64) -> Self {
        self.constraint = Constraint::MaxCost {
            cents_per_million,
            price_per_hour,
        };
        self
    }

    /// Explicit constraint (escape hatch for programmatic construction).
    pub fn with_constraint(mut self, constraint: Constraint) -> Self {
        self.constraint = constraint;
        self
    }

    /// Runs over at most the first `n` items of the chosen variant.
    pub fn take(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Wall-clock completion deadline (an SLO, not a hint): submission
    /// fails with [`SessionError::DeadlineInfeasible`] when even the
    /// optimistic estimate exceeds it, and the scheduler degrades the
    /// query (if allowed) when it is projected to miss.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Admission/claiming priority relative to other tenants' queries.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Permits the scheduler to re-plan this query to cheaper calibrated
    /// plans on its Pareto frontier under load. Degradation never goes
    /// below the constraint's accuracy floor, but it *does* change which
    /// plan produces the outputs — hence opt-in.
    ///
    /// Accuracy constraints ([`Query::max_accuracy_loss`],
    /// [`Query::min_accuracy`]) already select the *fastest* feasible
    /// plan, so their degradation ladder is empty by construction;
    /// throughput and cost constraints select the *most accurate* plan
    /// above their floor and degrade down the frontier's faster rungs.
    pub fn allow_degradation(mut self, allow: bool) -> Self {
        self.allow_degradation = allow;
        self
    }

    pub fn dataset(&self) -> &str {
        &self.dataset
    }

    pub fn constraint(&self) -> &Constraint {
        &self.constraint
    }

    /// The deadline set via [`Query::deadline`], if any.
    pub fn deadline_slo(&self) -> Option<Duration> {
        self.deadline
    }

    /// The priority set via [`Query::priority`].
    pub fn priority_slo(&self) -> Priority {
        self.priority
    }

    /// Whether [`Query::allow_degradation`] opted this query in.
    pub fn degradation_allowed(&self) -> bool {
        self.allow_degradation
    }
}

/// Identity of the device pool a session executes on, for plan-cache
/// keys: the primary device's model + environment + calibrated anchor and
/// time scale (so custom [`DeviceSpec`](smol_accel::DeviceSpec)s with the
/// same `GpuModel` tag still key distinctly), plus a digest over every
/// fleet member so two fleets with the same primary but different
/// secondaries never share cached plans.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DeviceKey {
    model: GpuModel,
    env: ExecutionEnv,
    anchor_bits: u64,
    time_scale_bits: u64,
    fleet_bits: u64,
}

impl DeviceKey {
    pub fn of(device: &VirtualDevice) -> Self {
        Self::of_fleet(std::slice::from_ref(device))
    }

    /// Keys a device pool; `devices[0]` is the primary the planner costs
    /// against. Panics on an empty slice.
    pub fn of_fleet(devices: &[VirtualDevice]) -> Self {
        let primary = devices.first().expect("fleet has at least one device");
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for d in devices {
            d.spec().model.hash(&mut h);
            d.env().hash(&mut h);
            d.spec().resnet50_batch64.to_bits().hash(&mut h);
            d.time_scale().to_bits().hash(&mut h);
        }
        DeviceKey {
            model: primary.spec().model,
            env: primary.env(),
            anchor_bits: primary.spec().resnet50_batch64.to_bits(),
            time_scale_bits: primary.time_scale().to_bits(),
            fleet_bits: h.finish(),
        }
    }
}

/// Full plan-cache key: `(dataset, constraint, PlannerConfig, device)`,
/// where "dataset" is the registered name *plus* its structural
/// fingerprint (see `Dataset::fingerprint`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    dataset: String,
    fingerprint: u64,
    constraint: ConstraintKey,
    planner: PlannerConfig,
    device: DeviceKey,
}

/// Profile-cache key: profiled preprocessing throughput depends on the
/// dataset variant and the planner configuration (which shapes the
/// preprocessing plan and decode mode) but *not* on the device, env, or
/// constraint — profiling is CPU-side — so a device change re-plans
/// without re-measuring. The planner component is therefore the config
/// with its device/env fields pinned (see
/// `Session::profile_planner_key`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ProfileKey {
    dataset: String,
    fingerprint: u64,
    variant: String,
    planner: PlannerConfig,
}

/// A continuous query's per-GOP serving ladder (see
/// [`Session::stream_ladder`]): the plans a pacing scheduler may pick
/// per GOP, most accurate first, all at or above the accuracy floor.
#[derive(Debug, Clone)]
pub struct StreamLadder {
    /// Rung 0 is what an on-time stream runs; deeper rungs trade
    /// calibrated accuracy for throughput.
    pub rungs: Vec<DegradeStep>,
    /// The constraint's accuracy floor (`None` when it bounds no
    /// accuracy, e.g. throughput/cost constraints).
    pub accuracy_floor: Option<f64>,
    /// Input variant every rung reads.
    pub variant: String,
}

/// A resolved, cached planning decision.
#[derive(Debug, Clone)]
pub struct ChosenPlan {
    /// The winning candidate; `candidate.plan` is executable as-is.
    pub candidate: PlanCandidate,
    /// Name of the input variant the plan reads.
    pub variant: String,
    /// The Pareto frontier the winner was drawn from, cached so
    /// [`Session::explain`] never re-derives specs.
    pub frontier: Vec<PlanCandidate>,
}

enum PlanSlot {
    /// Another thread is profiling/planning this key right now.
    Pending,
    Ready(Arc<ChosenPlan>),
}

enum ProfileSlot {
    Pending,
    Ready(f64),
}

/// Shared, thread-safe plan + profile cache. Construct one per session
/// (the [`Session::new`] default) or share one `Arc<PlanCache>` across
/// sessions over different devices/configs to pool planning work.
///
/// Misses are **single-flight per key**: concurrent submissions of the
/// same `(dataset, constraint, config, device)` tuple plan once — the
/// rest wait and count as hits. Without this, simultaneous first-use
/// queries would profile the same variants in parallel and perturb each
/// other's throughput measurements. A planning attempt that fails — or
/// panics — retracts its pending slot and wakes the waiters, which then
/// try for themselves.
#[derive(Default)]
pub struct PlanCache {
    plans: Mutex<HashMap<PlanKey, PlanSlot>>,
    ready_cv: Condvar,
    profiles: Mutex<HashMap<ProfileKey, ProfileSlot>>,
    profile_cv: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Counters for [`PlanCache`] behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Plan lookups answered from cache.
    pub hits: u64,
    /// Plan lookups that had to profile/plan.
    pub misses: u64,
    /// Distinct cached plans.
    pub plans: usize,
    /// Distinct cached per-variant profiles.
    pub profiles: usize,
}

impl PlanCache {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Acquire),
            misses: self.misses.load(Ordering::Acquire),
            plans: self
                .plans
                .lock()
                .values()
                .filter(|s| matches!(s, PlanSlot::Ready(_)))
                .count(),
            profiles: self
                .profiles
                .lock()
                .values()
                .filter(|s| matches!(s, ProfileSlot::Ready(_)))
                .count(),
        }
    }

    /// Returns the cached plan for `key`, or runs `plan` to produce it.
    /// Concurrent callers with the same key wait for the in-flight
    /// planning instead of duplicating it (and count as hits). A failed
    /// planning attempt is not cached; waiters retry it themselves.
    fn get_or_plan(
        &self,
        key: &PlanKey,
        plan: impl FnOnce() -> Result<Arc<ChosenPlan>, SessionError>,
    ) -> Result<(Arc<ChosenPlan>, bool), SessionError> {
        {
            let mut plans = self.plans.lock();
            loop {
                match plans.get(key) {
                    Some(PlanSlot::Ready(p)) => {
                        self.hits.fetch_add(1, Ordering::AcqRel);
                        return Ok((p.clone(), true));
                    }
                    Some(PlanSlot::Pending) => self.ready_cv.wait(&mut plans),
                    None => break,
                }
            }
            plans.insert(key.clone(), PlanSlot::Pending);
            self.misses.fetch_add(1, Ordering::AcqRel);
        }
        // Plan outside the lock (profiling is slow). The guard retracts
        // the pending slot and wakes waiters on *any* non-success exit —
        // error return or panic — so a failed planner can never wedge
        // concurrent submitters of the same key.
        let mut guard = RetractPending {
            cache: self,
            key,
            armed: true,
        };
        let result = plan();
        if let Ok(p) = &result {
            self.plans
                .lock()
                .insert(key.clone(), PlanSlot::Ready(p.clone()));
            guard.armed = false;
            self.ready_cv.notify_all();
        }
        result.map(|p| (p, false))
    }

    /// Like [`PlanCache::get_or_plan`] but for per-variant profiling:
    /// single-flight per key, measured outside the lock. Concurrent
    /// measurements of the same variant would contend for the CPU and
    /// understate both throughputs, so waiters block instead.
    fn profile_or(&self, key: ProfileKey, measure: impl FnOnce() -> f64) -> f64 {
        {
            let mut profiles = self.profiles.lock();
            loop {
                match profiles.get(&key) {
                    Some(ProfileSlot::Ready(t)) => return *t,
                    Some(ProfileSlot::Pending) => self.profile_cv.wait(&mut profiles),
                    None => break,
                }
            }
            profiles.insert(key.clone(), ProfileSlot::Pending);
        }
        let mut guard = RetractPendingProfile {
            cache: self,
            key: key.clone(),
            armed: true,
        };
        let t = measure();
        guard.armed = false;
        self.profiles.lock().insert(key, ProfileSlot::Ready(t));
        self.profile_cv.notify_all();
        t
    }
}

/// Removes a pending plan slot and wakes waiters if planning unwound
/// (error or panic) before publishing a result.
struct RetractPending<'a> {
    cache: &'a PlanCache,
    key: &'a PlanKey,
    armed: bool,
}

impl Drop for RetractPending<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.cache.plans.lock().remove(self.key);
            self.cache.ready_cv.notify_all();
        }
    }
}

/// [`RetractPending`]'s counterpart for the profile map.
struct RetractPendingProfile<'a> {
    cache: &'a PlanCache,
    key: ProfileKey,
    armed: bool,
}

impl Drop for RetractPendingProfile<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.cache.profiles.lock().remove(&self.key);
            self.cache.profile_cv.notify_all();
        }
    }
}

/// Session configuration.
pub struct SessionConfig {
    /// Planner configuration. The `device` and `env` fields are
    /// **overridden** from the session's [`VirtualDevice`] at
    /// construction, so cost estimation always models the device that
    /// actually executes the plans.
    pub planner: PlannerConfig,
    /// Serving configuration for the underlying [`Server`].
    pub server: ServerConfig,
    /// Per-variant profiling sample cap (items). 0 means profile the full
    /// corpus.
    pub profile_sample: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            planner: PlannerConfig::default(),
            server: ServerConfig::default(),
            profile_sample: 64,
        }
    }
}

/// Why a plan was chosen: the constraint-feasible winner plus the Pareto
/// frontier it was drawn from (for reports and debugging).
pub struct Explanation {
    /// Pareto-optimal candidates over the derived specs.
    pub frontier: Vec<PlanCandidate>,
    /// The constraint's winner (same plan the session executes).
    pub chosen: PlanCandidate,
    /// Name of the input variant the chosen plan reads.
    pub variant: String,
    /// Whether the chosen plan came from the cache.
    pub cache_hit: bool,
}

/// The declarative session facade. See the module docs for the
/// lifecycle.
///
/// The whole contract in one (running) example — register once, query by
/// constraint, plans come from cache on re-submission:
///
/// ```
/// use smol_accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
/// use smol_codec::{EncodedImage, Format};
/// use smol_core::InputVariant;
/// use smol_imgproc::ImageU8;
/// use smol_serve::{
///     AccuracyTable, Calibration, Dataset, Query, Session, SessionConfig,
/// };
///
/// # fn main() -> Result<(), smol_serve::SessionError> {
/// let images: Vec<EncodedImage> = (0..6)
///     .map(|i| {
///         let mut img = ImageU8::zeros(64, 64, 3);
///         for (j, v) in img.data_mut().iter_mut().enumerate() {
///             *v = ((i * 31 + j * 7) % 256) as u8;
///         }
///         EncodedImage::encode(&img, Format::sjpg(85)).unwrap()
///     })
///     .collect();
/// let device = VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 0.05);
/// let session = Session::new(device, SessionConfig::default());
/// session.register(
///     Dataset::new("photos")
///         .with_model(ModelKind::ResNet50)
///         .with_variant(
///             InputVariant::new("full", Format::sjpg(85), 64, 64),
///             images,
///         )
///         .with_calibration(Calibration::Table(
///             AccuracyTable::new().with(ModelKind::ResNet50, "full", 0.75),
///         )),
/// )?;
/// let report = session.run(&Query::new("photos").max_accuracy_loss(0.005))?;
/// assert_eq!(report.images, 6);
/// // Identical query: answered from the plan cache, no re-profiling.
/// let calls = session.profiler().calls();
/// assert!(session.explain(&Query::new("photos").max_accuracy_loss(0.005))?.cache_hit);
/// assert_eq!(session.profiler().calls(), calls);
/// session.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct Session {
    server: Server,
    planner: Planner,
    device_key: DeviceKey,
    datasets: Mutex<HashMap<String, Arc<Registered>>>,
    profiler: Arc<Profiler>,
    cache: Arc<PlanCache>,
    /// Fastest (smallest) time scale across the fleet — the optimistic
    /// simulated→wall conversion for deadline feasibility checks.
    min_time_scale: f64,
    /// Fleet throughput relative to the primary device (sum of per-device
    /// ResNet-50 anchors over the primary's anchor; 1.0 for one device).
    fleet_speedup: f64,
}

impl Session {
    /// A session over `device` with its own profiler and plan cache.
    pub fn new(device: VirtualDevice, cfg: SessionConfig) -> Self {
        Self::with_fleet(vec![device], cfg)
    }

    /// A session serving over a pool of devices: items shard across the
    /// fleet's lanes with work stealing (see [`Server::with_devices`]).
    /// `devices[0]` is the *primary* — the planner costs candidate plans
    /// against it, so put the representative (or slowest) device first
    /// for conservative plans. Panics on an empty fleet.
    pub fn with_fleet(devices: Vec<VirtualDevice>, cfg: SessionConfig) -> Self {
        let profiler = Arc::new(Profiler::new(cfg.server.runtime).with_sample(cfg.profile_sample));
        Self::with_shared_fleet(devices, cfg, profiler, Arc::new(PlanCache::new()))
    }

    /// A session sharing an externally owned profiler and plan cache —
    /// for pooling planning work across sessions, and for tests that
    /// assert profiling/caching behavior.
    pub fn with_shared(
        device: VirtualDevice,
        cfg: SessionConfig,
        profiler: Arc<Profiler>,
        cache: Arc<PlanCache>,
    ) -> Self {
        Self::with_shared_fleet(vec![device], cfg, profiler, cache)
    }

    /// [`Session::with_fleet`] with an externally owned profiler and plan
    /// cache.
    pub fn with_shared_fleet(
        devices: Vec<VirtualDevice>,
        mut cfg: SessionConfig,
        profiler: Arc<Profiler>,
        cache: Arc<PlanCache>,
    ) -> Self {
        // The planner must cost DNN execution on the device that will
        // actually run the plans; otherwise a min-throughput or max-cost
        // constraint is judged against the wrong throughput tables. For a
        // fleet, the primary device is the costing anchor.
        let primary = devices.first().expect("fleet has at least one device");
        cfg.planner.device = primary.spec().model;
        cfg.planner.env = primary.env();
        let device_key = DeviceKey::of_fleet(&devices);
        let min_time_scale = devices
            .iter()
            .map(VirtualDevice::time_scale)
            .fold(f64::INFINITY, f64::min);
        let primary_anchor = primary.spec().resnet50_batch64;
        let fleet_speedup = devices
            .iter()
            .map(|d| d.spec().resnet50_batch64)
            .sum::<f64>()
            / primary_anchor;
        Session {
            server: Server::with_devices(devices, cfg.server),
            planner: Planner::new(cfg.planner),
            device_key,
            datasets: Mutex::new(HashMap::new()),
            profiler,
            cache,
            min_time_scale,
            fleet_speedup,
        }
    }

    /// Registers a dataset. Names are unique per session.
    pub fn register(&self, dataset: Dataset) -> Result<(), SessionError> {
        let mut datasets = self.datasets.lock();
        let name = dataset.name.clone();
        if datasets.contains_key(&name) {
            return Err(SessionError::DuplicateDataset { name });
        }
        let fingerprint = dataset.fingerprint();
        datasets.insert(
            name,
            Arc::new(Registered {
                dataset,
                fingerprint,
            }),
        );
        Ok(())
    }

    fn dataset(&self, name: &str) -> Result<Arc<Registered>, SessionError> {
        self.datasets
            .lock()
            .get(name)
            .cloned()
            .ok_or_else(|| SessionError::UnknownDataset {
                name: name.to_string(),
            })
    }

    /// The planner-key component of profile-cache keys: device and env
    /// pinned to fixed values, because CPU-side profiling does not depend
    /// on them (a device change must re-plan, not re-measure).
    fn profile_planner_key(&self) -> PlannerConfig {
        PlannerConfig {
            device: GpuModel::T4,
            env: ExecutionEnv::TensorRt,
            ..self.planner.config
        }
    }

    /// Derives the candidate specs for a dataset: profiled preprocessing
    /// throughput per variant (cached) × calibrated accuracy per
    /// (DNN, variant) pair.
    fn derive_specs(&self, reg: &Registered) -> Vec<CandidateSpec> {
        let ds = &reg.dataset;
        let mut specs = Vec::new();
        for v in &ds.variants {
            if ds.models.is_empty() || v.items.is_empty() {
                continue;
            }
            // Preprocessing throughput is DNN-independent: profile the
            // variant once under any model.
            let probe = QueryPlan {
                dnn: ds.models[0],
                input: v.input.clone(),
                preproc: self.planner.build_preproc(&v.input),
                decode: self.planner.decode_mode(&v.input),
                batch: self.planner.config.batch,
                extra_stages: Vec::new(),
            };
            let key = ProfileKey {
                dataset: ds.name.clone(),
                fingerprint: reg.fingerprint,
                variant: v.input.name.clone(),
                planner: self.profile_planner_key(),
            };
            let decode_key = ProfileKey {
                variant: format!("{}#decode", v.input.name),
                ..key.clone()
            };
            let tput = self
                .cache
                .profile_or(key, || self.profiler.media_throughput(&v.items, &probe));
            // Storage-aware costing for materialized datasets: the store
            // read rate was measured at materialization, the transcode is
            // already paid, and the decoded-tensor cache contributes its
            // *live* hit rate. The cached-path rate is the decode-free
            // residue of the measured joint throughput (1/t = 1/d + 1/p).
            // Note the hit rate is sampled at planning time; a cached plan
            // keeps the rate it was planned with until a new plan key
            // forces re-planning.
            let storage = match ds.materialized_read {
                Some(read_throughput) if !v.input.is_video() => {
                    let decode_tput = self.cache.profile_or(decode_key, || {
                        let images: Vec<EncodedImage> = v
                            .items
                            .iter()
                            .filter_map(|m| match m {
                                MediaItem::Image(i) => Some(i.clone()),
                                MediaItem::Gop(_) => None,
                            })
                            .collect();
                        self.profiler.decode_throughput(&images, probe.decode)
                    });
                    let cached_throughput = if decode_tput > tput && tput > 0.0 {
                        1.0 / (1.0 / tput - 1.0 / decode_tput)
                    } else {
                        0.0
                    };
                    Some(StorageProfile {
                        read_throughput,
                        transcode_amortized_s: 0.0,
                        cached_throughput,
                        cache_hit_rate: self.server.tensor_cache_stats().hit_rate(),
                    })
                }
                _ => None,
            };
            let reduced_mode = self.planner.reduced_decode_mode(&v.input);
            for &model in &ds.models {
                let Some(accuracy) = ds.calibration.accuracy(model, &v.input) else {
                    continue;
                };
                let reduced_accuracy = reduced_mode
                    .and_then(|mode| ds.calibration.reduced_accuracy(model, &v.input, mode));
                // Cascade routing specs: pair this (full-rung) DNN with
                // every other registered DNN as the aggressive stage-1
                // rung on the reduced decode. Needs measured calibration
                // (per-image joint scoring) and a signal-bearing format.
                let routing: Vec<RoutingSpec> = match (&ds.calibration, reduced_mode) {
                    (
                        Calibration::Measured(m),
                        Some(mode @ DecodeMode::ReducedResolution { factor }),
                    ) if matches!(v.input.format, Format::Sjpg { .. }) => {
                        let mut routing = Vec::new();
                        for &small in &ds.models {
                            if small == model {
                                continue;
                            }
                            let Some(points) = m.measure_cascade(small, model, &v.input, factor)
                            else {
                                continue;
                            };
                            routing.extend(points.into_iter().map(|p| RoutingSpec {
                                stage1_dnn: small,
                                stage1_decode: mode,
                                threshold: p.threshold,
                                escalation_rate: p.escalation_rate,
                                accuracy: p.accuracy,
                                signal_throughput: p.signal_throughput,
                            }));
                        }
                        routing
                    }
                    _ => Vec::new(),
                };
                specs.push(CandidateSpec {
                    dnn: model,
                    input: v.input.clone(),
                    accuracy,
                    preproc_throughput: tput,
                    reduced_accuracy,
                    cascade: None,
                    routing,
                    video: ds.calibration.video_fidelity(model, &v.input),
                    storage,
                });
            }
        }
        specs
    }

    fn resolve(&self, query: &Query) -> Result<(Arc<ChosenPlan>, bool), SessionError> {
        let reg = self.dataset(&query.dataset)?;
        let key = PlanKey {
            dataset: query.dataset.clone(),
            fingerprint: reg.fingerprint,
            constraint: query.constraint.key(),
            planner: self.planner.config,
            device: self.device_key.clone(),
        };
        self.cache.get_or_plan(&key, || {
            let specs = self.derive_specs(&reg);
            let candidates = self.planner.enumerate(&specs);
            let chosen = query.constraint.select(&candidates).cloned()?;
            Ok(Arc::new(ChosenPlan {
                variant: chosen.plan.input.name.clone(),
                candidate: chosen,
                frontier: pareto_frontier(candidates),
            }))
        })
    }

    /// Plans (or recalls) the query's plan and explains the decision
    /// without executing anything. Cache hits answer entirely from the
    /// cached decision — no re-profiling, no spec re-derivation.
    pub fn explain(&self, query: &Query) -> Result<Explanation, SessionError> {
        let (chosen, cache_hit) = self.resolve(query)?;
        Ok(Explanation {
            frontier: chosen.frontier.clone(),
            chosen: chosen.candidate.clone(),
            variant: chosen.variant.clone(),
            cache_hit,
        })
    }

    /// Plans the query and submits it to the serving runtime, returning
    /// the handle (admission may block under backpressure, like
    /// [`Server::submit`]).
    ///
    /// The query's SLOs flow into admission here: deadline-infeasible
    /// queries are rejected with [`SessionError::DeadlineInfeasible`]
    /// before admission, and `.allow_degradation(true)` queries carry the
    /// constraint's calibrated degradation ladder (cheaper Pareto rungs at
    /// or above the accuracy floor) for the scheduler to step down under
    /// load.
    pub fn submit(&self, query: &Query) -> Result<QueryHandle, SessionError> {
        let (chosen, _) = self.resolve(query)?;
        let reg = self.dataset(&query.dataset)?;
        let variant = reg
            .dataset
            .variant(&chosen.variant)
            .expect("plan keys fingerprint the variant set, so a hit's variant exists");
        let items: Vec<MediaItem> = variant
            .items
            .iter()
            .take(query.limit.unwrap_or(usize::MAX))
            .cloned()
            .collect();
        let ladder: Vec<DegradeStep> = if query.allow_degradation {
            query
                .constraint
                .degradation_ladder(&chosen.frontier, &chosen.candidate)
                .into_iter()
                // The items were drawn from the chosen plan's variant at
                // submission; a rung that reads a *different* variant
                // would decode the wrong corpus, so only same-variant
                // rungs (cheaper DNN, cheaper decode) are eligible.
                .filter(|c| c.plan.input.name == chosen.candidate.plan.input.name)
                .map(|c| DegradeStep {
                    plan: c.plan,
                    accuracy: c.accuracy,
                    est_throughput: c.est_throughput,
                })
                .collect()
        } else {
            Vec::new()
        };
        if let Some(deadline) = query.deadline {
            // Optimistic feasibility: the fastest rung available to this
            // query (chosen plan or any ladder step), the whole fleet
            // dedicated to it, zero queueing. Items is a lower bound on
            // outputs (GOPs fan out), keeping the estimate optimistic; a
            // deadline that fails *this* test cannot be met, degraded or
            // not.
            let best_sim_tput = ladder
                .iter()
                .map(|s| s.est_throughput)
                .fold(chosen.candidate.est_throughput, f64::max);
            let wall_rate = best_sim_tput * self.fleet_speedup / self.min_time_scale;
            if wall_rate > 0.0 {
                let estimated_s = items.len() as f64 / wall_rate;
                if estimated_s > deadline.as_secs_f64() {
                    return Err(SessionError::DeadlineInfeasible {
                        deadline_s: deadline.as_secs_f64(),
                        estimated_s,
                    });
                }
            }
        }
        // Accuracy constraints imply a finite floor; throughput/cost
        // constraints bound no accuracy (`NEG_INFINITY`), reported as "no
        // floor" rather than a nonsense number.
        let floor = query.constraint.accuracy_floor(&chosen.frontier);
        let opts = SubmitOptions {
            deadline: query.deadline,
            priority: query.priority,
            ladder,
            accuracy: Some(chosen.candidate.accuracy),
            accuracy_floor: floor.is_finite().then_some(floor),
            // A chosen cascade candidate carries its routing plan into
            // serving (the server ignores the ladder for cascades).
            cascade: chosen.candidate.cascade.clone(),
        };
        Ok(self
            .server
            .submit_media_opts(chosen.candidate.plan.clone(), items, opts)?)
    }

    /// Derives the per-GOP serving ladder of a *continuous* query: every
    /// same-variant Pareto rung at or above the constraint's accuracy
    /// floor, most accurate first.
    ///
    /// This inverts the batch selection. A batch query picks the
    /// *fastest* feasible plan (its ladder is often empty — everything
    /// cheaper sits below the floor); a live stream instead runs the most
    /// accurate floor-feasible plan while it keeps up, and pays
    /// *fidelity* — deeper rungs chosen per GOP by a
    /// [`PacingPolicy`](smol_core::PacingPolicy), ultimately dropped GOPs
    /// — when it falls behind. Every rung respects the floor, so floor
    /// violations are zero by construction no matter how hard the pacer
    /// degrades.
    pub fn stream_ladder(&self, query: &Query) -> Result<StreamLadder, SessionError> {
        let (chosen, _) = self.resolve(query)?;
        let floor = query.constraint.accuracy_floor(&chosen.frontier);
        let mut rungs: Vec<DegradeStep> = chosen
            .frontier
            .iter()
            // Rungs re-read the GOPs the runner submits, so only
            // same-variant plans are eligible (cf. the batch ladder).
            // Cascade candidates are excluded: a rung resubmits its bare
            // plan, which would drop the routing the cascade was costed
            // with.
            .filter(|c| c.plan.input.name == chosen.candidate.plan.input.name)
            .filter(|c| c.cascade.is_none())
            .filter(|c| !floor.is_finite() || c.accuracy >= floor)
            .map(|c| DegradeStep {
                plan: c.plan.clone(),
                accuracy: c.accuracy,
                est_throughput: c.est_throughput,
            })
            .collect();
        rungs.sort_by(|a, b| {
            b.accuracy
                .partial_cmp(&a.accuracy)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(
                    a.est_throughput
                        .partial_cmp(&b.est_throughput)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
        });
        if rungs.is_empty() {
            // The chosen plan is always feasible; fall back to it as the
            // only rung (submit-or-drop pacing).
            rungs.push(DegradeStep {
                plan: chosen.candidate.plan.clone(),
                accuracy: chosen.candidate.accuracy,
                est_throughput: chosen.candidate.est_throughput,
            });
        }
        Ok(StreamLadder {
            rungs,
            accuracy_floor: floor.is_finite().then_some(floor),
            variant: chosen.variant.clone(),
        })
    }

    /// Plans, submits, and waits: the one-call declarative path.
    pub fn run(&self, query: &Query) -> Result<QueryReport, SessionError> {
        let handle = self.submit(query)?;
        Ok(handle.wait()?)
    }

    /// Plan/profile cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The session's profiler (its call counter tells whether a submission
    /// re-profiled or planned from cache).
    pub fn profiler(&self) -> &Arc<Profiler> {
        &self.profiler
    }

    /// Aggregate serving metrics of the underlying server.
    pub fn stats(&self) -> crate::stats::ServerStats {
        self.server.stats()
    }

    /// Direct access to the underlying server (e.g. to co-submit
    /// hand-built plans next to declarative queries).
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// Drains in-flight queries and stops the serving threads.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(reduced: &[(u8, f64)]) -> TableEntry {
        TableEntry {
            accuracy: 0.9,
            reduced: reduced.iter().copied().collect(),
            keyframes: None,
            no_deblock: None,
        }
    }

    #[test]
    fn reduced_accuracy_lookup_is_factor_aware() {
        // Exact factor match.
        assert_eq!(entry(&[(4, 0.8)]).reduced_at(4), Some(0.8));
        // Selected milder than calibrated: the harsher value is a valid
        // lower bound.
        assert_eq!(entry(&[(8, 0.7)]).reduced_at(2), Some(0.7));
        // Selected harsher than anything calibrated: best available
        // estimate is the closest milder factor.
        assert_eq!(entry(&[(2, 0.85)]).reduced_at(8), Some(0.85));
        // Multiple entries: exact wins; otherwise closest harsher.
        let e = entry(&[(2, 0.88), (8, 0.70)]);
        assert_eq!(e.reduced_at(2), Some(0.88));
        assert_eq!(e.reduced_at(4), Some(0.70), "closest harsher bound");
        assert_eq!(e.reduced_at(8), Some(0.70));
        // Nothing calibrated: fall back to the tolerant assumption.
        assert_eq!(entry(&[]).reduced_at(4), None);
    }

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
