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

use crate::calibration::Calibration;
use crate::dataset::{Dataset, Registered};
use crate::plancache::{CacheStats, ChosenPlan, DeviceKey, PlanCache, PlanKey, ProfileKey};
use crate::scheduler::Priority;
use crate::server::{DegradeStep, QueryHandle, ServeError, Server, ServerConfig, SubmitOptions};
use crate::stats::QueryReport;
use parking_lot::Mutex;
use smol_accel::{ExecutionEnv, GpuModel, VirtualDevice};
use smol_codec::Format;
use smol_core::{
    pareto_frontier, CandidateSpec, Constraint, DecodeMode, PlanCandidate, PlanError, Planner,
    PlannerConfig, QueryPlan, RoutingSpec, StorageProfile,
};
use smol_runtime::{MediaItem, Profiler};
use std::collections::HashMap;
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
/// // A cost ceiling is a throughput floor: 30 ¢ per million images at $0.526/h.
/// let _ = Query::new("photos").min_throughput(0.526 * 1e8 / (3600.0 * 30.0));
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

/// The rungs that read the chosen plan's variant. A query's items are
/// drawn from that variant at submission (and a stream's runner appends the
/// same variant's GOPs), so a rung reading a *different* variant would
/// decode the wrong corpus: only same-variant rungs (cheaper DNN, cheaper
/// decode) are eligible.
fn same_variant(chosen: &ChosenPlan, rungs: Vec<PlanCandidate>) -> Vec<PlanCandidate> {
    rungs
        .into_iter()
        .filter(|c| c.plan.input.name == chosen.candidate.plan.input.name)
        .collect()
}

/// The serving steps of `rungs`.
fn degrade_steps(rungs: Vec<PlanCandidate>) -> Vec<DegradeStep> {
    rungs
        .into_iter()
        .map(|c| DegradeStep {
            plan: c.plan,
            accuracy: c.accuracy,
            est_throughput: c.est_throughput,
        })
        .collect()
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

/// One candidate per line: the plan, its calibrated accuracy, the
/// `min(preproc, exec)` estimate, and the §6.3 split with both sides on the
/// wall clock. The label does not carry the split (`perfbench` keys plan
/// stability on it); this does.
fn fmt_candidate(f: &mut std::fmt::Formatter<'_>, c: &PlanCandidate) -> std::fmt::Result {
    write!(
        f,
        "{} | {:?} | accuracy {:.4} | est {:.0}/s = min(preproc {:.0}, exec {:.0})",
        c.plan.label(),
        c.plan.decode,
        c.accuracy,
        c.est_throughput,
        c.preproc_throughput,
        c.exec_throughput,
    )?;
    match &c.placement {
        Some(p) => write!(
            f,
            " | {}; wall clock: CPU side {:.0}/s, accelerator side {:.0}/s",
            c.plan.preproc.placement_label(),
            p.cpu_side,
            p.accel_side,
        ),
        None => write!(f, " | placement not evaluated"),
    }
}

impl std::fmt::Display for Explanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chosen (variant {:?}", self.variant)?;
        if self.cache_hit {
            write!(f, ", from the plan cache")?;
        }
        write!(f, "): ")?;
        fmt_candidate(f, &self.chosen)?;
        if let Some(cascade) = &self.chosen.cascade {
            write!(
                f,
                "\n  stage 1 (escalation rate {:.2}): {} | {:?}",
                cascade.escalation_rate,
                cascade.stage1.label(),
                cascade.stage1.decode,
            )?;
        }
        for c in &self.frontier {
            write!(f, "\n  frontier: ")?;
            fmt_candidate(f, c)?;
        }
        Ok(())
    }
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
    /// See [`Session::sim_to_wall`].
    sim_to_wall: f64,
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
        let sim_to_wall = fleet_speedup / min_time_scale;
        Session {
            server: Server::with_devices(devices, cfg.server),
            planner: Planner::new(cfg.planner).with_device_clock(sim_to_wall),
            device_key,
            datasets: Mutex::new(HashMap::new()),
            profiler,
            cache,
            sim_to_wall,
        }
    }

    /// Wall-clock rate of the whole fleet per unit of the primary device's
    /// *simulated* rate — the one simulated→wall conversion: fleet
    /// throughput relative to the primary (sum of per-device ResNet-50
    /// anchors over the primary's; 1.0 for one device) over the fastest
    /// (smallest) time scale across the fleet. Optimistic on both counts,
    /// which is what its two readers need: the deadline pre-check rejects
    /// only what cannot be met, and placement (§6.3; the planner holds the
    /// same factor) offloads only when the CPU trails even the fleet's best.
    pub fn sim_to_wall(&self) -> f64 {
        self.sim_to_wall
    }

    /// A candidate's estimated throughput on the wall clock. Its
    /// preprocessing rate was profiled there already; only the device side
    /// is simulated, so only it is converted ([`Session::sim_to_wall`]).
    /// A uniform plan's placement estimate has both sides on the wall
    /// clock (the planner holds the same factor) and describes the split
    /// plan that actually runs; a cascade's placement describes its full
    /// rung alone, so a cascade keeps the blended rates.
    fn wall_throughput(&self, c: &PlanCandidate) -> f64 {
        match (&c.placement, &c.cascade) {
            (Some(placement), None) => placement.throughput(),
            _ => c
                .preproc_throughput
                .min(c.exec_throughput * self.sim_to_wall),
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
                        self.profiler.decode_throughput(&v.images(), probe.decode)
                    });
                    let cached_throughput = if decode_tput > tput && tput > 0.0 {
                        1.0 / (1.0 / tput - 1.0 / decode_tput)
                    } else {
                        0.0
                    };
                    Some(StorageProfile {
                        read_throughput,
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
                    (Calibration::Measured(m), Some(DecodeMode::ReducedResolution { factor }))
                        if matches!(v.input.format, Format::Sjpg { .. }) =>
                    {
                        let smaller = ds.models.iter().filter(|&&small| small != model);
                        smaller
                            .filter_map(|&small| m.measure_cascade(small, model, &v.input, factor))
                            .flatten()
                            .collect()
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
        let ladder = if query.allow_degradation {
            let faster = query
                .constraint
                .degradation_ladder(&chosen.frontier, &chosen.candidate);
            same_variant(&chosen, faster)
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
            let wall_rate = ladder
                .iter()
                .map(|c| self.wall_throughput(c))
                .fold(self.wall_throughput(&chosen.candidate), f64::max);
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
            ladder: degrade_steps(ladder),
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
        let feasible = query.constraint.feasible_rungs(&chosen.frontier);
        let mut rungs = same_variant(&chosen, feasible);
        if rungs.is_empty() {
            // The chosen plan is always feasible; fall back to it as the
            // only rung (submit-or-drop pacing).
            rungs = vec![chosen.candidate.clone()];
        }
        Ok(StreamLadder {
            rungs: degrade_steps(rungs),
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
    use smol_accel::ModelKind;
    use smol_core::InputVariant;

    fn t4(time_scale: f64) -> VirtualDevice {
        VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, time_scale)
    }

    /// The split the session's planner gives ResNet-50 over a 161-px
    /// thumbnail whose CPU side was profiled at 2 000 im/s: the number of
    /// leading operators it keeps on the CPU, of how many.
    fn split_of(session: &Session) -> (usize, usize) {
        let spec = CandidateSpec {
            dnn: ModelKind::ResNet50,
            input: InputVariant::new("161 spng", Format::Spng, 215, 161).thumbnail(),
            accuracy: 0.75,
            preproc_throughput: 2_000.0,
            reduced_accuracy: None,
            cascade: None,
            video: None,
            storage: None,
            routing: Vec::new(),
        };
        let candidates = session.planner.enumerate(&[spec]);
        let placement = candidates[0].placement.expect("placement evaluated");
        (placement.split, candidates[0].plan.preproc.ops.len())
    }

    /// One simulated→wall conversion, and placement reads it: the same
    /// (DNN, variant, profile) offloads its tail on a device that is fast in
    /// wall time, stays all-CPU once the device is the bottleneck in wall
    /// time (ResNet-50 on a T4 serves 4 513 im/s of *simulated* time either
    /// way), and a second device moves the answer by the fleet's rate.
    #[test]
    fn placement_follows_the_fleets_wall_clock() {
        let session = |devices| Session::with_fleet(devices, SessionConfig::default());

        let fast = session(vec![t4(0.05)]);
        assert_eq!(fast.sim_to_wall(), 20.0);
        let (split, ops) = split_of(&fast);
        assert!(split < ops, "90 k im/s of device against 2 k of CPU");

        let slow = session(vec![t4(4.0)]);
        assert_eq!(slow.sim_to_wall(), 0.25);
        let (split, ops) = split_of(&slow);
        assert_eq!(split, ops, "1.1 k im/s of device: nothing moves");

        // T4 + V100 at the same scale: (4 513 + 7 151) / 4 513 / 4.
        let v100 = VirtualDevice::new(GpuModel::V100, ExecutionEnv::TensorRt, 4.0);
        let fleet = session(vec![t4(4.0), v100]);
        assert!((fleet.sim_to_wall() - 0.6461).abs() < 1e-4);
        let (split, ops) = split_of(&fleet);
        assert!(split < ops, "2.9 k im/s across the fleet: the CPU trails");

        for s in [fast, slow, fleet] {
            s.shutdown();
        }
    }
}
