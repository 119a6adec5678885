//! The long-lived multi-query serving runtime over a **device fleet**.
//!
//! A [`Server`] owns one or more [`VirtualDevice`]s (one *lane* per
//! device, each with its own consumer threads and bounded batch queue), a
//! shared pool of producer threads, and the scheduler state. Queries are
//! submitted as `(QueryPlan, Vec<MediaItem>)` — optionally with
//! [`SubmitOptions`] carrying per-tenant SLOs (deadline, [`Priority`]) and
//! a degradation ladder or a cascade — and resolve through a [`QueryHandle`].
//! Scheduling policy (fair share + signature batching) is documented in
//! [`crate::scheduler`].
//!
//! Dataflow per query:
//!
//! ```text
//! submit() ──► admission (bounded, priority-aware; blocks or errors when full)
//!   producers: round-robin claim one item ─► decode + CPU preproc
//!   batch former: group by PlacementSignature ─► device batches
//!   dispatch: shard each batch to the lane expected to finish it first
//!   lane consumers: launch copy + kernels + DNN batch as one stream,
//!     keep one more batch enqueued behind it, retire in launch order
//!     ─► per-item results
//!     (an idle lane steals queued batches from the lane with most items queued)
//!   last item done ─► QueryReport through the handle
//! ```
//!
//! # Fidelity control: one rung table, two policies
//!
//! A query is compiled at submission into one table of `Rung`s (rung 0
//! the submitted plan, deeper rungs cheaper calibrated plans) and its
//! `Ladder` picks a rung per item. **Load degradation**: under pressure
//! — admission backlog, or a query projected to miss its deadline — items
//! not yet claimed move to the next-cheaper rung (see
//! [`smol_core::Constraint::degradation_ladder`]), items already produced
//! execute as staged, and the accuracy floor holds because every rung was
//! constraint-feasible at planning time. **Cascade routing**: the producer
//! that claimed an item routes it by its bitstream signal before any
//! decode. Both keep the batcher's per-signature counters by one rule — an
//! item counts, at its query's priority, under every rung still open to it
//! (`Ladder::open`) — and [`crate::scheduler`] states the three rules that
//! release a batch over those counters.
//!
//! Producers and consumers are long-lived: they are spawned once in
//! [`Server::with_devices`] and reused by every query until shutdown.
//! Work stealing moves *formed batches* between lanes, never items within
//! a batch, so per-query result ordering and output bytes are identical
//! whatever lane executes a batch — the device only models time.

use crate::scheduler::{pick_lane, Batcher, FormedBatch, LaneLoad, Priority};
use crate::stats::{percentile, BoxedPrediction, DeviceLaneStats, QueryReport, ServerStats};
use crossbeam::channel;
use parking_lot::{Condvar, Mutex};
use smol_accel::VirtualDevice;
use smol_codec::EncodedImage;
use smol_core::{CascadePlan, PlacementSignature, QueryPlan};
use smol_imgproc::ImageU8;
use smol_runtime::media::OutputLayout;
use smol_runtime::{
    launch_device_batch, produce_media_item, route_stage, wrap_images, BufferPool, DeviceBatchSpec,
    MediaItem, PlanContext, ProducedItem, RuntimeOptions, StagingArena, TensorCache,
    TensorCacheStats,
};
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Server-assigned query identifier (monotonic).
pub type QueryId = u64;

type InferFn = Arc<dyn Fn(usize, &ImageU8) -> BoxedPrediction + Send + Sync>;

/// Serving-layer errors.
#[derive(Debug)]
pub enum ServeError {
    /// The admission queue is full (`try_submit` only).
    Backpressure { active: usize, capacity: usize },
    /// The server is shutting down and no longer admits queries.
    ShuttingDown,
    /// The server went away before the query resolved.
    Aborted,
    /// The plan cannot be executed on any item (see
    /// [`PlanContext::validate`]); rejected before admission.
    InvalidPlan(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Backpressure { active, capacity } => {
                write!(f, "admission queue full ({active}/{capacity} queries)")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Aborted => write!(f, "server dropped before the query resolved"),
            ServeError::InvalidPlan(why) => write!(f, "plan cannot be executed: {why}"),
        }
    }
}

impl std::error::Error for ServeError {}

pub type ServeResult<T> = std::result::Result<T, ServeError>;

/// One rung of a degradation ladder: a cheaper calibrated plan the
/// scheduler may switch a loaded query to. Rungs must be constraint-
/// feasible (accuracy at or above the query's floor) and are ordered
/// most-accurate-first — see
/// [`smol_core::Constraint::degradation_ladder`], which builds exactly
/// this from a Pareto frontier.
#[derive(Debug, Clone)]
pub struct DegradeStep {
    pub plan: QueryPlan,
    /// Calibrated accuracy of `plan` (reported per query).
    pub accuracy: f64,
    /// The planner's end-to-end throughput estimate for `plan` (im/s).
    pub est_throughput: f64,
}

/// Per-query SLO and degradation options for
/// [`Server::submit_media_opts`].
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// Soft completion deadline (submit → report). Queries projected to
    /// miss it degrade (when a ladder is present); the report records
    /// whether the deadline was met.
    pub deadline: Option<Duration>,
    /// Admission, claiming and batch-release priority.
    pub priority: Priority,
    /// Cheaper calibrated plans the scheduler may degrade to under load,
    /// most-accurate-first. Empty disables degradation. Rungs whose
    /// output layout differs from the submitted plan's (e.g. a different
    /// video frame selection) are ignored — results are indexed by output
    /// slot, which must stay stable across a mid-query re-plan.
    pub ladder: Vec<DegradeStep>,
    /// Calibrated accuracy of the submitted plan (reported per query).
    pub accuracy: Option<f64>,
    /// The query's accuracy floor (from its constraint); recorded in the
    /// report so callers can audit that degraded accuracy ≥ floor.
    pub accuracy_floor: Option<f64>,
    /// Per-item cascade routing: when set, each item's bitstream-derived
    /// difficulty signal routes it to the cascade's aggressive stage-1
    /// rung or escalates it to the submitted (full) plan. Routed queries
    /// ignore `ladder`: all their rungs stay open to every unclaimed item,
    /// so there is no current rung for load to step down from.
    pub cascade: Option<CascadePlan>,
}

/// Serving configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Stage-thread counts and §6.1 toggles, shared by all queries.
    /// `consumers` is the consumer-thread count **per device lane**; each
    /// is one stream holding up to two launched batches.
    pub runtime: RuntimeOptions,
    /// Admission bound: at most this many queries may be in flight;
    /// `submit` blocks (and `try_submit` errors) past it.
    pub max_active_queries: usize,
    /// Capacity of each lane's formed-batch queue; defaults to the
    /// per-lane consumer count (keeps per-query buffer demand within the
    /// staging pool's capacity).
    pub batch_queue: usize,
    /// Byte budget of the shared decoded-tensor cache ([`smol_runtime`'s
    /// `TensorCache`]): repeat submissions over the same encoded content
    /// skip decode entirely. `0` disables the cache (every item decodes).
    pub tensor_cache_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let runtime = RuntimeOptions::default();
        ServerConfig {
            runtime,
            max_active_queries: 8,
            batch_queue: runtime.consumers,
            tensor_cache_bytes: 256 << 20,
        }
    }
}

/// A produced item tagged with its owning query.
struct BatchItem {
    query: QueryId,
    /// The owning query's priority: a partial batch holding this item does
    /// not wait for lesser work.
    prio: Priority,
    item: ProducedItem,
    claimed_at: Instant,
    /// The owning query's inference callback, run when the batch retires.
    infer: Option<InferFn>,
}

/// One unit of producer work: query `query`, item index `idx`.
struct Claim {
    query: QueryId,
    prio: Priority,
    idx: usize,
    /// The query's ladder as it stood at claim time: the item stays counted
    /// under every rung open *here*, whatever the query degrades to while
    /// the claim is out.
    ladder: Ladder,
    items: Arc<Vec<MediaItem>>,
    /// Item `i`'s outputs are `layout.offsets[i]..` for its fan-out.
    layout: Arc<OutputLayout>,
    pool: BufferPool,
    /// The query's inference callback; producers keep the decoded image
    /// only when there is one.
    infer: Option<InferFn>,
    claimed_at: Instant,
}

/// One rung of a query's ladder: a plan compiled to runtime form (context
/// + placement signature), ready to produce items under.
struct Rung {
    label: String,
    sig: Arc<PlacementSignature>,
    ctx: Arc<PlanContext>,
    /// Calibrated accuracy of the plan (reported per query).
    accuracy: Option<f64>,
}

impl Rung {
    /// Compiles `plan`, or says why no item could be executed under it
    /// (see [`PlanContext::validate`]).
    fn compile(plan: &QueryPlan, accuracy: Option<f64>) -> Result<Rung, String> {
        let ctx = PlanContext::new(plan);
        ctx.validate().map_err(|e| e.to_string())?;
        Ok(Rung {
            label: plan.label(),
            sig: Arc::new(plan.placement_signature()),
            ctx: Arc::new(ctx),
            accuracy,
        })
    }
}

/// A query's compiled rungs plus the policy that picks one per item (see
/// the module docs). Rung 0 is the submitted plan; deeper rungs are the
/// usable degradation steps, most accurate first, or a cascade's stage-1
/// plan. `route: None` — every item takes rung `at`, which
/// [`maybe_degrade`] advances. `route: Some(threshold)` — the producer
/// picks the rung per item, *after* claiming it; `at` stays 0.
#[derive(Clone)]
struct Ladder {
    rungs: Arc<[Rung]>,
    at: usize,
    route: Option<f64>,
}

impl Ladder {
    /// The rungs an item not yet produced may still land in — the ones it
    /// is counted under in the batcher, at its query's priority. Until a
    /// routed item is produced that is *every* rung: an unrouted item could
    /// still join either signature's group; routing resolves it to exactly
    /// one. What those counts hold a partial batch back for, and what they
    /// do not, is [`crate::scheduler`]'s three release rules.
    fn open(&self) -> &[Rung] {
        match self.route {
            Some(_) => &self.rungs,
            None => &self.rungs[self.at..=self.at],
        }
    }
}

struct QueryState {
    priority: Priority,
    /// The rungs and the policy over them; `ladder.at` is also the number
    /// of degradation steps taken.
    ladder: Ladder,
    /// Outputs staged under each rung.
    rung_outputs: Vec<usize>,
    items: Arc<Vec<MediaItem>>,
    /// Output (tensor) offsets per item, total outputs (frames for GOP
    /// items) and the largest single-item fan-out (pool sizing).
    layout: Arc<OutputLayout>,
    /// This query's entitlement over the server's staging arena, for the
    /// rung(s) now open; a rung's entitlement is created when the rung is
    /// first used.
    pool: BufferPool,
    infer: Option<InferFn>,
    /// Next item index to claim.
    next_item: usize,
    /// One past the last claimable index (`items.len()`, truncated when a
    /// production error stops the query early).
    claim_end: usize,
    /// Claims handed to producers and not yet integrated.
    claims_out: usize,
    /// Outputs staged so far (≥ items produced for video queries).
    produced: usize,
    failed: usize,
    skipped: usize,
    completed: usize,
    /// Outputs that went through the device but whose inference callback
    /// panicked: counted in `failed`, never in `completed`.
    panicked: usize,
    latencies: Vec<f64>,
    results: Vec<Option<BoxedPrediction>>,
    cache_hits: usize,
    decode_cpu_s: f64,
    preproc_cpu_s: f64,
    submitted_at: Instant,
    done_tx: channel::Sender<QueryReport>,
    error: Option<String>,
    // --- SLO + degradation state ---
    deadline: Option<Duration>,
    /// Outputs claimed while running below the originally chosen plan.
    downgraded_frames: usize,
    accuracy_floor: Option<f64>,
    /// Hysteresis: no further degradation before this item index.
    next_degrade_at: usize,
    /// Items a routed query's signal escalated to rung 0 (the full plan).
    escalated_items: usize,
}

impl QueryState {
    fn production_done(&self) -> bool {
        self.next_item >= self.claim_end && self.claims_out == 0
    }

    /// Outputs of every item before `item` (clamps past the end).
    fn outputs_before(&self, item: usize) -> usize {
        let layout = &self.layout;
        layout.offsets.get(item).copied().unwrap_or(layout.total)
    }

    /// Fan-out of item `item` (1 for stills, selected frames for GOPs).
    fn count_of(&self, item: usize) -> usize {
        self.outputs_before(item + 1) - self.layout.offsets[item]
    }

    /// True when the query is projected to miss its deadline at the
    /// observed completion rate (needs at least one completed output).
    fn projected_late(&self, now: Instant) -> bool {
        let Some(deadline) = self.deadline else {
            return false;
        };
        if self.completed == 0 {
            return false;
        }
        let elapsed = now.duration_since(self.submitted_at).as_secs_f64();
        if elapsed <= 0.0 {
            return false;
        }
        let rate = self.completed as f64 / elapsed;
        let remaining = (self.layout.total - self.completed) as f64;
        elapsed + remaining / rate > deadline.as_secs_f64()
    }
}

struct Sched {
    queries: HashMap<QueryId, QueryState>,
    /// Round-robin rings of queries with unclaimed items, one per
    /// priority; producers drain higher-priority rings first and
    /// round-robin within a ring (fair share among equals).
    rr: [VecDeque<QueryId>; Priority::COUNT],
    /// Produced items grouped by signature, and the counts of items still
    /// to come that decide when a partial group is released.
    batcher: Batcher<BatchItem>,
    next_id: QueryId,
    /// Queries admitted and not yet finalized.
    active: usize,
    /// Submitters blocked at admission, per priority (pressure signal for
    /// degradation, and the priority-aware admission order).
    waiting: [usize; Priority::COUNT],
}

impl Sched {
    fn waiting_total(&self) -> usize {
        self.waiting.iter().sum()
    }

    fn waiting_above(&self, prio: Priority) -> usize {
        self.waiting[prio.index() + 1..].iter().sum()
    }
}

#[derive(Default, Clone)]
struct Agg {
    submitted_queries: u64,
    completed_queries: u64,
    images_in: u64,
    images_done: u64,
    batches: u64,
    cross_query_batches: u64,
    full_batches: u64,
    degradations: u64,
    dropped_frames: u64,
    downgraded_frames: u64,
    deadline_met: u64,
    deadline_misses: u64,
}

/// One device lane: the device, its bounded batch queue, and counters.
struct Lane {
    device: VirtualDevice,
    queue: VecDeque<FormedBatch<BatchItem>>,
    /// Batches this lane's consumers have launched and not yet retired,
    /// and the items in them.
    in_flight: usize,
    in_flight_items: usize,
    batches: u64,
    images: u64,
    /// Batches this lane executed that were queued on another lane.
    stolen_batches: u64,
    /// Batches launched while an earlier one of the same consumer was
    /// still unretired.
    overlapped_batches: u64,
    /// Seconds from each batch's completion on the device to its retire.
    retire_lag_s: f64,
}

struct Fleet {
    lanes: Vec<Lane>,
    /// Live producer threads; consumers drain and exit once this hits 0
    /// with every lane queue empty.
    producers_live: usize,
}

impl Lane {
    fn queued_items(&self) -> usize {
        self.queue.iter().map(|batch| batch.items.len()).sum()
    }
}

impl Fleet {
    /// Takes the next batch for a consumer of lane `lane_idx`: the front of
    /// its own queue, else — only with nothing in its launch window
    /// (`window_empty`) — the front of the other queue holding most items
    /// (batches differ in size once some are released partial). A consumer
    /// with a batch on the device is not idle, and a batch it stole would
    /// wait behind that one while the victim lane might have run it sooner.
    /// Batches are self-contained, so executing one on a different device
    /// changes timing only, never results.
    fn take_batch(
        &mut self,
        lane_idx: usize,
        window_empty: bool,
    ) -> Option<FormedBatch<BatchItem>> {
        let stolen = self.lanes[lane_idx].queue.is_empty();
        let from = if !stolen {
            lane_idx
        } else if window_empty {
            (0..self.lanes.len()).max_by_key(|&j| self.lanes[j].queued_items())?
        } else {
            return None;
        };
        let batch = self.lanes[from].queue.pop_front()?;
        let lane = &mut self.lanes[lane_idx];
        lane.in_flight += 1;
        lane.in_flight_items += batch.items.len();
        lane.stolen_batches += u64::from(stolen);
        lane.overlapped_batches += u64::from(!window_empty);
        Some(batch)
    }
}

struct Inner {
    cfg: ServerConfig,
    /// Shared decoded-tensor cache; `None` when `cfg.tensor_cache_bytes`
    /// is 0 (producers then decode every claim).
    tensor_cache: Option<Arc<TensorCache>>,
    /// Idle staging buffers of every query this server has run, shelved by
    /// tensor geometry. Queries hold entitlements over it ([`BufferPool`]),
    /// never buffers of their own, so a one-batch query reuses what the
    /// last one returned.
    staging: StagingArena,
    /// Device lanes (fixed at construction; sizes staging entitlements).
    n_lanes: usize,
    sched: Mutex<Sched>,
    /// Producers wait here for claimable work.
    work_cv: Condvar,
    /// Submitters wait here for admission capacity.
    admit_cv: Condvar,
    shutdown: AtomicBool,
    agg: Mutex<Agg>,
    fleet: Mutex<Fleet>,
    /// Consumers wait here for queued batches.
    batch_cv: Condvar,
    /// Dispatchers wait here for lane-queue space.
    space_cv: Condvar,
}

impl Inner {
    /// A query's staging entitlement for plan `ctx`: enough buffers that
    /// producers never wait on consumers — every consumer thread across
    /// the fleet may hold its launch window of two batches (the `2 ·` of
    /// `pool_capacity_fanout`), every lane queue `batch_queue` more, and the
    /// batch former up to `batch − 1` items — drawn from the server's
    /// arena (or freshly allocated per acquire when `memory_reuse` is off).
    fn staging_pool(&self, ctx: &PlanContext, max_fanout: usize) -> BufferPool {
        let rt = &self.cfg.runtime;
        let consumers = self.n_lanes * (rt.consumers.max(1) + self.cfg.batch_queue.max(1));
        self.staging.pool(
            ctx.pool_capacity_fanout(rt.effective_producers(), consumers, max_fanout),
            ctx.buf_len,
            rt.memory_reuse,
            rt.pinned,
        )
    }
}

/// Resolves to the query's [`QueryReport`] when the last item completes.
///
/// The handle is fully non-blocking-capable: [`QueryHandle::poll`] reports
/// progress without consuming the report, [`QueryHandle::try_wait`] and
/// [`QueryHandle::wait_deadline`] take it with zero or bounded blocking,
/// and [`QueryHandle::wait`] blocks to resolution. No caller — including
/// the fleet scheduler itself — ever has to park a thread per query.
pub struct QueryHandle {
    id: QueryId,
    rx: channel::Receiver<QueryReport>,
    inner: Weak<Inner>,
}

/// Snapshot of an in-flight query's progress, from [`QueryHandle::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryPoll {
    /// Still in flight: `completed` of `total` outputs executed
    /// (`produced` are staged but not yet through the device).
    Pending {
        produced: usize,
        completed: usize,
        total: usize,
    },
    /// The report is ready: `try_wait` will return it without blocking.
    Ready,
}

impl QueryHandle {
    pub fn id(&self) -> QueryId {
        self.id
    }

    /// Blocks until the query resolves.
    pub fn wait(self) -> ServeResult<QueryReport> {
        self.rx.recv().map_err(|_| ServeError::Aborted)
    }

    /// Non-blocking poll; `None` while the query is still in flight.
    pub fn try_wait(&self) -> Option<QueryReport> {
        self.rx.try_recv().ok()
    }

    /// Blocks for at most `timeout`; `Ok(None)` when the query is still
    /// in flight at the deadline, `Err(Aborted)` when the server went
    /// away first.
    pub fn wait_deadline(&self, timeout: Duration) -> ServeResult<Option<QueryReport>> {
        match self.rx.recv_timeout(timeout) {
            Ok(report) => Ok(Some(report)),
            Err(channel::RecvTimeoutError::Timeout) => Ok(None),
            Err(channel::RecvTimeoutError::Disconnected) => Err(ServeError::Aborted),
        }
    }

    /// Non-blocking progress probe — never consumes the report (pair with
    /// [`QueryHandle::try_wait`] / [`QueryHandle::wait`] to take it).
    /// A gone server reports `Ready` so pollers always reach a terminal
    /// state (the take will then surface [`ServeError::Aborted`]).
    pub fn poll(&self) -> QueryPoll {
        let Some(inner) = self.inner.upgrade() else {
            return QueryPoll::Ready;
        };
        let sched = inner.sched.lock();
        match sched.queries.get(&self.id) {
            Some(q) => QueryPoll::Pending {
                produced: q.produced,
                completed: q.completed,
                total: q.layout.total,
            },
            None => QueryPoll::Ready,
        }
    }
}

/// The multi-query, multi-device serving runtime. See the module docs for
/// the dataflow.
pub struct Server {
    inner: Arc<Inner>,
    producer_handles: Vec<std::thread::JoinHandle<()>>,
    consumer_handles: Vec<std::thread::JoinHandle<()>>,
    down: bool,
}

impl Server {
    /// Starts a single-device serving runtime (a one-lane fleet).
    pub fn new(device: VirtualDevice, cfg: ServerConfig) -> Server {
        Server::with_devices(vec![device], cfg)
    }

    /// Starts the serving runtime over a device fleet: one lane (bounded
    /// batch queue + `cfg.runtime.consumers` consumer threads) per
    /// device, plus one shared producer pool. Devices may be
    /// heterogeneous; the dispatcher shards each batch to the lane expected
    /// to finish it first and idle lanes steal queued batches from loaded
    /// ones.
    ///
    /// # Panics
    ///
    /// Panics when `devices` is empty.
    pub fn with_devices(devices: Vec<VirtualDevice>, cfg: ServerConfig) -> Server {
        assert!(!devices.is_empty(), "a server needs at least one device");
        let producers = cfg.runtime.effective_producers();
        let consumers_per_lane = cfg.runtime.consumers.max(1);
        let n_lanes = devices.len();
        let inner = Arc::new(Inner {
            cfg,
            tensor_cache: (cfg.tensor_cache_bytes > 0)
                .then(|| Arc::new(TensorCache::new(cfg.tensor_cache_bytes))),
            staging: StagingArena::new(),
            n_lanes,
            sched: Mutex::new(Sched {
                queries: HashMap::new(),
                rr: Default::default(),
                batcher: Batcher::new(|item: &BatchItem| item.prio),
                next_id: 1,
                active: 0,
                waiting: [0; Priority::COUNT],
            }),
            work_cv: Condvar::new(),
            admit_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            agg: Mutex::new(Agg::default()),
            fleet: Mutex::new(Fleet {
                lanes: devices
                    .into_iter()
                    .map(|device| Lane {
                        device,
                        queue: VecDeque::new(),
                        in_flight: 0,
                        in_flight_items: 0,
                        batches: 0,
                        images: 0,
                        stolen_batches: 0,
                        overlapped_batches: 0,
                        retire_lag_s: 0.0,
                    })
                    .collect(),
                producers_live: producers,
            }),
            batch_cv: Condvar::new(),
            space_cv: Condvar::new(),
        });
        let producer_handles = (0..producers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("smol-serve-producer-{i}"))
                    .spawn(move || producer_loop(&inner))
                    .expect("spawn producer")
            })
            .collect();
        let consumer_handles = (0..n_lanes)
            .flat_map(|lane| (0..consumers_per_lane).map(move |i| (lane, i)))
            .map(|(lane, i)| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("smol-serve-consumer-{lane}-{i}"))
                    .spawn(move || consumer_loop(&inner, lane))
                    .expect("spawn consumer")
            })
            .collect();
        Server {
            inner,
            producer_handles,
            consumer_handles,
            down: false,
        }
    }

    /// Runs one query to completion on a server of its own: one lane over
    /// `device`, `runtime`'s stage threads, the tensor cache off (a one-shot
    /// run has no repeats to hit). The threads are joined before this
    /// returns, so `device.stats()` then covers the whole run. A bad item
    /// does not make this an `Err`: the report carries `error`, `failed`
    /// and `skipped`, as for any served query.
    pub fn run_once(
        device: &VirtualDevice,
        runtime: RuntimeOptions,
        plan: &QueryPlan,
        items: Vec<MediaItem>,
    ) -> ServeResult<QueryReport> {
        let server = Server::new(
            device.clone(),
            ServerConfig {
                runtime,
                max_active_queries: 1,
                batch_queue: runtime.consumers,
                tensor_cache_bytes: 0,
            },
        );
        let report = server.submit_media(plan.clone(), items)?.wait();
        server.shutdown();
        report
    }

    /// Submits a still-image query, blocking while the admission queue is
    /// full.
    pub fn submit(&self, plan: QueryPlan, items: Vec<EncodedImage>) -> ServeResult<QueryHandle> {
        self.submit_opts(plan, items, SubmitOptions::default())
    }

    /// Submits a query over mixed media items (still images and/or video
    /// GOPs), blocking while the admission queue is full. GOP items fan
    /// out into one device tensor per selected frame; the report's
    /// `images` counts those outputs.
    pub fn submit_media(&self, plan: QueryPlan, items: Vec<MediaItem>) -> ServeResult<QueryHandle> {
        self.submit_media_opts(plan, items, SubmitOptions::default())
    }

    /// [`Server::submit`] with explicit SLO/degradation options.
    pub fn submit_opts(
        &self,
        plan: QueryPlan,
        items: Vec<EncodedImage>,
        opts: SubmitOptions,
    ) -> ServeResult<QueryHandle> {
        self.submit_media_opts(plan, wrap_images(&items), opts)
    }

    /// [`Server::submit_media`] with explicit SLO/degradation options.
    pub fn submit_media_opts(
        &self,
        plan: QueryPlan,
        items: Vec<MediaItem>,
        opts: SubmitOptions,
    ) -> ServeResult<QueryHandle> {
        self.submit_inner(plan, items, None, opts, true)
    }

    /// Submits a query, erroring with [`ServeError::Backpressure`] when
    /// the admission queue is full.
    pub fn try_submit(
        &self,
        plan: QueryPlan,
        items: Vec<EncodedImage>,
    ) -> ServeResult<QueryHandle> {
        self.submit_inner(
            plan,
            wrap_images(&items),
            None,
            SubmitOptions::default(),
            false,
        )
    }

    /// Submits a still-image query with a per-image inference callback;
    /// results come back through [`QueryReport::take_results`].
    pub fn submit_with_infer<R, F>(
        &self,
        plan: QueryPlan,
        items: Vec<EncodedImage>,
        infer: F,
    ) -> ServeResult<QueryHandle>
    where
        R: Send + 'static,
        F: Fn(usize, &ImageU8) -> R + Send + Sync + 'static,
    {
        self.submit_media_opts_with_infer(
            plan,
            wrap_images(&items),
            SubmitOptions::default(),
            infer,
        )
    }

    /// [`Server::submit_media_opts`] with a per-output inference callback:
    /// it sees *output* indices (contiguous per item, frames in GOP order).
    pub fn submit_media_opts_with_infer<R, F>(
        &self,
        plan: QueryPlan,
        items: Vec<MediaItem>,
        opts: SubmitOptions,
        infer: F,
    ) -> ServeResult<QueryHandle>
    where
        R: Send + 'static,
        F: Fn(usize, &ImageU8) -> R + Send + Sync + 'static,
    {
        let erased: InferFn =
            Arc::new(move |idx, img| Box::new(infer(idx, img)) as BoxedPrediction);
        self.submit_inner(plan, items, Some(erased), opts, true)
    }

    fn submit_inner(
        &self,
        plan: QueryPlan,
        items: Vec<MediaItem>,
        infer: Option<InferFn>,
        opts: SubmitOptions,
        block: bool,
    ) -> ServeResult<QueryHandle> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let inner = &self.inner;
        let full = Rung::compile(&plan, opts.accuracy).map_err(ServeError::InvalidPlan)?;
        // Output (tensor) accounting: GOP items fan out per the plan's
        // frame selection.
        let layout = OutputLayout::of(&items, full.ctx.decode);
        // The cascade's aggressive rung. Dropped when it collapses onto the
        // full rung (identical signature — the planner guards this too, but
        // submitters can hand-build plans), when its staging geometry
        // diverges (one pool must serve both rungs), or when it cannot be
        // executed.
        let stage1 = opts.cascade.as_ref().and_then(|c| {
            let rung = Rung::compile(&c.stage1, None).ok()?;
            (*rung.sig != *full.sig && rung.ctx.buf_len == full.ctx.buf_len)
                .then_some((rung, c.threshold))
        });
        let (deeper, route) = match stage1 {
            // Routed per item, not degraded per query: every rung is open
            // at once, so `ladder` has no cursor to move.
            Some((rung, threshold)) => (vec![rung], Some(threshold)),
            // A degradation step is usable only when it respects the floor,
            // can be executed and preserves the output layout — results are
            // indexed by output slot, which must survive a mid-query
            // re-plan. (Stills always qualify; video rungs must keep the
            // frame selection.)
            None => {
                let usable = opts.ladder.iter().filter(|step| {
                    opts.accuracy_floor
                        .is_none_or(|floor| step.accuracy >= floor)
                });
                let compiled = usable.filter_map(|step| {
                    let rung = Rung::compile(&step.plan, Some(step.accuracy)).ok()?;
                    (OutputLayout::of(&items, rung.ctx.decode).offsets == layout.offsets)
                        .then_some(rung)
                });
                (compiled.collect(), None)
            }
        };
        let rungs: Arc<[Rung]> = std::iter::once(full).chain(deeper).collect();
        let (done_tx, done_rx) = channel::bounded::<QueryReport>(1);
        let (n, total_outputs) = (items.len(), layout.total);
        let mut sched = inner.sched.lock();
        let capacity = inner.cfg.max_active_queries.max(1);
        if !block {
            if sched.active >= capacity || sched.waiting_above(opts.priority) > 0 {
                return Err(ServeError::Backpressure {
                    active: sched.active,
                    capacity,
                });
            }
        } else {
            // Register as a waiter up front so lower-priority submitters
            // arriving later defer to us even before we first block.
            sched.waiting[opts.priority.index()] += 1;
            while sched.active >= capacity || sched.waiting_above(opts.priority) > 0 {
                if inner.shutdown.load(Ordering::Acquire) {
                    sched.waiting[opts.priority.index()] -= 1;
                    return Err(ServeError::ShuttingDown);
                }
                inner.admit_cv.wait(&mut sched);
            }
            sched.waiting[opts.priority.index()] -= 1;
            // Others may now be admissible too (e.g. equal priority with
            // capacity left).
            inner.admit_cv.notify_all();
        }
        let id = sched.next_id;
        sched.next_id += 1;
        {
            let mut agg = inner.agg.lock();
            agg.submitted_queries += 1;
            agg.images_in += total_outputs as u64;
        }
        let state = QueryState {
            priority: opts.priority,
            rung_outputs: vec![0; rungs.len()],
            pool: inner.staging_pool(&rungs[0].ctx, layout.max_fanout),
            ladder: Ladder {
                rungs,
                at: 0,
                route,
            },
            items: Arc::new(items),
            layout: Arc::new(layout),
            infer,
            next_item: 0,
            claim_end: n,
            claims_out: 0,
            produced: 0,
            failed: 0,
            skipped: 0,
            completed: 0,
            panicked: 0,
            latencies: Vec::with_capacity(total_outputs),
            results: (0..total_outputs).map(|_| None).collect(),
            cache_hits: 0,
            decode_cpu_s: 0.0,
            preproc_cpu_s: 0.0,
            submitted_at: Instant::now(),
            done_tx,
            error: None,
            deadline: opts.deadline,
            downgraded_frames: 0,
            accuracy_floor: opts.accuracy_floor,
            next_degrade_at: 0,
            escalated_items: 0,
        };
        for rung in state.ladder.open() {
            sched.batcher.register(&rung.sig, opts.priority, n);
        }
        sched.queries.insert(id, state);
        sched.rr[opts.priority.index()].push_back(id);
        sched.active += 1;
        // A query with no items has nothing to wait for.
        try_finalize(inner, &mut sched, id);
        drop(sched);
        inner.work_cv.notify_all();
        Ok(QueryHandle {
            id,
            rx: done_rx,
            inner: Arc::downgrade(&self.inner),
        })
    }

    /// Live decoded-tensor cache counters (all zeros when the cache is
    /// disabled via `tensor_cache_bytes: 0`). Cheaper than
    /// [`Server::stats`] — only the cache's own lock is taken.
    pub fn tensor_cache_stats(&self) -> TensorCacheStats {
        self.inner
            .tensor_cache
            .as_ref()
            .map(|c| c.stats())
            .unwrap_or_default()
    }

    /// Records frame loss that happened *outside* any query — e.g. a
    /// live-stream pacer shedding a whole GOP before submission, or
    /// choosing a downgraded rung at submit time. These frames fold into
    /// [`ServerStats::dropped_frames`] / [`ServerStats::downgraded_frames`]
    /// alongside the per-query counts the scheduler tracks itself.
    pub fn record_frame_loss(&self, dropped_frames: u64, downgraded_frames: u64) {
        let mut agg = self.inner.agg.lock();
        agg.dropped_frames += dropped_frames;
        agg.downgraded_frames += downgraded_frames;
    }

    /// Aggregate + per-device serving metrics.
    pub fn stats(&self) -> ServerStats {
        let (queue_depth, pending_batch_items, waiting_admission, priority_flushes) = {
            let sched = self.inner.sched.lock();
            (
                sched.active,
                sched.batcher.pending_total(),
                sched.waiting_total(),
                sched.batcher.priority_flushes(),
            )
        };
        let agg = self.inner.agg.lock().clone();
        let fleet = self.inner.fleet.lock();
        let devices: Vec<DeviceLaneStats> = fleet
            .lanes
            .iter()
            .map(|lane| {
                let device = lane.device.stats();
                DeviceLaneStats {
                    occupancy: device.compute_occupancy(lane.device.uptime_s()),
                    device,
                    queued_batches: lane.queue.len(),
                    queued_items: lane.queued_items(),
                    in_flight_batches: lane.in_flight,
                    in_flight_items: lane.in_flight_items,
                    batches: lane.batches,
                    images: lane.images,
                    stolen_batches: lane.stolen_batches,
                    overlapped_batches: lane.overlapped_batches,
                    retire_lag_s: lane.retire_lag_s,
                }
            })
            .collect();
        let steals = devices.iter().map(|d| d.stolen_batches).sum();
        ServerStats {
            submitted_queries: agg.submitted_queries,
            completed_queries: agg.completed_queries,
            queue_depth,
            waiting_admission,
            pending_batch_items,
            images_in: agg.images_in,
            images_done: agg.images_done,
            batches: agg.batches,
            cross_query_batches: agg.cross_query_batches,
            full_batches: agg.full_batches,
            priority_flushes,
            degradations: agg.degradations,
            dropped_frames: agg.dropped_frames,
            downgraded_frames: agg.downgraded_frames,
            deadline_met: agg.deadline_met,
            deadline_misses: agg.deadline_misses,
            steals,
            tensor_cache: self.tensor_cache_stats(),
            staging: self.inner.staging.stats(),
            devices,
        }
    }

    /// Drains every admitted query, resolves all handles, and stops the
    /// stage threads. Called automatically on drop.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        if self.down {
            return;
        }
        self.down = true;
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.work_cv.notify_all();
        self.inner.admit_cv.notify_all();
        for h in self.producer_handles.drain(..) {
            let _ = h.join();
        }
        // Producers decremented `producers_live` on exit; consumers drain
        // the lane queues and their launch windows and observe the count.
        for h in self.consumer_handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

// ---------------------------------------------------------------------------
// Stage threads
// ---------------------------------------------------------------------------

/// Degrades `q` one rung if warranted: the fleet is under pressure
/// (submitters blocked at admission) or the query is projected to miss
/// its deadline, a rung remains, hysteresis has elapsed, and unclaimed
/// items exist to re-plan. Partial batches of the abandoned signature may
/// flush into `emitted`.
fn maybe_degrade(
    inner: &Inner,
    sched: &mut Sched,
    qid: QueryId,
    emitted: &mut Vec<FormedBatch<BatchItem>>,
) {
    let pressure = sched.waiting_total() > 0;
    let q = sched.queries.get_mut(&qid).expect("caller checked");
    let at = q.ladder.at;
    // Only a uniform query has a current rung to step down from.
    if q.ladder.route.is_some()
        || at + 1 >= q.ladder.rungs.len()
        || q.next_item >= q.claim_end
        || q.next_item < q.next_degrade_at
    {
        return;
    }
    if !pressure && !q.projected_late(Instant::now()) {
        return;
    }
    let (prio, remaining) = (q.priority, q.claim_end - q.next_item);
    q.ladder.at += 1;
    let rungs = Arc::clone(&q.ladder.rungs);
    let (old, new) = (&rungs[at], &rungs[at + 1]);
    // One full batch of the new plan between steps: degrade is a ratchet,
    // not a thrash.
    q.next_degrade_at = q.next_item + new.sig.batch.max(2);
    if *old.sig != *new.sig {
        // Buffer geometry may differ between rungs; in-flight items keep
        // their slots in the old entitlement (released on drop, the
        // buffers going back to their own geometry's shelf), new claims
        // draw on the rung's.
        q.pool = inner.staging_pool(&new.ctx, q.layout.max_fanout);
    }
    // The unclaimed items change rungs; claims already out stay counted
    // under the rung they were taken on.
    sched.batcher.register(&new.sig, prio, remaining);
    sched.batcher.settle(&old.sig, prio, remaining, emitted);
    inner.agg.lock().degradations += 1;
}

/// Takes the next fair-share claim (highest-priority ring first), or
/// `None` when no query has unclaimed items. Degradation is applied at
/// claim time — flushed partial batches of abandoned signatures land in
/// `emitted` and must be dispatched by the caller outside the lock.
fn claim_next(
    inner: &Inner,
    sched: &mut Sched,
    emitted: &mut Vec<FormedBatch<BatchItem>>,
) -> Option<Claim> {
    for prio in (0..Priority::COUNT).rev() {
        while let Some(qid) = sched.rr[prio].pop_front() {
            if !sched.queries.contains_key(&qid) {
                continue; // finalized early (error path)
            }
            maybe_degrade(inner, sched, qid, emitted);
            let q = sched.queries.get_mut(&qid).expect("checked above");
            if q.next_item >= q.claim_end {
                continue; // exhausted (kept out of the ring from here on)
            }
            let idx = q.next_item;
            q.next_item += 1;
            q.claims_out += 1;
            if q.ladder.at > 0 {
                q.downgraded_frames += q.count_of(idx);
            }
            let claim = Claim {
                query: qid,
                prio: q.priority,
                idx,
                ladder: q.ladder.clone(),
                items: Arc::clone(&q.items),
                layout: Arc::clone(&q.layout),
                pool: q.pool.clone(),
                infer: q.infer.clone(),
                claimed_at: Instant::now(),
            };
            if q.next_item < q.claim_end {
                sched.rr[prio].push_back(qid);
            }
            return Some(claim);
        }
    }
    None
}

/// Finalizes `qid` if every claimed item has been produced and executed:
/// builds the report, resolves the handle, and frees the admission slot.
fn try_finalize(inner: &Inner, sched: &mut Sched, qid: QueryId) {
    let done = |q: &QueryState| q.production_done() && q.completed + q.panicked == q.produced;
    if !sched.queries.get(&qid).is_some_and(done) {
        return;
    }
    let q = sched.queries.remove(&qid).expect("checked above");
    sched.active -= 1;
    // Conservation of the signature counters: with no query left, every
    // item ever registered has been claimed, produced (or dropped) and
    // batched.
    debug_assert!(
        sched.active > 0 || sched.batcher.is_idle(),
        "signature counters leaked past the last query"
    );
    let rung = &q.ladder.rungs[q.ladder.at];
    let wall = q.submitted_at.elapsed().as_secs_f64();
    let deadline_missed = q.deadline.map(|d| wall > d.as_secs_f64());
    let report = QueryReport {
        id: qid,
        label: rung.label.clone(),
        images: q.completed,
        failed: q.failed,
        skipped: q.skipped,
        wall_s: wall,
        throughput: if wall > 0.0 {
            q.completed as f64 / wall
        } else {
            0.0
        },
        latency_p50_s: percentile(&q.latencies, 0.5),
        latency_p95_s: percentile(&q.latencies, 0.95),
        cache_hits: q.cache_hits,
        decode_cpu_s: q.decode_cpu_s,
        preproc_cpu_s: q.preproc_cpu_s,
        pool: q.pool.stats(),
        error: q.error,
        results: q.results,
        degraded_steps: q.ladder.at,
        dropped_frames: q.failed + q.skipped,
        downgraded_frames: q.downgraded_frames,
        escalated_items: q.escalated_items,
        // `[stage 1, full]`: a routed query's rungs, aggressive first.
        stage_histogram: match q.ladder.route {
            Some(_) => q.rung_outputs.iter().rev().copied().collect(),
            None => Vec::new(),
        },
        accuracy: rung.accuracy,
        accuracy_floor: q.accuracy_floor,
        deadline_missed,
    };
    {
        let mut agg = inner.agg.lock();
        agg.completed_queries += 1;
        agg.images_done += report.images as u64;
        agg.dropped_frames += report.dropped_frames as u64;
        agg.downgraded_frames += report.downgraded_frames as u64;
        match deadline_missed {
            Some(true) => agg.deadline_misses += 1,
            Some(false) => agg.deadline_met += 1,
            None => {}
        }
    }
    let _ = q.done_tx.send(report);
    inner.admit_cv.notify_all();
}

/// Hands a formed batch to the lane with queue space that is expected to
/// finish it first ([`pick_lane`]), blocking while every lane queue is full
/// (consumers drain them; they outlive every producer, so this always makes
/// progress).
fn dispatch(inner: &Inner, batch: FormedBatch<BatchItem>) {
    let cap = inner.cfg.batch_queue.max(1);
    let mut fleet = inner.fleet.lock();
    loop {
        let loads = fleet.lanes.iter().map(|lane| LaneLoad {
            items: lane.queued_items() + lane.in_flight_items,
            rate: lane.device.model_throughput(batch.sig.dnn, batch.sig.batch)
                / lane.device.time_scale(),
            has_space: lane.queue.len() < cap,
        });
        if let Some(i) = pick_lane(loads, batch.items.len()) {
            fleet.lanes[i].queue.push_back(batch);
            inner.batch_cv.notify_all();
            return;
        }
        inner.space_cv.wait(&mut fleet);
    }
}

/// Counts its producer thread out of `producers_live` however the thread
/// ends — a panic included — and wakes the consumers, which exit (and let
/// `shutdown` return) only once every producer is gone.
struct ProducerLive<'a>(&'a Inner);

impl Drop for ProducerLive<'_> {
    fn drop(&mut self) {
        self.0.fleet.lock().producers_live -= 1;
        self.0.batch_cv.notify_all();
    }
}

fn producer_loop(inner: &Inner) {
    let _live = ProducerLive(inner);
    loop {
        let mut emitted: Vec<FormedBatch<BatchItem>> = Vec::new();
        let claim = {
            let mut sched = inner.sched.lock();
            loop {
                if let Some(c) = claim_next(inner, &mut sched, &mut emitted) {
                    break Some(c);
                }
                if !emitted.is_empty() {
                    // A degradation flushed a partial batch but left
                    // nothing claimable; dispatch it before sleeping.
                    break None;
                }
                if inner.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                inner.work_cv.wait(&mut sched);
            }
        };
        let had_flushes = !emitted.is_empty();
        // Dispatch outside the lock: a full lane queue must not stall
        // other producers' claims, only this thread.
        for batch in emitted {
            dispatch(inner, batch);
        }
        let Some(claim) = claim else {
            if had_flushes {
                continue; // there may be claimable work again
            }
            // Shutdown with nothing claimable: admitted work is drained
            // (claim_next exhausts every query before returning None).
            return;
        };

        // The slow part runs without the scheduler lock. A panic in it
        // (user bytes through decoders and kernels) fails this item like
        // any other production error, and the thread lives on. Unwinding
        // here is sound: nothing runs under the scheduler lock, and the
        // shared state touched — staging pool and tensor cache — restores
        // itself on drop (a pooled buffer returns to its shelf, the cache
        // retracts its pending slot and wakes the waiters).
        let produced = catch_unwind(AssertUnwindSafe(|| produce(inner, &claim)))
            .unwrap_or_else(|payload| Err(panic_message("producer", payload.as_ref())));

        let mut emitted: Vec<FormedBatch<BatchItem>> = Vec::new();
        integrate(
            inner,
            &mut inner.sched.lock(),
            &claim,
            produced,
            &mut emitted,
        );
        for batch in emitted {
            dispatch(inner, batch);
        }
    }
}

/// Produces a claimed item: the rung it was produced under and its staged
/// outputs (a GOP item fans out into one per selected frame). A routed
/// claim routes first, before any decode work, so an escalated item runs
/// the full plan's pipeline exactly as a uniform query would; `route_stage`
/// says 1 for "escalate" — rung 0, the submitted plan — and 0 for the
/// aggressive rung compiled behind it.
fn produce(inner: &Inner, claim: &Claim) -> Result<(usize, Vec<ProducedItem>), String> {
    let item = &claim.items[claim.idx];
    let rung = match claim.ladder.route {
        Some(threshold) => 1 - route_stage(item, threshold),
        None => claim.ladder.at,
    };
    produce_media_item(
        &claim.ladder.rungs[rung].ctx,
        claim.layout.offsets[claim.idx],
        item,
        &claim.pool,
        claim.infer.is_some(),
        inner.cfg.runtime.extra_cpu_s_per_image,
        inner.tensor_cache.as_deref(),
    )
    .map(|staged| (rung, staged))
    .map_err(|e| e.to_string())
}

/// Books a claim's outcome — the rung it was produced under and the outputs
/// staged, or why production failed — into its query and the signature
/// counters. Batches this completes or drains land in `emitted`.
fn integrate(
    inner: &Inner,
    sched: &mut Sched,
    claim: &Claim,
    produced: Result<(usize, Vec<ProducedItem>), String>,
    emitted: &mut Vec<FormedBatch<BatchItem>>,
) {
    let q = sched
        .queries
        .get_mut(&claim.query)
        .expect("query lives until finalize");
    q.claims_out -= 1;
    match produced {
        Ok((rung, staged)) => {
            q.produced += staged.len();
            q.rung_outputs[rung] += staged.len();
            q.escalated_items += usize::from(claim.ladder.route.is_some() && rung == 0);
            // Routing is resolved: all outputs of one claim batch under
            // exactly one signature.
            let sig = &claim.ladder.rungs[rung].sig;
            for item in staged {
                q.cache_hits += item.cache_hit as usize;
                q.decode_cpu_s += item.decode_s;
                q.preproc_cpu_s += item.preproc_s;
                let item = BatchItem {
                    query: claim.query,
                    prio: claim.prio,
                    item,
                    claimed_at: claim.claimed_at,
                    infer: claim.infer.clone(),
                };
                emitted.extend(sched.batcher.push(sig, item));
            }
        }
        Err(e) => {
            // Stop claiming further items of this query; items already
            // produced still execute and the handle still resolves (with
            // the error recorded). Failed/skipped are counted in *outputs*,
            // matching `images` (for stills both degenerate to item
            // counts).
            q.failed += q.count_of(claim.idx);
            q.error.get_or_insert(e);
            let dropped_items = q.claim_end - q.next_item;
            q.skipped += q.outputs_before(q.claim_end) - q.outputs_before(q.next_item);
            q.claim_end = q.next_item;
            // The dropped items are counted under the query's *current*
            // rungs, which may be deeper than the ones this claim was
            // taken under.
            if dropped_items > 0 {
                for rung in q.ladder.open() {
                    sched
                        .batcher
                        .settle(&rung.sig, claim.prio, dropped_items, emitted);
                }
            }
        }
    }
    for rung in claim.ladder.open() {
        sched.batcher.settle(&rung.sig, claim.prio, 1, emitted);
    }
    // An item can legally stage zero outputs (an empty GOP): the query may
    // already be finishable.
    try_finalize(inner, sched, claim.query);
}

/// Batches a consumer may have launched and not yet retired: the one the
/// device is executing and one enqueued behind it, so the device starts
/// the second the instant the first ends rather than after this thread has
/// woken up, retired the first and come back round. A third would buy
/// nothing — the device is already never idle between two — and cost
/// another batch of staging memory; the staging entitlement
/// ([`Inner::staging_pool`]) grants each consumer two.
const LAUNCH_WINDOW: usize = 2;

/// A batch enqueued on the device, and when the device will be done with it.
struct Launched {
    batch: FormedBatch<BatchItem>,
    done: Instant,
}

fn consumer_loop(inner: &Inner, lane_idx: usize) {
    let device = inner.fleet.lock().lanes[lane_idx].device.clone();
    // Launch order; both device engines are FIFO, so completion order too.
    let mut window: VecDeque<Launched> = VecDeque::with_capacity(LAUNCH_WINDOW);
    loop {
        // Launch before waiting: a queued batch goes onto the device while
        // the window has room, and the wait for the oldest completion is
        // cut short when one arrives.
        let next = {
            let mut fleet = inner.fleet.lock();
            loop {
                if window.len() < LAUNCH_WINDOW {
                    if let Some(batch) = fleet.take_batch(lane_idx, window.is_empty()) {
                        inner.space_cv.notify_all();
                        break Some(batch);
                    }
                }
                let Some(oldest) = window.front() else {
                    if fleet.producers_live == 0 {
                        return;
                    }
                    inner.batch_cv.wait(&mut fleet);
                    continue;
                };
                if window.len() == LAUNCH_WINDOW || Instant::now() >= oldest.done {
                    break None;
                }
                inner.batch_cv.wait_until(&mut fleet, oldest.done);
            }
        };
        match next {
            Some(batch) => window.push_back(launch(inner, &device, batch)),
            None => {
                let oldest = window.pop_front().expect("nothing to launch: waiting");
                VirtualDevice::wait_until(oldest.done);
                retire(inner, lane_idx, oldest);
            }
        }
    }
}

/// Enqueues `batch` on the device; returns without waiting for it.
fn launch(inner: &Inner, device: &VirtualDevice, batch: FormedBatch<BatchItem>) -> Launched {
    let spec = DeviceBatchSpec {
        dnn: batch.sig.dnn,
        pinned: inner.cfg.runtime.pinned,
        extra_copy_per_batch: inner.cfg.runtime.extra_copy_per_batch,
    };
    let bytes: usize = batch.items.iter().map(|b| b.item.transfer_bytes).sum();
    let accel_ops: f64 = batch.items.iter().map(|b| b.item.accel_ops).sum();
    let done = launch_device_batch(device, &spec, batch.items.len(), bytes, accel_ops);
    Launched { batch, done }
}

/// One executed output on its way back to its query.
struct Retired {
    query: QueryId,
    idx: usize,
    claimed_at: Instant,
    /// The inference callback's prediction (`None` without a callback), or
    /// the message of its panic.
    outcome: Result<Option<BoxedPrediction>, String>,
}

/// Hands a completed batch's outputs back to their queries: lane counters,
/// inference callbacks, then one pass under the scheduler lock.
fn retire(inner: &Inner, lane_idx: usize, launched: Launched) {
    let Launched { batch, done } = launched;
    let full = batch.is_full();
    let first = batch.items.first().map(|b| b.query);
    let cross_query = batch.items.iter().any(|b| Some(b.query) != first);
    {
        let mut fleet = inner.fleet.lock();
        let lane = &mut fleet.lanes[lane_idx];
        lane.in_flight -= 1;
        lane.in_flight_items -= batch.items.len();
        lane.batches += 1;
        lane.images += batch.items.len() as u64;
        lane.retire_lag_s += done.elapsed().as_secs_f64();
    }

    // Inference callbacks are user code and run on this thread, outside
    // every lock. One that panics fails its own output; the lane's consumer
    // and the batches launched behind this one live on. The device is done
    // with the tensors: each item's staging buffer goes back to the arena
    // here, before any handle resolves, so a query submitted on the
    // strength of a report finds them idle.
    let mut retired: Vec<Retired> = batch
        .items
        .into_iter()
        .map(|b| Retired {
            query: b.query,
            idx: b.item.idx,
            claimed_at: b.claimed_at,
            outcome: match (&b.infer, &b.item.image) {
                (Some(infer), Some(img)) => {
                    catch_unwind(AssertUnwindSafe(|| infer(b.item.idx, img)))
                        .map(Some)
                        .map_err(|payload| panic_message("inference callback", payload.as_ref()))
                }
                _ => Ok(None),
            },
        })
        .collect();

    {
        let mut agg = inner.agg.lock();
        agg.batches += 1;
        agg.full_batches += u64::from(full);
        agg.cross_query_batches += u64::from(cross_query);
    }

    // Stable, so each query's outputs stay in batch order; then every
    // distinct query of the batch is looked up once.
    retired.sort_by_key(|r| r.query);
    let mut sched = inner.sched.lock();
    let now = Instant::now();
    for outputs in retired.chunk_by_mut(|a, b| a.query == b.query) {
        let qid = outputs[0].query;
        let Some(q) = sched.queries.get_mut(&qid) else {
            continue;
        };
        for out in outputs {
            match std::mem::replace(&mut out.outcome, Ok(None)) {
                Ok(pred) => {
                    q.completed += 1;
                    q.latencies
                        .push(now.duration_since(out.claimed_at).as_secs_f64());
                    if pred.is_some() {
                        q.results[out.idx] = pred;
                    }
                }
                Err(msg) => {
                    q.panicked += 1;
                    q.failed += 1;
                    q.error.get_or_insert(msg);
                }
            }
        }
        try_finalize(inner, &mut sched, qid);
    }
}

fn panic_message(who: &str, payload: &(dyn Any + Send)) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(non-string payload)");
    format!("{who} panicked: {msg}")
}
