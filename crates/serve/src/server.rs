//! The long-lived multi-query serving runtime over a **device fleet**.
//!
//! A [`Server`] owns one or more [`VirtualDevice`]s (one *lane* per
//! device, each with its own consumer threads and bounded batch queue), a
//! shared pool of producer threads, and the scheduler state. Every query
//! enters through [`Server::submit`] as a [`SubmitRequest`] — plan, items,
//! [`SubmitOptions`] (deadline, [`Priority`], a degradation ladder or a
//! cascade) and an optional inference callback — and resolves through a
//! [`QueryHandle`]. An *open* request's handle also takes items
//! ([`QueryHandle::append`]) and hands back each one's [`Completion`]: a
//! live stream is one open query. Scheduling policy (fair share + signature
//! batching) is documented in [`crate::scheduler`].
//!
//! Dataflow per query:
//!
//! ```text
//! submit() ──► admission (bounded, priority-aware; blocks or errors when full)
//!   append: each item's fan-out and batcher counts settle (append() for more)
//!   producers: round-robin claim one item ─► decode + CPU preproc
//!   batch former: group by PlacementSignature ─► device batches
//!   dispatch: shard each batch to the lane expected to finish it first
//!   lane consumers: launch copy + kernels + DNN batch as one stream,
//!     keep one more batch enqueued behind it, retire in launch order
//!     ─► per-item results (an open query's completions)
//!     (an idle lane steals queued batches from the lane with most items queued)
//!   closed, last item resolved ─► QueryReport through the handle
//! ```
//!
//! # Fidelity control: one rung table, three policies
//!
//! A query is compiled at submission into one table of `Rung`s (rung 0
//! the submitted plan, deeper rungs cheaper calibrated plans) and its
//! `Ladder` picks a rung per item. **Load degradation** (the scheduler
//! picks): under pressure — admission backlog, or a query projected to miss
//! its deadline — items not yet claimed move to the next-cheaper rung (see
//! [`smol_core::Constraint::degradation_ladder`]); the accuracy floor holds
//! because every rung was constraint-feasible at planning time. **Cascade
//! routing** (the producer picks): by the item's bitstream signal, before
//! any decode. **Pacing** (the appender picks): an open query's appender
//! names each item's rung; the rung past the end drops the item (skipped,
//! never produced). All three keep the batcher's per-signature counters by
//! one rule — an item counts, at its query's priority, under every rung
//! still open to it (`Pick::open`) — and [`crate::scheduler`] states the
//! three rules that release a batch over those counters.
//!
//! Producers and consumers are long-lived: they are spawned once in
//! [`Server::with_devices`] and reused by every query until shutdown. The
//! device half (lanes, dispatch, consumers) is the `lanes` module; a
//! query's per-item state is its `window`.
//! Work stealing moves *formed batches* between lanes, never items within
//! a batch, so per-query result ordering and output bytes are identical
//! whatever lane executes a batch — the device only models time.

use crate::lanes::{consumer_loop, Lanes};
use crate::scheduler::{Batcher, FormedBatch, Priority};
use crate::stats::{percentile, BoxedPrediction, QueryReport, ServerStats};
use crate::window::Window;
use smol_accel::sync::{lock, wait};
use smol_accel::VirtualDevice;
use smol_codec::EncodedImage;
use smol_core::{CascadePlan, PlacementSignature, QueryPlan};
use smol_imgproc::ImageU8;
use smol_runtime::{
    produce_media_item, route_stage, wrap_images, BufferPool, MediaItem, PlanContext, ProducedItem,
    RuntimeOptions, StagingArena, TensorCache, TensorCacheStats,
};
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError, Weak};
use std::time::{Duration, Instant};

/// Server-assigned query identifier (monotonic).
pub type QueryId = u64;

pub(crate) type InferFn = Arc<dyn Fn(usize, &ImageU8) -> BoxedPrediction + Send + Sync>;

/// Serving-layer errors.
#[derive(Debug)]
pub enum ServeError {
    /// The admission queue is full ([`SubmitRequest::no_wait`] only).
    Backpressure { active: usize, capacity: usize },
    /// The server is shutting down and no longer admits queries.
    ShuttingDown,
    /// The server went away before the query resolved.
    Aborted,
    /// The plan cannot be executed on any item (see
    /// [`PlanContext::validate`]); rejected before admission.
    InvalidPlan(String),
    /// The query is closed (or was never open): it takes no more items.
    Closed,
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
            ServeError::Closed => write!(f, "the query takes no more items"),
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

/// Per-query SLO and degradation options of a [`SubmitRequest`].
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
    /// slot, which must stay stable across a mid-query re-plan. An open
    /// query's appender picks rung `i + 1` = `ladder[i]` itself, so there
    /// every step is kept and must compile.
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
    /// so there is no current rung for load to step down from. Open
    /// queries ignore it: their appender picks every rung.
    pub cascade: Option<CascadePlan>,
}

/// One [`Server::submit`]: the plan, the items, the query's
/// [`SubmitOptions`], an optional per-output inference callback, and
/// whether to wait at admission. A request is closed — its items are the
/// whole query — unless it is [`open`](SubmitRequest::open); both take one
/// path: every item is appended, and a closed request's query is closed at
/// admission.
pub struct SubmitRequest {
    plan: QueryPlan,
    items: Vec<MediaItem>,
    opts: SubmitOptions,
    infer: Option<InferFn>,
    wait: bool,
    open: bool,
}

impl SubmitRequest {
    /// A closed request over media items (stills and/or GOPs, a GOP fanning
    /// out into one output per selected frame).
    pub fn new(plan: QueryPlan, items: Vec<MediaItem>) -> Self {
        SubmitRequest {
            plan,
            items,
            opts: SubmitOptions::default(),
            infer: None,
            wait: true,
            open: false,
        }
    }

    /// A closed request over still images.
    pub fn stills(plan: QueryPlan, images: &[EncodedImage]) -> Self {
        SubmitRequest::new(plan, wrap_images(images))
    }

    /// The query's SLO, degradation and cascade options.
    pub fn options(mut self, opts: SubmitOptions) -> Self {
        self.opts = opts;
        self
    }

    /// A per-output inference callback over the decoded image. It sees
    /// *output* indices (contiguous per item, frames in GOP order); results
    /// come back in the report ([`QueryReport::take_results`]), or an open
    /// query's [`Completion`]s.
    pub fn infer<R, F>(mut self, infer: F) -> Self
    where
        R: Send + 'static,
        F: Fn(usize, &ImageU8) -> R + Send + Sync + 'static,
    {
        self.infer = Some(Arc::new(move |idx, img| {
            Box::new(infer(idx, img)) as BoxedPrediction
        }));
        self
    }

    /// Fail with [`ServeError::Backpressure`] instead of waiting while the
    /// admission queue is full.
    pub fn no_wait(mut self) -> Self {
        self.wait = false;
        self
    }

    /// Keep the query open: it takes items through [`QueryHandle::append`]
    /// until [`QueryHandle::close`]. The request's own items run on rung 0.
    pub fn open(mut self) -> Self {
        self.open = true;
        self
    }
}

/// One resolved item of an open query ([`QueryHandle::next_completion`]).
#[derive(Debug)]
pub struct Completion {
    /// The item's index, in append order.
    pub item: usize,
    /// The callback's prediction per output of the item, in order; `None`
    /// where the output did not execute or there is no callback.
    pub results: Vec<Option<BoxedPrediction>>,
    /// Outputs that did not execute: production failed, the callback
    /// panicked, or the item was cancelled before a producer claimed it.
    pub failed: usize,
}

/// Serving configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Stage-thread counts and §6.1 toggles, shared by all queries.
    /// `consumers` is the consumer-thread count **per device lane**; each
    /// is one stream holding up to two launched batches.
    pub runtime: RuntimeOptions,
    /// Admission bound: at most this many queries may be in flight;
    /// `submit` blocks (or fails, [`SubmitRequest::no_wait`]) past it, and
    /// an open query's `append` once this many of its items are unresolved.
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

/// A produced item tagged with its owning query and item.
pub(crate) struct BatchItem {
    pub query: QueryId,
    /// Index of the item (not the output) within its query.
    pub item_idx: usize,
    /// The owning query's priority: a partial batch holding this item does
    /// not wait for lesser work.
    prio: Priority,
    pub item: ProducedItem,
    pub claimed_at: Instant,
    /// The owning query's inference callback, run when the batch retires.
    pub infer: Option<InferFn>,
}

/// One unit of producer work: item `idx` of query `query`.
struct Claim {
    query: QueryId,
    prio: Priority,
    idx: usize,
    item: MediaItem,
    /// The item's outputs are `offset..offset + fanout`.
    offset: usize,
    fanout: usize,
    rungs: Arc<[Rung]>,
    /// How the item picks its rung, fixed at claim time: it stays counted
    /// under every rung open *here*, whatever the query degrades to while
    /// the claim is out.
    pick: Pick,
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

/// Who picks an item's rung (see the module docs).
#[derive(Clone, Copy)]
enum Policy {
    /// The scheduler: every item takes rung `Ladder::at`, which
    /// [`maybe_degrade`] advances.
    Degrade,
    /// The producer, per item after claiming it, by its bitstream signal
    /// against this threshold.
    Route(f64),
    /// The appender, per item at append; the rung past the end drops it.
    Pace,
}

/// An unproduced item's rung: settled, or still open to routing.
#[derive(Clone, Copy)]
enum Pick {
    Rung(usize),
    Route(f64),
}

impl Pick {
    /// The rungs an item not yet produced may still land in — the ones it
    /// is counted under in the batcher, at its query's priority. Until a
    /// routed item is produced that is *every* rung: an unrouted item could
    /// still join either signature's group; routing resolves it to exactly
    /// one. What those counts hold a partial batch back for, and what they
    /// do not, is [`crate::scheduler`]'s three release rules.
    fn open(self, rungs: &[Rung]) -> &[Rung] {
        match self {
            Pick::Rung(r) => &rungs[r..=r],
            Pick::Route(_) => rungs,
        }
    }
}

/// A query's compiled rungs plus the policy that picks one per item. Rung
/// 0 is the submitted plan; deeper rungs are the usable degradation steps,
/// most accurate first, a cascade's stage-1 plan, or an open query's
/// pacing rungs.
struct Ladder {
    rungs: Arc<[Rung]>,
    /// The current rung of a degrading query (0 under the other policies);
    /// also the number of degradation steps taken.
    at: usize,
    policy: Policy,
}

impl Ladder {
    /// How an unclaimed item picks its rung; `pinned` is the rung its
    /// appender chose (paced queries only).
    fn pick(&self, pinned: Option<usize>) -> Pick {
        match self.policy {
            Policy::Degrade => Pick::Rung(self.at),
            Policy::Route(threshold) => Pick::Route(threshold),
            Policy::Pace => Pick::Rung(pinned.expect("a paced item carries its rung")),
        }
    }
}

struct QueryState {
    priority: Priority,
    ladder: Ladder,
    /// Outputs staged under each rung.
    rung_outputs: Vec<usize>,
    /// This query's entitlement over the server's staging arena, per rung;
    /// a rung's entitlement is created when the rung is first claimed on
    /// (and again after an append raised `max_fanout`).
    pools: Vec<Option<BufferPool>>,
    infer: Option<InferFn>,
    /// Per-item state, from the oldest unresolved item to the newest.
    window: Window,
    /// Outputs the items occupy, and the largest single-item fan-out
    /// (pool sizing).
    total_outputs: usize,
    max_fanout: usize,
    /// Takes no more items: resolves once the last item has.
    closed: bool,
    /// An open query's completions, per item as it resolves; `None` for a
    /// closed request, whose results and latencies go into the report.
    completions: Option<mpsc::Sender<Completion>>,
    /// The query's report, its counters kept as items resolve (the rest is
    /// filled in at finalize).
    report: QueryReport,
    /// Outputs staged so far (≥ items produced for video queries).
    produced: usize,
    latencies: Vec<f64>,
    submitted_at: Instant,
    done_tx: mpsc::SyncSender<QueryReport>,
    deadline: Option<Duration>,
    /// Hysteresis: no further degradation before this item index.
    next_degrade_at: usize,
}

impl QueryState {
    /// True when the query is projected to miss its deadline at the
    /// observed completion rate (needs at least one completed output).
    fn projected_late(&self, now: Instant) -> bool {
        let Some(deadline) = self.deadline else {
            return false;
        };
        let completed = self.report.images;
        if completed == 0 {
            return false;
        }
        let elapsed = now.duration_since(self.submitted_at).as_secs_f64();
        if elapsed <= 0.0 {
            return false;
        }
        let rate = completed as f64 / elapsed;
        let remaining = (self.total_outputs - completed) as f64;
        elapsed + remaining / rate > deadline.as_secs_f64()
    }

    /// Rung `rung`'s staging entitlement, created at its first use.
    fn pool(&mut self, inner: &Inner, rung: usize) -> BufferPool {
        let (ctx, fanout) = (&self.ladder.rungs[rung].ctx, self.max_fanout);
        self.pools[rung]
            .get_or_insert_with(|| inner.staging_pool(ctx, fanout))
            .clone()
    }

    /// Claimed item `idx` has resolved: its state goes, and an open
    /// query's appender gets its completion.
    fn resolve(&mut self, inner: &Inner, idx: usize) {
        let at_bound = self.window.full(inner.cfg.max_active_queries.max(1));
        let (results, failed) = self.window.resolve(idx);
        if let Some(tx) = &self.completions {
            let _ = tx.send(Completion {
                item: idx,
                results,
                failed,
            });
            // An appender may be blocked on the bound this item frees.
            if at_bound {
                inner.admit_cv.notify_all();
            }
        }
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

pub(crate) struct Inner {
    pub cfg: ServerConfig,
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
    /// Submitters wait here for admission capacity, and an open query's
    /// appender for one of its items to resolve.
    admit_cv: Condvar,
    shutdown: AtomicBool,
    /// The aggregate counters of [`Server::stats`] (its live fields are
    /// filled in when sampled).
    pub agg: Mutex<ServerStats>,
    pub lanes: Lanes,
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

/// Resolves to the query's [`QueryReport`] once it is closed and its last
/// item has resolved; an open query's handle also takes more items and
/// delivers per-item [`Completion`]s.
///
/// The handle is fully non-blocking-capable: [`QueryHandle::poll`] reports
/// progress without consuming the report, [`QueryHandle::wait_deadline`]
/// takes it with bounded blocking (`Duration::ZERO`: none at all), and
/// [`QueryHandle::wait`] blocks to resolution. No caller — including
/// the fleet scheduler itself — ever has to park a thread per query.
pub struct QueryHandle {
    id: QueryId,
    /// Behind locks so the handle is `Sync` (a stream shares it with its
    /// driver); each has one reader in practice.
    rx: Mutex<mpsc::Receiver<QueryReport>>,
    /// An open query's completions.
    completions: Option<Mutex<mpsc::Receiver<Completion>>>,
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
    /// The report is ready: `wait_deadline(Duration::ZERO)` will return it.
    Ready,
}

impl QueryHandle {
    pub fn id(&self) -> QueryId {
        self.id
    }

    /// Blocks until the query resolves.
    pub fn wait(self) -> ServeResult<QueryReport> {
        self.rx
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .recv()
            .map_err(|_| ServeError::Aborted)
    }

    /// Blocks for at most `timeout`; `Ok(None)` when the query is still
    /// in flight at the deadline, `Err(Aborted)` when the server went
    /// away first.
    pub fn wait_deadline(&self, timeout: Duration) -> ServeResult<Option<QueryReport>> {
        match lock(&self.rx).recv_timeout(timeout) {
            Ok(report) => Ok(Some(report)),
            Err(mpsc::RecvTimeoutError::Timeout) => Ok(None),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServeError::Aborted),
        }
    }

    /// Non-blocking progress probe — never consumes the report (pair with
    /// [`QueryHandle::wait_deadline`] / [`QueryHandle::wait`] to take it).
    /// A gone server reports `Ready` so pollers always reach a terminal
    /// state (the take will then surface [`ServeError::Aborted`]).
    pub fn poll(&self) -> QueryPoll {
        let Some(inner) = self.inner.upgrade() else {
            return QueryPoll::Ready;
        };
        let sched = lock(&inner.sched);
        match sched.queries.get(&self.id) {
            Some(q) => QueryPoll::Pending {
                produced: q.produced,
                completed: q.report.images,
                total: q.total_outputs,
            },
            None => QueryPoll::Ready,
        }
    }

    /// Appends `item` to an open query on rung `rung` (0 = the submitted
    /// plan, `i + 1` = its options' `ladder[i]`) and returns its index.
    /// Items take output indices in append order — the callback sees
    /// output `k` of an item whose outputs start where the previous
    /// item's end. A rung past the last drops the item: it counts as
    /// skipped, takes no output indices, is never produced and never
    /// completes (its appender already knows its fate).
    ///
    /// Blocks while `max_active_queries` of the query's items are
    /// unresolved, or while its oldest unresolved item is four times that
    /// many items behind the newest; fails with [`ServeError::Closed`] once
    /// the query is closed or cancelled, or if it was not submitted open.
    pub fn append(&self, item: MediaItem, rung: usize) -> ServeResult<usize> {
        let inner = self.inner.upgrade().ok_or(ServeError::Aborted)?;
        let capacity = inner.cfg.max_active_queries.max(1);
        let mut sched = lock(&inner.sched);
        loop {
            if inner.shutdown.load(Ordering::Acquire) {
                return Err(ServeError::ShuttingDown);
            }
            let q = sched.queries.get(&self.id).ok_or(ServeError::Closed)?;
            if q.closed {
                return Err(ServeError::Closed);
            }
            if rung >= q.ladder.rungs.len() || !q.window.full(capacity) {
                break;
            }
            sched = wait(&inner.admit_cv, sched);
        }
        let idx = enqueue(&inner, &mut sched, self.id, vec![item], Some(rung));
        drop(sched);
        inner.work_cv.notify_one();
        Ok(idx)
    }

    /// Closes the query: it takes no more items, and resolves once every
    /// item appended so far has.
    pub fn close(&self) {
        self.finish(false);
    }

    /// Closes the query and cancels every item no producer has claimed
    /// yet: each counts as skipped (an open query completes it with all
    /// its outputs failed). Items already claimed still run.
    pub fn cancel(&self) {
        self.finish(true);
    }

    fn finish(&self, cancel: bool) {
        let Some(inner) = self.inner.upgrade() else {
            return;
        };
        let mut emitted = Vec::new();
        {
            let mut sched = lock(&inner.sched);
            let Some(q) = sched.queries.get_mut(&self.id) else {
                return;
            };
            q.closed = true;
            if cancel {
                cancel_queued(&mut sched, self.id, &mut emitted);
            }
            try_finalize(&inner, &mut sched, self.id);
        }
        // Wake an appender blocked on this query: it is closed now.
        inner.admit_cv.notify_all();
        for batch in emitted {
            inner.lanes.dispatch(batch);
        }
    }

    /// The next resolved item of an open query, waiting until `deadline`
    /// at most. `None` at the deadline, for a closed request, and once the
    /// query has resolved and every completion has been taken.
    pub fn next_completion(&self, deadline: Instant) -> Option<Completion> {
        let timeout = deadline.saturating_duration_since(Instant::now());
        let completions = lock(self.completions.as_ref()?);
        completions.recv_timeout(timeout).ok()
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
            agg: Mutex::default(),
            lanes: Lanes::new(devices, cfg.batch_queue, producers),
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
        let report = server
            .submit(SubmitRequest::new(plan.clone(), items))?
            .wait();
        server.shutdown();
        report
    }

    /// [`Server::submit`] of a closed request with options.
    pub fn submit_media_opts(
        &self,
        plan: QueryPlan,
        items: Vec<MediaItem>,
        opts: SubmitOptions,
    ) -> ServeResult<QueryHandle> {
        self.submit(SubmitRequest::new(plan, items).options(opts))
    }

    /// [`Server::submit`] of a closed request with options and a per-output
    /// inference callback.
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
        self.submit(SubmitRequest::new(plan, items).options(opts).infer(infer))
    }

    /// Submits a query: compiles its rungs, waits for admission (or fails
    /// with [`ServeError::Backpressure`], [`SubmitRequest::no_wait`]),
    /// appends its items and — unless the request is open — closes it.
    pub fn submit(&self, request: SubmitRequest) -> ServeResult<QueryHandle> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let (inner, opts, open) = (&self.inner, &request.opts, request.open);
        let (rungs, policy) = compile_ladder(&request.plan, &request.items, opts, open)?;
        let (done_tx, done_rx) = mpsc::sync_channel::<QueryReport>(1);
        let (completions, completions_rx) = open.then(mpsc::channel).unzip();
        let mut sched = lock(&inner.sched);
        let capacity = inner.cfg.max_active_queries.max(1);
        if !request.wait {
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
                sched = wait(&inner.admit_cv, sched);
            }
            sched.waiting[opts.priority.index()] -= 1;
            // Others may now be admissible too (e.g. equal priority with
            // capacity left).
            inner.admit_cv.notify_all();
        }
        let id = sched.next_id;
        sched.next_id += 1;
        lock(&inner.agg).submitted_queries += 1;
        let state = QueryState {
            priority: opts.priority,
            rung_outputs: vec![0; rungs.len()],
            pools: (0..rungs.len()).map(|_| None).collect(),
            ladder: Ladder {
                rungs,
                at: 0,
                policy,
            },
            infer: request.infer,
            window: Window::new(open),
            total_outputs: 0,
            max_fanout: 1,
            closed: !open,
            completions,
            report: QueryReport {
                id,
                accuracy_floor: opts.accuracy_floor,
                ..QueryReport::default()
            },
            produced: 0,
            latencies: Vec::new(),
            submitted_at: Instant::now(),
            done_tx,
            deadline: opts.deadline,
            next_degrade_at: 0,
        };
        sched.queries.insert(id, state);
        sched.active += 1;
        enqueue(inner, &mut sched, id, request.items, open.then_some(0));
        // A closed query with no items has nothing to wait for.
        try_finalize(inner, &mut sched, id);
        drop(sched);
        inner.work_cv.notify_all();
        Ok(QueryHandle {
            id,
            rx: Mutex::new(done_rx),
            completions: completions_rx.map(Mutex::new),
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

    /// Aggregate + per-device serving metrics.
    pub fn stats(&self) -> ServerStats {
        // Under the scheduler lock, which finalize holds while it folds a
        // query into the aggregate: a query whose last completion has been
        // delivered is counted.
        let mut stats = {
            let sched = lock(&self.inner.sched);
            let mut stats = lock(&self.inner.agg).clone();
            stats.queue_depth = sched.active;
            stats.pending_batch_items = sched.batcher.pending_total();
            stats.waiting_admission = sched.waiting_total();
            stats.priority_flushes = sched.batcher.priority_flushes();
            stats
        };
        stats.devices = self.inner.lanes.stats();
        stats.steals = stats.devices.iter().map(|d| d.stolen_batches).sum();
        stats.tensor_cache = self.tensor_cache_stats();
        stats.staging = self.inner.staging.stats();
        stats
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
        {
            // Open queries take no more items: they drain and resolve too.
            let mut sched = lock(&self.inner.sched);
            let open: Vec<QueryId> = sched.queries.keys().copied().collect();
            for id in open {
                sched.queries.get_mut(&id).expect("listed").closed = true;
                try_finalize(&self.inner, &mut sched, id);
            }
        }
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

/// Compiles a request's rung table and the policy that picks among it.
fn compile_ladder(
    plan: &QueryPlan,
    items: &[MediaItem],
    opts: &SubmitOptions,
    open: bool,
) -> ServeResult<(Arc<[Rung]>, Policy)> {
    let full = Rung::compile(plan, opts.accuracy).map_err(ServeError::InvalidPlan)?;
    // The cascade's aggressive rung. Dropped when it collapses onto the
    // full rung (identical signature — the planner guards this too, but
    // submitters can hand-build plans), when its staging geometry diverges
    // (one pool serves both rungs), or when it cannot be executed.
    let stage1 = || {
        let cascade = opts.cascade.as_ref()?;
        let rung = Rung::compile(&cascade.stage1, None).ok()?;
        (*rung.sig != *full.sig && rung.ctx.buf_len == full.ctx.buf_len)
            .then_some((rung, cascade.threshold))
    };
    let (deeper, policy) = if open {
        // The appender names rungs by index: every step is kept, and one
        // that cannot be executed fails the request.
        let steps = opts.ladder.iter();
        let rungs = steps.map(|step| Rung::compile(&step.plan, Some(step.accuracy)));
        let rungs = rungs.collect::<Result<_, _>>();
        (rungs.map_err(ServeError::InvalidPlan)?, Policy::Pace)
    } else if let Some((rung, threshold)) = stage1() {
        // Routed per item, not degraded per query: every rung is open at
        // once, so the ladder has no cursor to move.
        (vec![rung], Policy::Route(threshold))
    } else {
        // A degradation step is usable only when it respects the floor,
        // can be executed and preserves every item's fan-out — results are
        // indexed by output slot, which must survive a mid-query re-plan.
        // (Stills always qualify; video rungs must keep the frame
        // selection.)
        let usable = opts.ladder.iter().filter(|step| {
            opts.accuracy_floor
                .is_none_or(|floor| step.accuracy >= floor)
        });
        let fanout = |item: &MediaItem, rung: &Rung| item.output_count(rung.ctx.decode);
        let compiled = usable.filter_map(|step| {
            let rung = Rung::compile(&step.plan, Some(step.accuracy)).ok()?;
            items
                .iter()
                .all(|item| fanout(item, &rung) == fanout(item, &full))
                .then_some(rung)
        });
        (compiled.collect(), Policy::Degrade)
    };
    Ok((std::iter::once(full).chain(deeper).collect(), policy))
}

// ---------------------------------------------------------------------------
// Stage threads
// ---------------------------------------------------------------------------

/// Appends `items` to query `qid`, all on `rung` (a paced query's choice;
/// `None` lets the ladder pick), and returns the first one's index. Each
/// item's fan-out and batcher counts settle here. A rung past the last
/// drops the items: counted as skipped, never produced.
fn enqueue(
    inner: &Inner,
    sched: &mut Sched,
    qid: QueryId,
    items: Vec<MediaItem>,
    rung: Option<usize>,
) -> usize {
    let q = sched.queries.get_mut(&qid).expect("caller checked");
    let first = q.window.end();
    let n = items.len();
    let dropped = rung.is_some_and(|r| r >= q.ladder.rungs.len());
    // A dropped item's loss is counted in the submitted plan's outputs.
    let mode = q.ladder.rungs[rung.filter(|_| !dropped).unwrap_or(0)]
        .ctx
        .decode;
    let mut outputs = 0;
    for item in items {
        let fanout = item.output_count(mode);
        outputs += fanout;
        if dropped {
            q.report.skipped += fanout;
            q.window.push_dropped();
            continue;
        }
        if fanout > q.max_fanout {
            // Entitlements were sized for smaller items: re-create them.
            q.max_fanout = fanout;
            q.pools.iter_mut().for_each(|pool| *pool = None);
        }
        q.window.push(item, q.total_outputs, fanout, rung);
        q.total_outputs += fanout;
    }
    lock(&inner.agg).images_in += outputs as u64;
    if dropped || n == 0 {
        return first;
    }
    if q.completions.is_none() {
        q.report.results.resize_with(q.total_outputs, || None);
        q.latencies.reserve(outputs);
    }
    let prio = q.priority;
    for r in q.ladder.pick(rung).open(&q.ladder.rungs) {
        sched.batcher.register(&r.sig, prio, n);
    }
    let ring = &mut sched.rr[prio.index()];
    if !ring.contains(&qid) {
        ring.push_back(qid);
    }
    first
}

/// Cancels every item of `qid` no producer has claimed: each counts as
/// skipped and releases its batcher counts (partial batches that were
/// waiting on them land in `emitted`); an open query completes it with
/// every output failed.
fn cancel_queued(sched: &mut Sched, qid: QueryId, emitted: &mut Vec<FormedBatch<BatchItem>>) {
    let q = sched.queries.get_mut(&qid).expect("caller checked");
    q.window.cancel(|item| {
        q.report.skipped += item.fanout;
        for r in q.ladder.pick(item.rung).open(&q.ladder.rungs) {
            sched.batcher.settle(&r.sig, q.priority, 1, emitted);
        }
        if let Some(tx) = &q.completions {
            let _ = tx.send(Completion {
                item: item.idx,
                results: (0..item.fanout).map(|_| None).collect(),
                failed: item.fanout,
            });
        }
    });
}

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
    // Only a degrading query has a current rung to step down from.
    let Some(next_item) = q.window.next_unclaimed() else {
        return;
    };
    if !matches!(q.ladder.policy, Policy::Degrade)
        || at + 1 >= q.ladder.rungs.len()
        || next_item < q.next_degrade_at
    {
        return;
    }
    if !pressure && !q.projected_late(Instant::now()) {
        return;
    }
    let (prio, remaining) = (q.priority, q.window.unclaimed());
    q.ladder.at += 1;
    let (old, new) = (&q.ladder.rungs[at], &q.ladder.rungs[at + 1]);
    // One full batch of the new plan between steps: degrade is a ratchet,
    // not a thrash.
    q.next_degrade_at = next_item + new.sig.batch.max(2);
    // The unclaimed items change rungs (and draw on the new rung's staging
    // entitlement); claims already out stay counted under the rung they
    // were taken on, their buffers in the old entitlement.
    sched.batcher.register(&new.sig, prio, remaining);
    sched.batcher.settle(&old.sig, prio, remaining, emitted);
    lock(&inner.agg).degradations += 1;
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
            let Some(next) = q.window.claim() else {
                continue; // exhausted (kept out of the ring from here on)
            };
            let pick = q.ladder.pick(next.rung);
            if matches!(pick, Pick::Rung(rung) if rung > 0) {
                q.report.downgraded_frames += next.fanout;
            }
            // One entitlement serves both rungs of a cascade.
            let pool = match pick {
                Pick::Rung(rung) => q.pool(inner, rung),
                Pick::Route(_) => q.pool(inner, 0),
            };
            let claim = Claim {
                query: qid,
                prio: q.priority,
                idx: next.idx,
                item: next.item,
                offset: next.offset,
                fanout: next.fanout,
                rungs: Arc::clone(&q.ladder.rungs),
                pick,
                pool,
                infer: q.infer.clone(),
                claimed_at: Instant::now(),
            };
            if q.window.unclaimed() > 0 {
                sched.rr[prio].push_back(qid);
            }
            return Some(claim);
        }
    }
    None
}

/// Finalizes `qid` once it is closed and every item has resolved: builds
/// the report, resolves the handle, and frees the admission slot.
fn try_finalize(inner: &Inner, sched: &mut Sched, qid: QueryId) {
    let done = |q: &QueryState| q.closed && q.window.unresolved() == 0;
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
    let mut report = q.report;
    for pool in q.pools.iter().flatten().map(BufferPool::stats) {
        report.pool.reused += pool.reused;
        report.pool.allocated += pool.allocated;
        report.pool.waits += pool.waits;
    }
    report.label = rung.label.clone();
    report.accuracy = rung.accuracy;
    report.wall_s = wall;
    if wall > 0.0 {
        report.throughput = report.images as f64 / wall;
    }
    report.latency_p50_s = percentile(&q.latencies, 0.5);
    report.latency_p95_s = percentile(&q.latencies, 0.95);
    report.degraded_steps = q.ladder.at;
    report.dropped_frames = report.failed + report.skipped;
    // `[stage 1, full]`: a routed query's rungs, aggressive first.
    if let Policy::Route(_) = q.ladder.policy {
        report.stage_histogram = q.rung_outputs.iter().rev().copied().collect();
    }
    report.deadline_missed = deadline_missed;
    {
        let mut agg = lock(&inner.agg);
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

/// Counts its producer thread out of `producers_live` however the thread
/// ends — a panic included — and wakes the consumers, which exit (and let
/// `shutdown` return) only once every producer is gone.
struct ProducerLive<'a>(&'a Inner);

impl Drop for ProducerLive<'_> {
    fn drop(&mut self) {
        self.0.lanes.producer_exited();
    }
}

fn producer_loop(inner: &Inner) {
    let _live = ProducerLive(inner);
    loop {
        let mut emitted: Vec<FormedBatch<BatchItem>> = Vec::new();
        let claim = {
            let mut sched = lock(&inner.sched);
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
                sched = wait(&inner.work_cv, sched);
            }
        };
        let had_flushes = !emitted.is_empty();
        // Dispatch outside the lock: a full lane queue must not stall
        // other producers' claims, only this thread.
        for batch in emitted {
            inner.lanes.dispatch(batch);
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
            &mut lock(&inner.sched),
            &claim,
            produced,
            &mut emitted,
        );
        for batch in emitted {
            inner.lanes.dispatch(batch);
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
    let rung = match claim.pick {
        Pick::Rung(rung) => rung,
        Pick::Route(threshold) => 1 - route_stage(&claim.item, threshold),
    };
    produce_media_item(
        &claim.rungs[rung].ctx,
        claim.offset,
        &claim.item,
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
    // An item can legally stage zero outputs (an empty GOP): it, and the
    // query, may then be resolved already.
    let resolved = match produced {
        Ok((rung, staged)) => {
            let resolved = q.window.staged(claim.idx, Some(staged.len()));
            q.produced += staged.len();
            q.rung_outputs[rung] += staged.len();
            let escalated = matches!(claim.pick, Pick::Route(_)) && rung == 0;
            q.report.escalated_items += usize::from(escalated);
            // Routing is resolved: all outputs of one claim batch under
            // exactly one signature.
            let sig = &claim.rungs[rung].sig;
            for staged in staged {
                q.report.cache_hits += staged.cache_hit as usize;
                q.report.decode_cpu_s += staged.decode_s;
                q.report.preproc_cpu_s += staged.preproc_s;
                let staged = BatchItem {
                    query: claim.query,
                    item_idx: claim.idx,
                    prio: claim.prio,
                    item: staged,
                    claimed_at: claim.claimed_at,
                    infer: claim.infer.clone(),
                };
                emitted.extend(sched.batcher.push(sig, staged));
            }
            resolved
        }
        Err(e) => {
            // A closed query stops claiming its other items; items already
            // produced still execute and the handle still resolves (with
            // the error recorded). An open query's items fail alone, each
            // in its own completion. Failed/skipped are counted in
            // *outputs*, matching `images` (for stills both degenerate to
            // item counts).
            q.window.staged(claim.idx, None);
            q.report.failed += claim.fanout;
            q.report.error.get_or_insert(e);
            if q.completions.is_none() {
                cancel_queued(sched, claim.query, emitted);
            }
            true
        }
    };
    for rung in claim.pick.open(&claim.rungs) {
        sched.batcher.settle(&rung.sig, claim.prio, 1, emitted);
    }
    if resolved {
        let q = sched.queries.get_mut(&claim.query).expect("not finalized");
        q.resolve(inner, claim.idx);
        try_finalize(inner, sched, claim.query);
    }
}

/// One executed output on its way back to its query.
pub(crate) struct Retired {
    pub query: QueryId,
    /// The output's item, and the output's own index.
    pub item_idx: usize,
    pub idx: usize,
    pub claimed_at: Instant,
    /// The inference callback's prediction (`None` without a callback), or
    /// the message of its panic.
    pub outcome: Result<Option<BoxedPrediction>, String>,
}

/// Books a retired batch's outputs into their queries, in one pass under
/// the scheduler lock.
pub(crate) fn retire_outputs(inner: &Inner, mut retired: Vec<Retired>) {
    // Stable, so each query's outputs stay in batch order; then every
    // distinct query of the batch is looked up once.
    retired.sort_by_key(|r| r.query);
    let mut sched = lock(&inner.sched);
    let now = Instant::now();
    for outputs in retired.chunk_by_mut(|a, b| a.query == b.query) {
        let qid = outputs[0].query;
        let Some(q) = sched.queries.get_mut(&qid) else {
            continue;
        };
        for out in outputs {
            let outcome = match std::mem::replace(&mut out.outcome, Ok(None)) {
                // An open query's results travel with its item's completion.
                Ok(pred) if q.completions.is_some() => {
                    q.report.images += 1;
                    Ok(pred)
                }
                Ok(pred) => {
                    q.report.images += 1;
                    q.latencies
                        .push(now.duration_since(out.claimed_at).as_secs_f64());
                    if pred.is_some() {
                        q.report.results[out.idx] = pred;
                    }
                    Ok(None)
                }
                Err(msg) => {
                    q.report.failed += 1;
                    q.report.error.get_or_insert(msg);
                    Err(())
                }
            };
            if q.window.retired(out.item_idx, out.idx, outcome) {
                q.resolve(inner, out.item_idx);
            }
        }
        try_finalize(inner, &mut sched, qid);
    }
}

pub(crate) fn panic_message(who: &str, payload: &(dyn Any + Send)) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(non-string payload)");
    format!("{who} panicked: {msg}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use smol_accel::{ExecutionEnv, GpuModel, ModelKind};
    use smol_codec::Format;
    use smol_core::{DecodeMode, InputVariant, Planner, PlannerConfig};

    /// An endless stream's query: after 10 000 appended and completed
    /// items, the query holds state for its unresolved items only — never
    /// more than the append bound — and nothing per output.
    #[test]
    fn an_open_query_holds_state_only_for_unresolved_items() {
        const ITEMS: usize = 10_000;
        const BOUND: usize = 4;
        let device = VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 0.001);
        let server = Server::new(
            device,
            ServerConfig {
                max_active_queries: BOUND,
                ..Default::default()
            },
        );
        let planner = Planner::new(PlannerConfig {
            dnn_input: 8,
            batch: 4,
            ..Default::default()
        });
        let input = InputVariant::new("8x8 sjpg", Format::sjpg(85), 8, 8);
        let plan = QueryPlan {
            dnn: ModelKind::ResNet18,
            input: input.clone(),
            preproc: planner.build_preproc(&input),
            decode: DecodeMode::Full,
            batch: 4,
        };
        let image = EncodedImage::encode(&smol_data::textured(8, 8, 1), Format::sjpg(85)).unwrap();
        let request = SubmitRequest::new(plan, Vec::new()).infer(|output, _| output);
        let handle = server.submit(request.open()).expect("admitted");
        // Per-item state (unresolved items, and the capacity kept for
        // them) and per-output state of the query.
        let state = || {
            let sched = lock(&server.inner.sched);
            let q = &sched.queries[&handle.id()];
            let capacity = q.window.capacity();
            (
                q.window.unresolved(),
                capacity,
                q.report.results.len() + q.latencies.len(),
            )
        };
        let deadline = Instant::now() + Duration::from_secs(120);
        let output_of = |completion: Completion| {
            assert_eq!(completion.failed, 0);
            let result = completion.results.into_iter().next().flatten();
            *result.unwrap().downcast::<usize>().unwrap()
        };
        let mut outputs = Vec::with_capacity(ITEMS);
        for i in 0..ITEMS {
            assert_eq!(
                handle.append(MediaItem::Image(image.clone()), 0).unwrap(),
                i
            );
            let (unresolved, capacity, per_output) = state();
            assert!(unresolved <= BOUND, "append blocks at the bound");
            assert!(capacity <= 64, "per-item capacity must not grow with items");
            assert_eq!(per_output, 0, "an open query keeps nothing per output");
            while let Some(completion) = handle.next_completion(Instant::now()) {
                outputs.push(output_of(completion));
            }
        }
        handle.close();
        while outputs.len() < ITEMS {
            let completion = handle.next_completion(deadline);
            outputs.push(output_of(completion.expect("every item completes")));
        }
        outputs.sort_unstable();
        assert_eq!(outputs, (0..ITEMS).collect::<Vec<_>>());
        let report = handle.wait().expect("resolves once closed");
        assert_eq!(
            (report.images, report.failed, report.skipped),
            (ITEMS, 0, 0)
        );
        server.shutdown();
    }
}
