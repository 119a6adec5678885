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
//! Dataflow per query — each `Core::` step is a call on the thread-free
//! scheduler state (the `core` module) under the one scheduler lock; the
//! threads only lock, call, and act on the effects it returns:
//!
//! ```text
//! submit() ──► Core::admit (bounded, priority-aware; waits or errors when full)
//!   Core::append: each item's fan-out and batcher counts settle (append() for more)
//!   producers: Core::claim a run of the next items, round-robin (as many
//!     as fit in ~50 µs at the query's measured item cost; one for costly
//!     items) ─► decode + CPU preproc, item after item, unlocked
//!     ─► Core::integrate the run: group by PlacementSignature ─► device batches
//!   dispatch: shard each batch to the lane expected to finish it first
//!   lane consumers: launch copy + kernels + DNN batch as one stream,
//!     keep one more batch enqueued behind it, retire in launch order
//!     ─► Core::retire: per-item results (an open query's completions)
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
//! still open to it (`Policy::open`) — and [`crate::scheduler`] states the
//! three rules that release a batch over those counters.
//!
//! Producers and consumers are long-lived: they are spawned once in
//! [`Server::with_devices`] and reused by every query until shutdown. The
//! device half (lanes, dispatch, consumers) is the `lanes` module, under a
//! lock of its own; a query's per-item state is its `window`.
//! Work stealing moves *formed batches* between lanes, never items within
//! a batch, so per-query result ordering and output bytes are identical
//! whatever lane executes a batch — the device only models time.

use crate::core::{Core, Effects, Gate, NewQuery, NoClaim, Policy, Produced, Rung, Wake};
use crate::lanes::{consumer_loop, Lanes};
use crate::scheduler::Priority;
use crate::stats::{BoxedPrediction, QueryReport, ServerStats};
use smol_accel::sync::{lock, wait};
use smol_accel::VirtualDevice;
use smol_codec::EncodedImage;
use smol_core::{CascadePlan, QueryPlan};
use smol_imgproc::ImageU8;
use smol_runtime::{wrap_images, MediaItem, RuntimeOptions, TensorCache, TensorCacheStats};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
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
    /// [`smol_runtime::PlanContext::validate`]); rejected before admission.
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
    pub(crate) items: Vec<MediaItem>,
    pub(crate) opts: SubmitOptions,
    pub(crate) infer: Option<InferFn>,
    pub(crate) wait: bool,
    pub(crate) open: bool,
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

pub(crate) struct Inner {
    pub cfg: ServerConfig,
    /// Shared decoded-tensor cache; `None` when `cfg.tensor_cache_bytes`
    /// is 0 (producers then decode every claim).
    tensor_cache: Option<Arc<TensorCache>>,
    /// The scheduler state, behind the one scheduler lock.
    core: Mutex<Core>,
    /// Producers wait here for claimable work.
    work_cv: Condvar,
    /// Submitters wait here for admission capacity, and an open query's
    /// appender for one of its items to resolve.
    admit_cv: Condvar,
    pub lanes: Lanes,
}

impl Inner {
    /// Locks the scheduler, calls `f` on it at the current time, and acts
    /// on the effects once the lock is released.
    pub fn run(&self, fx: &mut Effects, f: impl FnOnce(&mut Core, Instant, &mut Effects)) {
        f(&mut lock(&self.core), Instant::now(), fx);
        self.act(fx);
    }

    /// Calls `f` under the scheduler lock until it passes — between tries
    /// the caller waits to be woken ([`Effects::wake_admission`]) — then
    /// acts on the effects.
    fn gate<T, B>(
        &self,
        mut input: B,
        mut f: impl FnMut(&mut Core, B, Instant, &mut Effects) -> ServeResult<Gate<T, B>>,
    ) -> ServeResult<T> {
        let (mut core, mut fx) = (lock(&self.core), Effects::default());
        let out = loop {
            match f(&mut core, input, Instant::now(), &mut fx)? {
                Gate::Pass(out) => break out,
                Gate::Wait(back) => (input, core) = (back, wait(&self.admit_cv, core)),
            }
        };
        drop(core);
        self.act(&mut fx);
        Ok(out)
    }

    /// Acts on what a core call left in `fx`, outside the scheduler lock:
    /// dispatches formed batches (a full lane queue stalls only this
    /// thread, never other producers' claims) and wakes who it names.
    pub fn act(&self, fx: &mut Effects) {
        for batch in fx.batches.drain(..) {
            self.lanes.dispatch(batch);
        }
        match std::mem::take(&mut fx.wake_producers) {
            Wake::None => {}
            Wake::One => self.work_cv.notify_one(),
            Wake::All => self.work_cv.notify_all(),
        }
        if std::mem::take(&mut fx.wake_admission) {
            self.admit_cv.notify_all();
        }
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
        match self.inner.upgrade() {
            Some(inner) => lock(&inner.core).poll(self.id),
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
        inner.gate(item, |core, item, _, fx| {
            core.append(self.id, item, rung, fx)
        })
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
        if let Some(inner) = self.inner.upgrade() {
            let finish = |core: &mut Core, now, fx: &mut _| core.finish(self.id, cancel, now, fx);
            inner.run(&mut Effects::default(), finish);
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
            core: Mutex::new(Core::new(&cfg, n_lanes)),
            work_cv: Condvar::new(),
            admit_cv: Condvar::new(),
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
        let (rungs, policy) = compile_ladder(&request)?;
        let (done_tx, done_rx) = mpsc::sync_channel::<QueryReport>(1);
        let (completions, completions_rx) = request.open.then(mpsc::channel).unzip();
        let query = NewQuery {
            request,
            rungs,
            policy,
            done_tx,
            completions,
            queued: false,
        };
        Ok(QueryHandle {
            id: self.inner.gate(query, Core::admit)?,
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
        let mut stats = lock(&self.inner.core).stats();
        stats.devices = self.inner.lanes.stats();
        stats.batches = stats.devices.iter().map(|d| d.batches).sum();
        stats.steals = stats.devices.iter().map(|d| d.stolen_batches).sum();
        stats.tensor_cache = self.tensor_cache_stats();
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
        // Open queries take no more items: they drain and resolve too.
        self.inner.run(&mut Effects::default(), Core::shutdown);
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
pub(crate) fn compile_ladder(request: &SubmitRequest) -> ServeResult<(Arc<[Rung]>, Policy)> {
    let (plan, items, opts) = (&request.plan, &request.items, &request.opts);
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
    let (deeper, policy) = if request.open {
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
    let extra_cpu_s = inner.cfg.runtime.extra_cpu_s_per_image;
    let cache = inner.tensor_cache.as_deref();
    let (mut fx, mut produced) = (Effects::default(), Produced::default());
    loop {
        let mut run = {
            let mut core = lock(&inner.core);
            loop {
                match core.claim(Instant::now(), &mut fx) {
                    Ok(run) => break run,
                    Err(NoClaim::Idle) => core = wait(&inner.work_cv, core),
                    // Shut down with nothing claimable: admitted work is drained.
                    Err(NoClaim::Stop) => return,
                }
            }
        };
        inner.act(&mut fx);
        // The slow part runs without the scheduler lock: the run's routing
        // and cache hits together, then item after item. A panic in it
        // (user bytes through the router, decoders and kernels) fails that
        // item like any other production error — a panic while routing
        // ahead leaves the items not yet routed to route themselves, and
        // fail there — and the thread lives on. Unwinding here is sound:
        // nothing runs under the scheduler lock, and the shared state
        // touched — staging pool and tensor cache — restores itself on drop
        // (a pooled buffer returns to its shelf, the cache retracts its
        // pending slot and wakes the waiters).
        let _ = catch_unwind(AssertUnwindSafe(|| run.resolve(cache)));
        for i in 0..run.len() {
            produced.item(|staged| {
                let produce = || run.produce(i, extra_cpu_s, cache, staged);
                catch_unwind(AssertUnwindSafe(produce))
                    .unwrap_or_else(|payload| Err(panic_message("producer", payload.as_ref())))
            });
        }
        inner.run(&mut fx, |core, now, fx| {
            core.integrate(&run, &mut produced, now, fx)
        });
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
        let state = || lock(&server.inner.core).footprint(handle.id());
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
