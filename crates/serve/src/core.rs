//! The serving scheduler as one state machine: admission, append, claim
//! (with load degradation), booking a produced item, retiring outputs,
//! close / cancel and shutdown are methods of [`Core`], called under the
//! server's one scheduler lock. The core owns no thread, condvar or clock:
//! a method that reads time takes `now`, and what the caller must do once
//! the lock is released — dispatch formed batches, wake producers, wake
//! blocked submitters and appenders — lands in a caller-owned [`Effects`].
//! The threads only lock, call and act, so a test can drive the core from
//! one thread over any order of events (the `explore` module does). The
//! core does send each query's report and an open query's completions,
//! under the lock: neither send can block (completions go over an
//! unbounded channel, the one report into a channel with room for it), and
//! sending there orders every completion before the report.

use crate::scheduler::{Batcher, FormedBatch, Priority};
use crate::server::{
    Completion, InferFn, QueryId, QueryPoll, ServeError, ServerConfig, SubmitRequest,
};
use crate::stats::{percentile, BoxedPrediction, QueryReport, ServerStats};
use crate::window::{NextItem, Window};
use smol_core::{DecodeMode, PlacementSignature, QueryPlan};
use smol_imgproc::ImageU8;
use smol_runtime::{
    produce_decoded, produce_item, produce_media_item, route_stage, BufferPool, MediaItem,
    PlanContext, ProducedItem, StagingArena, TensorCache,
};
use std::collections::{HashMap, VecDeque};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

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

/// One rung of a query's ladder: a plan compiled to runtime form (context
/// + placement signature), ready to produce items under.
pub(crate) struct Rung {
    pub label: String,
    pub sig: Arc<PlacementSignature>,
    pub ctx: Arc<PlanContext>,
    /// Calibrated accuracy of the plan (reported per query).
    accuracy: Option<f64>,
}

impl Rung {
    /// Compiles `plan`, or says why no item could be executed under it
    /// (see [`PlanContext::validate`]).
    pub fn compile(plan: &QueryPlan, accuracy: Option<f64>) -> Result<Rung, String> {
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

/// Who picks an item's rung (see the `server` module docs).
#[derive(Clone, Copy)]
pub(crate) enum Policy {
    /// The scheduler: every item takes rung `Ladder::at`, which
    /// [`Core::claim`] advances under load.
    Degrade,
    /// The producer, per item after claiming it, by its bitstream signal
    /// against this threshold.
    Route(f64),
    /// The appender, per item at append; the rung past the end drops it.
    Pace,
}

impl Policy {
    /// The rungs an item not yet produced may still land in, given the rung
    /// it was picked on — the ones it is counted under in the batcher, at
    /// its query's priority. Until a routed item is produced that is
    /// *every* rung: it could still join either signature's group; routing
    /// resolves it to exactly one. What those counts hold a partial batch
    /// back for is [`crate::scheduler`]'s three release rules.
    fn open(self, rung: usize, rungs: &[Rung]) -> &[Rung] {
        match self {
            Policy::Route(_) => rungs,
            Policy::Degrade | Policy::Pace => &rungs[rung..=rung],
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
    /// The rung an unclaimed item is picked on; `pinned` is the rung its
    /// appender chose (paced queries only). A routed item's is 0 until its
    /// producer routes it — the rung whose staging entitlement serves both —
    /// and it is not counted as downgraded.
    fn pick(&self, pinned: Option<usize>) -> usize {
        match self.policy {
            Policy::Degrade => self.at,
            Policy::Route(_) => 0,
            Policy::Pace => pinned.expect("a paced item carries its rung"),
        }
    }
}

/// The longest run a producer claims. The staging entitlement reserves a
/// whole run's slots for every producer ([`Staging::capacity`]), so this
/// bounds it. At thumbnail cost — a few µs an item, where [`RUN_BUDGET`]
/// ends most runs near a dozen items anyway — a run this long already
/// brings the two scheduler round trips (about 2 µs) to about 0.15 µs an
/// item.
const MAX_RUN: usize = 16;

/// The producer time a run is sized to fill. Large enough that a
/// cache-hit item of a few µs shares the two scheduler round trips (about
/// 2 µs between them under contention) with a dozen others; small enough
/// that a query arriving while every producer is mid-run — a High-priority
/// one included — waits at most this long for a claim, a fiftieth of the
/// lowest query latency the benchmark serves (about 2.7 ms for 512
/// thumbnails), and that every item dearer than this — a full-resolution
/// decode, a GOP, a scan's 0.2–1 ms item — still runs alone, as before
/// runs.
const RUN_BUDGET: Duration = Duration::from_micros(50);

/// How many consecutive items a producer claims at once: as many as fit
/// in [`RUN_BUDGET`] at the query's last measured per-item cost, but no
/// more than [`MAX_RUN`] and no more than an even share of the unclaimed
/// items across the producers; one while no cost is known yet.
fn run_len(item_cost: Option<Duration>, unclaimed: usize, producers: usize) -> usize {
    let Some(cost) = item_cost else {
        return 1;
    };
    let fits = RUN_BUDGET.as_nanos() / cost.as_nanos().max(1);
    let fits = fits.min(MAX_RUN as u128) as usize;
    fits.min(unclaimed.div_ceil(producers.max(1))).max(1)
}

/// One unit of producer work: a *run* of consecutive items of one query,
/// claimed under one lock at one clock read ([`Core::claim`]) and booked
/// under one lock ([`Core::integrate`]). The header — rung table, rung,
/// policy, staging entitlement, callback, claim time — is the run's, shared
/// by every item in it.
pub(crate) struct Claim {
    query: QueryId,
    prio: Priority,
    /// The run, in index order.
    items: Vec<NextItem>,
    rungs: Arc<[Rung]>,
    /// The rung every item of the run was picked on, fixed at claim time,
    /// and the policy that picked it: each item stays counted under every
    /// rung open *here*, whatever the query degrades to while the run is
    /// out.
    rung: usize,
    policy: Policy,
    pool: BufferPool,
    /// The query's inference callback; producers keep the decoded image
    /// only when there is one.
    infer: Option<InferFn>,
    claimed_at: Instant,
    /// What [`Claim::resolve`] decided ahead, in item order: each routed
    /// item's rung; the tensor-cache keys of the run's leading stills under
    /// their rungs; and, per key, the tensor a run lookup found resident.
    /// An item past these routes and looks itself up as it is produced.
    routed: Vec<usize>,
    keys: Vec<(u64, DecodeMode)>,
    hits: Vec<Option<Arc<ImageU8>>>,
}

impl Claim {
    fn open(&self) -> &[Rung] {
        self.policy.open(self.rung, &self.rungs)
    }

    /// Items in the run.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// The rung item `i` is produced under: the run's, or for a routed
    /// item the one its bitstream signal picks. `route_stage` says 1 for
    /// "escalate" — rung 0, the submitted plan — and 0 for the aggressive
    /// rung compiled behind it.
    fn rung_of(&self, i: usize) -> usize {
        match self.policy {
            Policy::Route(threshold) => match self.routed.get(i) {
                Some(&rung) => rung,
                None => 1 - route_stage(&self.items[i].item, threshold),
            },
            Policy::Degrade | Policy::Pace => self.rung,
        }
    }

    /// Before any item of a run of several under a tensor cache is
    /// produced: routes every item, then serves the run's resident keys
    /// under one cache lock ([`TensorCache::get_resident_run`]), so the
    /// run's hits share one lock instead of taking it each. A run of one
    /// item, or without a cache, leaves its items to route and look
    /// themselves up as they are produced.
    pub fn resolve(&mut self, cache: Option<&TensorCache>) {
        let Some(cache) = cache.filter(|_| self.items.len() > 1) else {
            return;
        };
        if let Policy::Route(_) = self.policy {
            for i in 0..self.items.len() {
                let rung = self.rung_of(i);
                self.routed.push(rung);
            }
        }
        let keys = (0..self.items.len()).map_while(|i| match &self.items[i].item {
            MediaItem::Image(enc) => {
                Some((enc.cache_key(), self.rungs[self.rung_of(i)].ctx.decode))
            }
            MediaItem::Gop(_) => None,
        });
        self.keys = keys.collect();
        if !self.keys.is_empty() {
            self.hits = vec![None; self.keys.len()];
            self.look_up(0, cache);
        }
    }

    /// Serves the resident keys of the run from item `from` on, up to the
    /// first that is not resident.
    fn look_up(&mut self, from: usize, cache: &TensorCache) {
        let hits = cache.get_resident_run(&self.keys[from..]);
        for (slot, hit) in self.hits[from..].iter_mut().zip(hits) {
            *slot = Some(hit);
        }
    }

    /// Produces item `i` of the run into `staged` (the slow part, run
    /// without the scheduler lock) and returns the rung it was produced
    /// under: a still stages one output, a GOP one per selected frame. A
    /// routed item routes before any decode work, so an escalated item
    /// runs the full plan's pipeline exactly as a uniform query would. An
    /// item the run lookup served stages its tensor; one it stopped at is
    /// looked up alone, and the rest of the run together again.
    pub fn produce(
        &mut self,
        i: usize,
        extra_cpu_s: f64,
        cache: Option<&TensorCache>,
        staged: &mut Vec<ProducedItem>,
    ) -> Result<usize, String> {
        let rung = self.rung_of(i);
        let hit = self.hits.get_mut(i).and_then(Option::take);
        let alone = hit.is_none() && i < self.keys.len();
        let (ctx, pool, keep) = (&self.rungs[rung].ctx, &self.pool, self.infer.is_some());
        let next = &self.items[i];
        let offset = next.offset;
        let produced = match (&next.item, hit) {
            (_, Some(image)) => produce_decoded(ctx, offset, image, None, pool, keep, extra_cpu_s)
                .map(|output| staged.push(output)),
            (MediaItem::Image(enc), None) => {
                produce_item(ctx, offset, enc, pool, keep, extra_cpu_s, cache)
                    .map(|output| staged.push(output))
            }
            (gop, None) => produce_media_item(ctx, offset, gop, pool, keep, extra_cpu_s, cache)
                .map(|frames| staged.extend(frames)),
        };
        if let Some(cache) = cache.filter(|_| alone && i + 1 < self.keys.len()) {
            self.look_up(i + 1, cache);
        }
        produced.map(|()| rung).map_err(|e| e.to_string())
    }
}

/// What a producer's runs came to, in a buffer it keeps from run to run:
/// every staged output in item order, and per item the rung it was
/// produced under and its output count, or why production failed.
#[derive(Default)]
pub(crate) struct Produced {
    staged: Vec<ProducedItem>,
    outcomes: Vec<Result<(usize, usize), String>>,
}

impl Produced {
    /// Books the run's next item: `produce` stages its outputs into the
    /// buffer and returns its rung. A failed item's partial outputs are
    /// dropped, their slots back in the pool.
    pub fn item(&mut self, produce: impl FnOnce(&mut Vec<ProducedItem>) -> Result<usize, String>) {
        let start = self.staged.len();
        let outcome = produce(&mut self.staged).map(|rung| (rung, self.staged.len() - start));
        if outcome.is_err() {
            self.staged.truncate(start);
        }
        self.outcomes.push(outcome);
    }
}

/// A request at admission, its rung table compiled.
pub(crate) struct NewQuery {
    pub request: SubmitRequest,
    pub rungs: Arc<[Rung]>,
    pub policy: Policy,
    pub done_tx: mpsc::SyncSender<QueryReport>,
    pub completions: Option<mpsc::Sender<Completion>>,
    /// Counted in `Core::waiting`: the core sets it at the first wait.
    pub queued: bool,
}

/// A call that passes, or gives its input back to be retried once the
/// caller is woken ([`Effects::wake_admission`]).
pub(crate) enum Gate<T, B> {
    Pass(T),
    Wait(B),
}

/// Why [`Core::claim`] handed a producer nothing.
pub(crate) enum NoClaim {
    /// Nothing claimable: wait for [`Effects::wake_producers`].
    Idle,
    /// Shutting down and nothing is left to claim: exit.
    Stop,
}

/// Which producers to wake.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Wake {
    #[default]
    None,
    One,
    All,
}

/// What a core call leaves its caller to do once the lock is released.
/// The buffer is the caller's and is drained by acting on it, so a driver
/// that keeps one allocates nothing per item.
#[derive(Default)]
pub(crate) struct Effects {
    /// Formed batches, to dispatch to the lanes.
    pub batches: Vec<FormedBatch<BatchItem>>,
    /// Items became claimable (or the server is stopping).
    pub wake_producers: Wake,
    /// Admission capacity or an open query's window may have freed, or a
    /// query closed: blocked submitters and appenders retry.
    pub wake_admission: bool,
}

/// The server's staging arena, and what sizes a query's entitlement over it.
struct Staging {
    arena: StagingArena,
    cfg: ServerConfig,
    n_lanes: usize,
}

impl Staging {
    /// A query's entitlement for plan `ctx`, drawn from the arena (or
    /// freshly allocated per acquire when `memory_reuse` is off).
    fn pool(&self, ctx: &PlanContext, max_fanout: usize) -> BufferPool {
        let rt = &self.cfg.runtime;
        let capacity = self.capacity(ctx, max_fanout);
        self.arena
            .pool(capacity, ctx.buf_len, rt.memory_reuse, rt.pinned)
    }

    /// Enough buffers that producers never wait on consumers: every
    /// producer may hold a whole run — up to [`MAX_RUN`] items of up to
    /// `max_fanout` outputs — before any of it reaches the batch former,
    /// every consumer thread across the fleet its launch window of two
    /// batches (the `2 ·` of `pool_capacity_fanout`), every lane queue
    /// `batch_queue` more, and the batch former up to `batch − 1` items.
    /// The arena allocates on demand, so slots no run uses cost nothing.
    fn capacity(&self, ctx: &PlanContext, max_fanout: usize) -> usize {
        let rt = &self.cfg.runtime;
        let run = MAX_RUN * max_fanout;
        ctx.pool_capacity_fanout(rt.effective_producers(), self.consumers(), run)
    }

    /// Batches' worth of slots the fleet's consumers and lane queues hold.
    fn consumers(&self) -> usize {
        let rt = &self.cfg.runtime;
        self.n_lanes * (rt.consumers.max(1) + self.cfg.batch_queue.max(1))
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
    latencies: Vec<f64>,
    submitted_at: Instant,
    done_tx: mpsc::SyncSender<QueryReport>,
    deadline: Option<Duration>,
    /// Hysteresis: no further degradation before this item index.
    next_degrade_at: usize,
    /// The last run's producer time per item — claim to integrate on the
    /// core's clock, over the run's length — which sizes the next run;
    /// `None` until the first run is integrated.
    item_cost: Option<Duration>,
}

impl QueryState {
    /// Outputs staged so far (≥ items produced for video queries).
    fn produced(&self) -> usize {
        self.rung_outputs.iter().sum()
    }

    /// True when the query is projected to miss its deadline at the
    /// observed completion rate (needs at least one completed output).
    fn projected_late(&self, now: Instant) -> bool {
        let Some(deadline) = self.deadline else {
            return false;
        };
        let completed = self.report.images;
        let elapsed = now.duration_since(self.submitted_at).as_secs_f64();
        if completed == 0 || elapsed <= 0.0 {
            return false;
        }
        let rate = completed as f64 / elapsed;
        let remaining = (self.total_outputs - completed) as f64;
        elapsed + remaining / rate > deadline.as_secs_f64()
    }

    /// Rung `rung`'s staging entitlement, created at its first use.
    fn pool(&mut self, staging: &Staging, rung: usize) -> BufferPool {
        let (ctx, fanout) = (&self.ladder.rungs[rung].ctx, self.max_fanout);
        self.pools[rung]
            .get_or_insert_with(|| staging.pool(ctx, fanout))
            .clone()
    }

    /// Claimed item `idx` has resolved: its state goes, and an open
    /// query's appender gets its completion.
    fn resolve(&mut self, idx: usize, bound: usize, fx: &mut Effects) {
        let at_bound = self.window.full(bound);
        let (results, failed) = self.window.resolve(idx);
        if let Some(tx) = &self.completions {
            let _ = tx.send(Completion {
                item: idx,
                results,
                failed,
            });
            // An appender may be blocked on the bound this item frees.
            fx.wake_admission |= at_bound;
        }
    }

    /// Cancels every item no producer has claimed: each counts as skipped
    /// and releases its batcher counts (partial batches that were waiting
    /// on them land in `fx`); an open query completes it with every output
    /// failed.
    fn cancel_queued(&mut self, batcher: &mut Batcher<BatchItem>, fx: &mut Effects) {
        let ladder = &self.ladder;
        self.window.cancel(|item| {
            self.report.skipped += item.fanout;
            for r in ladder.policy.open(ladder.pick(item.rung), &ladder.rungs) {
                batcher.settle(&r.sig, self.priority, 1, &mut fx.batches);
            }
            if let Some(tx) = &self.completions {
                let _ = tx.send(Completion {
                    item: item.idx,
                    results: (0..item.fanout).map(|_| None).collect(),
                    failed: item.fanout,
                });
            }
        });
    }
}

/// The scheduler state (see the module docs).
pub(crate) struct Core {
    queries: HashMap<QueryId, QueryState>,
    /// Round-robin rings of queries with unclaimed items, one per
    /// priority; producers drain higher-priority rings first and
    /// round-robin within a ring (fair share among equals).
    rr: [VecDeque<QueryId>; Priority::COUNT],
    /// Produced items grouped by signature, and the counts of items still
    /// to come that decide when a partial group is released.
    batcher: Batcher<BatchItem>,
    next_id: QueryId,
    /// Queries admitted and not yet finalized, and how many may be.
    active: usize,
    capacity: usize,
    /// Submitters blocked at admission, per priority (pressure signal for
    /// degradation, and the priority-aware admission order).
    waiting: [usize; Priority::COUNT],
    /// Shut down: admits and takes nothing more, drains what it holds.
    stopping: bool,
    staging: Staging,
    /// The aggregate counters of `Server::stats` this side of the lanes
    /// (the live fields are filled in when sampled).
    stats: ServerStats,
}

impl Core {
    /// The state of a server with `n_lanes` device lanes.
    pub fn new(cfg: &ServerConfig, n_lanes: usize) -> Core {
        Core {
            queries: HashMap::new(),
            rr: Default::default(),
            batcher: Batcher::new(|item: &BatchItem| item.prio),
            next_id: 1,
            active: 0,
            capacity: cfg.max_active_queries.max(1),
            waiting: [0; Priority::COUNT],
            stopping: false,
            staging: Staging {
                arena: StagingArena::new(),
                cfg: *cfg,
                n_lanes,
            },
            stats: ServerStats::default(),
        }
    }

    /// Admits `query`, appends its items and — unless it is open — closes
    /// it; or hands it back to wait while `max_active_queries` are in
    /// flight or a higher-priority submitter is waiting.
    pub fn admit(
        &mut self,
        mut query: NewQuery,
        now: Instant,
        fx: &mut Effects,
    ) -> Result<Gate<QueryId, NewQuery>, ServeError> {
        let prio = query.request.opts.priority.index();
        let blocked =
            self.active >= self.capacity || self.waiting[prio + 1..].iter().sum::<usize>() > 0;
        if self.stopping || (blocked && !query.request.wait) {
            self.waiting[prio] -= usize::from(query.queued);
            return Err(if self.stopping {
                ServeError::ShuttingDown
            } else {
                ServeError::Backpressure {
                    active: self.active,
                    capacity: self.capacity,
                }
            });
        }
        if blocked {
            // Counted as a waiter from here on, so lower-priority
            // submitters defer to it.
            self.waiting[prio] += usize::from(!query.queued);
            query.queued = true;
            return Ok(Gate::Wait(query));
        }
        if query.queued {
            self.waiting[prio] -= 1;
            // Others may be admissible too (equal priority, capacity left).
            fx.wake_admission = true;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.stats.submitted_queries += 1;
        let (request, n_rungs) = (query.request, query.rungs.len());
        let (opts, open) = (&request.opts, request.open);
        let state = QueryState {
            priority: opts.priority,
            ladder: Ladder {
                rungs: query.rungs,
                at: 0,
                policy: query.policy,
            },
            rung_outputs: vec![0; n_rungs],
            pools: (0..n_rungs).map(|_| None).collect(),
            infer: request.infer,
            window: Window::new(open),
            total_outputs: 0,
            max_fanout: 1,
            closed: !open,
            completions: query.completions,
            report: QueryReport {
                id,
                accuracy_floor: opts.accuracy_floor,
                ..QueryReport::default()
            },
            latencies: Vec::new(),
            submitted_at: now,
            done_tx: query.done_tx,
            deadline: opts.deadline,
            next_degrade_at: 0,
            item_cost: None,
        };
        self.queries.insert(id, state);
        self.active += 1;
        self.enqueue(id, request.items.into_iter(), open.then_some(0), fx);
        // A closed query with no items has nothing to wait for.
        self.try_finalize(id, now, fx);
        Ok(Gate::Pass(id))
    }

    /// Appends `item` to open query `id` on rung `rung` and returns its
    /// index; or hands it back to wait while the query's window is full.
    pub fn append(
        &mut self,
        id: QueryId,
        item: MediaItem,
        rung: usize,
        fx: &mut Effects,
    ) -> Result<Gate<usize, MediaItem>, ServeError> {
        if self.stopping {
            return Err(ServeError::ShuttingDown);
        }
        let q = self.queries.get(&id).filter(|q| !q.closed);
        let q = q.ok_or(ServeError::Closed)?;
        if rung < q.ladder.rungs.len() && q.window.full(self.capacity) {
            return Ok(Gate::Wait(item));
        }
        let idx = self.enqueue(id, [item].into_iter(), Some(rung), fx);
        Ok(Gate::Pass(idx))
    }

    /// Appends `items` to query `qid`, all on `rung` (a paced query's
    /// choice; `None` lets the ladder pick), and returns the first one's
    /// index. Each item's fan-out and batcher counts settle here. A rung
    /// past the last drops the items: counted as skipped, never produced.
    fn enqueue(
        &mut self,
        qid: QueryId,
        items: impl ExactSizeIterator<Item = MediaItem>,
        rung: Option<usize>,
        fx: &mut Effects,
    ) -> usize {
        let q = self.queries.get_mut(&qid).expect("caller checked");
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
        self.stats.images_in += outputs as u64;
        if dropped || n == 0 {
            return first;
        }
        if q.completions.is_none() {
            q.report.results.resize_with(q.total_outputs, || None);
            q.latencies.reserve(outputs);
        }
        let (prio, ladder) = (q.priority, &q.ladder);
        for r in ladder.policy.open(ladder.pick(rung), &ladder.rungs) {
            self.batcher.register(&r.sig, prio, n);
        }
        let ring = &mut self.rr[prio.index()];
        if !ring.contains(&qid) {
            ring.push_back(qid);
        }
        let wake = if n == 1 { Wake::One } else { Wake::All };
        fx.wake_producers = fx.wake_producers.max(wake);
        first
    }

    /// Takes the next fair-share claim (highest-priority ring first): a
    /// run of the query's next items, as long as [`run_len`] allows and
    /// they share one rung. Degradation is applied per item at claim time
    /// (a step ends the run): partial batches of an abandoned signature
    /// land in `fx`, always beside a claim (a query degrades only with an
    /// item left to claim).
    pub fn claim(&mut self, now: Instant, fx: &mut Effects) -> Result<Claim, NoClaim> {
        let producers = self.staging.cfg.runtime.effective_producers();
        for prio in (0..Priority::COUNT).rev() {
            while let Some(qid) = self.rr[prio].pop_front() {
                if !self.queries.contains_key(&qid) {
                    continue; // finalized early (error path)
                }
                self.maybe_degrade(qid, now, fx);
                let q = self.queries.get_mut(&qid).expect("checked above");
                let len = run_len(q.item_cost, q.window.unclaimed(), producers);
                let Some(first) = q.window.claim() else {
                    continue; // exhausted (kept out of the ring from here on)
                };
                let (rung, policy) = (q.ladder.pick(first.rung), q.ladder.policy);
                let mut items = Vec::with_capacity(len);
                items.push(first);
                while items.len() < len {
                    self.maybe_degrade(qid, now, fx);
                    let q = self.queries.get_mut(&qid).expect("checked above");
                    let ladder = &q.ladder;
                    match q.window.claim_if(|pinned| ladder.pick(pinned) == rung) {
                        Some(next) => items.push(next),
                        None => break,
                    }
                }
                let q = self.queries.get_mut(&qid).expect("checked above");
                if rung > 0 {
                    q.report.downgraded_frames += items.iter().map(|n| n.fanout).sum::<usize>();
                }
                let claim = Claim {
                    query: qid,
                    prio: q.priority,
                    items,
                    rungs: Arc::clone(&q.ladder.rungs),
                    rung,
                    policy,
                    pool: q.pool(&self.staging, rung),
                    infer: q.infer.clone(),
                    claimed_at: now,
                    routed: Vec::new(),
                    keys: Vec::new(),
                    hits: Vec::new(),
                };
                if q.window.unclaimed() > 0 {
                    self.rr[prio].push_back(qid);
                }
                return Ok(claim);
            }
        }
        Err(if self.stopping {
            NoClaim::Stop
        } else {
            NoClaim::Idle
        })
    }

    /// Degrades `qid` one rung if warranted: the fleet is under pressure
    /// (submitters blocked at admission) or the query is projected to miss
    /// its deadline, a rung remains, hysteresis has elapsed, and unclaimed
    /// items exist to re-plan.
    fn maybe_degrade(&mut self, qid: QueryId, now: Instant, fx: &mut Effects) {
        let pressure = self.waiting.iter().sum::<usize>() > 0;
        let q = self.queries.get_mut(&qid).expect("caller checked");
        let at = q.ladder.at;
        // Only a degrading query has a current rung to step down from.
        let Some(next_item) = q.window.next_unclaimed() else {
            return;
        };
        if !matches!(q.ladder.policy, Policy::Degrade)
            || at + 1 >= q.ladder.rungs.len()
            || next_item < q.next_degrade_at
            || (!pressure && !q.projected_late(now))
        {
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
        self.batcher.register(&new.sig, prio, remaining);
        self.batcher
            .settle(&old.sig, prio, remaining, &mut fx.batches);
        self.stats.degradations += 1;
    }

    /// Books a run's outcome, item by item, into its query and the batch
    /// former, then settles the run in the signature counters, and drains
    /// `produced` for the producer's next run. The query is looked up once
    /// and each rung open to the run settles once, by the run's length:
    /// the run's own items keep their priority class open until then, so
    /// this releases what settling them one by one would (see
    /// [`Batcher::settle`]). The run's length over its time since the claim
    /// is the query's item cost from here on.
    pub fn integrate(
        &mut self,
        claim: &Claim,
        produced: &mut Produced,
        now: Instant,
        fx: &mut Effects,
    ) {
        debug_assert_eq!(produced.outcomes.len(), claim.items.len());
        let qid = claim.query;
        let (batcher, capacity) = (&mut self.batcher, self.capacity);
        let q = self
            .queries
            .get_mut(&qid)
            .expect("query lives until finalize");
        let mut staged = produced.staged.drain(..);
        for (next, outcome) in claim.items.iter().zip(produced.outcomes.drain(..)) {
            // An item can legally stage zero outputs (an empty GOP): it may
            // then be resolved already.
            let resolved = match outcome {
                Ok((rung, n)) => {
                    let resolved = q.window.staged(next.idx, Some(n));
                    q.rung_outputs[rung] += n;
                    let escalated = matches!(claim.policy, Policy::Route(_)) && rung == 0;
                    q.report.escalated_items += usize::from(escalated);
                    // Routing is resolved: all outputs of one item batch
                    // under exactly one signature.
                    let sig = &claim.rungs[rung].sig;
                    for staged in staged.by_ref().take(n) {
                        q.report.cache_hits += staged.cache_hit as usize;
                        q.report.decode_cpu_s += staged.decode_s;
                        q.report.preproc_cpu_s += staged.preproc_s;
                        let staged = BatchItem {
                            query: qid,
                            item_idx: next.idx,
                            prio: claim.prio,
                            item: staged,
                            claimed_at: claim.claimed_at,
                            infer: claim.infer.clone(),
                        };
                        fx.batches.extend(batcher.push(sig, staged));
                    }
                    resolved
                }
                Err(e) => {
                    // A closed query stops claiming its other items; items
                    // already claimed or produced still execute and the
                    // handle still resolves (with the error recorded). An
                    // open query's items fail alone, each in its own
                    // completion. Failed/skipped are counted in *outputs*,
                    // matching `images` (for stills both degenerate to item
                    // counts).
                    q.window.staged(next.idx, None);
                    q.report.failed += next.fanout;
                    q.report.error.get_or_insert(e);
                    if q.completions.is_none() {
                        q.cancel_queued(batcher, fx);
                    }
                    true
                }
            };
            if resolved {
                q.resolve(next.idx, capacity, fx);
            }
        }
        for rung in claim.open() {
            batcher.settle(&rung.sig, claim.prio, claim.items.len(), &mut fx.batches);
        }
        let spent = now.saturating_duration_since(claim.claimed_at);
        q.item_cost = Some(spent / claim.items.len() as u32);
        self.try_finalize(qid, now, fx);
    }

    /// Books an executed batch's outputs, sorted by query, into their
    /// queries: each distinct query is looked up once. `full` says whether
    /// the batch was.
    pub fn retire(&mut self, retired: &mut [Retired], full: bool, now: Instant, fx: &mut Effects) {
        let by_query = |a: &Retired, b: &Retired| a.query == b.query;
        let cross_query = retired.chunk_by(by_query).nth(1).is_some();
        self.stats.full_batches += u64::from(full);
        self.stats.cross_query_batches += u64::from(cross_query);
        for outputs in retired.chunk_by_mut(by_query) {
            let qid = outputs[0].query;
            let Some(q) = self.queries.get_mut(&qid) else {
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
                    q.resolve(out.item_idx, self.capacity, fx);
                }
            }
            self.try_finalize(qid, now, fx);
        }
    }

    /// Closes query `id`: it takes no more items, and resolves once every
    /// item appended so far has. With `cancel`, every item no producer has
    /// claimed is cancelled too.
    pub fn finish(&mut self, id: QueryId, cancel: bool, now: Instant, fx: &mut Effects) {
        let Some(q) = self.queries.get_mut(&id) else {
            return;
        };
        q.closed = true;
        if cancel {
            q.cancel_queued(&mut self.batcher, fx);
        }
        self.try_finalize(id, now, fx);
        // An appender blocked on this query: it is closed now.
        fx.wake_admission = true;
    }

    /// Stops admitting and closes every query: each drains and resolves.
    /// Producers exit once nothing is left to claim.
    pub fn shutdown(&mut self, now: Instant, fx: &mut Effects) {
        self.stopping = true;
        let open: Vec<QueryId> = self.queries.keys().copied().collect();
        open.into_iter()
            .for_each(|id| self.finish(id, false, now, fx));
        fx.wake_producers = Wake::All;
    }

    /// Finalizes `qid` once it is closed and every item has resolved: builds
    /// the report, resolves the handle, and frees the admission slot.
    fn try_finalize(&mut self, qid: QueryId, now: Instant, fx: &mut Effects) {
        let done = |q: &QueryState| q.closed && q.window.unresolved() == 0;
        if !self.queries.get(&qid).is_some_and(done) {
            return;
        }
        let q = self.queries.remove(&qid).expect("checked above");
        self.active -= 1;
        // Conservation of the signature counters: with no query left, every
        // item ever registered has been claimed, produced (or dropped) and
        // batched.
        debug_assert!(
            self.active > 0 || self.batcher.is_idle(),
            "signature counters leaked past the last query"
        );
        let rung = &q.ladder.rungs[q.ladder.at];
        let wall = now.duration_since(q.submitted_at).as_secs_f64();
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
        let agg = &mut self.stats;
        agg.completed_queries += 1;
        agg.images_done += report.images as u64;
        agg.dropped_frames += report.dropped_frames as u64;
        agg.downgraded_frames += report.downgraded_frames as u64;
        match deadline_missed {
            Some(true) => agg.deadline_misses += 1,
            Some(false) => agg.deadline_met += 1,
            None => {}
        }
        let _ = q.done_tx.send(report);
        fx.wake_admission = true;
    }

    /// An in-flight query's progress; `Ready` once it has resolved.
    pub fn poll(&self, id: QueryId) -> QueryPoll {
        match self.queries.get(&id) {
            Some(q) => QueryPoll::Pending {
                produced: q.produced(),
                completed: q.report.images,
                total: q.total_outputs,
            },
            None => QueryPoll::Ready,
        }
    }

    /// The counters of `Server::stats` this side of the lanes.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            queue_depth: self.active,
            pending_batch_items: self.batcher.pending_total(),
            waiting_admission: self.waiting.iter().sum(),
            priority_flushes: self.batcher.priority_flushes(),
            staging: self.staging.arena.stats(),
            ..self.stats.clone()
        }
    }
}

#[cfg(test)]
impl Claim {
    /// The query and index of each item in the run.
    pub fn ids(&self) -> impl Iterator<Item = (QueryId, usize)> + '_ {
        self.items.iter().map(|next| (self.query, next.idx))
    }

    /// The most outputs the run stages.
    pub fn fanout(&self) -> usize {
        self.items.iter().map(|next| next.fanout).sum()
    }
}

#[cfg(test)]
impl Core {
    /// The invariants that hold between any two calls, given the outputs
    /// `appended` to each query so far: no query has settled more outputs
    /// than it was given, an open query holds state for at most
    /// `max_active_queries` unresolved items and none per output, and the
    /// batcher's release rules hold.
    pub fn check(&self, appended: impl Fn(QueryId) -> usize) -> Result<(), String> {
        for (&id, q) in &self.queries {
            let r = &q.report;
            if r.images + r.failed + r.skipped > appended(id) {
                let (images, failed, skipped) = (r.images, r.failed, r.skipped);
                let appended = appended(id);
                return Err(format!(
                    "query {id}: images {images} + failed {failed} + skipped {skipped} > {appended} appended"
                ));
            }
            let per_output = r.results.len() + q.latencies.len();
            if q.completions.is_some() && (q.window.unresolved() > self.capacity || per_output > 0)
            {
                let unresolved = q.window.unresolved();
                return Err(format!(
                    "open query {id}: {unresolved} unresolved items, {per_output} per-output entries"
                ));
            }
        }
        if self.active != self.queries.len() {
            return Err(format!(
                "{} active, {} queries",
                self.active,
                self.queries.len()
            ));
        }
        self.batcher.check()
    }

    /// The state every run must come back to: no query, no waiter, nothing
    /// counted or pending in the batcher.
    pub fn at_rest(&self) -> Result<(), String> {
        let waiting: usize = self.waiting.iter().sum();
        if !self.queries.is_empty() || waiting > 0 || !self.batcher.is_idle() {
            let ids: Vec<_> = self.queries.keys().collect();
            return Err(format!(
                "not at rest: queries {ids:?} unresolved, {waiting} waiting, batcher idle: {}",
                self.batcher.is_idle()
            ));
        }
        Ok(())
    }

    /// The staging slots `claim`'s entitlement sets aside for each
    /// producer: the most a run may hold before it is integrated.
    pub fn run_slots(&self, claim: &Claim) -> usize {
        let (q, staging) = (&self.queries[&claim.query], &self.staging);
        let ctx = &claim.rungs[claim.rung].ctx;
        let capacity = staging.capacity(ctx, q.max_fanout);
        let rest = ctx.pool_capacity_fanout(0, staging.consumers(), 0);
        (capacity - rest) / staging.cfg.runtime.effective_producers()
    }

    /// Query `id`'s per-item state — its unresolved items and the window
    /// capacity kept for them — and its per-output state.
    pub fn footprint(&self, id: QueryId) -> (usize, usize, usize) {
        let q = &self.queries[&id];
        let per_output = q.report.results.len() + q.latencies.len();
        (q.window.unresolved(), q.window.capacity(), per_output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_fills_the_budget_within_its_share_of_the_unclaimed_items() {
        let us = Duration::from_micros;
        // No cost known yet: one item, whatever is waiting.
        assert_eq!(run_len(None, 100, 1), 1);
        // Cheap items fill the budget, up to the longest run...
        assert_eq!(run_len(Some(us(10)), 100, 1), 5);
        assert_eq!(run_len(Some(Duration::ZERO), 100, 1), MAX_RUN);
        // ...and an even share of the unclaimed items across producers.
        assert_eq!(run_len(Some(us(1)), 10, 4), 3);
        assert_eq!(run_len(Some(us(1)), 1, 4), 1);
        // An item over the budget runs alone.
        assert_eq!(run_len(Some(us(60)), 100, 1), 1);
        assert_eq!(run_len(Some(RUN_BUDGET), 100, 1), 1);
    }
}
