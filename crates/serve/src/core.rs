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
use crate::window::Window;
use smol_core::{PlacementSignature, QueryPlan};
use smol_runtime::{
    produce_media_item, route_stage, BufferPool, MediaItem, PlanContext, ProducedItem,
    StagingArena, TensorCache,
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

/// What producing a claim came to: the rung it was produced under and its
/// staged outputs, or why production failed.
pub(crate) type Produced = Result<(usize, Vec<ProducedItem>), String>;

/// One unit of producer work: item `idx` of query `query`.
pub(crate) struct Claim {
    query: QueryId,
    prio: Priority,
    idx: usize,
    item: MediaItem,
    /// The item's outputs are `offset..offset + fanout`.
    offset: usize,
    fanout: usize,
    rungs: Arc<[Rung]>,
    /// The rung the item was picked on, fixed at claim time, and the
    /// policy that picked it: the item stays counted under every rung open
    /// *here*, whatever the query degrades to while the claim is out.
    rung: usize,
    policy: Policy,
    pool: BufferPool,
    /// The query's inference callback; producers keep the decoded image
    /// only when there is one.
    infer: Option<InferFn>,
    claimed_at: Instant,
}

impl Claim {
    fn open(&self) -> &[Rung] {
        self.policy.open(self.rung, &self.rungs)
    }

    /// Produces the item (the slow part, run without the scheduler lock):
    /// a GOP fans out into one output per selected frame. A routed claim
    /// routes first, before any decode work, so an escalated item runs the
    /// full plan's pipeline exactly as a uniform query would; `route_stage`
    /// says 1 for "escalate" — rung 0, the submitted plan — and 0 for the
    /// aggressive rung compiled behind it.
    pub fn produce(&self, extra_cpu_s: f64, cache: Option<&TensorCache>) -> Produced {
        let rung = match self.policy {
            Policy::Route(threshold) => 1 - route_stage(&self.item, threshold),
            Policy::Degrade | Policy::Pace => self.rung,
        };
        let (ctx, keep_image) = (&self.rungs[rung].ctx, self.infer.is_some());
        let (item, pool) = (&self.item, &self.pool);
        produce_media_item(ctx, self.offset, item, pool, keep_image, extra_cpu_s, cache)
            .map(|staged| (rung, staged))
            .map_err(|e| e.to_string())
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
    /// A query's entitlement for plan `ctx`: enough buffers that producers
    /// never wait on consumers — every consumer thread across the fleet may
    /// hold its launch window of two batches (the `2 ·` of
    /// `pool_capacity_fanout`), every lane queue `batch_queue` more, and
    /// the batch former up to `batch − 1` items — drawn from the arena (or
    /// freshly allocated per acquire when `memory_reuse` is off).
    fn pool(&self, ctx: &PlanContext, max_fanout: usize) -> BufferPool {
        let rt = &self.cfg.runtime;
        let consumers = self.n_lanes * (rt.consumers.max(1) + self.cfg.batch_queue.max(1));
        let capacity = ctx.pool_capacity_fanout(rt.effective_producers(), consumers, max_fanout);
        let (reuse, pinned) = (rt.memory_reuse, rt.pinned);
        self.arena.pool(capacity, ctx.buf_len, reuse, pinned)
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

    /// Takes the next fair-share claim (highest-priority ring first).
    /// Degradation is applied at claim time: partial batches of an
    /// abandoned signature land in `fx`, always beside a claim (a query
    /// degrades only with an item left to claim).
    pub fn claim(&mut self, now: Instant, fx: &mut Effects) -> Result<Claim, NoClaim> {
        for prio in (0..Priority::COUNT).rev() {
            while let Some(qid) = self.rr[prio].pop_front() {
                if !self.queries.contains_key(&qid) {
                    continue; // finalized early (error path)
                }
                self.maybe_degrade(qid, now, fx);
                let q = self.queries.get_mut(&qid).expect("checked above");
                let Some(next) = q.window.claim() else {
                    continue; // exhausted (kept out of the ring from here on)
                };
                let (rung, policy) = (q.ladder.pick(next.rung), q.ladder.policy);
                if rung > 0 {
                    q.report.downgraded_frames += next.fanout;
                }
                let claim = Claim {
                    query: qid,
                    prio: q.priority,
                    idx: next.idx,
                    item: next.item,
                    offset: next.offset,
                    fanout: next.fanout,
                    rungs: Arc::clone(&q.ladder.rungs),
                    rung,
                    policy,
                    pool: q.pool(&self.staging, rung),
                    infer: q.infer.clone(),
                    claimed_at: now,
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

    /// Books a claim's outcome into its query and the signature counters.
    pub fn integrate(&mut self, claim: &Claim, produced: Produced, now: Instant, fx: &mut Effects) {
        let q = self
            .queries
            .get_mut(&claim.query)
            .expect("query lives until finalize");
        // An item can legally stage zero outputs (an empty GOP): it, and the
        // query, may then be resolved already.
        let resolved = match produced {
            Ok((rung, staged)) => {
                let resolved = q.window.staged(claim.idx, Some(staged.len()));
                q.rung_outputs[rung] += staged.len();
                let escalated = matches!(claim.policy, Policy::Route(_)) && rung == 0;
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
                    fx.batches.extend(self.batcher.push(sig, staged));
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
                    self.cancel_queued(claim.query, fx);
                }
                true
            }
        };
        for rung in claim.open() {
            self.batcher
                .settle(&rung.sig, claim.prio, 1, &mut fx.batches);
        }
        if resolved {
            let q = self.queries.get_mut(&claim.query).expect("not finalized");
            q.resolve(claim.idx, self.capacity, fx);
            self.try_finalize(claim.query, now, fx);
        }
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
            self.cancel_queued(id, fx);
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

    /// Cancels every item of `qid` no producer has claimed: each counts as
    /// skipped and releases its batcher counts (partial batches that were
    /// waiting on them land in `fx`); an open query completes it with
    /// every output failed.
    fn cancel_queued(&mut self, qid: QueryId, fx: &mut Effects) {
        let q = self.queries.get_mut(&qid).expect("caller checked");
        let (ladder, batcher) = (&q.ladder, &mut self.batcher);
        q.window.cancel(|item| {
            q.report.skipped += item.fanout;
            for r in ladder.policy.open(ladder.pick(item.rung), &ladder.rungs) {
                batcher.settle(&r.sig, q.priority, 1, &mut fx.batches);
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

    /// Query `id`'s per-item state — its unresolved items and the window
    /// capacity kept for them — and its per-output state.
    pub fn footprint(&self, id: QueryId) -> (usize, usize, usize) {
        let q = &self.queries[&id];
        let per_output = q.report.results.len() + q.latencies.len();
        (q.window.unresolved(), q.window.capacity(), per_output)
    }
}
