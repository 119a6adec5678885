//! A seeded explorer over the serving core's event orders.
//!
//! One thread drives a [`Core`] and a lane [`Fleet`] the way the server's
//! threads do — submitters, an open query's appender, producers, one
//! consumer per lane with its launch window of two, and `shutdown` — but
//! picks which of them moves next, and reads a clock of its own. Every
//! actor is a state machine over the same calls the drivers make: lock,
//! call, act on the [`Effects`]. A blocked actor (a producer with nothing to
//! claim, a submitter or appender at its bound) moves again only when some
//! call's effects wake it, so a lost wake-up is a hang the explorer sees.
//!
//! Items are real 8×8 sjpg stills, produced through the real staging pools.
//! A producer claims runs, sized by the core from the item cost it measures
//! on the explorer's clock: producing a run advances that clock by the
//! scenario's injected cost per item, and in some scenarios the clock
//! otherwise barely moves, so cheap items run several at a time. Faults
//! are ordinary events: a producer or lane stall (the actor sits out a
//! stretch of steps), a production error, a caught producer panic (after
//! staging, so the buffers unwind back to the arena), each per item of a
//! run, and an inference callback that panics.
//!
//! After every step the explorer checks:
//! - `images + failed + skipped ≤ appended` per query, with equality in
//!   its report;
//! - per-item state stays within its bound: an open query holds at most
//!   `max_active_queries` unresolved items and nothing per output;
//! - a partial batch never waits on lower-priority work (and no group is
//!   left full);
//! - every staging buffer checked out is held by an output that is staged
//!   and not yet retired;
//! - a run never holds more staging slots than its query's entitlement
//!   sets aside per producer, and every item of a run is claimed once and
//!   integrated once;
//! - an open query completes each item it did not drop exactly once, and a
//!   closed query's output `k` holds output `k`'s result.
//!
//! Once no actor can move it checks that every handle resolved, no actor is
//! left blocked, every claimed item was integrated, the core is at rest and
//! every staging buffer is back.
//!
//! Not covered: device timing (a launched batch completes whenever its
//! lane's retire event is picked; no batch is launched on a
//! `VirtualDevice`, whose rates only steer dispatch), the stream driver's
//! wall clock and pacer, the lanes' own condvars, and dispatch's blocking
//! wait (modelled as the actor sitting until a lane queue has space).

use crate::core::{BatchItem, Claim, Core, Effects, Gate, NewQuery, NoClaim, Produced, Wake};
use crate::lanes::{run_callbacks, Fleet};
use crate::scheduler::{FormedBatch, Priority};
use crate::server::{
    compile_ladder, panic_message, Completion, DegradeStep, QueryId, ServerConfig, SubmitOptions,
    SubmitRequest,
};
use crate::stats::{QueryReport, ServerStats};
use smol_accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol_codec::{EncodedImage, Format};
use smol_core::{CascadePlan, DecodeMode, InputVariant, Planner, PlannerConfig, QueryPlan};
use smol_runtime::{MediaItem, RuntimeOptions};
use std::collections::{HashSet, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, OnceLock};
use std::time::{Duration, Instant};

/// Batches a lane consumer holds launched and unretired (as `lanes`).
const LAUNCH_WINDOW: usize = 2;
/// A run that has not come to rest by now is livelocked.
const MAX_STEPS: usize = 4_000;

/// splitmix64: the explorer's only source of choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

/// The real items and plans every run shares.
struct Fixture {
    items: Vec<MediaItem>,
    /// ResNet-18 then ResNet-50 over the same 8×8 input: two signatures,
    /// one staging geometry.
    plans: [QueryPlan; 2],
    /// The median item's difficulty score: a cascade routes about half
    /// the items to each rung.
    threshold: f64,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let planner = Planner::new(PlannerConfig {
            dnn_input: 8,
            batch: 2,
            ..Default::default()
        });
        let input = InputVariant::new("8x8 sjpg", Format::sjpg(85), 8, 8);
        let plan = |dnn| QueryPlan {
            dnn,
            input: input.clone(),
            preproc: planner.build_preproc(&input),
            decode: DecodeMode::Full,
            batch: 2,
        };
        let images: Vec<EncodedImage> = (0..8)
            .map(|seed| {
                let img = smol_data::textured(8, 8, seed * 7 + 1);
                EncodedImage::encode(&img, Format::sjpg(85)).expect("encodes")
            })
            .collect();
        let mut scores: Vec<f64> = images
            .iter()
            .map(|img| smol_codec::signal::image_signal(img).expect("sjpg").score())
            .collect();
        scores.sort_by(f64::total_cmp);
        Fixture {
            items: images.into_iter().map(MediaItem::Image).collect(),
            plans: [plan(ModelKind::ResNet18), plan(ModelKind::ResNet50)],
            threshold: scores[scores.len() / 2],
        }
    })
}

/// How a query picks its rungs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// Closed, rung 0 only.
    Uniform,
    /// Closed, degrading to rung 1 under pressure or past its deadline.
    Degrade { deadline: bool },
    /// Closed, routed per item between the two rungs.
    Route,
    /// Open and paced: the appender picks rung 0, 1 or the drop.
    Pace { cancel: bool },
}

#[derive(Debug, Clone, Copy)]
struct Spec {
    prio: Priority,
    kind: Kind,
    items: usize,
}

/// One configuration of the explorer.
#[derive(Debug, Clone)]
struct Scenario {
    queries: Vec<Spec>,
    producers: usize,
    lanes: usize,
    /// `max_active_queries`: admission slots, and an open query's bound.
    capacity: usize,
    queue_cap: usize,
    shutdown: bool,
    /// Stalls, production errors and panics, callback panics.
    faults: bool,
    /// The most the clock advances between two events.
    clock: Duration,
    /// What producing one item advances the clock by.
    item_cost: Duration,
}

impl Scenario {
    /// Two queries, two lanes, at most eight items in all.
    fn random(rng: &mut Rng) -> Scenario {
        let prios = [Priority::Low, Priority::Normal, Priority::High];
        let query = |rng: &mut Rng| Spec {
            prio: prios[rng.below(3)],
            kind: match rng.below(4) {
                0 => Kind::Uniform,
                1 => Kind::Degrade {
                    deadline: rng.chance(50),
                },
                2 => Kind::Route,
                _ => Kind::Pace {
                    cancel: rng.chance(30),
                },
            },
            items: 1 + rng.below(4),
        };
        let us = Duration::from_micros;
        Scenario {
            queries: vec![query(rng), query(rng)],
            producers: 1 + rng.below(2),
            lanes: 2,
            capacity: 1 + rng.below(2),
            queue_cap: 1,
            shutdown: rng.chance(30),
            faults: rng.chance(50),
            // Most runs on a coarse clock, on which every item is dear and
            // runs alone; the rest on a fine one, under an item cost below,
            // near or above the run budget.
            clock: if rng.chance(60) { us(2_000) } else { us(4) },
            item_cost: us([0, 5, 20, 80][rng.below(4)]),
        }
    }
}

/// Who picks the next event: seeded at random, or a scripted prefix that
/// the exhaustive search advances run by run.
trait Chooser {
    fn pick(&mut self, n: usize) -> usize;
    /// The clock's advance this step, at most `max`.
    fn tick(&mut self, max: Duration) -> Duration;
}

impl Chooser for Rng {
    fn pick(&mut self, n: usize) -> usize {
        self.below(n)
    }

    fn tick(&mut self, max: Duration) -> Duration {
        Duration::from_micros(self.below(max.as_micros() as usize) as u64)
    }
}

/// Depth-first over every order: replays `prefix`, then takes the first
/// event at each new step, recording `(choice, options)`.
struct Script {
    prefix: Vec<(usize, usize)>,
    taken: Vec<(usize, usize)>,
}

impl Chooser for Script {
    fn pick(&mut self, n: usize) -> usize {
        let step = self.taken.len();
        let choice = self.prefix.get(step).map_or(0, |&(choice, _)| choice);
        assert!(choice < n, "replay diverged at step {step}");
        self.taken.push((choice, n));
        choice
    }

    fn tick(&mut self, max: Duration) -> Duration {
        max
    }
}

/// A query's submitter and (open queries) appender.
struct Client {
    spec: Spec,
    /// Before admission: the request, handed back while it waits.
    pending: Option<NewQuery>,
    id: Option<QueryId>,
    /// Waiting on admission or on the query's bound, until woken.
    blocked: bool,
    /// Items appended so far and their outputs (dropped ones included).
    appended: usize,
    outputs: usize,
    dropped: usize,
    closed: bool,
    done_rx: mpsc::Receiver<QueryReport>,
    completions_rx: Option<mpsc::Receiver<Completion>>,
    completed: Vec<usize>,
    resolved: bool,
    fx: Effects,
}

enum Producer {
    Ready,
    Blocked,
    Holding(Box<Claim>),
    Exited,
}

struct Consumer {
    window: VecDeque<FormedBatch<BatchItem>>,
    fx: Effects,
}

/// What an event does.
#[derive(Debug, Clone, Copy)]
enum Event {
    Submit(usize),
    Append(usize),
    Close(usize),
    Claim(usize),
    Produce(usize),
    Dispatch(Actor),
    Launch(usize),
    Retire(usize),
    Stall(Actor),
    Shutdown,
}

/// Whose effects buffer an event acts through.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Actor {
    Client(usize),
    Producer(usize),
    Lane(usize),
    Main,
}

struct World<'a> {
    sc: &'a Scenario,
    core: Core,
    fleet: Fleet,
    clients: Vec<Client>,
    producers: Vec<(Producer, Effects)>,
    consumers: Vec<Consumer>,
    main_fx: Effects,
    shut_down: bool,
    /// Step until which a stalled producer or lane sits out.
    stalled: Vec<(Actor, usize)>,
    /// Items claimed, and those integrated, by (query, index).
    claimed: HashSet<(QueryId, usize)>,
    integrated: HashSet<(QueryId, usize)>,
    longest_run: usize,
    step: usize,
    now: Instant,
    trace: Vec<Event>,
}

fn infer_for(
    query: usize,
    faults: bool,
) -> impl Fn(usize, &smol_imgproc::ImageU8) -> usize + Send + Sync + 'static {
    move |output, _| {
        if faults && (output + query) % 5 == 3 {
            // Unwinds without the panic hook: a caught panic, silently.
            resume_unwind(Box::new("injected callback panic"));
        }
        output
    }
}

impl<'a> World<'a> {
    fn new(sc: &'a Scenario) -> World<'a> {
        let fx = fixture();
        let cfg = ServerConfig {
            runtime: RuntimeOptions {
                producers: sc.producers,
                consumers: 1,
                ..Default::default()
            },
            max_active_queries: sc.capacity,
            batch_queue: sc.queue_cap,
            tensor_cache_bytes: 0,
        };
        let device = || VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 0.001);
        let mut next_item = 0;
        let clients = sc
            .queries
            .iter()
            .enumerate()
            .map(|(q, &spec)| {
                let items: Vec<MediaItem> = (next_item..next_item + spec.items)
                    .map(|i| fx.items[i].clone())
                    .collect();
                next_item += spec.items;
                let [full, cheap] = &fx.plans;
                let mut opts = SubmitOptions {
                    priority: spec.prio,
                    ..Default::default()
                };
                let step = DegradeStep {
                    plan: cheap.clone(),
                    accuracy: 0.5,
                    est_throughput: 1.0,
                };
                match spec.kind {
                    Kind::Uniform => {}
                    Kind::Degrade { deadline } => {
                        opts.ladder = vec![step];
                        opts.deadline = deadline.then_some(Duration::from_millis(3));
                    }
                    Kind::Route => {
                        opts.cascade = Some(CascadePlan {
                            stage1: cheap.clone(),
                            threshold: fx.threshold,
                            escalation_rate: 0.5,
                        });
                    }
                    Kind::Pace { .. } => opts.ladder = vec![step],
                }
                let open = matches!(spec.kind, Kind::Pace { .. });
                let mut request = SubmitRequest::new(full.clone(), Vec::new())
                    .options(opts)
                    .infer(infer_for(q, sc.faults));
                if open {
                    request = request.open();
                } else {
                    request.items = items;
                }
                let (rungs, policy) = compile_ladder(&request).expect("compiles");
                let (done_tx, done_rx) = mpsc::sync_channel(1);
                let (completions, completions_rx) = open.then(mpsc::channel).unzip();
                let query = NewQuery {
                    request,
                    rungs,
                    policy,
                    done_tx,
                    completions,
                    queued: false,
                };
                Client {
                    spec,
                    pending: Some(query),
                    id: None,
                    blocked: false,
                    appended: 0,
                    outputs: 0,
                    dropped: 0,
                    closed: !open,
                    done_rx,
                    completions_rx,
                    completed: Vec::new(),
                    resolved: false,
                    fx: Effects::default(),
                }
            })
            .collect();
        World {
            sc,
            core: Core::new(&cfg, sc.lanes),
            fleet: Fleet::new((0..sc.lanes).map(|_| device()).collect(), sc.producers),
            clients,
            producers: (0..sc.producers)
                .map(|_| (Producer::Ready, Effects::default()))
                .collect(),
            consumers: (0..sc.lanes)
                .map(|_| Consumer {
                    window: VecDeque::new(),
                    fx: Effects::default(),
                })
                .collect(),
            main_fx: Effects::default(),
            shut_down: false,
            stalled: Vec::new(),
            claimed: HashSet::new(),
            integrated: HashSet::new(),
            longest_run: 0,
            step: 0,
            now: Instant::now(),
            trace: Vec::new(),
        }
    }

    fn fx(&mut self, actor: Actor) -> &mut Effects {
        match actor {
            Actor::Client(q) => &mut self.clients[q].fx,
            Actor::Producer(p) => &mut self.producers[p].1,
            Actor::Lane(l) => &mut self.consumers[l].fx,
            Actor::Main => &mut self.main_fx,
        }
    }

    fn sits_out(&self, actor: Actor) -> bool {
        self.stalled
            .iter()
            .any(|&(a, until)| a == actor && until > self.step)
    }

    /// Every event some actor can take now.
    fn enabled(&self, exhaustive: bool) -> Vec<Event> {
        let mut events = Vec::new();
        let has_space = self.fleet.has_space(self.sc.queue_cap);
        let mut actors: Vec<(Actor, &Effects)> = Vec::new();
        actors.extend(
            self.clients
                .iter()
                .enumerate()
                .map(|(q, c)| (Actor::Client(q), &c.fx)),
        );
        actors.extend(
            self.producers
                .iter()
                .enumerate()
                .map(|(p, (_, fx))| (Actor::Producer(p), fx)),
        );
        actors.push((Actor::Main, &self.main_fx));
        for (actor, fx) in actors {
            if !fx.batches.is_empty() && has_space && !self.sits_out(actor) {
                events.push(Event::Dispatch(actor));
            }
        }
        let all_admitted = self.clients.iter().all(|c| c.id.is_some());
        for (q, c) in self.clients.iter().enumerate() {
            if c.blocked || !c.fx.batches.is_empty() {
                continue;
            }
            match c.id {
                None if !self.shut_down => events.push(Event::Submit(q)),
                None => {}
                Some(_) if c.closed => {}
                Some(_) => {
                    if c.appended < c.spec.items {
                        events.push(Event::Append(q));
                    }
                    let cancel = matches!(c.spec.kind, Kind::Pace { cancel: true });
                    if c.appended == c.spec.items || cancel {
                        events.push(Event::Close(q));
                    }
                }
            }
        }
        for (p, (state, fx)) in self.producers.iter().enumerate() {
            let actor = Actor::Producer(p);
            if !fx.batches.is_empty() || self.sits_out(actor) {
                continue;
            }
            match state {
                Producer::Ready => events.push(Event::Claim(p)),
                Producer::Holding(_) => {
                    events.push(Event::Produce(p));
                    if self.sc.faults && !exhaustive {
                        events.push(Event::Stall(actor));
                    }
                }
                Producer::Blocked | Producer::Exited => {}
            }
        }
        for (l, c) in self.consumers.iter().enumerate() {
            if self.sits_out(Actor::Lane(l)) {
                continue;
            }
            let room = c.window.len() < LAUNCH_WINDOW;
            if room && self.fleet.takeable(l, c.window.is_empty()) {
                events.push(Event::Launch(l));
            }
            if !c.window.is_empty() {
                events.push(Event::Retire(l));
                if self.sc.faults && !exhaustive {
                    events.push(Event::Stall(Actor::Lane(l)));
                }
            }
        }
        if self.sc.shutdown && !self.shut_down && all_admitted && self.main_fx.batches.is_empty() {
            events.push(Event::Shutdown);
        }
        events
    }

    /// Places an actor's formed batches while the fleet has room; once all
    /// are placed, delivers its wake-ups.
    fn act(&mut self, actor: Actor) {
        let queue_cap = self.sc.queue_cap;
        let mut fx = std::mem::take(self.fx(actor));
        let mut batches = std::mem::take(&mut fx.batches).into_iter();
        while let Some(batch) = batches.next() {
            if let Err(back) = self.fleet.place(batch, queue_cap) {
                fx.batches.push(back);
                fx.batches.extend(batches);
                *self.fx(actor) = fx;
                return;
            }
        }
        match fx.wake_producers {
            Wake::None => {}
            Wake::One => {
                let blocked = self
                    .producers
                    .iter_mut()
                    .find(|(state, _)| matches!(state, Producer::Blocked));
                if let Some((state, _)) = blocked {
                    *state = Producer::Ready;
                }
            }
            Wake::All => {
                for (state, _) in &mut self.producers {
                    if matches!(state, Producer::Blocked) {
                        *state = Producer::Ready;
                    }
                }
            }
        }
        if fx.wake_admission {
            self.clients.iter_mut().for_each(|c| c.blocked = false);
        }
        fx.wake_producers = Wake::None;
        fx.wake_admission = false;
        *self.fx(actor) = fx;
    }

    fn apply(&mut self, event: Event, rng: &mut Rng) {
        let now = self.now;
        match event {
            Event::Submit(q) => {
                let query = self.clients[q].pending.take().expect("not admitted");
                let c = &mut self.clients[q];
                match self.core.admit(query, now, &mut c.fx).expect("waits") {
                    Gate::Pass(id) => {
                        c.id = Some(id);
                        if c.closed {
                            c.appended = c.spec.items;
                            c.outputs = c.spec.items;
                        }
                    }
                    Gate::Wait(back) => (c.pending, c.blocked) = (Some(back), true),
                }
                self.act(Actor::Client(q));
            }
            Event::Append(q) => {
                let c = &mut self.clients[q];
                let first: usize = self.sc.queries[..q].iter().map(|s| s.items).sum();
                let item = fixture().items[first + c.appended].clone();
                let rung = rng.below(3); // 0, 1 or the drop
                let id = c.id.expect("admitted");
                match self.core.append(id, item, rung, &mut c.fx) {
                    Ok(Gate::Pass(idx)) => {
                        assert_eq!(idx, c.appended, "items take indices in append order");
                        c.appended += 1;
                        c.outputs += 1;
                        c.dropped += usize::from(rung == 2);
                    }
                    Ok(Gate::Wait(_)) => c.blocked = true,
                    // Closed or shut down: the appender is done.
                    Err(_) => c.closed = true,
                }
                self.act(Actor::Client(q));
            }
            Event::Close(q) => {
                let c = &mut self.clients[q];
                let cancel = matches!(c.spec.kind, Kind::Pace { cancel: true });
                c.closed = true;
                let id = c.id.expect("admitted");
                self.core.finish(id, cancel, now, &mut c.fx);
                self.act(Actor::Client(q));
            }
            Event::Claim(p) => {
                let (state, fx) = &mut self.producers[p];
                *state = match self.core.claim(now, fx) {
                    Ok(claim) => {
                        for id in claim.ids() {
                            assert!(self.claimed.insert(id), "item {id:?} claimed twice");
                        }
                        self.longest_run = self.longest_run.max(claim.len());
                        Producer::Holding(Box::new(claim))
                    }
                    Err(NoClaim::Idle) => Producer::Blocked,
                    Err(NoClaim::Stop) => Producer::Exited,
                };
                self.act(Actor::Producer(p));
            }
            Event::Produce(p) => {
                let (state, fx) = &mut self.producers[p];
                let Producer::Holding(claim) = std::mem::replace(state, Producer::Ready) else {
                    unreachable!("enabled only while holding a claim");
                };
                let slots = self.core.run_slots(&claim);
                assert!(
                    claim.fanout() <= slots,
                    "a run of {} outputs, {slots} staging slots set aside per producer",
                    claim.fanout()
                );
                let mut produced = Produced::default();
                for i in 0..claim.len() {
                    let fault = if self.sc.faults { rng.below(10) } else { 9 };
                    produced.item(|staged| match fault {
                        0 => Err("injected production error".to_string()),
                        1 => catch_unwind(AssertUnwindSafe(|| {
                            let rung = claim.produce(i, 0.0, None, staged);
                            resume_unwind(Box::new(format!("after staging {}", rung.is_ok())))
                        }))
                        .unwrap_or_else(|payload| Err(panic_message("producer", payload.as_ref()))),
                        _ => claim.produce(i, 0.0, None, staged),
                    });
                }
                let now = now + self.sc.item_cost * claim.len() as u32;
                self.now = now;
                self.core.integrate(&claim, &mut produced, now, fx);
                for id in claim.ids() {
                    assert!(self.integrated.insert(id), "item {id:?} integrated twice");
                }
                self.act(Actor::Producer(p));
            }
            Event::Dispatch(actor) => self.act(actor),
            Event::Launch(l) => {
                let c = &mut self.consumers[l];
                let batch = self.fleet.take_batch(l, c.window.is_empty());
                c.window.push_back(batch.expect("takeable"));
            }
            Event::Retire(l) => {
                let c = &mut self.consumers[l];
                let batch = c.window.pop_front().expect("launched");
                self.fleet.retired(l, batch.items.len(), 0.0);
                let (mut retired, full) = run_callbacks(batch);
                self.core.retire(&mut retired, full, now, &mut c.fx);
                assert!(c.fx.batches.is_empty(), "retiring forms no batch");
                self.act(Actor::Lane(l));
            }
            Event::Stall(actor) => {
                let until = self.step + 5 + rng.below(40);
                self.stalled.push((actor, until));
            }
            Event::Shutdown => {
                self.shut_down = true;
                self.core.shutdown(now, &mut self.main_fx);
                self.act(Actor::Main);
            }
        }
    }

    /// The per-step invariants (module docs).
    fn check(&mut self) -> Result<(), String> {
        let clients = &self.clients;
        let appended = |id| {
            let c = clients.iter().find(|c| c.id == Some(id));
            c.expect("a live query has a client").outputs
        };
        self.core.check(appended)?;
        let stats = self.core.stats();
        let checked_out: usize = stats.staging.shelves.iter().map(|s| s.checked_out).sum();
        let mut staged = stats.pending_batch_items + self.fleet.items();
        let held = |fx: &Effects| fx.batches.iter().map(|b| b.items.len()).sum::<usize>();
        staged += self.clients.iter().map(|c| held(&c.fx)).sum::<usize>();
        staged += self.producers.iter().map(|(_, fx)| held(fx)).sum::<usize>();
        staged += held(&self.main_fx);
        if checked_out != staged {
            return Err(format!(
                "{checked_out} staging buffers out for {staged} staged outputs"
            ));
        }
        for c in &mut self.clients {
            if let Some(rx) = &c.completions_rx {
                c.completed.extend(rx.try_iter().map(|done| done.item));
            }
            let Ok(report) = c.done_rx.try_recv() else {
                continue;
            };
            let settled = report.images + report.failed + report.skipped;
            if settled != c.outputs {
                return Err(format!(
                    "query {}: images {} + failed {} + skipped {} != {} appended",
                    report.id, report.images, report.failed, report.skipped, c.outputs
                ));
            }
            if c.completions_rx.is_some() {
                let mut completed = c.completed.clone();
                completed.sort_unstable();
                completed.dedup();
                let expected = c.appended - c.dropped;
                if completed.len() != c.completed.len() || completed.len() != expected {
                    return Err(format!(
                        "query {}: completions {:?} for {expected} undropped items",
                        report.id, c.completed
                    ));
                }
            } else if let Some(bad) = (0..report.results.len()).find(|&k| {
                let result = report.results[k].as_ref();
                result.is_some_and(|r| r.downcast_ref::<usize>() != Some(&k))
            }) {
                return Err(format!(
                    "query {}: output {bad} holds another's result",
                    report.id
                ));
            }
            c.resolved = true;
        }
        Ok(())
    }

    /// The end state once no actor can move (module docs).
    fn at_rest(&self) -> Result<(), String> {
        for (q, c) in self.clients.iter().enumerate() {
            if !c.resolved {
                let why = if c.blocked { "blocked" } else { "unresolved" };
                return Err(format!("query {q} never resolved ({why})"));
            }
        }
        let live = |p: &&(Producer, Effects)| !matches!(p.0, Producer::Exited);
        if self
            .producers
            .iter()
            .any(|(p, _)| matches!(p, Producer::Holding(_)))
            || (self.shut_down && self.producers.iter().any(|p| live(&p)))
        {
            return Err("a producer holds a claim, or outlives shutdown".into());
        }
        if self.claimed != self.integrated {
            return Err(format!(
                "{} items claimed, {} integrated",
                self.claimed.len(),
                self.integrated.len()
            ));
        }
        self.core.at_rest()?;
        let staging = self.core.stats().staging;
        if staging.shelves.iter().any(|s| s.checked_out > 0) {
            return Err(format!("staging not back at rest: {:?}", staging.shelves));
        }
        Ok(())
    }
}

/// Runs one order of `sc`'s events to rest and returns the core's
/// counters and the longest run claimed; `Err` names the broken invariant
/// and the events that led there.
fn run(
    sc: &Scenario,
    chooser: &mut dyn Chooser,
    rng: &mut Rng,
    exhaustive: bool,
) -> Result<(ServerStats, usize), String> {
    let mut world = World::new(sc);
    loop {
        if world.step >= MAX_STEPS {
            return Err(format!("no rest after {MAX_STEPS} steps"));
        }
        let events = world.enabled(exhaustive);
        if events.is_empty() {
            // A stalled actor is the only one left: let time pass.
            let stalls = world.stalled.iter().map(|&(_, until)| until);
            match stalls.filter(|&until| until > world.step).min() {
                Some(until) => {
                    world.step = until;
                    continue;
                }
                None => break,
            }
        }
        let event = events[chooser.pick(events.len())];
        world.trace.push(event);
        world.apply(event, rng);
        world.step += 1;
        world.now += chooser.tick(sc.clock);
        world
            .check()
            .map_err(|e| format!("{e}\n  after {:?}", world.trace))?;
    }
    world
        .at_rest()
        .map_err(|e| format!("{e}\n  after {:?}", world.trace))?;
    Ok((world.core.stats(), world.longest_run))
}

/// Runs `run` with any panic it hits turned into a failure.
fn run_caught(
    sc: &Scenario,
    chooser: &mut dyn Chooser,
    rng: &mut Rng,
    exhaustive: bool,
) -> Result<(ServerStats, usize), String> {
    catch_unwind(AssertUnwindSafe(|| run(sc, chooser, rng, exhaustive)))
        .unwrap_or_else(|payload| Err(panic_message("the core", payload.as_ref())))
}

/// Seeds per run of the test: about a second in a debug build.
const SEEDS: u64 = 20_000;

#[test]
fn seeded_event_orders_keep_every_invariant() {
    let (mut seen, mut longest_run) = (ServerStats::default(), 0);
    for seed in 0..SEEDS {
        let mut rng = Rng(seed);
        let sc = Scenario::random(&mut rng);
        match run_caught(&sc, &mut Rng(seed ^ 0x5eed), &mut rng, false) {
            Ok((stats, run)) => {
                longest_run = longest_run.max(run);
                seen.degradations += stats.degradations;
                seen.priority_flushes += stats.priority_flushes;
                seen.cross_query_batches += stats.cross_query_batches;
                seen.dropped_frames += stats.dropped_frames;
            }
            Err(e) => panic!("seed {seed}, {sc:?}: {e}"),
        }
    }
    // The orders reach what they are meant to test.
    assert!(
        seen.degradations > 0 && seen.priority_flushes > 0,
        "{seen:?}"
    );
    assert!(
        seen.cross_query_batches > 0 && seen.dropped_frames > 0,
        "{seen:?}"
    );
    assert!(longest_run > 2, "runs of at most {longest_run} items");
}

/// Every order of the smallest configuration that still has two queries of
/// different priorities sharing a signature, a wait at admission, an open
/// query and two lanes.
#[test]
fn every_order_of_the_smallest_configuration_keeps_every_invariant() {
    let sc = Scenario {
        queries: vec![
            Spec {
                prio: Priority::Normal,
                kind: Kind::Uniform,
                items: 1,
            },
            Spec {
                prio: Priority::High,
                kind: Kind::Pace { cancel: false },
                items: 1,
            },
        ],
        producers: 1,
        lanes: 2,
        capacity: 1,
        queue_cap: 1,
        shutdown: false,
        faults: false,
        clock: Duration::from_millis(1),
        item_cost: Duration::ZERO,
    };
    let mut prefix = Vec::new();
    let mut orders = 0;
    loop {
        let mut script = Script {
            prefix,
            taken: Vec::new(),
        };
        if let Err(e) = run_caught(&sc, &mut script, &mut Rng(0), true) {
            panic!("order {orders}: {e}");
        }
        orders += 1;

        // Backtrack: advance the deepest choice that has another option.
        prefix = script.taken;
        while prefix.last().is_some_and(|&(choice, n)| choice + 1 == n) {
            prefix.pop();
        }
        let Some(last) = prefix.last_mut() else {
            break;
        };
        last.0 += 1;
    }
    assert!(orders > 10_000, "only {orders} orders explored");
}
