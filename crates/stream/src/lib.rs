//! # smol-stream
//!
//! Live-stream serving: continuous video queries over unbounded sources,
//! with deadline-driven downgrading and frame dropping.
//!
//! Batch serving hands the [`smol_serve::Server`] every GOP at once and
//! lets latency float; a *live* source produces GOPs at wall-clock rate,
//! and a decoder that falls behind must pay **fidelity** — cheaper plans,
//! ultimately shed GOPs — never unbounded queueing. This crate closes
//! that loop:
//!
//! * [`StreamSource`] — pull-based timed GOP sources ([`FeedSource`]
//!   adapts a [`smol_data::StreamFeed`]);
//! * [`run_stream`] — the pacing scheduler: a stream is **one open server
//!   query** on the rungs of the query's calibrated [`StreamLadder`]
//!   (deblock-skip and keyframe-only selections — whatever the planner's
//!   frontier orders next). A driver thread appends GOPs at their
//!   arrival times, measures how far behind arrival the oldest in-flight
//!   GOP is, and maps that lag through a [`smol_core::PacingPolicy`] onto
//!   the rung each GOP is appended on — the rung past the end drops it.
//!   Every rung sits at or above the constraint's accuracy floor, so floor
//!   violations are zero by construction;
//! * [`StreamHandle`] — windowed results: per-frame values (e.g. object
//!   counts) roll up into tumbling stream-time windows
//!   ([`smol_analytics::WindowRollup`]), each closing once its GOPs have
//!   completed or been shed, with per-window drop/downgrade/staleness
//!   accounting ([`WindowResult`]) and stream-level [`StreamStats`].
//!
//! Frame-level loss is the stream query's own accounting: shed and
//! cancelled GOPs count as skipped, deeper rungs as downgraded, and both
//! fold into the server's aggregate counters
//! ([`smol_serve::ServerStats::dropped_frames`] /
//! [`ServerStats::downgraded_frames`](smol_serve::ServerStats::downgraded_frames))
//! when the stream ends.
#![deny(unsafe_code)]

use smol_analytics::WindowRollup;
use smol_core::{DecodeMode, FrameSelection};
// The policy types live in `smol_core` (pure, unit-testable); re-export
// them so stream users need only this crate.
pub use smol_core::{PaceDecision, PacingPolicy};
use smol_data::StreamFeed;
use smol_imgproc::ImageU8;
use smol_runtime::MediaItem;
use smol_serve::{
    percentile, Completion, Priority, Query, QueryHandle, Session, SessionError, StreamLadder,
    SubmitOptions, SubmitRequest,
};
use smol_video::EncodedGop;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// One GOP released by a [`StreamSource`]: the encoded item, its frame
/// position in the stream, and its wall-clock arrival offset.
#[derive(Debug, Clone)]
pub struct StreamGop {
    pub gop: EncodedGop,
    /// Stream position of the GOP's first frame.
    pub start_frame: usize,
    /// Wall-clock arrival offset from stream start (the driver waits
    /// until this before the GOP exists, and lag is measured against it).
    pub arrival: Duration,
}

/// A pull-based timed GOP source. `next_gop` returns GOPs in arrival
/// order; the pacing driver waits out each arrival offset, so sources
/// are pure schedules — no clocks of their own.
pub trait StreamSource {
    /// The next GOP, or `None` when the stream ends (a finite clip; live
    /// cameras simply never return `None` until stopped).
    fn next_gop(&mut self) -> Option<StreamGop>;
    /// Source frame rate (stream time).
    fn fps(&self) -> f64;
    /// Stream-seconds per wall-second (1.0 = real time; > 1 compresses).
    fn time_scale(&self) -> f64;
}

/// Adapts a [`StreamFeed`] (corpus + arrival schedule) into a
/// [`StreamSource`].
#[derive(Debug, Clone)]
pub struct FeedSource {
    feed: StreamFeed,
    next: usize,
}

impl FeedSource {
    pub fn new(feed: StreamFeed) -> Self {
        FeedSource { feed, next: 0 }
    }
}

impl From<StreamFeed> for FeedSource {
    fn from(feed: StreamFeed) -> Self {
        FeedSource::new(feed)
    }
}

impl StreamSource for FeedSource {
    fn next_gop(&mut self) -> Option<StreamGop> {
        let gop = self.feed.corpus.gops.get(self.next)?.clone();
        let arrival = self.feed.arrivals[self.next];
        self.next += 1;
        Some(StreamGop {
            start_frame: gop.start_frame,
            gop,
            arrival,
        })
    }

    fn fps(&self) -> f64 {
        self.feed.corpus.fps
    }

    fn time_scale(&self) -> f64 {
        self.feed.time_scale
    }
}

/// Configuration of one continuous query.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Output window length in *stream* seconds (windows tumble; frames
    /// land by stream position, so `time_scale` never changes which
    /// window a frame belongs to).
    pub window_s: f64,
    /// The lag → rung/drop policy ([`PacingPolicy::disabled`] is the
    /// lesion: never downgrade, never drop, lag grows without bound).
    pub policy: PacingPolicy,
    /// Admission, claiming and batch-release priority of the stream's
    /// query.
    pub priority: Priority,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            window_s: 1.0,
            policy: PacingPolicy::default(),
            priority: Priority::Normal,
        }
    }
}

/// One closed stream-time window's results and accounting.
#[derive(Debug, Clone)]
pub struct WindowResult {
    /// Window position in the stream (0 = first).
    pub index: usize,
    /// Stream-time span the window covers, in seconds.
    pub start_s: f64,
    pub end_s: f64,
    /// Mean per-frame value (e.g. object count) over the window's
    /// executed frames; 0.0 when nothing executed.
    pub mean: f64,
    /// Executed frames that contributed to `mean`.
    pub samples: usize,
    /// Frames the source actually produced in this window.
    pub expected_frames: usize,
    /// Executed outputs attributed to this window.
    pub frames_decoded: usize,
    /// Executed outputs that ran on a rung below the base plan.
    pub frames_downgraded: usize,
    /// Frames of GOPs the pacer shed that fall in this window.
    pub frames_dropped: usize,
    /// Fraction of `expected_frames` covered by a GOP that produced at
    /// least one output (a keyframe-only downgrade still *covers* its
    /// GOP; only shed GOPs lose coverage).
    pub coverage: f64,
    /// Wall seconds between the window's stream end and the moment it
    /// closed — the staleness of this result.
    pub output_lag_s: f64,
}

/// Whole-stream accounting, returned by [`StreamHandle::finish`].
#[derive(Debug, Clone, Default)]
pub struct StreamStats {
    pub gops_arrived: usize,
    /// Appended to the stream's query on a rung (not dropped).
    pub gops_submitted: usize,
    /// Appended on a rung below the base plan.
    pub gops_downgraded: usize,
    /// Shed by the pacer, or refused once the stream was stopped.
    pub gops_dropped: usize,
    /// Frames across all arrived GOPs.
    pub frames_total: usize,
    /// Executed outputs across all resolved GOPs.
    pub frames_decoded: usize,
    /// Executed outputs that ran on a rung below the base plan.
    pub frames_downgraded: usize,
    /// Frames of shed GOPs, plus failed and cancelled outputs of appended
    /// ones.
    pub frames_dropped: usize,
    /// Windows emitted.
    pub windows: usize,
    /// Mean per-window coverage.
    pub window_coverage: f64,
    /// Per-GOP arrival → completion wall lag percentiles.
    pub lag_p50_s: f64,
    pub lag_p95_s: f64,
    /// 95th-percentile window staleness ([`WindowResult::output_lag_s`]).
    pub output_lag_p95_s: f64,
    /// Completed GOPs whose rung's accuracy fell below the floor — zero
    /// by construction (every ladder rung is at or above it).
    pub floor_violations: usize,
    /// Deepest ladder rung any GOP ran on (0 = never downgraded).
    pub max_rung: usize,
}

/// A running continuous query: windowed results as they close, a stop
/// switch, and final stats. Dropping the handle stops the stream and
/// joins the driver.
pub struct StreamHandle {
    /// Behind a lock so the handle is `Sync`.
    rx: Mutex<Receiver<WindowResult>>,
    join: Option<std::thread::JoinHandle<StreamStats>>,
    stop: Arc<AtomicBool>,
    /// The stream's server query, shared with the driver: cancelling it
    /// wakes a driver waiting for the next arrival.
    query: Arc<QueryHandle>,
}

impl StreamHandle {
    /// Blocks for the next closed window; `None` once the stream ended
    /// and every window has been taken.
    pub fn next_window(&self) -> Option<WindowResult> {
        self.rx().recv().ok()
    }

    /// Bounded wait for the next window: `None` at the timeout — the
    /// stream may well still be running (an unbounded source never
    /// "completes"; this is the poll loop's building block).
    /// `Duration::ZERO` takes a window only if one has already closed.
    pub fn next_window_deadline(&self, timeout: Duration) -> Option<WindowResult> {
        self.rx().recv_timeout(timeout).ok()
    }

    fn rx(&self) -> MutexGuard<'_, Receiver<WindowResult>> {
        self.rx.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Stops the stream: no further GOP is appended, and every appended
    /// GOP no producer has claimed yet is cancelled (its frames count as
    /// dropped, once); GOPs already being produced complete.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.query.cancel();
    }

    /// Waits for the stream to end (call [`StreamHandle::stop`] first
    /// for unbounded sources) and returns the final stats. Windows not
    /// yet taken from the handle are discarded — drain with
    /// [`StreamHandle::next_window`] first if you want them.
    pub fn finish(mut self) -> StreamStats {
        let join = self.join.take().expect("finish consumes the only join");
        join.join().expect("stream driver panicked")
    }
}

impl Drop for StreamHandle {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            self.stop();
            let _ = join.join();
        }
    }
}

/// Starts a continuous query: derives the serving ladder from the query's
/// constraint ([`Session::stream_ladder`]), opens **one** server query on
/// its rungs, then spawns a driver thread that appends `source`'s GOPs at
/// their arrival times on the rung `cfg.policy` picks, and rolls per-frame
/// values of `count` (called as `count(stream_frame_position,
/// &decoded_frame)`) into tumbling windows.
///
/// Planning and admission errors surface synchronously (admission may
/// block like any submission); everything after is reported through the
/// returned [`StreamHandle`].
pub fn run_stream<S, F>(
    session: &Arc<Session>,
    query: &Query,
    source: S,
    cfg: StreamConfig,
    count: F,
) -> Result<StreamHandle, SessionError>
where
    S: StreamSource + Send + 'static,
    F: Fn(usize, &ImageU8) -> f64 + Send + Sync + 'static,
{
    let ladder = session.stream_ladder(query)?;
    let (base, deeper) = ladder
        .rungs
        .split_first()
        .expect("a stream ladder holds at least the chosen plan");
    let positions = Arc::new(Positions::default());
    let frame_positions = Arc::clone(&positions);
    let request = SubmitRequest::new(base.plan.clone(), Vec::new())
        .options(SubmitOptions {
            priority: cfg.priority,
            // The pacer picks each GOP's rung among these at append.
            ladder: deeper.to_vec(),
            accuracy: Some(base.accuracy),
            accuracy_floor: ladder.accuracy_floor,
            ..SubmitOptions::default()
        })
        .infer(move |output, img: &ImageU8| {
            let pos = frame_positions.of(output);
            (pos, count(pos, img))
        })
        .open();
    let open = Arc::new(session.server().submit(request)?);
    let stop = Arc::new(AtomicBool::new(false));
    // Unbounded: one message per window, and the driver stops producing
    // once asked to stop. (A `sync_channel` would allocate its whole
    // capacity up front.)
    let (tx, rx) = mpsc::channel();
    let fps = source.fps().max(1e-6);
    let fpw = ((cfg.window_s * fps).round() as usize).max(1);
    let driver = Driver {
        query: Arc::clone(&open),
        ladder,
        positions,
        next_output: 0,
        cfg,
        tx,
        stop: Arc::clone(&stop),
        start: Instant::now(),
        fps,
        scale: source.time_scale().max(1e-9),
        fpw,
        rollup: WindowRollup::new(fpw),
        accts: BTreeMap::new(),
        in_flight: BTreeMap::new(),
        stats: StreamStats::default(),
        lags: Vec::new(),
        output_lags: Vec::new(),
        coverage_sum: 0.0,
        arrived_frames: 0,
        source_done: false,
    };
    // The driver keeps the session (and so the server) alive.
    let session = Arc::clone(session);
    let join = std::thread::Builder::new()
        .name("smol-stream".into())
        .spawn(move || {
            let _session = session;
            driver.run(source)
        })
        .expect("spawn stream driver");
    Ok(StreamHandle {
        rx: Mutex::new(rx),
        join: Some(join),
        stop,
        query: open,
    })
}

// ---------------------------------------------------------------------------
// Driver internals
// ---------------------------------------------------------------------------

/// The stream positions of the frames each in-flight GOP's rung selects,
/// keyed by the GOP's first output index: the frame callback runs on the
/// server's consumer threads and sees only output indices.
#[derive(Default)]
struct Positions(Mutex<BTreeMap<usize, Vec<usize>>>);

impl Positions {
    fn map(&self) -> MutexGuard<'_, BTreeMap<usize, Vec<usize>>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn of(&self, output: usize) -> usize {
        let map = self.map();
        let (first, frames) = map.range(..=output).next_back().expect("registered");
        frames[output - first]
    }
}

/// One appended GOP whose completion has not come back yet.
struct InFlight {
    arrival: Duration,
    start_frame: usize,
    n_frames: usize,
    rung: usize,
    /// Its first output index, when its rung selects any frame.
    first_output: Option<usize>,
}

/// Per-window live accounting (drained when the window closes).
#[derive(Default)]
struct WinAcct {
    /// Appended GOPs overlapping this window and not yet completed.
    outstanding: usize,
    /// Frames covered by GOPs that produced at least one output.
    covered: usize,
    decoded: usize,
    downgraded: usize,
    dropped: usize,
}

/// The window spans a GOP's frames fall into: `(window index, frames)`.
fn window_spans(start: usize, n: usize, fpw: usize) -> Vec<(usize, usize)> {
    let end = start + n;
    let mut out = Vec::new();
    let mut pos = start;
    while pos < end {
        let w = pos / fpw;
        let wend = ((w + 1) * fpw).min(end);
        out.push((w, wend - pos));
        pos = wend;
    }
    out
}

struct Driver {
    /// The stream's one server query, open until the source ends.
    query: Arc<QueryHandle>,
    ladder: StreamLadder,
    positions: Arc<Positions>,
    /// The output index the next appended GOP's first frame takes.
    next_output: usize,
    cfg: StreamConfig,
    tx: mpsc::Sender<WindowResult>,
    stop: Arc<AtomicBool>,
    start: Instant,
    fps: f64,
    scale: f64,
    /// Frames per window.
    fpw: usize,
    rollup: WindowRollup,
    accts: BTreeMap<usize, WinAcct>,
    /// Appended GOPs not yet completed, by item index.
    in_flight: BTreeMap<usize, InFlight>,
    stats: StreamStats,
    lags: Vec<f64>,
    output_lags: Vec<f64>,
    coverage_sum: f64,
    /// One past the highest frame position that has arrived.
    arrived_frames: usize,
    source_done: bool,
}

impl Driver {
    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    fn run<S: StreamSource>(mut self, mut source: S) -> StreamStats {
        while !self.stopped() {
            let Some(sg) = source.next_gop() else {
                break;
            };
            // Until the GOP arrives, take completions and close windows
            // as they come (a stop wakes this wait: see `StreamHandle`).
            self.integrate_until(self.start + sg.arrival);
            if self.stopped() {
                break;
            }
            let n = sg.gop.n_frames();
            self.stats.gops_arrived += 1;
            self.stats.frames_total += n;
            self.arrived_frames = self.arrived_frames.max(sg.start_frame + n);
            self.pace(sg);
            self.close_ready();
        }
        // No more GOPs. A stop has already cancelled every GOP no producer
        // had claimed (they complete as dropped); the rest run to the end,
        // bounded so a wedged server can't hang us.
        self.query.close();
        let deadline = Instant::now() + Duration::from_secs(60);
        while !self.in_flight.is_empty() {
            let Some(completion) = self.query.next_completion(deadline) else {
                break;
            };
            self.integrate(completion);
            self.close_ready();
        }
        // Whatever is still unresolved is lost to the stream: account its
        // frames as dropped and release its windows so they can close.
        for gop in std::mem::take(&mut self.in_flight).into_values() {
            for (w, _) in window_spans(gop.start_frame, gop.n_frames, self.fpw) {
                let acct = self.accts.entry(w).or_default();
                acct.outstanding = acct.outstanding.saturating_sub(1);
            }
            self.drop_frames(gop.start_frame, gop.n_frames);
        }
        self.source_done = true;
        self.close_ready();
        self.finalize()
    }

    /// Integrates completions as they arrive until `deadline`, or until
    /// the query has resolved.
    fn integrate_until(&mut self, deadline: Instant) {
        while let Some(completion) = self.query.next_completion(deadline) {
            self.integrate(completion);
            self.close_ready();
        }
    }

    /// Appends an arrived GOP on the rung the pacing policy picks for the
    /// current lag — "drop" is the rung past the end, which the query
    /// counts as skipped.
    fn pace(&mut self, sg: StreamGop) {
        let now_s = self.start.elapsed().as_secs_f64();
        let lag = self
            .in_flight
            .values()
            .map(|gop| now_s - gop.arrival.as_secs_f64())
            .fold(0.0, f64::max);
        let rungs = self.ladder.rungs.len();
        let rung = match self.cfg.policy.decide(lag, rungs) {
            PaceDecision::Drop => rungs,
            PaceDecision::Submit { rung } => rung.min(rungs - 1),
        };
        let (start_frame, n_frames) = (sg.start_frame, sg.gop.n_frames());
        // The stream positions of the frames the rung selects, registered
        // under the GOP's first output before a producer can see it.
        let selection = self
            .ladder
            .rungs
            .get(rung)
            .map(|step| match step.plan.decode {
                DecodeMode::Video { selection, .. } => selection,
                _ => FrameSelection::All,
            });
        let frames = (0..n_frames).filter(|&p| selection.is_some_and(|s| s.selects(p)));
        let frames: Vec<usize> = frames.map(|p| start_frame + p).collect();
        let first_output = (!frames.is_empty()).then_some(self.next_output);
        if let Some(first) = first_output {
            self.next_output += frames.len();
            self.positions.map().insert(first, frames);
        }
        match self.query.append(MediaItem::Gop(sg.gop), rung) {
            Ok(item) if rung < rungs => {
                self.stats.gops_submitted += 1;
                self.stats.max_rung = self.stats.max_rung.max(rung);
                self.stats.gops_downgraded += usize::from(rung > 0);
                for (w, _) in window_spans(start_frame, n_frames, self.fpw) {
                    self.accts.entry(w).or_default().outstanding += 1;
                }
                let arrival = sg.arrival;
                let gop = InFlight {
                    arrival,
                    start_frame,
                    n_frames,
                    rung,
                    first_output,
                };
                self.in_flight.insert(item, gop);
            }
            // Dropped by the pacer, or refused: the stream was stopped.
            _ => {
                if let Some(first) = first_output {
                    self.positions.map().remove(&first);
                    self.next_output = first;
                }
                self.stats.gops_dropped += 1;
                self.drop_frames(start_frame, n_frames);
            }
        }
    }

    /// Charges `n` frames from stream position `start` as dropped.
    fn drop_frames(&mut self, start: usize, n: usize) {
        self.stats.frames_dropped += n;
        for (w, span) in window_spans(start, n, self.fpw) {
            self.accts.entry(w).or_default().dropped += span;
        }
    }

    /// Integrates one completed GOP.
    fn integrate(&mut self, completion: Completion) {
        let Some(gop) = self.in_flight.remove(&completion.item) else {
            return;
        };
        if let Some(first) = gop.first_output {
            self.positions.map().remove(&first);
        }
        let now_s = self.start.elapsed().as_secs_f64();
        self.lags.push((now_s - gop.arrival.as_secs_f64()).max(0.0));
        let results = completion.results.into_iter().flatten();
        let mut executed = 0usize;
        for result in results.filter_map(|r| r.downcast::<(usize, f64)>().ok()) {
            let (pos, value) = *result;
            self.rollup.push(pos, value);
            let acct = self.accts.entry(pos / self.fpw).or_default();
            acct.decoded += 1;
            if gop.rung > 0 {
                acct.downgraded += 1;
            }
            executed += 1;
        }
        self.stats.frames_decoded += executed;
        if gop.rung > 0 {
            self.stats.frames_downgraded += executed;
        }
        // Failed and cancelled outputs never executed.
        self.stats.frames_dropped += completion.failed;
        if let Some(floor) = self.ladder.accuracy_floor {
            if self.ladder.rungs[gop.rung].accuracy < floor - 1e-9 {
                self.stats.floor_violations += 1;
            }
        }
        for (w, span) in window_spans(gop.start_frame, gop.n_frames, self.fpw) {
            let acct = self.accts.entry(w).or_default();
            acct.outstanding = acct.outstanding.saturating_sub(1);
            if executed > 0 {
                acct.covered += span;
            }
        }
    }

    /// Closes every window whose frames have all arrived and whose
    /// overlapping GOPs have all resolved or been shed.
    fn close_ready(&mut self) {
        loop {
            let w = self.rollup.next_window();
            let all_arrived = self.arrived_frames >= (w + 1) * self.fpw
                || (self.source_done && self.arrived_frames > w * self.fpw);
            if !all_arrived {
                return;
            }
            if self.accts.get(&w).is_some_and(|a| a.outstanding > 0) {
                return;
            }
            let acct = self.accts.remove(&w).unwrap_or_default();
            let aggs = self.rollup.drain_until(w + 1);
            let agg = &aggs[0];
            let expected = agg
                .end_frame
                .min(self.arrived_frames)
                .saturating_sub(agg.start_frame);
            let coverage = if expected > 0 {
                (acct.covered.min(expected)) as f64 / expected as f64
            } else {
                0.0
            };
            let end_stream_frame = agg.end_frame.min(self.arrived_frames);
            let end_wall_s = end_stream_frame as f64 / self.fps / self.scale;
            let output_lag_s = (self.start.elapsed().as_secs_f64() - end_wall_s).max(0.0);
            self.stats.windows += 1;
            self.coverage_sum += coverage;
            self.output_lags.push(output_lag_s);
            let _ = self.tx.send(WindowResult {
                index: agg.index,
                start_s: agg.start_frame as f64 / self.fps,
                end_s: end_stream_frame as f64 / self.fps,
                mean: agg.mean,
                samples: agg.samples,
                expected_frames: expected,
                frames_decoded: acct.decoded,
                frames_downgraded: acct.downgraded,
                frames_dropped: acct.dropped,
                coverage,
                output_lag_s,
            });
        }
    }

    fn finalize(mut self) -> StreamStats {
        self.stats.lag_p50_s = percentile(&self.lags, 0.5);
        self.stats.lag_p95_s = percentile(&self.lags, 0.95);
        self.stats.output_lag_p95_s = percentile(&self.output_lags, 0.95);
        self.stats.window_coverage = if self.stats.windows > 0 {
            self.coverage_sum / self.stats.windows as f64
        } else {
            0.0
        };
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smol_data::{timed_stream, video_catalog};

    #[test]
    fn window_spans_partition_gop_frames() {
        // GOP of 6 frames starting at frame 4, windows of 5.
        assert_eq!(window_spans(4, 6, 5), vec![(0, 1), (1, 5)]);
        assert_eq!(window_spans(0, 5, 5), vec![(0, 5)]);
        assert_eq!(window_spans(10, 3, 5), vec![(2, 3)]);
        let total: usize = window_spans(7, 23, 4).iter().map(|&(_, s)| s).sum();
        assert_eq!(total, 23);
    }

    #[test]
    fn feed_source_releases_gops_in_arrival_order() {
        let feed = timed_stream(&video_catalog()[0], 5, 3, 4, 4.0);
        let mut src = FeedSource::new(feed.clone());
        assert!((src.fps() - feed.corpus.fps).abs() < 1e-12);
        assert!((src.time_scale() - 4.0).abs() < 1e-12);
        let mut last = Duration::ZERO;
        let mut frames = 0;
        let mut n = 0;
        while let Some(sg) = src.next_gop() {
            assert!(sg.arrival >= last, "arrivals must be monotone");
            assert_eq!(sg.start_frame, frames, "stream positions are dense");
            frames += sg.gop.n_frames();
            last = sg.arrival;
            n += 1;
        }
        assert_eq!(n, 3);
        assert_eq!(frames, 12);
    }
}
