//! Windowed rollups for continuous queries.
//!
//! A live stream never finishes, so its results surface as per-window
//! aggregates: frames land in fixed-size tumbling windows by stream
//! position, each window accumulates an online mean of its per-frame
//! values (e.g. object counts), and closes once the stream has moved
//! past it. [`WindowRollup`] is the bookkeeping core shared by the
//! stream runner: pure accumulation, no clocks, no threads — the pacing
//! scheduler owns time, this owns arithmetic.

/// One closed window's aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowAggregate {
    /// Window position in the stream (0 = the first window).
    pub index: usize,
    /// First frame position the window covers (inclusive).
    pub start_frame: usize,
    /// One past the last frame position the window covers.
    pub end_frame: usize,
    /// Frames that contributed a value (≤ `end_frame - start_frame`
    /// when frames were dropped or deselected).
    pub samples: usize,
    /// Mean of the contributed values (0.0 for an empty window).
    pub mean: f64,
}

impl WindowAggregate {
    /// Fraction of the window's frames that contributed a value.
    pub fn coverage(&self) -> f64 {
        let span = self.end_frame.saturating_sub(self.start_frame);
        if span == 0 {
            return 0.0;
        }
        self.samples as f64 / span as f64
    }
}

/// Tumbling-window mean accumulator keyed by stream frame position.
///
/// Values may arrive out of order (parallel producers resolve GOPs out
/// of sequence); a window is only read out when the caller decides the
/// stream has passed it, via [`WindowRollup::drain_until`].
#[derive(Debug)]
pub struct WindowRollup {
    frames_per_window: usize,
    /// Open windows, indexed by `window_index - base_index`.
    open: std::collections::VecDeque<(usize, f64)>,
    /// Window index of `open[0]`.
    base_index: usize,
}

impl WindowRollup {
    /// A rollup over tumbling windows of `frames_per_window` frames
    /// (clamped to ≥ 1).
    pub fn new(frames_per_window: usize) -> Self {
        WindowRollup {
            frames_per_window: frames_per_window.max(1),
            open: std::collections::VecDeque::new(),
            base_index: 0,
        }
    }

    /// The window index a frame position falls into.
    fn window_of(&self, frame_pos: usize) -> usize {
        frame_pos / self.frames_per_window
    }

    /// Adds one frame's value. Values for windows already drained are
    /// discarded (the stream has moved on — late data past its window
    /// is exactly the staleness pacing bounds).
    pub fn push(&mut self, frame_pos: usize, value: f64) {
        let w = self.window_of(frame_pos);
        if w < self.base_index {
            return;
        }
        let slot = w - self.base_index;
        while self.open.len() <= slot {
            self.open.push_back((0, 0.0));
        }
        let (n, sum) = &mut self.open[slot];
        *n += 1;
        *sum += value;
    }

    /// Closes and returns every window with index `< end_window`, in
    /// order, including windows that received no values (they report
    /// `samples: 0` — a gap is a result, not an absence of one).
    pub fn drain_until(&mut self, end_window: usize) -> Vec<WindowAggregate> {
        let mut out = Vec::new();
        while self.base_index < end_window {
            let (samples, sum) = self.open.pop_front().unwrap_or((0, 0.0));
            let index = self.base_index;
            self.base_index += 1;
            out.push(WindowAggregate {
                index,
                start_frame: index * self.frames_per_window,
                end_frame: (index + 1) * self.frames_per_window,
                samples,
                mean: if samples > 0 {
                    sum / samples as f64
                } else {
                    0.0
                },
            });
        }
        out
    }

    /// Next window index that has not been drained yet.
    pub fn next_window(&self) -> usize {
        self.base_index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_partition_frames_and_average_values() {
        let mut r = WindowRollup::new(4);
        for pos in 0..8 {
            r.push(pos, pos as f64);
        }
        let closed = r.drain_until(2);
        assert_eq!(closed.len(), 2);
        assert_eq!(closed[0].index, 0);
        assert_eq!((closed[0].start_frame, closed[0].end_frame), (0, 4));
        assert_eq!(closed[0].samples, 4);
        assert!((closed[0].mean - 1.5).abs() < 1e-12);
        assert!((closed[1].mean - 5.5).abs() < 1e-12);
        assert!((closed[0].coverage() - 1.0).abs() < 1e-12);
        assert_eq!(r.next_window(), 2);
    }

    #[test]
    fn out_of_order_and_partial_windows() {
        let mut r = WindowRollup::new(3);
        r.push(5, 10.0); // window 1 before window 0 sees anything
        r.push(0, 2.0);
        let closed = r.drain_until(2);
        assert_eq!(closed[0].samples, 1);
        assert!((closed[0].mean - 2.0).abs() < 1e-12);
        assert!((closed[0].coverage() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(closed[1].samples, 1);
        assert!((closed[1].mean - 10.0).abs() < 1e-12);
    }

    #[test]
    fn empty_windows_still_report_and_late_values_are_discarded() {
        let mut r = WindowRollup::new(2);
        let closed = r.drain_until(2); // nothing pushed at all
        assert_eq!(closed.len(), 2);
        assert_eq!(closed[0].samples, 0);
        assert_eq!(closed[0].mean, 0.0);
        assert_eq!(closed[0].coverage(), 0.0);
        // Frame 1 belongs to window 0, which is already closed.
        r.push(1, 99.0);
        let later = r.drain_until(3);
        assert_eq!(later.len(), 1);
        assert_eq!(later[0].index, 2);
        assert_eq!(later[0].samples, 0);
    }

    #[test]
    fn empty_window_closes_between_populated_neighbours() {
        // Deadline dropping can starve a whole window mid-stream; the gap
        // must surface as an empty aggregate in sequence, and draining it
        // must not disturb the accumulation already sitting in the window
        // after it.
        let mut r = WindowRollup::new(2);
        r.push(0, 4.0); // window 0
        r.push(5, 8.0); // window 2 — window 1 never sees a frame
        let closed = r.drain_until(2);
        assert_eq!(closed.len(), 2);
        assert_eq!(closed[0].samples, 1);
        assert_eq!(closed[1].index, 1);
        assert_eq!(closed[1].samples, 0);
        assert_eq!(closed[1].mean, 0.0);
        assert_eq!((closed[1].start_frame, closed[1].end_frame), (2, 4));
        // Window 2 kept its value through the drain of the empty gap.
        let tail = r.drain_until(3);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].samples, 1);
        assert!((tail[0].mean - 8.0).abs() < 1e-12);
    }

    #[test]
    fn gop_spanning_a_window_boundary_splits_by_frame_position() {
        // A 4-frame GOP decoded as a unit resolves frames 2..6 together,
        // but windows are keyed by frame position: the first half belongs
        // to window 0, the second to window 1, regardless of arrival
        // order within the GOP.
        let mut r = WindowRollup::new(4);
        for &pos in &[5, 2, 4, 3] {
            r.push(pos, pos as f64);
        }
        let closed = r.drain_until(2);
        assert_eq!(closed[0].samples, 2); // frames 2, 3
        assert!((closed[0].mean - 2.5).abs() < 1e-12);
        assert!((closed[0].coverage() - 0.5).abs() < 1e-12);
        assert_eq!(closed[1].samples, 2); // frames 4, 5
        assert!((closed[1].mean - 4.5).abs() < 1e-12);
    }

    #[test]
    fn zero_frames_per_window_clamps_to_one() {
        // A zero-fps stream config would otherwise divide by zero in
        // `window_of`; the constructor clamps to one-frame windows.
        let mut r = WindowRollup::new(0);
        assert_eq!(r.window_of(7), 7);
        r.push(0, 3.0);
        r.push(1, 5.0);
        let closed = r.drain_until(2);
        assert_eq!(closed.len(), 2);
        assert_eq!(closed[0].samples, 1);
        assert!((closed[0].mean - 3.0).abs() < 1e-12);
        assert!((closed[1].mean - 5.0).abs() < 1e-12);
        assert!((closed[0].coverage() - 1.0).abs() < 1e-12);
    }
}
