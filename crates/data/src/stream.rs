//! Timed GOP sources — the live-stream counterpart of [`crate::gops`].
//!
//! A batch corpus hands the server every GOP at once; a *stream* releases
//! them at wall-clock rate. [`StreamFeed`] pairs a [`GopCorpus`] with a
//! per-GOP arrival schedule derived from the scene's frame rate: GOP `i`
//! becomes available once its last frame has been captured, i.e. at
//! stream time `(i + 1) * gop_len / fps`. A `time_scale` compresses the
//! schedule so CI-scale runs don't wait out real seconds — `time_scale:
//! 10.0` plays a 10-second clip in one wall second, which is exactly the
//! "camera is faster than the decoder" overload the pacing scheduler
//! exists for.

use crate::catalog::VideoSpec;
use crate::gops::{gop_corpus, GopCorpus};
use std::time::Duration;

/// A GOP corpus with a wall-clock arrival schedule: the registration
/// unit of `Dataset::stream` and the input of a live-stream runner.
#[derive(Debug, Clone)]
pub struct StreamFeed {
    /// The encoded scene (also carries per-frame ground-truth counts).
    pub corpus: GopCorpus,
    /// Wall-clock arrival offset of each GOP, relative to stream start
    /// (already divided by `time_scale`; same length as `corpus.gops`).
    pub arrivals: Vec<Duration>,
    /// Stream-seconds per wall-second (1.0 = real time).
    pub time_scale: f64,
}

impl StreamFeed {
    /// Wraps an existing corpus in an arrival schedule. `time_scale > 1`
    /// compresses stream time into less wall time (overload).
    pub fn new(corpus: GopCorpus, time_scale: f64) -> Self {
        let scale = if time_scale > 0.0 { time_scale } else { 1.0 };
        let fps = if corpus.fps > 0.0 { corpus.fps } else { 30.0 };
        let mut elapsed_frames = 0usize;
        let arrivals = corpus
            .gops
            .iter()
            .map(|g| {
                elapsed_frames += g.n_frames();
                Duration::from_secs_f64(elapsed_frames as f64 / fps / scale)
            })
            .collect();
        StreamFeed {
            corpus,
            arrivals,
            time_scale: scale,
        }
    }

    /// GOPs in the feed.
    pub fn len(&self) -> usize {
        self.corpus.gops.len()
    }

    /// True when the feed carries no GOPs.
    pub fn is_empty(&self) -> bool {
        self.corpus.gops.is_empty()
    }
}

/// Generates a timed stream for a catalog scene: a [`gop_corpus`] of
/// `n_gops` × `gop_len` frames whose GOPs arrive on the scene's own
/// frame-rate schedule, compressed by `time_scale`.
pub fn timed_stream(
    spec: &VideoSpec,
    seed: u64,
    n_gops: usize,
    gop_len: usize,
    time_scale: f64,
) -> StreamFeed {
    StreamFeed::new(gop_corpus(spec, seed, n_gops, gop_len), time_scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::video_catalog;

    #[test]
    fn arrivals_follow_the_frame_rate() {
        let spec = &video_catalog()[0];
        let feed = timed_stream(spec, 7, 3, 4, 1.0);
        assert_eq!(feed.len(), 3);
        assert_eq!(feed.arrivals.len(), 3);
        let per_gop = 4.0 / spec.fps;
        for (i, arrival) in feed.arrivals.iter().enumerate() {
            let expect = (i + 1) as f64 * per_gop;
            assert!(
                (arrival.as_secs_f64() - expect).abs() < 1e-9,
                "GOP {i} must arrive once its last frame is captured"
            );
        }
    }

    #[test]
    fn time_scale_compresses_the_schedule() {
        let spec = &video_catalog()[1];
        let real = timed_stream(spec, 7, 2, 4, 1.0);
        let fast = timed_stream(spec, 7, 2, 4, 8.0);
        for (r, f) in real.arrivals.iter().zip(&fast.arrivals) {
            assert!((r.as_secs_f64() / f.as_secs_f64() - 8.0).abs() < 1e-6);
        }
        // Content is identical — only the clock changes.
        assert_eq!(real.corpus.counts, fast.corpus.counts);
        assert_eq!(real.corpus.size_bytes(), fast.corpus.size_bytes());
    }
}
