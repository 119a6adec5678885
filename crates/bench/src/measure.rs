//! The one timing estimator every gate and paper section shares: an
//! interleaved, paired A/B comparison.
//!
//! Each repetition runs both sides back to back and records the ratio of
//! their costs, alternating which side goes first so a slow drift in host
//! load (or a warm cache left by the previous call) hits both sides alike.
//! The estimate is the median of the per-rep ratios, and its spread is
//! their interquartile range over that median: pairing cancels rep-scale
//! load, the median ignores the rep where a spike landed inside one side
//! only, and a wide spread says the host was too noisy for the number to
//! mean anything.
//!
//! A side is any closure returning a cost — usually seconds from
//! [`timed`], but a latency percentile or seconds per item works the same
//! way.
//!
//! [`per_iter`] is the microbench's per-call timer: one routine, no
//! comparison. It times batches of calls, one clock pair per batch, so a
//! routine far shorter than a clock read still gets its own cost.

use std::time::{Duration, Instant};

/// Repetitions per paired measurement. Odd, so the median is one rep; at
/// seven, the quartiles are the second and sixth ranked reps — the old
/// "drop the min and the max" trimmed range.
pub const REPS: usize = 7;

/// The result of [`measure`]: side A's cost over side B's, per rep.
#[derive(Debug, Clone, PartialEq)]
pub struct Paired {
    /// Median of the per-rep `a / b` ratios: B's speedup over A when the
    /// costs are times.
    pub ratio: f64,
    /// Interquartile range of the per-rep ratios over their median.
    pub spread: f64,
    /// Median cost of side A.
    pub a: f64,
    /// Median cost of side B.
    pub b: f64,
}

/// Runs `a` and `b` [`REPS`] times each, interleaved (A first on even
/// reps, B first on odd ones), and summarises the per-rep `a / b` ratios.
pub fn measure(mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> Paired {
    let (mut costs_a, mut costs_b) = (Vec::with_capacity(REPS), Vec::with_capacity(REPS));
    for rep in 0..REPS {
        let (ca, cb) = if rep % 2 == 0 {
            let ca = a();
            (ca, b())
        } else {
            let cb = b();
            (a(), cb)
        };
        costs_a.push(ca);
        costs_b.push(cb);
    }
    let mut ratios: Vec<f64> = costs_a.iter().zip(&costs_b).map(|(a, b)| a / b).collect();
    let (ratio, spread) = median_and_spread(&mut ratios);
    Paired {
        ratio,
        spread,
        a: median(&mut costs_a),
        b: median(&mut costs_b),
    }
}

/// The result of [`per_iter`].
#[derive(Debug, Clone, PartialEq)]
pub struct PerIter {
    /// Median nanoseconds per call over the [`REPS`] timed batches.
    pub ns: f64,
    /// Interquartile range of the per-batch readings over their median.
    pub spread: f64,
    /// Calls per timed batch.
    pub batch: usize,
}

/// How long one timed batch must at least take: long enough that the
/// clock pair around it is noise.
const MIN_BATCH: Duration = Duration::from_millis(1);

/// Times `routine` per call on inputs from `setup`. The batch size doubles
/// from 1 until one batch takes at least `MIN_BATCH` (1 ms); then [`REPS`]
/// batches of that size are timed, one clock pair each. A batch's inputs
/// are all built before its clock starts, so `setup` is never timed.
pub fn per_iter<I, O>(mut setup: impl FnMut() -> I, mut routine: impl FnMut(I) -> O) -> PerIter {
    let mut time_batch = |batch: usize| {
        let inputs: Vec<I> = (0..batch).map(|_| setup()).collect();
        let start = Instant::now();
        for input in inputs {
            std::hint::black_box(routine(input));
        }
        start.elapsed()
    };
    let mut batch = 1;
    while time_batch(batch) < MIN_BATCH {
        batch *= 2;
    }
    let mut ns: Vec<f64> = (0..REPS)
        .map(|_| time_batch(batch).as_nanos() as f64 / batch as f64)
        .collect();
    let (ns, spread) = median_and_spread(&mut ns);
    PerIter { ns, spread, batch }
}

/// Seconds `f` took, with what it returned.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (start.elapsed().as_secs_f64(), out)
}

/// Sorts `values` and returns the middle one.
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|x, y| x.partial_cmp(y).expect("finite costs"));
    values[values.len() / 2]
}

/// The median of [`REPS`] readings and their interquartile range over it.
fn median_and_spread(values: &mut [f64]) -> (f64, f64) {
    let mid = median(values);
    (mid, (values[REPS * 3 / 4] - values[REPS / 4]) / mid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn sides_alternate_which_runs_first() {
        let order = RefCell::new(String::new());
        measure(
            || {
                order.borrow_mut().push('a');
                1.0
            },
            || {
                order.borrow_mut().push('b');
                1.0
            },
        );
        assert_eq!(order.into_inner(), "abbaabbaabbaab");
    }

    #[test]
    fn ratio_is_the_median_of_per_rep_ratios_and_spread_their_iqr() {
        // Side A costs 2, 3, 4, ... per call and side B always 1, so the
        // per-rep ratios are 2..=8 whatever the call order.
        let mut next_a = 1.0;
        let p = measure(
            || {
                next_a += 1.0;
                next_a
            },
            || 1.0,
        );
        assert_eq!(p.ratio, 5.0);
        assert_eq!(p.spread, (7.0 - 3.0) / 5.0);
        assert_eq!((p.a, p.b), (5.0, 1.0));
    }

    #[test]
    fn one_outlier_rep_moves_neither_the_ratio_nor_the_spread() {
        let mut rep = 0;
        let p = measure(
            || {
                rep += 1;
                if rep == 4 {
                    100.0
                } else {
                    3.0
                }
            },
            || 2.0,
        );
        assert_eq!((p.ratio, p.spread), (1.5, 0.0));
    }

    #[test]
    fn per_iter_doubles_the_batch_then_times_reps_batches_of_fresh_inputs() {
        let (mut built, mut ran) = (0, 0);
        let p = per_iter(
            || built += 1,
            |()| {
                ran += 1;
                std::thread::sleep(Duration::from_micros(300));
            },
        );
        // Batches of 1, 2, ..., `batch` to calibrate, then REPS of `batch`,
        // each call on its own input.
        assert!(p.batch.is_power_of_two() && p.batch <= 4, "{p:?}");
        assert_eq!(ran, 2 * p.batch - 1 + REPS * p.batch);
        assert_eq!(built, ran);
        assert!(p.ns >= 300e3, "a sleep never undershoots: {p:?}");
    }

    #[test]
    fn timed_returns_the_closure_output() {
        let (secs, out) = timed(|| 7);
        assert_eq!(out, 7);
        assert!(secs >= 0.0);
    }
}
