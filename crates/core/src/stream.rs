//! Pacing vocabulary for live-stream serving.
//!
//! A live source produces GOPs at wall-clock rate; the serving side can
//! only keep up by spending less per GOP when it falls behind. The
//! [`PacingPolicy`] maps the stream's observed *lag* — how far behind
//! arrival the oldest unresolved GOP is — onto a rung of the query's
//! calibrated degradation ladder, and past a hard bound onto dropping
//! the GOP outright. The policy is a pure function of (lag, ladder
//! depth), so schedulers stay deterministic and unit-testable; the
//! ladder itself (which plans the rungs are, what accuracy they carry)
//! comes from the planner's Pareto frontier exactly as in batch
//! degradation.

/// What to do with a newly arrived GOP given the stream's current lag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaceDecision {
    /// Submit on ladder rung `rung` (0 = the originally chosen plan,
    /// deeper rungs are cheaper/less accurate).
    Submit { rung: usize },
    /// Shed the GOP entirely: past the drop bound, decoding it at any
    /// fidelity would only push the backlog further out.
    Drop,
}

/// Deadline-driven pacing: lag below `target_lag_s` runs the chosen
/// plan, lag at or above `drop_lag_s` drops GOPs, and lag in between
/// walks the degradation ladder proportionally (deblock-skip and
/// keyframe selections first — whatever the calibrated ladder orders
/// next). With `enabled: false` (the lesion) every GOP runs the
/// full plan and nothing is ever dropped, so an overloaded stream's lag
/// grows without bound — exactly the failure mode pacing exists to
/// prevent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacingPolicy {
    /// Lesion switch: `false` disables downgrading *and* dropping.
    pub enabled: bool,
    /// Lag (seconds) up to which the stream is considered on time.
    pub target_lag_s: f64,
    /// Lag (seconds) at which GOPs are shed instead of submitted.
    pub drop_lag_s: f64,
}

impl Default for PacingPolicy {
    fn default() -> Self {
        PacingPolicy {
            enabled: true,
            target_lag_s: 1.0,
            drop_lag_s: 4.0,
        }
    }
}

impl PacingPolicy {
    /// A policy that never downgrades or drops (the pacing lesion).
    pub fn disabled() -> Self {
        PacingPolicy {
            enabled: false,
            ..Default::default()
        }
    }

    /// Decides what to do with a GOP arriving while the stream's oldest
    /// unresolved work is `lag_s` seconds behind its arrival deadline.
    /// `n_rungs` is the ladder depth *including* rung 0 (the chosen
    /// plan); with `n_rungs <= 1` there is nothing to downgrade to and
    /// the decision is submit-or-drop only.
    pub fn decide(&self, lag_s: f64, n_rungs: usize) -> PaceDecision {
        if !self.enabled {
            return PaceDecision::Submit { rung: 0 };
        }
        if lag_s >= self.drop_lag_s {
            return PaceDecision::Drop;
        }
        if lag_s <= self.target_lag_s || n_rungs <= 1 {
            return PaceDecision::Submit { rung: 0 };
        }
        // Proportional: just past target → first downgrade rung, just
        // under the drop bound → the deepest rung.
        let span = (self.drop_lag_s - self.target_lag_s).max(f64::EPSILON);
        let frac = (lag_s - self.target_lag_s) / span;
        let rung = (frac * n_rungs as f64).ceil() as usize;
        PaceDecision::Submit {
            rung: rung.clamp(1, n_rungs - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn on_time_streams_run_the_chosen_plan() {
        let p = PacingPolicy::default();
        assert_eq!(p.decide(0.0, 4), PaceDecision::Submit { rung: 0 });
        assert_eq!(p.decide(1.0, 4), PaceDecision::Submit { rung: 0 });
    }

    #[test]
    fn lag_walks_the_ladder_monotonically_to_drop() {
        let p = PacingPolicy {
            enabled: true,
            target_lag_s: 1.0,
            drop_lag_s: 4.0,
        };
        let mut last = 0;
        for lag in [1.1, 2.0, 3.0, 3.9] {
            let PaceDecision::Submit { rung } = p.decide(lag, 4) else {
                panic!("lag {lag} must still submit");
            };
            assert!(rung >= last, "rung must not shrink as lag grows");
            assert!((1..=3).contains(&rung));
            last = rung;
        }
        assert_eq!(last, 3, "near the drop bound the deepest rung runs");
        assert_eq!(p.decide(4.0, 4), PaceDecision::Drop);
        assert_eq!(p.decide(100.0, 4), PaceDecision::Drop);
    }

    #[test]
    fn single_rung_ladders_only_submit_or_drop() {
        let p = PacingPolicy::default();
        assert_eq!(p.decide(2.0, 1), PaceDecision::Submit { rung: 0 });
        assert_eq!(p.decide(2.0, 0), PaceDecision::Submit { rung: 0 });
        assert_eq!(p.decide(9.0, 1), PaceDecision::Drop);
    }

    #[test]
    fn disabled_policy_never_degrades_or_drops() {
        let p = PacingPolicy::disabled();
        assert_eq!(p.decide(1e9, 8), PaceDecision::Submit { rung: 0 });
    }
}
