//! Declarative query constraints and typed planning errors (§3.1).
//!
//! The paper's user-facing contract is declarative: "the user provides an
//! accuracy target, Smol picks the plan." This module is that contract's
//! vocabulary — a [`Constraint`] states *what* the caller needs and
//! [`Constraint::select`] resolves it over enumerated [`PlanCandidate`]s,
//! returning a typed [`PlanError`] instead of a panic, `None`, or an empty
//! `Vec` when no plan qualifies.
//!
//! # Constraint semantics
//!
//! Every constraint is a **floor, not a target**: it partitions the
//! candidate set into feasible and infeasible plans and then optimizes the
//! *other* axis over the feasible set. Concretely:
//!
//! * [`Constraint::MinAccuracy`] — feasible plans have `accuracy >= floor`;
//!   among them the **fastest** (highest estimated throughput) wins.
//! * [`Constraint::MaxAccuracyLoss`] — a relative accuracy floor: the floor
//!   is `best_accuracy - loss`, where `best_accuracy` is the highest
//!   accuracy any candidate achieves. A loss of `0.0` therefore asks for
//!   the most accurate plan (fastest among accuracy ties).
//! * [`Constraint::MinThroughput`] — feasible plans have
//!   `est_throughput >= floor`; among them the **most accurate** wins.
//!
//! **Tie-breaking on the frontier:** when two feasible plans tie on the
//! optimized axis, the one better on the *constrained* axis wins (for
//! accuracy floors: the more accurate of two equally fast plans; for
//! throughput floors: the faster of two equally accurate plans). This
//! keeps selection deterministic and means a selected plan is always
//! Pareto-optimal within the feasible set.
//!
//! Selection is monotone: tightening an accuracy floor never yields a
//! *less* accurate plan than a looser one (it can only shrink the feasible
//! set from the fast/inaccurate end), and symmetrically for throughput
//! floors. `tests/session_api.rs` property-tests exactly this.

use crate::plan::PlanCandidate;
use std::cmp::Ordering;

/// Typed planning failures. The planner and the serve-layer `Session`
/// surface these instead of panicking or returning empty collections.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// No candidate plans exist: the spec list was empty, or no
    /// (DNN, variant) pair had calibration data.
    NoCandidates,
    /// Candidates exist but none satisfies the constraint.
    /// `best_accuracy` is the highest accuracy any candidate achieves, so
    /// callers can relax toward something attainable.
    Infeasible { best_accuracy: f64 },
    /// Reduced-resolution decoding exists only for factors 2, 4, and 8
    /// (the scaled-IDCT bases; §6.4).
    InvalidDecodeFactor { factor: u8 },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NoCandidates => write!(f, "no candidate plans to choose from"),
            PlanError::Infeasible { best_accuracy } => write!(
                f,
                "no plan satisfies the constraint (best achievable accuracy: {:.4})",
                best_accuracy
            ),
            PlanError::InvalidDecodeFactor { factor } => {
                write!(
                    f,
                    "reduced-resolution decode factor {factor} not in {{2, 4, 8}}"
                )
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Orders two candidates by calibrated accuracy (finite by contract:
/// accuracies come from calibration).
fn by_accuracy(a: &PlanCandidate, b: &PlanCandidate) -> Ordering {
    a.accuracy
        .partial_cmp(&b.accuracy)
        .expect("finite accuracy")
}

/// Orders two candidates by estimated throughput (finite by contract:
/// estimates come from profiling).
fn by_throughput(a: &PlanCandidate, b: &PlanCandidate) -> Ordering {
    a.est_throughput
        .partial_cmp(&b.est_throughput)
        .expect("finite throughput")
}

/// A declarative query constraint. See the module docs for the exact
/// floor/tie-breaking semantics of each variant.
///
/// ```
/// use smol_accel::ModelKind;
/// use smol_codec::Format;
/// use smol_core::{
///     Constraint, DecodeMode, InputVariant, PlanCandidate, PlanError, QueryPlan,
/// };
/// use smol_imgproc::PreprocPlan;
///
/// let cand = |accuracy: f64, tput: f64| PlanCandidate {
///     plan: QueryPlan {
///         dnn: ModelKind::ResNet50,
///         input: InputVariant::new("v", Format::Spng, 100, 100),
///         preproc: PreprocPlan::thumbnail(224, 224),
///         decode: DecodeMode::Full,
///         batch: 64,
///     },
///     preproc_throughput: tput,
///     exec_throughput: tput,
///     est_throughput: tput,
///     accuracy,
///     cascade: None,
///     placement: None,
/// };
/// let ladder = vec![cand(0.70, 1000.0), cand(0.80, 500.0), cand(0.90, 100.0)];
/// // Floors, not targets: the fastest plan at or above the floor wins.
/// let chosen = Constraint::MinAccuracy(0.75).select(&ladder).unwrap();
/// assert_eq!((chosen.accuracy, chosen.est_throughput), (0.80, 500.0));
/// // Infeasible floors fail typed, carrying the best achievable accuracy.
/// assert_eq!(
///     Constraint::MinAccuracy(0.95).select(&ladder).unwrap_err(),
///     PlanError::Infeasible { best_accuracy: 0.90 },
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Constraint {
    /// Accuracy within `loss` of the best candidate; fastest such plan.
    MaxAccuracyLoss(f64),
    /// Absolute accuracy floor; fastest plan at or above it.
    MinAccuracy(f64),
    /// Estimated-throughput floor (im/s); most accurate plan at or above.
    MinThroughput(f64),
}

impl Constraint {
    /// Resolves the constraint over a candidate set. Errors with
    /// [`PlanError::NoCandidates`] on an empty set and
    /// [`PlanError::Infeasible`] when no candidate qualifies.
    ///
    /// Accuracies and throughput estimates must be finite (they come from
    /// calibration and profiling, which only produce finite values).
    pub fn select<'a>(
        &self,
        candidates: &'a [PlanCandidate],
    ) -> Result<&'a PlanCandidate, PlanError> {
        if candidates.is_empty() {
            return Err(PlanError::NoCandidates);
        }
        let best_accuracy = candidates
            .iter()
            .map(|c| c.accuracy)
            .fold(f64::NEG_INFINITY, f64::max);
        let infeasible = PlanError::Infeasible { best_accuracy };
        match *self {
            Constraint::MaxAccuracyLoss(loss) => {
                Self::fastest_above(candidates, best_accuracy - loss).ok_or(infeasible)
            }
            Constraint::MinAccuracy(floor) => {
                Self::fastest_above(candidates, floor).ok_or(infeasible)
            }
            Constraint::MinThroughput(floor) => {
                Self::most_accurate_above(candidates, floor).ok_or(infeasible)
            }
        }
    }

    /// Fastest plan with `accuracy >= floor`; accuracy breaks throughput
    /// ties.
    fn fastest_above(candidates: &[PlanCandidate], floor: f64) -> Option<&PlanCandidate> {
        candidates
            .iter()
            .filter(|c| c.accuracy >= floor)
            .max_by(|a, b| by_throughput(a, b).then(by_accuracy(a, b)))
    }

    /// Most accurate plan with `est_throughput >= floor`; throughput breaks
    /// accuracy ties.
    fn most_accurate_above(candidates: &[PlanCandidate], floor: f64) -> Option<&PlanCandidate> {
        candidates
            .iter()
            .filter(|c| c.est_throughput >= floor)
            .max_by(|a, b| by_accuracy(a, b).then(by_throughput(a, b)))
    }

    /// The accuracy floor this constraint implies over `candidates` — the
    /// hard lower bound any plan serving the query must respect, even
    /// under load-adaptive degradation. Accuracy constraints return their
    /// (absolute or best-relative) floor; a throughput constraint imposes
    /// none (`f64::NEG_INFINITY` — any calibrated plan qualifies,
    /// degradation can only help it).
    pub fn accuracy_floor(&self, candidates: &[PlanCandidate]) -> f64 {
        match *self {
            Constraint::MaxAccuracyLoss(loss) => {
                let best = candidates
                    .iter()
                    .map(|c| c.accuracy)
                    .fold(f64::NEG_INFINITY, f64::max);
                best - loss
            }
            Constraint::MinAccuracy(floor) => floor,
            Constraint::MinThroughput(_) => f64::NEG_INFINITY,
        }
    }

    /// The rungs a serving policy may move a query between: every uniform
    /// candidate at or above the constraint's accuracy floor, ordered
    /// most-accurate-first (each step down trades the least accuracy for
    /// more throughput). Every rung is calibrated and constraint-feasible,
    /// so a query served from any of them never violates its original
    /// floor.
    ///
    /// Cascade candidates never become rungs: a rung is swapped in
    /// mid-query (load degradation) or submitted as a bare plan (stream
    /// pacing), and either would drop the per-item routing the cascade was
    /// costed with. Their *full-rung* plans are enumerated separately as
    /// uniform candidates anyway.
    ///
    /// Feed it the Pareto frontier for a minimal ladder, or the full
    /// enumeration for a denser one; dominated rungs are harmless (they
    /// are merely never worth stepping to).
    pub fn feasible_rungs(&self, candidates: &[PlanCandidate]) -> Vec<PlanCandidate> {
        let floor = self.accuracy_floor(candidates);
        let mut rungs: Vec<PlanCandidate> = candidates
            .iter()
            .filter(|c| c.cascade.is_none() && c.accuracy >= floor)
            .cloned()
            .collect();
        rungs.sort_by(|a, b| by_accuracy(b, a).then(by_throughput(a, b)));
        rungs
    }

    /// The degradation ladder for a chosen plan: the
    /// [feasible rungs](Constraint::feasible_rungs) that are *strictly
    /// faster* than `chosen`. A serving scheduler under pressure walks this
    /// ladder instead of rejecting or stalling the query.
    pub fn degradation_ladder(
        &self,
        candidates: &[PlanCandidate],
        chosen: &PlanCandidate,
    ) -> Vec<PlanCandidate> {
        let mut ladder = self.feasible_rungs(candidates);
        ladder.retain(|c| c.est_throughput > chosen.est_throughput);
        ladder
    }

    /// Hashable identity of this constraint (f64 payloads bit-encoded),
    /// for plan-cache keys.
    pub fn key(&self) -> ConstraintKey {
        match *self {
            Constraint::MaxAccuracyLoss(x) => ConstraintKey {
                tag: 0,
                a: x.to_bits(),
            },
            Constraint::MinAccuracy(x) => ConstraintKey {
                tag: 1,
                a: x.to_bits(),
            },
            Constraint::MinThroughput(x) => ConstraintKey {
                tag: 2,
                a: x.to_bits(),
            },
        }
    }
}

/// Bit-exact, hashable encoding of a [`Constraint`] (plan-cache key part).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConstraintKey {
    tag: u8,
    a: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{DecodeMode, InputVariant, QueryPlan};
    use smol_accel::ModelKind;
    use smol_codec::Format;
    use smol_imgproc::PreprocPlan;

    fn cand(acc: f64, tput: f64) -> PlanCandidate {
        PlanCandidate {
            plan: QueryPlan {
                dnn: ModelKind::ResNet18,
                input: InputVariant::new("x", Format::Spng, 100, 100),
                preproc: PreprocPlan::thumbnail(224, 224),
                decode: DecodeMode::Full,
                batch: 64,
            },
            preproc_throughput: tput,
            exec_throughput: tput,
            est_throughput: tput,
            accuracy: acc,
            cascade: None,
            placement: None,
        }
    }

    fn ladder() -> Vec<PlanCandidate> {
        vec![cand(0.70, 1000.0), cand(0.80, 500.0), cand(0.90, 100.0)]
    }

    #[test]
    fn accuracy_floor_picks_fastest_feasible() {
        let c = ladder();
        let sel = Constraint::MinAccuracy(0.75).select(&c).unwrap();
        assert_eq!(sel.accuracy, 0.80);
        assert_eq!(sel.est_throughput, 500.0);
    }

    #[test]
    fn accuracy_loss_is_relative_to_best() {
        let c = ladder();
        // best = 0.90; loss 0.12 → floor 0.78 → 0.80 @ 500 wins.
        let sel = Constraint::MaxAccuracyLoss(0.12).select(&c).unwrap();
        assert_eq!(sel.accuracy, 0.80);
        // loss 0 → the most accurate plan.
        let sel = Constraint::MaxAccuracyLoss(0.0).select(&c).unwrap();
        assert_eq!(sel.accuracy, 0.90);
    }

    #[test]
    fn throughput_floor_picks_most_accurate_feasible() {
        let c = ladder();
        let sel = Constraint::MinThroughput(400.0).select(&c).unwrap();
        assert_eq!(sel.accuracy, 0.80);
    }

    #[test]
    fn infeasible_reports_best_accuracy() {
        let c = ladder();
        let err = Constraint::MinAccuracy(0.95).select(&c).unwrap_err();
        assert_eq!(
            err,
            PlanError::Infeasible {
                best_accuracy: 0.90
            }
        );
        let err = Constraint::MinThroughput(5000.0).select(&c).unwrap_err();
        assert_eq!(
            err,
            PlanError::Infeasible {
                best_accuracy: 0.90
            }
        );
    }

    #[test]
    fn empty_candidate_set_is_typed() {
        assert_eq!(
            Constraint::MinAccuracy(0.5).select(&[]).unwrap_err(),
            PlanError::NoCandidates
        );
    }

    #[test]
    fn ties_break_toward_the_constrained_axis() {
        let c = vec![cand(0.70, 500.0), cand(0.80, 500.0)];
        let sel = Constraint::MinAccuracy(0.5).select(&c).unwrap();
        assert_eq!(sel.accuracy, 0.80, "equally fast: more accurate wins");
        let c = vec![cand(0.80, 100.0), cand(0.80, 900.0)];
        let sel = Constraint::MinThroughput(50.0).select(&c).unwrap();
        assert_eq!(sel.est_throughput, 900.0, "equally accurate: faster wins");
    }

    #[test]
    fn accuracy_floor_matches_select_feasibility() {
        let c = ladder();
        // MinAccuracy: the floor is the literal bound.
        assert_eq!(Constraint::MinAccuracy(0.75).accuracy_floor(&c), 0.75);
        // MaxAccuracyLoss: relative to the best candidate (0.90).
        let floor = Constraint::MaxAccuracyLoss(0.12).accuracy_floor(&c);
        assert!((floor - 0.78).abs() < 1e-12);
        // A throughput constraint imposes no accuracy floor.
        assert_eq!(
            Constraint::MinThroughput(400.0).accuracy_floor(&c),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn degradation_ladder_is_feasible_and_faster() {
        let c = ladder();
        // Chosen: most accurate (0.90 @ 100). Floor 0.78 admits 0.80 @ 500
        // but not 0.70 @ 1000.
        let chosen = cand(0.90, 100.0);
        let steps = Constraint::MaxAccuracyLoss(0.12).degradation_ladder(&c, &chosen);
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].accuracy, 0.80);
        // No accuracy floor: every faster candidate is a rung, ordered
        // most-accurate-first.
        let steps = Constraint::MinThroughput(50.0).degradation_ladder(&c, &chosen);
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0].accuracy, 0.80);
        assert_eq!(steps[1].accuracy, 0.70);
        // Already the fastest feasible plan: nothing to step down to.
        let fastest = cand(0.70, 1000.0);
        assert!(Constraint::MinThroughput(50.0)
            .degradation_ladder(&c, &fastest)
            .is_empty());
    }

    #[test]
    fn constraint_keys_are_value_sensitive() {
        assert_eq!(
            Constraint::MinAccuracy(0.75).key(),
            Constraint::MinAccuracy(0.75).key()
        );
        assert_ne!(
            Constraint::MinAccuracy(0.75).key(),
            Constraint::MinAccuracy(0.76).key()
        );
        assert_ne!(
            Constraint::MinAccuracy(0.75).key(),
            Constraint::MaxAccuracyLoss(0.75).key()
        );
    }
}
