//! Pareto-frontier selection over (accuracy, throughput) (§3.1: "Smol will
//! generate plans, estimate the resources for each plan, and select the
//! Pareto optimal set of plans"). Picking one plan under a constraint is
//! [`Constraint::select`](crate::Constraint::select).

use crate::plan::PlanCandidate;

/// Returns the Pareto-optimal subset: candidates not dominated in both
/// accuracy and estimated throughput. Output is sorted by descending
/// throughput (ascending accuracy).
pub fn pareto_frontier(mut candidates: Vec<PlanCandidate>) -> Vec<PlanCandidate> {
    candidates.sort_by(|a, b| {
        b.est_throughput
            .partial_cmp(&a.est_throughput)
            .expect("finite throughputs")
            .then(
                b.accuracy
                    .partial_cmp(&a.accuracy)
                    .expect("finite accuracies"),
            )
    });
    let mut frontier: Vec<PlanCandidate> = Vec::new();
    let mut best_acc = f64::NEG_INFINITY;
    for c in candidates {
        if c.accuracy > best_acc {
            best_acc = c.accuracy;
            frontier.push(c);
        }
    }
    frontier
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

    #[test]
    fn dominated_plans_removed() {
        let frontier = pareto_frontier(vec![
            cand(0.70, 1000.0),
            cand(0.60, 900.0), // dominated: slower and less accurate
            cand(0.80, 500.0),
            cand(0.75, 400.0), // dominated
            cand(0.90, 100.0),
        ]);
        let accs: Vec<f64> = frontier.iter().map(|c| c.accuracy).collect();
        assert_eq!(accs, vec![0.70, 0.80, 0.90]);
    }

    #[test]
    fn frontier_sorted_by_throughput_desc() {
        let frontier = pareto_frontier(vec![cand(0.9, 100.0), cand(0.7, 1000.0)]);
        assert!(frontier[0].est_throughput > frontier[1].est_throughput);
    }

    #[test]
    fn single_candidate_is_frontier() {
        let frontier = pareto_frontier(vec![cand(0.5, 10.0)]);
        assert_eq!(frontier.len(), 1);
    }

    #[test]
    fn equal_throughput_keeps_most_accurate() {
        let frontier = pareto_frontier(vec![cand(0.6, 1000.0), cand(0.8, 1000.0)]);
        assert_eq!(frontier.len(), 1);
        assert_eq!(frontier[0].accuracy, 0.8);
    }
}
