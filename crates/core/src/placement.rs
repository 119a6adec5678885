//! Preprocessing operator placement on CPU vs accelerator (§6.3).
//!
//! Preprocessing pipelines are sequential chains, so placement reduces to
//! choosing a *split point*: operators before it run on the CPU, the rest
//! run on the accelerator (where they contend with DNN execution for the
//! compute engine). Decoding always stays on the CPU — entropy decoding is
//! branchy and accelerator-hostile (§6.4). As the paper notes, this leaves
//! "typically under 5" configurations to evaluate per plan.

use smol_imgproc::dag::{plan_op_costs, Placement, PreprocPlan};

/// Rates needed to evaluate a placement.
#[derive(Debug, Clone, Copy)]
pub struct PlacementRates {
    /// Decode throughput on the CPU side, images/second (all cores).
    pub decode_throughput: f64,
    /// Aggregate CPU elementwise rate, weighted-ops/second (all cores).
    pub cpu_ops_per_s: f64,
    /// Accelerator elementwise rate, weighted-ops/second.
    pub accel_ops_per_s: f64,
    /// DNN execution throughput on the accelerator, images/second.
    pub exec_throughput: f64,
}

/// Outcome of the placement search.
#[derive(Debug, Clone)]
pub struct PlacementDecision {
    /// The plan with placements assigned.
    pub plan: PreprocPlan,
    /// Number of leading operators on the CPU.
    pub split: usize,
    /// Estimated end-to-end throughput of this placement.
    pub est_throughput: f64,
    /// Estimated CPU-side and accelerator-side throughputs.
    pub cpu_side: f64,
    pub accel_side: f64,
}

/// Evaluates one split point.
fn evaluate_split(costs: &[f64], split: usize, rates: &PlacementRates) -> (f64, f64, f64) {
    let cpu_ops: f64 = costs[..split].iter().sum();
    let accel_ops: f64 = costs[split..].iter().sum();
    let cpu_time = 1.0 / rates.decode_throughput + cpu_ops / rates.cpu_ops_per_s;
    let accel_time = accel_ops / rates.accel_ops_per_s + 1.0 / rates.exec_throughput;
    let cpu_side = 1.0 / cpu_time;
    let accel_side = 1.0 / accel_time;
    (cpu_side.min(accel_side), cpu_side, accel_side)
}

/// Chooses the split point maximizing estimated pipelined throughput
/// (`min` of the two sides); ties prefer keeping work on the CPU, which
/// leaves accelerator headroom.
///
/// Every split point is costed, including those inside the geometric prefix.
/// `smol_runtime` executes resizes and crops on the CPU only, so it runs a
/// decision only when `split` leaves no geometric operator on the
/// accelerator (the elementwise tail may move freely); any other decision is
/// rejected at submission by `smol_runtime::PlanContext::validate`.
pub fn choose_placement(
    plan: &PreprocPlan,
    input_w: usize,
    input_h: usize,
    rates: &PlacementRates,
) -> PlacementDecision {
    let costs: Vec<f64> = plan_op_costs(plan, input_w, input_h)
        .iter()
        .map(|c| c.weighted_ops)
        .collect();
    let n = costs.len();
    let mut best_split = n;
    let mut best = f64::NEG_INFINITY;
    let mut best_sides = (0.0, 0.0);
    // Prefer larger splits (more on CPU) on ties: iterate descending.
    for split in (0..=n).rev() {
        let (tput, cpu, accel) = evaluate_split(&costs, split, rates);
        if tput > best + 1e-9 {
            best = tput;
            best_split = split;
            best_sides = (cpu, accel);
        }
    }
    let mut placed = plan.clone();
    for (i, op) in placed.ops.iter_mut().enumerate() {
        op.placement = if i < best_split {
            Placement::Cpu
        } else {
            Placement::Accel
        };
    }
    PlacementDecision {
        plan: placed,
        split: best_split,
        est_throughput: best,
        cpu_side: best_sides.0,
        accel_side: best_sides.1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rates(decode: f64, exec: f64) -> PlacementRates {
        PlacementRates {
            decode_throughput: decode,
            cpu_ops_per_s: 2e9,
            accel_ops_per_s: 60e9,
            exec_throughput: exec,
        }
    }

    #[test]
    fn dnn_bound_plans_keep_preprocessing_on_cpu() {
        // Slow target DNN (Mask R-CNN-like): CPU has plenty of headroom.
        let plan = PreprocPlan::standard(256, 224, 224);
        let d = choose_placement(&plan, 640, 480, &rates(500.0, 5.0));
        assert_eq!(
            d.split,
            plan.ops.len(),
            "all preprocessing should stay on CPU"
        );
        assert!(d.plan.ops.iter().all(|o| o.placement == Placement::Cpu));
    }

    #[test]
    fn preproc_bound_plans_offload_to_accelerator() {
        // Fast specialized NN, slow CPU decode: move elementwise tail over.
        let plan = PreprocPlan::standard(256, 224, 224);
        let mut r = rates(800.0, 250_000.0);
        r.cpu_ops_per_s = 2e8; // weak CPU
        let d = choose_placement(&plan, 640, 480, &r);
        assert!(
            d.split < plan.ops.len(),
            "some ops should move to the accelerator (split={})",
            d.split
        );
        assert!(d
            .plan
            .ops
            .iter()
            .skip(d.split)
            .all(|o| o.placement == Placement::Accel));
    }

    #[test]
    fn estimate_is_min_of_sides() {
        let plan = PreprocPlan::thumbnail(224, 224);
        let d = choose_placement(&plan, 161, 161, &rates(2000.0, 4513.0));
        assert!((d.est_throughput - d.cpu_side.min(d.accel_side)).abs() < 1e-6);
    }

    #[test]
    fn offloading_helps_when_cpu_is_bottleneck() {
        let plan = PreprocPlan::standard(256, 224, 224);
        let mut r = rates(800.0, 250_000.0);
        r.cpu_ops_per_s = 2e8;
        let d = choose_placement(&plan, 640, 480, &r);
        // Compare against the all-CPU split.
        let costs: Vec<f64> = smol_imgproc::dag::plan_op_costs(&plan, 640, 480)
            .iter()
            .map(|c| c.weighted_ops)
            .collect();
        let (all_cpu, _, _) = super::evaluate_split(&costs, costs.len(), &r);
        assert!(
            d.est_throughput > all_cpu * 1.05,
            "offload {:.0} vs all-cpu {all_cpu:.0}",
            d.est_throughput
        );
    }
}
