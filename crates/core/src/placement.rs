//! Preprocessing operator placement on CPU vs accelerator (§6.3).
//!
//! Preprocessing pipelines are sequential chains, so placement reduces to
//! choosing a *split point*: operators before it run on the CPU, the rest
//! run on the accelerator (where they contend with DNN execution for the
//! compute engine). Decoding always stays on the CPU — entropy decoding is
//! branchy and accelerator-hostile (§6.4). As the paper notes, this leaves
//! "typically under 5" configurations to evaluate per plan.

use smol_imgproc::dag::{plan_op_costs, PreprocPlan};

/// Rates needed to evaluate a placement. All four are on one clock: a
/// placement compares the two sides of the pipeline, so a caller holding
/// simulated-time device rates converts them to the wall clock its CPU
/// rates were measured on first (`smol_serve::Session` does).
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

impl PlacementRates {
    /// Rates from one profiled number: `cpu_throughput` is the measured
    /// all-CPU rate of decode + preprocessing (images/second, all cores),
    /// split into its two terms by the weighted-op model the planner costs
    /// every other candidate with — `decode_ops` for the decode,
    /// `preproc_ops` for the whole preprocessing plan.
    pub fn from_profile(
        cpu_throughput: f64,
        decode_ops: f64,
        preproc_ops: f64,
        accel_ops_per_s: f64,
        exec_throughput: f64,
    ) -> Self {
        let cpu_ops_per_s = cpu_throughput * (decode_ops + preproc_ops);
        PlacementRates {
            decode_throughput: cpu_ops_per_s / decode_ops,
            cpu_ops_per_s,
            accel_ops_per_s,
            exec_throughput,
        }
    }
}

/// A placement's split point and what it is expected to sustain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementEstimate {
    /// Number of leading operators on the CPU.
    pub split: usize,
    /// Estimated CPU-side and accelerator-side throughputs, on the clock of
    /// the [`PlacementRates`] they were derived from.
    pub cpu_side: f64,
    pub accel_side: f64,
}

impl PlacementEstimate {
    /// Estimated pipelined throughput: the slower side.
    pub fn throughput(&self) -> f64 {
        self.cpu_side.min(self.accel_side)
    }
}

/// Outcome of the placement search.
#[derive(Debug, Clone)]
pub struct PlacementDecision {
    /// The plan with placements assigned.
    pub plan: PreprocPlan,
    pub estimate: PlacementEstimate,
}

/// Evaluates one split point.
fn evaluate_split(costs: &[f64], split: usize, rates: &PlacementRates) -> PlacementEstimate {
    let cpu_ops: f64 = costs[..split].iter().sum();
    let accel_ops: f64 = costs[split..].iter().sum();
    let cpu_time = 1.0 / rates.decode_throughput + cpu_ops / rates.cpu_ops_per_s;
    let accel_time = accel_ops / rates.accel_ops_per_s + 1.0 / rates.exec_throughput;
    PlacementEstimate {
        split,
        cpu_side: 1.0 / cpu_time,
        accel_side: 1.0 / accel_time,
    }
}

/// Chooses the split point maximizing estimated pipelined throughput
/// (`min` of the two sides); ties prefer keeping work on the CPU, which
/// leaves accelerator headroom — so a DNN-bound plan, which no split can
/// speed up, stays all-CPU.
///
/// Only the elementwise tail may move: `smol_runtime` executes resizes and
/// crops on the CPU only (a geometric operator on the accelerator is
/// rejected at submission by `smol_runtime::PlanContext::validate`), so the
/// split points inside the geometric prefix are not candidates.
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
    // Prefer larger splits (more on CPU) on ties: iterate descending.
    let mut best = evaluate_split(&costs, n, rates);
    for split in (plan.tail_start()..n).rev() {
        let candidate = evaluate_split(&costs, split, rates);
        if candidate.throughput() > best.throughput() + 1e-9 {
            best = candidate;
        }
    }
    PlacementDecision {
        plan: plan.clone().split_at(best.split),
        estimate: best,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smol_imgproc::dag::Placement;

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
            d.estimate.split,
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
        let split = d.estimate.split;
        assert!(
            (2..plan.ops.len()).contains(&split),
            "the elementwise tail, and only it, may move (split={split})"
        );
        for (i, op) in d.plan.ops.iter().enumerate() {
            let expected = if i < split {
                Placement::Cpu
            } else {
                Placement::Accel
            };
            assert_eq!(op.placement, expected, "op {i}");
        }
    }

    #[test]
    fn estimate_is_min_of_sides() {
        let plan = PreprocPlan::thumbnail(224, 224);
        let d = choose_placement(&plan, 161, 161, &rates(2000.0, 4513.0));
        let e = d.estimate;
        assert!((e.throughput() - e.cpu_side.min(e.accel_side)).abs() < 1e-6);
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
        let all_cpu = super::evaluate_split(&costs, costs.len(), &r).throughput();
        assert!(
            d.estimate.throughput() > all_cpu * 1.05,
            "offload {:.0} vs all-cpu {all_cpu:.0}",
            d.estimate.throughput()
        );
    }
}
