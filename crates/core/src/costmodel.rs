//! Throughput cost models (§4, Table 3).
//!
//! Three estimators for end-to-end DNN inference throughput:
//!
//! * **Smol** (this paper, Eq. 4): `min(preproc, exec)` — preprocessing and
//!   DNN execution are pipelined, so the slower stage bounds the system;
//! * **BlazeIt/NoScope** (Eq. 2): DNN execution only — correct only when
//!   preprocessing is negligible;
//! * **Tahoma** (Eq. 3): harmonic sum — correct only when one stage is the
//!   overwhelming bottleneck (it ignores pipelining).
//!
//! All three accept cascades: a sequence of `(throughput, selectivity)`
//! stages where `selectivity` is the fraction of the input stream that
//! reaches that stage (Eq. 2's `α`).

/// Which estimator to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostModelKind {
    /// Preprocessing-aware pipelined model: `min(preproc, exec)`.
    Smol,
    /// Execution-only (BlazeIt, NoScope, probabilistic predicates).
    ExecOnly,
    /// Additive/harmonic (Tahoma): ignores pipelining.
    Additive,
}

impl CostModelKind {
    pub fn name(&self) -> &'static str {
        match self {
            CostModelKind::Smol => "Smol (min)",
            CostModelKind::ExecOnly => "BlazeIt (exec only)",
            CostModelKind::Additive => "Tahoma (sum)",
        }
    }
}

/// One DNN stage in a cascade: images/second when executing, and the
/// fraction of the full input stream that reaches this stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CascadeStage {
    pub throughput: f64,
    pub selectivity: f64,
}

impl CascadeStage {
    pub fn new(throughput: f64, selectivity: f64) -> Self {
        CascadeStage {
            throughput,
            selectivity,
        }
    }

    /// A single-model "cascade".
    pub fn single(throughput: f64) -> Vec<CascadeStage> {
        vec![CascadeStage::new(throughput, 1.0)]
    }
}

/// Effective DNN-execution throughput of a cascade (Eq. 2's denominator):
/// `1 / Σ_j (α_j / T_j)` in images of the *original* stream per second.
pub fn cascade_exec_throughput(stages: &[CascadeStage]) -> f64 {
    let denom: f64 = stages.iter().map(|s| s.selectivity / s.throughput).sum();
    if denom <= 0.0 {
        f64::INFINITY
    } else {
        1.0 / denom
    }
}

/// Storage-side profile of a candidate whose input variant is
/// materialized in the physical-representation store (ROADMAP item 2,
/// Tahoma-style storage-as-plan-space). The planner folds these terms
/// into the candidate's preprocessing throughput so "pay storage, skip
/// decode" competes with "transcode on the fly" inside the ordinary
/// `min(preproc, exec)` estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageProfile {
    /// Items/s at which the variant's encoded bytes reach the decoder:
    /// read back from the store (manifest + object reads), or, for a
    /// variant produced on the fly, transcoded per item. Non-positive or
    /// non-finite means "free" (already resident in memory).
    pub read_throughput: f64,
    /// Items/s of the cached-tensor path: decode skipped, only the CPU
    /// preprocessing prefix runs. Profiled under the candidate's base
    /// decode mode.
    pub cached_throughput: f64,
    /// Expected fraction of items served from the decoded-tensor cache
    /// (the serving layer's observed hit rate, in [0, 1]).
    pub cache_hit_rate: f64,
}

/// Effective preprocessing throughput of a candidate backed by the
/// physical-representation store. Per-item time decomposes as
///
/// ```text
/// t = hit/cached + (1 − hit)/preproc + 1/read
/// ```
///
/// — the cache serves `hit` of the stream at the decode-free rate, the
/// rest pays the full decode+preprocess path, and every item pays the
/// storage read (or its on-the-fly transcode). Degenerate inputs
/// (zero/non-finite rates) drop their term rather than poisoning the
/// estimate.
pub fn storage_adjusted_preproc(preproc_throughput: f64, storage: &StorageProfile) -> f64 {
    let per_item = |throughput: f64| -> f64 {
        if throughput.is_finite() && throughput > 0.0 {
            1.0 / throughput
        } else {
            0.0
        }
    };
    let hit = storage.cache_hit_rate.clamp(0.0, 1.0);
    // A hot fraction with no cached-rate profile falls back to the plain
    // preprocessing rate (no credit without a measurement).
    let cached = if storage.cached_throughput.is_finite() && storage.cached_throughput > 0.0 {
        storage.cached_throughput
    } else {
        preproc_throughput
    };
    let t = hit * per_item(cached)
        + (1.0 - hit) * per_item(preproc_throughput)
        + per_item(storage.read_throughput);
    if t <= 0.0 {
        preproc_throughput
    } else {
        1.0 / t
    }
}

/// Estimated end-to-end throughput under a given cost model.
pub fn estimate_throughput(
    kind: CostModelKind,
    preproc_throughput: f64,
    stages: &[CascadeStage],
) -> f64 {
    let exec = cascade_exec_throughput(stages);
    match kind {
        CostModelKind::Smol => preproc_throughput.min(exec),
        CostModelKind::ExecOnly => exec,
        CostModelKind::Additive => 1.0 / (1.0 / preproc_throughput + 1.0 / exec),
    }
}

/// Relative estimation error against a measured throughput, in percent
/// (Table 3's "% error" column).
pub fn percent_error(estimate: f64, measured: f64) -> f64 {
    ((estimate - measured) / measured).abs() * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cascade_reduces_to_single_model() {
        let t = cascade_exec_throughput(&CascadeStage::single(4513.0));
        assert!((t - 4513.0).abs() < 1e-9);
    }

    #[test]
    fn cascade_with_filtering_beats_target_alone() {
        // Specialized NN at 250k filters 90% of frames; target at 4.5k.
        let stages = vec![
            CascadeStage::new(250_000.0, 1.0),
            CascadeStage::new(4_513.0, 0.1),
        ];
        let t = cascade_exec_throughput(&stages);
        assert!(t > 4_513.0 * 5.0, "t={t}");
        assert!(t < 250_000.0);
    }

    #[test]
    fn smol_model_is_min() {
        let stages = CascadeStage::single(5000.0);
        assert_eq!(
            estimate_throughput(CostModelKind::Smol, 500.0, &stages),
            500.0
        );
        assert_eq!(
            estimate_throughput(CostModelKind::Smol, 50_000.0, &stages),
            5000.0
        );
    }

    #[test]
    fn exec_only_ignores_preprocessing() {
        let stages = CascadeStage::single(4999.0);
        assert_eq!(
            estimate_throughput(CostModelKind::ExecOnly, 534.0, &stages),
            4999.0
        );
    }

    #[test]
    fn additive_model_below_min() {
        // The harmonic sum is always below min(preproc, exec): it assumes
        // serialization.
        let stages = CascadeStage::single(4999.0);
        let add = estimate_throughput(CostModelKind::Additive, 4001.0, &stages);
        assert!(add < 4001.0);
        assert!((add - 1.0 / (1.0 / 4001.0 + 1.0 / 4999.0)).abs() < 1e-9);
    }

    /// The paper's Table 3 scenarios: Smol's estimate must beat or tie both
    /// baselines on all three configurations (using the paper's measured
    /// pipelined throughputs as ground truth).
    #[test]
    fn table3_error_ordering() {
        struct Row {
            preproc: f64,
            exec: f64,
            pipelined: f64,
        }
        let rows = [
            // balanced
            Row {
                preproc: 4001.0,
                exec: 4999.0,
                pipelined: 4056.0,
            },
            // preproc-bound
            Row {
                preproc: 534.0,
                exec: 4999.0,
                pipelined: 557.0,
            },
            // DNN-bound
            Row {
                preproc: 5876.0,
                exec: 1844.0,
                pipelined: 1720.0,
            },
        ];
        for row in &rows {
            let stages = CascadeStage::single(row.exec);
            let smol = percent_error(
                estimate_throughput(CostModelKind::Smol, row.preproc, &stages),
                row.pipelined,
            );
            let blazeit = percent_error(
                estimate_throughput(CostModelKind::ExecOnly, row.preproc, &stages),
                row.pipelined,
            );
            let tahoma = percent_error(
                estimate_throughput(CostModelKind::Additive, row.preproc, &stages),
                row.pipelined,
            );
            assert!(
                smol <= blazeit + 1e-9 && smol <= tahoma + 1e-9,
                "smol={smol:.1}% blazeit={blazeit:.1}% tahoma={tahoma:.1}%"
            );
            assert!(smol < 10.0, "Smol's error stays under 10%: {smol:.1}%");
        }
    }

    #[test]
    fn percent_error_symmetric_in_magnitude() {
        assert!((percent_error(110.0, 100.0) - 10.0).abs() < 1e-9);
        assert!((percent_error(90.0, 100.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn hot_storage_approaches_the_cached_rate() {
        // Everything hits, reads are fast: effective preproc ≈ harmonic
        // combination of the cached rate and the storage read.
        let hot = StorageProfile {
            read_throughput: 50_000.0,
            cached_throughput: 5_000.0,
            cache_hit_rate: 1.0,
        };
        let eff = storage_adjusted_preproc(500.0, &hot);
        let expect = 1.0 / (1.0 / 5_000.0 + 1.0 / 50_000.0);
        assert!((eff - expect).abs() < 1e-6, "eff={eff}");
        assert!(eff > 500.0 * 5.0, "hot corpus must beat raw decode");
    }

    #[test]
    fn cold_storage_charges_the_read() {
        // Nothing hits and every item pays its read: the effective rate
        // drops below the plain decode path.
        let cold = StorageProfile {
            read_throughput: 2_000.0,
            cached_throughput: 0.0,
            cache_hit_rate: 0.0,
        };
        let eff = storage_adjusted_preproc(500.0, &cold);
        let expect = 1.0 / (1.0 / 500.0 + 1.0 / 2_000.0);
        assert!((eff - expect).abs() < 1e-6, "eff={eff}");
        assert!(eff < 500.0);
    }

    #[test]
    fn partial_hit_rate_interpolates_between_paths() {
        let sp = StorageProfile {
            read_throughput: f64::INFINITY,
            cached_throughput: 4_000.0,
            cache_hit_rate: 0.5,
        };
        let eff = storage_adjusted_preproc(500.0, &sp);
        let expect = 1.0 / (0.5 / 4_000.0 + 0.5 / 500.0);
        assert!((eff - expect).abs() < 1e-6, "eff={eff}");
        assert!(eff > 500.0 && eff < 4_000.0);
    }

    #[test]
    fn degenerate_storage_terms_do_not_poison_the_estimate() {
        // Free reads, no cache data: the profile is a no-op.
        let noop = StorageProfile {
            read_throughput: f64::INFINITY,
            cached_throughput: 0.0,
            cache_hit_rate: 0.0,
        };
        assert_eq!(storage_adjusted_preproc(500.0, &noop), 500.0);
        // Hit fraction with no cached-rate measurement: no credit.
        let unmeasured = StorageProfile {
            read_throughput: f64::INFINITY,
            cached_throughput: 0.0,
            cache_hit_rate: 0.9,
        };
        assert_eq!(storage_adjusted_preproc(500.0, &unmeasured), 500.0);
        // Out-of-range hit rates clamp instead of extrapolating: a hit
        // rate of 3 prices exactly as a hit rate of 1.
        let hit = |cache_hit_rate| StorageProfile {
            read_throughput: f64::INFINITY,
            cached_throughput: 4_000.0,
            cache_hit_rate,
        };
        assert_eq!(
            storage_adjusted_preproc(500.0, &hit(3.0)),
            storage_adjusted_preproc(500.0, &hit(1.0))
        );
    }
}
