//! Device catalog, calibrated to the paper's measurements (Table 5, §7).
//!
//! The simulator does not execute DNN arithmetic; it reproduces each
//! accelerator's *service rate* for DNN kernels, which is the only property
//! the paper's end-to-end claims depend on. `resnet50_batch64` is the
//! published throughput anchor; all model throughputs scale from it.

/// Accelerator generations benchmarked in Table 5 (plus a CPU pseudo-device
/// for CPU-only execution baselines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuModel {
    K80,
    P100,
    V100,
    T4,
    Rtx,
    /// CPU pseudo-device: DNN execution on the host, roughly 2 im/s/core on
    /// ResNet-50-class models (no accelerator).
    CpuOnly,
}

/// Static description of a device.
#[derive(Debug, Clone)]
pub struct DeviceSpec {
    pub model: GpuModel,
    pub name: &'static str,
    pub release_year: u32,
    /// ResNet-50 images/second at batch 64 with an optimized compiler
    /// (TensorRT), from Table 5 (RTX uses the reported figure).
    pub resnet50_batch64: f64,
    /// Board power in watts (used by the §7 economics model).
    pub power_watts: f64,
    /// Effective elementwise preprocessing throughput when preprocessing
    /// ops are *placed on the accelerator* (§6.3), in weighted-ops/second
    /// (the unit produced by `smol_imgproc::dag::plan_cost`). Memory-bound,
    /// so it scales with memory bandwidth rather than FLOPs.
    pub elementwise_ops_per_s: f64,
    /// Pinned-memory host→device copy bandwidth, bytes/second.
    pub pinned_copy_bps: f64,
    /// Pageable host→device copy bandwidth, bytes/second.
    pub pageable_copy_bps: f64,
}

impl GpuModel {
    /// The calibrated spec for this device.
    pub fn spec(&self) -> DeviceSpec {
        match self {
            GpuModel::K80 => DeviceSpec {
                model: *self,
                name: "NVIDIA K80",
                release_year: 2014,
                resnet50_batch64: 159.0,
                power_watts: 300.0,
                elementwise_ops_per_s: 30e9,
                pinned_copy_bps: 6e9,
                pageable_copy_bps: 2.5e9,
            },
            GpuModel::P100 => DeviceSpec {
                model: *self,
                name: "NVIDIA P100",
                release_year: 2016,
                resnet50_batch64: 1955.0,
                power_watts: 250.0,
                elementwise_ops_per_s: 55e9,
                pinned_copy_bps: 11e9,
                pageable_copy_bps: 3.5e9,
            },
            GpuModel::V100 => DeviceSpec {
                model: *self,
                name: "NVIDIA V100",
                release_year: 2017,
                resnet50_batch64: 7151.0,
                power_watts: 300.0,
                elementwise_ops_per_s: 80e9,
                pinned_copy_bps: 12e9,
                pageable_copy_bps: 4e9,
            },
            GpuModel::T4 => DeviceSpec {
                model: *self,
                name: "NVIDIA T4",
                release_year: 2019,
                resnet50_batch64: 4513.0,
                power_watts: 70.0,
                elementwise_ops_per_s: 60e9,
                pinned_copy_bps: 11e9,
                pageable_copy_bps: 3.5e9,
            },
            GpuModel::Rtx => DeviceSpec {
                model: *self,
                name: "RTX (reported)",
                release_year: 2019,
                resnet50_batch64: 15008.0,
                power_watts: 280.0,
                elementwise_ops_per_s: 90e9,
                pinned_copy_bps: 12e9,
                pageable_copy_bps: 4e9,
            },
            GpuModel::CpuOnly => DeviceSpec {
                model: *self,
                name: "CPU (no accelerator)",
                release_year: 2019,
                resnet50_batch64: 8.0,
                power_watts: 210.0,
                elementwise_ops_per_s: 5e9,
                pinned_copy_bps: f64::INFINITY,
                pageable_copy_bps: f64::INFINITY,
            },
        }
    }

    /// Throughput scale relative to the T4 anchor.
    pub fn scale_vs_t4(&self) -> f64 {
        self.spec().resnet50_batch64 / GpuModel::T4.spec().resnet50_batch64
    }

    /// All GPU generations of Table 5, in the paper's row order.
    pub fn table5_order() -> [GpuModel; 5] {
        [
            GpuModel::K80,
            GpuModel::P100,
            GpuModel::T4,
            GpuModel::V100,
            GpuModel::Rtx,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t4_anchor_matches_paper() {
        assert_eq!(GpuModel::T4.spec().resnet50_batch64, 4513.0);
        assert_eq!(GpuModel::T4.spec().power_watts, 70.0);
    }

    #[test]
    fn throughput_improves_across_generations() {
        // Table 5's claim: >28× improvement from K80 to T4, 94× to RTX-class.
        let k80 = GpuModel::K80.spec().resnet50_batch64;
        let t4 = GpuModel::T4.spec().resnet50_batch64;
        let rtx = GpuModel::Rtx.spec().resnet50_batch64;
        assert!(t4 / k80 > 28.0);
        assert!(rtx / k80 > 94.0);
    }

    #[test]
    fn t4_is_power_efficient_vs_v100() {
        let t4 = GpuModel::T4.spec();
        let v100 = GpuModel::V100.spec();
        let t4_eff = t4.resnet50_batch64 / t4.power_watts;
        let v100_eff = v100.resnet50_batch64 / v100.power_watts;
        assert!(t4_eff > v100_eff);
    }

    #[test]
    fn scale_vs_t4_is_one_for_t4() {
        assert_eq!(GpuModel::T4.scale_vs_t4(), 1.0);
        assert!(GpuModel::V100.scale_vs_t4() > 1.0);
        assert!(GpuModel::K80.scale_vs_t4() < 0.05);
    }
}
