//! Virtual DNN catalog, calibrated to the paper's throughput anchors
//! (Tables 1, 2; §2 and §5.1) on the T4 with TensorRT at batch 64.
//!
//! The catalog also records the paper's published ImageNet accuracies so
//! harnesses can print paper-reference columns next to measured values from
//! the empirical `smol-nn` track.

use crate::device::GpuModel;
use crate::envs::ExecutionEnv;

/// DNN architectures used across the paper's experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    ResNet18,
    ResNet34,
    ResNet50,
    ResNet101,
    ResNet152,
    /// MobileNet-SSD detector used by MLPerf Inference (§2).
    MobileNetSsd,
    /// BlazeIt's "tiny ResNet" specialized NN (§5.1: up to 250k im/s).
    TinyResNet,
    /// A representative Tahoma cascade stage (small specialized CNN).
    TahomaSmall,
    /// Mask R-CNN target model for the video experiments (3–5 fps, §1).
    MaskRcnn,
}

/// Static description + calibration anchors for a virtual model.
#[derive(Debug, Clone)]
pub struct VirtualModel {
    pub kind: ModelKind,
    pub name: &'static str,
    /// Images/second on the T4 with TensorRT at the model's optimal batch.
    pub t4_tensorrt_throughput: f64,
    /// Paper-published ImageNet top-1 accuracy (where reported); the
    /// reproduction's empirical accuracies come from `smol-nn` instead.
    pub paper_top1_accuracy: Option<f64>,
    /// Input edge (square) expected by the model.
    pub input_size: usize,
    /// Batch size the throughput anchor was measured at.
    pub optimal_batch: usize,
}

impl ModelKind {
    pub fn spec(&self) -> VirtualModel {
        match self {
            ModelKind::ResNet18 => VirtualModel {
                kind: *self,
                name: "ResNet-18",
                t4_tensorrt_throughput: 12_592.0,
                paper_top1_accuracy: Some(68.2),
                input_size: 224,
                optimal_batch: 64,
            },
            ModelKind::ResNet34 => VirtualModel {
                kind: *self,
                name: "ResNet-34",
                t4_tensorrt_throughput: 6_860.0,
                paper_top1_accuracy: Some(71.9),
                input_size: 224,
                optimal_batch: 64,
            },
            ModelKind::ResNet50 => VirtualModel {
                kind: *self,
                name: "ResNet-50",
                t4_tensorrt_throughput: 4_513.0,
                paper_top1_accuracy: Some(74.34),
                input_size: 224,
                optimal_batch: 64,
            },
            ModelKind::ResNet101 => VirtualModel {
                kind: *self,
                name: "ResNet-101",
                t4_tensorrt_throughput: 2_600.0,
                paper_top1_accuracy: Some(77.37),
                input_size: 224,
                optimal_batch: 64,
            },
            ModelKind::ResNet152 => VirtualModel {
                kind: *self,
                name: "ResNet-152",
                t4_tensorrt_throughput: 1_850.0,
                paper_top1_accuracy: Some(78.31),
                input_size: 224,
                optimal_batch: 64,
            },
            ModelKind::MobileNetSsd => VirtualModel {
                kind: *self,
                name: "MobileNet-SSD",
                t4_tensorrt_throughput: 7_431.0,
                paper_top1_accuracy: None,
                input_size: 300,
                optimal_batch: 64,
            },
            ModelKind::TinyResNet => VirtualModel {
                kind: *self,
                name: "tiny ResNet (BlazeIt specialized)",
                t4_tensorrt_throughput: 250_000.0,
                paper_top1_accuracy: None,
                input_size: 64,
                optimal_batch: 256,
            },
            ModelKind::TahomaSmall => VirtualModel {
                kind: *self,
                name: "Tahoma specialized CNN",
                t4_tensorrt_throughput: 120_000.0,
                paper_top1_accuracy: None,
                input_size: 64,
                optimal_batch: 256,
            },
            ModelKind::MaskRcnn => VirtualModel {
                kind: *self,
                name: "Mask R-CNN",
                t4_tensorrt_throughput: 4.0,
                paper_top1_accuracy: None,
                input_size: 800,
                optimal_batch: 1,
            },
        }
    }

    /// Input tensor size in bytes (f32 CHW at the model's input size).
    pub fn input_bytes(&self) -> usize {
        let s = self.spec().input_size;
        s * s * 3 * std::mem::size_of::<f32>()
    }

    /// Standard ResNet ladder considered by Smol's expanded search space
    /// (§5.1: "ResNet configurations (18 to 152)").
    pub fn resnet_ladder() -> [ModelKind; 5] {
        [
            ModelKind::ResNet18,
            ModelKind::ResNet34,
            ModelKind::ResNet50,
            ModelKind::ResNet101,
            ModelKind::ResNet152,
        ]
    }
}

/// Batch-efficiency curve: small batches under-utilize the device. The
/// saturating form `b/(b+k)` with `k=4` reaches ~94% at batch 64, matching
/// the convention that published anchors are near-peak.
pub fn batch_efficiency(batch: usize) -> f64 {
    let b = batch.max(1) as f64;
    b / (b + 4.0)
}

/// Throughput of `model` on a device whose ResNet-50 rate is
/// `device_scale` × the T4's, under `env` at `batch`.
pub fn throughput_scaled(
    model: ModelKind,
    device_scale: f64,
    env: ExecutionEnv,
    batch: usize,
) -> f64 {
    let spec = model.spec();
    let anchor_eff = batch_efficiency(spec.optimal_batch);
    let peak = spec.t4_tensorrt_throughput / anchor_eff;
    peak * batch_efficiency(batch) * device_scale * env.throughput_factor()
}

/// Throughput (images/second) of `model` on `device` under `env` at `batch`.
pub fn throughput(model: ModelKind, device: GpuModel, env: ExecutionEnv, batch: usize) -> f64 {
    throughput_scaled(model, device.scale_vs_t4(), env, batch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t4_tensorrt_anchors_match_tables() {
        // Table 2 values at the measured batch size.
        for (kind, expect) in [
            (ModelKind::ResNet18, 12_592.0),
            (ModelKind::ResNet34, 6_860.0),
            (ModelKind::ResNet50, 4_513.0),
        ] {
            let t = throughput(kind, GpuModel::T4, ExecutionEnv::TensorRt, 64);
            assert!(
                (t - expect).abs() / expect < 1e-9,
                "{kind:?}: {t} vs {expect}"
            );
        }
    }

    #[test]
    fn accuracy_ladder_monotone() {
        let ladder = ModelKind::resnet_ladder();
        let mut prev = 0.0;
        for kind in ladder {
            let acc = kind.spec().paper_top1_accuracy.unwrap();
            assert!(acc > prev);
            prev = acc;
        }
    }

    #[test]
    fn deeper_models_slower() {
        let ladder = ModelKind::resnet_ladder();
        let mut prev = f64::INFINITY;
        for kind in ladder {
            let t = kind.spec().t4_tensorrt_throughput;
            assert!(t < prev);
            prev = t;
        }
    }

    #[test]
    fn batch_one_is_much_slower_than_batch_64() {
        let t1 = throughput(ModelKind::ResNet50, GpuModel::T4, ExecutionEnv::TensorRt, 1);
        let t64 = throughput(
            ModelKind::ResNet50,
            GpuModel::T4,
            ExecutionEnv::TensorRt,
            64,
        );
        assert!(t1 < t64 * 0.35, "t1={t1} t64={t64}");
    }

    #[test]
    fn specialized_nns_exceed_preprocessing_scale() {
        // §5.1: specialized NNs run up to 250k im/s, far beyond decode rates.
        let t = throughput(
            ModelKind::TinyResNet,
            GpuModel::T4,
            ExecutionEnv::TensorRt,
            256,
        );
        assert!(t >= 250_000.0 * 0.99);
    }

    #[test]
    fn mask_rcnn_is_fps_scale() {
        let t = throughput(ModelKind::MaskRcnn, GpuModel::T4, ExecutionEnv::TensorRt, 1);
        assert!(t > 0.5 && t < 6.0, "t={t}");
    }

    #[test]
    fn input_bytes_for_resnet() {
        assert_eq!(ModelKind::ResNet50.input_bytes(), 224 * 224 * 3 * 4);
    }
}
