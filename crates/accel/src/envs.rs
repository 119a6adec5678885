//! Execution-environment overhead model (Table 1).
//!
//! The same DNN on the same device runs at wildly different rates under
//! different software stacks: Keras 243 im/s, PyTorch 424 im/s, TensorRT
//! 4513 im/s for ResNet-50 on the T4. The factors below are those ratios;
//! they capture "efficient use of hardware can result in over a 17×
//! improvement" (§2) without modeling the frameworks themselves.

/// DNN execution environments benchmarked in Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutionEnv {
    /// Keras (used by Tahoma).
    Keras,
    /// Eager PyTorch.
    PyTorch,
    /// TensorRT-compiled graphs (Smol's backend).
    TensorRt,
}

impl ExecutionEnv {
    /// Throughput multiplier relative to TensorRT.
    pub fn throughput_factor(&self) -> f64 {
        match self {
            ExecutionEnv::Keras => 243.0 / 4513.0,
            ExecutionEnv::PyTorch => 424.0 / 4513.0,
            ExecutionEnv::TensorRt => 1.0,
        }
    }

    /// Optimal batch size used in the paper's Table 1 measurement.
    pub fn table1_batch(&self) -> usize {
        match self {
            ExecutionEnv::Keras => 64,
            ExecutionEnv::PyTorch => 256,
            ExecutionEnv::TensorRt => 64,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            ExecutionEnv::Keras => "Keras",
            ExecutionEnv::PyTorch => "PyTorch",
            ExecutionEnv::TensorRt => "TensorRT",
        }
    }

    pub fn all() -> [ExecutionEnv; 3] {
        [
            ExecutionEnv::Keras,
            ExecutionEnv::PyTorch,
            ExecutionEnv::TensorRt,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensorrt_gives_17x_over_keras() {
        let ratio =
            ExecutionEnv::TensorRt.throughput_factor() / ExecutionEnv::Keras.throughput_factor();
        assert!(ratio > 17.0 && ratio < 20.0, "ratio={ratio}");
    }

    #[test]
    fn ordering_matches_table1() {
        assert!(
            ExecutionEnv::Keras.throughput_factor() < ExecutionEnv::PyTorch.throughput_factor()
        );
        assert!(
            ExecutionEnv::PyTorch.throughput_factor() < ExecutionEnv::TensorRt.throughput_factor()
        );
    }
}
