//! Runtime "personalities" for the appendix comparison (Figure 10):
//! the same pipeline skeleton configured to behave like DALI or eager
//! PyTorch data loading, as characterized in Appendix A.1:
//!
//! * **PyTorch** — eager framework: no pinned staging, no buffer reuse,
//!   non-trivial per-image dispatch overhead, unoptimized preprocessing
//!   DAG, and an unoptimized DNN backend (no inference compiler);
//! * **DALI** — optimized preprocessing for *training*: buffers must be
//!   handed to the caller (no reuse), and TensorRT integration requires an
//!   extra host copy per batch;
//! * **Smol** — everything on.

use crate::pipeline::RuntimeOptions;
use smol_accel::ExecutionEnv;

/// A named runtime configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Personality {
    Smol,
    Dali,
    PyTorch,
}

impl Personality {
    pub fn name(&self) -> &'static str {
        match self {
            Personality::Smol => "SMOL",
            Personality::Dali => "DALI",
            Personality::PyTorch => "PyTorch",
        }
    }

    /// Runtime options for this personality with `vcpus` producer threads.
    pub fn options(&self, vcpus: usize) -> RuntimeOptions {
        match self {
            Personality::Smol => RuntimeOptions {
                producers: vcpus,
                ..Default::default()
            },
            Personality::Dali => RuntimeOptions {
                producers: vcpus,
                // DALI pipelines hand buffers to the training framework, so
                // staging memory cannot be recycled (Appendix A.1).
                memory_reuse: false,
                pinned: true,
                extra_copy_per_batch: true,
                ..Default::default()
            },
            Personality::PyTorch => RuntimeOptions {
                producers: vcpus,
                memory_reuse: false,
                pinned: false,
                // Eager per-image dispatch overhead (Python interpreter,
                // allocator churn): ~300 µs/image.
                extra_cpu_s_per_image: 300e-6,
                ..Default::default()
            },
        }
    }

    /// The DNN execution environment this personality uses.
    pub fn env(&self) -> ExecutionEnv {
        match self {
            // DALI pairs with TensorRT in the paper's comparison; PyTorch
            // executes eagerly.
            Personality::Smol | Personality::Dali => ExecutionEnv::TensorRt,
            Personality::PyTorch => ExecutionEnv::PyTorch,
        }
    }

    pub fn all() -> [Personality; 3] {
        [Personality::Smol, Personality::Dali, Personality::PyTorch]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smol_has_all_optimizations() {
        let o = Personality::Smol.options(4);
        assert!(o.memory_reuse && o.pinned);
        assert_eq!(o.effective_producers(), 4);
        assert_eq!(o.extra_cpu_s_per_image, 0.0);
        assert!(!o.extra_copy_per_batch);
    }

    #[test]
    fn dali_pays_extra_copy_but_keeps_pinned() {
        let o = Personality::Dali.options(4);
        assert!(o.extra_copy_per_batch);
        assert!(o.pinned);
        assert!(!o.memory_reuse);
    }

    #[test]
    fn pytorch_is_slowest_configuration() {
        let o = Personality::PyTorch.options(4);
        assert!(!o.pinned && !o.memory_reuse);
        assert!(o.extra_cpu_s_per_image > 0.0);
        assert_eq!(Personality::PyTorch.env(), ExecutionEnv::PyTorch);
    }
}
