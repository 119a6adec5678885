//! # smol-accel
//!
//! The virtual DNN accelerator substrate. The paper's experiments run on an
//! NVIDIA T4 with TensorRT; this reproduction runs on CPUs, so DNN execution
//! is modeled as a calibrated *service-time* process (see
//! docs/PAPER_SHAPES.md, "What is real and what is simulated"):
//!
//! * [`device`] — GPU generation catalog (Table 5 anchors: K80 → RTX),
//!   power draw, copy bandwidths;
//! * [`models`] — virtual DNN catalog (Tables 1–2 anchors: ResNet ladder,
//!   MobileNet-SSD, BlazeIt's tiny ResNet, Mask R-CNN);
//! * [`envs`] — software-stack factors (Table 1: Keras / PyTorch / TensorRT);
//! * [`engine`] — the wall-clock [`engine::VirtualDevice`]: compute + copy
//!   engines with stream-ordered reservation timelines (launch now, wait
//!   later), so pipelining and contention are *measured*, not asserted;
//! * [`economics`] — §7 price/power arithmetic (core-price fit, cost
//!   breakdowns, ¢ per million images).
#![deny(unsafe_code)]

pub mod device;
pub mod economics;
pub mod engine;
pub mod envs;
pub mod models;

pub use device::{DeviceSpec, GpuModel};
pub use engine::{DeviceStats, VirtualDevice};
pub use envs::ExecutionEnv;
pub use models::{batch_efficiency, throughput, throughput_scaled, ModelKind, VirtualModel};
