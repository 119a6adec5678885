//! Wall-clock virtual accelerator.
//!
//! The device is modeled as two serially-reusable engines — a **compute
//! engine** (SM array) and a **copy engine** (DMA) — each with a FIFO
//! reservation timeline. Work is submitted the way a CUDA stream takes it:
//! a `launch_*` call reserves the engine's next slot and returns at once
//! with the instant that slot ends, and passing that instant as the next
//! op's `after` orders the two (a kernel never starts before the copy that
//! feeds it has landed). Only [`VirtualDevice::wait_until`] blocks, so a
//! caller can keep a second batch enqueued behind the one that is executing
//! and the host's wake-up latency stays off the device timeline. The blocking
//! [`VirtualDevice::dnn_batch`] is "launch, then wait" — a stream synchronise
//! after the op (the `T_exec` profile). Either way pipelining, backpressure,
//! contention between preprocessing kernels and DNN kernels, and the
//! `min(preproc, exec)` law (§4) all emerge in real wall-clock measurements
//! rather than being asserted, and [`DeviceStats`] accounts the same busy
//! seconds and op counts.
//!
//! A `time_scale` multiplier shrinks simulated durations uniformly so tests
//! exercise the same code paths quickly; harnesses run at scale 1.0.

use crate::device::{DeviceSpec, GpuModel};
use crate::envs::ExecutionEnv;
use crate::models::{throughput_scaled, ModelKind};
use crate::sync::lock;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which engine a reservation occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    Compute,
    Copy,
}

/// One engine's FIFO reservation timeline.
#[derive(Debug)]
struct EngineTimeline {
    /// When the engine becomes free.
    free_at: Instant,
    /// Accumulated busy seconds (for utilization reporting).
    busy_s: f64,
    ops: u64,
}

impl EngineTimeline {
    fn idle(origin: Instant) -> Self {
        EngineTimeline {
            free_at: origin,
            busy_s: 0.0,
            ops: 0,
        }
    }
}

#[derive(Debug)]
struct Timeline {
    origin: Instant,
    compute: EngineTimeline,
    copy: EngineTimeline,
}

/// Utilization snapshot of a virtual device.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeviceStats {
    pub compute_busy_s: f64,
    pub copy_busy_s: f64,
    pub kernels: u64,
    pub copies: u64,
}

impl DeviceStats {
    /// Fraction of `elapsed_s` the compute engine was busy (clamped to
    /// [0, 1]); serving-side occupancy metric. Pass simulated-elapsed
    /// seconds ([`VirtualDevice::uptime_s`]) so the units agree.
    pub fn compute_occupancy(&self, elapsed_s: f64) -> f64 {
        if elapsed_s <= 0.0 {
            0.0
        } else {
            (self.compute_busy_s / elapsed_s).clamp(0.0, 1.0)
        }
    }

    /// Accumulates `other` into `self` — fleet-level aggregation across a
    /// device pool (busy seconds and op counts are additive; occupancy of
    /// the merged stats is busy seconds over *summed* device uptimes).
    pub fn merge(&mut self, other: &DeviceStats) {
        self.compute_busy_s += other.compute_busy_s;
        self.copy_busy_s += other.copy_busy_s;
        self.kernels += other.kernels;
        self.copies += other.copies;
    }
}

/// A shared, thread-safe virtual accelerator.
#[derive(Debug, Clone)]
pub struct VirtualDevice {
    spec: DeviceSpec,
    env: ExecutionEnv,
    time_scale: f64,
    state: Arc<Mutex<Timeline>>,
}

impl VirtualDevice {
    /// Creates a device; `time_scale` < 1 speeds up simulated time
    /// uniformly (tests), 1.0 is real time (benchmarks).
    pub fn new(model: GpuModel, env: ExecutionEnv, time_scale: f64) -> Self {
        Self::with_spec(model.spec(), env, time_scale)
    }

    /// Creates a device from a custom spec (used by harnesses that need a
    /// specific execution rate, e.g. Table 3's balanced/bound regimes).
    pub fn with_spec(spec: DeviceSpec, env: ExecutionEnv, time_scale: f64) -> Self {
        let origin = Instant::now();
        VirtualDevice {
            spec,
            env,
            time_scale,
            state: Arc::new(Mutex::new(Timeline {
                origin,
                compute: EngineTimeline::idle(origin),
                copy: EngineTimeline::idle(origin),
            })),
        }
    }

    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    pub fn env(&self) -> ExecutionEnv {
        self.env
    }

    pub fn time_scale(&self) -> f64 {
        self.time_scale
    }

    /// Blocks until `done` (an instant a `launch_*` call returned) has
    /// passed: the stream synchronise. Returns at once when it already has.
    pub fn wait_until(done: Instant) {
        let now = Instant::now();
        if done > now {
            std::thread::sleep(done - now);
        }
    }

    /// Reserves `dur_s` *unscaled* seconds on an engine without blocking:
    /// the engine's next slot, starting no earlier than the engine is free,
    /// than now, and than `after` (the end of the op's predecessor in its
    /// stream). Returns when the slot ends.
    fn reserve(&self, engine: Engine, dur_s: f64, after: Instant) -> Instant {
        let scaled_s = dur_s * self.time_scale;
        let mut tl = lock(&self.state);
        let line = match engine {
            Engine::Compute => &mut tl.compute,
            Engine::Copy => &mut tl.copy,
        };
        let start = line.free_at.max(Instant::now()).max(after);
        let end = start + Duration::from_secs_f64(scaled_s);
        line.free_at = end;
        line.busy_s += scaled_s;
        line.ops += 1;
        end
    }

    /// The device's ResNet-50 scale relative to the T4 anchor (honors
    /// custom specs from [`Self::with_spec`]).
    fn device_scale(&self) -> f64 {
        self.spec.resnet50_batch64 / GpuModel::T4.spec().resnet50_batch64
    }

    fn dnn_batch_s(&self, model: ModelKind, batch: usize) -> f64 {
        batch as f64 / self.model_throughput(model, batch)
    }

    fn preproc_kernel_s(&self, weighted_ops: f64) -> f64 {
        weighted_ops / self.spec.elementwise_ops_per_s
    }

    /// Unscaled seconds a host→device copy of `bytes` occupies the copy
    /// engine (~10µs submission latency + bandwidth term); `None` when the
    /// device has no copy cost (infinite bandwidth: a CPU-only "device").
    /// Pinned staging buffers get the fast DMA path (§6.1).
    fn transfer_s(&self, bytes: usize, pinned: bool) -> Option<f64> {
        let bw = if pinned {
            self.spec.pinned_copy_bps
        } else {
            self.spec.pageable_copy_bps
        };
        bw.is_finite().then(|| 10e-6 + bytes as f64 / bw)
    }

    /// Enqueues one DNN batch on the compute engine, ordered after `after`
    /// (the end of its predecessor in the stream; `Instant::now()` for the
    /// first op), for `batch / throughput(model, batch)` seconds. Returns
    /// when the batch completes, without waiting for it.
    pub fn launch_dnn_batch(&self, model: ModelKind, batch: usize, after: Instant) -> Instant {
        self.reserve(Engine::Compute, self.dnn_batch_s(model, batch), after)
    }

    /// Enqueues an accelerator-side preprocessing kernel measured in
    /// weighted ops (the `smol_imgproc::dag` unit); see
    /// [`Self::launch_dnn_batch`] for `after` and the return value.
    pub fn launch_preproc_kernel(&self, weighted_ops: f64, after: Instant) -> Instant {
        self.reserve(Engine::Compute, self.preproc_kernel_s(weighted_ops), after)
    }

    /// Enqueues a host→device copy of `bytes` on the copy engine; see
    /// [`Self::launch_dnn_batch`] for `after` and the return value. A device
    /// without copy cost takes no slot and the stream continues from
    /// `after`.
    pub fn launch_transfer(&self, bytes: usize, pinned: bool, after: Instant) -> Instant {
        match self.transfer_s(bytes, pinned) {
            Some(dur_s) => self.reserve(Engine::Copy, dur_s, after),
            None => after,
        }
    }

    /// Executes one DNN batch and blocks until it completes: occupies the
    /// compute engine for `batch / throughput(model, batch)` seconds.
    pub fn dnn_batch(&self, model: ModelKind, batch: usize) -> f64 {
        Self::wait_until(self.launch_dnn_batch(model, batch, Instant::now()));
        self.dnn_batch_s(model, batch) * self.time_scale
    }

    /// The throughput the device would sustain for `model` at `batch`
    /// (images/second in *simulated* time).
    pub fn model_throughput(&self, model: ModelKind, batch: usize) -> f64 {
        throughput_scaled(model, self.device_scale(), self.env, batch)
    }

    /// Wall-clock seconds since this device was created (the denominator
    /// for occupancy reporting; simulated and real time agree when
    /// `time_scale == 1`).
    pub fn uptime_s(&self) -> f64 {
        lock(&self.state).origin.elapsed().as_secs_f64()
    }

    /// Utilization snapshot (simulated seconds).
    pub fn stats(&self) -> DeviceStats {
        let tl = lock(&self.state);
        DeviceStats {
            compute_busy_s: tl.compute.busy_s,
            copy_busy_s: tl.copy.busy_s,
            kernels: tl.compute.ops,
            copies: tl.copy.ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn fast_t4() -> VirtualDevice {
        VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 0.02)
    }

    #[test]
    fn dnn_batch_takes_service_time() {
        let dev = fast_t4();
        let start = Instant::now();
        // 10 batches of 64 at 4513 im/s = 142ms unscaled → ~2.8ms scaled.
        for _ in 0..10 {
            dev.dnn_batch(ModelKind::ResNet50, 64);
        }
        let elapsed = start.elapsed().as_secs_f64();
        let expected = 10.0 * 64.0 / 4513.0 * 0.02;
        assert!(elapsed >= expected * 0.9, "{elapsed} vs {expected}");
        assert_eq!(dev.stats().kernels, 10);
    }

    #[test]
    fn concurrent_submissions_serialize_on_compute() {
        let dev = fast_t4();
        let start = Instant::now();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let d = dev.clone();
                std::thread::spawn(move || {
                    d.dnn_batch(ModelKind::ResNet50, 64);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let elapsed = start.elapsed().as_secs_f64();
        let serial = 4.0 * 64.0 / 4513.0 * 0.02;
        assert!(
            elapsed >= serial * 0.9,
            "4 kernels must serialize: {elapsed} vs {serial}"
        );
    }

    #[test]
    fn copy_and_compute_engines_overlap() {
        // Durations are kept well above OS sleep granularity so the
        // overlap-vs-serial comparison is meaningful.
        let dev = VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 0.5);
        let d2 = dev.clone();
        let start = Instant::now();
        let compute = std::thread::spawn(move || {
            for _ in 0..5 {
                d2.dnn_batch(ModelKind::ResNet50, 64);
            }
        });
        // 5 large pageable copies on the copy engine, concurrently, each
        // synchronised before the next is launched.
        for _ in 0..5 {
            VirtualDevice::wait_until(dev.launch_transfer(20_000_000, false, Instant::now()));
        }
        compute.join().unwrap();
        let elapsed = start.elapsed().as_secs_f64();
        let compute_time = 5.0 * 64.0 / 4513.0 * 0.5;
        let copy_time = 5.0 * (10e-6 + 20e6 / 3.5e9) * 0.5;
        // Overlapped runtime must be well below the serialized sum.
        assert!(
            elapsed < (compute_time + copy_time) * 0.95,
            "elapsed={elapsed} sum={}",
            compute_time + copy_time
        );
        let stats = dev.stats();
        assert!(stats.copy_busy_s > 0.0 && stats.compute_busy_s > 0.0);
    }

    /// Busy seconds `launch` adds to an idle device's engines, once the
    /// stream it enqueued has been waited out.
    fn busy_after(dev: &VirtualDevice, launch: impl FnOnce(Instant) -> Instant) -> DeviceStats {
        let before = dev.stats();
        VirtualDevice::wait_until(launch(Instant::now()));
        let after = dev.stats();
        DeviceStats {
            compute_busy_s: after.compute_busy_s - before.compute_busy_s,
            copy_busy_s: after.copy_busy_s - before.copy_busy_s,
            kernels: after.kernels - before.kernels,
            copies: after.copies - before.copies,
        }
    }

    #[test]
    fn pinned_transfer_faster_than_pageable() {
        let dev = fast_t4();
        let pinned = busy_after(&dev, |t| dev.launch_transfer(50_000_000, true, t)).copy_busy_s;
        let pageable = busy_after(&dev, |t| dev.launch_transfer(50_000_000, false, t)).copy_busy_s;
        assert!(
            pinned < pageable / 2.0,
            "pinned={pinned} pageable={pageable}"
        );
    }

    #[test]
    fn preproc_kernel_scales_with_ops() {
        let dev = fast_t4();
        let small = busy_after(&dev, |t| dev.launch_preproc_kernel(1e6, t));
        let large = busy_after(&dev, |t| dev.launch_preproc_kernel(1e8, t));
        assert_eq!((small.kernels, small.copies), (1, 0), "the compute engine");
        assert!(large.compute_busy_s > small.compute_busy_s * 50.0);
    }

    // The launch tests below assert positions on the reservation timeline
    // (the instants `launch_*` returns), never how long anything took, so
    // they hold on a loaded host. A large time scale keeps every slot far
    // longer than the test itself runs: nothing completes underneath it.

    fn slow_t4() -> VirtualDevice {
        VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 100.0)
    }

    /// The scaled duration of one ResNet-50 batch-64 kernel on `dev`.
    fn kernel(dev: &VirtualDevice) -> Duration {
        Duration::from_secs_f64(dev.dnn_batch_s(ModelKind::ResNet50, 64) * dev.time_scale())
    }

    /// Launches copy → kernel as one stream; returns both completions.
    fn launch_batch(dev: &VirtualDevice) -> (Instant, Instant) {
        let copied = dev.launch_transfer(1_000_000, true, Instant::now());
        (
            copied,
            dev.launch_dnn_batch(ModelKind::ResNet50, 64, copied),
        )
    }

    #[test]
    fn a_streams_kernel_never_starts_before_its_copy_ends() {
        let dev = slow_t4();
        // Both engines are idle, so only the stream orders the two ops.
        let (copied, done) = launch_batch(&dev);
        assert!(copied > Instant::now(), "launching does not wait");
        assert!(done - kernel(&dev) >= copied);
    }

    #[test]
    fn the_next_batchs_copy_overlaps_this_batchs_compute() {
        let dev = slow_t4();
        let (_, done0) = launch_batch(&dev);
        let (copied1, done1) = launch_batch(&dev);
        assert!(kernel(&dev) > Duration::from_secs_f64(dev.transfer_s(1_000_000, true).unwrap()));
        assert!(copied1 < done0, "copy n+1 lands while compute n runs");
        assert_eq!(done1, done0 + kernel(&dev), "compute n+1 starts as n ends");
    }

    #[test]
    fn launched_batches_complete_in_launch_order() {
        let dev = slow_t4();
        let origin = Instant::now();
        let done: Vec<Instant> = (0..5).map(|_| launch_batch(&dev).1).collect();
        assert!(done.windows(2).all(|w| w[0] < w[1]), "{done:?}");
        assert!(done[4] >= origin + 5 * kernel(&dev));
    }

    #[test]
    fn launching_and_blocking_account_the_same_device_stats() {
        let launched = fast_t4();
        let mut tail = Instant::now();
        tail = launched.launch_transfer(600_000, true, tail);
        tail = launched.launch_transfer(600_000, false, tail);
        tail = launched.launch_preproc_kernel(3e6, tail);
        tail = launched.launch_dnn_batch(ModelKind::ResNet50, 64, tail);
        launched.launch_dnn_batch(ModelKind::ResNet18, 7, tail);

        // The same ops, each synchronised before the next is launched.
        let blocking = fast_t4();
        let sync = VirtualDevice::wait_until;
        sync(blocking.launch_transfer(600_000, true, Instant::now()));
        sync(blocking.launch_transfer(600_000, false, Instant::now()));
        sync(blocking.launch_preproc_kernel(3e6, Instant::now()));
        blocking.dnn_batch(ModelKind::ResNet50, 64);
        blocking.dnn_batch(ModelKind::ResNet18, 7);

        assert_eq!(launched.stats(), blocking.stats());
        assert_eq!(launched.stats().kernels, 3);
        assert_eq!(launched.stats().copies, 2);
    }

    #[test]
    fn a_device_without_copy_cost_still_chains() {
        let dev = VirtualDevice::new(GpuModel::CpuOnly, ExecutionEnv::PyTorch, 100.0);
        let after = Instant::now() + Duration::from_secs(3);
        assert_eq!(dev.launch_transfer(1_000_000, false, after), after);
        assert_eq!(dev.stats().copies, 0);
        let dur = Duration::from_secs_f64(dev.dnn_batch_s(ModelKind::ResNet50, 8) * 100.0);
        let done0 = dev.launch_dnn_batch(ModelKind::ResNet50, 8, after);
        assert_eq!(done0, after + dur, "the kernel waits for its predecessor");
        let done1 = dev.launch_dnn_batch(ModelKind::ResNet50, 8, Instant::now());
        assert_eq!(done1, done0 + dur, "and the engine stays FIFO");
    }
}
