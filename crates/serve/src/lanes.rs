//! The device half of the [`Server`](crate::Server): one *lane* per
//! [`VirtualDevice`] — a bounded queue of formed batches and the consumer
//! threads that launch them — plus dispatch, work stealing, and the lane
//! half of retiring a batch.
//!
//! A lane sees formed batches and their produced items, never a query's
//! per-item state: a retired batch's outputs go back through
//! `Core::retire`, the query side's one pass under the scheduler lock.
//! The lane state ([`Fleet`]) has a lock of its own.

use crate::core::{BatchItem, Effects, Retired};
use crate::scheduler::{pick_lane, FormedBatch, LaneLoad};
use crate::server::{panic_message, Inner};
use crate::stats::DeviceLaneStats;
use smol_accel::sync::{lock, wait, wait_until};
use smol_accel::VirtualDevice;
use smol_runtime::{launch_device_batch, DeviceBatchSpec};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Batches a consumer may have launched and not yet retired: the one the
/// device is executing and one enqueued behind it, so the device starts
/// the second the instant the first ends rather than after this thread has
/// woken up, retired the first and come back round. A third would buy
/// nothing — the device is already never idle between two — and cost
/// another batch of staging memory; the staging entitlement
/// (`core::Staging::pool`) grants each consumer two.
const LAUNCH_WINDOW: usize = 2;

/// One device lane: the device, its bounded batch queue, and counters.
struct Lane {
    device: VirtualDevice,
    queue: VecDeque<FormedBatch<BatchItem>>,
    /// Batches this lane's consumers have launched and not yet retired,
    /// and the items in them.
    in_flight: usize,
    in_flight_items: usize,
    batches: u64,
    images: u64,
    /// Batches this lane executed that were queued on another lane.
    stolen_batches: u64,
    /// Batches launched while an earlier one of the same consumer was
    /// still unretired.
    overlapped_batches: u64,
    /// Seconds from each batch's completion on the device to its retire.
    retire_lag_s: f64,
}

impl Lane {
    fn queued_items(&self) -> usize {
        self.queue.iter().map(|batch| batch.items.len()).sum()
    }
}

pub(crate) struct Fleet {
    lanes: Vec<Lane>,
    /// Live producer threads; consumers drain and exit once this hits 0
    /// with every lane queue empty.
    producers_live: usize,
}

impl Fleet {
    /// One lane per device; consumers run until `producers` producer
    /// threads have exited.
    pub fn new(devices: Vec<VirtualDevice>, producers: usize) -> Fleet {
        let lane = |device| Lane {
            device,
            queue: VecDeque::new(),
            in_flight: 0,
            in_flight_items: 0,
            batches: 0,
            images: 0,
            stolen_batches: 0,
            overlapped_batches: 0,
            retire_lag_s: 0.0,
        };
        Fleet {
            lanes: devices.into_iter().map(lane).collect(),
            producers_live: producers,
        }
    }

    /// Queues `batch` on the lane with queue space that is expected to
    /// finish it first ([`pick_lane`]); hands it back when every queue
    /// holds `queue_cap` batches.
    pub fn place(
        &mut self,
        batch: FormedBatch<BatchItem>,
        queue_cap: usize,
    ) -> Result<(), FormedBatch<BatchItem>> {
        let loads = self.lanes.iter().map(|lane| LaneLoad {
            items: lane.queued_items() + lane.in_flight_items,
            rate: lane.device.model_throughput(batch.sig.dnn, batch.sig.batch)
                / lane.device.time_scale(),
            has_space: lane.queue.len() < queue_cap,
        });
        let Some(i) = pick_lane(loads, batch.items.len()) else {
            return Err(batch);
        };
        self.lanes[i].queue.push_back(batch);
        Ok(())
    }

    /// Takes the next batch for a consumer of lane `lane_idx`: the front of
    /// its own queue, else — only with nothing in its launch window
    /// (`window_empty`) — the front of the other queue holding most items
    /// (batches differ in size once some are released partial). A consumer
    /// with a batch on the device is not idle, and a batch it stole would
    /// wait behind that one while the victim lane might have run it sooner.
    /// Batches are self-contained, so executing one on a different device
    /// changes timing only, never results.
    pub fn take_batch(
        &mut self,
        lane_idx: usize,
        window_empty: bool,
    ) -> Option<FormedBatch<BatchItem>> {
        let stolen = self.lanes[lane_idx].queue.is_empty();
        let from = if !stolen {
            lane_idx
        } else if window_empty {
            (0..self.lanes.len()).max_by_key(|&j| self.lanes[j].queued_items())?
        } else {
            return None;
        };
        let batch = self.lanes[from].queue.pop_front()?;
        let lane = &mut self.lanes[lane_idx];
        lane.in_flight += 1;
        lane.in_flight_items += batch.items.len();
        lane.stolen_batches += u64::from(stolen);
        lane.overlapped_batches += u64::from(!window_empty);
        Some(batch)
    }

    /// Books a retired batch of `items` items on lane `lane_idx`, `lag_s`
    /// after the device completed it.
    pub fn retired(&mut self, lane_idx: usize, items: usize, lag_s: f64) {
        let lane = &mut self.lanes[lane_idx];
        lane.in_flight -= 1;
        lane.in_flight_items -= items;
        lane.batches += 1;
        lane.images += items as u64;
        lane.retire_lag_s += lag_s;
    }
}

#[cfg(test)]
impl Fleet {
    /// Whether [`Fleet::take_batch`] would hand lane `lane_idx` a batch.
    pub fn takeable(&self, lane_idx: usize, window_empty: bool) -> bool {
        let queued = |lane: &Lane| !lane.queue.is_empty();
        queued(&self.lanes[lane_idx]) || (window_empty && self.lanes.iter().any(queued))
    }

    /// Whether some lane queue has space for another batch.
    pub fn has_space(&self, queue_cap: usize) -> bool {
        self.lanes.iter().any(|lane| lane.queue.len() < queue_cap)
    }

    /// Items queued or in flight across the fleet.
    pub fn items(&self) -> usize {
        let held = |lane: &Lane| lane.queued_items() + lane.in_flight_items;
        self.lanes.iter().map(held).sum()
    }
}

/// The fleet's lanes and the two waits around their queues.
pub(crate) struct Lanes {
    fleet: Mutex<Fleet>,
    /// Capacity of each lane's formed-batch queue.
    queue_cap: usize,
    /// Consumers wait here for queued batches.
    batch_cv: Condvar,
    /// Dispatchers wait here for lane-queue space.
    space_cv: Condvar,
}

impl Lanes {
    /// One lane per device, each queue holding up to `queue_cap` batches;
    /// consumers run until `producers` producer threads have exited.
    pub fn new(devices: Vec<VirtualDevice>, queue_cap: usize, producers: usize) -> Lanes {
        Lanes {
            fleet: Mutex::new(Fleet::new(devices, producers)),
            queue_cap: queue_cap.max(1),
            batch_cv: Condvar::new(),
            space_cv: Condvar::new(),
        }
    }

    /// Hands a formed batch to the lane with queue space that is expected
    /// to finish it first ([`pick_lane`]), blocking while every lane queue
    /// is full (consumers drain them; they outlive every producer, so this
    /// always makes progress).
    pub fn dispatch(&self, mut batch: FormedBatch<BatchItem>) {
        let mut fleet = lock(&self.fleet);
        while let Err(back) = fleet.place(batch, self.queue_cap) {
            (batch, fleet) = (back, wait(&self.space_cv, fleet));
        }
        self.batch_cv.notify_all();
    }

    /// Counts a producer thread out; consumers exit once every producer
    /// has and the lane queues are drained.
    pub fn producer_exited(&self) {
        lock(&self.fleet).producers_live -= 1;
        self.batch_cv.notify_all();
    }

    /// Per-lane counters, with each device's own.
    pub fn stats(&self) -> Vec<DeviceLaneStats> {
        let fleet = lock(&self.fleet);
        let lane_stats = |lane: &Lane| {
            let device = lane.device.stats();
            DeviceLaneStats {
                occupancy: device.compute_occupancy(lane.device.uptime_s()),
                device,
                queued_batches: lane.queue.len(),
                queued_items: lane.queued_items(),
                in_flight_batches: lane.in_flight,
                in_flight_items: lane.in_flight_items,
                batches: lane.batches,
                images: lane.images,
                stolen_batches: lane.stolen_batches,
                overlapped_batches: lane.overlapped_batches,
                retire_lag_s: lane.retire_lag_s,
            }
        };
        fleet.lanes.iter().map(lane_stats).collect()
    }
}

/// A batch enqueued on the device, and when the device will be done with it.
struct Launched {
    batch: FormedBatch<BatchItem>,
    done: Instant,
}

/// One consumer thread of lane `lane_idx`: launches queued batches while its
/// launch window has room and retires them in launch order.
pub(crate) fn consumer_loop(inner: &Inner, lane_idx: usize) {
    let lanes = &inner.lanes;
    let device = lock(&lanes.fleet).lanes[lane_idx].device.clone();
    // Launch order; both device engines are FIFO, so completion order too.
    let mut window: VecDeque<Launched> = VecDeque::with_capacity(LAUNCH_WINDOW);
    let mut fx = Effects::default();
    loop {
        // Launch before waiting: a queued batch goes onto the device while
        // the window has room, and the wait for the oldest completion is
        // cut short when one arrives.
        let next = {
            let mut fleet = lock(&lanes.fleet);
            loop {
                if window.len() < LAUNCH_WINDOW {
                    if let Some(batch) = fleet.take_batch(lane_idx, window.is_empty()) {
                        lanes.space_cv.notify_all();
                        break Some(batch);
                    }
                }
                let Some(oldest) = window.front() else {
                    if fleet.producers_live == 0 {
                        return;
                    }
                    fleet = wait(&lanes.batch_cv, fleet);
                    continue;
                };
                if window.len() == LAUNCH_WINDOW || Instant::now() >= oldest.done {
                    break None;
                }
                (fleet, _) = wait_until(&lanes.batch_cv, fleet, oldest.done);
            }
        };
        match next {
            Some(batch) => window.push_back(launch(inner, &device, batch)),
            None => {
                let oldest = window.pop_front().expect("nothing to launch: waiting");
                VirtualDevice::wait_until(oldest.done);
                retire(inner, lane_idx, oldest, &mut fx);
            }
        }
    }
}

/// Enqueues `batch` on the device; returns without waiting for it.
fn launch(inner: &Inner, device: &VirtualDevice, batch: FormedBatch<BatchItem>) -> Launched {
    let spec = DeviceBatchSpec {
        dnn: batch.sig.dnn,
        pinned: inner.cfg.runtime.pinned,
        extra_copy_per_batch: inner.cfg.runtime.extra_copy_per_batch,
    };
    let bytes: usize = batch.items.iter().map(|b| b.item.transfer_bytes).sum();
    let accel_ops: f64 = batch.items.iter().map(|b| b.item.accel_ops).sum();
    let done = launch_device_batch(device, &spec, batch.items.len(), bytes, accel_ops);
    Launched { batch, done }
}

/// Retires a completed batch: lane counters, inference callbacks, then its
/// outputs go back to their queries.
fn retire(inner: &Inner, lane_idx: usize, launched: Launched, fx: &mut Effects) {
    let Launched { batch, done } = launched;
    let lag_s = done.elapsed().as_secs_f64();
    lock(&inner.lanes.fleet).retired(lane_idx, batch.items.len(), lag_s);
    let (mut retired, full) = run_callbacks(batch);
    inner.run(fx, |core, now, fx| core.retire(&mut retired, full, now, fx));
}

/// Runs an executed batch's inference callbacks. They are user code and run
/// on the calling thread, outside every lock; one that panics fails its own
/// output, and the lane's consumer and the batches launched behind this one
/// live on. The device is done with the tensors: each item's staging buffer
/// goes back to the arena here, before any handle resolves, so a query
/// submitted on the strength of a report finds them idle. Returns the
/// outputs sorted by query (stably: each query's stay in batch order) and
/// whether the batch was full.
pub(crate) fn run_callbacks(batch: FormedBatch<BatchItem>) -> (Vec<Retired>, bool) {
    let full = batch.is_full();
    let run = |b: BatchItem| Retired {
        query: b.query,
        item_idx: b.item_idx,
        idx: b.item.idx,
        claimed_at: b.claimed_at,
        outcome: match (&b.infer, &b.item.image) {
            (Some(infer), Some(img)) => catch_unwind(AssertUnwindSafe(|| infer(b.item.idx, img)))
                .map(Some)
                .map_err(|payload| panic_message("inference callback", payload.as_ref())),
            _ => Ok(None),
        },
    };
    let mut retired: Vec<Retired> = batch.items.into_iter().map(run).collect();
    retired.sort_by_key(|r| r.query);
    (retired, full)
}
