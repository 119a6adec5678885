//! Per-query, per-device, and fleet-wide serving metrics.

use smol_accel::DeviceStats;
use smol_runtime::{PoolStats, SlotKind, StagingStats, TensorCacheStats};
use std::any::Any;

/// Boxed per-image inference output (type-erased so one server can host
/// queries with different result types).
pub type BoxedPrediction = Box<dyn Any + Send>;

/// Outcome of one served query, delivered through its `QueryHandle`.
#[derive(Debug, Default)]
pub struct QueryReport {
    pub id: u64,
    /// Human-readable plan label ("ResNet-50 @ 161 spng"). When the query
    /// degraded, this is the label of the *final* rung it ran on.
    pub label: String,
    /// Images that completed device execution.
    pub images: usize,
    /// Images whose production failed (decode/preprocess error).
    pub failed: usize,
    /// Images never attempted because an earlier item of this query
    /// failed (the scheduler stops claiming after the first error), so
    /// `images + failed + skipped` equals the submitted item count.
    pub skipped: usize,
    /// Submit → completion wall seconds.
    pub wall_s: f64,
    /// Completed images / wall seconds.
    pub throughput: f64,
    /// Median per-item latency (claim by a producer → device batch done).
    pub latency_p50_s: f64,
    /// 95th-percentile per-item latency.
    pub latency_p95_s: f64,
    /// Items this query served from the decoded-tensor cache (those items
    /// paid no decode CPU; `cache_hits <= images + failed`).
    pub cache_hits: usize,
    /// CPU seconds this query spent decoding across producers.
    pub decode_cpu_s: f64,
    /// CPU seconds this query spent in CPU-side preprocessing.
    pub preproc_cpu_s: f64,
    /// This query's staging-buffer checkouts: `allocated` fresh heap
    /// allocations, `reused` served from the server's arena (buffers this
    /// or any earlier query had returned), `waits` blocks on the query's
    /// own entitlement.
    pub pool: PoolStats,
    /// How many degradation steps the scheduler applied to this query
    /// (0 = it ran its originally chosen plan throughout).
    pub degraded_steps: usize,
    /// Frame-level loss: outputs appended to this query that never
    /// executed (`failed + skipped`) — for a live stream's query, whole
    /// GOPs its pacer dropped and GOPs cancelled when it stopped too.
    pub dropped_frames: usize,
    /// Outputs claimed on a rung below the query's originally chosen plan:
    /// after a degradation step, or appended there by a stream's pacer.
    pub downgraded_frames: usize,
    /// Items of a cascade query whose difficulty signal routed them to
    /// the full rung (0 for uniform queries and unrouted items).
    pub escalated_items: usize,
    /// Per-stage produced-item counts of a cascade query
    /// (`stage_histogram[0]` = aggressive rung, `[1]` = full rung).
    /// Empty for uniform queries.
    pub stage_histogram: Vec<usize>,
    /// Calibrated accuracy of the plan the query *finished* on, when the
    /// submitter supplied one (always `>= accuracy_floor`).
    pub accuracy: Option<f64>,
    /// The accuracy floor the query's constraint implies; degradation
    /// never re-plans below it.
    pub accuracy_floor: Option<f64>,
    /// `Some(true)` when the query had a deadline and its wall time
    /// exceeded it; `None` when no deadline was set.
    pub deadline_missed: Option<bool>,
    /// First production error, if any (the query still resolves).
    pub error: Option<String>,
    /// Per-item inference outputs (indexes match the submitted items);
    /// empty unless the query was submitted with an inference callback.
    pub results: Vec<Option<BoxedPrediction>>,
}

impl QueryReport {
    /// Downcasts and takes the per-item results as `R`, consuming them.
    /// Items whose prediction is missing or of a different type yield
    /// `None`.
    pub fn take_results<R: 'static>(&mut self) -> Vec<Option<R>> {
        std::mem::take(&mut self.results)
            .into_iter()
            .map(|slot| slot.and_then(|b| b.downcast::<R>().ok().map(|b| *b)))
            .collect()
    }
}

/// One device lane's view of the fleet, sampled by `Server::stats()`.
#[derive(Debug, Clone)]
pub struct DeviceLaneStats {
    /// Compute-engine busy fraction over this device's lifetime
    /// (simulated busy seconds over real elapsed seconds — the two agree
    /// at `time_scale == 1`).
    pub occupancy: f64,
    /// Virtual-device counters (simulated busy seconds, kernels, copies).
    pub device: DeviceStats,
    /// Formed batches waiting in this lane's queue right now.
    pub queued_batches: usize,
    /// Items in those queued batches. Batches differ in size once some are
    /// released partial, so dispatch and stealing weigh lanes by items.
    pub queued_items: usize,
    /// Batches this lane's consumers have launched and not yet retired:
    /// executing on the device or enqueued behind one that is (at most two
    /// per consumer thread).
    pub in_flight_batches: usize,
    /// Items in those launched batches.
    pub in_flight_items: usize,
    /// Batches this lane has executed (including stolen ones).
    pub batches: u64,
    /// Images this lane has executed.
    pub images: u64,
    /// Batches this lane stole from another lane's queue.
    pub stolen_batches: u64,
    /// Batches launched while an earlier batch of the same consumer was
    /// still unretired — the device had them enqueued before it went idle.
    /// Near zero when the lane is not the bottleneck.
    pub overlapped_batches: u64,
    /// Summed over retired batches: seconds from the device completing a
    /// batch to its consumer retiring it. Host-side delay that only results
    /// wait for; the device has already started the next launched batch.
    pub retire_lag_s: f64,
}

/// Fleet-wide serving metrics, sampled by `Server::stats()`: aggregate
/// counters plus a per-device breakdown in [`ServerStats::devices`].
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    /// Queries admitted so far (including completed ones).
    pub submitted_queries: u64,
    /// Queries fully resolved.
    pub completed_queries: u64,
    /// Queries admitted and not yet resolved (the admission queue depth
    /// that backpressure is applied against).
    pub queue_depth: usize,
    /// Submitters currently blocked in admission (capacity or a
    /// higher-priority waiter ahead of them).
    pub waiting_admission: usize,
    /// Items produced but still pending in the batch former.
    pub pending_batch_items: usize,
    /// Images submitted across all queries.
    pub images_in: u64,
    /// Images that completed device execution.
    pub images_done: u64,
    /// Device batches executed across the fleet.
    pub batches: u64,
    /// Batches containing items from more than one query.
    pub cross_query_batches: u64,
    /// Batches that reached their signature's full batch size.
    pub full_batches: u64,
    /// Partial batches released because only lower-priority work than
    /// their most urgent item was still outstanding under their signature
    /// (the scheduler's priority-drain rule): the named cause when batch
    /// fill drops on a mixed-priority load. 0 with one priority in play.
    pub priority_flushes: u64,
    /// Degradation steps applied across all queries (each re-plan of one
    /// query to a cheaper frontier rung counts once).
    pub degradations: u64,
    /// Frames lost across all finished queries: the sum of their
    /// [`QueryReport::dropped_frames`] (a live stream's shed GOPs included).
    pub dropped_frames: u64,
    /// Frames claimed on a rung below their query's originally chosen
    /// plan: the sum of [`QueryReport::downgraded_frames`].
    pub downgraded_frames: u64,
    /// Completed queries that had a deadline and met it.
    pub deadline_met: u64,
    /// Completed queries that had a deadline and missed it.
    pub deadline_misses: u64,
    /// Batches executed by a lane other than the one they were
    /// dispatched to (work stealing events).
    pub steals: u64,
    /// Decoded-tensor cache counters (hits/misses/evictions/rejected
    /// fills/residency).
    /// All zeros when the cache is disabled (`tensor_cache_bytes == 0`).
    pub tensor_cache: TensorCacheStats,
    /// Staging-buffer checkouts summed over every query so far (what the
    /// per-query `QueryReport::pool` counters add up to), plus the buffers
    /// each tensor geometry's shelf of the arena holds right now.
    pub staging: StagingStats,
    /// Per-device lane breakdown, indexed by lane (device) position.
    pub devices: Vec<DeviceLaneStats>,
}

impl ServerStats {
    /// Fleet-wide device counters: every lane's [`DeviceStats`] merged.
    pub fn device(&self) -> DeviceStats {
        let mut merged = DeviceStats::default();
        for lane in &self.devices {
            merged.merge(&lane.device);
        }
        merged
    }

    /// Mean compute occupancy across the fleet's lanes (0.0 when the
    /// fleet is empty — it never is; `Server` requires >= 1 device).
    pub fn device_occupancy(&self) -> f64 {
        if self.devices.is_empty() {
            return 0.0;
        }
        self.devices.iter().map(|l| l.occupancy).sum::<f64>() / self.devices.len() as f64
    }

    /// Batches launched behind an unretired one, across the fleet.
    pub fn overlapped_batches(&self) -> u64 {
        self.devices.iter().map(|l| l.overlapped_batches).sum()
    }

    /// Mean completion → retire delay of an executed batch, in seconds.
    fn mean_retire_lag_s(&self) -> f64 {
        let lag: f64 = self.devices.iter().map(|l| l.retire_lag_s).sum();
        let batches: u64 = self.devices.iter().map(|l| l.batches).sum();
        if batches == 0 {
            0.0
        } else {
            lag / batches as f64
        }
    }

    /// Fraction of completed deadline-bearing queries that missed their
    /// deadline (0.0 when no query carried a deadline).
    pub fn deadline_miss_rate(&self) -> f64 {
        let total = self.deadline_met + self.deadline_misses;
        if total == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / total as f64
        }
    }
}

/// A few lines for logs and examples: queries and images, batching, lane
/// backlogs, SLO outcomes, then cache and staging-buffer reuse.
impl std::fmt::Display for ServerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "queries {}/{} done ({} active, {} waiting), images {}/{}",
            self.completed_queries,
            self.submitted_queries,
            self.queue_depth,
            self.waiting_admission,
            self.images_done,
            self.images_in,
        )?;
        writeln!(
            f,
            "batches {} ({} full, {} cross-query, {} priority-flushed, {} stolen, {} overlapped), \
             occupancy {:.2}, retire lag {:.3} ms/batch",
            self.batches,
            self.full_batches,
            self.cross_query_batches,
            self.priority_flushes,
            self.steals,
            self.overlapped_batches(),
            self.device_occupancy(),
            self.mean_retire_lag_s() * 1e3,
        )?;
        write!(f, "lanes (batches/items queued + in flight):")?;
        for (i, lane) in self.devices.iter().enumerate() {
            write!(
                f,
                " [{i}] {}/{} + {}/{}",
                lane.queued_batches,
                lane.queued_items,
                lane.in_flight_batches,
                lane.in_flight_items,
            )?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "degradations {}, frames dropped {} / downgraded {}, deadlines met {} / missed {}",
            self.degradations,
            self.dropped_frames,
            self.downgraded_frames,
            self.deadline_met,
            self.deadline_misses,
        )?;
        let cache = &self.tensor_cache;
        writeln!(
            f,
            "tensor cache: {} hits, {} misses, {} evictions, {} rejected, {} B resident",
            cache.hits, cache.misses, cache.evictions, cache.rejected, cache.resident_bytes,
        )?;
        let staging = &self.staging.totals;
        write!(
            f,
            "staging: {} reused, {} allocated, {} waits; idle",
            staging.reused, staging.allocated, staging.waits,
        )?;
        if self.staging.shelves.is_empty() {
            write!(f, " none")?;
        }
        for shelf in &self.staging.shelves {
            let unit = match shelf.kind {
                SlotKind::Tensor => "floats",
                SlotKind::Bytes => "bytes",
            };
            write!(f, " {} B @ {} {unit}", shelf.idle_bytes(), shelf.buf_len)?;
        }
        Ok(())
    }
}

/// Nearest-rank percentile (`q` in [0, 1]) of an unsorted sample set.
/// Returns 0.0 for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let rank = (q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank]
}

#[cfg(test)]
mod tests {
    use super::*;
    use smol_runtime::ShelfStats;

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.95), 95.0);
        assert_eq!(percentile(&xs, 0.0), 0.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn take_results_downcasts() {
        let mut report = QueryReport {
            id: 1,
            label: "t".into(),
            images: 2,
            failed: 0,
            skipped: 0,
            wall_s: 1.0,
            throughput: 2.0,
            latency_p50_s: 0.0,
            latency_p95_s: 0.0,
            cache_hits: 0,
            decode_cpu_s: 0.0,
            preproc_cpu_s: 0.0,
            pool: PoolStats::default(),
            degraded_steps: 0,
            dropped_frames: 0,
            downgraded_frames: 0,
            escalated_items: 0,
            stage_histogram: Vec::new(),
            accuracy: None,
            accuracy_floor: None,
            deadline_missed: None,
            error: None,
            results: vec![Some(Box::new(41usize) as BoxedPrediction), None],
        };
        assert_eq!(report.take_results::<usize>(), vec![Some(41), None]);
        assert!(report.results.is_empty());
    }

    #[test]
    fn server_stats_aggregates_lanes() {
        let lane = |busy: f64, occ: f64, stolen: u64| DeviceLaneStats {
            occupancy: occ,
            device: DeviceStats {
                compute_busy_s: busy,
                copy_busy_s: 0.1,
                kernels: 3,
                copies: 2,
            },
            queued_batches: 1,
            queued_items: 16,
            in_flight_batches: 1,
            in_flight_items: 3,
            batches: 5,
            images: 40,
            stolen_batches: stolen,
            overlapped_batches: 3,
            retire_lag_s: 0.002,
        };
        let stats = ServerStats {
            submitted_queries: 2,
            completed_queries: 2,
            queue_depth: 0,
            waiting_admission: 0,
            pending_batch_items: 0,
            images_in: 80,
            images_done: 80,
            batches: 10,
            cross_query_batches: 0,
            full_batches: 10,
            priority_flushes: 4,
            degradations: 1,
            dropped_frames: 4,
            downgraded_frames: 6,
            deadline_met: 3,
            deadline_misses: 1,
            steals: 2,
            tensor_cache: TensorCacheStats::default(),
            staging: StagingStats {
                totals: PoolStats {
                    reused: 70,
                    allocated: 10,
                    waits: 1,
                },
                shelves: vec![
                    ShelfStats {
                        kind: SlotKind::Tensor,
                        buf_len: 3072,
                        idle: 10,
                        checked_out: 0,
                        peak_checked_out: 10,
                    },
                    ShelfStats {
                        kind: SlotKind::Bytes,
                        buf_len: 3072,
                        idle: 4,
                        checked_out: 0,
                        peak_checked_out: 4,
                    },
                ],
            },
            devices: vec![lane(1.0, 0.5, 0), lane(3.0, 0.7, 2)],
        };
        let merged = stats.device();
        assert_eq!(merged.compute_busy_s, 4.0);
        assert_eq!(merged.kernels, 6);
        assert!((stats.device_occupancy() - 0.6).abs() < 1e-12);
        assert!((stats.deadline_miss_rate() - 0.25).abs() < 1e-12);
        assert_eq!(stats.overlapped_batches(), 6);
        assert!((stats.mean_retire_lag_s() - 0.0004).abs() < 1e-12);
        let shown = stats.to_string();
        assert!(
            shown.contains(
                "4 priority-flushed, 2 stolen, 6 overlapped), occupancy 0.60, \
                 retire lag 0.400 ms/batch\n\
                 lanes (batches/items queued + in flight): [0] 1/16 + 1/3 [1] 1/16 + 1/3\n"
            ),
            "{shown}"
        );
        assert!(
            shown.ends_with(
                "staging: 70 reused, 10 allocated, 1 waits; \
                 idle 122880 B @ 3072 floats 12288 B @ 3072 bytes"
            ),
            "{shown}"
        );
    }
}
