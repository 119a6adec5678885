//! Plan-cache keys and the shared, single-flight plan + profile cache.

use smol_accel::sync::{lock, wait};
use smol_accel::{ExecutionEnv, GpuModel, VirtualDevice};
use smol_core::{ConstraintKey, PlanCandidate, PlannerConfig};
use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Identity of the device pool a session executes on, for plan-cache
/// keys: the primary device's model + environment + calibrated anchor and
/// time scale (so custom [`DeviceSpec`](smol_accel::DeviceSpec)s with the
/// same `GpuModel` tag still key distinctly), plus a digest over every
/// fleet member so two fleets with the same primary but different
/// secondaries never share cached plans.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DeviceKey {
    model: GpuModel,
    env: ExecutionEnv,
    anchor_bits: u64,
    time_scale_bits: u64,
    fleet_bits: u64,
}

impl DeviceKey {
    pub fn of(device: &VirtualDevice) -> Self {
        Self::of_fleet(std::slice::from_ref(device))
    }

    /// Keys a device pool; `devices[0]` is the primary the planner costs
    /// against. Panics on an empty slice.
    pub fn of_fleet(devices: &[VirtualDevice]) -> Self {
        let primary = devices.first().expect("fleet has at least one device");
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for d in devices {
            d.spec().model.hash(&mut h);
            d.env().hash(&mut h);
            d.spec().resnet50_batch64.to_bits().hash(&mut h);
            d.time_scale().to_bits().hash(&mut h);
        }
        DeviceKey {
            model: primary.spec().model,
            env: primary.env(),
            anchor_bits: primary.spec().resnet50_batch64.to_bits(),
            time_scale_bits: primary.time_scale().to_bits(),
            fleet_bits: h.finish(),
        }
    }
}

/// Full plan-cache key: `(dataset, constraint, PlannerConfig, device)`,
/// where "dataset" is the registered name *plus* its structural
/// fingerprint (see `Dataset::fingerprint`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    pub(crate) dataset: String,
    pub(crate) fingerprint: u64,
    pub(crate) constraint: ConstraintKey,
    pub(crate) planner: PlannerConfig,
    pub(crate) device: DeviceKey,
}

/// Profile-cache key: profiled preprocessing throughput depends on the
/// dataset variant and the planner configuration (which shapes the
/// preprocessing plan and decode mode) but *not* on the device, env, or
/// constraint — profiling is CPU-side — so a device change re-plans
/// without re-measuring. The planner component is therefore the config
/// with its device/env fields pinned (see
/// `Session::profile_planner_key`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct ProfileKey {
    pub(crate) dataset: String,
    pub(crate) fingerprint: u64,
    pub(crate) variant: String,
    pub(crate) planner: PlannerConfig,
}

/// A resolved, cached planning decision.
#[derive(Debug, Clone)]
pub struct ChosenPlan {
    /// The winning candidate; `candidate.plan` is executable as-is.
    pub candidate: PlanCandidate,
    /// Name of the input variant the plan reads.
    pub variant: String,
    /// The Pareto frontier the winner was drawn from, cached so
    /// [`Session::explain`](crate::Session::explain) never re-derives specs.
    pub frontier: Vec<PlanCandidate>,
}

/// A keyed compute-once map: the first caller of a key computes its value
/// outside the lock while later callers of the same key wait for it.
struct SingleFlight<K, V> {
    /// `None` marks a key some caller is computing right now.
    slots: Mutex<HashMap<K, Option<V>>>,
    settled: Condvar,
}

impl<K, V> Default for SingleFlight<K, V> {
    fn default() -> Self {
        SingleFlight {
            slots: Mutex::new(HashMap::new()),
            settled: Condvar::new(),
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> SingleFlight<K, V> {
    /// The value for `key`: the ready one (after waiting out another
    /// caller's computation; flagged `true`), else the result of `compute`,
    /// published on success. A failed attempt is not cached; the waiters
    /// wake and try for themselves.
    fn get_or<E>(&self, key: &K, compute: impl FnOnce() -> Result<V, E>) -> Result<(V, bool), E> {
        {
            let mut slots = lock(&self.slots);
            loop {
                match slots.get(key) {
                    Some(Some(value)) => return Ok((value.clone(), true)),
                    Some(None) => slots = wait(&self.settled, slots),
                    None => break,
                }
            }
            slots.insert(key.clone(), None);
        }
        // Compute outside the lock (profiling is slow). The guard settles
        // the slot on *every* exit — success, error return or panic — so a
        // failed computation can never wedge concurrent callers of the key.
        let _settle = Settle { flight: self, key };
        let value = compute()?;
        lock(&self.slots).insert(key.clone(), Some(value.clone()));
        Ok((value, false))
    }

    /// Keys holding a ready value.
    fn ready(&self) -> usize {
        lock(&self.slots).values().flatten().count()
    }
}

/// Wakes a key's waiters when its computation ends, first retracting the
/// slot if it is still pending (the computation failed or unwound).
struct Settle<'a, K: Eq + Hash, V> {
    flight: &'a SingleFlight<K, V>,
    key: &'a K,
}

impl<K: Eq + Hash, V> Drop for Settle<'_, K, V> {
    fn drop(&mut self) {
        let mut slots = lock(&self.flight.slots);
        if let Some(None) = slots.get(self.key) {
            slots.remove(self.key);
        }
        drop(slots);
        self.flight.settled.notify_all();
    }
}

/// Shared, thread-safe plan + profile cache. Construct one per session
/// (the [`Session::new`](crate::Session::new) default) or share one
/// `Arc<PlanCache>` across sessions over different devices/configs to pool
/// planning work.
///
/// Misses are **single-flight per key**: concurrent submissions of the
/// same `(dataset, constraint, config, device)` tuple plan once — the
/// rest wait and count as hits. Without this, simultaneous first-use
/// queries would profile the same variants in parallel and perturb each
/// other's throughput measurements. A planning attempt that fails — or
/// panics — retracts its pending slot and wakes the waiters, which then
/// try for themselves.
#[derive(Default)]
pub struct PlanCache {
    plans: SingleFlight<PlanKey, Arc<ChosenPlan>>,
    profiles: SingleFlight<ProfileKey, f64>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Counters for [`PlanCache`] behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Plan lookups answered from cache.
    pub hits: u64,
    /// Plan lookups that had to profile/plan.
    pub misses: u64,
    /// Distinct cached plans.
    pub plans: usize,
    /// Distinct cached per-variant profiles.
    pub profiles: usize,
}

impl PlanCache {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Acquire),
            misses: self.misses.load(Ordering::Acquire),
            plans: self.plans.ready(),
            profiles: self.profiles.ready(),
        }
    }

    /// Returns the cached plan for `key`, or runs `plan` to produce it.
    /// Concurrent callers with the same key wait for the in-flight
    /// planning instead of duplicating it (and count as hits). A failed
    /// planning attempt is not cached; waiters retry it themselves.
    pub(crate) fn get_or_plan<E>(
        &self,
        key: &PlanKey,
        plan: impl FnOnce() -> Result<Arc<ChosenPlan>, E>,
    ) -> Result<(Arc<ChosenPlan>, bool), E> {
        let (chosen, hit) = self.plans.get_or(key, || {
            self.misses.fetch_add(1, Ordering::AcqRel);
            plan()
        })?;
        if hit {
            self.hits.fetch_add(1, Ordering::AcqRel);
        }
        Ok((chosen, hit))
    }

    /// Like [`PlanCache::get_or_plan`] but for per-variant profiling:
    /// single-flight per key, measured outside the lock. Concurrent
    /// measurements of the same variant would contend for the CPU and
    /// understate both throughputs, so waiters block instead.
    pub(crate) fn profile_or(&self, key: ProfileKey, measure: impl FnOnce() -> f64) -> f64 {
        match self
            .profiles
            .get_or(&key, || Ok::<f64, Infallible>(measure()))
        {
            Ok((throughput, _)) => throughput,
            Err(never) => match never {},
        }
    }
}
