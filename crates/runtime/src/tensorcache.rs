//! Bounded decoded-tensor cache with single-flight fill, admitting and
//! evicting by the decode time an entry saves.
//!
//! The in-memory half of the physical-representation store: once a
//! corpus's variants are materialized on disk, the remaining preprocessing
//! cost of a repeat query is the *decode*. This cache holds decoded images
//! keyed on `(content key, DecodeMode)` — the key
//! ([`smol_codec::EncodedImage::cache_key`], or a GOP's key mixed with a
//! frame position) already commits to the variant's format, dimensions,
//! and exact bytes, so one key space covers every variant of every
//! dataset without coordination.
//!
//! The content key is deliberately **not** the fingerprint that names the
//! same item in the on-disk variant store. Producers hash an item's bytes
//! on every lookup, hit or miss, so the key must cost far less than the
//! decode a hit saves: `cache_key` reads 32 bytes per step, the
//! fingerprint one (and is pinned byte for byte by the store's layout, so
//! it cannot get faster). The cache itself only ever sees the `u64`.
//!
//! # Policy
//!
//! An entry's *value* is the decode time it saves: its access frequency ×
//! its fill cost. What it occupies is its bytes, so entries compete on
//! value per byte (cost-aware, after GreedyDual-Size), and a newcomer must
//! outvalue what it would displace (scan-resistant, after TinyLFU's
//! admission filter).
//!
//! * **Cost** — the wall time of the fill: [`TensorCache::get_or_decode`]
//!   times its closure, and a GOP frame is charged its share of the chain
//!   decode that produced it. A key filled again keeps the smallest cost
//!   it has measured, so a fill slowed by preemption does not inflate it.
//! * **Frequency** — every lookup counts, hit or miss: in the slot of a
//!   resident key (a hit stays one map lookup) and in a history of
//!   recently seen non-resident keys. Every `max(4096, 8 × entries)`
//!   lookups all counts halve and zeros are dropped, so a key that goes
//!   cold ages out and the history stays bounded.
//! * **Admission** — a fill that fits under the budget is kept. A fill
//!   that needs room ranks the resident entries by value per byte, takes
//!   victims from the bottom until it fits, and is admitted only if its
//!   own value — the lookups of its key *before* this one × its cost —
//!   exceeds the victims' summed value. Ties reject, and a rejected fill
//!   evicts nothing and is returned uncached. On a cyclic scan larger
//!   than the budget, a returning key and a resident not yet revisited
//!   have been seen equally often, so the resident stays: the scan keeps
//!   a fixed part of itself resident instead of flushing everything, and
//!   a key never seen before displaces nothing.
//!
//! Invariants:
//!
//! * **Single-flight fill** — when several queries want the same tensor
//!   concurrently, exactly one thread decodes; the rest block on a condvar
//!   and receive the filled tensor, whether or not the cache keeps it. A
//!   failed or panicked fill retracts the pending slot and wakes the
//!   waiters, one of which retries.
//! * **Byte budget** — resident decoded bytes never exceed the configured
//!   budget; an item larger than the whole budget is never admitted.
//! * **Bit identity** — the cache stores exactly what the fill closure
//!   decoded; a hit returns the same pixels the uncached path would
//!   produce (property-tested in `tests/variant_store.rs`).
//! * **Zero budget** — no residency and no frequency bookkeeping: every
//!   lookup decodes, only the counters move.
//!
//! **Trust boundary.** A hit is served on a match of the 64-bit
//! `(content key, mode)` alone; the cache never compares the encoded bytes
//! or checks the tensor's dimensions. The content key is a fast
//! non-cryptographic hash, so two items crafted to collide would be served
//! each other's pixels. One cache is therefore one trust domain: share it
//! only between tenants that may see each other's decoded content.

use smol_accel::sync::{lock, wait};
use smol_core::DecodeMode;
use smol_imgproc::ImageU8;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Cache key: content key of the encoded item + the decode mode the plan
/// runs it under (different modes produce different pixels).
type Key = (u64, DecodeMode);

/// Fewest lookups between two halvings of every frequency count.
const AGING_MIN_LOOKUPS: u64 = 4096;
/// Lookups between two halvings per entry of the slot map, so that one
/// halving pass costs O(1) per lookup however many entries are resident.
const AGING_LOOKUPS_PER_ENTRY: u64 = 8;

/// The outcome of one in-flight fill, handed to every lookup that waited
/// on it: the tensor, or `None` if the fill failed and was retracted.
type Flight = OnceLock<Option<Arc<ImageU8>>>;

enum Slot {
    /// A thread is decoding this entry; waiters block on the condvar until
    /// the flight has an outcome.
    Pending(Arc<Flight>),
    Ready(Entry),
}

struct Entry {
    image: Arc<ImageU8>,
    bytes: u64,
    seen: Seen,
}

/// What the cache knows of a key's worth, resident or not.
#[derive(Clone, Copy)]
struct Seen {
    /// Lookups of the key, halved at every aging pass.
    freq: u32,
    /// Smallest fill cost measured for the key, in seconds; infinite
    /// before the first fill.
    cost_s: f64,
}

impl Seen {
    /// The decode time the key saves: lookups × fill cost.
    fn value(&self) -> f64 {
        f64::from(self.freq) * self.cost_s
    }
}

#[derive(Default)]
struct CacheInner {
    slots: HashMap<Key, Slot>,
    /// Frequency (and best cost) of recently seen non-resident keys.
    history: HashMap<Key, Seen>,
    resident_bytes: u64,
    /// Lookups since the last aging pass.
    lookups: u64,
    /// Scratch for ranking eviction candidates: (value per byte, key).
    ranked: Vec<(f64, Key)>,
    hits: u64,
    misses: u64,
    evictions: u64,
    rejected: u64,
    decodes: u64,
}

/// Counters surfaced through `ServerStats.tensor_cache`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TensorCacheStats {
    /// Lookups served without decoding: from a resident tensor, or from
    /// another thread's in-flight fill this lookup waited on (kept or not).
    pub hits: u64,
    /// Lookups that had to decode.
    pub misses: u64,
    /// Entries evicted to make room for an admitted fill.
    pub evictions: u64,
    /// Fills not admitted: larger than the budget, or worth no more than
    /// the entries they would have displaced. Each was returned uncached.
    pub rejected: u64,
    /// Decoded bytes currently resident (always ≤ the budget).
    pub resident_bytes: u64,
    /// Entries currently resident.
    pub resident_items: usize,
    /// Decode executions actually performed through the cache. Under
    /// single-flight this never exceeds the number of distinct keys
    /// requested (absent evictions and rejections) no matter how many
    /// threads race.
    pub decodes: u64,
}

impl TensorCacheStats {
    /// Observed hit rate in [0, 1]; 0 before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The bounded decoded-tensor cache. Cheap to share: clone the `Arc` it is
/// typically wrapped in, or pass `&TensorCache` into the producer stage
/// functions ([`crate::pipeline::produce_item`]).
pub struct TensorCache {
    inner: Mutex<CacheInner>,
    ready_cv: Condvar,
    budget_bytes: u64,
}

impl std::fmt::Debug for TensorCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TensorCache")
            .field("budget_bytes", &self.budget_bytes)
            .field("stats", &self.stats())
            .finish()
    }
}

impl TensorCache {
    /// A cache holding at most `budget_bytes` of decoded pixels. A budget
    /// of 0 disables residency entirely (every lookup decodes, nothing is
    /// kept or counted towards frequency) while preserving the counter
    /// surface.
    pub fn new(budget_bytes: usize) -> Self {
        TensorCache {
            inner: Mutex::new(CacheInner::default()),
            ready_cv: Condvar::new(),
            budget_bytes: budget_bytes as u64,
        }
    }

    /// Returns the decoded image for `(content_key, mode)`, decoding via
    /// `decode` on a miss; the decode's wall time is the entry's cost. The
    /// boolean is true for a hit — a resident tensor or another thread's
    /// fill this call waited on — i.e. this call performed no decode work
    /// itself.
    pub fn get_or_decode<E>(
        &self,
        content_key: u64,
        mode: DecodeMode,
        decode: impl FnOnce() -> Result<ImageU8, E>,
    ) -> Result<(Arc<ImageU8>, bool), E> {
        self.get_or_fill(content_key, mode, || {
            let t0 = Instant::now();
            let image = decode()?;
            Ok((image, t0.elapsed()))
        })
    }

    /// [`Self::get_or_decode`] for a fill that reports its own cost: a GOP
    /// frame taken from a chain decode shared with its neighbours is
    /// charged its share of that decode, not the ≈ 0 s of the hand-over.
    pub(crate) fn get_or_fill<E>(
        &self,
        content_key: u64,
        mode: DecodeMode,
        fill: impl FnOnce() -> Result<(ImageU8, Duration), E>,
    ) -> Result<(Arc<ImageU8>, bool), E> {
        let key = (content_key, mode);
        let tracked = self.budget_bytes > 0;
        // Lookups of this key before this one, read when this lookup is
        // counted — once, even if a failed fill makes it retry. `None`
        // under a zero budget, which keeps no frequencies.
        let mut prior = None;
        let flight = {
            let mut locked = lock(&self.inner);
            loop {
                let inner = &mut *locked;
                match inner.slots.get_mut(&key) {
                    Some(Slot::Ready(entry)) => {
                        entry.seen.freq = entry.seen.freq.saturating_add(1);
                        let image = Arc::clone(&entry.image);
                        inner.hits += 1;
                        if tracked {
                            inner.tick();
                        }
                        return Ok((image, true));
                    }
                    Some(Slot::Pending(flight)) => {
                        let flight = Arc::clone(flight);
                        if tracked && prior.is_none() {
                            prior = Some(inner.count_absent(key));
                        }
                        while flight.get().is_none() {
                            locked = wait(&self.ready_cv, locked);
                        }
                        if let Some(Some(image)) = flight.get() {
                            locked.hits += 1;
                            return Ok((Arc::clone(image), true));
                        }
                        // The fill failed and was retracted: retry.
                    }
                    None => {
                        if tracked && prior.is_none() {
                            prior = Some(inner.count_absent(key));
                        }
                        let flight = Arc::new(Flight::new());
                        inner.slots.insert(key, Slot::Pending(Arc::clone(&flight)));
                        break flight;
                    }
                }
            }
        };
        // We own the pending slot; fill outside the lock. The guard
        // retracts it (and wakes waiters to retry) if `fill` errors or
        // panics.
        let mut guard = RetractPending {
            cache: self,
            key,
            flight: &flight,
            armed: true,
        };
        let (image, cost) = fill()?;
        let image = Arc::new(image);
        let bytes = image.data().len() as u64;
        let mut inner = lock(&self.inner);
        inner.misses += 1;
        inner.decodes += 1;
        let cost_s = inner
            .history
            .get(&key)
            .map_or(cost.as_secs_f64(), |s| s.cost_s.min(cost.as_secs_f64()));
        let value = f64::from(prior.unwrap_or(0)) * cost_s;
        if inner.admit(bytes, value, self.budget_bytes) {
            let freq = inner.history.remove(&key).map_or(1, |s| s.freq.max(1));
            inner.resident_bytes += bytes;
            inner.slots.insert(
                key,
                Slot::Ready(Entry {
                    image: Arc::clone(&image),
                    bytes,
                    seen: Seen { freq, cost_s },
                }),
            );
        } else {
            inner.rejected += 1;
            inner.slots.remove(&key);
            if let Some(seen) = inner.history.get_mut(&key) {
                seen.cost_s = cost_s;
            }
        }
        // Waiters already blocked on this fill take the tensor even when
        // the cache does not keep it.
        let _ = flight.set(Some(Arc::clone(&image)));
        guard.armed = false;
        drop(inner);
        self.ready_cv.notify_all();
        Ok((image, false))
    }

    pub fn stats(&self) -> TensorCacheStats {
        let inner = lock(&self.inner);
        TensorCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            rejected: inner.rejected,
            resident_bytes: inner.resident_bytes,
            resident_items: inner
                .slots
                .values()
                .filter(|s| matches!(s, Slot::Ready(_)))
                .count(),
            decodes: inner.decodes,
        }
    }

    /// Observed hit rate in [0, 1] — the planner's cache-hot signal.
    pub fn hit_rate(&self) -> f64 {
        self.stats().hit_rate()
    }

    /// The fill cost, in seconds, of every resident entry.
    #[cfg(test)]
    pub(crate) fn resident_costs(&self) -> Vec<f64> {
        let inner = lock(&self.inner);
        inner
            .slots
            .values()
            .filter_map(|s| match s {
                Slot::Ready(e) => Some(e.seen.cost_s),
                Slot::Pending(_) => None,
            })
            .collect()
    }
}

impl CacheInner {
    /// Counts a lookup of a key that is not resident and returns how many
    /// lookups of it the history held before this one.
    fn count_absent(&mut self, key: Key) -> u32 {
        let seen = self.history.entry(key).or_insert(Seen {
            freq: 0,
            cost_s: f64::INFINITY,
        });
        let prior = seen.freq;
        seen.freq = prior.saturating_add(1);
        self.tick();
        prior
    }

    /// Advances the aging clock by one lookup; every aging period, halves
    /// every frequency count and forgets the non-resident keys that reach 0.
    fn tick(&mut self) {
        self.lookups += 1;
        let period = AGING_MIN_LOOKUPS.max(AGING_LOOKUPS_PER_ENTRY * self.slots.len() as u64);
        if self.lookups < period {
            return;
        }
        self.lookups = 0;
        for slot in self.slots.values_mut() {
            if let Slot::Ready(entry) = slot {
                entry.seen.freq /= 2;
            }
        }
        self.history.retain(|_, seen| {
            seen.freq /= 2;
            seen.freq > 0
        });
    }

    /// Decides whether a fill of `bytes` worth `value` (its key's earlier
    /// lookups × its cost) becomes resident, evicting the entries it
    /// displaces if it does. Nothing is evicted for a rejected fill.
    fn admit(&mut self, bytes: u64, value: f64, budget: u64) -> bool {
        if budget == 0 || bytes > budget {
            return false;
        }
        let limit = budget - bytes;
        if self.resident_bytes <= limit {
            return true;
        }
        if value <= 0.0 {
            // Room is needed and no victim is worth less than nothing.
            return false;
        }
        let need = self.resident_bytes - limit;
        // Pending slots hold no bytes and an in-flight fill must stay
        // claimable, so only ready entries are ranked. Ties break on the
        // content key, so a victim does not depend on the map's order.
        let mut ranked = std::mem::take(&mut self.ranked);
        ranked.clear();
        ranked.extend(self.slots.iter().filter_map(|(&key, s)| match s {
            Slot::Ready(e) => Some((e.seen.value() / e.bytes.max(1) as f64, key)),
            Slot::Pending(_) => None,
        }));
        ranked.sort_unstable_by(|(a, ka), (b, kb)| a.total_cmp(b).then(ka.0.cmp(&kb.0)));
        let (mut freed, mut displaced, mut victims) = (0, 0.0, 0);
        for (_, key) in &ranked {
            if freed >= need || displaced >= value {
                break;
            }
            if let Some(Slot::Ready(e)) = self.slots.get(key) {
                freed += e.bytes;
                displaced += e.seen.value();
                victims += 1;
            }
        }
        let admitted = freed >= need && value > displaced;
        if admitted {
            for (_, key) in &ranked[..victims] {
                if let Some(Slot::Ready(e)) = self.slots.remove(key) {
                    self.resident_bytes -= e.bytes;
                    self.evictions += 1;
                    self.history.insert(*key, e.seen);
                }
            }
        }
        self.ranked = ranked;
        admitted
    }
}

/// Drop guard: retracts a pending slot if its fill never completed, so an
/// erroring or panicking decode doesn't deadlock the waiters.
struct RetractPending<'a> {
    cache: &'a TensorCache,
    key: Key,
    flight: &'a Flight,
    armed: bool,
}

impl Drop for RetractPending<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut inner = lock(&self.cache.inner);
            if matches!(inner.slots.get(&self.key), Some(Slot::Pending(_))) {
                inner.slots.remove(&self.key);
            }
            let _ = self.flight.set(None);
            drop(inner);
            self.cache.ready_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn img(w: usize, h: usize, seed: u8) -> ImageU8 {
        let mut out = ImageU8::zeros(w, h, 3);
        for y in 0..h {
            for x in 0..w {
                for c in 0..3 {
                    out.set(x, y, c, ((x + y * 3 + c * 7) as u8).wrapping_add(seed));
                }
            }
        }
        out
    }

    /// One 16×16×3 tensor: the budget unit of the policy tests.
    const UNIT: usize = 16 * 16 * 3;

    /// Looks `key` up with a fill of `units` budget units that reports a
    /// fixed 1 ms cost, so the policy's decisions do not depend on timing.
    /// Returns whether the lookup hit.
    fn lookup(cache: &TensorCache, key: u64, units: usize) -> bool {
        cache
            .get_or_fill(key, DecodeMode::Full, || -> Result<_, ()> {
                Ok((img(16, 16 * units, key as u8), Duration::from_millis(1)))
            })
            .unwrap()
            .1
    }

    fn history_len(cache: &TensorCache) -> usize {
        lock(&cache.inner).history.len()
    }

    #[test]
    fn second_lookup_hits_without_decoding() {
        let cache = TensorCache::new(1 << 20);
        let decodes = AtomicUsize::new(0);
        let decode = || -> Result<ImageU8, ()> {
            decodes.fetch_add(1, Ordering::SeqCst);
            Ok(img(16, 16, 1))
        };
        let (a, hit_a) = cache.get_or_decode(7, DecodeMode::Full, decode).unwrap();
        let (b, hit_b) = cache
            .get_or_decode(7, DecodeMode::Full, || -> Result<ImageU8, ()> {
                decodes.fetch_add(1, Ordering::SeqCst);
                Ok(img(16, 16, 1))
            })
            .unwrap();
        assert!(!hit_a && hit_b);
        assert_eq!(decodes.load(Ordering::SeqCst), 1);
        assert_eq!(a.data(), b.data());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.decodes), (1, 1, 1));
        assert_eq!(stats.resident_bytes, 16 * 16 * 3);
    }

    #[test]
    fn decode_modes_are_distinct_keys() {
        let cache = TensorCache::new(1 << 20);
        let (_, h1) = cache
            .get_or_decode(7, DecodeMode::Full, || -> Result<ImageU8, ()> {
                Ok(img(16, 16, 1))
            })
            .unwrap();
        let (_, h2) = cache
            .get_or_decode(
                7,
                DecodeMode::ReducedResolution { factor: 2 },
                || -> Result<ImageU8, ()> { Ok(img(8, 8, 1)) },
            )
            .unwrap();
        assert!(!h1 && !h2, "different modes never alias");
        assert_eq!(cache.stats().resident_items, 2);
    }

    #[test]
    fn eviction_takes_the_lowest_value_per_byte_first() {
        // Budget: three units. `big` (two units) and `small` (one) are both
        // looked up twice at the same cost, so `big` has the larger value but
        // half the value per byte.
        let cache = TensorCache::new(3 * UNIT);
        let (big, small, newcomer) = (1, 2, 3);
        for _ in 0..2 {
            lookup(&cache, big, 2);
            lookup(&cache, small, 1);
        }
        // A one-unit newcomer must outvalue `big` (2 lookups × 1 ms): its
        // first three lookups bring 0, 1 and 2 earlier lookups, and ties
        // reject; the fourth is admitted.
        for earlier in 0..3 {
            assert!(!lookup(&cache, newcomer, 1));
            let stats = cache.stats();
            assert_eq!((stats.rejected, stats.evictions), (earlier + 1, 0));
        }
        assert!(!lookup(&cache, newcomer, 1));
        let stats = cache.stats();
        assert_eq!((stats.rejected, stats.evictions), (3, 1));
        assert!(stats.resident_bytes <= 3 * UNIT as u64);
        assert!(lookup(&cache, small, 1), "the denser entry stays");
        assert!(lookup(&cache, newcomer, 1));
        assert!(!lookup(&cache, big, 2), "the sparsest entry was the victim");
    }

    #[test]
    fn frequency_outranks_recency() {
        // Budget: two units. `old` is filled first and looked up four
        // times; `recent` is filled after it and looked up once. LRU would
        // evict `old`; this policy evicts the entry that saves less.
        let cache = TensorCache::new(2 * UNIT);
        let (old, recent, newcomer) = (1, 2, 3);
        for _ in 0..4 {
            lookup(&cache, old, 1);
        }
        lookup(&cache, recent, 1);
        // The newcomer's second lookup (one earlier lookup) only ties
        // `recent`; its third is admitted.
        assert!(!lookup(&cache, newcomer, 1));
        assert!(!lookup(&cache, newcomer, 1));
        assert_eq!(cache.stats().evictions, 0);
        assert!(!lookup(&cache, newcomer, 1));
        assert_eq!(cache.stats().evictions, 1);
        assert!(lookup(&cache, old, 1), "the frequent entry survives");
        assert!(!lookup(&cache, recent, 1), "the recent, rarer one does not");
    }

    #[test]
    fn a_cyclic_scan_over_twice_the_budget_keeps_part_of_itself() {
        // 16 equal keys through a budget of 8, in the same order each pass.
        // LRU evicts every key before it comes back and never hits.
        let (keys, budget_units) = (16u64, 8);
        let cache = TensorCache::new(budget_units * UNIT);
        let pass = || (0..keys).filter(|&k| lookup(&cache, k, 1)).count();
        assert_eq!(pass(), 0);
        for _ in 0..3 {
            let hits = pass();
            assert!(
                hits as f64 >= 0.4 * keys as f64,
                "{hits} of {keys} keys hit on a repeat pass"
            );
        }
        assert!(cache.stats().resident_bytes <= (budget_units * UNIT) as u64);
    }

    #[test]
    fn a_key_touched_k_times_survives_a_flood_of_one_shot_keys() {
        let cache = TensorCache::new(4 * UNIT);
        let hot = 0;
        for _ in 0..5 {
            lookup(&cache, hot, 1);
        }
        for key in 1..=1000 {
            lookup(&cache, key, 1);
        }
        assert!(lookup(&cache, hot, 1));
        let stats = cache.stats();
        // Three one-shot keys took the free room; the rest were rejected.
        assert_eq!((stats.rejected, stats.evictions), (997, 0));
    }

    #[test]
    fn with_equal_frequency_the_costlier_fill_outlives_cheap_ones() {
        // Measured costs: one fill sleeps 20 ms, the others are immediate.
        // Every key is looked up once per round, in the same order, through
        // a budget of two; the costly key arrives when the cheap ones
        // already fill it.
        let cache = TensorCache::new(2 * UNIT);
        let costly = 3u64;
        let fills = AtomicUsize::new(0);
        let mut costly_hits = 0;
        for _ in 0..4 {
            for key in [1u64, 2, costly, 4] {
                let (_, hit) = cache
                    .get_or_decode(key, DecodeMode::Full, || -> Result<ImageU8, ()> {
                        if key == costly {
                            fills.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(Duration::from_millis(20));
                        }
                        Ok(img(16, 16, key as u8))
                    })
                    .unwrap();
                costly_hits += usize::from(key == costly && hit);
            }
        }
        // Round 1 rejects it (never seen before), round 2 admits it over a
        // cheap entry it ties on frequency with, rounds 3 and 4 hit.
        assert_eq!(fills.load(Ordering::SeqCst), 2);
        assert_eq!(costly_hits, 2);
    }

    #[test]
    fn a_key_that_goes_cold_ages_out() {
        let cache = TensorCache::new(UNIT);
        let (cold, newcomer) = (0, u64::MAX);
        // 1 000 lookups: far more than the newcomer will ever make.
        for _ in 0..1000 {
            lookup(&cache, cold, 1);
        }
        // Eight aging periods of one-shot traffic halve its count to 3.
        for key in 1..=8 * AGING_MIN_LOOKUPS {
            lookup(&cache, key, 1);
        }
        assert!(lookup(&cache, cold, 1), "one-shot keys displace nothing");
        // The newcomer outvalues the aged count within a few lookups.
        let admitted_after = (1..=10).find(|_| {
            lookup(&cache, newcomer, 1);
            lookup(&cache, newcomer, 1)
        });
        assert!(admitted_after.is_some(), "the cold key was never displaced");
        assert!(!lookup(&cache, cold, 1));
    }

    #[test]
    fn history_stays_bounded_under_unique_keys() {
        let cache = TensorCache::new(UNIT);
        let mut largest = 0;
        for key in 0..100_000u64 {
            cache
                .get_or_fill(key, DecodeMode::Full, || -> Result<_, ()> {
                    Ok((img(2, 2, 0), Duration::from_micros(1)))
                })
                .unwrap();
            largest = largest.max(history_len(&cache));
        }
        assert!(
            largest <= 2 * AGING_MIN_LOOKUPS as usize,
            "history reached {largest} keys"
        );
    }

    #[test]
    fn oversized_items_pass_through_uncached() {
        let cache = TensorCache::new(10);
        let (image, hit) = cache
            .get_or_decode(1, DecodeMode::Full, || -> Result<ImageU8, ()> {
                Ok(img(16, 16, 1))
            })
            .unwrap();
        assert!(!hit);
        assert_eq!(image.data().len(), 16 * 16 * 3);
        let stats = cache.stats();
        assert_eq!(stats.resident_bytes, 0);
        assert_eq!(stats.resident_items, 0);
        assert_eq!(stats.rejected, 1);
    }

    #[test]
    fn zero_budget_disables_residency_but_counts() {
        let cache = TensorCache::new(0);
        for _ in 0..3 {
            cache
                .get_or_decode(1, DecodeMode::Full, || -> Result<ImageU8, ()> {
                    Ok(img(8, 8, 1))
                })
                .unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.resident_bytes, 0);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hit_rate(), 0.0);
    }

    #[test]
    fn zero_budget_keeps_no_history() {
        let cache = TensorCache::new(0);
        for key in 0..100 {
            lookup(&cache, key % 7, 1);
        }
        assert_eq!(history_len(&cache), 0);
        assert_eq!(lock(&cache.inner).lookups, 0);
    }

    #[test]
    fn failed_fill_retracts_and_lets_the_next_caller_retry() {
        let cache = TensorCache::new(1 << 20);
        let err: Result<_, &str> =
            cache.get_or_decode(9, DecodeMode::Full, || Err("decode failed"));
        assert_eq!(err.unwrap_err(), "decode failed");
        // The pending slot was retracted: a retry decodes fresh.
        let (_, hit) = cache
            .get_or_decode(9, DecodeMode::Full, || -> Result<ImageU8, ()> {
                Ok(img(8, 8, 9))
            })
            .unwrap();
        assert!(!hit);
        assert_eq!(cache.stats().resident_items, 1);
    }

    #[test]
    fn single_flight_under_contention_decodes_once() {
        let cache = Arc::new(TensorCache::new(1 << 20));
        let decodes = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let decodes = Arc::clone(&decodes);
                std::thread::spawn(move || {
                    let (image, _) = cache
                        .get_or_decode(42, DecodeMode::Full, || -> Result<ImageU8, ()> {
                            decodes.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok(img(32, 32, 5))
                        })
                        .unwrap();
                    image.data().to_vec()
                })
            })
            .collect();
        let outputs: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        assert_eq!(decodes.load(Ordering::SeqCst), 1, "exactly one fill");
        assert!(outputs.windows(2).all(|w| w[0] == w[1]));
        let stats = cache.stats();
        assert_eq!(stats.decodes, 1);
        assert_eq!(stats.hits + stats.misses, 8);
    }

    /// Eight threads look `key` up at once; the one that fills holds its
    /// fill until the other seven are counted as lookups of the key (and so
    /// are blocked on it). Returns the fill count and the outputs.
    fn contend_on_a_fill(cache: &TensorCache, key: u64) -> (usize, Vec<Vec<u8>>) {
        let fills = AtomicUsize::new(0);
        let outputs = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        let (image, _) = cache
                            .get_or_decode(key, DecodeMode::Full, || -> Result<ImageU8, ()> {
                                fills.fetch_add(1, Ordering::SeqCst);
                                let deadline = Instant::now() + Duration::from_secs(10);
                                while lock(&cache.inner).history[&(key, DecodeMode::Full)].freq < 8
                                    && Instant::now() < deadline
                                {
                                    std::thread::sleep(Duration::from_millis(1));
                                }
                                Ok(img(16, 16, key as u8))
                            })
                            .unwrap();
                        image.data().to_vec()
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        (fills.load(Ordering::SeqCst), outputs)
    }

    #[test]
    fn waiters_share_an_oversized_fill() {
        let cache = TensorCache::new(10);
        let (fills, outputs) = contend_on_a_fill(&cache, 5);
        assert_eq!(fills, 1, "one fill for eight concurrent lookups");
        assert!(outputs.windows(2).all(|w| w[0] == w[1]));
        let stats = cache.stats();
        assert_eq!((stats.decodes, stats.hits, stats.misses), (1, 7, 1));
        assert_eq!((stats.rejected, stats.resident_items), (1, 0));
    }

    #[test]
    fn waiters_share_a_rejected_fill() {
        // Two entries looked up ten times each fill the budget; a key never
        // seen before is not admitted over them.
        let cache = TensorCache::new(2 * UNIT);
        for _ in 0..10 {
            lookup(&cache, 1, 1);
            lookup(&cache, 2, 1);
        }
        let before = cache.stats();
        let (fills, outputs) = contend_on_a_fill(&cache, 3);
        assert_eq!(fills, 1, "one fill for eight concurrent lookups");
        assert!(outputs.windows(2).all(|w| w[0] == w[1]));
        let stats = cache.stats();
        assert_eq!(stats.decodes - before.decodes, 1);
        assert_eq!(stats.hits - before.hits, 7);
        assert_eq!(stats.rejected - before.rejected, 1);
        assert_eq!(stats.evictions, 0);
    }
}
