//! Bounded decoded-tensor cache with single-flight fill.
//!
//! The second half of the physical-representation store (ROADMAP item 2):
//! once a corpus's variants are materialized on disk, the remaining
//! preprocessing cost of a repeat query is the *decode*. This cache holds
//! decoded images keyed on `(content key, DecodeMode)` — the key
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
//! Invariants:
//!
//! * **Single-flight fill** — when several queries want the same tensor
//!   concurrently, exactly one thread decodes; the rest block on a condvar
//!   until the slot is ready (the same pending/ready/retract pattern as
//!   `smol_serve`'s plan cache). A failed or panicked fill retracts the
//!   pending slot and wakes the waiters, one of which retries.
//! * **Byte budget** — resident decoded bytes never exceed the configured
//!   budget: insertion evicts least-recently-used entries first, and an
//!   item larger than the whole budget is returned to the caller without
//!   being inserted at all.
//! * **Bit identity** — the cache stores exactly what the fill closure
//!   decoded; a hit returns the same pixels the uncached path would
//!   produce (property-tested in `tests/variant_store.rs`).

use parking_lot::{Condvar, Mutex};
use smol_core::DecodeMode;
use smol_imgproc::ImageU8;
use std::collections::HashMap;
use std::sync::Arc;

/// Cache key: content key of the encoded item + the decode mode the plan
/// runs it under (different modes produce different pixels).
type Key = (u64, DecodeMode);

enum Slot {
    /// A thread is decoding this entry; waiters block on the condvar.
    Pending,
    Ready {
        image: Arc<ImageU8>,
        bytes: u64,
        last_use: u64,
    },
}

#[derive(Default)]
struct CacheInner {
    slots: HashMap<Key, Slot>,
    resident_bytes: u64,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    decodes: u64,
}

/// Counters surfaced through `ServerStats.tensor_cache`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TensorCacheStats {
    /// Lookups served from a resident tensor (including waiters that
    /// blocked on another thread's in-flight fill).
    pub hits: u64,
    /// Lookups that had to decode.
    pub misses: u64,
    /// Entries evicted to respect the byte budget.
    pub evictions: u64,
    /// Decoded bytes currently resident (always ≤ the budget).
    pub resident_bytes: u64,
    /// Entries currently resident.
    pub resident_items: usize,
    /// Decode executions actually performed through the cache. Under
    /// single-flight this never exceeds the number of distinct keys
    /// requested (absent evictions) no matter how many threads race.
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

/// The bounded decoded-tensor LRU cache. Cheap to share: clone the `Arc`
/// it is typically wrapped in, or pass `&TensorCache` into the producer
/// stage functions ([`crate::pipeline::produce_item`]).
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
    /// kept) while preserving the counter surface.
    pub fn new(budget_bytes: usize) -> Self {
        TensorCache {
            inner: Mutex::new(CacheInner::default()),
            ready_cv: Condvar::new(),
            budget_bytes: budget_bytes as u64,
        }
    }

    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// Returns the decoded image for `(content_key, mode)`, decoding via
    /// `decode` on a miss. The boolean is true for a hit — either a
    /// resident tensor or another thread's just-completed fill — i.e.
    /// this call performed no decode work itself.
    pub fn get_or_decode<E>(
        &self,
        content_key: u64,
        mode: DecodeMode,
        decode: impl FnOnce() -> Result<ImageU8, E>,
    ) -> Result<(Arc<ImageU8>, bool), E> {
        let key = (content_key, mode);
        {
            let mut locked = self.inner.lock();
            loop {
                let inner = &mut *locked;
                match inner.slots.get_mut(&key) {
                    Some(Slot::Ready {
                        image, last_use, ..
                    }) => {
                        inner.tick += 1;
                        *last_use = inner.tick;
                        let image = Arc::clone(image);
                        inner.hits += 1;
                        return Ok((image, true));
                    }
                    Some(Slot::Pending) => {
                        self.ready_cv.wait(&mut locked);
                        // Re-check: the fill may have failed and retracted.
                    }
                    None => {
                        inner.slots.insert(key, Slot::Pending);
                        break;
                    }
                }
            }
        }
        // We own the pending slot; decode outside the lock. The guard
        // retracts it (and wakes waiters to retry) if `decode` errors or
        // panics.
        let mut guard = RetractPending {
            cache: self,
            key,
            armed: true,
        };
        let image = Arc::new(decode()?);
        let bytes = image.data().len() as u64;
        let mut inner = self.inner.lock();
        inner.misses += 1;
        inner.decodes += 1;
        if bytes <= self.budget_bytes {
            Self::evict_to_fit(&mut inner, self.budget_bytes - bytes);
            inner.tick += 1;
            let last_use = inner.tick;
            inner.resident_bytes += bytes;
            inner.slots.insert(
                key,
                Slot::Ready {
                    image: Arc::clone(&image),
                    bytes,
                    last_use,
                },
            );
        } else {
            // Larger than the whole budget: hand it back uncached so the
            // resident-bytes invariant never breaks.
            inner.slots.remove(&key);
        }
        guard.armed = false;
        drop(inner);
        self.ready_cv.notify_all();
        Ok((image, false))
    }

    /// Evicts least-recently-used ready entries until resident bytes fit
    /// under `limit`. Pending slots are never evicted (they hold no bytes
    /// and an in-flight fill must stay claimable).
    fn evict_to_fit(inner: &mut CacheInner, limit: u64) {
        while inner.resident_bytes > limit {
            let victim = inner
                .slots
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready { last_use, .. } => Some((*k, *last_use)),
                    Slot::Pending => None,
                })
                .min_by_key(|&(_, last_use)| last_use)
                .map(|(k, _)| k);
            let Some(key) = victim else {
                break;
            };
            if let Some(Slot::Ready { bytes, .. }) = inner.slots.remove(&key) {
                inner.resident_bytes -= bytes;
                inner.evictions += 1;
            }
        }
    }

    pub fn stats(&self) -> TensorCacheStats {
        let inner = self.inner.lock();
        TensorCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            resident_bytes: inner.resident_bytes,
            resident_items: inner
                .slots
                .values()
                .filter(|s| matches!(s, Slot::Ready { .. }))
                .count(),
            decodes: inner.decodes,
        }
    }

    /// Observed hit rate in [0, 1] — the planner's cache-hot signal.
    pub fn hit_rate(&self) -> f64 {
        self.stats().hit_rate()
    }

    /// Drops every resident entry (counters are preserved).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.slots.retain(|_, s| matches!(s, Slot::Pending));
        inner.resident_bytes = 0;
    }
}

/// Drop guard: retracts a pending slot if its fill never completed, so an
/// erroring or panicking decode doesn't deadlock the waiters.
struct RetractPending<'a> {
    cache: &'a TensorCache,
    key: Key,
    armed: bool,
}

impl Drop for RetractPending<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut inner = self.cache.inner.lock();
            if matches!(inner.slots.get(&self.key), Some(Slot::Pending)) {
                inner.slots.remove(&self.key);
            }
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
    fn lru_eviction_respects_byte_budget() {
        // Budget fits exactly two 16×16×3 images.
        let item = 16 * 16 * 3;
        let cache = TensorCache::new(2 * item);
        for fp in 0..5u64 {
            cache
                .get_or_decode(fp, DecodeMode::Full, || -> Result<ImageU8, ()> {
                    Ok(img(16, 16, fp as u8))
                })
                .unwrap();
            assert!(cache.stats().resident_bytes <= 2 * item as u64);
        }
        let stats = cache.stats();
        assert_eq!(stats.resident_items, 2);
        assert_eq!(stats.evictions, 3);
        // The most recent entries (3, 4) survive; 0 was evicted first.
        let (_, hit) = cache
            .get_or_decode(4, DecodeMode::Full, || -> Result<ImageU8, ()> {
                panic!("must be resident")
            })
            .unwrap();
        assert!(hit);
        let (_, hit) = cache
            .get_or_decode(0, DecodeMode::Full, || -> Result<ImageU8, ()> {
                Ok(img(16, 16, 0))
            })
            .unwrap();
        assert!(!hit, "oldest entry was evicted");
    }

    #[test]
    fn touching_an_entry_protects_it_from_eviction() {
        let item = 16 * 16 * 3;
        let cache = TensorCache::new(2 * item);
        for fp in [1u64, 2] {
            cache
                .get_or_decode(fp, DecodeMode::Full, || -> Result<ImageU8, ()> {
                    Ok(img(16, 16, fp as u8))
                })
                .unwrap();
        }
        // Touch 1 so 2 becomes the LRU victim.
        cache
            .get_or_decode(1, DecodeMode::Full, || -> Result<ImageU8, ()> {
                panic!("resident")
            })
            .unwrap();
        cache
            .get_or_decode(3, DecodeMode::Full, || -> Result<ImageU8, ()> {
                Ok(img(16, 16, 3))
            })
            .unwrap();
        let (_, hit1) = cache
            .get_or_decode(1, DecodeMode::Full, || -> Result<ImageU8, ()> {
                Ok(img(16, 16, 1))
            })
            .unwrap();
        assert!(hit1, "recently-touched entry survives");
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
}
