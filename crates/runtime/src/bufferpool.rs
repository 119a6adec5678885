//! Recycled (optionally pinned) staging slots (§6.1): one
//! [`StagingArena`] per server, one [`BufferPool`] per query.
//!
//! The caller of Smol only needs inference *results*, never the intermediate
//! preprocessed tensors, so slots can be recycled — across batches and,
//! through the arena, across queries: a query no larger than a batch would
//! otherwise never see a slot twice and pay one zeroed allocation per
//! item.
//!
//! * A slot holds what the plan's §6.3 placement stages
//!   ([`SlotKind`]): the normalized f32 tensor when the elementwise tail
//!   runs on the CPU, or the u8 intermediate — a quarter of the bytes — when
//!   the tail is accelerator-placed. The two are different Rust types
//!   (`Vec<f32>`, `Vec<u8>`), so they can never be exchanged.
//! * The **arena** owns the idle slots, shelved by kind and length
//!   (`buf_len` elements), so slots of different tensor geometries can
//!   never be exchanged either. It lives as long as its owner (a `Server`);
//!   every slot returns to its shelf the moment it is dropped, not when its
//!   query ends. A shelf allocates only when it has nothing idle, so per
//!   shelf `idle + checked-out ≤ peak checked-out` holds by construction —
//!   the arena needs no size setting and holds no more than the traffic's
//!   own high-water mark.
//! * A **pool** is a query's *entitlement* over that arena: at most
//!   `capacity` slots of `buf_len` elements checked out at once, of either
//!   kind ([`BufferPool::acquire`], [`BufferPool::acquire_bytes`] — the
//!   producer picks per item, so the two rungs of a cascade share one
//!   entitlement whatever their placements), and producers block past it
//!   (backpressure: "Smol will over-allocate memory to ensure that producer
//!   threads will not contend on consumers" — capacity is set by the
//!   pipeline to producers + 2×consumers×batch). The entitlement is per
//!   pool, never shared: a batch former holding `batch − 1` items of one
//!   query cannot starve another query, whatever the arena holds.
//! * [`BufferPool::new`] makes a pool over a private arena — the profile
//!   loop and tests, where pool and arena lifetimes coincide.
//!
//! A recycled slot keeps its previous contents; every producer overwrites
//! exactly the elements the consumer reads.

use smol_accel::sync::{lock, wait};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex};

/// Checkout counters: of one pool ([`BufferPool::stats`]) or summed over an
/// arena ([`StagingStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Checkouts served from a free list (a slot some earlier checkout,
    /// of this pool or another on the same arena, had returned).
    pub reused: u64,
    /// Fresh heap allocations (nothing idle, or reuse disabled).
    pub allocated: u64,
    /// Times a producer had to block waiting for a slot.
    pub waits: u64,
}

/// [`PoolStats`] as counters any thread may bump without a lock of their
/// own: they are statistics and publish nothing.
#[derive(Default)]
struct Counters {
    reused: AtomicU64,
    allocated: AtomicU64,
    waits: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> PoolStats {
        PoolStats {
            reused: self.reused.load(Relaxed),
            allocated: self.allocated.load(Relaxed),
            waits: self.waits.load(Relaxed),
        }
    }
}

/// What a staging slot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SlotKind {
    /// The normalized f32 tensor (elementwise tail on the CPU).
    Tensor,
    /// The interleaved u8 intermediate (tail on the accelerator).
    Bytes,
}

impl SlotKind {
    /// Heap bytes per element.
    pub fn elem_bytes(self) -> usize {
        match self {
            SlotKind::Tensor => std::mem::size_of::<f32>(),
            SlotKind::Bytes => 1,
        }
    }
}

/// The element types a slot can be made of: each names its side of a shelf.
trait Elem: Copy + Default {
    fn side(state: &mut ShelfState) -> &mut Side<Self>;
    fn slot(buf: Vec<Self>) -> Slot;
}

impl Elem for f32 {
    fn side(state: &mut ShelfState) -> &mut Side<f32> {
        &mut state.tensors
    }
    fn slot(buf: Vec<f32>) -> Slot {
        Slot::Tensor(buf)
    }
}

impl Elem for u8 {
    fn side(state: &mut ShelfState) -> &mut Side<u8> {
        &mut state.bytes
    }
    fn slot(buf: Vec<u8>) -> Slot {
        Slot::Bytes(buf)
    }
}

enum Slot {
    Tensor(Vec<f32>),
    Bytes(Vec<u8>),
}

/// The slots of one kind on a shelf: the idle ones and the count in flight.
#[derive(Default)]
struct Side<T> {
    idle: Vec<Vec<T>>,
    checked_out: usize,
    peak_checked_out: usize,
}

impl<T> Side<T> {
    fn put_back(&mut self, buf: Vec<T>) {
        self.idle.push(buf);
        self.checked_out -= 1;
    }

    fn stats(&self, kind: SlotKind, buf_len: usize) -> ShelfStats {
        ShelfStats {
            kind,
            buf_len,
            idle: self.idle.len(),
            checked_out: self.checked_out,
            peak_checked_out: self.peak_checked_out,
        }
    }
}

#[derive(Default)]
struct ShelfState {
    tensors: Side<f32>,
    bytes: Side<u8>,
}

/// Every slot of one length, both kinds under one lock (a pool's
/// entitlement counts across them).
#[derive(Default)]
struct Shelf {
    state: Mutex<ShelfState>,
    totals: Counters,
}

/// One shelf of a [`StagingArena`], as sampled by [`StagingArena::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShelfStats {
    pub kind: SlotKind,
    /// Slot length in elements (f32 values or bytes, per `kind`).
    pub buf_len: usize,
    /// Slots waiting for their next checkout.
    pub idle: usize,
    /// Slots checked out right now.
    pub checked_out: usize,
    /// Most slots ever checked out at once; `idle + checked_out` never
    /// exceeds it.
    pub peak_checked_out: usize,
}

impl ShelfStats {
    /// Heap bytes the idle slots hold.
    pub fn idle_bytes(&self) -> u64 {
        (self.idle * self.buf_len * self.kind.elem_bytes()) as u64
    }
}

/// Arena-wide staging counters: the sum over every pool the arena ever
/// served, plus what each shelf holds now.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StagingStats {
    pub totals: PoolStats,
    /// One entry per (length, kind) a slot was ever drawn from, ascending.
    /// Pools with reuse disabled add none: their slots are never tracked.
    pub shelves: Vec<ShelfStats>,
}

impl StagingStats {
    /// Heap bytes held idle across all shelves.
    pub fn idle_bytes(&self) -> u64 {
        self.shelves.iter().map(ShelfStats::idle_bytes).sum()
    }
}

/// The store of idle staging slots that outlives individual queries.
/// Cloning shares the arena; dropping the last handle (and the last pool
/// and slot drawn from it) frees every idle slot.
#[derive(Clone, Default)]
pub struct StagingArena {
    shelves: Arc<Mutex<HashMap<usize, Arc<Shelf>>>>,
}

impl StagingArena {
    pub fn new() -> Self {
        Self::default()
    }

    /// An entitlement of `capacity` concurrently checked-out slots of
    /// `buf_len` elements, drawn from and returned to this arena. With
    /// `reuse` off every acquire allocates and drops are discarded (the
    /// "- mem reuse" lesion of Figure 7); only the counters are shared.
    pub fn pool(&self, capacity: usize, buf_len: usize, reuse: bool, pinned: bool) -> BufferPool {
        let shelf = Arc::clone(lock(&self.shelves).entry(buf_len).or_default());
        BufferPool {
            inner: Arc::new(PoolInner {
                shelf,
                available: Condvar::new(),
                checked_out: AtomicUsize::new(0),
                waiting: AtomicUsize::new(0),
                stats: Counters::default(),
                buf_len,
                capacity: capacity.max(1),
                reuse,
                pinned,
            }),
        }
    }

    pub fn stats(&self) -> StagingStats {
        let mut stats = StagingStats::default();
        for (&buf_len, shelf) in lock(&self.shelves).iter() {
            let PoolStats {
                reused,
                allocated,
                waits,
            } = shelf.totals.snapshot();
            stats.totals.reused += reused;
            stats.totals.allocated += allocated;
            stats.totals.waits += waits;
            let state = lock(&shelf.state);
            let sides = [
                state.tensors.stats(SlotKind::Tensor, buf_len),
                state.bytes.stats(SlotKind::Bytes, buf_len),
            ];
            stats
                .shelves
                .extend(sides.into_iter().filter(|s| s.peak_checked_out > 0));
        }
        stats.shelves.sort_by_key(|s| (s.buf_len, s.kind));
        stats
    }
}

struct PoolInner {
    shelf: Arc<Shelf>,
    /// Waits on `shelf.state`'s mutex; signalled only by this pool's own
    /// returns (another pool's return frees none of this entitlement).
    available: Condvar,
    /// This pool's slots in flight and its blocked acquirers. Both change
    /// only under `shelf.state`'s lock, which orders them.
    checked_out: AtomicUsize,
    waiting: AtomicUsize,
    stats: Counters,
    buf_len: usize,
    capacity: usize,
    reuse: bool,
    /// Whether slots model pinned (DMA-fast) host memory.
    pinned: bool,
}

impl PoolInner {
    fn count(&self, pick: impl Fn(&Counters) -> &AtomicU64) {
        pick(&self.stats).fetch_add(1, Relaxed);
        pick(&self.shelf.totals).fetch_add(1, Relaxed);
    }
}

/// A bounded entitlement of staging slots over a [`StagingArena`].
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl BufferPool {
    /// A pool of `capacity` slots of `buf_len` elements over an arena of
    /// its own.
    pub fn new(capacity: usize, buf_len: usize, reuse: bool, pinned: bool) -> Self {
        StagingArena::new().pool(capacity, buf_len, reuse, pinned)
    }

    pub fn buf_len(&self) -> usize {
        self.inner.buf_len
    }

    pub fn pinned(&self) -> bool {
        self.inner.pinned
    }

    /// Acquires an f32 tensor slot, blocking while the whole entitlement is
    /// checked out (reuse mode). One lock round trip; a fresh slot is
    /// allocated (and zeroed) outside it.
    pub fn acquire(&self) -> PooledBuffer {
        self.acquire_slot::<f32>()
    }

    /// [`BufferPool::acquire`] for a u8 slot: `buf_len` bytes, from the byte
    /// side of the same shelf and against the same entitlement.
    pub fn acquire_bytes(&self) -> PooledBuffer {
        self.acquire_slot::<u8>()
    }

    fn acquire_slot<T: Elem>(&self) -> PooledBuffer {
        let inner = &*self.inner;
        let fresh = || T::slot(vec![T::default(); inner.buf_len]);
        if !inner.reuse {
            inner.count(|c| &c.allocated);
            return PooledBuffer {
                pool: None,
                data: Some(fresh()),
            };
        }
        let mut shelf = lock(&inner.shelf.state);
        while inner.checked_out.load(Relaxed) >= inner.capacity {
            inner.count(|c| &c.waits);
            inner.waiting.fetch_add(1, Relaxed);
            shelf = wait(&inner.available, shelf);
            inner.waiting.fetch_sub(1, Relaxed);
        }
        inner.checked_out.fetch_add(1, Relaxed);
        let side = T::side(&mut shelf);
        side.checked_out += 1;
        side.peak_checked_out = side.peak_checked_out.max(side.checked_out);
        let idle = side.idle.pop();
        drop(shelf);
        inner.count(|c| {
            if idle.is_some() {
                &c.reused
            } else {
                &c.allocated
            }
        });
        PooledBuffer {
            pool: Some(self.clone()),
            data: Some(idle.map_or_else(fresh, T::slot)),
        }
    }

    fn release(&self, slot: Slot) {
        let inner = &*self.inner;
        let mut shelf = lock(&inner.shelf.state);
        match slot {
            Slot::Tensor(buf) => shelf.tensors.put_back(buf),
            Slot::Bytes(buf) => shelf.bytes.put_back(buf),
        }
        inner.checked_out.fetch_sub(1, Relaxed);
        let wake = inner.waiting.load(Relaxed) > 0;
        drop(shelf);
        if wake {
            inner.available.notify_one();
        }
    }

    pub fn stats(&self) -> PoolStats {
        self.inner.stats.snapshot()
    }

    /// Slots of this pool currently checked out. A leak shows up as a
    /// non-zero value after all `PooledBuffer`s have been dropped.
    pub fn outstanding(&self) -> usize {
        self.inner.checked_out.load(Relaxed)
    }
}

/// A checked-out slot; returns to its arena shelf on drop (when reuse is
/// on), whether or not the query or server it was drawn for still exists.
pub struct PooledBuffer {
    pool: Option<BufferPool>,
    data: Option<Slot>,
}

impl PooledBuffer {
    pub fn kind(&self) -> SlotKind {
        match self.data.as_ref().expect("live buffer") {
            Slot::Tensor(_) => SlotKind::Tensor,
            Slot::Bytes(_) => SlotKind::Bytes,
        }
    }

    /// The f32 tensor of a slot from [`BufferPool::acquire`]. Panics on a
    /// byte slot: the kind was the acquirer's own choice.
    pub fn as_slice(&self) -> &[f32] {
        match self.data.as_ref().expect("live buffer") {
            Slot::Tensor(buf) => buf,
            Slot::Bytes(_) => panic!("a byte slot holds no f32 tensor"),
        }
    }

    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        match self.data.as_mut().expect("live buffer") {
            Slot::Tensor(buf) => buf,
            Slot::Bytes(_) => panic!("a byte slot holds no f32 tensor"),
        }
    }

    /// The bytes of a slot from [`BufferPool::acquire_bytes`]. Panics on a
    /// tensor slot.
    pub fn as_bytes(&self) -> &[u8] {
        match self.data.as_ref().expect("live buffer") {
            Slot::Bytes(buf) => buf,
            Slot::Tensor(_) => panic!("a tensor slot is not staged bytes"),
        }
    }

    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        match self.data.as_mut().expect("live buffer") {
            Slot::Bytes(buf) => buf,
            Slot::Tensor(_) => panic!("a tensor slot is not staged bytes"),
        }
    }
}

impl Drop for PooledBuffer {
    fn drop(&mut self) {
        if let (Some(pool), Some(slot)) = (self.pool.take(), self.data.take()) {
            pool.release(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn buffers_are_recycled() {
        let pool = BufferPool::new(2, 16, true, true);
        {
            let _a = pool.acquire();
            let _b = pool.acquire();
        }
        let _c = pool.acquire();
        let _d = pool.acquire();
        let stats = pool.stats();
        assert_eq!(stats.allocated, 2, "only two real allocations");
        assert_eq!(stats.reused, 2, "second round reuses");
    }

    #[test]
    fn exhausted_pool_blocks_until_release() {
        let pool = BufferPool::new(1, 8, true, true);
        let held = pool.acquire();
        let p2 = pool.clone();
        let handle = std::thread::spawn(move || {
            let _b = p2.acquire(); // blocks until `held` drops
            true
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(!handle.is_finished(), "acquire must block while exhausted");
        drop(held);
        assert!(handle.join().unwrap());
        assert!(pool.stats().waits >= 1);
    }

    /// Satellite: hammer the pool from many threads and check the
    /// accounting invariants — every acquire is either a reuse or an
    /// allocation, no buffer leaks, no buffer is recycled twice, and the
    /// pool never allocates past its capacity.
    #[test]
    fn contention_keeps_accounting_consistent() {
        let threads = 8;
        let iters = 400usize;
        let capacity = 5; // far fewer buffers than threads → heavy waiting
        let pool = BufferPool::new(capacity, 32, true, true);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let pool = pool.clone();
                scope.spawn(move || {
                    for i in 0..iters {
                        let mut b = pool.acquire();
                        b.as_mut_slice()[0] = (t * iters + i) as f32;
                        // Vary hold times to shuffle the interleavings; a
                        // thread never holds a buffer across an acquire, so
                        // an undersized pool cannot hold-and-wait deadlock.
                        if i % 3 == 0 {
                            std::thread::yield_now();
                        }
                        drop(b);
                    }
                });
            }
        });
        let stats = pool.stats();
        let total_acquires = (threads * iters) as u64;
        assert_eq!(
            stats.reused + stats.allocated,
            total_acquires,
            "every acquire is accounted exactly once"
        );
        assert!(
            stats.allocated <= capacity as u64,
            "reuse mode never allocates past capacity: {} > {capacity}",
            stats.allocated
        );
        assert!(stats.waits > 0, "undersized pool must observe contention");
        // All buffers returned: nothing leaked, nothing double-recycled.
        assert_eq!(pool.outstanding(), 0);
    }

    fn shelf_of(arena: &StagingArena, kind: SlotKind, buf_len: usize) -> ShelfStats {
        let stats = arena.stats();
        *stats
            .shelves
            .iter()
            .find(|s| (s.kind, s.buf_len) == (kind, buf_len))
            .expect("shelf exists once a slot was drawn from it")
    }

    fn shelf(arena: &StagingArena, buf_len: usize) -> ShelfStats {
        shelf_of(arena, SlotKind::Tensor, buf_len)
    }

    /// Byte slots and tensor slots of one length count against one
    /// entitlement, are a quarter the size, and are never handed out as each
    /// other: a returned tensor slot is no use to a byte acquire.
    #[test]
    fn byte_and_tensor_slots_share_an_entitlement_never_a_shelf() {
        let arena = StagingArena::new();
        let pool = arena.pool(2, 12, true, true);
        let mut bytes = pool.acquire_bytes();
        assert_eq!(
            (bytes.kind(), bytes.as_bytes().len()),
            (SlotKind::Bytes, 12)
        );
        bytes.as_bytes_mut().copy_from_slice(&[7; 12]);
        let tensor = pool.acquire();
        assert_eq!(
            (tensor.kind(), tensor.as_slice().len()),
            (SlotKind::Tensor, 12)
        );
        assert_eq!(pool.outstanding(), 2, "one entitlement across both kinds");
        drop(tensor);
        // The idle tensor slot is not what a byte acquire gets.
        let more = pool.acquire_bytes();
        assert_eq!((pool.stats().allocated, pool.stats().reused), (3, 0));
        drop(more);
        drop(bytes);
        let recycled = pool.acquire_bytes();
        assert_eq!(recycled.as_bytes(), &[7; 12], "the last slot returned");
        assert_eq!(pool.stats().reused, 1);
        drop(recycled);
        let (t, b) = (
            shelf_of(&arena, SlotKind::Tensor, 12),
            shelf_of(&arena, SlotKind::Bytes, 12),
        );
        assert_eq!((t.idle, t.peak_checked_out, t.idle_bytes()), (1, 1, 48));
        assert_eq!((b.idle, b.peak_checked_out, b.idle_bytes()), (2, 2, 24));
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn a_later_pool_on_the_arena_reuses_and_lengths_never_mix() {
        let arena = StagingArena::new();
        let first = arena.pool(4, 16, true, true);
        drop((first.acquire(), first.acquire()));
        assert_eq!(first.stats().allocated, 2);
        // Another geometry finds nothing to reuse and leaves the 16s alone.
        let other = arena.pool(4, 24, true, true);
        let held = other.acquire();
        assert_eq!(held.as_slice().len(), 24);
        assert_eq!((other.stats().allocated, other.stats().reused), (1, 0));
        assert_eq!(shelf(&arena, 16).idle, 2);
        // A later pool of the first geometry allocates nothing.
        let second = arena.pool(4, 16, true, true);
        let (a, b) = (second.acquire(), second.acquire());
        assert_eq!((a.as_slice().len(), b.as_slice().len()), (16, 16));
        assert_eq!((second.stats().allocated, second.stats().reused), (0, 2));
        let totals = arena.stats().totals;
        assert_eq!((totals.allocated, totals.reused), (3, 2));
        assert_eq!(shelf(&arena, 16).idle_bytes(), 0);
        drop((a, b));
        assert_eq!(shelf(&arena, 16).idle_bytes(), 2 * 16 * 4);
    }

    /// Two queries, each holding a partial batch that fills all but one
    /// slot of a tiny entitlement, on one arena: each still gets its last
    /// buffer, and one query exhausting its own entitlement blocks only
    /// itself.
    #[test]
    fn entitlements_are_per_pool_not_per_arena() {
        let arena = StagingArena::new();
        let a = arena.pool(2, 8, true, true);
        let b = arena.pool(2, 8, true, true);
        let (a1, b1) = (a.acquire(), b.acquire());
        let (a2, b2) = (a.acquire(), b.acquire());
        assert_eq!((a.outstanding(), b.outstanding()), (2, 2));
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = {
            let a = a.clone();
            std::thread::spawn(move || {
                let third = a.acquire(); // blocks: `a` is exhausted
                tx.send(()).unwrap();
                drop(third);
            })
        };
        // Returns to the shared shelf by `b` free none of `a`'s slots.
        drop((b1, b2));
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
        assert_eq!(shelf(&arena, 8).idle, 2);
        drop(a1);
        rx.recv().unwrap();
        waiter.join().unwrap();
        assert!(a.stats().waits >= 1);
        assert_eq!(b.stats().waits, 0);
        drop(a2);
    }

    #[test]
    fn reuse_disabled_bypasses_the_arena() {
        let arena = StagingArena::new();
        let warm = arena.pool(2, 16, true, true);
        drop(warm.acquire());
        let lesion = arena.pool(2, 16, false, false);
        for _ in 0..3 {
            drop(lesion.acquire());
        }
        assert_eq!((lesion.stats().allocated, lesion.stats().reused), (3, 0));
        assert_eq!(shelf(&arena, 16).idle, 1, "neither drawn from nor fed");
        assert_eq!(arena.stats().totals.allocated, 4);
    }

    #[test]
    fn idle_plus_checked_out_never_exceeds_the_peak() {
        let arena = StagingArena::new();
        std::thread::scope(|scope| {
            for t in 0..6usize {
                let pool = arena.pool(3, 32, true, true);
                let arena = &arena;
                scope.spawn(move || {
                    for i in 0..300usize {
                        let held: Vec<_> = (0..1 + (t + i) % 3).map(|_| pool.acquire()).collect();
                        let s = shelf(arena, 32);
                        assert!(
                            s.idle + s.checked_out <= s.peak_checked_out,
                            "arena grew past its own high-water mark: {s:?}"
                        );
                        drop(held);
                    }
                });
            }
        });
        let s = shelf(&arena, 32);
        assert_eq!(s.checked_out, 0);
        assert!(s.peak_checked_out <= 6 * 3);
        assert_eq!(s.idle as u64, arena.stats().totals.allocated);
    }

    /// The arena is freed with its last user, and a buffer that outlives
    /// arena handle and pool is simply freed with them.
    #[test]
    fn the_last_user_frees_the_arena() {
        let arena = StagingArena::new();
        let pool = arena.pool(2, 16, true, true);
        drop(pool.acquire());
        let straggler = pool.acquire();
        let shelves = Arc::downgrade(&arena.shelves);
        let shelf = Arc::downgrade(&pool.inner.shelf);
        drop(arena);
        assert!(shelves.upgrade().is_none(), "pools do not pin the arena");
        drop(pool);
        assert!(shelf.upgrade().is_some(), "a live buffer keeps its shelf");
        drop(straggler);
        assert!(shelf.upgrade().is_none(), "idle buffers go with the shelf");
    }

    #[test]
    fn buffer_contents_writable() {
        let pool = BufferPool::new(1, 4, true, true);
        let mut b = pool.acquire();
        b.as_mut_slice().copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(b.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }
}
