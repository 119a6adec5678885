//! Scheduling policy of the serving runtime: fair share, signature
//! batching with priority-aware release, and lane choice. The state they
//! act on — the round-robin rings and the [`Batcher`] — is held by the
//! server's thread-free scheduler core (the private `core` module), which
//! a test-only explorer drives over seeded event orders; the lanes call
//! [`pick_lane`].
//!
//! # Fair share
//!
//! Producer threads are shared by every admitted query. The scheduler
//! keeps a round-robin ring of queries that still have unclaimed items;
//! each time a producer asks for work it takes **one** item from the query
//! at the front of the ring and the query rejoins the back. Interleaving
//! at item granularity means a 10 000-image query cannot starve a
//! 10-image query — every active query advances by one item per
//! scheduling round, so short queries observe latency proportional to the
//! *number* of active queries rather than to the length of the longest
//! one.
//!
//! # Signature batching
//!
//! The device executes batches, and bigger batches amortize kernel launch
//! overhead (`batch_efficiency = b / (b + 4)` in the accelerator model).
//! A single small query cannot fill a batch quickly; several concurrent
//! queries often can — **if** their items are device-compatible. Two
//! items are device-compatible exactly when their plans share a
//! [`PlacementSignature`]: same DNN (and cascade stages), same output
//! tensor geometry, same accelerator-placed operator suffix, same batch
//! size. The [`BatchFormer`] groups produced items by signature and emits
//! a batch the moment a group reaches the signature's batch size, so
//! homogeneous traffic gets cross-query full batches while heterogeneous
//! traffic degrades gracefully to per-query batches.
//!
//! # When a group is released
//!
//! A signature's group leaves the former as a device batch under exactly
//! three rules, all decided by the [`Batcher`] from one set of counters —
//! per signature, how many items that could still land in its group are
//! outstanding (unclaimed or mid-production), by the priority of the query
//! that owns them ([`SigCount`]):
//!
//! 1. **Full** — the group reached the signature's batch size.
//! 2. **Signature drained** — nothing at all is outstanding under the
//!    signature (for a single query, its final partial batch). This is
//!    also the only rule that retires the signature's counters.
//! 3. **Priority drain** — something is still outstanding, but only from
//!    queries of *lower* priority than the group's most urgent member: the
//!    group waits for the peers and betters of what it holds, never for
//!    lesser work. Without it a High-priority query's tail sits in the
//!    former until a Normal-priority scan sharing its signature has produced
//!    enough items to fill the batch — a priority inversion. The partial
//!    batch takes the lower-priority items already in the group along, and
//!    the counters are left alone: the lower-priority query goes on filling
//!    a fresh group.
//!
//! Equal priorities still wait for each other — that wait is what makes
//! cross-query batches full, and it is bounded by the peer's own production
//! — so with one priority in play rule 3 never fires. It is evaluated only
//! when a priority class's count under a signature reaches zero (the last
//! integrate of that class's last query there), on a counter the item path
//! already decrements; between those events it costs nothing. Items from
//! different signatures are **never** mixed into one batch, and a batch
//! never exceeds the signature's batch size; `tests/serve_properties.rs`
//! property-checks these invariants over arbitrary interleavings.
//!
//! # Lane dispatch
//!
//! A formed batch goes to the lane expected to finish it first
//! ([`pick_lane`]): (items queued + items in flight + the batch's own) ÷ the
//! lane's device rate for the batch's DNN. Counting items rather than
//! batches matters once rule 3 makes a share of batches partial (a 3-item
//! batch is not a 16-item batch), and dividing by the rate matters on a
//! heterogeneous fleet (a V100 lane clears the same backlog 1.6× sooner
//! than a T4 lane). On identical lanes holding full batches it is the
//! least-loaded choice with ties to the lowest index.

use smol_core::PlacementSignature;
use std::sync::Arc;

/// Per-tenant scheduling priority. Admission is priority-aware: a blocked
/// higher-priority submitter is admitted before any lower-priority one,
/// producers claim items from higher-priority queries first, and a partial
/// batch never waits for work of lower priority than what it holds (see the
/// module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    Low,
    #[default]
    Normal,
    High,
}

impl Priority {
    pub(crate) const COUNT: usize = 3;

    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// A device batch emitted by the former: items all share `sig` and
/// `items.len() <= sig.batch`.
#[derive(Debug)]
pub struct FormedBatch<T> {
    pub sig: Arc<PlacementSignature>,
    pub items: Vec<T>,
}

impl<T> FormedBatch<T> {
    /// True when the batch reached the signature's full batch size.
    pub fn is_full(&self) -> bool {
        self.items.len() == self.sig.batch
    }
}

/// A short list keyed by signature: the few signatures in flight at once
/// are searched by pointer first — every item of a query carries its
/// rung's one `Arc` — and then by value, so that equal signatures held in
/// different `Arc`s (two queries that compiled the same plan) share an
/// entry. Nothing is hashed.
#[derive(Debug, Default)]
struct SigList<V>(Vec<(Arc<PlacementSignature>, V)>);

impl<V> SigList<V> {
    fn position(&self, sig: &Arc<PlacementSignature>) -> Option<usize> {
        let list = &self.0;
        list.iter()
            .position(|(s, _)| Arc::ptr_eq(s, sig))
            .or_else(|| list.iter().position(|(s, _)| **s == **sig))
    }

    /// The position of `sig`'s entry, created by `new` (with the entry's
    /// one `Arc` clone) if absent.
    fn position_or_insert(
        &mut self,
        sig: &Arc<PlacementSignature>,
        new: impl FnOnce() -> V,
    ) -> usize {
        self.position(sig).unwrap_or_else(|| {
            self.0.push((Arc::clone(sig), new()));
            self.0.len() - 1
        })
    }

    fn get(&self, sig: &Arc<PlacementSignature>) -> Option<&V> {
        self.position(sig).map(|i| &self.0[i].1)
    }

    fn remove_at(&mut self, i: usize) -> (Arc<PlacementSignature>, V) {
        self.0.swap_remove(i)
    }
}

/// Groups produced items by placement signature and emits device batches.
///
/// Generic over the item payload so the policy can be property-tested with
/// plain tokens while the server feeds it staged work items.
#[derive(Debug, Default)]
pub struct BatchFormer<T> {
    groups: SigList<Vec<T>>,
}

impl<T> BatchFormer<T> {
    pub fn new() -> Self {
        BatchFormer {
            groups: SigList(Vec::new()),
        }
    }

    /// Adds one produced item under its plan's signature; returns a full
    /// batch when the signature's group reaches its batch size. This runs
    /// under the scheduler lock, so it hashes nothing and clones no `Arc`:
    /// a group is found by pointer (see `SigList`), allocated to the full
    /// batch when it opens, and hands its own `Arc` to the batch it forms.
    pub fn push(&mut self, sig: &Arc<PlacementSignature>, item: T) -> Option<FormedBatch<T>> {
        let batch = sig.batch.max(1);
        let i = self
            .groups
            .position_or_insert(sig, || Vec::with_capacity(batch));
        let group = &mut self.groups.0[i].1;
        group.push(item);
        if group.len() < batch {
            return None;
        }
        let (sig, items) = self.groups.remove_at(i);
        Some(FormedBatch { sig, items })
    }

    /// The items pending (produced, not yet batched) for `sig`, in push
    /// order.
    pub fn group(&self, sig: &Arc<PlacementSignature>) -> &[T] {
        self.groups.get(sig).map_or(&[], Vec::as_slice)
    }

    /// Items currently pending for `sig`.
    pub fn pending(&self, sig: &Arc<PlacementSignature>) -> usize {
        self.group(sig).len()
    }

    /// Items currently pending across all signatures.
    pub fn pending_total(&self) -> usize {
        self.groups.0.iter().map(|(_, group)| group.len()).sum()
    }

    /// Emits the partial batch for `sig`, if any. When to is the
    /// [`Batcher`]'s decision.
    pub fn flush(&mut self, sig: &Arc<PlacementSignature>) -> Option<FormedBatch<T>> {
        // A group is opened by its first item and removed with its batch:
        // it is never empty.
        let i = self.groups.position(sig)?;
        let (sig, items) = self.groups.remove_at(i);
        Some(FormedBatch { sig, items })
    }

    /// Emits every pending partial batch (shutdown path).
    pub fn flush_all(&mut self) -> Vec<FormedBatch<T>> {
        let groups = std::mem::take(&mut self.groups.0);
        groups
            .into_iter()
            .map(|(sig, items)| FormedBatch { sig, items })
            .collect()
    }
}

/// Items that may still land in one signature's group — registered and not
/// yet integrated, so unclaimed or mid-production — by the priority of the
/// query that owns them. A routed query counts each of its items under
/// every rung still open to it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SigCount {
    pub open: [usize; Priority::COUNT],
}

impl SigCount {
    /// The highest priority with an item outstanding.
    fn top(&self) -> Option<Priority> {
        [Priority::High, Priority::Normal, Priority::Low]
            .into_iter()
            .find(|p| self.open[p.index()] > 0)
    }
}

/// The batch former plus the per-signature counters its release rules are
/// decided over (see the module docs for the three rules). Generic over the
/// item payload like the former; `priority_of` reads an item's priority.
#[derive(Debug)]
pub struct Batcher<T> {
    former: BatchFormer<T>,
    counts: SigList<SigCount>,
    priority_of: fn(&T) -> Priority,
    priority_flushes: u64,
}

impl<T> Batcher<T> {
    pub fn new(priority_of: fn(&T) -> Priority) -> Self {
        Batcher {
            former: BatchFormer::new(),
            counts: SigList::default(),
            priority_of,
            priority_flushes: 0,
        }
    }

    /// Counts `n` more items of a `prio` query that may land in `sig`'s
    /// group.
    pub fn register(&mut self, sig: &Arc<PlacementSignature>, prio: Priority, n: usize) {
        if n > 0 {
            let i = self.counts.position_or_insert(sig, SigCount::default);
            self.counts.0[i].1.open[prio.index()] += n;
        }
    }

    /// Adds a produced item to `sig`'s group; rule 1 — returns the batch
    /// when that fills it. The item stays counted until its claim is
    /// [settled](Self::settle).
    pub fn push(&mut self, sig: &Arc<PlacementSignature>, item: T) -> Option<FormedBatch<T>> {
        self.former.push(sig, item)
    }

    /// `n > 0` items of a `prio` query counted under `sig` can no longer
    /// land in its group: produced (and pushed), failed, dropped, or moved
    /// to another rung. Rules 2 and 3 — when that empties the priority
    /// class, the group's partial batch lands in `out` if nothing at all
    /// is outstanding any more (which also retires the counters), or if
    /// what is outstanding ranks below the group's most urgent member.
    ///
    /// Settling a run of `n` items at once, after all of them were pushed,
    /// releases what settling them one by one would: the run's own items
    /// keep their class open until the last of them settles, so only that
    /// settle can release a group.
    ///
    /// # Panics
    ///
    /// Panics when fewer than `n` such items are counted: an entry lives
    /// from its first registered item until the last one settles, so this
    /// may only be called for items the caller still holds a count for.
    pub fn settle(
        &mut self,
        sig: &Arc<PlacementSignature>,
        prio: Priority,
        n: usize,
        out: &mut Vec<FormedBatch<T>>,
    ) {
        let i = self.counts.position(sig);
        let i = i.expect("an item is still counted under this signature");
        let count = &mut self.counts.0[i].1;
        let open = &mut count.open[prio.index()];
        *open = open
            .checked_sub(n)
            .expect("settled more items than were registered");
        if *open > 0 {
            return;
        }
        match count.top() {
            None => {
                out.extend(self.former.flush(sig));
                self.counts.remove_at(i);
            }
            Some(top) if top < prio => {
                let priority_of = self.priority_of;
                let urgent = |item: &T| priority_of(item) > top;
                if self.former.group(sig).iter().any(urgent) {
                    out.extend(self.former.flush(sig));
                    self.priority_flushes += 1;
                }
            }
            Some(_) => {}
        }
    }

    /// The items pending for `sig`, in push order.
    pub fn group(&self, sig: &Arc<PlacementSignature>) -> &[T] {
        self.former.group(sig)
    }

    /// Items currently pending across all signatures.
    pub fn pending_total(&self) -> usize {
        self.former.pending_total()
    }

    /// `sig`'s counters; `None` once nothing is outstanding under it.
    pub fn count(&self, sig: &Arc<PlacementSignature>) -> Option<SigCount> {
        self.counts.get(sig).copied()
    }

    /// Partial batches released by rule 3 so far.
    pub fn priority_flushes(&self) -> u64 {
        self.priority_flushes
    }

    /// Nothing counted and nothing pending: the state every item's
    /// accounting must return to.
    pub fn is_idle(&self) -> bool {
        self.counts.0.is_empty() && self.former.groups.0.is_empty()
    }
}

#[cfg(test)]
impl<T> Batcher<T> {
    /// The release rules hold between calls: no group is full, and a
    /// partial group waits only while work at least as urgent as its most
    /// urgent item is outstanding under its signature.
    pub(crate) fn check(&self) -> Result<(), String> {
        for (sig, group) in &self.former.groups.0 {
            if group.len() >= sig.batch.max(1) {
                return Err(format!("a full group of {} was not released", group.len()));
            }
            let urgent = group.iter().map(self.priority_of).max();
            let top = self.counts.get(sig).and_then(SigCount::top);
            if top < urgent {
                return Err(format!(
                    "a partial batch of {} (most urgent {urgent:?}) waits on {top:?} work",
                    group.len()
                ));
            }
        }
        Ok(())
    }
}

/// What [`pick_lane`] knows of one lane.
#[derive(Debug, Clone, Copy)]
pub struct LaneLoad {
    /// Items in the batches queued on the lane plus those its consumers
    /// have launched and not yet retired.
    pub items: usize,
    /// Items per wall-clock second the lane's device sustains for the DNN
    /// of the batch being placed.
    pub rate: f64,
    /// Whether the lane's bounded queue can take another batch.
    pub has_space: bool,
}

/// The lane (by position in `loads`) expected to finish a batch of
/// `batch_items` first — its backlog plus the batch, over its rate — among
/// those with queue space; ties go to the lowest index. `None` when every
/// queue is full.
pub fn pick_lane(loads: impl IntoIterator<Item = LaneLoad>, batch_items: usize) -> Option<usize> {
    loads
        .into_iter()
        .enumerate()
        .filter(|(_, lane)| lane.has_space)
        .map(|(i, lane)| (i, (lane.items + batch_items) as f64 / lane.rate))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smol_accel::ModelKind;
    use smol_imgproc::rng::splitmix64;

    fn sig(dnn: ModelKind, batch: usize) -> Arc<PlacementSignature> {
        Arc::new(PlacementSignature {
            dnn,
            batch,
            out_w: 224,
            out_h: 224,
            frame_selection: None,
            accel_ops: Vec::new(),
        })
    }

    #[test]
    fn emits_exactly_at_batch_size() {
        let s = sig(ModelKind::ResNet50, 3);
        let mut former: BatchFormer<u32> = BatchFormer::new();
        assert!(former.push(&s, 1).is_none());
        assert!(former.push(&s, 2).is_none());
        let batch = former.push(&s, 3).expect("full at 3");
        assert!(batch.is_full());
        assert_eq!(batch.items, vec![1, 2, 3]);
        assert_eq!(former.pending(&s), 0);
    }

    #[test]
    fn signatures_do_not_mix() {
        let a = sig(ModelKind::ResNet50, 2);
        let b = sig(ModelKind::ResNet18, 2);
        let mut former: BatchFormer<&'static str> = BatchFormer::new();
        assert!(former.push(&a, "a1").is_none());
        assert!(former.push(&b, "b1").is_none());
        let full_a = former.push(&a, "a2").unwrap();
        assert_eq!(full_a.sig, a);
        assert_eq!(full_a.items, vec!["a1", "a2"]);
        assert_eq!(former.pending(&b), 1);
    }

    #[test]
    fn flush_emits_partials_only() {
        let s = sig(ModelKind::ResNet34, 4);
        let mut former: BatchFormer<u32> = BatchFormer::new();
        assert!(former.flush(&s).is_none());
        former.push(&s, 7);
        let partial = former.flush(&s).unwrap();
        assert!(!partial.is_full());
        assert_eq!(partial.items, vec![7]);
        assert_eq!(former.pending_total(), 0);
    }

    #[test]
    fn flush_all_drains_every_group() {
        let a = sig(ModelKind::ResNet50, 8);
        let b = sig(ModelKind::ResNet18, 8);
        let mut former: BatchFormer<u32> = BatchFormer::new();
        former.push(&a, 1);
        former.push(&b, 2);
        former.push(&b, 3);
        let mut flushed = former.flush_all();
        flushed.sort_by_key(|f| f.items.len());
        assert_eq!(flushed.len(), 2);
        assert_eq!(flushed[0].items, vec![1]);
        assert_eq!(flushed[1].items, vec![2, 3]);
        assert_eq!(former.pending_total(), 0);
    }

    /// Tokens carry their query's priority.
    fn batcher() -> Batcher<(Priority, u32)> {
        Batcher::new(|token| token.0)
    }

    #[test]
    fn a_drained_signature_flushes_and_retires_its_counters() {
        let s = sig(ModelKind::ResNet50, 4);
        let mut b = batcher();
        let mut out = Vec::new();
        b.register(&s, Priority::Normal, 2);
        for t in 0..2 {
            assert!(b.push(&s, (Priority::Normal, t)).is_none());
            b.settle(&s, Priority::Normal, 1, &mut out);
        }
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].items.len(), 2);
        assert_eq!(b.priority_flushes(), 0, "rule 2, not rule 3");
        assert!(b.is_idle());
    }

    #[test]
    fn a_group_waits_for_peers_and_betters_but_not_for_lesser_work() {
        let s = sig(ModelKind::ResNet50, 8);
        let mut b = batcher();
        let mut out = Vec::new();
        b.register(&s, Priority::Normal, 5);
        b.register(&s, Priority::High, 2);
        b.register(&s, Priority::High, 1); // a second High query: a peer
        b.push(&s, (Priority::Normal, 0));
        b.settle(&s, Priority::Normal, 1, &mut out);
        b.push(&s, (Priority::High, 1));
        b.settle(&s, Priority::High, 1, &mut out);
        b.push(&s, (Priority::High, 2));
        b.settle(&s, Priority::High, 1, &mut out);
        assert!(out.is_empty(), "the High peer can still add");
        b.push(&s, (Priority::High, 3));
        b.settle(&s, Priority::High, 1, &mut out);
        assert_eq!(out.len(), 1, "only Normal work is outstanding");
        assert_eq!(out[0].items.len(), 4, "the Normal item rides along");
        assert_eq!(b.priority_flushes(), 1);
        let count = b.count(&s).expect("the scan is still counted");
        assert_eq!(count.open[Priority::Normal.index()], 4);
        // The scan goes on alone: nothing it pushes outranks what is
        // outstanding, so its group waits to fill or drain.
        for t in 4..8 {
            b.push(&s, (Priority::Normal, t));
            b.settle(&s, Priority::Normal, 1, &mut out);
        }
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].items.len(), 4);
        assert_eq!(b.priority_flushes(), 1);
        assert!(b.is_idle());
    }

    #[test]
    fn a_group_of_lesser_items_is_not_flushed_by_a_departing_better() {
        let s = sig(ModelKind::ResNet50, 8);
        let mut b = batcher();
        let mut out = Vec::new();
        b.register(&s, Priority::Low, 3);
        b.register(&s, Priority::High, 1);
        b.push(&s, (Priority::Low, 0));
        b.settle(&s, Priority::Low, 1, &mut out);
        // The High item fails: it leaves the class without joining the group.
        b.settle(&s, Priority::High, 1, &mut out);
        assert!(out.is_empty());
        assert_eq!(b.priority_flushes(), 0);
    }

    #[test]
    fn equal_signatures_in_distinct_arcs_share_a_group() {
        let (a, a_copy) = (sig(ModelKind::ResNet50, 3), sig(ModelKind::ResNet50, 3));
        let other = sig(ModelKind::ResNet18, 3);
        assert!(!Arc::ptr_eq(&a, &a_copy));
        let mut b = batcher();
        let mut out = Vec::new();
        b.register(&a, Priority::Normal, 2);
        b.register(&a_copy, Priority::High, 1);
        b.register(&other, Priority::Normal, 2);
        assert_eq!(b.count(&a), b.count(&a_copy), "one entry counts both");
        assert!(b.push(&a, (Priority::Normal, 0)).is_none());
        assert!(b.push(&other, (Priority::Normal, 1)).is_none());
        assert!(b.push(&a_copy, (Priority::High, 2)).is_none());
        assert_eq!(b.group(&a), b.group(&a_copy));
        assert_eq!(b.group(&other), [(Priority::Normal, 1)]);
        let full = b
            .push(&a_copy, (Priority::Normal, 3))
            .expect("a full batch of both");
        let tokens: Vec<u32> = full.items.iter().map(|t| t.1).collect();
        assert_eq!((tokens, *full.sig == *a), (vec![0, 2, 3], true));
        assert_eq!(
            b.pending_total(),
            1,
            "the other signature's item waits apart"
        );
        b.settle(&a, Priority::Normal, 2, &mut out);
        b.settle(&a_copy, Priority::High, 1, &mut out);
        assert!(out.is_empty() && b.count(&a).is_none());
        b.settle(&other, Priority::Normal, 2, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!((*out[0].sig == *other, out[0].items.len()), (true, 1));
        assert!(b.is_idle());
    }

    /// Drives two batchers through the same seeded runs — items of one
    /// query, each pushed into one of the signatures open to it, or failed
    /// and pushed nowhere — settling one item by item and the other once
    /// per run and open signature, and checks that both release the same
    /// batches at the end of every run. Returns how many batches each rule
    /// released: full, drained, priority-drained.
    fn settle_per_run_against_per_item(seed: u64) -> [usize; 3] {
        let mut state = seed;
        let mut draw = |n: usize| (splitmix64(&mut state) % n as u64) as usize;
        // Two signatures, the second held in two distinct `Arc`s.
        let sigs = [
            sig(ModelKind::ResNet50, 2 + draw(4)),
            sig(ModelKind::ResNet18, 2 + draw(4)),
        ];
        let copy = Arc::new((*sigs[1]).clone());
        let arc = |si: usize, qi: usize| {
            if si == 1 && qi % 2 == 1 {
                &copy
            } else {
                &sigs[si]
            }
        };
        let prios = [Priority::Low, Priority::Normal, Priority::High];
        // Per query: priority, open signatures (both for a routed one),
        // items left.
        let mut queries: Vec<(Priority, Vec<usize>, usize)> = (0..1 + draw(4))
            .map(|_| {
                let open = match draw(3) {
                    0 => vec![0, 1],
                    s => vec![s - 1],
                };
                (prios[draw(3)], open, 1 + draw(20))
            })
            .collect();
        let (mut per_item, mut per_run) = (batcher(), batcher());
        for (qi, (prio, open, n)) in queries.iter().enumerate() {
            for &si in open {
                per_item.register(arc(si, qi), *prio, *n);
                per_run.register(arc(si, qi), *prio, *n);
            }
        }
        let mut released = [0; 3];
        let mut token = 0;
        while queries.iter().any(|q| q.2 > 0) {
            let qi = draw(queries.len());
            let (prio, open, left) = &mut queries[qi];
            if *left == 0 {
                continue;
            }
            let run = 1 + draw((*left).min(16));
            *left -= run;
            let (mut item_out, mut run_out) = (Vec::new(), Vec::new());
            for _ in 0..run {
                let target = (draw(8) > 0).then(|| open[draw(open.len())]);
                if let Some(si) = target {
                    token += 1;
                    item_out.extend(per_item.push(arc(si, qi), (*prio, token)));
                    run_out.extend(per_run.push(arc(si, qi), (*prio, token)));
                }
                for &si in open.iter() {
                    per_item.settle(arc(si, qi), *prio, 1, &mut item_out);
                }
            }
            let flushes = per_run.priority_flushes();
            for &si in open.iter() {
                per_run.settle(arc(si, qi), *prio, run, &mut run_out);
            }
            let batches =
                |out: &[FormedBatch<(Priority, u32)>]| -> Vec<(bool, Vec<(Priority, u32)>)> {
                    out.iter()
                        .map(|b| (*b.sig == *sigs[0], b.items.clone()))
                        .collect()
                };
            assert_eq!(batches(&item_out), batches(&run_out), "seed {seed}");
            assert_eq!(
                per_item.priority_flushes(),
                per_run.priority_flushes(),
                "seed {seed}"
            );
            for sig in &sigs {
                assert_eq!(per_item.count(sig), per_run.count(sig), "seed {seed}");
                assert_eq!(per_item.group(sig), per_run.group(sig), "seed {seed}");
            }
            per_run.check().unwrap();
            let priority = (per_run.priority_flushes() - flushes) as usize;
            let full = run_out.iter().filter(|b| b.is_full()).count();
            released[0] += full;
            released[1] += run_out.len() - full - priority;
            released[2] += priority;
        }
        assert!(per_item.is_idle() && per_run.is_idle(), "seed {seed}");
        released
    }

    #[test]
    fn one_settle_per_run_releases_what_settling_item_by_item_does() {
        let mut released = [0; 3];
        for seed in 0..2_000 {
            let by_rule = settle_per_run_against_per_item(seed);
            for (total, n) in released.iter_mut().zip(by_rule) {
                *total += n;
            }
        }
        assert!(
            released.iter().all(|&n| n > 100),
            "every release rule fires: {released:?}"
        );
    }

    fn lane(items: usize, rate: f64) -> LaneLoad {
        LaneLoad {
            items,
            rate,
            has_space: true,
        }
    }

    #[test]
    fn lane_choice_is_by_expected_completion() {
        // ResNet-50 at batch 16: T4 3 836 im/s, V100 1.58× that.
        let (t4, v100) = (3_836.0, 6_061.0);
        assert_eq!(pick_lane([lane(16, t4), lane(16, v100)], 16), Some(1));
        assert_eq!(pick_lane([lane(0, t4), lane(0, v100)], 16), Some(1));
        // One 3-item batch is less backlog than one 16-item batch.
        assert_eq!(pick_lane([lane(16, t4), lane(3, t4)], 16), Some(1));
        // A V100 behind three batches is later than a T4 behind one.
        assert_eq!(pick_lane([lane(16, t4), lane(48, v100)], 16), Some(0));
    }

    #[test]
    fn identical_lanes_with_full_batches_pick_the_least_loaded_lowest_index() {
        for batches in [[0usize, 0, 0], [1, 0, 0], [2, 1, 1], [1, 2, 0], [3, 3, 2]] {
            let by_batch_count = (0..3).min_by_key(|&i| batches[i]);
            let loads = batches.map(|b| lane(b * 16, 3_836.0));
            assert_eq!(pick_lane(loads, 16), by_batch_count, "{batches:?}");
        }
    }

    #[test]
    fn a_full_queue_is_never_picked() {
        let full = LaneLoad {
            has_space: false,
            ..lane(0, 6_061.0)
        };
        assert_eq!(pick_lane([full, lane(64, 3_836.0)], 16), Some(1));
        assert_eq!(pick_lane([full, full], 16), None);
    }
}
