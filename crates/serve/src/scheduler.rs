//! Scheduling policy of the serving runtime: fair share + signature
//! batching.
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
//! A partial group is flushed only when the scheduler proves no more
//! items of that signature are coming (no unclaimed items and no item
//! mid-production across *all* active queries with that signature) — for
//! a single query, its final partial batch. Items from different
//! signatures are **never** mixed into one batch, and a batch never
//! exceeds the signature's batch size; `tests/serve_properties.rs`
//! property-checks both invariants over arbitrary interleavings.

use smol_core::PlacementSignature;
use std::collections::HashMap;
use std::sync::Arc;

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

/// Groups produced items by placement signature and emits device batches.
///
/// Generic over the item payload so the policy can be property-tested with
/// plain tokens while the server feeds it staged work items.
#[derive(Debug, Default)]
pub struct BatchFormer<T> {
    groups: HashMap<Arc<PlacementSignature>, Vec<T>>,
}

impl<T> BatchFormer<T> {
    pub fn new() -> Self {
        BatchFormer {
            groups: HashMap::new(),
        }
    }

    /// Adds one produced item under its plan's signature; returns a full
    /// batch when the signature's group reaches its batch size. The
    /// signature is shared by `Arc`, so the per-item cost here is a
    /// refcount bump, not a deep clone (this runs under the scheduler
    /// lock).
    pub fn push(&mut self, sig: &Arc<PlacementSignature>, item: T) -> Option<FormedBatch<T>> {
        let group = self.groups.entry(Arc::clone(sig)).or_default();
        group.push(item);
        if group.len() >= sig.batch.max(1) {
            let items = std::mem::take(group);
            self.groups.remove(sig);
            Some(FormedBatch {
                sig: Arc::clone(sig),
                items,
            })
        } else {
            None
        }
    }

    /// Items currently pending (produced, not yet batched) for `sig`.
    pub fn pending(&self, sig: &Arc<PlacementSignature>) -> usize {
        self.groups.get(sig).map_or(0, Vec::len)
    }

    /// Items currently pending across all signatures.
    pub fn pending_total(&self) -> usize {
        self.groups.values().map(Vec::len).sum()
    }

    /// Emits the partial batch for `sig`, if any. Called when the
    /// scheduler proves no further items of that signature are coming.
    pub fn flush(&mut self, sig: &Arc<PlacementSignature>) -> Option<FormedBatch<T>> {
        let items = self.groups.remove(sig)?;
        if items.is_empty() {
            return None;
        }
        Some(FormedBatch {
            sig: Arc::clone(sig),
            items,
        })
    }

    /// Emits every pending partial batch (shutdown path).
    pub fn flush_all(&mut self) -> Vec<FormedBatch<T>> {
        let sigs: Vec<Arc<PlacementSignature>> = self.groups.keys().cloned().collect();
        sigs.into_iter().filter_map(|s| self.flush(&s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smol_accel::ModelKind;

    fn sig(dnn: ModelKind, batch: usize) -> Arc<PlacementSignature> {
        Arc::new(PlacementSignature {
            dnn,
            batch,
            out_w: 224,
            out_h: 224,
            frame_selection: None,
            accel_ops: Vec::new(),
            extra_stages: Vec::new(),
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
}
