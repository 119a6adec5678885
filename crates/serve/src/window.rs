//! A query's per-item state: one [`Window`] of slots from its oldest
//! unresolved item to its newest, indexed by `idx − base`.
//!
//! Closed and open queries alike append every item to the back of the
//! window. A claim cursor walks it in index order, and slots pop off the
//! front once resolved. Items resolve out of order (batches retire on
//! several lanes and consumer threads), so a resolved slot waits behind the
//! oldest unresolved one — which is why an appender waits on the span as
//! well as on the unresolved count ([`Window::full`]).

use crate::stats::BoxedPrediction;
use smol_runtime::MediaItem;
use std::collections::VecDeque;

/// Slots, per unresolved item allowed, that a slow item may hold behind it
/// before appends wait for it.
const SPAN_PER_ITEM: usize = 4;

/// What a drained window keeps of its capacity: a burst of paced drops
/// behind a slow item does not pin its peak.
const REST_CAPACITY: usize = 64;

enum Slot {
    Unclaimed(NextItem),
    Claimed(Progress),
    /// Completed, cancelled, or dropped at append.
    Resolved,
}

/// An unclaimed item, handed to a producer by [`Window::claim`].
pub(crate) struct NextItem {
    pub idx: usize,
    pub item: MediaItem,
    /// The item's outputs are `offset..offset + fanout`.
    pub offset: usize,
    pub fanout: usize,
    /// The rung its appender chose; `None` lets the ladder pick.
    pub rung: Option<usize>,
}

/// A claimed item, until every output it staged has retired or its
/// production failed.
struct Progress {
    offset: usize,
    fanout: usize,
    /// Outputs not yet retired (the fan-out until production says what it
    /// staged), and those that did not execute.
    left: usize,
    failed: usize,
    /// An open query's predictions, per output (a closed query's go
    /// straight into its report).
    results: Vec<Option<BoxedPrediction>>,
}

/// One query's unresolved items (see the module docs).
pub(crate) struct Window {
    /// The index of the item in `slots[0]`.
    base: usize,
    slots: VecDeque<Slot>,
    /// The first unclaimed item's index (meaningless while none is).
    cursor: usize,
    unclaimed: usize,
    unresolved: usize,
    /// Claimed items keep a prediction per output, for an open query's
    /// completions.
    per_output: bool,
}

impl Window {
    pub fn new(per_output: bool) -> Window {
        Window {
            base: 0,
            slots: VecDeque::new(),
            cursor: 0,
            unclaimed: 0,
            unresolved: 0,
            per_output,
        }
    }

    /// Items appended so far: the index the next one takes.
    pub fn end(&self) -> usize {
        self.base + self.slots.len()
    }

    pub fn unresolved(&self) -> usize {
        self.unresolved
    }

    pub fn unclaimed(&self) -> usize {
        self.unclaimed
    }

    /// The index [`Window::claim`] hands out next.
    pub fn next_unclaimed(&self) -> Option<usize> {
        (self.unclaimed > 0).then_some(self.cursor)
    }

    /// Whether an appender waits: `bound` items are unresolved, or the
    /// oldest unresolved one holds `SPAN_PER_ITEM · bound` slots.
    pub fn full(&self, bound: usize) -> bool {
        self.unresolved >= bound || self.slots.len() >= SPAN_PER_ITEM * bound
    }

    #[cfg(test)]
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Appends an item for a producer to claim.
    pub fn push(&mut self, item: MediaItem, offset: usize, fanout: usize, rung: Option<usize>) {
        let idx = self.end();
        if self.unclaimed == 0 {
            self.cursor = idx;
        }
        self.unclaimed += 1;
        self.unresolved += 1;
        let next = NextItem {
            idx,
            item,
            offset,
            fanout,
            rung,
        };
        self.slots.push_back(Slot::Unclaimed(next));
    }

    /// Appends an item resolved on arrival (a paced drop): it takes an
    /// index and nothing else.
    pub fn push_dropped(&mut self) {
        self.slots.push_back(Slot::Resolved);
        self.pop_resolved();
    }

    /// Claims the next unclaimed item, in index order.
    pub fn claim(&mut self) -> Option<NextItem> {
        let at = self.next_unclaimed()? - self.base;
        let Slot::Unclaimed(next) = std::mem::replace(&mut self.slots[at], Slot::Resolved) else {
            unreachable!("the cursor rests on an unclaimed item");
        };
        let predictions = if self.per_output { next.fanout } else { 0 };
        self.slots[at] = Slot::Claimed(Progress {
            offset: next.offset,
            fanout: next.fanout,
            left: next.fanout,
            failed: 0,
            results: (0..predictions).map(|_| None).collect(),
        });
        self.unclaimed -= 1;
        if self.unclaimed > 0 {
            // Step over paced drops to the next unclaimed item.
            let skip = self.slots.range(at + 1..);
            self.cursor += 1 + skip
                .take_while(|s| !matches!(s, Slot::Unclaimed(_)))
                .count();
        }
        Some(next)
    }

    /// Claimed item `idx` was produced: `Some(n)` outputs staged, or `None`
    /// when production failed (every output failed). True when nothing is
    /// left to retire — the caller then resolves it.
    pub fn staged(&mut self, idx: usize, staged: Option<usize>) -> bool {
        let item = self.progress(idx);
        match staged {
            Some(n) => item.left = n,
            None => (item.left, item.failed) = (0, item.fanout),
        }
        item.left == 0
    }

    /// Output `output` of claimed item `idx` retired: `Ok` with the
    /// callback's prediction (kept for an open query), `Err` when it did not
    /// execute. True when it was the item's last.
    pub fn retired(
        &mut self,
        idx: usize,
        output: usize,
        outcome: Result<Option<BoxedPrediction>, ()>,
    ) -> bool {
        let item = self.progress(idx);
        item.left -= 1;
        match outcome {
            Ok(pred) if !item.results.is_empty() => item.results[output - item.offset] = pred,
            Ok(_) => {}
            Err(()) => item.failed += 1,
        }
        item.left == 0
    }

    /// Resolves claimed item `idx`: its predictions (one per output for an
    /// open query, `None` where none came back) and its failed outputs.
    pub fn resolve(&mut self, idx: usize) -> (Vec<Option<BoxedPrediction>>, usize) {
        let at = idx - self.base;
        let Slot::Claimed(item) = std::mem::replace(&mut self.slots[at], Slot::Resolved) else {
            panic!("item {idx} resolves once, after its claim");
        };
        self.unresolved -= 1;
        self.pop_resolved();
        (item.results, item.failed)
    }

    /// Resolves every unclaimed item, handing each to `cancelled` in index
    /// order.
    pub fn cancel(&mut self, mut cancelled: impl FnMut(&NextItem)) {
        if self.unclaimed == 0 {
            return;
        }
        for slot in self.slots.range_mut(self.cursor - self.base..) {
            if let Slot::Unclaimed(next) = slot {
                cancelled(next);
                *slot = Slot::Resolved;
            }
        }
        self.unresolved -= std::mem::take(&mut self.unclaimed);
        self.pop_resolved();
    }

    fn progress(&mut self, idx: usize) -> &mut Progress {
        match &mut self.slots[idx - self.base] {
            Slot::Claimed(item) => item,
            _ => panic!("item {idx} is claimed and unresolved"),
        }
    }

    /// Frees the resolved slots at the front.
    fn pop_resolved(&mut self) {
        while let Some(Slot::Resolved) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        if self.slots.is_empty() && self.slots.capacity() > REST_CAPACITY {
            self.slots.shrink_to(REST_CAPACITY);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smol_codec::{EncodedImage, Format};
    use smol_imgproc::ImageU8;

    fn item() -> MediaItem {
        let img = ImageU8::zeros(8, 8, 3);
        MediaItem::Image(EncodedImage::encode(&img, Format::sjpg(85)).unwrap())
    }

    /// A window with `n` one-output items appended.
    fn window(n: usize, per_output: bool) -> Window {
        let mut w = Window::new(per_output);
        (0..n).for_each(|i| w.push(item(), i, 1, None));
        w
    }

    /// Claims the next item, which stages its one output.
    fn claim(w: &mut Window) -> usize {
        let idx = w.claim().expect("an unclaimed item").idx;
        assert!(!w.staged(idx, Some(1)), "one output left to retire");
        idx
    }

    /// Retires claimed item `idx`'s one output and resolves it.
    fn complete(w: &mut Window, idx: usize) {
        assert!(w.retired(idx, idx, Ok(None)), "its last output");
        w.resolve(idx);
    }

    #[test]
    fn the_front_pops_only_once_the_head_resolves() {
        let mut w = window(3, false);
        assert_eq!([claim(&mut w), claim(&mut w), claim(&mut w)], [0, 1, 2]);
        assert_eq!(
            (w.unresolved(), w.unclaimed(), w.next_unclaimed()),
            (3, 0, None)
        );
        for (idx, unresolved, slots) in [(2, 2, 3), (0, 1, 2), (1, 0, 0)] {
            complete(&mut w, idx);
            assert_eq!((w.unresolved(), w.slots.len()), (unresolved, slots));
        }
        assert_eq!((w.base, w.end()), (3, 3));
    }

    #[test]
    fn a_paced_drop_takes_an_index_and_a_resolved_slot() {
        let mut w = window(0, true);
        w.push_dropped(); // onto an empty window: pops at once
        assert_eq!((w.end(), w.slots.len(), w.unresolved()), (1, 0, 0));
        w.push(item(), 0, 2, Some(0));
        w.push_dropped();
        w.push(item(), 2, 1, Some(1));
        assert_eq!((w.end(), w.unresolved(), w.unclaimed()), (4, 2, 2));
        assert_eq!(w.claim().map(|next| next.idx), Some(1));
        assert_eq!(
            w.next_unclaimed(),
            Some(3),
            "the cursor steps over the drop"
        );
        // Item 1's outputs come back out of order, one failed; the drop
        // waits behind it, then pops with it.
        assert!(!w.staged(1, Some(2)));
        assert!(!w.retired(1, 1, Ok(Some(Box::new(7usize)))));
        assert!(w.retired(1, 0, Err(())));
        let (results, failed) = w.resolve(1);
        let seven = results[1].as_ref().and_then(|r| r.downcast_ref::<usize>());
        assert_eq!(
            (results.len(), results[0].is_none(), seven, failed),
            (2, true, Some(&7), 1)
        );
        assert_eq!((w.slots.len(), w.base, w.unresolved()), (1, 3, 1));
        // Cancelling resolves the unclaimed item without a claim.
        let mut cancelled = Vec::new();
        w.cancel(|next| cancelled.push((next.idx, next.offset, next.rung)));
        assert_eq!(cancelled, [(3, 2, Some(1))]);
        assert_eq!(
            (w.slots.len(), w.unresolved(), w.claim().is_none()),
            (0, 0, true)
        );
    }

    #[test]
    fn a_slow_head_bounds_the_span_appends_may_reach() {
        const BOUND: usize = 2;
        let mut w = window(1, false);
        let head = claim(&mut w);
        while !w.full(BOUND) {
            let idx = w.end();
            w.push(item(), idx, 1, None);
            assert_eq!(claim(&mut w), idx);
            complete(&mut w, idx);
        }
        assert_eq!((w.unresolved(), w.slots.len()), (1, SPAN_PER_ITEM * BOUND));
        complete(&mut w, head);
        assert_eq!(
            (w.full(BOUND), w.unresolved(), w.slots.len()),
            (false, 0, 0)
        );
    }

    #[test]
    fn capacity_returns_to_rest_once_drained() {
        const N: usize = 1_000;
        let mut w = window(N, false);
        (0..N).for_each(|_| _ = claim(&mut w));
        assert!(w.capacity() >= N);
        // Newest first: every slot waits behind item 0 until the last step.
        for idx in (0..N).rev() {
            complete(&mut w, idx);
            assert_eq!(w.unresolved(), idx);
        }
        assert!(w.capacity() <= REST_CAPACITY, "{}", w.capacity());
    }
}
