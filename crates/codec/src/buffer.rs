//! [`Bytes`]: an immutable byte buffer whose clones and slices share one
//! allocation — what an encoded item, a video container and each of its
//! GOPs hold.

use std::ops::{Deref, Range};
use std::sync::{Arc, OnceLock};

use crate::hash;

/// A shared, immutable view `data[start..end]`.
///
/// The bytes a view shows never change: there is no `DerefMut`, no
/// `get_mut` and no way back to a `Vec`, and a view's range is fixed at
/// construction. That is what lets a view carry the hash of its payload
/// (see [`Bytes::cache_key`]): it is computed on the first key request
/// and shared with every clone, while [`Bytes::slice`] and `From<Vec<u8>>`
/// make a new view with a fresh, empty memo for their own range.
///
/// A clone is one reference-count increment: the range and the memo live
/// behind the same `Arc` as the handle to the allocation.
#[derive(Clone, Default)]
pub struct Bytes(Arc<View>);

#[derive(Default)]
struct View {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
    /// `hash::payload_key` of `data[start..end]`, filled by the first
    /// [`Bytes::cache_key`] call of this view or any of its clones.
    payload_key: OnceLock<u64>,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The sub-range `range` of this view, sharing its allocation.
    ///
    /// # Panics
    /// If the range is inverted or ends past `self.len()`.
    pub fn slice(&self, range: Range<usize>) -> Bytes {
        assert!(range.start <= range.end, "range start must not exceed end");
        assert!(range.end <= self.len(), "range end out of bounds");
        Bytes(Arc::new(View {
            data: Arc::clone(&self.0.data),
            start: self.0.start + range.start,
            end: self.0.start + range.end,
            payload_key: OnceLock::new(),
        }))
    }

    /// The in-memory content key of `header` (whatever besides the bytes
    /// decides the decoded pixels) and this view's bytes: equal to
    /// [`hash::content_key`]`(header, self)`, so equal content in two
    /// allocations keys equally. The payload is read once per view — on
    /// the first call of this view or any clone, which then all share the
    /// result — and `header` is mixed in on every call, so a lookup costs
    /// a handful of multiplies whatever the payload's size.
    pub fn cache_key(&self, header: &[u64]) -> u64 {
        let payload = *self.0.payload_key.get_or_init(|| hash::payload_key(self));
        hash::with_header(payload, header)
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0.data[self.0.start..self.0.end]
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes(Arc::new(View {
            data: v.into(),
            start: 0,
            end,
            payload_key: OnceLock::new(),
        }))
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_allocation_and_matches() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(*s, [2, 3, 4]);
        assert!(Arc::ptr_eq(&b.0.data, &s.0.data));
        assert!(b.slice(5..5).is_empty());
    }

    #[test]
    fn a_slice_of_a_slice_is_relative_to_its_view() {
        // GOP splitting re-slices a container body that is itself a slice.
        let b = Bytes::from((0u8..10).collect::<Vec<_>>());
        let gop = b.slice(2..9).slice(3..6);
        assert_eq!(*gop, [5, 6, 7]);
        assert!(Arc::ptr_eq(&b.0.data, &gop.0.data));
        assert_eq!(gop, Bytes::from(vec![5, 6, 7]));
    }

    #[test]
    fn clone_is_equal_and_cheap() {
        let b = Bytes::from(vec![9u8; 1024]);
        let c = b.clone();
        assert_eq!(b, c);
        assert!(Arc::ptr_eq(&b.0, &c.0));
        assert_eq!(c.to_vec().len(), 1024);
        assert!(Bytes::new().is_empty());
    }

    #[test]
    fn clones_share_one_payload_hash() {
        let b = Bytes::from((0u8..200).collect::<Vec<_>>());
        let c = b.clone();
        assert!(b.0.payload_key.get().is_none(), "computed lazily");
        let key = c.cache_key(&[7]);
        assert!(Arc::ptr_eq(&b.0, &c.0), "one view, one memo");
        assert_eq!(b.0.payload_key.get(), c.0.payload_key.get());
        assert_eq!(b.cache_key(&[7]), key);
        assert_eq!(key, hash::content_key(&[7], &b));
    }

    #[test]
    fn a_slice_does_not_inherit_its_parent_s_memo() {
        let b = Bytes::from((0u8..100).collect::<Vec<_>>());
        let parent = b.cache_key(&[1]);
        let whole = b.slice(0..b.len());
        assert!(!Arc::ptr_eq(&b.0, &whole.0));
        assert!(whole.0.payload_key.get().is_none());
        assert_eq!(whole.cache_key(&[1]), parent, "same range, same key");
        let part = b.slice(10..90);
        assert!(part.0.payload_key.get().is_none());
        assert_eq!(part.cache_key(&[1]), hash::content_key(&[1], &b[10..90]));
        assert_ne!(part.cache_key(&[1]), parent);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let _ = Bytes::from(vec![0u8; 4]).slice(0..5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn a_slice_of_a_slice_cannot_reach_past_its_view() {
        let _ = Bytes::from(vec![0u8; 8]).slice(2..6).slice(0..5);
    }
}
