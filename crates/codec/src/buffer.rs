//! [`Bytes`]: an immutable byte buffer whose clones and slices share one
//! allocation — what an encoded item, a video container and each of its
//! GOPs hold.

use std::ops::{Deref, Range};
use std::sync::Arc;

/// A shared, immutable view `data[start..end]`.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
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
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: v.into(),
            start: 0,
            end,
        }
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
        assert!(Arc::ptr_eq(&b.data, &s.data));
        assert!(b.slice(5..5).is_empty());
    }

    #[test]
    fn a_slice_of_a_slice_is_relative_to_its_view() {
        // GOP splitting re-slices a container body that is itself a slice.
        let b = Bytes::from((0u8..10).collect::<Vec<_>>());
        let gop = b.slice(2..9).slice(3..6);
        assert_eq!(*gop, [5, 6, 7]);
        assert!(Arc::ptr_eq(&b.data, &gop.data));
        assert_eq!(gop, Bytes::from(vec![5, 6, 7]));
    }

    #[test]
    fn clone_is_equal_and_cheap() {
        let b = Bytes::from(vec![9u8; 1024]);
        let c = b.clone();
        assert_eq!(b, c);
        assert!(Arc::ptr_eq(&b.data, &c.data));
        assert_eq!(c.to_vec().len(), 1024);
        assert!(Bytes::new().is_empty());
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
