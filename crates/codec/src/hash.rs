//! The in-memory content key of an encoded payload: a 64-bit hash read
//! 8 bytes × 4 independent lanes per step, so keying a decoded-tensor
//! cache costs a small fraction of the decode it saves (a 9 KB thumbnail
//! hashes in well under a microsecond; the byte-serial FNV-1a of
//! [`EncodedImage::fingerprint`](crate::EncodedImage::fingerprint) takes
//! over ten).
//!
//! The key is **not** the fingerprint and never replaces it: the
//! fingerprint names objects in the on-disk variant store and must stay
//! stable across releases, while this key only has to agree within one
//! process, which leaves it free to change whenever a faster mix exists.
//!
//! Every step is a bijection of the running state for a fixed input word
//! and of the input word for a fixed state, so two payloads of equal
//! length that differ in one word always produce different keys; the
//! length is mixed in ahead of the tail, so a zero-byte extension differs
//! too (up to an ordinary 2⁻⁶⁴ collision when it crosses a 32-byte step).
//!
//! The lane step is one xor, one multiply and one rotate: the four lanes'
//! multiplies overlap, so a step retires in about the latency of one. The
//! heavier `round` (a second multiply on the input word) only folds the
//! lanes, the header and the tail, a fixed dozen words per key.
//!
//! The key is computed in two halves: the payload (length and every
//! byte), then the header words and the final avalanche. The payload half
//! is the only part whose cost grows with the item, and
//! [`Bytes`](crate::Bytes) memoises it: a view's bytes can never change,
//! every clone of a view shares its memo, and a slice starts its own. The
//! header half runs on every lookup, so a change of format, width or
//! height — public fields of an item, often set by struct update beside a
//! cloned buffer — changes the key even though the buffer's memo rides
//! along. The whole key stays a pure function of (header, payload bytes):
//! [`content_key`] computes it from scratch and is the oracle for the
//! memoised [`Bytes::cache_key`](crate::Bytes::cache_key).

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;

/// Bytes consumed per step: four lanes of one little-endian word each.
const STEP: usize = 32;

#[inline(always)]
fn lane_step(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(P1).rotate_left(29)
}

#[inline(always)]
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline(always)]
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"))
}

/// Hashes `header` (format tag, dimensions, codec parameters — whatever
/// besides the bytes decides the decoded pixels) and every byte of
/// `payload` into one 64-bit key. The oracle for
/// [`Bytes::cache_key`](crate::Bytes::cache_key), which computes the same
/// key but reads the payload once per buffer: a per-lookup caller keys
/// through that, never through this.
pub fn content_key(header: &[u64], payload: &[u8]) -> u64 {
    with_header(payload_key(payload), header)
}

/// The payload half of [`content_key`]: the length and every byte, folded
/// but not finalised. Reads the whole payload.
pub(crate) fn payload_key(payload: &[u8]) -> u64 {
    let (mut l0, mut l1, mut l2, mut l3) = (P1, P2, P3, P1 ^ P3);
    let mut steps = payload.chunks_exact(STEP);
    for s in &mut steps {
        l0 = lane_step(l0, word(&s[0..8]));
        l1 = lane_step(l1, word(&s[8..16]));
        l2 = lane_step(l2, word(&s[16..24]));
        l3 = lane_step(l3, word(&s[24..32]));
    }
    let mut h = round(P3, payload.len() as u64);
    for w in [l0, l1, l2, l3] {
        h = round(h, w);
    }
    let mut words = steps.remainder().chunks_exact(8);
    for w in &mut words {
        h = round(h, word(w));
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        h = round(h, u64::from_le_bytes(last));
    }
    h
}

/// Folds `header` into a [`payload_key`] and finalises: a fixed few
/// multiplies per header word, whatever the payload's size.
pub(crate) fn with_header(payload_key: u64, header: &[u64]) -> u64 {
    let mut h = payload_key;
    for w in header {
        h = round(h, *w);
    }
    // Final avalanche (bijective): the low bits of the last words reach
    // the whole key, which a `HashMap` then folds again.
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_byte_position_and_the_length_reach_the_key() {
        // Lengths on both sides of the 32-byte step and 8-byte word edges.
        for len in [0usize, 1, 7, 8, 9, 31, 32, 33, 40, 63, 64, 65, 100] {
            let base: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let key = content_key(&[1, 2], &base);
            for i in 0..len {
                let mut flipped = base.clone();
                flipped[i] ^= 0x40;
                assert_ne!(key, content_key(&[1, 2], &flipped), "len {len} byte {i}");
            }
            let mut longer = base.clone();
            longer.push(0);
            assert_ne!(key, content_key(&[1, 2], &longer), "len {len} + zero");
            assert_ne!(key, content_key(&[1, 3], &base), "len {len} header");
            assert_ne!(key, content_key(&[1], &base), "len {len} header length");
        }
    }
}
