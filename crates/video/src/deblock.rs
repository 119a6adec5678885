//! In-loop deblocking filter.
//!
//! Block codecs introduce visible discontinuities at 8-pixel block
//! boundaries; the in-loop filter smooths boundary pixels when the edge
//! gradient is small (a genuine edge is left alone). H.264/HEVC decoders
//! may skip this filter for **reduced-fidelity decoding** (§6.4) — skipping
//! it here likewise saves real work and introduces real drift, because the
//! encoder's reconstruction loop applies it.
//!
//! Two implementations, pinned to each other by the crate's tests and
//! `tests/video_properties.rs`:
//!
//! * [`deblock`] — what every decoder and the encoder's reconstruction loop
//!   run. Both passes work on raw rows: pass 1 (vertical boundaries) walks
//!   each row's boundaries through one slice per boundary, pass 2
//!   (horizontal boundaries) sweeps four whole rows per boundary with the
//!   keep/replace decision as mask arithmetic, which the compiler
//!   vectorises.
//! * [`deblock_reference`] — the seed's per-sample `at`/`set` filter, kept
//!   as the oracle. Tests and benches only.
//!
//! Pass 2 visits boundaries row-major where the reference goes column by
//! column. The two orders agree because a filter touches one column only
//! (columns never interact) and, within a column, both visit the
//! boundaries top to bottom. Pass 1 keeps the reference's order outright.

use smol_imgproc::ImageU8;

/// Boundary-strength threshold: edges steeper than this are assumed real
/// image content and are not smoothed.
const THRESHOLD: i16 = 24;

/// Filters one boundary sample pair: `(p1, p0 | q0, q1)` → the new
/// `(p0, q0)`. All-ones `m` when the step `|p0 − q0|` is a blocking
/// artifact (2..THRESHOLD), zero when it is flat or a real edge; sums of
/// four bytes plus 2 fit a `u16`, and their quarter fits a byte, so the
/// reference's signed arithmetic and clamp reduce to this.
#[inline(always)]
fn filter(p1: u8, p0: u8, q0: u8, q1: u8) -> (u8, u8) {
    let m = ((p0.abs_diff(q0).wrapping_sub(2) < THRESHOLD as u8 - 2) as u8).wrapping_neg();
    let (a, b, c, d) = (p1 as u16, p0 as u16, q0 as u16, q1 as u16);
    let np0 = ((a + 2 * b + c + 2) >> 2) as u8;
    let nq0 = ((d + 2 * c + b + 2) >> 2) as u8;
    ((np0 & m) | (p0 & !m), (nq0 & m) | (q0 & !m))
}

/// Pass 1 over one row: every vertical boundary `x = k·block`, left to
/// right, each channel in turn — the reference's order. Inlined into a
/// call per channel count, so `c` is a constant and the per-channel loop
/// unrolls.
#[inline(always)]
fn filter_row(row: &mut [u8], w: usize, c: usize, block: usize) {
    let mut x = block;
    // Interior boundaries: the four pixels are one slice of known length,
    // so no sample access is bounds-checked.
    while x >= 2 && x + 1 < w {
        let seg = &mut row[(x - 2) * c..(x + 2) * c];
        for ch in 0..c {
            (seg[c + ch], seg[2 * c + ch]) =
                filter(seg[ch], seg[c + ch], seg[2 * c + ch], seg[3 * c + ch]);
        }
        x += block;
    }
    // Boundaries whose outer taps clamp to the row (the last column, or
    // `block == 1`).
    while x < w {
        let (p1, p0, q0, q1) = (
            (x - 2.min(x)) * c,
            (x - 1) * c,
            x * c,
            (x + 1).min(w - 1) * c,
        );
        for ch in 0..c {
            (row[p0 + ch], row[q0 + ch]) =
                filter(row[p1 + ch], row[p0 + ch], row[q0 + ch], row[q1 + ch]);
        }
        x += block;
    }
}

/// Pass 2 across one horizontal boundary: `p0`/`q0` are the rows above and
/// below it, `p1`/`q1` their outer neighbours.
fn filter_rows(p1: &[u8], p0: &mut [u8], q0: &mut [u8], q1: &[u8]) {
    let n = p0.len();
    let (p1, q0, q1) = (&p1[..n], &mut q0[..n], &q1[..n]);
    for i in 0..n {
        (p0[i], q0[i]) = filter(p1[i], p0[i], q0[i], q1[i]);
    }
}

/// Applies the deblocking filter in place across the `block`-pixel grid
/// (bit-identical to [`deblock_reference`]).
pub fn deblock(img: &mut ImageU8, block: usize) {
    let (w, h, c) = (img.width(), img.height(), img.channels());
    let stride = w * c;
    if block == 0 || stride == 0 {
        return;
    }
    let data = img.data_mut();
    // Vertical boundaries (filter horizontally across x = k*block).
    for row in data.chunks_exact_mut(stride) {
        match c {
            3 => filter_row(row, w, 3, block),
            1 => filter_row(row, w, 1, block),
            c => filter_row(row, w, c, block),
        }
    }
    // Horizontal boundaries (filter vertically across y = k*block).
    let mut y = block;
    while y < h {
        let (above, below) = data.split_at_mut(y * stride);
        let (above, p0) = above.split_at_mut((y - 1) * stride);
        let (q0, below) = below.split_at_mut(stride);
        // An outer tap clamps onto its inner row at the last image row
        // (and with `block == 1`): the filter reads it before writing, so
        // a copy taken first is the same value.
        let p1_copy = (y < 2).then(|| p0.to_vec());
        let q1_copy = (y + 1 == h).then(|| q0.to_vec());
        let p1 = p1_copy
            .as_deref()
            .unwrap_or_else(|| &above[(y - 2) * stride..]);
        let q1 = q1_copy.as_deref().unwrap_or_else(|| &below[..stride]);
        filter_rows(p1, p0, q0, q1);
        y += block;
    }
}

/// The seed filter, one bounds-checked sample at a time: the oracle
/// [`deblock`] is pinned to. Tests and benches only.
pub fn deblock_reference(img: &mut ImageU8, block: usize) {
    let (w, h, c) = (img.width(), img.height(), img.channels());
    // Vertical boundaries (filter horizontally across x = k*block).
    for by in 0..h {
        let mut x = block;
        while x < w {
            for ch in 0..c {
                let p1 = img.at(x - 2.min(x), by, ch) as i16;
                let p0 = img.at(x - 1, by, ch) as i16;
                let q0 = img.at(x, by, ch) as i16;
                let q1 = img.at((x + 1).min(w - 1), by, ch) as i16;
                if (p0 - q0).abs() < THRESHOLD && (p0 - q0).abs() > 1 {
                    let np0 = (p1 + 2 * p0 + q0 + 2) / 4;
                    let nq0 = (q1 + 2 * q0 + p0 + 2) / 4;
                    img.set(x - 1, by, ch, np0.clamp(0, 255) as u8);
                    img.set(x, by, ch, nq0.clamp(0, 255) as u8);
                }
            }
            x += block;
        }
    }
    // Horizontal boundaries (filter vertically across y = k*block).
    for bx in 0..w {
        let mut y = block;
        while y < h {
            for ch in 0..c {
                let p1 = img.at(bx, y - 2.min(y), ch) as i16;
                let p0 = img.at(bx, y - 1, ch) as i16;
                let q0 = img.at(bx, y, ch) as i16;
                let q1 = img.at(bx, (y + 1).min(h - 1), ch) as i16;
                if (p0 - q0).abs() < THRESHOLD && (p0 - q0).abs() > 1 {
                    let np0 = (p1 + 2 * p0 + q0 + 2) / 4;
                    let nq0 = (q1 + 2 * q0 + p0 + 2) / 4;
                    img.set(bx, y - 1, ch, np0.clamp(0, 255) as u8);
                    img.set(bx, y, ch, nq0.clamp(0, 255) as u8);
                }
            }
            y += block;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_blocking_artifact_is_smoothed() {
        // Two flat half-planes differing by 10 across the x=8 boundary.
        let mut img = ImageU8::zeros(16, 4, 1);
        for y in 0..4 {
            for x in 0..16 {
                img.set(x, y, 0, if x < 8 { 100 } else { 110 });
            }
        }
        deblock(&mut img, 8);
        let step = (img.at(8, 0, 0) as i16 - img.at(7, 0, 0) as i16).abs();
        assert!(step < 10, "boundary step should shrink, got {step}");
    }

    #[test]
    fn strong_edges_preserved() {
        let mut img = ImageU8::zeros(16, 4, 1);
        for y in 0..4 {
            for x in 0..16 {
                img.set(x, y, 0, if x < 8 { 0 } else { 255 });
            }
        }
        let before = img.clone();
        deblock(&mut img, 8);
        assert_eq!(img, before, "a real edge must not be smoothed");
    }

    #[test]
    fn flat_image_unchanged() {
        let mut img = ImageU8::from_vec(32, 32, 3, vec![77; 32 * 32 * 3]).unwrap();
        let before = img.clone();
        deblock(&mut img, 8);
        assert_eq!(img, before);
    }

    /// Fast ≡ reference on noisy content across geometries that hit every
    /// tap-clamping case: one row/column past a boundary, `block` of 1 and
    /// 2 (overlapping filters), one and three channels.
    #[test]
    fn fast_filter_matches_the_reference() {
        let mut state = 0x9E37_79B9u32;
        for &(w, h) in &[
            (1, 1),
            (9, 9),
            (8, 8),
            (17, 25),
            (33, 16),
            (64, 41),
            (2, 70),
        ] {
            for c in [1, 3] {
                for block in [1, 2, 3, 8] {
                    let mut a = ImageU8::zeros(w, h, c);
                    for v in a.data_mut() {
                        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                        // Mostly small steps (filtered), some large (kept).
                        *v = if state >> 28 == 0 {
                            (state >> 8) as u8
                        } else {
                            100 + (state >> 12) as u8 % 20
                        };
                    }
                    let mut b = a.clone();
                    deblock(&mut a, block);
                    deblock_reference(&mut b, block);
                    assert_eq!(a, b, "{w}x{h}x{c} block {block}");
                }
            }
        }
    }

    #[test]
    fn deterministic() {
        let mut a = ImageU8::zeros(24, 24, 3);
        for (i, v) in a.data_mut().iter_mut().enumerate() {
            *v = ((i * 7) % 40 + 100) as u8;
        }
        let mut b = a.clone();
        deblock(&mut a, 8);
        deblock(&mut b, 8);
        assert_eq!(a, b);
    }
}
