//! Block motion estimation and compensation.
//!
//! P-frames predict each 16×16 macroblock from the previous reconstructed
//! frame using a translational motion vector found by three-step search
//! (TSS) on the sum of absolute differences.

use smol_imgproc::ImageU8;

/// Macroblock edge length.
pub const MB: usize = 16;

/// A motion vector in pixels, relative to the co-located macroblock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MotionVector {
    pub dx: i16,
    pub dy: i16,
}

/// Sum of absolute differences between the `MB×MB` block of `cur` at
/// `(bx, by)` and the block of `reference` displaced by `(dx, dy)`,
/// clamped to the frame bounds (edge pixels replicate).
pub fn sad(cur: &ImageU8, reference: &ImageU8, bx: usize, by: usize, dx: i16, dy: i16) -> u64 {
    let (w, h, c) = (cur.width(), cur.height(), cur.channels());
    let mut acc: u64 = 0;
    for my in 0..MB {
        let y = by * MB + my;
        if y >= h {
            break;
        }
        let ry = (y as i64 + dy as i64).clamp(0, h as i64 - 1) as usize;
        for mx in 0..MB {
            let x = bx * MB + mx;
            if x >= w {
                break;
            }
            let rx = (x as i64 + dx as i64).clamp(0, w as i64 - 1) as usize;
            // Luma-only estimation: channel 0 is a good-enough proxy and
            // keeps the search 3× cheaper, as real encoders do.
            let _ = c;
            acc += (cur.at(x, y, 0) as i64 - reference.at(rx, ry, 0) as i64).unsigned_abs();
        }
    }
    acc
}

/// Three-step search for the best motion vector within ±`range`.
pub fn three_step_search(
    cur: &ImageU8,
    reference: &ImageU8,
    bx: usize,
    by: usize,
    range: i16,
) -> (MotionVector, u64) {
    let mut best = MotionVector::default();
    let mut best_sad = sad(cur, reference, bx, by, 0, 0);
    let mut step = (range.max(1) as u16).next_power_of_two() as i16 / 2;
    if step == 0 {
        step = 1;
    }
    while step >= 1 {
        let center = best;
        for dy in [-step, 0, step] {
            for dx in [-step, 0, step] {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let cx = center.dx + dx;
                let cy = center.dy + dy;
                if cx.abs() > range || cy.abs() > range {
                    continue;
                }
                let s = sad(cur, reference, bx, by, cx, cy);
                if s < best_sad {
                    best_sad = s;
                    best = MotionVector { dx: cx, dy: cy };
                }
            }
        }
        step /= 2;
    }
    (best, best_sad)
}

/// Writes the motion-compensated prediction of macroblock `(bx, by)` into
/// `pred` (row-major `MB×MB×channels`, clamped sampling at edges).
pub fn compensate(reference: &ImageU8, bx: usize, by: usize, mv: MotionVector, pred: &mut [u8]) {
    let (w, h, c) = (reference.width(), reference.height(), reference.channels());
    debug_assert_eq!(pred.len(), MB * MB * c);
    for my in 0..MB {
        let ry = ((by * MB + my) as i64 + mv.dy as i64).clamp(0, h as i64 - 1) as usize;
        for mx in 0..MB {
            let rx = ((bx * MB + mx) as i64 + mv.dx as i64).clamp(0, w as i64 - 1) as usize;
            for ch in 0..c {
                pred[(my * MB + mx) * c + ch] = reference.at(rx, ry, ch);
            }
        }
    }
}

/// Motion-compensates macroblock `(bx, by)` of `reference` straight into
/// the same macroblock of `out` (same geometry; only the part of the
/// macroblock inside the frame is written). A displaced window that lies
/// inside the frame — nearly all of them — is sixteen row copies; one that
/// crosses an edge samples with [`compensate`]'s clamping, pixel by pixel.
pub fn compensate_into(
    reference: &ImageU8,
    bx: usize,
    by: usize,
    mv: MotionVector,
    out: &mut ImageU8,
) {
    let (w, h, c) = (reference.width(), reference.height(), reference.channels());
    debug_assert_eq!((w, h, c), (out.width(), out.height(), out.channels()));
    let (x0, y0) = (bx * MB, by * MB);
    let (mw, mh) = (MB.min(w - x0), MB.min(h - y0));
    let (sx, sy) = (x0 as i64 + mv.dx as i64, y0 as i64 + mv.dy as i64);
    let stride = w * c;
    let (src, dst) = (reference.data(), out.data_mut());
    if sx >= 0 && sy >= 0 && sx as usize + mw <= w && sy as usize + mh <= h {
        let (sx, sy) = (sx as usize, sy as usize);
        for my in 0..mh {
            let s = (sy + my) * stride + sx * c;
            let d = (y0 + my) * stride + x0 * c;
            dst[d..d + mw * c].copy_from_slice(&src[s..s + mw * c]);
        }
        return;
    }
    for my in 0..mh {
        let ry = (sy + my as i64).clamp(0, h as i64 - 1) as usize;
        for mx in 0..mw {
            let rx = (sx + mx as i64).clamp(0, w as i64 - 1) as usize;
            let s = ry * stride + rx * c;
            let d = (y0 + my) * stride + (x0 + mx) * c;
            dst[d..d + c].copy_from_slice(&src[s..s + c]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A frame with a bright square at (ox, oy).
    fn frame_with_square(ox: usize, oy: usize) -> ImageU8 {
        let mut img = ImageU8::zeros(64, 64, 3);
        for y in 0..64 {
            for x in 0..64 {
                let inside = x >= ox && x < ox + 12 && y >= oy && y < oy + 12;
                let v = if inside { 230 } else { 20 };
                for c in 0..3 {
                    img.set(x, y, c, v);
                }
            }
        }
        img
    }

    #[test]
    fn sad_zero_for_identical_frames() {
        let f = frame_with_square(10, 10);
        assert_eq!(sad(&f, &f, 0, 0, 0, 0), 0);
    }

    #[test]
    fn search_recovers_known_translation() {
        let reference = frame_with_square(16, 16);
        // Square moved +4, +2; the MB at (1,1) covers it, so the MV should
        // point back to the reference.
        let cur = frame_with_square(20, 18);
        let (mv, best) = three_step_search(&cur, &reference, 1, 1, 8);
        let zero = sad(&cur, &reference, 1, 1, 0, 0);
        assert!(best < zero, "search must beat zero MV: {best} vs {zero}");
        assert_eq!((mv.dx, mv.dy), (-4, -2));
    }

    #[test]
    fn compensation_reproduces_static_block() {
        let f = frame_with_square(8, 8);
        let mut pred = vec![0u8; MB * MB * 3];
        compensate(&f, 0, 0, MotionVector::default(), &mut pred);
        for my in 0..MB {
            for mx in 0..MB {
                for c in 0..3 {
                    assert_eq!(pred[(my * MB + mx) * 3 + c], f.at(mx, my, c));
                }
            }
        }
    }

    #[test]
    fn compensation_clamps_at_edges() {
        let f = frame_with_square(0, 0);
        let mut pred = vec![0u8; MB * MB * 3];
        compensate(&f, 0, 0, MotionVector { dx: -8, dy: -8 }, &mut pred);
        // Clamped sampling means top-left pred equals frame's (0,0).
        assert_eq!(pred[0], f.at(0, 0, 0));
    }

    /// Row copies and the clamped walk both reproduce [`compensate`] on
    /// the in-frame part of every macroblock, for vectors that stay
    /// inside, cross each edge, and leave the frame entirely.
    #[test]
    fn compensate_into_matches_compensate() {
        let (w, h) = (41, 35); // partial macroblocks on both edges
        let mut reference = ImageU8::zeros(w, h, 3);
        for (i, v) in reference.data_mut().iter_mut().enumerate() {
            *v = (i * 31 % 251) as u8;
        }
        let mut pred = vec![0u8; MB * MB * 3];
        for by in 0..h.div_ceil(MB) {
            for bx in 0..w.div_ceil(MB) {
                for (dx, dy) in [(0, 0), (3, -2), (-7, 7), (-20, 0), (0, 40), (60, -60)] {
                    let mv = MotionVector { dx, dy };
                    let mut out = ImageU8::zeros(w, h, 3);
                    compensate_into(&reference, bx, by, mv, &mut out);
                    compensate(&reference, bx, by, mv, &mut pred);
                    for y in 0..h {
                        for x in 0..w {
                            let inside = x / MB == bx && y / MB == by;
                            for ch in 0..3 {
                                let want = if inside {
                                    pred[((y % MB) * MB + x % MB) * 3 + ch]
                                } else {
                                    0
                                };
                                assert_eq!(out.at(x, y, ch), want, "mb ({bx},{by}) mv {mv:?}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn search_respects_range() {
        let reference = frame_with_square(0, 0);
        let cur = frame_with_square(40, 40);
        let (mv, _) = three_step_search(&cur, &reference, 2, 2, 4);
        assert!(mv.dx.abs() <= 4 && mv.dy.abs() <= 4);
    }
}
