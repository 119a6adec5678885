//! RGB ↔ YCbCr conversion (BT.601 full-range, the JPEG convention).
//!
//! The integer kernels use 16-bit fixed-point arithmetic like libjpeg-turbo's
//! scalar path: coefficients are scaled by 2^16 and rounded, which keeps the
//! conversion exactly reversible to within ±1 code value.

const FIX: i32 = 16;
const HALF: i32 = 1 << (FIX - 1);

// Forward coefficients, scaled by 2^16.
const Y_R: i32 = 19595; // 0.299
const Y_G: i32 = 38470; // 0.587
const Y_B: i32 = 7471; // 0.114
const CB_R: i32 = -11059; // -0.168736
const CB_G: i32 = -21709; // -0.331264
const CB_B: i32 = 32768; // 0.5
const CR_R: i32 = 32768; // 0.5
const CR_G: i32 = -27439; // -0.418688
const CR_B: i32 = -5329; // -0.081312

// Inverse coefficients, scaled by 2^16.
const R_CR: i32 = 91881; // 1.402
const G_CB: i32 = -22554; // -0.344136
const G_CR: i32 = -46802; // -0.714136
const B_CB: i32 = 116130; // 1.772

#[inline(always)]
fn clamp_u8(v: i32) -> u8 {
    v.clamp(0, 255) as u8
}

/// Converts one RGB pixel to YCbCr.
#[inline]
pub fn rgb_pixel_to_ycbcr(r: u8, g: u8, b: u8) -> (u8, u8, u8) {
    let (r, g, b) = (r as i32, g as i32, b as i32);
    let y = (Y_R * r + Y_G * g + Y_B * b + HALF) >> FIX;
    let cb = ((CB_R * r + CB_G * g + CB_B * b + HALF) >> FIX) + 128;
    let cr = ((CR_R * r + CR_G * g + CR_B * b + HALF) >> FIX) + 128;
    (clamp_u8(y), clamp_u8(cb), clamp_u8(cr))
}

/// Converts one YCbCr pixel to RGB. Always inlined: [`ycbcr_row_to_rgb`]'s
/// loop body is this function.
#[inline(always)]
pub fn ycbcr_pixel_to_rgb(y: u8, cb: u8, cr: u8) -> (u8, u8, u8) {
    let y = y as i32;
    let cb = cb as i32 - 128;
    let cr = cr as i32 - 128;
    let r = y + ((R_CR * cr + HALF) >> FIX);
    let g = y + ((G_CB * cb + G_CR * cr + HALF) >> FIX);
    let b = y + ((B_CB * cb + HALF) >> FIX);
    (clamp_u8(r), clamp_u8(g), clamp_u8(b))
}

/// Converts a planar row of YCbCr samples to interleaved RGB.
///
/// This is the batched form of [`ycbcr_pixel_to_rgb`] used by the decode hot
/// path: the three input planes are contiguous, the per-pixel body is
/// branch-free integer fixed-point, and the loop carries no cross-pixel
/// state, so the autovectorizer lifts it to SIMD — 4 `i32` lanes on the
/// baseline target, 8 inside a [`crate::tier`] AVX2 kernel (always inlined,
/// so it compiles for the tier of the kernel that calls it). Its loop body
/// *is* the pixel kernel, so it is bit-identical to calling that per sample.
///
/// `rgb` must hold exactly `3 * y.len()` bytes; `cb`/`cr` must match `y` in
/// length.
#[inline(always)]
pub fn ycbcr_row_to_rgb(y: &[u8], cb: &[u8], cr: &[u8], rgb: &mut [u8]) {
    debug_assert_eq!(y.len(), cb.len());
    debug_assert_eq!(y.len(), cr.len());
    debug_assert_eq!(rgb.len(), 3 * y.len());
    // Two passes per chunk: one planar pass loads and widens each of Y, Cb
    // and Cr once and computes R, G and B together (contiguous u8 loads and
    // stores per channel, so the autovectorizer lifts the multiply/clamp
    // lanes), then a cheap interleave. Interleaved 3-byte strides in the
    // math loop itself defeat vectorization entirely.
    const CHUNK: usize = 128;
    let mut rbuf = [0u8; CHUNK];
    let mut gbuf = [0u8; CHUNK];
    let mut bbuf = [0u8; CHUNK];
    let rows = y.chunks(CHUNK).zip(cb.chunks(CHUNK)).zip(cr.chunks(CHUNK));
    for (((y, cb), cr), rgb) in rows.zip(rgb.chunks_mut(3 * CHUNK)) {
        let n = y.len();
        let (cb, cr) = (&cb[..n], &cr[..n]);
        let (r, g, b) = (&mut rbuf[..n], &mut gbuf[..n], &mut bbuf[..n]);
        for i in 0..n {
            (r[i], g[i], b[i]) = ycbcr_pixel_to_rgb(y[i], cb[i], cr[i]);
        }
        for (i, out) in rgb[..3 * n].chunks_exact_mut(3).enumerate() {
            out[0] = r[i];
            out[1] = g[i];
            out[2] = b[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primaries_map_to_expected_luma() {
        let (y, _, _) = rgb_pixel_to_ycbcr(255, 255, 255);
        assert_eq!(y, 255);
        let (y, cb, cr) = rgb_pixel_to_ycbcr(0, 0, 0);
        assert_eq!((y, cb, cr), (0, 128, 128));
        // Pure red: Y ≈ 76.
        let (y, _, cr) = rgb_pixel_to_ycbcr(255, 0, 0);
        assert!((y as i32 - 76).abs() <= 1, "y={y}");
        assert!(cr > 200);
    }

    #[test]
    fn roundtrip_within_one_code_value() {
        // Exhaustive over a coarse RGB lattice.
        for r in (0..=255u16).step_by(17) {
            for g in (0..=255u16).step_by(17) {
                for b in (0..=255u16).step_by(17) {
                    let (y, cb, cr) = rgb_pixel_to_ycbcr(r as u8, g as u8, b as u8);
                    let (r2, g2, b2) = ycbcr_pixel_to_rgb(y, cb, cr);
                    assert!((r as i32 - r2 as i32).abs() <= 2, "r {r} -> {r2}");
                    assert!((g as i32 - g2 as i32).abs() <= 2, "g {g} -> {g2}");
                    assert!((b as i32 - b2 as i32).abs() <= 2, "b {b} -> {b2}");
                }
            }
        }
    }

    /// [`ycbcr_row_to_rgb`] over planes cut into rows of the given lengths
    /// (cycled), as one tier kernel.
    struct Rows<'a> {
        planes: [&'a [u8]; 3],
        rgb: &'a mut [u8],
        lens: &'a [usize],
    }

    impl crate::tier::Kernel for Rows<'_> {
        type Output = ();

        #[inline(always)]
        fn run(self) {
            let [y, cb, cr] = self.planes;
            let (mut x, mut lens) = (0, self.lens.iter().cycle());
            while x < y.len() {
                let n = (*lens.next().expect("cycled")).min(y.len() - x);
                let rgb = &mut self.rgb[3 * x..3 * (x + n)];
                ycbcr_row_to_rgb(&y[x..x + n], &cb[x..x + n], &cr[x..x + n], rgb);
                x += n;
            }
        }
    }

    #[test]
    fn row_kernel_is_bit_identical_to_pixel_kernel_on_every_input() {
        use crate::tier::Tier;
        // All 2^24 (Y, Cb, Cr) triples, one Y value at a time, in rows
        // whose lengths are multiples of neither a lane width nor CHUNK.
        let lens = [67, 1, 131, 7, 300, 13, 255, 129];
        let cb: Vec<u8> = (0..1usize << 16).map(|i| (i >> 8) as u8).collect();
        let cr: Vec<u8> = (0..1usize << 16).map(|i| i as u8).collect();
        let mut rgb = vec![0u8; 3 << 16];
        for yv in 0..=255u8 {
            let y = vec![yv; 1 << 16];
            let want: Vec<u8> = cb
                .iter()
                .zip(&cr)
                .flat_map(|(&b, &r)| {
                    let (r, g, b) = ycbcr_pixel_to_rgb(yv, b, r);
                    [r, g, b]
                })
                .collect();
            for tier in [Some(Tier::BASELINE), Tier::avx2()].into_iter().flatten() {
                rgb.fill(0);
                tier.run(Rows {
                    planes: [&y, &cb, &cr],
                    rgb: &mut rgb,
                    lens: &lens,
                });
                assert!(rgb == want, "y={yv} under {}", tier.name());
            }
        }
    }
}
