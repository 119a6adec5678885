//! Quantization tables and zig-zag coefficient ordering.
//!
//! The base tables are the ITU-T T.81 (JPEG) Annex K luminance/chrominance
//! tables; quality scaling follows the libjpeg convention so that sjpg's
//! `q=75` / `q=95` settings degrade fidelity comparably to JPEG's.

use crate::dct::BLOCK;
use crate::error::{Error, Result};

/// Annex K.1 luminance quantization table (raster order).
pub const BASE_LUMA: [u16; 64] = [
    16, 11, 10, 16, 24, 40, 51, 61, //
    12, 12, 14, 19, 26, 58, 60, 55, //
    14, 13, 16, 24, 40, 57, 69, 56, //
    14, 17, 22, 29, 51, 87, 80, 62, //
    18, 22, 37, 56, 68, 109, 103, 77, //
    24, 35, 55, 64, 81, 104, 113, 92, //
    49, 64, 78, 87, 103, 121, 120, 101, //
    72, 92, 95, 98, 112, 100, 103, 99,
];

/// Annex K.2 chrominance quantization table (raster order).
pub const BASE_CHROMA: [u16; 64] = [
    17, 18, 24, 47, 99, 99, 99, 99, //
    18, 21, 26, 66, 99, 99, 99, 99, //
    24, 26, 56, 99, 99, 99, 99, 99, //
    47, 66, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99,
];

/// Scales a base table for a quality setting in 1..=100 (libjpeg rule).
pub fn scale_table(base: &[u16; 64], quality: u8) -> Result<[u16; 64]> {
    if quality == 0 || quality > 100 {
        return Err(Error::BadQuality(quality));
    }
    let q = quality as i32;
    let scale = if q < 50 { 5000 / q } else { 200 - q * 2 };
    let mut out = [0u16; 64];
    for (o, &b) in out.iter_mut().zip(base.iter()) {
        let v = (b as i32 * scale + 50) / 100;
        *o = v.clamp(1, 255) as u16;
    }
    Ok(out)
}

/// Zig-zag scan order: `ZIGZAG[k]` is the raster index of the k-th
/// coefficient in zig-zag order.
pub const ZIGZAG: [usize; 64] = [
    0, 1, 8, 16, 9, 2, 3, 10, //
    17, 24, 32, 25, 18, 11, 4, 5, //
    12, 19, 26, 33, 40, 48, 41, 34, //
    27, 20, 13, 6, 7, 14, 21, 28, //
    35, 42, 49, 56, 57, 50, 43, 36, //
    29, 22, 15, 23, 30, 37, 44, 51, //
    58, 59, 52, 45, 38, 31, 39, 46, //
    53, 60, 61, 54, 47, 55, 62, 63,
];

/// Length of the shortest zig-zag prefix that covers the top-left `n × n`
/// corner of a block — all an `n`-point scaled inverse transform reads.
/// `n` is 1, 2, 4 or 8 (anything else is treated as the whole block).
#[inline]
pub const fn zigzag_prefix_for(n: usize) -> usize {
    match n {
        1 => 1,
        2 => 5,
        4 => 25,
        _ => 64,
    }
}

/// Quantizes a frequency-domain block into zig-zag-ordered integers.
///
/// Degenerate table entries are clamped to 1 (a zeroed entry would divide
/// to infinity and saturate the cast into garbage); [`scale_table`] never
/// produces one, but a hand-built or corrupted table must not be able to
/// poison the coefficients. The same clamp is applied at dequantize so
/// encode and decode stay consistent.
pub fn quantize_zigzag(freq: &[f32; BLOCK * BLOCK], table: &[u16; 64], out: &mut [i16; 64]) {
    for (k, &raster) in ZIGZAG.iter().enumerate() {
        let q = table[raster].max(1) as f32;
        out[k] = (freq[raster] / q).round() as i16;
    }
}

/// Dequantizes zig-zag coefficients back into a raster frequency block.
///
/// Zeroed table entries are clamped to 1, mirroring [`quantize_zigzag`].
pub fn dequantize_zigzag(coefs: &[i16; 64], table: &[u16; 64], out: &mut [f32; BLOCK * BLOCK]) {
    for (k, &raster) in ZIGZAG.iter().enumerate() {
        out[raster] = coefs[k] as f32 * table[raster].max(1) as f32;
    }
}

/// [`dequantize_zigzag`] over only the first `n` zig-zag coefficients,
/// with the rest of the block zero-filled. Bit-identical to the dense
/// version when `coefs[n..]` are all zero (a zero coefficient dequantizes
/// to exactly `+0.0` — `0.0 × q` with `q ≥ 1` — which is what the fill
/// writes), but skips the multiplies past the block's last coded
/// coefficient, which quantization makes the vast majority.
///
/// Returns a bitmask of spectrum rows (bit `v` for raster row `v`) that
/// received a nonzero coefficient — exact, since `coef ≠ 0` and `q ≥ 1`
/// imply a nonzero product. The vectorized IDCT uses it to skip all-zero
/// rows without rescanning the block.
pub fn dequantize_zigzag_prefix(
    coefs: &[i16; 64],
    n: usize,
    table: &[u16; 64],
    out: &mut [f32; BLOCK * BLOCK],
) -> u32 {
    out.fill(0.0);
    let mut row_mask = 0u32;
    for (k, &raster) in ZIGZAG.iter().enumerate().take(n) {
        let c = coefs[k];
        // Unconditional store (a zero coefficient rewrites the fill's
        // `+0.0` with `0.0 × q == +0.0`) and branchless mask update: zero
        // runs inside the prefix are common enough to mispredict.
        out[raster] = c as f32 * table[raster].max(1) as f32;
        row_mask |= ((c != 0) as u32) << (raster >> 3);
    }
    row_mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_is_a_permutation() {
        let mut seen = [false; 64];
        for &i in &ZIGZAG {
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Spot-check the canonical start of the pattern.
        assert_eq!(&ZIGZAG[..6], &[0, 1, 8, 16, 9, 2]);
    }

    #[test]
    fn zigzag_prefixes_cover_exactly_the_scaled_corners() {
        for n in [1usize, 2, 4, 8] {
            // Derived from the scan order: one past the last zig-zag index
            // that falls inside the n × n corner.
            let last = (0..64)
                .filter(|&k| ZIGZAG[k] / 8 < n && ZIGZAG[k] % 8 < n)
                .max()
                .unwrap();
            assert_eq!(zigzag_prefix_for(n), last + 1, "n={n}");
        }
        assert_eq!([1, 2, 4, 8].map(zigzag_prefix_for), [1, 5, 25, 64]);
    }

    #[test]
    fn quality_scaling_monotone() {
        let q95 = scale_table(&BASE_LUMA, 95).unwrap();
        let q75 = scale_table(&BASE_LUMA, 75).unwrap();
        let q20 = scale_table(&BASE_LUMA, 20).unwrap();
        for i in 0..64 {
            assert!(q95[i] <= q75[i]);
            assert!(q75[i] <= q20[i]);
            assert!(q95[i] >= 1);
        }
    }

    #[test]
    fn quality_100_is_near_lossless() {
        let t = scale_table(&BASE_LUMA, 100).unwrap();
        assert!(t.iter().all(|&v| v == 1));
    }

    #[test]
    fn bad_quality_rejected() {
        assert!(scale_table(&BASE_LUMA, 0).is_err());
        assert!(scale_table(&BASE_LUMA, 101).is_err());
    }

    #[test]
    fn degenerate_table_entries_clamped_not_poisonous() {
        // A zeroed table must behave like an all-ones table (near-lossless),
        // not divide to infinity and saturate the i16 cast.
        let zeroed = [0u16; 64];
        let ones = [1u16; 64];
        let mut freq = [0.0f32; 64];
        for (i, v) in freq.iter_mut().enumerate() {
            *v = (i as f32) * 3.5 - 80.0;
        }
        let mut from_zeroed = [0i16; 64];
        let mut from_ones = [0i16; 64];
        quantize_zigzag(&freq, &zeroed, &mut from_zeroed);
        quantize_zigzag(&freq, &ones, &mut from_ones);
        assert_eq!(from_zeroed, from_ones);
        let mut back_zeroed = [0.0f32; 64];
        let mut back_ones = [0.0f32; 64];
        dequantize_zigzag(&from_zeroed, &zeroed, &mut back_zeroed);
        dequantize_zigzag(&from_ones, &ones, &mut back_ones);
        assert_eq!(back_zeroed, back_ones);
    }

    #[test]
    fn prefix_dequantize_matches_dense_to_the_bit() {
        let table = scale_table(&BASE_LUMA, 80).unwrap();
        for n in [0usize, 1, 7, 23, 64] {
            let mut coefs = [0i16; 64];
            for (k, c) in coefs.iter_mut().enumerate().take(n) {
                *c = (k as i16 * 13 % 37) - 18;
            }
            let mut dense = [0.0f32; 64];
            let mut prefix = [0.0f32; 64];
            dequantize_zigzag(&coefs, &table, &mut dense);
            let mask = dequantize_zigzag_prefix(&coefs, n, &table, &mut prefix);
            for i in 0..64 {
                assert_eq!(dense[i].to_bits(), prefix[i].to_bits(), "n={n} i={i}");
            }
            // The returned mask flags exactly the rows holding a nonzero.
            for v in 0..8 {
                let has = prefix[v * 8..(v + 1) * 8].iter().any(|&x| x != 0.0);
                assert_eq!(mask & (1 << v) != 0, has, "n={n} row={v}");
            }
        }
    }

    #[test]
    fn quantize_dequantize_bounded_error() {
        let table = scale_table(&BASE_LUMA, 75).unwrap();
        let mut freq = [0.0f32; 64];
        for (i, v) in freq.iter_mut().enumerate() {
            *v = ((i as f32) - 32.0) * 7.3;
        }
        let mut coefs = [0i16; 64];
        quantize_zigzag(&freq, &table, &mut coefs);
        let mut back = [0.0f32; 64];
        dequantize_zigzag(&coefs, &table, &mut back);
        for i in 0..64 {
            let qi = table[i] as f32;
            assert!((freq[i] - back[i]).abs() <= qi / 2.0 + 1e-3, "i={i}");
        }
    }
}
