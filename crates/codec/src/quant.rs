//! Quantization tables and zig-zag coefficient ordering.
//!
//! The base tables are the ITU-T T.81 (JPEG) Annex K luminance/chrominance
//! tables; quality scaling follows the libjpeg convention so that sjpg's
//! `q=75` / `q=95` settings degrade fidelity comparably to JPEG's.
//!
//! Two dequantizers. [`dequantize_zigzag`] is the seed's: a dense scatter of
//! all 64 zig-zag coefficients into raster order, two int→float conversions
//! each; the scalar reference decoders keep it as the oracle. The fast
//! decoders' entropy loop writes natural (raster) order instead, so
//! [`dequantize_corner`] is arithmetic that vectorizes: one multiply by the
//! per-decode `f32` steps ([`dequant_steps`]) per lane, eight lanes per
//! block row, over only the rows of the `n × n` corner an `n`-point
//! reconstruction reads that the block's coded prefix reaches
//! (`prefix_rows`). Both produce the same value at every position the
//! transforms read.

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

/// Rows of a block the first `k` zig-zag coefficients reach: one past the
/// largest raster row among `ZIGZAG[..k]` (0 for `k == 0`). A block whose
/// coded prefix is `k` is zero in every row from here on.
#[inline(always)]
const fn prefix_rows(k: usize) -> usize {
    PREFIX_ROWS[if k < 64 { k } else { 64 }] as usize
}

const PREFIX_ROWS: [u8; 65] = {
    let mut t = [0u8; 65];
    let mut k = 0;
    while k < 64 {
        let row = (ZIGZAG[k] / 8 + 1) as u8;
        t[k + 1] = if row > t[k] { row } else { t[k] };
        k += 1;
    }
    t
};

/// `COLUMN_MASKS[n]`: all ones in the first `n` lanes of a block row, the
/// columns an `n`-point reconstruction reads.
const COLUMN_MASKS: [[i16; BLOCK]; BLOCK + 1] = {
    let mut t = [[0i16; BLOCK]; BLOCK + 1];
    let mut n = 0;
    while n <= BLOCK {
        let mut u = 0;
        while u < n {
            t[n][u] = -1;
            u += 1;
        }
        n += 1;
    }
    t
};

/// A quantization table as the fast decoders multiply by it: `f32` steps in
/// raster order, built once per decode. Zeroed entries are clamped to 1, as
/// in [`dequantize_zigzag`].
pub fn dequant_steps(table: &[u16; 64]) -> [f32; BLOCK * BLOCK] {
    table.map(|q| q.max(1) as f32)
}

/// The fast decoders' dequantizer: multiplies the rows of a *natural-order*
/// block that an `n`-point reconstruction can read by their
/// [`dequant_steps`], eight lanes per row, and returns the mask of rows
/// whose `n × n` corner holds a nonzero coefficient (bit `v` for row `v`).
///
/// `coefs` is in raster order — the entropy decoders write each coefficient
/// at `ZIGZAG[k]` into a zeroed block — and `coded` is its coded zig-zag
/// prefix, so every row from `prefix_rows(coded)` on is zero. The work is
/// chosen from those two inputs: rows `0..min(n, prefix_rows(coded))` are
/// written (row 0 always), which is one 8-lane multiply for a DC-only block
/// and eight for a dense one. Rows past that are left as they were; the
/// returned mask never flags them, and the vectorized transforms read only
/// flagged rows and row 0.
///
/// Each product is exact (an 11-bit coefficient times an 8-bit step fits the
/// `f32` mantissa), so it equals [`dequantize_zigzag`]'s value at the same
/// position. The mask covers the corner only: a row whose nonzero entries all
/// lie right of column `n` contributes only `±0.0` terms to the corner's
/// reconstruction, which the `u8` conversion erases.
#[inline(always)]
pub fn dequantize_corner(
    coefs: &[i16; 64],
    coded: usize,
    steps: &[f32; BLOCK * BLOCK],
    n: usize,
    out: &mut [f32; BLOCK * BLOCK],
) -> u32 {
    let n = n.min(BLOCK);
    let rows = prefix_rows(coded).min(n).max(1);
    let cols = &COLUMN_MASKS[n];
    let mut row_mask = 0u32;
    for v in 0..rows {
        let c = &coefs[v * BLOCK..(v + 1) * BLOCK];
        let s = &steps[v * BLOCK..(v + 1) * BLOCK];
        let o = &mut out[v * BLOCK..(v + 1) * BLOCK];
        let mut any = 0i16;
        for u in 0..BLOCK {
            o[u] = c[u] as f32 * s[u];
            any |= c[u] & cols[u];
        }
        row_mask |= ((any != 0) as u32) << v;
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
    fn prefix_rows_bound_every_coded_prefix() {
        for k in 0..=64 {
            let rows = ZIGZAG[..k].iter().map(|&r| r / 8 + 1).max().unwrap_or(0);
            assert_eq!(prefix_rows(k), rows, "k={k}");
        }
        assert_eq!([0, 1, 2, 3, 25, 64].map(prefix_rows), [0, 1, 1, 2, 7, 8]);
    }

    /// [`dequantize_corner`] on a natural-order block equals the dense
    /// zig-zag dequantizer at every position of every row it flags or
    /// writes, and flags exactly the rows whose `n × n` corner is nonzero —
    /// from a DC-only block to one with all 64 coded.
    #[test]
    fn corner_dequantize_matches_dense_to_the_bit() {
        let table = scale_table(&BASE_LUMA, 80).unwrap();
        let steps = dequant_steps(&table);
        for coded in [0usize, 1, 2, 7, 23, 40, 64] {
            let mut zz = [0i16; 64];
            for (k, c) in zz.iter_mut().enumerate().take(coded) {
                *c = (k as i16 * 13 % 37) - 18;
            }
            let mut natural = [0i16; 64];
            for (k, &c) in zz.iter().enumerate() {
                natural[ZIGZAG[k]] = c;
            }
            let mut dense = [0.0f32; 64];
            dequantize_zigzag(&zz, &table, &mut dense);
            for n in [1usize, 2, 4, 8] {
                let mut out = [f32::NAN; 64];
                let mask = dequantize_corner(&natural, coded, &steps, n, &mut out);
                for v in 0..n {
                    let corner = &natural[v * 8..v * 8 + n];
                    let flagged = mask & (1 << v) != 0;
                    assert_eq!(
                        flagged,
                        corner.iter().any(|&c| c != 0),
                        "{coded} n={n} v={v}"
                    );
                    if flagged || v == 0 {
                        for u in 0..8 {
                            let i = v * 8 + u;
                            assert_eq!(out[i].to_bits(), dense[i].to_bits(), "{coded} n={n} {i}");
                        }
                    }
                }
                assert_eq!(mask >> n, 0, "{coded} n={n}: only corner rows are flagged");
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
