//! 8×8 forward and inverse DCT-II (separable, precomputed basis), plus the
//! scaled inverse transforms used for reduced-resolution decoding.
//!
//! The IDCT is the compute-heavy, vectorizable part of block decoding —
//! the counterpart to entropy decoding's branchy sequential cost (§6.4).
//! The scaled variants ([`inverse_dct_scaled`]) take only the top-left
//! `n × n` frequency coefficients of an 8×8 block and reconstruct an
//! `n × n` spatial patch directly — the multi-resolution decoding feature
//! of Table 4, which fuses a `1/f` downsample into the transform itself
//! (`2n³` multiply-adds instead of the full transform's `2·8³`).
//!
//! The vectorized transforms ([`inverse_dct_vec_masked`],
//! [`inverse_dct_scaled_vec_masked`]) accumulate one 8-lane row of `f32` at a
//! time. On the build's baseline x86-64 target (SSE2) that row is two 4-lane
//! registers; compiled into a `smol_imgproc::tier` AVX2 kernel it is one
//! 8-lane register. They are `#[inline(always)]`, so they compile for the
//! tier of whatever kernel inlines them: the sjpg block loop and P-frame
//! reconstruction run them under the widest tier the CPU has, and a direct
//! call from ordinary code (a bench timing the transform alone) runs the
//! baseline tier. No tier enables FMA, so every tier computes the same bits.
//!
//! Where they skip work, they skip it per block, never per coefficient. The
//! column pass skips the spectrum rows the dequantizer's row mask leaves
//! out: one branch per row, taken the same way for all eight output rows of
//! a block, so it predicts well, and it saves most of the pass on the short
//! coded prefixes of low-quality blocks. The row pass is dense: at q95 a
//! luma block dequantizes 61.7 of its 64 coefficients on average, so nearly
//! every intermediate is nonzero and a per-term zero test is an
//! unpredictable branch that skips almost nothing. Dropping a zero term can
//! change only the sign of a zero partial sum, and the u8 conversion erases
//! it; adding one does the same, so both passes stay equal to the scalar
//! kernels at the pixel boundary.

/// Block edge length used throughout the codec.
pub const BLOCK: usize = 8;

/// Multiply-accumulate count of one full separable 8×8 IDCT
/// (`2 · 8³`); the unit in which skipped transform work is reported.
pub const FULL_IDCT_MACS: u64 = 2 * (BLOCK * BLOCK * BLOCK) as u64;

/// Multiply-accumulate count of one scaled `n × n` inverse transform
/// (`2n³`; both separable passes).
pub const fn scaled_idct_macs(n: usize) -> u64 {
    2 * (n * n * n) as u64
}

/// Precomputed `cos((2x+1)uπ/16) * scale(u)` basis, row-major `[u][x]`.
fn basis() -> &'static [[f32; BLOCK]; BLOCK] {
    use std::sync::OnceLock;
    static BASIS: OnceLock<[[f32; BLOCK]; BLOCK]> = OnceLock::new();
    BASIS.get_or_init(|| {
        let mut b = [[0.0f32; BLOCK]; BLOCK];
        for (u, row) in b.iter_mut().enumerate() {
            let scale = if u == 0 {
                (1.0f64 / BLOCK as f64).sqrt()
            } else {
                (2.0f64 / BLOCK as f64).sqrt()
            };
            for (x, v) in row.iter_mut().enumerate() {
                *v = (scale
                    * ((2.0 * x as f64 + 1.0) * u as f64 * std::f64::consts::PI
                        / (2.0 * BLOCK as f64))
                        .cos()) as f32;
            }
        }
        b
    })
}

/// Forward 8×8 DCT-II of a level-shifted block (`input` in [-128, 127]).
pub fn forward_dct(input: &[f32; BLOCK * BLOCK], output: &mut [f32; BLOCK * BLOCK]) {
    let b = basis();
    // Rows then columns (separable).
    let mut tmp = [0.0f32; BLOCK * BLOCK];
    for y in 0..BLOCK {
        for (u, bu) in b.iter().enumerate() {
            let mut acc = 0.0;
            for (x, &bux) in bu.iter().enumerate() {
                acc += input[y * BLOCK + x] * bux;
            }
            tmp[y * BLOCK + u] = acc;
        }
    }
    for u in 0..BLOCK {
        for (v, bv) in b.iter().enumerate() {
            let mut acc = 0.0;
            for (y, &bvy) in bv.iter().enumerate() {
                acc += tmp[y * BLOCK + u] * bvy;
            }
            output[v * BLOCK + u] = acc;
        }
    }
}

/// Inverse 8×8 DCT (DCT-III), producing a level-shifted block.
pub fn inverse_dct(input: &[f32; BLOCK * BLOCK], output: &mut [f32; BLOCK * BLOCK]) {
    let b = basis();
    let mut tmp = [0.0f32; BLOCK * BLOCK];
    // Columns first: tmp[y][u] = sum_v input[v][u] * basis[v][y]
    for u in 0..BLOCK {
        for y in 0..BLOCK {
            let mut acc = 0.0;
            for (v, bv) in b.iter().enumerate() {
                acc += input[v * BLOCK + u] * bv[y];
            }
            tmp[y * BLOCK + u] = acc;
        }
    }
    // Rows: out[y][x] = sum_u tmp[y][u] * basis[u][x]
    for y in 0..BLOCK {
        for x in 0..BLOCK {
            let mut acc = 0.0;
            for (u, bu) in b.iter().enumerate() {
                acc += tmp[y * BLOCK + u] * bu[x];
            }
            output[y * BLOCK + x] = acc;
        }
    }
}

/// Precomputed scaled inverse basis for an `n`-point reconstruction of an
/// 8-point DCT spectrum, padded into an 8×8 array (only `[u][x]` with
/// `u, x < n` are used).
///
/// `B_n[u][x] = sqrt(n/8) · s_n(u) · cos((2x+1)uπ/(2n))` — the `sqrt(n/8)`
/// factor rescales 8-point coefficients to the n-point normalization so a
/// constant block reconstructs to the same level (JPEG's standard
/// scaled-IDCT downsampling).
fn scaled_basis(n: usize) -> &'static [[f32; BLOCK]; BLOCK] {
    use std::sync::OnceLock;
    static BASES: [OnceLock<[[f32; BLOCK]; BLOCK]>; 4] = [
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
    ];
    let slot = match n {
        1 => 0,
        2 => 1,
        4 => 2,
        8 => 3,
        _ => panic!("scaled basis only defined for n in {{1, 2, 4, 8}}, got {n}"),
    };
    BASES[slot].get_or_init(|| {
        let mut b = [[0.0f32; BLOCK]; BLOCK];
        let rescale = (n as f64 / BLOCK as f64).sqrt();
        for (u, row) in b.iter_mut().enumerate().take(n) {
            let scale = if u == 0 {
                (1.0f64 / n as f64).sqrt()
            } else {
                (2.0f64 / n as f64).sqrt()
            };
            for (x, v) in row.iter_mut().enumerate().take(n) {
                *v = (rescale
                    * scale
                    * ((2.0 * x as f64 + 1.0) * u as f64 * std::f64::consts::PI / (2.0 * n as f64))
                        .cos()) as f32;
            }
        }
        b
    })
}

/// Vectorized inverse 8×8 DCT: the same transform as [`inverse_dct`], with
/// the loops restructured into array-of-lanes form so the inner dimension is
/// a contiguous 8-wide accumulator the autovectorizer lifts to SIMD (two
/// 4-lane SSE2 registers on the baseline target, one AVX2 register inside
/// an AVX2-tier kernel; see the module docs), and the all-zero rows of the
/// spectrum skipped in the column pass.
///
/// Equal to [`inverse_dct`] at the pixel boundary: each output lane
/// accumulates the same f32 terms in the same order as the scalar kernel
/// (the reordering moves the *lane* loop innermost, not the reduction), and
/// no fused multiply-add is introduced. Skipping a zero term can only
/// change the *sign* of a zero partial sum (`x + ±0.0 == x` for every
/// nonzero `x`, and `+0.0 + -0.0 == +0.0`), and ±0.0 are erased by the
/// u8 conversion downstream. The scalar kernel stays as the reference
/// oracle; the workspace proptests assert exact output equality.
pub fn inverse_dct_vec(input: &[f32; BLOCK * BLOCK], output: &mut [f32; BLOCK * BLOCK]) {
    // One bit per spectrum row that has any nonzero coefficient.
    let mut row_mask = 0u32;
    for v in 0..BLOCK {
        if input[v * BLOCK..(v + 1) * BLOCK].iter().any(|&c| c != 0.0) {
            row_mask |= 1 << v;
        }
    }
    inverse_dct_vec_masked(input, row_mask, output);
}

/// [`inverse_dct_vec`] with the nonzero-row mask supplied by the caller
/// (the block decoder gets it for free out of dequantization). The mask
/// may over-approximate — including an all-zero row only adds `±0.0`
/// terms, which the u8 conversion erases — but must cover every row with
/// a nonzero coefficient. Only row 0 and the flagged rows are read.
///
/// The mask is the only skip: the column pass runs the flagged rows, and
/// the row pass accumulates all eight terms of every output row without
/// testing any of them (see the module docs for why a per-coefficient test
/// does not pay).
#[inline(always)]
pub fn inverse_dct_vec_masked(
    input: &[f32; BLOCK * BLOCK],
    row_mask: u32,
    output: &mut [f32; BLOCK * BLOCK],
) {
    let b = basis();
    // DC-only block (the most common case after quantization): both
    // separable passes collapse to one constant — `basis[0]` is flat, so
    // `out[y][x] = (input[0]·b₀)·b₀` everywhere, the exact two multiplies
    // the generic passes would perform.
    if row_mask <= 1 && input[1..BLOCK].iter().all(|&c| c == 0.0) {
        let o = (input[0] * b[0][0]) * b[0][0];
        output.fill(o);
        return;
    }
    let mut tmp = [0.0f32; BLOCK * BLOCK];
    // Columns first: tmp[y][u] = sum_v input[v][u] * basis[v][y].
    // All 8 u-lanes of a given y accumulate in lockstep over v.
    for y in 0..BLOCK {
        let mut acc = [0.0f32; BLOCK];
        for (v, bv) in b.iter().enumerate() {
            if row_mask & (1 << v) == 0 {
                continue;
            }
            let bvy = bv[y];
            let row = &input[v * BLOCK..(v + 1) * BLOCK];
            for u in 0..BLOCK {
                acc[u] += row[u] * bvy;
            }
        }
        tmp[y * BLOCK..(y + 1) * BLOCK].copy_from_slice(&acc);
    }
    // Rows: out[y][x] = sum_u tmp[y][u] * basis[u][x], every term.
    // All 8 x-lanes of a given y accumulate in lockstep over u.
    for (trow, orow) in tmp.chunks_exact(BLOCK).zip(output.chunks_exact_mut(BLOCK)) {
        let mut acc = [0.0f32; BLOCK];
        for (&t, bu) in trow.iter().zip(b) {
            for x in 0..BLOCK {
                acc[x] += t * bu[x];
            }
        }
        orow.copy_from_slice(&acc);
    }
}

/// Scaled inverse DCT: reconstructs an `n × n` level-shifted patch from the
/// top-left `n × n` coefficients of an 8×8 spectrum (`input` in natural
/// raster order). `n` must be 1, 2, 4, or 8; `output[..n*n]` is written
/// row-major. The result approximates a box-downsample of the full IDCT by
/// `8/n` in each axis, computed with `2n³` MACs instead of `2·8³`.
pub fn inverse_dct_scaled(input: &[f32; BLOCK * BLOCK], n: usize, output: &mut [f32]) {
    if n == BLOCK {
        let mut full = [0.0f32; BLOCK * BLOCK];
        inverse_dct(input, &mut full);
        output[..BLOCK * BLOCK].copy_from_slice(&full);
        return;
    }
    let b = scaled_basis(n);
    debug_assert!(output.len() >= n * n);
    // Columns first: tmp[y][u] = sum_{v<n} input[v][u] * basis[v][y]
    let mut tmp = [0.0f32; BLOCK * BLOCK];
    for u in 0..n {
        for y in 0..n {
            let mut acc = 0.0;
            for (v, bv) in b.iter().enumerate().take(n) {
                acc += input[v * BLOCK + u] * bv[y];
            }
            tmp[y * n + u] = acc;
        }
    }
    // Rows: out[y][x] = sum_{u<n} tmp[y][u] * basis[u][x]
    for y in 0..n {
        for x in 0..n {
            let mut acc = 0.0;
            for (u, bu) in b.iter().enumerate().take(n) {
                acc += tmp[y * n + u] * bu[x];
            }
            output[y * n + x] = acc;
        }
    }
}

/// Vectorized scaled inverse DCT: [`inverse_dct_scaled`] in array-of-lanes
/// form (lane loop innermost, reduction order unchanged), with the same
/// zero-row skipping as [`inverse_dct_vec`] — equal to the scalar kernel
/// at the pixel boundary (±0.0 sign differences only). `n == 8` delegates
/// to [`inverse_dct_vec`].
pub fn inverse_dct_scaled_vec(input: &[f32; BLOCK * BLOCK], n: usize, output: &mut [f32]) {
    let mut row_mask = 0u32;
    for v in 0..n {
        if input[v * BLOCK..v * BLOCK + n].iter().any(|&c| c != 0.0) {
            row_mask |= 1 << v;
        }
    }
    inverse_dct_scaled_vec_masked(input, n, row_mask, output);
}

/// [`inverse_dct_scaled_vec`] with a caller-supplied nonzero-row mask, as
/// in [`inverse_dct_vec_masked`]. A mask over the *full* 8-wide rows is a
/// valid over-approximation here: a flagged row whose leading `n` columns
/// are all zero contributes only `±0.0` terms. Only the leading `n` entries
/// of row 0 and of the flagged rows are read.
#[inline(always)]
pub fn inverse_dct_scaled_vec_masked(
    input: &[f32; BLOCK * BLOCK],
    n: usize,
    row_mask: u32,
    output: &mut [f32],
) {
    // One copy per size, so every loop bound and slice length is a
    // constant: a runtime-`n` row store compiles to a `memcpy` call.
    match n {
        1 => scaled_idct_n::<1>(input, row_mask, output),
        2 => scaled_idct_n::<2>(input, row_mask, output),
        4 => scaled_idct_n::<4>(input, row_mask, output),
        BLOCK => {
            let full: &mut [f32; BLOCK * BLOCK] = (&mut output[..BLOCK * BLOCK])
                .try_into()
                .expect("a 64-sample slice is an 8×8 block");
            inverse_dct_vec_masked(input, row_mask, full);
        }
        _ => panic!("scaled IDCT only defined for n in {{1, 2, 4, 8}}, got {n}"),
    }
}

/// [`inverse_dct_scaled_vec_masked`] at `N < 8` points.
#[inline(always)]
fn scaled_idct_n<const N: usize>(input: &[f32; BLOCK * BLOCK], row_mask: u32, output: &mut [f32]) {
    let n = N;
    let output = &mut output[..N * N];
    // Rows ≥ n are never read by an n-point reconstruction — drop their
    // bits so a busy high-frequency half can't defeat the DC shortcut.
    let row_mask = row_mask & ((1 << n) - 1);
    let b = scaled_basis(n);
    // DC-only shortcut, as in [`inverse_dct_vec`] (`scaled_basis` row 0 is
    // flat too: `cos((2x+1)·0·π/2n)` is 1 for every `x`).
    if row_mask <= 1 && input[1..n.max(1)].iter().all(|&c| c == 0.0) {
        let o = (input[0] * b[0][0]) * b[0][0];
        output.fill(o);
        return;
    }
    // Both passes run full 8-lane rows, as in [`inverse_dct_vec_masked`].
    // Lanes past `n` compute values nobody reads: the row pass takes only
    // the first `n` lanes of `tmp`, and its own lanes past `n` multiply the
    // basis's zero padding. Each lane below `n` accumulates exactly the
    // terms of an n-wide loop, in the same order.
    // Columns first: tmp[y][u] = sum_{v<n} input[v][u] * basis[v][y]
    let mut tmp = [[0.0f32; BLOCK]; N];
    for (y, trow) in tmp.iter_mut().enumerate() {
        let mut acc = [0.0f32; BLOCK];
        for (v, bv) in b.iter().enumerate().take(n) {
            if row_mask & (1 << v) == 0 {
                continue;
            }
            let bvy = bv[y];
            let row = &input[v * BLOCK..(v + 1) * BLOCK];
            for u in 0..BLOCK {
                acc[u] += row[u] * bvy;
            }
        }
        *trow = acc;
    }
    // Rows: out[y][x] = sum_{u<n} tmp[y][u] * basis[u][x], every term.
    for (y, trow) in tmp.iter().enumerate() {
        let mut acc = [0.0f32; BLOCK];
        for (&t, bu) in trow.iter().zip(b).take(n) {
            for x in 0..BLOCK {
                acc[x] += t * bu[x];
            }
        }
        output[y * n..y * n + n].copy_from_slice(&acc[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dct_of_constant_block_is_dc_only() {
        let input = [64.0f32; BLOCK * BLOCK];
        let mut out = [0.0f32; BLOCK * BLOCK];
        forward_dct(&input, &mut out);
        // DC = 64 * 8 (sum * 1/sqrt(8) per axis → 64*8).
        assert!((out[0] - 64.0 * 8.0).abs() < 1e-3, "dc={}", out[0]);
        for (i, &v) in out.iter().enumerate().skip(1) {
            assert!(v.abs() < 1e-3, "ac[{i}]={v}");
        }
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let mut input = [0.0f32; BLOCK * BLOCK];
        for (i, v) in input.iter_mut().enumerate() {
            *v = ((i * 37 % 255) as f32) - 128.0;
        }
        let mut freq = [0.0f32; BLOCK * BLOCK];
        let mut back = [0.0f32; BLOCK * BLOCK];
        forward_dct(&input, &mut freq);
        inverse_dct(&freq, &mut back);
        for i in 0..BLOCK * BLOCK {
            assert!((input[i] - back[i]).abs() < 1e-2, "i={i}");
        }
    }

    #[test]
    fn scaled_idct_of_constant_block_preserves_level() {
        let input = [73.0f32; BLOCK * BLOCK];
        let mut freq = [0.0f32; BLOCK * BLOCK];
        forward_dct(&input, &mut freq);
        for n in [1usize, 2, 4, 8] {
            let mut out = [0.0f32; BLOCK * BLOCK];
            inverse_dct_scaled(&freq, n, &mut out);
            for (i, &v) in out[..n * n].iter().enumerate() {
                assert!((v - 73.0).abs() < 1e-3, "n={n} i={i} v={v}");
            }
        }
    }

    #[test]
    fn scaled_idct_matches_box_downsample_for_smooth_block() {
        // A block with only low-frequency content: truncating to the
        // top-left n×n coefficients loses nothing, so the scaled IDCT must
        // closely match the box-downsampled full reconstruction.
        let mut freq = [0.0f32; BLOCK * BLOCK];
        freq[0] = 400.0; // DC
        freq[1] = 60.0; // one horizontal cycle
        freq[BLOCK] = -45.0; // one vertical cycle
        let mut full = [0.0f32; BLOCK * BLOCK];
        inverse_dct(&freq, &mut full);
        for n in [2usize, 4] {
            let f = BLOCK / n;
            let mut out = [0.0f32; BLOCK * BLOCK];
            inverse_dct_scaled(&freq, n, &mut out);
            for y in 0..n {
                for x in 0..n {
                    let mut acc = 0.0f32;
                    for dy in 0..f {
                        for dx in 0..f {
                            acc += full[(y * f + dy) * BLOCK + (x * f + dx)];
                        }
                    }
                    let boxed = acc / (f * f) as f32;
                    let got = out[y * n + x];
                    assert!(
                        (got - boxed).abs() < 1.5,
                        "n={n} ({x},{y}): scaled {got} vs box {boxed}"
                    );
                }
            }
        }
    }

    #[test]
    fn scaled_idct_at_full_size_is_the_full_idct() {
        let mut input = [0.0f32; BLOCK * BLOCK];
        for (i, v) in input.iter_mut().enumerate() {
            *v = ((i * 29 % 251) as f32) - 120.0;
        }
        let mut freq = [0.0f32; BLOCK * BLOCK];
        forward_dct(&input, &mut freq);
        let mut a = [0.0f32; BLOCK * BLOCK];
        let mut b = [0.0f32; BLOCK * BLOCK];
        inverse_dct(&freq, &mut a);
        inverse_dct_scaled(&freq, BLOCK, &mut b);
        for i in 0..BLOCK * BLOCK {
            assert!((a[i] - b[i]).abs() < 1e-4, "i={i}");
        }
    }

    #[test]
    fn vectorized_idct_is_bit_identical_to_scalar() {
        // Exact to_bits equality, not approximate: the vector kernels only
        // reorder the lane loop, never the per-lane reduction, so any
        // difference at all is a kernel bug.
        for seed in [3u32, 41, 977] {
            let mut freq = [0.0f32; BLOCK * BLOCK];
            let mut state = seed;
            for v in freq.iter_mut() {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                *v = ((state >> 20) as f32) - 2048.0;
            }
            let mut scalar = [0.0f32; BLOCK * BLOCK];
            let mut vector = [0.0f32; BLOCK * BLOCK];
            inverse_dct(&freq, &mut scalar);
            inverse_dct_vec(&freq, &mut vector);
            for i in 0..BLOCK * BLOCK {
                assert_eq!(scalar[i].to_bits(), vector[i].to_bits(), "i={i}");
            }
        }
    }

    #[test]
    fn vectorized_scaled_idct_is_bit_identical_to_scalar() {
        for n in [1usize, 2, 4, 8] {
            let mut freq = [0.0f32; BLOCK * BLOCK];
            let mut state = 7u32 + n as u32;
            for v in freq.iter_mut() {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                *v = ((state >> 21) as f32) - 1024.0;
            }
            let mut scalar = [0.0f32; BLOCK * BLOCK];
            let mut vector = [0.0f32; BLOCK * BLOCK];
            inverse_dct_scaled(&freq, n, &mut scalar);
            inverse_dct_scaled_vec(&freq, n, &mut vector);
            for i in 0..n * n {
                assert_eq!(scalar[i].to_bits(), vector[i].to_bits(), "n={n} i={i}");
            }
        }
    }

    /// [`inverse_dct_vec_masked`] over a list of `(spectrum, row mask)`
    /// blocks as one tier kernel, the way the block loops run it.
    struct MaskedIdct<'a> {
        blocks: &'a [([f32; 64], u32)],
    }

    impl smol_imgproc::tier::Kernel for MaskedIdct<'_> {
        type Output = Vec<[f32; 64]>;

        #[inline(always)]
        fn run(self) -> Vec<[f32; 64]> {
            let idct = |(freq, mask): &([f32; 64], u32)| {
                let mut out = [0.0f32; 64];
                inverse_dct_vec_masked(freq, *mask, &mut out);
                out
            };
            self.blocks.iter().map(idct).collect()
        }
    }

    /// Seeded natural-order spectra of each sparsity class the decoders
    /// meet, dequantized as the fast path dequantizes them.
    fn sparsity_classes() -> Vec<(&'static str, Vec<[f32; 64]>)> {
        use crate::quant::{dequant_steps, scale_table, BASE_LUMA, ZIGZAG};
        use smol_imgproc::rng::Rng;
        let mut rng = Rng::seed_from_u64(0x1d_c7);
        let steps = |q| dequant_steps(&scale_table(&BASE_LUMA, q).unwrap());
        let (q80, q95) = (steps(80), steps(95));
        // A nonzero quantized level in ±span.
        let level = |rng: &mut Rng, span: i16| {
            let v = (rng.u8() as i16 - 128) % (span + 1);
            if v == 0 {
                1.0
            } else {
                v as f32
            }
        };
        let mut class = |make: &mut dyn FnMut(&mut Rng) -> [f32; 64]| -> Vec<[f32; 64]> {
            (0..200).map(|_| make(&mut rng)).collect()
        };
        let dense = |rng: &mut Rng| -> [f32; 64] {
            std::array::from_fn(|i| level(rng, 60) * q95[i] * (rng.u8() > 10) as u8 as f32)
        };
        vec![
            (
                "dc only",
                class(&mut |rng| {
                    let mut b = [0.0; 64];
                    b[0] = level(rng, 127) * 8.0;
                    b
                }),
            ),
            (
                "one ac term",
                class(&mut |rng| {
                    let mut b = [0.0; 64];
                    b[0] = level(rng, 127) * 8.0;
                    b[1 + rng.u8() as usize % 63] = level(rng, 40) * 4.0;
                    b
                }),
            ),
            (
                "zero rows",
                class(&mut |rng| {
                    let mut b = dense(rng);
                    for row in b.chunks_exact_mut(BLOCK) {
                        if rng.u8() < 128 {
                            row.fill(0.0);
                        }
                    }
                    b
                }),
            ),
            (
                "zero columns",
                class(&mut |rng| {
                    let mut b = dense(rng);
                    for u in 0..BLOCK {
                        if rng.u8() < 128 {
                            (0..BLOCK).for_each(|v| b[v * BLOCK + u] = 0.0);
                        }
                    }
                    b
                }),
            ),
            (
                "q80 short prefix",
                class(&mut |rng| {
                    let mut b = [0.0; 64];
                    for &i in &ZIGZAG[..1 + rng.u8() as usize % 15] {
                        b[i] = level(rng, 12) * q80[i];
                    }
                    b
                }),
            ),
            ("q95 dense", class(&mut |rng| dense(rng))),
            (
                // Row and column 4 cancel row and column 0 wherever the
                // basis functions agree: exact-zero partial sums.
                "cancelling",
                class(&mut |rng| {
                    let c = level(rng, 127) * 8.0;
                    let s = if rng.u8() < 128 { 1.0 } else { -1.0 };
                    let mut b = [0.0; 64];
                    (b[0], b[4], b[32], b[36]) = (c, -s * c, -c, s * c);
                    b
                }),
            ),
        ]
    }

    #[test]
    fn masked_idct_equals_the_scalar_idct_at_the_u8_boundary_under_every_tier() {
        use smol_imgproc::rng::Rng;
        use smol_imgproc::tier::Tier;
        let to_u8 = |v: f32| (v + 128.0).round().clamp(0.0, 255.0) as u8;
        let mut rng = Rng::seed_from_u64(0x3a5c);
        for (name, spectra) in sparsity_classes() {
            // Each block with its exact row mask and with an
            // over-approximated one (extra rows, possibly all eight).
            let mut blocks = Vec::new();
            for freq in &spectra {
                let exact = (0..BLOCK)
                    .filter(|&v| freq[v * BLOCK..(v + 1) * BLOCK].iter().any(|&c| c != 0.0))
                    .fold(0u32, |m, v| m | 1 << v);
                blocks.push((*freq, exact));
                blocks.push((*freq, exact | rng.u8() as u32));
            }
            let want: Vec<[f32; 64]> = blocks
                .iter()
                .map(|(freq, _)| {
                    let mut out = [0.0f32; 64];
                    inverse_dct(freq, &mut out);
                    out
                })
                .collect();
            if name == "cancelling" {
                let zeros = want.iter().flatten().filter(|&&v| v == 0.0).count();
                assert!(zeros > 0, "the cancelling class must reach exact zeros");
            }
            for tier in [Some(Tier::BASELINE), Tier::avx2()].into_iter().flatten() {
                let got = tier.run(MaskedIdct { blocks: &blocks });
                for (b, (g, w)) in got.iter().zip(&want).enumerate() {
                    for i in 0..BLOCK * BLOCK {
                        // `==`: equal up to the sign of a zero, so equal
                        // after the u8 conversion.
                        assert!(g[i] == w[i], "{name} block {b} i={i} {}", tier.name());
                        assert_eq!(to_u8(g[i]), to_u8(w[i]));
                    }
                }
            }
        }
    }

    #[test]
    fn mac_accounting_constants() {
        assert_eq!(FULL_IDCT_MACS, 1024);
        assert_eq!(scaled_idct_macs(4), 128);
        assert_eq!(scaled_idct_macs(2), 16);
        assert_eq!(scaled_idct_macs(1), 2);
    }

    #[test]
    fn parseval_energy_preserved() {
        let mut input = [0.0f32; BLOCK * BLOCK];
        for (i, v) in input.iter_mut().enumerate() {
            *v = (i as f32 * 0.7).sin() * 100.0;
        }
        let mut freq = [0.0f32; BLOCK * BLOCK];
        forward_dct(&input, &mut freq);
        let e_in: f32 = input.iter().map(|v| v * v).sum();
        let e_out: f32 = freq.iter().map(|v| v * v).sum();
        assert!((e_in - e_out).abs() / e_in < 1e-4);
    }
}
