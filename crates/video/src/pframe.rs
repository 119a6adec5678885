//! P-frame residual coding.
//!
//! Each 16×16 macroblock is either **skipped** (copy the co-located block of
//! the reference) or **coded**: a motion vector plus quantized-DCT residuals
//! for the 2×2 grid of 8×8 sub-blocks in each channel. Residual coefficients
//! use sjpg's AC run/size coding ([`smol_codec::runlength`]) from
//! coefficient 0, with a per-frame optimal Huffman table.
//!
//! Two decoders, pinned to each other by the crate's tests and
//! `tests/video_properties.rs`:
//!
//! * [`decode_pframe`] — what every production caller runs. The macroblock
//!   header and the residual symbols come off one
//!   [`FastCursor`] (truncation surfaces at
//!   the frame-end sync, as it does per MCU row in sjpg), residual symbols
//!   through the shared [`RunTable`] behind a pair LUT sized to the payload,
//!   which writes natural-order blocks; residual blocks dequantize the rows
//!   their coded prefix reaches ([`dequantize_corner`]) into the vectorized
//!   masked IDCT; motion compensation copies rows straight into the output
//!   frame ([`compensate_into`]). No allocation per macroblock. The whole
//!   loop is one `smol_imgproc::tier` kernel, so dequantization and the
//!   IDCT run 8 lanes wide on a host with AVX2.
//! * [`decode_pframe_reference`] — the seed decoder: bit-by-bit canonical
//!   Huffman walk, dense dequantization, scalar IDCT, per-pixel clamped
//!   compensation into a prediction buffer. The oracle; tests and benches
//!   only.
//!
//! The vectorized IDCT equals the scalar one up to the sign of a zero
//! (`smol_codec::dct::inverse_dct_vec`), which adding the residual to a
//! `u8` prediction erases, so the two decoders agree bit for bit.

use crate::motion::{compensate, compensate_into, three_step_search, MotionVector, MB};
use smol_codec::bitio::{BitReader, BitWriter, FastCursor};
use smol_codec::dct::{forward_dct, inverse_dct, inverse_dct_vec_masked, BLOCK};
use smol_codec::error::{Error, Result};
use smol_codec::huffman::HuffmanTable;
use smol_codec::quant::{
    dequant_steps, dequantize_corner, dequantize_zigzag, quantize_zigzag, scale_table, BASE_LUMA,
};
use smol_codec::runlength::{
    decode_amplitude, encode_run, pair_window_bits, tally_run, RunTable, EOB, ZRL,
};
use smol_imgproc::tier::{Kernel, Tier};
use smol_imgproc::ImageU8;

const COEF_ALPHABET: usize = 256;
/// Per-macroblock zero-MV SAD below which the block is skipped outright.
const SKIP_SAD: u64 = (MB * MB) as u64;

/// Work counters for reduced-fidelity experiments.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PFrameStats {
    pub macroblocks: u64,
    pub skipped: u64,
    pub coded_subblocks: u64,
    pub symbols_decoded: u64,
}

/// Bit-by-bit coefficient decode of one 8×8 residual block (no DC
/// prediction: residual DC is zero-mean). Reference path only.
fn decode_coefs(
    r: &mut BitReader<'_>,
    table: &HuffmanTable,
    coefs: &mut [i16; 64],
    stats: &mut PFrameStats,
) -> Result<()> {
    coefs.fill(0);
    let mut k = 0usize;
    while k < 64 {
        let sym = table.decode(r)?;
        stats.symbols_decoded += 1;
        if sym == EOB {
            break;
        }
        if sym == ZRL {
            k += 16;
            continue;
        }
        let run = (sym >> 4) as usize;
        let size = (sym & 0x0F) as u32;
        k += run;
        if k >= 64 || size == 0 {
            return Err(Error::BadCode {
                context: "pframe coefficient overrun",
            });
        }
        coefs[k] = decode_amplitude(r.bits(size)?, size);
        k += 1;
    }
    Ok(())
}

/// Number of bits needed to code a motion component in ±range.
fn mv_bits(range: i16) -> u32 {
    let span = (2 * range + 1) as u32;
    32 - (span - 1).leading_zeros()
}

struct MbPlan {
    skip: bool,
    mv: MotionVector,
    /// `(channel, sub-block index, coefficients)` for coded sub-blocks.
    coded: Vec<(usize, usize, [i16; 64])>,
}

/// Encodes a P-frame against `reference`, returning the payload and the
/// reconstructed frame (before deblocking).
pub fn encode_pframe(
    cur: &ImageU8,
    reference: &ImageU8,
    quality: u8,
    search_range: i16,
) -> Result<(Vec<u8>, ImageU8)> {
    let (w, h, c) = (cur.width(), cur.height(), cur.channels());
    let qtable = scale_table(&BASE_LUMA, quality)?;
    let mbw = w.div_ceil(MB);
    let mbh = h.div_ceil(MB);
    let sub = MB / BLOCK; // 2×2 sub-blocks

    let mut recon = reference.clone();
    let mut plans: Vec<MbPlan> = Vec::with_capacity(mbw * mbh);
    let mut freq = [0u64; COEF_ALPHABET];
    let mut pred = vec![0u8; MB * MB * c];
    let mut block_in = [0.0f32; 64];
    let mut block_freq = [0.0f32; 64];

    for by in 0..mbh {
        for bx in 0..mbw {
            let zero_sad = crate::motion::sad(cur, reference, bx, by, 0, 0);
            if zero_sad < SKIP_SAD {
                plans.push(MbPlan {
                    skip: true,
                    mv: MotionVector::default(),
                    coded: Vec::new(),
                });
                // recon already holds the reference pixels (skip = copy).
                continue;
            }
            let (mv, _) = three_step_search(cur, reference, bx, by, search_range);
            compensate(reference, bx, by, mv, &mut pred);
            let mut coded = Vec::new();
            for ch in 0..c {
                for sb in 0..sub * sub {
                    let sx = (sb % sub) * BLOCK;
                    let sy = (sb / sub) * BLOCK;
                    // Residual for this 8×8 sub-block.
                    let mut nonzero = false;
                    for dy in 0..BLOCK {
                        let y = (by * MB + sy + dy).min(h - 1);
                        for dx in 0..BLOCK {
                            let x = (bx * MB + sx + dx).min(w - 1);
                            let p = pred[((sy + dy) * MB + sx + dx) * c + ch] as f32;
                            let v = cur.at(x, y, ch) as f32 - p;
                            block_in[dy * BLOCK + dx] = v;
                            if v != 0.0 {
                                nonzero = true;
                            }
                        }
                    }
                    if !nonzero {
                        continue;
                    }
                    forward_dct(&block_in.clone(), &mut block_freq);
                    let mut coefs = [0i16; 64];
                    quantize_zigzag(&block_freq, &qtable, &mut coefs);
                    if coefs.iter().any(|&v| v != 0) {
                        tally_run(&coefs, &mut freq);
                        coded.push((ch, sb, coefs));
                    }
                }
            }
            // Reconstruct: prediction + dequantized residual.
            reconstruct_mb(&mut recon, bx, by, &pred, &coded, &qtable);
            plans.push(MbPlan {
                skip: false,
                mv,
                coded,
            });
        }
    }

    // Entropy coding. A frame can be all-skip; emit a 1-symbol table then.
    if freq.iter().all(|&f| f == 0) {
        freq[EOB as usize] = 1;
    }
    let table = HuffmanTable::from_frequencies(&freq, 16)?;
    let mut bw = BitWriter::new();
    table.write_spec(&mut bw);
    let nbits = mv_bits(search_range);
    for plan in &plans {
        bw.put(plan.skip as u32, 1);
        if plan.skip {
            continue;
        }
        bw.put((plan.mv.dx + search_range) as u32, nbits);
        bw.put((plan.mv.dy + search_range) as u32, nbits);
        let mut mask: u32 = 0;
        for &(ch, sb, _) in &plan.coded {
            mask |= 1 << (ch * sub * sub + sb);
        }
        bw.put(mask, (c * sub * sub) as u32);
        for (_, _, coefs) in &plan.coded {
            encode_run(&mut bw, coefs, &table)?;
        }
    }
    Ok((bw.finish(), recon))
}

fn reconstruct_mb(
    recon: &mut ImageU8,
    bx: usize,
    by: usize,
    pred: &[u8],
    coded: &[(usize, usize, [i16; 64])],
    qtable: &[u16; 64],
) {
    let (w, h, c) = (recon.width(), recon.height(), recon.channels());
    let sub = MB / BLOCK;
    // Start from the prediction…
    for my in 0..MB {
        let y = by * MB + my;
        if y >= h {
            break;
        }
        for mx in 0..MB {
            let x = bx * MB + mx;
            if x >= w {
                break;
            }
            for ch in 0..c {
                recon.set(x, y, ch, pred[(my * MB + mx) * c + ch]);
            }
        }
    }
    // …then add the coded residuals.
    let mut freq = [0.0f32; 64];
    let mut pix = [0.0f32; 64];
    for &(ch, sb, ref coefs) in coded {
        dequantize_zigzag(coefs, qtable, &mut freq);
        inverse_dct(&freq.clone(), &mut pix);
        let sx = (sb % sub) * BLOCK;
        let sy = (sb / sub) * BLOCK;
        for dy in 0..BLOCK {
            let y = by * MB + sy + dy;
            if y >= h {
                break;
            }
            for dx in 0..BLOCK {
                let x = bx * MB + sx + dx;
                if x >= w {
                    break;
                }
                let v = recon.at(x, y, ch) as f32 + pix[dy * BLOCK + dx];
                recon.set(x, y, ch, v.clamp(0.0, 255.0) as u8);
            }
        }
    }
}

/// Reads the next `n ≤ 32` bits off the cursor (the caller has refilled it).
#[inline]
fn take(c: &mut FastCursor<'_>, n: u32) -> u32 {
    // Through u64 so that `n == 0` (a zero search range) shifts by 32.
    let v = ((c.peek32() as u64) >> (32 - n)) as u32;
    c.skip(n);
    v
}

/// Decodes a P-frame payload against `reference` (bit-identical to
/// [`decode_pframe_reference`], in pixels and in stats), under the widest
/// [`Tier`] the CPU supports.
pub fn decode_pframe(
    payload: &[u8],
    reference: &ImageU8,
    quality: u8,
    search_range: i16,
) -> Result<(ImageU8, PFrameStats)> {
    pframe_tier().run(DecodePFrame {
        payload,
        reference,
        quality,
        search_range,
    })
}

/// The tier [`decode_pframe`] runs under: the widest the CPU supports.
/// This crate's tests pin it per thread to compare the tiers.
#[inline]
fn pframe_tier() -> Tier {
    #[cfg(test)]
    if let Some(tier) = tests::FORCED_TIER.get() {
        return tier;
    }
    Tier::detect()
}

/// [`decode_pframe`]'s inputs, as the [`Kernel`] each tier compiles.
struct DecodePFrame<'a> {
    payload: &'a [u8],
    reference: &'a ImageU8,
    quality: u8,
    search_range: i16,
}

impl Kernel for DecodePFrame<'_> {
    type Output = Result<(ImageU8, PFrameStats)>;

    #[inline(always)]
    fn run(self) -> Self::Output {
        decode_pframe_body(
            self.payload,
            self.reference,
            self.quality,
            self.search_range,
        )
    }
}

/// The body of [`decode_pframe`], compiled once per [`Tier`].
#[inline(always)]
fn decode_pframe_body(
    payload: &[u8],
    reference: &ImageU8,
    quality: u8,
    search_range: i16,
) -> Result<(ImageU8, PFrameStats)> {
    let (w, h, c) = (reference.width(), reference.height(), reference.channels());
    let qtable = scale_table(&BASE_LUMA, quality)?;
    let steps = dequant_steps(&qtable);
    let mbw = w.div_ceil(MB);
    let mbh = h.div_ceil(MB);
    let sub = MB / BLOCK;
    let mut r = BitReader::new(payload);
    let table = HuffmanTable::read_spec(&mut r, COEF_ALPHABET)?;
    let run = RunTable::new(&table, pair_window_bits(payload.len()));
    let nbits = mv_bits(search_range);
    // Coded-block mask: one bit per 8×8 sub-block per channel.
    let blocks = c * sub * sub;
    // Skipped macroblocks are co-located copies: one whole-frame copy
    // materializes all of them, coded ones are overwritten below.
    let mut out = reference.clone();
    let mut stats = PFrameStats::default();
    let mut freq = [0.0f32; 64];
    let mut pix = [0.0f32; 64];
    let stride = w * c;

    let mut cur = FastCursor::from_reader(&r);
    for by in 0..mbh {
        for bx in 0..mbw {
            stats.macroblocks += 1;
            // A refill holds 32 bits: the skip bit and both vector
            // components (≤ 19 for an 8-bit search range) come off one,
            // the coded-block mask off the next.
            cur.refill();
            if take(&mut cur, 1) == 1 {
                stats.skipped += 1;
                continue;
            }
            let dx = take(&mut cur, nbits) as i32 - search_range as i32;
            let dy = take(&mut cur, nbits) as i32 - search_range as i32;
            let mv = MotionVector {
                dx: dx as i16,
                dy: dy as i16,
            };
            compensate_into(reference, bx, by, mv, &mut out);
            cur.refill();
            let mask = take(&mut cur, blocks as u32);
            for bit in 0..blocks {
                if mask & (1 << bit) == 0 {
                    continue;
                }
                let ch = bit / (sub * sub);
                let sb = bit % (sub * sub);
                // A natural-order block: zeroed, then written where coded.
                let mut coefs = [0i16; 64];
                let (k, symbols) = run.decode_run(&mut cur, &mut coefs, 0, 64)?;
                stats.symbols_decoded += symbols;
                stats.coded_subblocks += 1;
                // The part of the sub-block inside the frame (the encoder
                // codes edge-replicated residuals past it).
                let (x, y) = (bx * MB + (sb % sub) * BLOCK, by * MB + (sb / sub) * BLOCK);
                let (bw, bh) = (
                    BLOCK.min(w.saturating_sub(x)),
                    BLOCK.min(h.saturating_sub(y)),
                );
                if bw == 0 || bh == 0 {
                    continue;
                }
                let row_mask = dequantize_corner(&coefs, k, &steps, BLOCK, &mut freq);
                inverse_dct_vec_masked(&freq, row_mask, &mut pix);
                let data = out.data_mut();
                for dy in 0..bh {
                    let row = &mut data[(y + dy) * stride + x * c + ch..];
                    for dx in 0..bw {
                        // Saturating cast: the reference's clamp-then-cast.
                        row[dx * c] = (row[dx * c] as f32 + pix[dy * BLOCK + dx]) as u8;
                    }
                }
            }
        }
    }
    // Frame-end sync: errors if the cursor's zero-padded reads ran past
    // the end of the payload.
    cur.sync(&mut r)?;
    Ok((out, stats))
}

/// The seed P-frame decoder, kept as the oracle [`decode_pframe`] is pinned
/// to. Tests and benches only.
pub fn decode_pframe_reference(
    payload: &[u8],
    reference: &ImageU8,
    quality: u8,
    search_range: i16,
) -> Result<(ImageU8, PFrameStats)> {
    let (w, h, c) = (reference.width(), reference.height(), reference.channels());
    let qtable = scale_table(&BASE_LUMA, quality)?;
    let mbw = w.div_ceil(MB);
    let mbh = h.div_ceil(MB);
    let sub = MB / BLOCK;
    let mut r = BitReader::new(payload);
    let table = HuffmanTable::read_spec(&mut r, COEF_ALPHABET)?;
    let nbits = mv_bits(search_range);
    let mut out = reference.clone();
    let mut stats = PFrameStats::default();
    let mut pred = vec![0u8; MB * MB * c];
    let mut coefs = [0i16; 64];

    for by in 0..mbh {
        for bx in 0..mbw {
            stats.macroblocks += 1;
            if r.bit()? == 1 {
                stats.skipped += 1;
                continue; // skip: co-located copy already present in `out`
            }
            let dx = r.bits(nbits)? as i32 - search_range as i32;
            let dy = r.bits(nbits)? as i32 - search_range as i32;
            let mv = MotionVector {
                dx: dx as i16,
                dy: dy as i16,
            };
            compensate(reference, bx, by, mv, &mut pred);
            let mask = r.bits((c * sub * sub) as u32)?;
            let mut coded = Vec::new();
            for bit in 0..(c * sub * sub) {
                if mask & (1 << bit) != 0 {
                    let ch = bit / (sub * sub);
                    let sb = bit % (sub * sub);
                    decode_coefs(&mut r, &table, &mut coefs, &mut stats)?;
                    stats.coded_subblocks += 1;
                    coded.push((ch, sb, coefs));
                }
            }
            reconstruct_mb(&mut out, bx, by, &pred, &coded, &qtable);
        }
    }
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smol_imgproc::psnr;
    use std::cell::Cell;

    thread_local! {
        /// The tier [`pframe_tier`] returns on this thread, when set.
        pub(super) static FORCED_TIER: Cell<Option<Tier>> = const { Cell::new(None) };
    }

    fn moving_scene(t: usize) -> ImageU8 {
        let mut img = ImageU8::zeros(64, 48, 3);
        for y in 0..48 {
            for x in 0..64 {
                // Textured background.
                let bg = ((x * 3 + y * 5) % 64 + 60) as u8;
                for ch in 0..3 {
                    img.set(x, y, ch, bg);
                }
            }
        }
        // A bright object moving right by 2 px/frame.
        let ox = 4 + t * 2;
        for y in 16..32 {
            for x in ox..(ox + 10).min(64) {
                img.set(x, y, 0, 240);
                img.set(x, y, 1, 200);
                img.set(x, y, 2, 40);
            }
        }
        img
    }

    #[test]
    fn pframe_roundtrip_matches_encoder_reconstruction() {
        let reference = moving_scene(0);
        let cur = moving_scene(1);
        let (payload, recon) = encode_pframe(&cur, &reference, 80, 7).unwrap();
        let (decoded, _) = decode_pframe(&payload, &reference, 80, 7).unwrap();
        assert_eq!(decoded, recon, "decoder must match encoder loop exactly");
        assert!(psnr(&cur, &decoded) > 28.0, "psnr={}", psnr(&cur, &decoded));
    }

    /// Fast ≡ seed decoder in pixels and stats, on a frame whose size is no
    /// multiple of the macroblock (coded sub-blocks past both edges) and
    /// across search ranges — zero bits per vector component included.
    #[test]
    fn fast_decoder_matches_the_reference() {
        for (w, h) in [(64, 48), (41, 35), (16, 9)] {
            let frame = |t: usize| {
                let mut img = ImageU8::zeros(w, h, 3);
                for (i, v) in img.data_mut().iter_mut().enumerate() {
                    *v = ((i / 3 + t * 3) * 7 % 97 + (i % 3) * 40) as u8;
                }
                img
            };
            let (reference, cur) = (frame(0), frame(1));
            for range in [0i16, 1, 7, 15] {
                let (payload, recon) = encode_pframe(&cur, &reference, 60, range).unwrap();
                let fast = decode_pframe(&payload, &reference, 60, range).unwrap();
                let seed = decode_pframe_reference(&payload, &reference, 60, range).unwrap();
                assert_eq!(fast, seed, "{w}x{h} range {range}");
                assert_eq!(fast.0, recon, "{w}x{h} range {range}");
                assert!(fast.1.coded_subblocks > 0);
            }
        }
    }

    #[test]
    fn static_scene_is_mostly_skipped() {
        let reference = moving_scene(0);
        let (payload, _) = encode_pframe(&reference, &reference, 80, 7).unwrap();
        let (decoded, stats) = decode_pframe(&payload, &reference, 80, 7).unwrap();
        assert_eq!(decoded, reference);
        assert_eq!(stats.skipped, stats.macroblocks);
        // All-skip frames are tiny (table spec + 1 bit per MB).
        assert!(payload.len() < 1200, "payload={}", payload.len());
    }

    #[test]
    fn moving_scene_pframe_smaller_than_iframe() {
        let reference = moving_scene(0);
        let cur = moving_scene(1);
        let (payload, _) = encode_pframe(&cur, &reference, 80, 7).unwrap();
        let iframe = smol_codec::SjpgEncoder::new(80).encode(&cur).unwrap();
        assert!(
            payload.len() < iframe.len() / 2,
            "p={} i={}",
            payload.len(),
            iframe.len()
        );
    }

    #[test]
    fn mv_bits_covers_range() {
        assert_eq!(mv_bits(7), 4); // span 15 → 4 bits
        assert_eq!(mv_bits(15), 5); // span 31 → 5 bits
        assert_eq!(mv_bits(1), 2); // span 3 → 2 bits
    }

    #[test]
    fn truncated_pframe_errors() {
        let reference = moving_scene(0);
        let cur = moving_scene(1);
        let (payload, _) = encode_pframe(&cur, &reference, 80, 7).unwrap();
        assert!(decode_pframe(&payload[..payload.len() / 2], &reference, 80, 7).is_err());
        assert!(decode_pframe_reference(&payload[..payload.len() / 2], &reference, 80, 7).is_err());
    }

    /// P-frame residual reconstruction under the baseline and AVX2 tiers
    /// (the AVX2 arm skipped on a host without it) equals the seed decoder
    /// in pixels and stats: textured motion at several qualities, a flat
    /// brightness step (residual blocks coded as their DC alone) and q100
    /// noise (residual blocks with all 64 coded).
    #[test]
    fn tiers_reconstruct_residuals_bit_identically() {
        let (w, h) = (48, 40);
        let textured = |t: usize| {
            let mut img = ImageU8::zeros(w, h, 3);
            for (i, v) in img.data_mut().iter_mut().enumerate() {
                *v = ((i / 3 + t * 5) * 11 % 89 + (i % 3) * 50) as u8;
            }
            img
        };
        let flat = |level: u8| {
            let mut img = ImageU8::zeros(w, h, 3);
            img.data_mut().fill(level);
            img
        };
        let noise = |seed: u32| {
            let mut img = ImageU8::zeros(w, h, 3);
            let mut state = seed;
            for v in img.data_mut() {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                *v = (state >> 24) as u8;
            }
            img
        };
        let pairs = [
            (textured(0), textured(1), 80),
            (textured(2), textured(3), 40),
            (flat(100), flat(130), 50),
            (noise(1), noise(2), 100),
        ];
        let tiers: Vec<Tier> = [Some(Tier::BASELINE), Tier::avx2()]
            .into_iter()
            .flatten()
            .collect();
        for (i, (reference, cur, quality)) in pairs.iter().enumerate() {
            let (payload, recon) = encode_pframe(cur, reference, *quality, 7).unwrap();
            let want = decode_pframe_reference(&payload, reference, *quality, 7).unwrap();
            assert_eq!(want.0, recon, "pair {i}");
            assert!(want.1.coded_subblocks > 0, "pair {i} codes residuals");
            for &tier in &tiers {
                FORCED_TIER.set(Some(tier));
                let got = decode_pframe(&payload, reference, *quality, 7);
                FORCED_TIER.set(None);
                assert_eq!(got.unwrap(), want, "pair {i} {}", tier.name());
            }
        }
    }
}
