//! Run/size coefficient coding (T.81 §F.1.2.2): the entropy layer sjpg's AC
//! coefficients and `smol_video`'s P-frame residual blocks share.
//!
//! A block's zig-zag coefficients are coded as `(zero run, magnitude
//! category)` symbols followed by the amplitude bits, with [`EOB`] closing
//! a block early and [`ZRL`] standing for sixteen zeros. The encoders and
//! the table-driven decoder live here once: sjpg codes `coefs[1..]` behind
//! its DC difference as two bands (`1..split`, `split..64`, one per stream
//! segment), a P-frame residual block codes all of `coefs[0..]`. The
//! decoder writes what it reads into natural (raster) order, as libjpeg's
//! does, so dequantization needs no scatter.
//! Each codec keeps its own bit-by-bit reference walk as the oracle the
//! fast loop is pinned to.

use crate::bitio::{BitWriter, FastCursor};
use crate::error::{Error, Result};
use crate::huffman::HuffmanTable;
use crate::quant::ZIGZAG;

/// End of block: every remaining coefficient is zero.
pub const EOB: u16 = 0x00;
/// Zero run length: sixteen zero coefficients.
pub const ZRL: u16 = 0xF0;

/// Widest pair-LUT window: a 12-bit window resolves most (code, amplitude)
/// pairs in a single table read.
pub const PAIR_BITS: u32 = 12;

/// Pair-LUT entry kinds (bits 9..11 of an entry).
const PAIR_VAL: u32 = 0;
const PAIR_EOB: u32 = 1;
const PAIR_ZRL: u32 = 2;

/// Pair-LUT window for a payload of `len` bytes. Building a LUT costs one
/// entry per window value (two tables of 4 096 entries are ≈ 25 µs), which
/// a short payload never earns back: a narrower window sends more symbols
/// through the [`HuffmanTable::lookup16`] fallback but is built in a
/// fraction of the time. Measured full decodes, windows interleaved
/// (`microbench` `video_decode/keyframe_window` re-measures them): a
/// 0.9 KB body takes 22 µs behind 8 bits, 25 behind 10, 39 behind 12; a
/// 1.5 KB one 44 / 47 / 62; from 4 KB to 30 KB 9–10 bits lead 12 by 2–6 %
/// and 8 by up to 2 %; at 73 KB 11 and 12 are level (1 757 / 1 765 µs) and
/// 8 trails by 2.5 %, so large bodies keep [`PAIR_BITS`].
pub fn pair_window_bits(len: usize) -> u32 {
    match len {
        0..=2047 => 8,
        2048..=32767 => 10,
        _ => PAIR_BITS,
    }
}

/// Magnitude category (number of bits) of a value, JPEG-style.
#[inline]
pub fn magnitude_category(v: i16) -> u32 {
    let a = v.unsigned_abs() as u32;
    32 - a.leading_zeros()
}

/// Encodes the amplitude bits of `v` in `size` bits (one's-complement trick
/// for negatives, as in T.81 §F.1.2.1).
#[inline]
pub fn amplitude_bits(v: i16, size: u32) -> u32 {
    if v >= 0 {
        v as u32
    } else {
        (v + ((1 << size) - 1)) as u32 & ((1u32 << size) - 1)
    }
}

/// Decodes amplitude bits back to a signed value (T.81 §F.2.2.1 EXTEND).
///
/// Branchless: the sign of the decoded value — leading amplitude bit 0
/// means negative under the one's-complement encoding — is data-dependent
/// and essentially random in real streams, so a conditional here
/// mispredicts about half the time in the decode hot loop. `size == 0`
/// degenerates cleanly: `bits` is 0 and the correction term `2^0 - 1`
/// is 0.
#[inline]
pub fn decode_amplitude(bits: u32, size: u32) -> i16 {
    let neg = ((bits >> size.wrapping_sub(1).min(31)) & 1) ^ 1;
    (bits as i32 - (neg as i32) * ((1i32 << size) - 1)) as i16
}

/// Tallies the run/size symbols `coefs` would emit.
pub fn tally_run(coefs: &[i16], freq: &mut [u64]) {
    let mut run = 0u32;
    for &c in coefs {
        if c == 0 {
            run += 1;
        } else {
            while run >= 16 {
                freq[ZRL as usize] += 1;
                run -= 16;
            }
            freq[((run << 4) | magnitude_category(c)) as usize] += 1;
            run = 0;
        }
    }
    if run > 0 {
        freq[EOB as usize] += 1;
    }
}

/// Entropy-encodes `coefs` as run/size symbols plus amplitude bits.
pub fn encode_run(w: &mut BitWriter, coefs: &[i16], table: &HuffmanTable) -> Result<()> {
    let mut run = 0u32;
    for &c in coefs {
        if c == 0 {
            run += 1;
        } else {
            while run >= 16 {
                table.encode(w, ZRL)?;
                run -= 16;
            }
            let size = magnitude_category(c);
            table.encode(w, ((run << 4) | size) as u16)?;
            w.put(amplitude_bits(c, size), size);
            run = 0;
        }
    }
    if run > 0 {
        table.encode(w, EOB)?;
    }
    Ok(())
}

/// Which symbol alphabet a pair LUT decodes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Alphabet {
    /// The symbol is the amplitude width (sjpg DC differences).
    Size,
    /// The symbol is `(run << 4) | size`, with [`EOB`] and [`ZRL`].
    RunSize,
}

/// Builds the pair LUT for one table: a `bits`-wide stream window maps
/// straight to a decoded (total bits, run, amplitude value) triple whenever
/// the Huffman code *and* its amplitude bits both fit in the window — one
/// load replaces the code lookup, the amplitude extraction, and the T.81
/// EXTEND step.
///
/// Entry layout (`0` = window not fully decodable, fall back): bits 0..5
/// total consumed bits, 5..9 zero run, 9..11 kind, 16..32 amplitude as
/// `i16`. Windows whose code is longer than the window, whose amplitude
/// spills past it, or whose symbol is malformed (run/size with size 0
/// outside EOB/ZRL) stay `0` and resolve through [`read_pair`], preserving
/// the reference decoders' error behavior.
pub(crate) fn build_pair_lut(table: &HuffmanTable, alphabet: Alphabet, bits: u32) -> Vec<u32> {
    debug_assert!((1..=PAIR_BITS).contains(&bits));
    let run_size = alphabet == Alphabet::RunSize;
    let mut lut = vec![0u32; 1 << bits];
    for (idx, e) in lut.iter_mut().enumerate() {
        let w16 = (idx as u32) << (16 - bits);
        let (len, sym) = table.lookup16(w16);
        if len == 0 || len > bits {
            continue;
        }
        if run_size && sym == EOB {
            *e = len | (PAIR_EOB << 9);
            continue;
        }
        if run_size && sym == ZRL {
            *e = len | (PAIR_ZRL << 9);
            continue;
        }
        let (size, run) = if run_size {
            ((sym & 0x0F) as u32, (sym >> 4) as u32)
        } else {
            (sym as u32, 0u32)
        };
        if (run_size && size == 0) || len + size > bits {
            continue;
        }
        let total = len + size;
        let amp = (w16 >> (16 - total)) & ((1u32 << size) - 1);
        let val = decode_amplitude(amp, size);
        *e = total | (run << 5) | (PAIR_VAL << 9) | ((val as u16 as u32) << 16);
    }
    lut
}

/// Fallback for windows a pair LUT can't resolve: reads one (symbol,
/// amplitude-size, amplitude-bits) triple from the cursor through the
/// prefix LUT and, if even that misses, the canonical walk over a 32-bit
/// peek. `size_of` maps a symbol to its amplitude width (size alphabet:
/// the symbol itself; run/size: the low nibble — which also maps EOB/ZRL
/// to 0, as they carry no amplitude).
#[inline]
pub(crate) fn read_pair(
    c: &mut FastCursor<'_>,
    table: &HuffmanTable,
    size_of: impl Fn(u16) -> u32,
) -> Result<(u16, u32, u32)> {
    let w = c.peek32();
    let (len, sym) = table.lookup16(w >> 16);
    let (len, sym) = if len != 0 {
        (len, sym)
    } else {
        table.walk16(w >> 16)?
    };
    let size = size_of(sym);
    let total = len + size;
    // `size == 0` degenerates to a zero mask, so no branch: the
    // amplitude lives directly under the code in the same window.
    let bits = (w >> (32 - total)) & ((1u32 << size) - 1);
    c.skip(total);
    Ok((sym, size, bits))
}

/// A run/size Huffman table with its pair LUT: the fast decoder of one
/// block's coefficient run.
pub struct RunTable<'t> {
    table: &'t HuffmanTable,
    pairs: Vec<u32>,
    /// `32 - window bits`: a 32-bit peek shifted right by this indexes
    /// `pairs`.
    shift: u32,
}

impl<'t> RunTable<'t> {
    /// Tables over a `bits`-wide window (`1..=PAIR_BITS`; see
    /// [`pair_window_bits`]).
    pub fn new(table: &'t HuffmanTable, bits: u32) -> Self {
        RunTable {
            pairs: build_pair_lut(table, Alphabet::RunSize, bits),
            table,
            shift: 32 - bits,
        }
    }

    /// Entropy-decodes the zig-zag band `k0..end` of one block through a
    /// [`FastCursor`]: upcoming bits stay register-resident in a u64
    /// accumulator, and one pair-LUT read resolves a whole (code,
    /// amplitude) pair for the common case. Reads exactly the same bits
    /// from exactly the same positions as the bit-by-bit reference walks.
    /// The caller owns the cursor and syncs it back to its
    /// [`crate::bitio::BitReader`], which is where truncated input
    /// surfaces as an error.
    ///
    /// `end` is where the band's run stops without an [`EOB`] (progressive
    /// JPEG's spectral selection): 64 for a whole block — P-frame residuals
    /// and v2 sjpg — or the split between an sjpg stream's two segments (v3
    /// and later).
    ///
    /// Coefficients land in *natural* (raster) order, as libjpeg writes
    /// them: the one at zig-zag index `k` goes to `coefs[ZIGZAG[k]]`, into a
    /// block the caller zeroed, so a zero run is a skip and not a fill.
    /// Returns `(k, symbols)`: the band's coefficients are those at zig-zag
    /// indices `k0..k`, and nothing at or past `k` was written — callers
    /// dequantize with [`crate::quant::dequantize_corner`], which reads `k`
    /// as the coded prefix.
    ///
    /// Always inlined: with two call sites per sjpg block (one per band)
    /// the compiler otherwise keeps it out of line, a call per band with
    /// the cursor passed through memory — an entropy-only walk of sjpg rows
    /// measured ≈ 10 % slower that way.
    #[inline(always)]
    pub fn decode_run(
        &self,
        c: &mut FastCursor<'_>,
        coefs: &mut [i16; 64],
        k0: usize,
        end: usize,
    ) -> Result<(usize, u64)> {
        debug_assert!(end <= 64);
        // Clamped so the compiler sees `k < 64` wherever `k < end`: the
        // coefficient stores below then need no bounds checks.
        let end = end.min(64);
        let overrun = || Error::BadCode {
            context: "run/size coefficient overrun",
        };
        let mut symbols = 0u64;
        let mut k = k0;
        while k < end {
            symbols += 1;
            c.refill();
            let e = self.pairs[(c.peek32() >> self.shift) as usize];
            let (run, val) = if e != 0 {
                c.skip(e & 31);
                let kind = (e >> 9) & 3;
                if kind != PAIR_VAL {
                    if kind == PAIR_EOB {
                        break;
                    }
                    k = (k + 16).min(end);
                    continue;
                }
                (((e >> 5) & 15) as usize, (e >> 16) as u16 as i16)
            } else {
                let (sym, size, bits) = read_pair(c, self.table, |sym| (sym & 0x0F) as u32)?;
                if sym == EOB {
                    break;
                }
                if sym == ZRL {
                    k = (k + 16).min(end);
                    continue;
                }
                if size == 0 {
                    return Err(overrun());
                }
                ((sym >> 4) as usize, decode_amplitude(bits, size))
            };
            if k + run >= end {
                return Err(overrun());
            }
            k += run;
            // `k < end <= 64`, and the mask keeps the store check-free.
            coefs[ZIGZAG[k] & 63] = val;
            k += 1;
        }
        Ok((k, symbols))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::BitReader;

    #[test]
    fn amplitude_coding_roundtrip() {
        for v in [-2047i16, -1024, -255, -1, 0, 1, 2, 127, 1024, 2047] {
            let size = magnitude_category(v);
            if size == 0 {
                assert_eq!(v, 0);
                continue;
            }
            let bits = amplitude_bits(v, size);
            assert_eq!(decode_amplitude(bits, size), v, "v={v}");
        }
    }

    fn block(seed: u32, density: u32) -> [i16; 64] {
        let mut coefs = [0i16; 64];
        let mut state = seed;
        for c in coefs.iter_mut() {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            if (state >> 24).is_multiple_of(density) {
                *c = ((state >> 8) & 0x3FF) as i16 - 512;
            }
        }
        coefs
    }

    /// Every window width decodes what the encoder wrote, from either
    /// start index and for a whole block or one band of it (sjpg v3's
    /// splits), and leaves the cursor on the same bit.
    #[test]
    fn decode_run_inverts_encode_run_at_every_window() {
        let blocks: Vec<[i16; 64]> = (0..24).map(|i| block(i + 1, 1 + i % 7)).collect();
        for (k0, end) in [
            (0usize, 64usize),
            (1, 64),
            (1, 5),
            (5, 64),
            (1, 25),
            (25, 64),
        ] {
            let mut freq = [0u64; 256];
            for b in &blocks {
                tally_run(&b[k0..end], &mut freq);
            }
            if freq.iter().all(|&f| f == 0) {
                freq[EOB as usize] = 1;
            }
            let table = HuffmanTable::from_frequencies(&freq, 16).unwrap();
            let mut w = BitWriter::new();
            for b in &blocks {
                encode_run(&mut w, &b[k0..end], &table).unwrap();
            }
            let stop = w.bit_pos();
            let bytes = w.finish();
            for bits in 1..=PAIR_BITS {
                let run = RunTable::new(&table, bits);
                let mut r = BitReader::new(&bytes);
                let mut c = FastCursor::from_reader(&r);
                for b in &blocks {
                    let mut coefs = [0i16; 64];
                    let (k, symbols) = run.decode_run(&mut c, &mut coefs, k0, end).unwrap();
                    assert!(symbols >= 1 && k <= end);
                    // Natural order: the band lands at its raster positions
                    // and nothing else is written.
                    for (i, &zz) in ZIGZAG.iter().enumerate() {
                        let want = if (k0..k).contains(&i) { b[i] } else { 0 };
                        assert_eq!(coefs[zz], want, "bits={bits} k={i}");
                    }
                    assert!(b[k..end].iter().all(|&v| v == 0), "bits={bits}");
                }
                c.sync(&mut r).unwrap();
                assert_eq!(r.bit_pos(), stop, "bits={bits} band {k0}..{end}");
            }
        }
    }

    #[test]
    fn window_grows_with_the_payload() {
        assert_eq!(pair_window_bits(0), 8);
        assert_eq!(pair_window_bits(1300), 8);
        assert_eq!(pair_window_bits(2 << 10), 10);
        assert_eq!(pair_window_bits(8 << 10), 10);
        assert_eq!(pair_window_bits(32 << 10), PAIR_BITS);
        assert_eq!(pair_window_bits(70 << 10), PAIR_BITS);
    }
}
