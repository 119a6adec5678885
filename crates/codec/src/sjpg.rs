//! sjpg — a from-scratch DCT block image codec with JPEG's cost anatomy.
//!
//! The pipeline matches JPEG baseline: RGB→YCbCr, 8×8 block DCT,
//! quality-scaled quantization (Annex-K tables), zig-zag + DC-DPCM +
//! AC run-length magnitude coding, canonical Huffman entropy coding with
//! per-image optimal tables. Chroma is stored either at full resolution
//! (4:4:4, 8×8 MCUs of three blocks) or subsampled 2× per axis
//! (4:2:0, 16×16 MCUs of four luma blocks + Cb + Cr) — see [`Chroma`].
//!
//! Four features exist specifically for the paper's partial-decoding
//! optimizations (§6.4, Figure 3, Algorithm 1):
//!
//! * every MCU row is byte-aligned and indexed in the header (the moral
//!   equivalent of JPEG restart markers + a tile index), so a decoder can
//!   **seek past rows** outside a region of interest;
//! * every row is stored as **two segments** split by frequency, so a
//!   reduced-resolution decode never parses the coefficients it discards;
//! * a **seek table** into each row's high-band segment lets an ROI decode
//!   open that segment at an MCU column left of or at the ROI: blocks left
//!   of it read their DC and low band only (DC prediction needs those) and
//!   skip dequantize+IDCT+color conversion; and
//! * decoding **stops early** after the last ROI column / row.
//!
//! ## Stream layout (version 4)
//!
//! Header (magic, version, dimensions, quality, chroma mode, the DC and AC
//! Huffman tables), then the row index, then the seek table, then the body.
//! Each MCU row is two byte-aligned segments and the index holds both
//! offsets per row:
//!
//! * **segment 1** — every block's DC difference and the low band of its AC
//!   run: zig-zag indices below the split, coded as a run that ends at the
//!   split (an end-of-block code stops it early);
//! * **segment 2** — every block's high band, from the split to 63.
//!
//! This is progressive JPEG's spectral selection restricted to one split.
//! The split per component is the zig-zag prefix a factor-4 reconstruction
//! reads ([`zigzag_prefix_for`]): 5 for 4:4:4 and for 4:2:0 luma, 25 for
//! 4:2:0 chroma (which reconstructs at `min(8, 16/4)` points). One AC table
//! codes both bands. A factor-4 or factor-8 decode reads segment 1 only —
//! about a sixth of the entropy symbols of a coefficient-dense still —
//! while full, ROI, early-stop and factor-2 decodes read both, block by
//! block, and reconstruct exactly the coefficients a one-segment stream
//! holds: a full decode is pixel-identical to the v2 stream of the same
//! image. Each segment is read through its own bounded reader, so an
//! overrun into the next segment is `Truncated`. The index's segment
//! lengths are themselves the cascade router's difficulty signal
//! (`crate::signal`), read without opening the body.
//!
//! Segment 2 carries AC coefficients only, no DC predictor, so a decoder
//! can start it at any block boundary it knows the bit offset of. The seek
//! table holds those offsets: every `K` MCU columns (columns `K`, `2K`, …
//! below the row's MCU count) one fixed-width entry, the bit offset in the
//! row's segment 2 where that column's first block begins. The header says
//! `K` and the entry width in bits beside the row count (`K = 0`: no
//! table). The encoder picks the smallest `K` whose table fits in
//! 1/50 of the body and writes none when that leaves fewer
//! than two points per row — the 320×240 q95 stills get `K = 2` with 14-bit
//! entries (≈ 1.4 % of the body), their 4:2:0 copies `K = 1`, and the
//! 128×72 video keyframes none. Nothing but an ROI decode
//! that starts at or past column `K` reads the table, and it reads only the
//! entries of the rows it decodes, checking them as the row index is
//! checked: entries that decrease or point past their segment are a typed
//! `BadHeader`. The scalar reference seeks exactly as the fast path does.
//!
//! Version 2 streams (one segment per row) and version 3 streams (two
//! segments, no seek table) still decode, through the same row loop: a v2
//! row is read as a v3 row whose split is 64 and whose segment 2 is empty,
//! and a v3 stream as a v4 stream without a table. The encoder writes only
//! v4.
//!
//! ## Decode hot path
//!
//! DC predictors reset at every MCU-row start, so rows are
//! data-independent and the decoder opens each one through the row index.
//! Inside a row, the IDCT and YCbCr→RGB conversion run through lane-batched
//! kernels ([`crate::dct::inverse_dct_scaled_vec`],
//! [`smol_imgproc::ops::colorspace::ycbcr_row_to_rgb`]) that are
//! **bit-identical** to the scalar reference (set
//! [`DecodeOptions::scalar_kernels`] to decode through the scalar oracle
//! instead — benches and proptests compare the two). The entropy decoder
//! writes each block in natural order, so dequantization is one 8-lane
//! multiply per block row ([`dequantize_corner`]). The whole block loop is
//! one [`smol_imgproc::tier`] kernel, compiled for the baseline target and
//! for AVX2 and chosen per decode from CPUID; both tiers compute the same
//! bits.

use crate::bitio::{BitReader, BitWriter, FastCursor};
use crate::dct::{
    forward_dct, inverse_dct_scaled, inverse_dct_scaled_vec_masked, scaled_idct_macs, BLOCK,
    FULL_IDCT_MACS,
};
use crate::error::{Error, Result};
use crate::huffman::HuffmanTable;
use crate::quant::{
    dequant_steps, dequantize_corner, dequantize_zigzag, quantize_zigzag, scale_table,
    zigzag_prefix_for, BASE_CHROMA, BASE_LUMA,
};
use crate::runlength::{
    amplitude_bits, build_pair_lut, decode_amplitude, encode_run, magnitude_category,
    pair_window_bits, read_pair, tally_run, Alphabet, RunTable, EOB, PAIR_BITS, ZRL,
};
use crate::Bytes;
use crate::{Chroma, Format};
use smol_imgproc::ops::colorspace::{rgb_pixel_to_ycbcr, ycbcr_pixel_to_rgb, ycbcr_row_to_rgb};
use smol_imgproc::tier::{Kernel, Tier};
use smol_imgproc::{ImageU8, Rect};
use std::ops::Range;

const MAGIC: u32 = 0x534A_5047; // "SJPG"
/// Bitstream version the encoder writes: v4 stores every MCU row as two
/// segments and indexes segment 2 for seeking (see the module docs).
const VERSION: u32 = 4;
/// Two segments per row, no seek table: still decoded.
const VERSION_3: u32 = 3;
/// The earliest version still decoded: the chroma-mode byte, one segment
/// per row.
const VERSION_2: u32 = 2;
/// The encoder keeps the seek table within `1 / SEEK_BUDGET` of the body.
const SEEK_BUDGET: usize = 50;
const DC_ALPHABET: usize = 16;
const AC_ALPHABET: usize = 256;
/// The decode scale segment 1 carries in full: the split sits at the
/// zig-zag prefix a factor-`SPLIT_FACTOR` reconstruction reads, so factor 4
/// and factor 8 decodes never open segment 2.
const SPLIT_FACTOR: usize = 4;

/// Points per axis a chroma block reconstructs at, at `factor`: the luma
/// edge for 4:4:4; `min(8, 16/factor)` for 4:2:0, whose half-resolution
/// plane needs twice the edge to cover the same output patch.
fn chroma_points(chroma: Chroma, factor: usize) -> usize {
    match chroma {
        Chroma::C444 => BLOCK / factor,
        Chroma::C420 => (2 * BLOCK / factor).min(BLOCK),
    }
}

/// Where a v3 block's AC run moves from segment 1 to segment 2, per
/// component class (luma, chroma): 5 / 5 for 4:4:4, 5 / 25 for 4:2:0.
fn band_split(chroma: Chroma) -> [usize; 2] {
    [
        zigzag_prefix_for(BLOCK / SPLIT_FACTOR),
        zigzag_prefix_for(chroma_points(chroma, SPLIT_FACTOR)),
    ]
}

/// Component class of component `comp`: 0 luma, 1 chroma.
#[inline]
fn class(comp: usize) -> usize {
    (comp > 0) as usize
}

/// Work counters filled in by decode calls; used by tests and benches to
/// verify that partial decoding actually skips work.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DecodeStats {
    /// Huffman symbols read (entropy-decode effort).
    pub symbols_decoded: u64,
    /// Inverse-transform compute effort in full 8×8 IDCT equivalents. A
    /// fully-decoded block counts 1; a reduced-resolution block at scale
    /// `n` counts `2n³ / 2·8³` of a block (the MAC ratio), accumulated
    /// exactly via [`DecodeStats::idct_macs`] and floor-divided.
    pub blocks_idct: u64,
    /// Pixels color-converted and written to the output.
    pub pixels_written: u64,
    /// MCU rows skipped entirely via the row index.
    pub rows_skipped: u64,
    /// Exact multiply-accumulate count spent in inverse transforms; the
    /// raw quantity behind `blocks_idct`.
    pub idct_macs: u64,
    /// Coded coefficients dequantized for reconstruction. The fast path
    /// counts `min(coded prefix, zig-zag prefix its n-point reconstruction
    /// reads)` per in-region block, so a reduced-resolution decode shows
    /// ≤ 5 per block at factor 4 and 1 at factor 8; the scalar reference
    /// dequantizes all 64 of every block it transforms. (The fast path's
    /// multiplies run eight lanes per block row, over the rows of the
    /// `n × n` corner the coded prefix reaches.)
    pub coefs_dequantized: u64,
}

/// Decode-path configuration: kernel selection.
///
/// The default decodes through the table-driven, vectorized kernels. Both
/// settings produce **bit-identical output**: the vector kernels preserve
/// the scalar kernels' per-lane reduction order exactly.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DecodeOptions {
    /// Route IDCT and color conversion through the scalar reference
    /// kernels instead of the lane-batched ones (the correctness oracle
    /// for benches and equivalence tests).
    pub scalar_kernels: bool,
}

impl DecodeOptions {
    /// Decode through the vectorized kernels (the default).
    pub fn new() -> Self {
        Self::default()
    }

    /// The scalar reference configuration (the baseline the
    /// `decode_hotpath` bench measures against).
    pub fn scalar_reference() -> Self {
        DecodeOptions {
            scalar_kernels: true,
        }
    }
}

/// Encoder configuration.
#[derive(Debug, Clone, Copy)]
pub struct SjpgEncoder {
    pub quality: u8,
    pub chroma: Chroma,
}

impl SjpgEncoder {
    /// A 4:4:4 encoder at `quality` (the historical default).
    pub fn new(quality: u8) -> Self {
        SjpgEncoder {
            quality,
            chroma: Chroma::C444,
        }
    }

    /// An encoder with an explicit chroma mode.
    pub fn with_chroma(quality: u8, chroma: Chroma) -> Self {
        SjpgEncoder { quality, chroma }
    }

    /// Encodes an RGB image.
    pub fn encode(&self, img: &ImageU8) -> Result<Bytes> {
        self.encode_spaced(img, None)
    }

    /// [`Self::encode`] with the seek table's spacing `K` forced (`Some(0)`:
    /// no table) instead of picked from the body length, so tests can cover
    /// every spacing.
    fn encode_spaced(&self, img: &ImageU8, spacing: Option<usize>) -> Result<Bytes> {
        if img.channels() != 3 {
            return Err(Error::Image(smol_imgproc::Error::UnsupportedChannels {
                channels: img.channels(),
                op: "sjpg::encode",
            }));
        }
        if img.width() == 0 || img.height() == 0 {
            return Err(Error::BadHeader("zero-sized image".into()));
        }
        let luma_q = scale_table(&BASE_LUMA, self.quality)?;
        let chroma_q = scale_table(&BASE_CHROMA, self.quality)?;

        let planes = Planes::from_rgb(img, self.chroma);
        let mcu = self.chroma.mcu();
        let mrows = img.height().div_ceil(mcu);
        let mcols = img.width().div_ceil(mcu);
        let per_mcu = self.chroma.blocks_per_mcu();

        let split = band_split(self.chroma);

        // Pass 1: transform + quantize all blocks, gather symbol statistics.
        let mut blocks: Vec<[i16; 64]> = Vec::with_capacity(mrows * mcols * per_mcu);
        let mut dc_freq = [0u64; DC_ALPHABET];
        let mut ac_freq = [0u64; AC_ALPHABET];
        let mut pixel_block = [0.0f32; 64];
        let mut freq_block = [0.0f32; 64];
        for by in 0..mrows {
            let mut dc_pred = [0i16; 3];
            for bx in 0..mcols {
                let (sched, n) = mcu_schedule(self.chroma, bx, by);
                for &(comp, pbx, pby) in &sched[..n] {
                    planes.extract_block(comp, pbx, pby, &mut pixel_block);
                    forward_dct(&pixel_block, &mut freq_block);
                    let table = if comp == 0 { &luma_q } else { &chroma_q };
                    let mut coefs = [0i16; 64];
                    quantize_zigzag(&freq_block, table, &mut coefs);
                    let s = split[class(comp)];
                    tally_block(&coefs, dc_pred[comp], s, &mut dc_freq, &mut ac_freq);
                    dc_pred[comp] = coefs[0];
                    blocks.push(coefs);
                }
            }
        }
        let dc_table = HuffmanTable::from_frequencies(&dc_freq, 16)?;
        let ac_table = HuffmanTable::from_frequencies(&ac_freq, 16)?;

        // Pass 2: entropy-encode the body. Each MCU row is two byte-aligned
        // segments — every block's DC difference and low band, then every
        // block's high band — and the index records where each starts.
        // `marks` records where each MCU column starts in its row's segment
        // 2, in bits: the seek table's candidate entries.
        let mut body: Vec<u8> = Vec::with_capacity(img.pixel_count());
        let mut index: Vec<u32> = Vec::with_capacity(2 * mrows);
        let mut marks: Vec<u32> = Vec::with_capacity(mrows * mcols);
        let mut bi = 0usize;
        for by in 0..mrows {
            let (mut low, mut high) = (BitWriter::new(), BitWriter::new());
            let mut dc_pred = [0i16; 3];
            for bx in 0..mcols {
                marks.push(high.bit_pos() as u32);
                let (sched, n) = mcu_schedule(self.chroma, bx, by);
                for &(comp, _, _) in &sched[..n] {
                    let coefs = &blocks[bi];
                    bi += 1;
                    let s = split[class(comp)];
                    encode_dc(&mut low, coefs[0] - dc_pred[comp], &dc_table)?;
                    encode_run(&mut low, &coefs[1..s], &ac_table)?;
                    encode_run(&mut high, &coefs[s..], &ac_table)?;
                    dc_pred[comp] = coefs[0];
                }
            }
            for segment in [low, high] {
                index.push(body.len() as u32);
                body.extend_from_slice(&segment.finish());
            }
        }

        // Header.
        let (spacing, width) = match spacing {
            Some(k) if (1..mcols).contains(&k) => (k, seek_width(&marks)),
            Some(_) => (0, 0),
            None => seek_spacing(&marks, mrows, mcols, body.len()),
        };
        let mut head = BitWriter::new();
        head.put(MAGIC, 32);
        head.put(VERSION, 8);
        head.put(img.width() as u32, 16);
        head.put(img.height() as u32, 16);
        head.put(self.quality as u32, 8);
        head.put(chroma_tag(self.chroma), 8);
        dc_table.write_spec(&mut head);
        ac_table.write_spec(&mut head);
        head.put(mrows as u32, 16);
        head.put(spacing as u32, 8);
        head.put(width, 8);
        for &off in &index {
            head.put(off, 32);
        }
        if spacing > 0 {
            for row in marks.chunks(mcols) {
                for &mark in row.iter().step_by(spacing).skip(1) {
                    head.put(mark, width);
                }
            }
        }
        let mut out = head.finish();
        out.extend_from_slice(&body);
        Ok(Bytes::from(out))
    }
}

/// Bits a seek-table entry needs to hold every offset in `marks`.
fn seek_width(marks: &[u32]) -> u32 {
    (32 - marks.iter().max().map_or(0, |m| m.leading_zeros())).max(1)
}

/// The seek table the encoder writes for a body of `body_len` bytes whose
/// MCU columns start at `marks` (row-major, `mcols` per row) in their
/// segment 2: the smallest spacing `K` whose table fits in
/// 1/[`SEEK_BUDGET`] of the body, with the entry width — `(0, 0)` when that
/// leaves fewer than two seek points per row. (With one, the point lies
/// right of the row's middle, where no central crop starts.)
fn seek_spacing(marks: &[u32], mrows: usize, mcols: usize, body_len: usize) -> (usize, u32) {
    let width = seek_width(marks);
    (1..=(mcols - 1) / 2)
        .find(|&k| SEEK_BUDGET * mrows * ((mcols - 1) / k) * width as usize <= 8 * body_len)
        .map_or((0, 0), |k| (k, width))
}

fn chroma_tag(chroma: Chroma) -> u32 {
    match chroma {
        Chroma::C444 => 0,
        Chroma::C420 => 1,
    }
}

/// Component planes the encoder transforms: full-resolution luma plus
/// chroma at either full (4:4:4) or half (4:2:0) resolution. 4:2:0 chroma
/// is a rounded 2×2 box average with edge replication at odd dimensions.
struct Planes {
    y: Vec<u8>,
    cb: Vec<u8>,
    cr: Vec<u8>,
    w: usize,
    h: usize,
    cw: usize,
    ch: usize,
}

impl Planes {
    fn from_rgb(img: &ImageU8, chroma: Chroma) -> Planes {
        let (w, h) = (img.width(), img.height());
        let mut y = vec![0u8; w * h];
        match chroma {
            Chroma::C444 => {
                let mut cb = vec![0u8; w * h];
                let mut cr = vec![0u8; w * h];
                for yy in 0..h {
                    for x in 0..w {
                        let (l, b, r) = rgb_pixel_to_ycbcr(
                            img.at(x, yy, 0),
                            img.at(x, yy, 1),
                            img.at(x, yy, 2),
                        );
                        let i = yy * w + x;
                        y[i] = l;
                        cb[i] = b;
                        cr[i] = r;
                    }
                }
                Planes {
                    y,
                    cb,
                    cr,
                    w,
                    h,
                    cw: w,
                    ch: h,
                }
            }
            Chroma::C420 => {
                for yy in 0..h {
                    for x in 0..w {
                        let (l, _, _) = rgb_pixel_to_ycbcr(
                            img.at(x, yy, 0),
                            img.at(x, yy, 1),
                            img.at(x, yy, 2),
                        );
                        y[yy * w + x] = l;
                    }
                }
                let (cw, ch) = (w.div_ceil(2), h.div_ceil(2));
                let mut cb = vec![0u8; cw * ch];
                let mut cr = vec![0u8; cw * ch];
                for cy in 0..ch {
                    for cx in 0..cw {
                        let mut sb = 0u32;
                        let mut sr = 0u32;
                        for (dy, dx) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                            let sx = (2 * cx + dx).min(w - 1);
                            let sy = (2 * cy + dy).min(h - 1);
                            let (_, b, r) = rgb_pixel_to_ycbcr(
                                img.at(sx, sy, 0),
                                img.at(sx, sy, 1),
                                img.at(sx, sy, 2),
                            );
                            sb += b as u32;
                            sr += r as u32;
                        }
                        cb[cy * cw + cx] = ((sb + 2) >> 2) as u8;
                        cr[cy * cw + cx] = ((sr + 2) >> 2) as u8;
                    }
                }
                Planes {
                    y,
                    cb,
                    cr,
                    w,
                    h,
                    cw,
                    ch,
                }
            }
        }
    }

    /// Extracts one 8×8 level-shifted block from a component plane at block
    /// coordinates `(bx, by)` of that plane, replicating edge samples.
    fn extract_block(&self, comp: usize, bx: usize, by: usize, out: &mut [f32; 64]) {
        let (plane, pw, ph) = match comp {
            0 => (&self.y, self.w, self.h),
            1 => (&self.cb, self.cw, self.ch),
            _ => (&self.cr, self.cw, self.ch),
        };
        for dy in 0..BLOCK {
            let sy = (by * BLOCK + dy).min(ph - 1);
            for dx in 0..BLOCK {
                let sx = (bx * BLOCK + dx).min(pw - 1);
                out[dy * BLOCK + dx] = plane[sy * pw + sx] as f32 - 128.0;
            }
        }
    }
}

/// Stream-order component blocks of one MCU: `(component, plane_bx,
/// plane_by)` in 8×8 block coordinates of that component's plane. 4:4:4
/// MCUs are one block per component; 4:2:0 MCUs carry four luma blocks
/// (2×2 grid, raster order) followed by Cb and Cr at half resolution.
fn mcu_schedule(chroma: Chroma, bx: usize, by: usize) -> ([(usize, usize, usize); 6], usize) {
    match chroma {
        Chroma::C444 => (
            [
                (0, bx, by),
                (1, bx, by),
                (2, bx, by),
                (0, 0, 0),
                (0, 0, 0),
                (0, 0, 0),
            ],
            3,
        ),
        Chroma::C420 => (
            [
                (0, 2 * bx, 2 * by),
                (0, 2 * bx + 1, 2 * by),
                (0, 2 * bx, 2 * by + 1),
                (0, 2 * bx + 1, 2 * by + 1),
                (1, bx, by),
                (2, bx, by),
            ],
            6,
        ),
    }
}

/// The frame and MCU-row index of an sjpg stream: the whole header with
/// its two table specs read and checked, but not built. Everything a
/// stream's geometry and coded byte layout say is here, and reading it
/// costs no Huffman lookup table — the cascade router's difficulty signal
/// (`crate::signal`) reads this alone. Decoders read an [`SjpgHeader`].
#[derive(Debug, Clone)]
pub struct SjpgFrame {
    pub width: usize,
    pub height: usize,
    pub quality: u8,
    pub chroma: Chroma,
    /// Per-symbol code lengths of the DC and the AC table, as their specs
    /// list them; [`HuffmanTable::read_lengths`] has checked that both
    /// build.
    lengths: [Vec<u8>; 2],
    /// The row index as `2 · rows + 1` non-decreasing body offsets: row
    /// `by`'s segments are `index[2by]..index[2by + 1]` and
    /// `index[2by + 1]..index[2by + 2]`, and the last entry is the body's
    /// length. A v2 row is a v3 row whose segment 2 is empty.
    index: Vec<u32>,
    /// Zig-zag index where a block's AC run moves to segment 2, per
    /// component class ([`band_split`]; 64 for a v2 stream).
    split: [usize; 2],
    /// Where the seek table lies; parsed, never read here.
    seek: SeekTable,
    /// Byte offset where the body begins.
    body_start: usize,
}

/// The layout of a v4 stream's seek table (see the module docs). Parsing
/// a frame checks that the table fits before the body; its entries are
/// read and checked only by a decode that seeks ([`SjpgFrame::seek_offset`]).
#[derive(Debug, Clone, Copy)]
struct SeekTable {
    /// MCU columns between seek points; 0 when the stream has no table.
    spacing: usize,
    /// Seek points per row: columns `spacing`, `2 · spacing`, … below the
    /// row's MCU count.
    points: usize,
    /// Bits per entry, 1 to 32 when there is a table.
    width: u32,
    /// Bit position of the first entry in the stream.
    at: u64,
}

impl SjpgFrame {
    /// Reads and checks the header (frame, table specs, row index) without
    /// touching the body or building a table. Everything [`SjpgHeader::parse`]
    /// rejects, this rejects: the table build after it cannot fail.
    pub fn parse(data: &[u8]) -> Result<Self> {
        let mut r = BitReader::new(data);
        if r.bits(32)? != MAGIC {
            return Err(Error::BadMagic { expected: "SJPG" });
        }
        let version = r.bits(8)?;
        if !(VERSION_2..=VERSION).contains(&version) {
            return Err(Error::BadHeader("unsupported version".into()));
        }
        let width = r.bits(16)? as usize;
        let height = r.bits(16)? as usize;
        let quality = r.bits(8)? as u8;
        if quality == 0 || quality > 100 {
            // Reject up front with the same typed error the quantizer uses:
            // a corrupted quality byte must not reach table scaling (or,
            // worse, a hand-rolled divide) downstream.
            return Err(Error::BadQuality(quality));
        }
        let chroma = match r.bits(8)? {
            0 => Chroma::C444,
            1 => Chroma::C420,
            tag => return Err(Error::BadHeader(format!("unknown chroma mode {tag}"))),
        };
        if width == 0 || height == 0 {
            return Err(Error::BadHeader("zero-sized image".into()));
        }
        let lengths = [
            HuffmanTable::read_lengths(&mut r, DC_ALPHABET)?,
            HuffmanTable::read_lengths(&mut r, AC_ALPHABET)?,
        ];
        let n_rows = r.bits(16)? as usize;
        if n_rows != height.div_ceil(chroma.mcu()) {
            return Err(Error::BadHeader(format!(
                "row index has {n_rows} entries for height {height}"
            )));
        }
        // v4: the seek table's spacing and entry width.
        let (spacing, bits) = if version == VERSION {
            (r.bits(8)? as usize, r.bits(8)?)
        } else {
            (0, 0)
        };
        let mcols = width.div_ceil(chroma.mcu());
        let points = (mcols - 1).checked_div(spacing).unwrap_or(0);
        if spacing > 0 && (points == 0 || !(1..=32).contains(&bits)) {
            return Err(Error::BadHeader(format!(
                "seek table of {bits}-bit entries every {spacing} of {mcols} MCU columns"
            )));
        }
        // v3 and v4 index both segments of every row, v2 one offset per row.
        let per_row = if version >= VERSION_3 { 2 } else { 1 };
        let seek = SeekTable {
            spacing,
            points,
            width: bits,
            at: r.bit_pos() + 32 * (per_row * n_rows) as u64,
        };
        let seek_bits = (n_rows * seek.points) as u64 * seek.width as u64;
        // A header is worth only what its body can back. Every coded block
        // costs at least two bits (a DC code, then an AC or end-of-block
        // code), so a body too short for the claimed geometry at that rate —
        // 33 KB of file claiming 65 535 × 65 535 pixels, 12 GB decoded — is
        // rejected here, before anything is sized from the dimensions.
        let body_start = (seek.at + seek_bits).div_ceil(8) as usize;
        let body_len = data.len().checked_sub(body_start).ok_or(Error::Truncated {
            context: "sjpg row index and seek table",
        })?;
        let blocks = coded_blocks(width, n_rows, chroma);
        if body_len * 8 < 2 * blocks {
            return Err(Error::BadHeader(format!(
                "{width}x{height} needs {blocks} coded blocks; a {body_len}-byte body cannot hold them"
            )));
        }
        // Every offset lies inside the body and none precedes the one
        // before it — a segment 2 below its segment 1, or a row before its
        // predecessor, would hand a reader a reversed range.
        let mut index = Vec::with_capacity(2 * n_rows + 1);
        for i in 0..per_row * n_rows {
            let offset = r.bits(32)?;
            let (row, segment) = (i / per_row, i % per_row + 1);
            if offset as usize > body_len {
                return Err(Error::BadHeader(format!(
                    "row {row} segment {segment} starts at byte {offset} of a {body_len}-byte body"
                )));
            }
            if let Some(&before) = index.last().filter(|&&before| offset < before) {
                return Err(Error::BadHeader(format!(
                    "row {row} segment {segment} starts at byte {offset}, before the previous segment at byte {before}"
                )));
            }
            if per_row == 1 && i > 0 {
                // A v2 row: the previous row's empty segment 2 sits where
                // this row starts.
                index.push(offset);
            }
            index.push(offset);
        }
        if per_row == 1 {
            index.push(body_len as u32);
        }
        index.push(body_len as u32);
        debug_assert_eq!(index.len(), 2 * n_rows + 1);
        debug_assert_eq!(r.bit_pos(), seek.at);
        Ok(SjpgFrame {
            width,
            height,
            quality,
            chroma,
            lengths,
            index,
            split: if version >= VERSION_3 {
                band_split(chroma)
            } else {
                [64; 2]
            },
            seek,
            body_start,
        })
    }

    /// The last seek point at or left of MCU column `bx0`, as its index `j`
    /// along the row (0: the start of segment 2; point `j` sits at column
    /// `j · K`).
    fn seek_point(&self, bx0: usize) -> usize {
        (bx0 / self.seek.spacing.max(1)).min(self.seek.points)
    }

    /// Bit offset in row `by`'s segment 2 of seek point `j`, read from the
    /// seek table of `data` (the whole stream) and checked as the row index
    /// is: the row's entries up to `j` may not decrease, nor point past the
    /// end of the segment.
    fn seek_offset(&self, data: &[u8], by: usize, j: usize) -> Result<u64> {
        if j == 0 {
            return Ok(0);
        }
        let table = &self.seek;
        let mut r = BitReader::new(data);
        r.seek_bits(table.at + (by * table.points) as u64 * table.width as u64)?;
        let len = 8 * self.segments(by)[1].len() as u64;
        let mut offset = 0;
        for point in 1..=j {
            let next = r.bits(table.width)? as u64;
            if next < offset || next > len {
                return Err(Error::BadHeader(format!(
                    "row {by} seek point {point} at bit {next}: segment 2 holds {len} bits and \
                     the point before starts at bit {offset}"
                )));
            }
            offset = next;
        }
        Ok(offset)
    }

    /// MCU edge in pixels (8 for 4:4:4, 16 for 4:2:0).
    pub fn mcu(&self) -> usize {
        self.chroma.mcu()
    }

    /// MCU rows in the stream.
    fn rows(&self) -> usize {
        self.index.len() / 2
    }

    /// Blocks the stream codes, luma and chroma.
    pub(crate) fn blocks(&self) -> usize {
        coded_blocks(self.width, self.rows(), self.chroma)
    }

    /// Body byte ranges of MCU row `by`'s two segments.
    fn segments(&self, by: usize) -> [Range<usize>; 2] {
        let at = |i: usize| self.index[i] as usize;
        [at(2 * by)..at(2 * by + 1), at(2 * by + 1)..at(2 * by + 2)]
    }

    /// Body bytes a decode reads: every segment of every row, or only each
    /// row's segment 1 when it stops at the split.
    pub(crate) fn coded_bytes(&self, high: bool) -> usize {
        (0..self.rows())
            .map(|by| {
                let [low, rest] = self.segments(by);
                low.len() + if high { rest.len() } else { 0 }
            })
            .sum()
    }
}

/// Blocks coded by `n_rows` MCU rows of a `width`-pixel-wide image.
fn coded_blocks(width: usize, n_rows: usize, chroma: Chroma) -> usize {
    width.div_ceil(chroma.mcu()) * n_rows * chroma.blocks_per_mcu()
}

/// Parsed header: the [`SjpgFrame`] with its entropy tables built — what a
/// decoder reads. Derefs to the frame.
#[derive(Debug, Clone)]
pub struct SjpgHeader {
    frame: SjpgFrame,
    dc_table: HuffmanTable,
    ac_table: HuffmanTable,
}

impl SjpgHeader {
    /// Parses the header (tables + index) without touching the body: the
    /// frame ([`SjpgFrame::parse`]), then the two tables built from its
    /// checked specs.
    pub fn parse(data: &[u8]) -> Result<Self> {
        let mut frame = SjpgFrame::parse(data)?;
        let [dc, ac] = std::mem::take(&mut frame.lengths);
        Ok(SjpgHeader {
            dc_table: HuffmanTable::from_lengths(dc)?,
            ac_table: HuffmanTable::from_lengths(ac)?,
            frame,
        })
    }
}

impl std::ops::Deref for SjpgHeader {
    type Target = SjpgFrame;

    fn deref(&self) -> &SjpgFrame {
        &self.frame
    }
}

/// Reads only the image dimensions from an encoded buffer.
pub fn peek_dims(data: &[u8]) -> Result<(usize, usize)> {
    let mut r = BitReader::new(data);
    if r.bits(32)? != MAGIC {
        return Err(Error::BadMagic { expected: "SJPG" });
    }
    let _ = r.bits(8)?;
    let w = r.bits(16)? as usize;
    let h = r.bits(16)? as usize;
    Ok((w, h))
}

/// Fully decodes an sjpg buffer.
pub fn decode(data: &[u8]) -> Result<ImageU8> {
    decode_with_stats(data).map(|(img, _)| img)
}

/// Fully decodes, returning work counters.
pub fn decode_with_stats(data: &[u8]) -> Result<(ImageU8, DecodeStats)> {
    decode_with_opts(data, DecodeOptions::default())
}

/// Fully decodes with explicit decode options (kernel selection). Output is
/// bit-identical under both.
pub fn decode_with_opts(data: &[u8], opts: DecodeOptions) -> Result<(ImageU8, DecodeStats)> {
    let header = SjpgHeader::parse(data)?;
    let full = Rect::new(0, 0, header.width, header.height);
    decode_region(data, &header, full, opts)
}

/// Full fast-path decode behind an explicit `bits`-wide pair-LUT window
/// (`1..=12`) instead of the one [`pair_window_bits`] picks from the body
/// length. Output never depends on the window; this exists so the
/// microbench can re-measure the crossovers those thresholds encode.
#[doc(hidden)]
pub fn decode_with_window(data: &[u8], bits: u32) -> Result<(ImageU8, DecodeStats)> {
    let header = SjpgHeader::parse(data)?;
    let full = Rect::new(0, 0, header.width, header.height);
    let geom = Geometry::new(&header, 1, full);
    decode_mcu_rows(
        data,
        &header,
        geom,
        (0, header.rows()),
        (0, geom.mcols),
        DecodeOptions::default(),
        Some(bits.clamp(1, PAIR_BITS)),
    )
}

/// Decodes only the macroblock-aligned region covering `roi`
/// (Figure 3, left: macroblock-based partial decoding).
///
/// Returns the decoded sub-image together with the aligned region it covers
/// (callers crop to the exact ROI afterwards if needed). The alignment unit
/// is the MCU edge: 8 px for 4:4:4, 16 px for 4:2:0.
pub fn decode_roi(data: &[u8], roi: Rect) -> Result<(ImageU8, Rect, DecodeStats)> {
    decode_roi_opts(data, roi, DecodeOptions::default())
}

/// [`decode_roi`] with explicit decode options.
pub fn decode_roi_opts(
    data: &[u8],
    roi: Rect,
    opts: DecodeOptions,
) -> Result<(ImageU8, Rect, DecodeStats)> {
    let header = SjpgHeader::parse(data)?;
    if !roi.fits_in(header.width, header.height) || roi.w == 0 || roi.h == 0 {
        return Err(Error::BadRegion(format!(
            "roi {roi:?} invalid for {}x{}",
            header.width, header.height
        )));
    }
    let format = Format::Sjpg {
        quality: header.quality,
        chroma: header.chroma,
    };
    let aligned = crate::roi_region(format, header.width, header.height, roi);
    let (img, stats) = decode_region(data, &header, aligned, opts)?;
    Ok((img, aligned, stats))
}

/// Decodes only the top `n_rows` pixel rows (raster-order early stopping,
/// Figure 3, right).
pub fn decode_rows(data: &[u8], n_rows: usize) -> Result<(ImageU8, DecodeStats)> {
    let header = SjpgHeader::parse(data)?;
    let mcu = header.mcu();
    let h = n_rows.min(header.height).max(1);
    let region = Rect::new(0, 0, header.width, h.div_ceil(mcu) * mcu).align_to_blocks(
        mcu,
        header.width,
        header.height,
    );
    decode_region(data, &header, region, DecodeOptions::default())
}

/// Output dimensions of a reduced-resolution decode of a `w × h` image at
/// `factor` (each 8×8 block reconstructs to an `8/factor`-edge patch; edge
/// blocks are clipped to the scaled image bounds).
fn reduced_dims(w: usize, h: usize, factor: usize) -> (usize, usize) {
    (w.div_ceil(factor), h.div_ceil(factor))
}

/// Decodes directly to `1/factor` resolution via a scaled IDCT
/// (multi-resolution decoding, Table 4): only the top-left
/// `(8/factor) × (8/factor)` coefficients of each block feed an
/// `8/factor`-point inverse transform, so the downsample is fused into the
/// decoder instead of being a post-decode resize. `factor` must be 1
/// (full decode), 2, 4, or 8 (DC-only).
///
/// The output approximates a box-downsample of the full decode at the same
/// geometry; `DecodeStats::idct_macs`/`blocks_idct` prove the skipped
/// transform work (`2n³` MACs per block instead of `2·8³`). For 4:2:0
/// streams the chroma blocks reconstruct at `min(8, 16/factor)` points per
/// axis, so at factor ≥ 2 the half-resolution chroma patch exactly tiles
/// the MCU's output patch with no upsampling step at all.
///
/// At factor 4 and 8 a v3 stream is read from each row's segment 1 alone
/// (see the module docs): `DecodeStats::symbols_decoded` shows the skipped
/// entropy work too.
pub fn decode_scaled(data: &[u8], factor: usize) -> Result<(ImageU8, DecodeStats)> {
    decode_scaled_opts(data, factor, DecodeOptions::default())
}

/// [`decode_scaled`] with explicit decode options.
pub fn decode_scaled_opts(
    data: &[u8],
    factor: usize,
    opts: DecodeOptions,
) -> Result<(ImageU8, DecodeStats)> {
    if factor == 1 {
        return decode_with_opts(data, opts);
    }
    if !matches!(factor, 2 | 4 | 8) {
        return Err(Error::BadRegion(format!(
            "reduced-resolution factor must be 1, 2, 4, or 8, got {factor}"
        )));
    }
    let header = SjpgHeader::parse(data)?;
    let (out_w, out_h) = reduced_dims(header.width, header.height, factor);
    let geom = Geometry::new(&header, factor, Rect::new(0, 0, out_w, out_h));
    decode_mcu_rows(
        data,
        &header,
        geom,
        (0, header.rows()),
        (0, geom.mcols),
        opts,
        None,
    )
}

// ---------------------------------------------------------------------------
// Unified MCU-row decoder
// ---------------------------------------------------------------------------

/// Decode-side geometry shared by every factor/chroma combination.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    chroma: Chroma,
    factor: usize,
    /// Output patch edge per MCU: `mcu / factor`.
    patch: usize,
    /// Luma block reconstruction edge: `8 / factor`.
    ny: usize,
    /// Chroma block reconstruction edge (4:4:4: `ny`; 4:2:0:
    /// `min(8, 16/factor)` — equals `patch` for factor ≥ 2).
    nc: usize,
    /// MCUs per row.
    mcols: usize,
    /// Region written, in *output* coordinates (the output image is
    /// `oregion.w × oregion.h`; for reduced decodes this is the reduced
    /// full image, for ROI decodes the aligned full-resolution region).
    oregion: Rect,
}

impl Geometry {
    fn new(header: &SjpgHeader, factor: usize, oregion: Rect) -> Geometry {
        let mcu = header.mcu();
        Geometry {
            chroma: header.chroma,
            factor,
            patch: mcu / factor,
            ny: BLOCK / factor,
            nc: chroma_points(header.chroma, factor),
            mcols: header.width.div_ceil(mcu),
            oregion,
        }
    }

    /// Whether a reconstruction at this geometry reads past either
    /// component class's split — i.e. needs segment 2 of `header`'s rows.
    /// False at factor 4 and 8 on a v3 stream and for every decode of a v2
    /// stream (split 64: segment 2 is empty).
    fn reads_high_band(&self, header: &SjpgHeader) -> bool {
        zigzag_prefix_for(self.ny) > header.split[0] || zigzag_prefix_for(self.nc) > header.split[1]
    }
}

/// Core region decoder (factor 1). `region` must be MCU-aligned (except at
/// image edges where it is clamped).
fn decode_region(
    data: &[u8],
    header: &SjpgHeader,
    region: Rect,
    opts: DecodeOptions,
) -> Result<(ImageU8, DecodeStats)> {
    let mcu = header.mcu();
    let geom = Geometry::new(header, 1, region);
    let by0 = region.y / mcu;
    let by1 = region.y_end().div_ceil(mcu).min(header.rows());
    let bx0 = region.x / mcu;
    let bx1 = region.x_end().div_ceil(mcu).min(geom.mcols);
    decode_mcu_rows(data, header, geom, (by0, by1), (bx0, bx1), opts, None)
}

/// Decodes MCU rows `[rows.0, rows.1)` of the stream `data` up to MCU
/// column `cols.1` into a fresh `geom.oregion`-sized image, behind a
/// `window`-bit pair LUT (`None`: the one [`pair_window_bits`] picks for the
/// bytes the decode reads).
fn decode_mcu_rows(
    data: &[u8],
    header: &SjpgHeader,
    geom: Geometry,
    rows: (usize, usize),
    cols: (usize, usize),
    opts: DecodeOptions,
    window: Option<u32>,
) -> Result<(ImageU8, DecodeStats)> {
    let mut out = ImageU8::zeros(geom.oregion.w, geom.oregion.h, 3);
    // The scalar oracle stays on the build's own target.
    let tier = if opts.scalar_kernels {
        Tier::BASELINE
    } else {
        decode_tier()
    };
    let mut stats = tier.run(DecodeRows {
        data,
        header,
        geom,
        rows,
        cols,
        pixels: out.data_mut(),
        opts,
        window,
    })?;
    stats.rows_skipped = (header.rows() - (rows.1 - rows.0)) as u64;
    stats.blocks_idct = stats.idct_macs / FULL_IDCT_MACS;
    Ok((out, stats))
}

/// The tier a fast-path decode runs under: the widest the CPU supports.
/// This crate's tests pin it per thread to compare the tiers.
#[inline]
fn decode_tier() -> Tier {
    #[cfg(test)]
    if let Some(tier) = tests::FORCED_TIER.get() {
        return tier;
    }
    Tier::detect()
}

/// [`decode_rows_into`] as a [`Kernel`], so [`decode_mcu_rows`] can run the
/// whole block loop — entropy decode aside, dequantization, the IDCT, u8
/// conversion and colour conversion — under one [`Tier`]. Each tier's entry
/// is its own function, so the output arrives as a `&mut [u8]` parameter:
/// with the loop inlined behind the allocation, `fullres_cold` measured 12 %
/// more CPU per item.
struct DecodeRows<'a> {
    data: &'a [u8],
    header: &'a SjpgHeader,
    geom: Geometry,
    rows: (usize, usize),
    cols: (usize, usize),
    pixels: &'a mut [u8],
    opts: DecodeOptions,
    window: Option<u32>,
}

impl Kernel for DecodeRows<'_> {
    type Output = Result<DecodeStats>;

    #[inline(always)]
    fn run(self) -> Result<DecodeStats> {
        decode_rows_into(
            self.data,
            self.header,
            self.geom,
            self.rows,
            self.cols,
            self.pixels,
            self.opts,
            self.window,
        )
    }
}

/// The decode loop of [`decode_mcu_rows`], opening each row through the
/// index (DC predictors reset at every row start, so rows share no decode
/// state) and, when the decode starts right of the row's first seek point,
/// its segment 2 through the seek table. Everything it calls per block or
/// per row is inlined into it, so each [`Tier`]'s copy of [`DecodeRows`]
/// compiles all of it for that tier; only the entropy decoder
/// ([`decode_block_fast`]) stays one shared out-of-line function.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn decode_rows_into(
    data: &[u8],
    header: &SjpgHeader,
    geom: Geometry,
    rows: (usize, usize),
    cols: (usize, usize),
    pixels: &mut [u8],
    opts: DecodeOptions,
    window: Option<u32>,
) -> Result<DecodeStats> {
    let mut stats = DecodeStats::default();
    let luma_q = scale_table(&BASE_LUMA, header.quality)?;
    let chroma_q = scale_table(&BASE_CHROMA, header.quality)?;
    // The fast path's f32 steps, converted once per decode.
    let (luma_s, chroma_s) = (dequant_steps(&luma_q), dequant_steps(&chroma_q));
    let (bx0, bx1) = cols;
    let n_luma = match geom.chroma {
        Chroma::C444 => 1,
        Chroma::C420 => 4,
    };
    let mut coefs = [0i16; 64];
    let mut freq = [0.0f32; 64];
    let mut ybufs = [[0.0f32; 64]; 4];
    let mut cbuf = [0.0f32; 64];
    let mut crbuf = [0.0f32; 64];
    // Fast path: fully-decoded entropy tables, built once per decode behind
    // a window sized to the bytes it reads — 2 × 4096 entries are
    // microseconds against the thousands of blocks of a large body, and
    // most of the decode of a 1 KB keyframe.
    let high = geom.reads_high_band(header);
    let window = window.unwrap_or_else(|| pair_window_bits(header.coded_bytes(high)));
    let dec = RowDecoder::new(header, data, opts, high, window, bx0);
    // Fast path: MCUs land in planar u8 row strips spanning the full
    // output width; color conversion runs once per completed image row so
    // [`ycbcr_row_to_rgb`] sees long contiguous rows instead of patch-wide
    // fragments.
    let reg = geom.oregion;
    let (mut ystrip, mut cbstrip, mut crstrip) = if opts.scalar_kernels {
        (Vec::new(), Vec::new(), Vec::new())
    } else {
        (
            vec![0u8; reg.w * geom.patch],
            vec![0u8; reg.w * geom.patch],
            vec![0u8; reg.w * geom.patch],
        )
    };
    for by in rows.0..rows.1 {
        // Open the row's segments straight through the index — rows are
        // independent (DC predictors reset per row, like JPEG restart
        // intervals).
        let mut row = dec.open(by)?;
        let mut dc_pred = [0i16; 3];
        for bx in 0..bx1 {
            let in_roi = bx >= bx0;
            let high = dec.reads_high_band(bx);
            for ybuf in ybufs.iter_mut().take(n_luma) {
                let coded = dec.block(&mut row, 0, high, dc_pred[0], &mut coefs, &mut stats)?;
                dc_pred[0] = coefs[0];
                if in_roi {
                    stats.coefs_dequantized += dequant_idct(
                        &coefs, coded, &luma_q, &luma_s, &mut freq, geom.ny, ybuf, opts,
                    );
                    stats.idct_macs += scaled_idct_macs(geom.ny);
                }
            }
            for (comp, buf) in [(1usize, &mut cbuf), (2, &mut crbuf)] {
                let coded =
                    dec.block(&mut row, comp, high, dc_pred[comp], &mut coefs, &mut stats)?;
                dc_pred[comp] = coefs[0];
                if in_roi {
                    stats.coefs_dequantized += dequant_idct(
                        &coefs, coded, &chroma_q, &chroma_s, &mut freq, geom.nc, buf, opts,
                    );
                    stats.idct_macs += scaled_idct_macs(geom.nc);
                }
            }
            if in_roi {
                if opts.scalar_kernels {
                    write_mcu(&geom, &ybufs, &cbuf, &crbuf, bx, by, pixels, &mut stats);
                } else if let Some(x0) = whole_block_column(&geom, bx, by) {
                    write_block_strip(
                        [&ybufs[0], &cbuf, &crbuf],
                        x0,
                        reg.w,
                        [&mut ystrip, &mut cbstrip, &mut crstrip],
                    );
                    stats.pixels_written += (BLOCK * BLOCK) as u64;
                } else {
                    write_mcu_strip(
                        &geom,
                        &ybufs,
                        &cbuf,
                        &crbuf,
                        bx,
                        by,
                        &mut ystrip,
                        &mut cbstrip,
                        &mut crstrip,
                        &mut stats,
                    );
                }
            }
        }
        row.finish()?;
        if !opts.scalar_kernels {
            // Flush the completed MCU row: full-width color conversion per
            // image row. The MCUs above covered every column of each
            // in-region row exactly once, so the strips are fully written.
            for dy in 0..geom.patch {
                let oy = by * geom.patch + dy;
                if oy < reg.y || oy >= reg.y_end() {
                    continue;
                }
                let off = (oy - reg.y) * reg.w * 3;
                ycbcr_row_to_rgb(
                    &ystrip[dy * reg.w..(dy + 1) * reg.w],
                    &cbstrip[dy * reg.w..(dy + 1) * reg.w],
                    &crstrip[dy * reg.w..(dy + 1) * reg.w],
                    &mut pixels[off..off + 3 * reg.w],
                );
            }
        }
        // Early stop within the row: blocks right of bx1 are never read —
        // the next iteration seeks to the next row offset.
    }
    Ok(stats)
}

/// Dequantize-then-IDCT for one block; returns how many coded
/// coefficients the reconstruction reads. The reference path reproduces the
/// seed implementation exactly — dense dequantization of the zig-zag block
/// over a pre-zeroed one, scalar transform — and serves as the baseline
/// oracle. The fast path gets a natural-order block from the entropy decoder
/// and fuses: [`dequantize_corner`] multiplies, eight lanes per row, only the
/// rows of the `n × n` corner its coded prefix reaches, and its row mask
/// drives zero-row skipping in the vectorized transform. Its count is the
/// coded prefix capped at the zig-zag prefix an `n`-point reconstruction
/// reads ([`zigzag_prefix_for`]).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn dequant_idct(
    coefs: &[i16; 64],
    coded: usize,
    table: &[u16; 64],
    steps: &[f32; 64],
    freq: &mut [f32; 64],
    n: usize,
    out: &mut [f32; 64],
    opts: DecodeOptions,
) -> u64 {
    if opts.scalar_kernels {
        dequantize_zigzag(coefs, table, freq);
        inverse_dct_scaled(freq, n, out);
        64
    } else {
        let row_mask = dequantize_corner(coefs, coded, steps, n, freq);
        inverse_dct_scaled_vec_masked(freq, n, row_mask, out);
        coded.min(zigzag_prefix_for(n)) as u64
    }
}

/// Round-to-nearest reconstruction of one level-shifted sample. Rounding
/// (not truncation) matters: `as u8` on the raw float truncated toward
/// zero, a systematic ~0.5-LSB dark bias on every decoded pixel.
#[inline]
fn to_u8(v: f32) -> u8 {
    (v + 128.0).round().clamp(0.0, 255.0) as u8
}

/// Identical to [`to_u8`] for every input, without a libm-style round:
/// it is `(v + 128.5) as u8`, and round-half-up (`+0.5` then truncate) only
/// differs from round-half-away-from-zero below zero, where both saturate
/// to 0. The saturating `as u8` itself does not vectorize (one scalar
/// convert per sample), so it is spelled out in arithmetic that does: clamp
/// to `0..=255`, then truncate the way `smol_imgproc`'s compiled prefix
/// does — `s + 2²³` holds `s` rounded to the nearest integer in its low
/// mantissa bits, one above the truncation exactly when the rounding went
/// up. NaN maps to 0, as under the cast. Used on the fast decode path; the
/// reference path keeps the spelled-out rounding as the oracle.
#[inline(always)]
fn to_u8_fast(v: f32) -> u8 {
    const TWO_POW_23: f32 = 8_388_608.0;
    let s = (v + 128.5).clamp(0.0, 255.0);
    let r = s + TWO_POW_23;
    (r.to_bits() as u8).wrapping_sub((r - TWO_POW_23 > s) as u8)
}

#[inline(always)]
fn luma_sample(geom: &Geometry, ybufs: &[[f32; 64]; 4], dy: usize, dx: usize) -> f32 {
    match geom.chroma {
        Chroma::C444 => ybufs[0][dy * geom.ny + dx],
        Chroma::C420 => {
            let b = (dy / geom.ny) * 2 + dx / geom.ny;
            ybufs[b][(dy % geom.ny) * geom.ny + (dx % geom.ny)]
        }
    }
}

#[inline(always)]
fn chroma_sample(geom: &Geometry, buf: &[f32; 64], dy: usize, dx: usize) -> f32 {
    match geom.chroma {
        Chroma::C444 => buf[dy * geom.nc + dx],
        Chroma::C420 => {
            if geom.factor == 1 {
                // Full decode: replicate-upsample the half-resolution plane.
                buf[(dy / 2) * BLOCK + dx / 2]
            } else {
                // factor ≥ 2: nc == patch, the chroma patch tiles exactly.
                buf[dy * geom.nc + dx]
            }
        }
    }
}

/// Writes one decoded MCU's output patch into the output pixels, converting
/// to RGB and clipping to the output region. Reference path only: one
/// sample at a time through the scalar kernels, as the seed decoder did.
#[allow(clippy::too_many_arguments)]
fn write_mcu(
    geom: &Geometry,
    ybufs: &[[f32; 64]; 4],
    cbuf: &[f32; 64],
    crbuf: &[f32; 64],
    bx: usize,
    by: usize,
    pixels: &mut [u8],
    stats: &mut DecodeStats,
) {
    let p = geom.patch;
    let reg = geom.oregion;
    let ox0 = bx * p;
    let dx0 = reg.x.saturating_sub(ox0).min(p);
    let dx1 = reg.x_end().min(ox0 + p).saturating_sub(ox0);
    if dx1 <= dx0 {
        return;
    }
    let cw = dx1 - dx0;
    let mut yrow = [0u8; 16];
    let mut cbrow = [0u8; 16];
    let mut crrow = [0u8; 16];
    for dy in 0..p {
        let oy = by * p + dy;
        if oy < reg.y || oy >= reg.y_end() {
            continue;
        }
        let off = ((oy - reg.y) * reg.w + (ox0 + dx0 - reg.x)) * 3;
        let dst = &mut pixels[off..off + 3 * cw];
        for (i, dx) in (dx0..dx1).enumerate() {
            yrow[i] = to_u8(luma_sample(geom, ybufs, dy, dx));
            cbrow[i] = to_u8(chroma_sample(geom, cbuf, dy, dx));
            crrow[i] = to_u8(chroma_sample(geom, crbuf, dy, dx));
        }
        for (i, d) in dst.chunks_exact_mut(3).enumerate() {
            let (r, g, b) = ycbcr_pixel_to_rgb(yrow[i], cbrow[i], crrow[i]);
            d[0] = r;
            d[1] = g;
            d[2] = b;
        }
        stats.pixels_written += cw as u64;
    }
}

/// Fast-path counterpart of [`write_mcu`]: converts the MCU's samples to
/// u8 into *planar row strips* spanning the whole MCU row. Color
/// conversion then runs once per completed image row over the full strip
/// (see the flush in [`decode_rows_into`]) — long contiguous rows instead of
/// ≤ 16-pixel segments, which is what lets [`ycbcr_row_to_rgb`]'s planar
/// lanes vectorize. Same per-sample conversion, same per-pixel color
/// math, so output is bit-identical to converting MCU-by-MCU.
///
/// This is the per-row path: it clips each patch row to the output region
/// and converts it on its own. The fast path takes it for the MCUs a
/// region edge cuts, for 4:2:0 (whose rows cross two luma blocks and
/// replicate chroma) and for scaled patches; a whole 4:4:4 block inside the
/// region goes through [`write_block_strip`] instead.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn write_mcu_strip(
    geom: &Geometry,
    ybufs: &[[f32; 64]; 4],
    cbuf: &[f32; 64],
    crbuf: &[f32; 64],
    bx: usize,
    by: usize,
    ystrip: &mut [u8],
    cbstrip: &mut [u8],
    crstrip: &mut [u8],
    stats: &mut DecodeStats,
) {
    let p = geom.patch;
    let reg = geom.oregion;
    let ox0 = bx * p;
    let dx0 = reg.x.saturating_sub(ox0).min(p);
    let dx1 = reg.x_end().min(ox0 + p).saturating_sub(ox0);
    if dx1 <= dx0 {
        return;
    }
    let cw = dx1 - dx0;
    let x0 = ox0 + dx0 - reg.x;
    for dy in 0..p {
        let oy = by * p + dy;
        if oy < reg.y || oy >= reg.y_end() {
            continue;
        }
        let yrow = &mut ystrip[dy * reg.w + x0..dy * reg.w + x0 + cw];
        let cbrow = &mut cbstrip[dy * reg.w + x0..dy * reg.w + x0 + cw];
        let crrow = &mut crstrip[dy * reg.w + x0..dy * reg.w + x0 + cw];
        if geom.chroma == Chroma::C444 {
            // 4:4:4 rows are contiguous slices of the block buffers — a
            // straight-line convert loop the autovectorizer lifts.
            let yr = &ybufs[0][dy * geom.ny + dx0..dy * geom.ny + dx1];
            let cbr = &cbuf[dy * geom.nc + dx0..dy * geom.nc + dx1];
            let crr = &crbuf[dy * geom.nc + dx0..dy * geom.nc + dx1];
            for i in 0..cw {
                yrow[i] = to_u8_fast(yr[i]);
                cbrow[i] = to_u8_fast(cbr[i]);
                crrow[i] = to_u8_fast(crr[i]);
            }
        } else {
            // 4:2:0: the row crosses the two luma blocks of one block row,
            // each a contiguous slice; the block and in-block row are fixed
            // for the whole row.
            let n = geom.ny;
            let (blk, r) = ((dy / n) * 2, (dy % n) * n);
            let mid = n.clamp(dx0, dx1);
            let (left, right) = yrow.split_at_mut(mid - dx0);
            if dx0 < n {
                convert_row(left, &ybufs[blk][r + dx0..r + mid]);
            }
            if dx1 > n {
                convert_row(right, &ybufs[blk + 1][r + mid - n..r + dx1 - n]);
            }
            if geom.factor == 1 {
                // Full decode: each half-resolution chroma sample is
                // converted once and replicated over its two columns.
                let c = (dy / 2) * BLOCK;
                replicate_row(cbrow, &cbuf[c..c + BLOCK], dx0);
                replicate_row(crrow, &crbuf[c..c + BLOCK], dx0);
            } else {
                // factor ≥ 2: nc == patch, the chroma patch tiles exactly.
                let c = dy * geom.nc;
                convert_row(cbrow, &cbuf[c + dx0..c + dx1]);
                convert_row(crrow, &crbuf[c + dx0..c + dx1]);
            }
        }
        stats.pixels_written += cw as u64;
    }
}

/// The strip column a full-resolution 4:4:4 MCU at `(bx, by)` lands at, if
/// its whole 8×8 patch lies inside the output region; `None` for an MCU the
/// region cuts, and for every MCU of a 4:2:0 or scaled decode.
#[inline(always)]
fn whole_block_column(geom: &Geometry, bx: usize, by: usize) -> Option<usize> {
    let reg = geom.oregion;
    let (ox, oy) = (bx * BLOCK, by * BLOCK);
    let whole = geom.chroma == Chroma::C444
        && geom.factor == 1
        && ox >= reg.x
        && ox + BLOCK <= reg.x_end()
        && oy >= reg.y
        && oy + BLOCK <= reg.y_end();
    whole.then(|| ox - reg.x)
}

/// [`write_mcu_strip`] for a 4:4:4 MCU whose 8×8 patch lies wholly inside
/// the output region (see [`whole_block_column`]): its three 64-sample
/// blocks convert to u8 in one straight-line pass, then land in the
/// `width`-wide strips as 8-byte rows at column `x0`. Same per-sample
/// conversion as the per-row path, so the same bytes.
#[inline(always)]
fn write_block_strip(blocks: [&[f32; 64]; 3], x0: usize, width: usize, strips: [&mut [u8]; 3]) {
    let mut px = [[0u8; 64]; 3];
    for (p, block) in px.iter_mut().zip(blocks) {
        for (d, &s) in p.iter_mut().zip(block) {
            *d = to_u8_fast(s);
        }
    }
    for (p, strip) in px.iter().zip(strips) {
        for (dy, row) in p.chunks_exact(BLOCK).enumerate() {
            let at = dy * width + x0;
            strip[at..at + BLOCK].copy_from_slice(row);
        }
    }
}

/// `dst[i] = to_u8_fast(src[i])`.
#[inline(always)]
fn convert_row(dst: &mut [u8], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = to_u8_fast(s);
    }
}

/// `dst[i] = to_u8_fast(src[(dx0 + i) / 2])`, converting each source sample
/// once: the 2× horizontal replication of a 4:2:0 chroma row.
#[inline(always)]
fn replicate_row(dst: &mut [u8], src: &[f32], dx0: usize) {
    let odd = dx0 % 2;
    if odd == 1 {
        dst[0] = to_u8_fast(src[dx0 / 2]);
    }
    for (pair, &s) in dst[odd..].chunks_mut(2).zip(&src[dx0.div_ceil(2)..]) {
        pair.fill(to_u8_fast(s));
    }
}

// ---------------------------------------------------------------------------
// Block-level helpers
// ---------------------------------------------------------------------------

/// Tallies the DC/AC symbols a block would emit, its AC run split into the
/// bands `1..split` and `split..64`.
fn tally_block(
    coefs: &[i16; 64],
    dc_pred: i16,
    split: usize,
    dc_freq: &mut [u64],
    ac_freq: &mut [u64],
) {
    let diff = coefs[0] - dc_pred;
    dc_freq[magnitude_category(diff) as usize] += 1;
    tally_run(&coefs[1..split], ac_freq);
    tally_run(&coefs[split..], ac_freq);
}

/// Entropy-encodes one block's DC difference.
fn encode_dc(w: &mut BitWriter, diff: i16, dc_table: &HuffmanTable) -> Result<()> {
    let size = magnitude_category(diff);
    dc_table.encode(w, size as u16)?;
    if size > 0 {
        w.put(amplitude_bits(diff, size), size);
    }
    Ok(())
}

/// How one decode reads its MCU rows: through the reference walk or the
/// table-driven fast path, and with or without each row's segment 2 — from
/// its start, or from a seek point.
struct RowDecoder<'t> {
    header: &'t SjpgHeader,
    /// The whole stream: the body, and the seek table in the header.
    data: &'t [u8],
    /// The fast path's tables; `None` selects the bit-by-bit reference.
    fast: Option<FastTables<'t>>,
    /// Whether blocks read their high band from segment 2 (see
    /// [`Geometry::reads_high_band`]).
    high: bool,
    /// The seek point segment 2 opens at ([`SjpgFrame::seek_point`]): blocks
    /// of the MCU columns left of it read segment 1 only.
    seek: usize,
}

/// One MCU row's entropy readers, one per segment, each bounded to its own
/// byte range of the body. The fast path reads through register-resident
/// cursors that are bounds-checked once, at [`Row::finish`].
struct Row<'a> {
    readers: [BitReader<'a>; 2],
    cursors: Option<[FastCursor<'a>; 2]>,
}

impl Row<'_> {
    /// Row end: errors if a fast cursor's zero-padded reads ran past the
    /// end of its segment (truncated input, or an overrun into the next).
    #[inline]
    fn finish(mut self) -> Result<()> {
        if let Some(cursors) = &self.cursors {
            for (c, r) in cursors.iter().zip(&mut self.readers) {
                c.sync(r)?;
            }
        }
        Ok(())
    }
}

impl<'t> RowDecoder<'t> {
    /// Fast-path tables are built once per decode, behind a `window`-bit
    /// pair LUT; the reference walk ignores `window`. A decode whose first
    /// MCU column is `bx0` opens segment 2 at the last seek point at or left
    /// of it.
    fn new(
        header: &'t SjpgHeader,
        data: &'t [u8],
        opts: DecodeOptions,
        high: bool,
        window: u32,
        bx0: usize,
    ) -> Self {
        RowDecoder {
            header,
            data,
            fast: (!opts.scalar_kernels)
                .then(|| FastTables::with_window(&header.dc_table, &header.ac_table, window)),
            high,
            seek: if high { header.seek_point(bx0) } else { 0 },
        }
    }

    /// Whether the blocks of MCU column `bx` read their high band.
    #[inline(always)]
    fn reads_high_band(&self, bx: usize) -> bool {
        self.high && bx >= self.seek * self.header.seek.spacing
    }

    /// Opens MCU row `by`. A decode that stops at the split gets an empty
    /// segment 2, so it touches none of that segment's bytes; one that
    /// seeks starts segment 2 at its seek point's offset, checked first.
    fn open(&self, by: usize) -> Result<Row<'t>> {
        let body = &self.data[self.header.body_start..];
        let [low, rest] = self.header.segments(by);
        let rest = if self.high {
            rest
        } else {
            rest.start..rest.start
        };
        let mut readers = [BitReader::new(&body[low]), BitReader::new(&body[rest])];
        if self.seek > 0 {
            readers[1].seek_bits(self.header.seek_offset(self.data, by, self.seek)?)?;
        }
        Ok(Row {
            cursors: self
                .fast
                .is_some()
                .then(|| readers.each_ref().map(FastCursor::from_reader)),
            readers,
        })
    }

    /// Entropy-decodes the next block of component `comp` from `row` into
    /// `coefs` — its high band too when `high` — and returns its coded
    /// prefix length `n`: every coefficient at zig-zag index `n` or later is
    /// zero. The reference walk writes zig-zag order (the seed layout its
    /// dense dequantizer reads); the fast path writes natural order into a
    /// block it zeroes first, which is what [`dequantize_corner`] reads.
    /// `coefs[0]` is the DC either way.
    #[inline(always)]
    fn block(
        &self,
        row: &mut Row<'_>,
        comp: usize,
        high: bool,
        dc_pred: i16,
        coefs: &mut [i16; 64],
        stats: &mut DecodeStats,
    ) -> Result<usize> {
        match (&self.fast, &mut row.cursors) {
            (Some(tables), Some(cursors)) => {
                let split = self.header.split[class(comp)];
                *coefs = [0; 64];
                decode_block_fast(cursors, tables, split, high, dc_pred, coefs, stats)
                    .map_err(|e| self.reference_error(row.readers.clone(), e))
            }
            _ => self.reference_block(&mut row.readers, comp, high, dc_pred, coefs, stats),
        }
    }

    /// [`decode_block`], the reference walk, for the next block of
    /// component `comp`.
    fn reference_block(
        &self,
        readers: &mut [BitReader<'_>; 2],
        comp: usize,
        high: bool,
        dc_pred: i16,
        coefs: &mut [i16; 64],
        stats: &mut DecodeStats,
    ) -> Result<usize> {
        let (dc, ac) = (&self.header.dc_table, &self.header.ac_table);
        let split = self.header.split[class(comp)];
        coefs.fill(0);
        decode_block(readers, dc, ac, split, high, dc_pred, coefs, stats)
    }

    /// The reference walk's verdict on a row the fast path failed. Past a
    /// segment's end a cursor reads zero padding where the reference stops
    /// with `Truncated`, so the row is re-walked from where it was opened
    /// (`readers` are still there on the fast path) and the reference's
    /// first error is reported: both paths fail alike. The reference fails
    /// at or before the block the fast path failed on, so `fast` is only a
    /// fallback.
    #[cold]
    fn reference_error(&self, mut readers: [BitReader<'_>; 2], fast: Error) -> Error {
        let (mut coefs, mut stats, mut dc_pred) = ([0i16; 64], DecodeStats::default(), [0i16; 3]);
        for bx in 0..self.header.width.div_ceil(self.header.mcu()) {
            let (sched, n) = mcu_schedule(self.header.chroma, bx, 0);
            let high = self.reads_high_band(bx);
            for &(comp, _, _) in &sched[..n] {
                let pred = dc_pred[comp];
                if let Err(e) =
                    self.reference_block(&mut readers, comp, high, pred, &mut coefs, &mut stats)
                {
                    return e;
                }
                dc_pred[comp] = coefs[0];
            }
        }
        fast
    }
}

/// Entropy-decodes one quantized block (zig-zag order) into a zeroed
/// `coefs`, reading symbols with the bit-by-bit canonical walk: the DC
/// difference and the band `1..split` from segment 1, then — when `high` —
/// the band `split..64` from segment 2. This is the reference oracle;
/// [`decode_block_fast`] must produce identical coefficients and cursor
/// positions (pinned by the workspace proptests and the `decode_hotpath`
/// gate). Returns the coded prefix length.
#[allow(clippy::too_many_arguments)]
fn decode_block(
    r: &mut [BitReader<'_>; 2],
    dc_table: &HuffmanTable,
    ac_table: &HuffmanTable,
    split: usize,
    high: bool,
    dc_pred: i16,
    coefs: &mut [i16; 64],
    stats: &mut DecodeStats,
) -> Result<usize> {
    let [low, rest] = r;
    let size = dc_table.decode(low)? as u32;
    stats.symbols_decoded += 1;
    let diff = if size > 0 {
        decode_amplitude(low.bits(size)?, size)
    } else {
        0
    };
    // Wrapping: a hostile table can code differences no encoder emits, and
    // the sum of two must not panic (both paths wrap alike).
    coefs[0] = dc_pred.wrapping_add(diff);
    let k = decode_band(low, ac_table, coefs, 1, split, stats)?;
    if !high {
        return Ok(k);
    }
    let k_high = decode_band(rest, ac_table, coefs, split, 64, stats)?;
    Ok(if k_high > split { k_high } else { k })
}

/// The reference walk's run/size loop over the zig-zag band `k0..end`:
/// returns one past the last coefficient it wrote (`k0` for an empty band).
fn decode_band(
    r: &mut BitReader<'_>,
    ac_table: &HuffmanTable,
    coefs: &mut [i16; 64],
    k0: usize,
    end: usize,
    stats: &mut DecodeStats,
) -> Result<usize> {
    let mut k = k0;
    while k < end {
        let sym = ac_table.decode(r)?;
        stats.symbols_decoded += 1;
        if sym == EOB {
            break;
        }
        if sym == ZRL {
            let k1 = (k + 16).min(end);
            coefs[k..k1].fill(0);
            k = k1;
            continue;
        }
        let run = (sym >> 4) as usize;
        let size = (sym & 0x0F) as u32;
        if k + run >= end || size == 0 {
            return Err(Error::BadCode {
                context: "sjpg AC coefficient overrun",
            });
        }
        coefs[k..k + run].fill(0);
        k += run;
        coefs[k] = decode_amplitude(r.bits(size)?, size);
        k += 1;
    }
    Ok(k)
}

/// Fully-decoded entropy tables for the fast path: the DC pair LUT and the
/// AC [`RunTable`] (see [`crate::runlength`] for the entry layout). Grain-
/// heavy streams lean on short codes with small amplitudes, so the
/// single-load path covers the overwhelming majority of symbols; the rest
/// fall back to the prefix LUT + canonical walk.
struct FastTables<'t> {
    dc: &'t HuffmanTable,
    dc_pairs: Vec<u32>,
    ac: RunTable<'t>,
    /// `32 - window bits`: a 32-bit peek shifted right by this indexes
    /// `dc_pairs`.
    shift: u32,
}

impl<'t> FastTables<'t> {
    /// Tables over a `bits`-wide window (`bits <= PAIR_BITS`). Building
    /// costs one LUT entry per window value, so a caller that decodes only
    /// a few rows or a small body trades single-load coverage for a
    /// cheaper build ([`pair_window_bits`]).
    fn with_window(dc: &'t HuffmanTable, ac: &'t HuffmanTable, bits: u32) -> Self {
        FastTables {
            dc_pairs: build_pair_lut(dc, Alphabet::Size, bits),
            ac: RunTable::new(ac, bits),
            dc,
            shift: 32 - bits,
        }
    }
}

/// Table-driven twin of [`decode_block`], run through one [`FastCursor`]
/// per segment: one pair-LUT read resolves the DC difference, then
/// [`RunTable::decode_run`] — the loop P-frame residuals share — reads the
/// low band and, when `high`, the high band, into the zeroed natural-order
/// `coefs`. Reads exactly the same bits from exactly the same positions as
/// the reference, and the same coefficients at their raster positions. The
/// caller owns the cursors for a whole MCU row and checks them at row end
/// ([`Row::finish`]), which is where truncated input surfaces as an error.
///
/// Out of line: one copy of the two band loops serves every call site.
/// Inlined into each (two in the row loop), a v3 full decode of the
/// 320×240 q95 stills measured ≈ 4 % slower than the v2 parent instead of
/// ≈ 2.5 %, factor 2 ≈ 5 % instead of ≈ 2 %.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn decode_block_fast(
    c: &mut [FastCursor<'_>; 2],
    tables: &FastTables<'_>,
    split: usize,
    high: bool,
    dc_pred: i16,
    coefs: &mut [i16; 64],
    stats: &mut DecodeStats,
) -> Result<usize> {
    let [low, rest] = c;
    low.refill();
    let e = tables.dc_pairs[(low.peek32() >> tables.shift) as usize];
    let diff = if e != 0 {
        low.skip(e & 31);
        (e >> 16) as u16 as i16
    } else {
        let (_, size, bits) = read_pair(low, tables.dc, |sym| sym as u32)?;
        decode_amplitude(bits, size)
    };
    // Wrapping: a hostile table can code differences no encoder emits, and
    // the sum of two must not panic (both paths wrap alike).
    coefs[0] = dc_pred.wrapping_add(diff);
    let (mut k, mut symbols) = tables.ac.decode_run(low, coefs, 1, split)?;
    if high {
        let (k_high, more) = tables.ac.decode_run(rest, coefs, split, 64)?;
        symbols += more;
        if k_high > split {
            k = k_high;
        }
    }
    stats.symbols_decoded += 1 + symbols;
    Ok(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smol_imgproc::ops::crop::crop_u8;
    use smol_imgproc::psnr;
    use std::cell::Cell;

    thread_local! {
        /// The tier [`decode_tier`] returns on this thread, when set.
        pub(super) static FORCED_TIER: Cell<Option<Tier>> = const { Cell::new(None) };
    }

    /// Runs `f` with this thread's fast-path decodes pinned to `tier`.
    fn under<T>(tier: Tier, f: impl FnOnce() -> T) -> T {
        FORCED_TIER.set(Some(tier));
        let out = f();
        FORCED_TIER.set(None);
        out
    }

    /// Every tier this host can run: the baseline, and AVX2 where the CPU
    /// has it (on other hosts that arm is skipped, not failed).
    fn tiers() -> Vec<Tier> {
        [Some(Tier::BASELINE), Tier::avx2()]
            .into_iter()
            .flatten()
            .collect()
    }

    fn textured(w: usize, h: usize, seed: u8) -> ImageU8 {
        let mut img = ImageU8::zeros(w, h, 3);
        for y in 0..h {
            for x in 0..w {
                let base = ((x * 13 + y * 7) % 200) as u8;
                img.set(x, y, 0, base.wrapping_add(seed));
                img.set(x, y, 1, ((x * x + y) % 256) as u8);
                img.set(x, y, 2, ((x + y * y + seed as usize) % 256) as u8);
            }
        }
        img
    }

    /// The vectorizable conversion is the saturating cast and the
    /// reference rounding on every sample the transforms can produce, the
    /// saturated ranges, both rounding ties and the non-finite values.
    #[test]
    fn fast_u8_conversion_is_the_saturating_cast() {
        let mut samples: Vec<f32> = (-600_000..600_000).map(|i| i as f32 / 1024.0).collect();
        samples.extend([
            -128.5,
            -128.500_01,
            126.5,
            127.0,
            127.499_99,
            127.5,
            1e9,
            -1e9,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -0.0,
        ]);
        for v in samples {
            assert_eq!(to_u8_fast(v), (v + 128.5) as u8, "{v}");
            assert_eq!(to_u8_fast(v), to_u8(v), "{v}");
        }
    }

    #[test]
    fn roundtrip_high_quality_is_faithful() {
        let img = textured(64, 48, 3);
        let enc = SjpgEncoder::new(95).encode(&img).unwrap();
        let dec = decode(&enc).unwrap();
        assert_eq!((dec.width(), dec.height()), (64, 48));
        assert!(psnr(&img, &dec) > 30.0, "psnr={}", psnr(&img, &dec));
    }

    #[test]
    fn lower_quality_means_smaller_and_noisier() {
        let img = textured(96, 96, 9);
        let q95 = SjpgEncoder::new(95).encode(&img).unwrap();
        let q75 = SjpgEncoder::new(75).encode(&img).unwrap();
        let q30 = SjpgEncoder::new(30).encode(&img).unwrap();
        assert!(q75.len() < q95.len());
        assert!(q30.len() < q75.len());
        let p95 = psnr(&img, &decode(&q95).unwrap());
        let p75 = psnr(&img, &decode(&q75).unwrap());
        let p30 = psnr(&img, &decode(&q30).unwrap());
        assert!(p95 > p75 && p75 > p30, "{p95} {p75} {p30}");
    }

    #[test]
    fn non_multiple_of_block_dims_roundtrip() {
        let img = textured(37, 29, 1);
        let enc = SjpgEncoder::new(90).encode(&img).unwrap();
        let dec = decode(&enc).unwrap();
        assert_eq!((dec.width(), dec.height()), (37, 29));
        assert!(psnr(&img, &dec) > 25.0);
    }

    #[test]
    fn peek_dims_reads_header_only() {
        let img = textured(40, 24, 5);
        let enc = SjpgEncoder::new(75).encode(&img).unwrap();
        assert_eq!(peek_dims(&enc).unwrap(), (40, 24));
    }

    #[test]
    fn roi_decode_matches_full_decode() {
        let img = textured(128, 96, 7);
        let enc = SjpgEncoder::new(85).encode(&img).unwrap();
        let full = decode(&enc).unwrap();
        let roi = Rect::new(33, 17, 40, 30);
        let (partial, aligned, _) = decode_roi(&enc, roi).unwrap();
        assert_eq!(aligned, Rect::new(32, 16, 48, 32));
        for y in 0..aligned.h {
            for x in 0..aligned.w {
                for c in 0..3 {
                    assert_eq!(
                        partial.at(x, y, c),
                        full.at(aligned.x + x, aligned.y + y, c),
                        "mismatch at {x},{y},{c}"
                    );
                }
            }
        }
    }

    #[test]
    fn roi_decode_skips_work() {
        let img = textured(256, 256, 2);
        let enc = SjpgEncoder::new(85).encode(&img).unwrap();
        let (_, full_stats) = decode_with_stats(&enc).unwrap();
        let (_, _, roi_stats) = decode_roi(&enc, Rect::new(96, 96, 64, 64)).unwrap();
        assert!(roi_stats.blocks_idct < full_stats.blocks_idct / 4);
        assert!(roi_stats.symbols_decoded < full_stats.symbols_decoded / 2);
        assert!(roi_stats.rows_skipped > 0);
    }

    #[test]
    fn early_stop_rows_match_full_decode() {
        let img = textured(64, 64, 4);
        let enc = SjpgEncoder::new(85).encode(&img).unwrap();
        let full = decode(&enc).unwrap();
        let (top, stats) = decode_rows(&enc, 24).unwrap();
        assert_eq!(top.height(), 24);
        assert!(stats.rows_skipped == 5); // 8 rows total, 3 decoded
        for y in 0..24 {
            for x in 0..64 {
                assert_eq!(top.at(x, y, 0), full.at(x, y, 0));
            }
        }
    }

    /// The shared reference kernel a scaled-IDCT decode is judged against
    /// (same one `figure_lowres` and the workspace proptests use).
    fn box_down(img: &ImageU8, f: usize) -> ImageU8 {
        smol_imgproc::ops::box_downsample_u8(img, f).unwrap()
    }

    /// A smooth image (low-frequency gradients), where truncated-spectrum
    /// reconstruction is near-exact.
    fn smooth(w: usize, h: usize) -> ImageU8 {
        let mut img = ImageU8::zeros(w, h, 3);
        for y in 0..h {
            for x in 0..w {
                let fx = x as f64 / w as f64;
                let fy = y as f64 / h as f64;
                img.set(x, y, 0, (60.0 + 120.0 * fx) as u8);
                img.set(x, y, 1, (200.0 - 130.0 * fy) as u8);
                img.set(x, y, 2, (90.0 + 80.0 * fx * fy) as u8);
            }
        }
        img
    }

    #[test]
    fn scaled_decode_dims_and_stats() {
        let img = textured(128, 96, 6);
        let enc = SjpgEncoder::new(90).encode(&img).unwrap();
        let (_, full) = decode_with_stats(&enc).unwrap();
        for factor in [2usize, 4, 8] {
            let (small, stats) = decode_scaled(&enc, factor).unwrap();
            assert_eq!((small.width(), small.height()), (128 / factor, 96 / factor));
            // Factor 2 parses every coefficient; factors 4 and 8 read
            // segment 1 alone…
            if factor == 2 {
                assert_eq!(stats.symbols_decoded, full.symbols_decoded);
            } else {
                assert!(stats.symbols_decoded * 2 < full.symbols_decoded);
            }
            // …but the transform work drops with the square-cube of the
            // scale: ≥8× fewer MACs at factor 2, ≥64× at factor 4.
            assert!(
                stats.idct_macs * (factor * factor * factor) as u64 <= full.idct_macs,
                "factor {factor}: {} vs {}",
                stats.idct_macs,
                full.idct_macs
            );
            assert!(stats.blocks_idct < full.blocks_idct / 4);
            assert_eq!(
                stats.pixels_written,
                (128 / factor) as u64 * (96 / factor) as u64
            );
        }
    }

    #[test]
    fn scaled_decode_factor_one_is_full_decode() {
        let img = textured(40, 32, 3);
        let enc = SjpgEncoder::new(85).encode(&img).unwrap();
        let (a, sa) = decode_with_stats(&enc).unwrap();
        let (b, sb) = decode_scaled(&enc, 1).unwrap();
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn scaled_decode_tracks_box_downsample_of_full_decode() {
        let img = smooth(96, 64);
        let enc = SjpgEncoder::new(92).encode(&img).unwrap();
        let full = decode(&enc).unwrap();
        for factor in [2usize, 4] {
            let (small, _) = decode_scaled(&enc, factor).unwrap();
            let reference = box_down(&full, factor);
            let p = psnr(&reference, &small);
            assert!(p > 30.0, "factor {factor}: psnr {p}");
        }
    }

    #[test]
    fn scaled_decode_non_multiple_dims() {
        let img = smooth(61, 45);
        let enc = SjpgEncoder::new(90).encode(&img).unwrap();
        let (small, _) = decode_scaled(&enc, 4).unwrap();
        assert_eq!((small.width(), small.height()), (16, 12));
        // Edge pixels come from edge-replicated encode blocks — they must
        // still be plausible (close to the true boundary pixels).
        let reference = box_down(&decode(&enc).unwrap(), 4);
        assert!(psnr(&reference, &small) > 25.0);
    }

    #[test]
    fn scaled_decode_rejects_bad_factor() {
        let img = textured(32, 32, 1);
        let enc = SjpgEncoder::new(75).encode(&img).unwrap();
        assert!(decode_scaled(&enc, 3).is_err());
        assert!(decode_scaled(&enc, 16).is_err());
    }

    #[test]
    fn invalid_roi_rejected() {
        let img = textured(32, 32, 0);
        let enc = SjpgEncoder::new(75).encode(&img).unwrap();
        assert!(decode_roi(&enc, Rect::new(20, 20, 20, 20)).is_err());
        assert!(decode_roi(&enc, Rect::new(0, 0, 0, 0)).is_err());
    }

    #[test]
    fn corrupt_magic_rejected() {
        let img = textured(16, 16, 0);
        let mut enc = SjpgEncoder::new(75).encode(&img).unwrap().to_vec();
        enc[0] ^= 0xFF;
        assert!(decode(&enc).is_err());
    }

    #[test]
    fn corrupt_quality_byte_rejected_with_typed_error() {
        let img = textured(16, 16, 0);
        let enc = SjpgEncoder::new(75).encode(&img).unwrap().to_vec();
        // Header layout: magic(4) + version(1) + w(2) + h(2), then quality.
        for bad in [0u8, 101, 200] {
            let mut corrupted = enc.clone();
            corrupted[9] = bad;
            match decode(&corrupted) {
                Err(Error::BadQuality(q)) => assert_eq!(q, bad),
                other => panic!("expected BadQuality({bad}), got {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_body_errors_not_panics() {
        let img = textured(64, 64, 8);
        let enc = SjpgEncoder::new(75).encode(&img).unwrap();
        let cut = &enc[..enc.len() - enc.len() / 3];
        assert!(decode(cut).is_err());
    }

    #[test]
    fn flat_image_compresses_extremely_well() {
        let img = ImageU8::from_vec(64, 64, 3, vec![128; 64 * 64 * 3]).unwrap();
        let enc = SjpgEncoder::new(75).encode(&img).unwrap();
        // 12 KiB raw → far below 2 KiB encoded.
        assert!(enc.len() < 2048, "len={}", enc.len());
        let dec = decode(&enc).unwrap();
        assert!(psnr(&img, &dec) > 40.0);
    }

    #[test]
    fn mid_gray_roundtrip_has_zero_mean_bias() {
        // Regression for the truncation bug: `as u8` on the reconstructed
        // float truncated toward zero, darkening every pixel by ~0.5 LSB on
        // average. Sweep uniform grays whose DC does not reconstruct
        // exactly; with round-to-nearest the signed error must average out.
        let mut bias = 0.0f64;
        let mut count = 0usize;
        for gray in (90u8..=165).step_by(3) {
            let img = ImageU8::from_vec(32, 32, 3, vec![gray; 32 * 32 * 3]).unwrap();
            let enc = SjpgEncoder::new(90).encode(&img).unwrap();
            let dec = decode(&enc).unwrap();
            for (&a, &b) in img.data().iter().zip(dec.data()) {
                bias += b as f64 - a as f64;
                count += 1;
            }
        }
        let mean = bias / count as f64;
        assert!(mean.abs() < 0.25, "mean signed error {mean}");
    }

    #[test]
    fn c420_roundtrip_is_faithful_on_smooth_content() {
        let img = smooth(96, 80);
        let enc = SjpgEncoder::with_chroma(95, Chroma::C420)
            .encode(&img)
            .unwrap();
        let dec = decode(&enc).unwrap();
        assert_eq!((dec.width(), dec.height()), (96, 80));
        let p = psnr(&img, &dec);
        assert!(p > 30.0, "psnr={p}");
    }

    #[test]
    fn c420_is_smaller_than_c444() {
        let img = smooth(128, 96);
        let full = SjpgEncoder::with_chroma(90, Chroma::C444)
            .encode(&img)
            .unwrap();
        let sub = SjpgEncoder::with_chroma(90, Chroma::C420)
            .encode(&img)
            .unwrap();
        assert!(
            sub.len() < full.len(),
            "420 {} vs 444 {}",
            sub.len(),
            full.len()
        );
    }

    #[test]
    fn c420_non_multiple_dims_roundtrip() {
        let img = smooth(61, 45);
        let enc = SjpgEncoder::with_chroma(92, Chroma::C420)
            .encode(&img)
            .unwrap();
        let dec = decode(&enc).unwrap();
        assert_eq!((dec.width(), dec.height()), (61, 45));
        assert!(psnr(&img, &dec) > 28.0);
    }

    #[test]
    fn c420_scaled_decode_dims_and_fidelity() {
        let img = smooth(128, 96);
        let enc = SjpgEncoder::with_chroma(92, Chroma::C420)
            .encode(&img)
            .unwrap();
        let full = decode(&enc).unwrap();
        for factor in [2usize, 4, 8] {
            let (small, stats) = decode_scaled(&enc, factor).unwrap();
            assert_eq!((small.width(), small.height()), (128 / factor, 96 / factor));
            assert_eq!(
                stats.pixels_written,
                (128 / factor) as u64 * (96 / factor) as u64
            );
            if factor <= 4 {
                let reference = box_down(&full, factor);
                let p = psnr(&reference, &small);
                assert!(p > 28.0, "factor {factor}: psnr {p}");
            }
        }
    }

    #[test]
    fn c420_scaled_decode_skips_chroma_work() {
        // A 4:2:0 MCU carries 6 blocks where 4:4:4 carries 12 (per 16×16
        // pixels) — at equal factor the transform MACs must be half.
        let img = smooth(128, 128);
        let e444 = SjpgEncoder::with_chroma(90, Chroma::C444)
            .encode(&img)
            .unwrap();
        let e420 = SjpgEncoder::with_chroma(90, Chroma::C420)
            .encode(&img)
            .unwrap();
        let (_, s444) = decode_with_stats(&e444).unwrap();
        let (_, s420) = decode_with_stats(&e420).unwrap();
        assert_eq!(s420.idct_macs * 2, s444.idct_macs);
    }

    #[test]
    fn c420_roi_decode_aligns_to_mcu_and_matches_full() {
        let img = textured(128, 96, 5);
        let enc = SjpgEncoder::with_chroma(88, Chroma::C420)
            .encode(&img)
            .unwrap();
        let full = decode(&enc).unwrap();
        let (partial, aligned, stats) = decode_roi(&enc, Rect::new(33, 17, 40, 30)).unwrap();
        assert_eq!(aligned, Rect::new(32, 16, 48, 32));
        assert!(stats.rows_skipped > 0);
        for y in 0..aligned.h {
            for x in 0..aligned.w {
                for c in 0..3 {
                    assert_eq!(
                        partial.at(x, y, c),
                        full.at(aligned.x + x, aligned.y + y, c),
                        "mismatch at {x},{y},{c}"
                    );
                }
            }
        }
    }

    #[test]
    fn fast_path_dequantizes_the_coded_prefix_capped_at_what_the_scale_reads() {
        for chroma in [Chroma::C444, Chroma::C420] {
            let enc = SjpgEncoder::with_chroma(95, chroma)
                .encode(&textured(104, 72, 13))
                .unwrap();
            let header = SjpgHeader::parse(&enc).unwrap();
            let coded = |high: bool| coded_prefixes(&enc, high);
            for factor in [1usize, 2, 4, 8] {
                let geom = Geometry::new(&header, factor, Rect::new(0, 0, 1, 1));
                let expect: usize = coded(geom.reads_high_band(&header))
                    .iter()
                    .map(|&(_, _, comp, k)| {
                        k.min(zigzag_prefix_for(if comp == 0 { geom.ny } else { geom.nc }))
                    })
                    .sum();
                let (_, stats) = decode_scaled(&enc, factor).unwrap();
                assert_eq!(
                    stats.coefs_dequantized, expect as u64,
                    "{chroma:?} /{factor}"
                );
            }
            // An ROI decode is a factor-1 decode of the MCUs it covers.
            let (_, aligned, stats) = decode_roi(&enc, Rect::new(40, 20, 30, 30)).unwrap();
            let mcu = header.mcu();
            let inside = |bx: usize, by: usize| {
                (aligned.x / mcu..aligned.x_end().div_ceil(mcu)).contains(&bx)
                    && (aligned.y / mcu..aligned.y_end().div_ceil(mcu)).contains(&by)
            };
            let expect: usize = coded(true)
                .iter()
                .filter(|&&(bx, by, _, _)| inside(bx, by))
                .map(|&(_, _, _, k)| k)
                .sum();
            assert_eq!(stats.coefs_dequantized, expect as u64, "{chroma:?} roi");
        }
    }

    #[test]
    fn vector_kernels_bit_identical_to_scalar_reference() {
        for chroma in [Chroma::C444, Chroma::C420] {
            let img = textured(104, 72, 13);
            let enc = SjpgEncoder::with_chroma(90, chroma).encode(&img).unwrap();
            for factor in [1usize, 2, 4, 8] {
                let (vec_img, vs) =
                    decode_scaled_opts(&enc, factor, DecodeOptions::default()).unwrap();
                let (ref_img, rs) =
                    decode_scaled_opts(&enc, factor, DecodeOptions::scalar_reference()).unwrap();
                assert_eq!(vec_img, ref_img, "chroma {chroma:?} factor {factor}");
                // Dequantization is the one stage the two paths size
                // differently; every other counter agrees.
                assert!(vs.coefs_dequantized <= rs.coefs_dequantized);
                let rest = |s: DecodeStats| DecodeStats {
                    coefs_dequantized: 0,
                    ..s
                };
                assert_eq!(rest(vs), rest(rs));
            }
        }
    }

    /// Every block's MCU position, component and coded prefix length, from
    /// the reference entropy walk, reading both segments (`high`) or
    /// segment 1 alone.
    fn coded_prefixes(enc: &[u8], high: bool) -> Vec<(usize, usize, usize, usize)> {
        let header = SjpgHeader::parse(enc).unwrap();
        let dec = RowDecoder::new(&header, enc, DecodeOptions::scalar_reference(), high, 0, 0);
        let (mut coefs, mut stats) = ([0i16; 64], DecodeStats::default());
        let mut coded = Vec::new();
        for by in 0..header.rows() {
            let mut row = dec.open(by).unwrap();
            let mut dc_pred = [0i16; 3];
            for bx in 0..header.width.div_ceil(header.mcu()) {
                let (sched, n) = mcu_schedule(header.chroma, bx, by);
                for &(comp, _, _) in &sched[..n] {
                    let k = dec
                        .block(&mut row, comp, high, dc_pred[comp], &mut coefs, &mut stats)
                        .unwrap();
                    dc_pred[comp] = coefs[0];
                    coded.push((bx, by, comp, k));
                }
            }
            row.finish().unwrap();
        }
        coded
    }

    #[derive(Debug, Clone, Copy)]
    enum Mode {
        Full,
        Roi(Rect),
        Rows(usize),
        Factor(usize),
    }

    fn decode_mode(data: &[u8], mode: Mode, opts: DecodeOptions) -> (ImageU8, DecodeStats) {
        match mode {
            Mode::Full => decode_with_opts(data, opts),
            Mode::Roi(roi) => decode_roi_opts(data, roi, opts).map(|(img, _, s)| (img, s)),
            // Early stop is an ROI of the top rows (`decode_rows` takes no
            // options).
            Mode::Rows(n) => {
                let w = peek_dims(data).unwrap().0;
                decode_roi_opts(data, Rect::new(0, 0, w, n), opts).map(|(img, _, s)| (img, s))
            }
            Mode::Factor(f) => decode_scaled_opts(data, f, opts),
        }
        .unwrap()
    }

    /// `data` decodes to the same pixels under every tier and the scalar
    /// oracle in every decode mode, with identical [`DecodeStats`] across
    /// the tiers, and identical to the oracle's but for `coefs_dequantized`
    /// (the oracle dequantizes all 64 of every block).
    fn tiers_agree_with_the_oracle(data: &[u8], name: &str) {
        let (w, h) = peek_dims(data).unwrap();
        let roi = Rect::new(w / 4, h / 5, (w / 2).max(1), (h / 2).max(1));
        let modes = [
            Mode::Full,
            Mode::Roi(roi),
            Mode::Rows(h.div_ceil(3)),
            Mode::Factor(2),
            Mode::Factor(4),
            Mode::Factor(8),
        ];
        let but_dequant = |s: DecodeStats| DecodeStats {
            coefs_dequantized: 0,
            ..s
        };
        for mode in modes {
            let (want, oracle) = decode_mode(data, mode, DecodeOptions::scalar_reference());
            let mut first: Option<DecodeStats> = None;
            for tier in tiers() {
                let (got, stats) =
                    under(tier, || decode_mode(data, mode, DecodeOptions::default()));
                let what = format!("{name} {mode:?} {}", tier.name());
                assert_eq!(got, want, "{what}: pixels");
                assert_eq!(but_dequant(stats), but_dequant(oracle), "{what}: stats");
                assert_eq!(*first.get_or_insert(stats), stats, "{what}: tier stats");
            }
        }
    }

    /// The committed sjpg `version` fixtures, by name.
    fn fixtures(version: u8) -> Vec<(String, Vec<u8>)> {
        let dir = format!(
            "{}/../../tests/fixtures/sjpg_v{version}",
            env!("CARGO_MANIFEST_DIR")
        );
        let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let name = path.file_stem().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&path).unwrap())
            })
            .collect();
        out.sort();
        out
    }

    /// The baseline and AVX2 tiers and the scalar oracle agree on every
    /// committed fixture (v2 and v3), on its v4 re-encode, and on 4:4:4 /
    /// 4:2:0 streams that hold both a block coded as its DC alone and a
    /// block with all 64 coefficients coded — full, ROI, early-stop and
    /// factor 2/4/8.
    #[test]
    fn tiers_decode_every_fixture_and_mode_bit_identically() {
        for version in [2, 3] {
            let fixtures = fixtures(version);
            assert_eq!(fixtures.len(), 6, "every committed v{version} fixture");
            for (name, data) in &fixtures {
                assert_eq!(data[4], version, "{name} is a v{version} stream");
                tiers_agree_with_the_oracle(data, &format!("{name} v{version}"));
                let header = SjpgHeader::parse(data).unwrap();
                let v4 = SjpgEncoder::with_chroma(header.quality, header.chroma)
                    .encode(&decode(data).unwrap())
                    .unwrap();
                assert_eq!(v4[4], 4);
                tiers_agree_with_the_oracle(&v4, &format!("{name} v{version} re-encoded"));
            }
        }
        // Left half flat (every block DC-only), right half full-range noise
        // at q100 (unit steps: all 64 coded).
        let mut img = ImageU8::zeros(72, 40, 3);
        let mut state = 17u32;
        for y in 0..40 {
            for x in 0..72 {
                for c in 0..3 {
                    state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                    let v = if x < 32 {
                        90 + 40 * c as u8
                    } else {
                        (state >> 24) as u8
                    };
                    img.set(x, y, c, v);
                }
            }
        }
        for chroma in [Chroma::C444, Chroma::C420] {
            let enc = SjpgEncoder::with_chroma(100, chroma).encode(&img).unwrap();
            let coded: Vec<usize> = coded_prefixes(&enc, true).iter().map(|b| b.3).collect();
            assert!(coded.contains(&1), "{chroma:?}: a DC-only block");
            assert!(coded.contains(&64), "{chroma:?}: an all-64 block");
            tiers_agree_with_the_oracle(&enc, &format!("flat+noise {chroma:?}"));
            let dense = SjpgEncoder::with_chroma(95, chroma)
                .encode(&textured(104, 72, 13))
                .unwrap();
            tiers_agree_with_the_oracle(&dense, &format!("textured q95 {chroma:?}"));
        }
    }

    /// An ROI decode equals the aligned crop of the full decode, on both
    /// paths, for seeded ROIs at every seek spacing a 4:4:4 and a 4:2:0
    /// stream can take (`K = 0`: no table), and the encoder's own pick
    /// writes a table that fits its budget.
    #[test]
    fn roi_decodes_match_the_full_decode_at_every_seek_spacing() {
        let img = textured(104, 72, 13);
        let mut state = 0x5EED_5EE4_u64;
        let mut next = |n: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        for chroma in [Chroma::C444, Chroma::C420] {
            let encoder = SjpgEncoder::with_chroma(95, chroma);
            let picked = encoder.encode(&img).unwrap();
            let header = SjpgHeader::parse(&picked).unwrap();
            let table = header.rows() * header.seek.points * header.seek.width as usize;
            assert!(header.seek.points >= 2, "{chroma:?}: {:?}", header.seek);
            assert!(SEEK_BUDGET * table <= 8 * (picked.len() - header.body_start));
            let full = decode(&picked).unwrap();
            let mcols = 104usize.div_ceil(chroma.mcu());
            for spacing in 0..mcols {
                let enc = encoder.encode_spaced(&img, Some(spacing)).unwrap();
                let header = SjpgHeader::parse(&enc).unwrap();
                assert_eq!(header.seek.spacing, spacing);
                assert_eq!(decode(&enc).unwrap(), full, "{chroma:?} K = {spacing}");
                for _ in 0..12 {
                    let (x, y) = (next(104), next(72));
                    let roi = Rect::new(x, y, 1 + next(104 - x), 1 + next(72 - y));
                    let what = format!("{chroma:?} K = {spacing} {roi:?}");
                    let (fast, at, stats) = decode_roi(&enc, roi).unwrap();
                    let reference = decode_roi_opts(&enc, roi, DecodeOptions::scalar_reference());
                    let (reference, _, ref_stats) = reference.unwrap();
                    assert_eq!(fast, reference, "{what}");
                    assert_eq!(stats.symbols_decoded, ref_stats.symbols_decoded, "{what}");
                    assert_eq!(fast, crop_u8(&full, at).unwrap(), "{what}");
                }
            }
        }
    }

    /// An ROI decode that seeks reads no segment-2 bit left of its seek
    /// point: with every segment-2 byte before it flipped, it decodes the
    /// same pixels with the same work counters on both paths — while those
    /// bytes do matter to a full decode — and reads fewer symbols than the
    /// same rows decoded from column 0.
    #[test]
    fn roi_decode_reads_no_segment_2_symbol_left_of_its_seek_point() {
        for chroma in [Chroma::C444, Chroma::C420] {
            let enc = SjpgEncoder::with_chroma(95, chroma)
                .encode_spaced(&textured(160, 72, 13), Some(2))
                .unwrap();
            let header = SjpgHeader::parse(&enc).unwrap();
            let mcu = header.mcu();
            // MCU column 5: seek point 2, at column 4.
            let roi = Rect::new(5 * mcu, mcu, 4 * mcu, 2 * mcu);
            assert_eq!(header.seek_point(5), 2);
            let mut flipped = enc.to_vec();
            for by in 1..3 {
                let offset = header.seek_offset(&enc, by, 2).unwrap() as usize;
                assert!(offset >= 8, "{chroma:?} row {by}");
                let start = header.body_start + header.segments(by)[1].start;
                for b in &mut flipped[start..start + offset / 8] {
                    *b ^= 0xA5;
                }
            }
            assert_ne!(
                decode(&flipped).ok(),
                decode(&enc).ok(),
                "{chroma:?}: the flipped bytes are read by a full decode"
            );
            for opts in [DecodeOptions::default(), DecodeOptions::scalar_reference()] {
                let clean = decode_roi_opts(&enc, roi, opts).unwrap();
                assert_eq!(decode_roi_opts(&flipped, roi, opts).unwrap(), clean);
                let anchored = Rect::new(0, roi.y, roi.x_end(), roi.h);
                let (_, _, from_start) = decode_roi_opts(&enc, anchored, opts).unwrap();
                assert!(clean.2.symbols_decoded < from_start.symbols_decoded);
            }
        }
    }
}
