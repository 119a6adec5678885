//! spng — a from-scratch lossless image codec with PNG's cost anatomy.
//!
//! Encoding: per-scanline predictive filtering (None/Sub/Up/Average/Paeth,
//! chosen per row by the minimum-sum-of-absolute-values heuristic) followed
//! by LZ77 with a 32 KiB window and canonical Huffman coding of the
//! literal/length and distance alphabets (DEFLATE's token structure with a
//! simplified container).
//!
//! Decoding follows raster order — like PNG, there is no random access, so
//! the only partial-decoding feature is **early stopping** (Table 4):
//! `decode_rows` stops the LZ decode as soon as the requested scanlines are
//! reconstructed.
//!
//! ## Decode hot path
//!
//! Every caller ([`decode`], [`decode_rows`], `EncodedImage`) runs one
//! table-driven decoder; the seed's bit-by-bit loop stays next to it as the
//! oracle, selected by [`DecodeOptions::scalar_kernels`] and by nothing
//! else. Both read the same bits from the same positions, so pixels,
//! `decode_rows`' row count and its `consumed` fraction are equal, and a
//! stream either decodes on both or fails on both.
//!
//! * **Header first.** Both paths share one parse, which rejects — typed,
//!   and before anything is allocated — an output the body cannot expand
//!   to: a token costs at least one bit and yields at most `MAX_MATCH`
//!   bytes, and the 16-bit header fields are free for an attacker to set.
//! * **Tables.** The two Huffman specs are expanded into per-stream `u32`
//!   tables indexed by the next `TABLE_BITS` stream bits (the distance
//!   table is no wider than its longest code). One literal/length load
//!   resolves a whole token head:
//!   bits 0..5 hold the stream bits it consumes (extra bits included),
//!   bits 5..7 the number of literals carried (0 for a length code or end
//!   of stream), and the rest either the literal byte(s) (bits 16..24 and
//!   24..32) or a length code's base (bits 16..25; 0 is end of stream) and
//!   extra-bit count (bits 8..13). A distance entry packs base (bits
//!   16..32) and extra-bit count (bits 8..13) the same way. Entry `0` means
//!   the code outruns the window; it resolves through
//!   [`HuffmanTable::walk16`] and is re-packed into the same entry form, so
//!   there is one handler per token kind.
//! * **Literal pairs.** Where a second literal's code also fits the
//!   window, the entry carries both bytes, the summed code length, and the
//!   first code's own length (bits 8..13) for the one place a pair must be
//!   split: the last byte before an early-stop target, where the reference
//!   stops after one literal.
//! * **Bits** come off a [`FastCursor`] topped up once per token with
//!   [`FastCursor::refill_full`]: ≥ 57 bits cover the widest token (16 + 5
//!   bits of length, 16 + 13 of distance), and a loop that eats 4 to 50
//!   bits a turn would make the usual "enough already?" early-out a coin
//!   toss. Reads past the end of the stream see zero bits and surface
//!   once, as `Truncated`, at the end-of-body `sync`.
//! * **Output** is one buffer of the target size plus `SLACK` bytes,
//!   written by index: a token is only started below the target and yields
//!   at most `MAX_MATCH` bytes, so no write can pass the end and nothing
//!   grows or is re-checked per byte. A match at least a copy chunk back
//!   is copied in fixed 16-byte chunks (its tail spills into the slack or
//!   under the next token); a nearer one whose distance is at least its
//!   length is one `copy_within`; an overlapping one repeats a
//!   `dist`-periodic pattern, so distance 1 is a `fill` and any other
//!   distance doubles the copied span each pass.
//! * **Unfiltering** runs straight into the output image, one loop per
//!   filter type with the pixel size a const generic. The left and
//!   upper-left neighbours live in `[u8; BPP]` registers that start at
//!   zero, which is exactly the `i < bpp` head case; on the first row Up
//!   is a copy, Paeth is Sub and Average halves the left neighbour only.
//!
//! The reference is `decode_rows_reference`: the seed loop, byte for byte,
//! behind the shared header parse.

use crate::bitio::{BitReader, BitWriter, FastCursor};
use crate::error::{Error, Result};
use crate::huffman::HuffmanTable;
use crate::Bytes;
use crate::DecodeOptions;
use smol_imgproc::ImageU8;

const MAGIC: u32 = 0x5350_4E47; // "SPNG"
const VERSION: u32 = 1;

const END_OF_STREAM: u16 = 256;
const LITLEN_ALPHABET: usize = 286;
const DIST_ALPHABET: usize = 30;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
const WINDOW: usize = 32 * 1024;

/// DEFLATE length-code base values for codes 257..=285.
const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
const LENGTH_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
/// DEFLATE distance-code base values for codes 0..=29.
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

fn length_code(len: usize) -> (u16, u8, u16) {
    debug_assert!((MIN_MATCH..=MAX_MATCH).contains(&len));
    let mut code = 0;
    for (i, &base) in LENGTH_BASE.iter().enumerate() {
        if len >= base as usize {
            code = i;
        } else {
            break;
        }
    }
    (
        257 + code as u16,
        LENGTH_EXTRA[code],
        (len - LENGTH_BASE[code] as usize) as u16,
    )
}

fn dist_code(dist: usize) -> (u16, u8, u16) {
    debug_assert!(dist >= 1);
    let mut code = 0;
    for (i, &base) in DIST_BASE.iter().enumerate() {
        if dist >= base as usize {
            code = i;
        } else {
            break;
        }
    }
    (
        code as u16,
        DIST_EXTRA[code],
        (dist - DIST_BASE[code] as usize) as u16,
    )
}

// ---------------------------------------------------------------------------
// Filters
// ---------------------------------------------------------------------------

#[inline]
fn paeth(a: u8, b: u8, c: u8) -> u8 {
    let (pa, pb, pc) = {
        let p = a as i16 + b as i16 - c as i16;
        (
            (p - a as i16).abs(),
            (p - b as i16).abs(),
            (p - c as i16).abs(),
        )
    };
    if pa <= pb && pa <= pc {
        a
    } else if pb <= pc {
        b
    } else {
        c
    }
}

/// Applies filter `ftype` to `row` given the previous row, writing residuals.
fn filter_row(ftype: u8, row: &[u8], prev: Option<&[u8]>, bpp: usize, out: &mut Vec<u8>) {
    for (i, &v) in row.iter().enumerate() {
        let a = if i >= bpp { row[i - bpp] } else { 0 };
        let b = prev.map_or(0, |p| p[i]);
        let c = if i >= bpp {
            prev.map_or(0, |p| p[i - bpp])
        } else {
            0
        };
        let pred = match ftype {
            0 => 0,
            1 => a,
            2 => b,
            3 => ((a as u16 + b as u16) / 2) as u8,
            _ => paeth(a, b, c),
        };
        out.push(v.wrapping_sub(pred));
    }
}

/// Reconstructs a filtered row in place (prev is the already-reconstructed
/// previous row).
fn unfilter_row(ftype: u8, row: &mut [u8], prev: Option<&[u8]>, bpp: usize) {
    for i in 0..row.len() {
        let a = if i >= bpp { row[i - bpp] } else { 0 };
        let b = prev.map_or(0, |p| p[i]);
        let c = if i >= bpp {
            prev.map_or(0, |p| p[i - bpp])
        } else {
            0
        };
        let pred = match ftype {
            0 => 0,
            1 => a,
            2 => b,
            3 => ((a as u16 + b as u16) / 2) as u8,
            _ => paeth(a, b, c),
        };
        row[i] = row[i].wrapping_add(pred);
    }
}

// ---------------------------------------------------------------------------
// LZ77
// ---------------------------------------------------------------------------

enum Token {
    Literal(u8),
    Match { len: u16, dist: u16 },
}

/// Greedy hash-chain LZ77 over the filtered byte stream.
fn lz77(data: &[u8]) -> Vec<Token> {
    const HASH_BITS: usize = 15;
    const HASH_SIZE: usize = 1 << HASH_BITS;
    const MAX_CHAIN: usize = 64;
    let hash = |d: &[u8]| -> usize {
        ((d[0] as usize) << 10 ^ (d[1] as usize) << 5 ^ (d[2] as usize)) & (HASH_SIZE - 1)
    };
    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut chain = vec![usize::MAX; data.len()];
    let mut tokens = Vec::with_capacity(data.len() / 2);
    let mut i = 0usize;
    while i < data.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= data.len() {
            let h = hash(&data[i..]);
            let mut cand = head[h];
            let mut tries = MAX_CHAIN;
            while cand != usize::MAX && tries > 0 && i - cand <= WINDOW {
                let max = (data.len() - i).min(MAX_MATCH);
                let mut l = 0usize;
                while l < max && data[cand + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = i - cand;
                    if l >= MAX_MATCH {
                        break;
                    }
                }
                cand = chain[cand];
                tries -= 1;
            }
            chain[i] = head[h];
            head[h] = i;
        }
        if best_len >= MIN_MATCH {
            tokens.push(Token::Match {
                len: best_len as u16,
                dist: best_dist as u16,
            });
            // Insert hash entries for skipped positions (cheap variant:
            // every other position) to keep future matches findable.
            let end = i + best_len;
            let mut j = i + 1;
            while j < end && j + MIN_MATCH <= data.len() {
                let h = hash(&data[j..]);
                chain[j] = head[h];
                head[h] = j;
                j += 1;
            }
            i = end;
        } else {
            tokens.push(Token::Literal(data[i]));
            i += 1;
        }
    }
    tokens
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

/// Encodes an image losslessly.
pub fn encode(img: &ImageU8) -> Result<Bytes> {
    encode_with_filter(img, None)
}

/// [`encode`] with every scanline forced to filter type `forced` (`0..5`)
/// instead of the per-row heuristic — the hook the decoder tests use to
/// reach each unfilter loop on arbitrary content.
#[doc(hidden)]
pub fn encode_with_filter(img: &ImageU8, forced: Option<u8>) -> Result<Bytes> {
    if forced.is_some_and(|f| f > 4) {
        return Err(Error::BadHeader("filter type out of range".into()));
    }
    if img.width() == 0 || img.height() == 0 {
        return Err(Error::BadHeader("zero-sized image".into()));
    }
    let bpp = img.channels();
    let stride = img.width() * bpp;

    // Filter each row, picking the filter minimizing sum of |residual|.
    let mut filtered = Vec::with_capacity((stride + 1) * img.height());
    let mut scratch: Vec<u8> = Vec::with_capacity(stride);
    for y in 0..img.height() {
        let row = img.row(y);
        let prev = if y > 0 { Some(img.row(y - 1)) } else { None };
        let mut best_type = 0u8;
        let mut best_score = u64::MAX;
        let mut best: Vec<u8> = Vec::new();
        for ftype in forced.map_or(0..5u8, |f| f..f + 1) {
            scratch.clear();
            filter_row(ftype, row, prev, bpp, &mut scratch);
            let score: u64 = scratch
                .iter()
                .map(|&v| (v as i8).unsigned_abs() as u64)
                .sum();
            if score < best_score {
                best_score = score;
                best_type = ftype;
                best = scratch.clone();
            }
        }
        filtered.push(best_type);
        filtered.extend_from_slice(&best);
    }

    write_stream(img.width(), img.height(), bpp, &lz77(&filtered))
}

/// Huffman-codes a token sequence behind the stream header.
fn write_stream(width: usize, height: usize, bpp: usize, tokens: &[Token]) -> Result<Bytes> {
    let mut litlen_freq = [0u64; LITLEN_ALPHABET];
    let mut dist_freq = [0u64; DIST_ALPHABET];
    for t in tokens {
        match t {
            Token::Literal(b) => litlen_freq[*b as usize] += 1,
            Token::Match { len, dist } => {
                litlen_freq[length_code(*len as usize).0 as usize] += 1;
                dist_freq[dist_code(*dist as usize).0 as usize] += 1;
            }
        }
    }
    litlen_freq[END_OF_STREAM as usize] += 1;
    // The distance table must exist even when no matches occur.
    if dist_freq.iter().all(|&f| f == 0) {
        dist_freq[0] = 1;
    }
    let litlen = HuffmanTable::from_frequencies(&litlen_freq, 15)?;
    let dist = HuffmanTable::from_frequencies(&dist_freq, 15)?;

    let mut w = BitWriter::with_capacity(tokens.len());
    w.put(MAGIC, 32);
    w.put(VERSION, 8);
    w.put(width as u32, 16);
    w.put(height as u32, 16);
    w.put(bpp as u32, 8);
    litlen.write_spec(&mut w);
    dist.write_spec(&mut w);
    for t in tokens {
        match t {
            Token::Literal(b) => litlen.encode(&mut w, *b as u16)?,
            Token::Match { len, dist: d } => {
                let (code, extra, val) = length_code(*len as usize);
                litlen.encode(&mut w, code)?;
                if extra > 0 {
                    w.put(val as u32, extra as u32);
                }
                let (dcode, dextra, dval) = dist_code(*d as usize);
                dist.encode(&mut w, dcode)?;
                if dextra > 0 {
                    w.put(dval as u32, dextra as u32);
                }
            }
        }
    }
    litlen.encode(&mut w, END_OF_STREAM)?;
    Ok(Bytes::from(w.finish()))
}

/// Reads only the image dimensions.
pub fn peek_dims(data: &[u8]) -> Result<(usize, usize)> {
    let mut r = BitReader::new(data);
    if r.bits(32)? != MAGIC {
        return Err(Error::BadMagic { expected: "SPNG" });
    }
    let _ = r.bits(8)?;
    let w = r.bits(16)? as usize;
    let h = r.bits(16)? as usize;
    Ok((w, h))
}

/// Fully decodes an spng buffer.
pub fn decode(data: &[u8]) -> Result<ImageU8> {
    decode_with_opts(data, DecodeOptions::default())
}

/// [`decode`] under explicit options: `scalar_kernels` selects the
/// bit-by-bit reference decoder (the oracle the fast path is pinned to).
pub fn decode_with_opts(data: &[u8], opts: DecodeOptions) -> Result<ImageU8> {
    decode_rows_opts(data, usize::MAX, opts).map(|(img, _)| img)
}

/// Decodes only the first `n_rows` scanlines (early stopping), returning the
/// partial image and the fraction of compressed bytes consumed.
pub fn decode_rows(data: &[u8], n_rows: usize) -> Result<(ImageU8, f64)> {
    decode_rows_opts(data, n_rows, DecodeOptions::default())
}

/// [`decode_rows`] under explicit options (see [`decode_with_opts`]).
pub fn decode_rows_opts(data: &[u8], n_rows: usize, opts: DecodeOptions) -> Result<(ImageU8, f64)> {
    let stream = Stream::open(data, n_rows)?;
    if opts.scalar_kernels {
        decode_rows_reference(&stream)
    } else {
        decode_fast(&stream, TABLE_BITS)
    }
}

/// Fast-path decode behind a `bits`-wide literal/length window
/// (`1..=TABLE_BITS`) instead of `TABLE_BITS`. Output never depends on the
/// window; this exists so the microbench can re-measure what that constant
/// was chosen from.
#[doc(hidden)]
pub fn decode_with_window(data: &[u8], bits: u32) -> Result<ImageU8> {
    let stream = Stream::open(data, usize::MAX)?;
    decode_fast(&stream, bits.clamp(1, TABLE_BITS)).map(|(img, _)| img)
}

/// A parsed stream, ready for either decoder: geometry, the two entropy
/// tables, and a reader left on the first body bit.
struct Stream<'a> {
    width: usize,
    bpp: usize,
    /// Scanlines to reconstruct.
    rows: usize,
    /// Filtered bytes to produce: `rows × (1 + stride)`.
    target: usize,
    litlen: HuffmanTable,
    dist: HuffmanTable,
    body: BitReader<'a>,
}

impl<'a> Stream<'a> {
    /// Parses the header and bounds the output by what the body can hold,
    /// before anything is allocated for it.
    fn open(data: &'a [u8], n_rows: usize) -> Result<Self> {
        let mut r = BitReader::new(data);
        if r.bits(32)? != MAGIC {
            return Err(Error::BadMagic { expected: "SPNG" });
        }
        if r.bits(8)? != VERSION {
            return Err(Error::BadHeader("unsupported version".into()));
        }
        let width = r.bits(16)? as usize;
        let height = r.bits(16)? as usize;
        let bpp = r.bits(8)? as usize;
        if width == 0 || height == 0 || bpp == 0 || bpp > 4 {
            return Err(Error::BadHeader("bad dimensions".into()));
        }
        let litlen = HuffmanTable::read_spec(&mut r, LITLEN_ALPHABET)?;
        let dist = HuffmanTable::read_spec(&mut r, DIST_ALPHABET)?;
        let rows = n_rows.min(height).max(1);
        let target = rows * (width * bpp + 1);
        let stream = Stream {
            width,
            bpp,
            rows,
            target,
            litlen,
            dist,
            body: r,
        };
        if target > max_output_bytes(stream.body_bytes()) {
            return Err(Error::BadHeader(format!(
                "{width}x{rows}x{bpp} exceeds what a {}-byte body can hold",
                stream.body_bytes()
            )));
        }
        Ok(stream)
    }

    fn stride(&self) -> usize {
        self.width * self.bpp
    }

    /// Bytes from the first body bit to the end of the buffer.
    fn body_bytes(&self) -> usize {
        ((self.body.len_bits() - self.body.bit_pos()).div_ceil(8)) as usize
    }

    /// The `consumed` fraction of [`decode_rows`] for a body read up to
    /// absolute bit `end`.
    fn consumed(&self, end: u64) -> f64 {
        (end as f64 / 8.0) / (self.body.len_bits() / 8) as f64
    }
}

/// The most filtered bytes a body of `body_bytes` can expand to: every token
/// costs at least one bit and yields at most [`MAX_MATCH`] bytes. Headers
/// are 16-bit fields an attacker sets for free; this is what keeps them from
/// sizing an allocation.
fn max_output_bytes(body_bytes: usize) -> usize {
    body_bytes.saturating_mul(8 * MAX_MATCH)
}

// ---------------------------------------------------------------------------
// Reference decoder (the oracle)
// ---------------------------------------------------------------------------

/// The seed decoder: one canonical-walk symbol at a time through the
/// checked reader, byte-wise match copies, a copy and a per-byte filter
/// `match` per scanline.
fn decode_rows_reference(s: &Stream<'_>) -> Result<(ImageU8, f64)> {
    let (width, bpp, rows, target, stride) = (s.width, s.bpp, s.rows, s.target, s.stride());
    let (litlen, dist) = (&s.litlen, &s.dist);
    let mut r = s.body.clone();
    let mut out: Vec<u8> = Vec::with_capacity(target);

    // LZ decode until the needed bytes are produced or the stream ends.
    while out.len() < target {
        let sym = litlen.decode(&mut r)?;
        if sym == END_OF_STREAM {
            break;
        }
        if sym < 256 {
            out.push(sym as u8);
        } else {
            let code = (sym - 257) as usize;
            if code >= LENGTH_BASE.len() {
                return Err(Error::BadCode {
                    context: "spng length code",
                });
            }
            let extra = LENGTH_EXTRA[code];
            let len = LENGTH_BASE[code] as usize
                + if extra > 0 {
                    r.bits(extra as u32)? as usize
                } else {
                    0
                };
            let dsym = dist.decode(&mut r)? as usize;
            if dsym >= DIST_BASE.len() {
                return Err(Error::BadCode {
                    context: "spng distance code",
                });
            }
            let dextra = DIST_EXTRA[dsym];
            let d = DIST_BASE[dsym] as usize
                + if dextra > 0 {
                    r.bits(dextra as u32)? as usize
                } else {
                    0
                };
            if d == 0 || d > out.len() {
                return Err(Error::BadCode {
                    context: "spng distance out of window",
                });
            }
            let start = out.len() - d;
            for k in 0..len {
                let b = out[start + k];
                out.push(b);
            }
        }
    }
    if out.len() < target {
        return Err(Error::Truncated {
            context: "spng body",
        });
    }
    let consumed = s.consumed(r.bit_pos());

    // Unfilter the decoded scanlines.
    let mut img = ImageU8::zeros(width, rows, bpp);
    let mut prev: Option<Vec<u8>> = None;
    for y in 0..rows {
        let base = y * (stride + 1);
        let ftype = out[base];
        if ftype > 4 {
            return Err(Error::BadCode {
                context: "spng filter type",
            });
        }
        let mut row = out[base + 1..base + 1 + stride].to_vec();
        unfilter_row(ftype, &mut row, prev.as_deref(), bpp);
        let dst_base = y * stride;
        img.data_mut()[dst_base..dst_base + stride].copy_from_slice(&row);
        prev = Some(row);
    }
    Ok((img, consumed))
}

// ---------------------------------------------------------------------------
// Fast decoder
// ---------------------------------------------------------------------------

/// Width of the literal/length window table. Not sized to the body the way
/// sjpg's [`pair_window_bits`](crate::runlength::pair_window_bits) is:
/// expanding 4 096 entries and pairing them costs ≈ 4 µs, and a wide window
/// earns that back on every thumbnail this repo serves by resolving more
/// literal pairs per load and sending fewer codes through the walk —
/// `microbench` `codec_decode/spng_window` reads 68 / 76 / 53 µs behind
/// 8 / 10 / 12 bits on the 9.3 KB `64 spng` body and 568 / 554 / 503 on the
/// 75 KB `161 spng` one. 13–14 bits (tables past the L1) were no better
/// than 12 on the large body.
const TABLE_BITS: u32 = 12;

/// Granule of the far-match copy loop.
const COPY_CHUNK: usize = 16;

/// Bytes past the target the LZ buffer keeps writable: the last token starts
/// below the target and writes at most a whole match, rounded up to a copy
/// chunk.
const SLACK: usize = MAX_MATCH + COPY_CHUNK;

/// Entry fields shared by both tables (see the module doc for the layout).
const BITS_MASK: u32 = 31;
const LITS_SHIFT: u32 = 5;
const AUX_SHIFT: u32 = 8;
const BASE_SHIFT: u32 = 16;

/// Packs one literal/length symbol of code length `len` into its entry.
#[inline]
fn pack_litlen(sym: u16, len: u32) -> u32 {
    match sym {
        0..=255 => len | 1 << LITS_SHIFT | len << AUX_SHIFT | (sym as u32) << BASE_SHIFT,
        END_OF_STREAM => len,
        _ => {
            // The alphabet has 286 symbols, so `code` is one of the 29.
            let code = (sym - 257) as usize;
            let extra = LENGTH_EXTRA[code] as u32;
            (len + extra) | extra << AUX_SHIFT | (LENGTH_BASE[code] as u32) << BASE_SHIFT
        }
    }
}

/// Packs one distance symbol (one of the alphabet's 30) into its entry.
#[inline]
fn pack_dist(sym: u16, len: u32) -> u32 {
    let code = sym as usize;
    let extra = DIST_EXTRA[code] as u32;
    (len + extra) | extra << AUX_SHIFT | (DIST_BASE[code] as u32) << BASE_SHIFT
}

/// Prefix-expands every code of `table` no longer than `bits` into a
/// `bits`-wide window table of `pack`ed entries; the rest stay 0.
fn expand(table: &HuffmanTable, bits: u32, pack: fn(u16, u32) -> u32) -> Vec<u32> {
    let mut lut = vec![0u32; 1 << bits];
    for (sym, len, code) in table.canonical_codes() {
        if len > bits {
            break; // canonical order: shortest codes first
        }
        let lo = (code << (bits - len)) as usize;
        lut[lo..lo + (1 << (bits - len))].fill(pack(sym, len));
    }
    lut
}

/// Upgrades every literal entry whose window also holds a whole second
/// literal code into a pair entry. In place: an entry read back as the
/// second literal may already be a pair, but its first literal and that
/// literal's own length sit in the same fields either way.
fn pair_literals(lut: &mut [u32], bits: u32) {
    let mask = lut.len() - 1;
    for w in 0..lut.len() {
        let first = lut[w];
        if (first >> LITS_SHIFT) & 3 != 1 {
            continue;
        }
        let l1 = first & BITS_MASK;
        let second = lut[(w << l1) & mask];
        let l2 = (second >> AUX_SHIFT) & BITS_MASK;
        if (second >> LITS_SHIFT) & 3 != 0 && l1 + l2 <= bits {
            lut[w] = (l1 + l2)
                | 2 << LITS_SHIFT
                | l1 << AUX_SHIFT
                | (first & 0x00FF_0000)
                | (second & 0x00FF_0000) << 8;
        }
    }
}

/// Copies the `len`-byte match at distance `d` behind `pos` to `pos`. May
/// write up to [`COPY_CHUNK`] - 1 bytes past the match; the caller's next
/// token overwrites them.
#[inline]
fn copy_match(out: &mut [u8], pos: usize, d: usize, len: usize) {
    let src = pos - d;
    if d >= COPY_CHUNK {
        // Far enough back that a chunk's source never meets its own
        // destination: fixed-size copies the compiler keeps in registers,
        // where most matches (three to a dozen bytes) are one chunk.
        let mut done = 0;
        while done < len {
            out.copy_within(src + done..src + done + COPY_CHUNK, pos + done);
            done += COPY_CHUNK;
        }
    } else if d >= len {
        out.copy_within(src..src + len, pos);
    } else if d == 1 {
        let b = out[src];
        out[pos..pos + len].fill(b);
    } else {
        // The output is `d`-periodic from `src` on: each pass copies
        // everything written so far, a whole number of periods.
        let mut done = 0;
        while done < len {
            let n = (d + done).min(len - done);
            out.copy_within(src..src + n, pos + done);
            done += n;
        }
    }
}

/// The two expanded window tables of one stream.
struct Tables {
    lits: Vec<u32>,
    dists: Vec<u32>,
    /// `32 - window bits`: a 32-bit peek shifted right by this indexes the
    /// table.
    lit_shift: u32,
    dist_shift: u32,
}

impl Tables {
    fn new(s: &Stream<'_>, bits: u32) -> Self {
        let mut lits = expand(&s.litlen, bits, pack_litlen);
        pair_literals(&mut lits, bits);
        let longest = s.dist.canonical_codes().map(|(_, len, _)| len).max();
        let dist_bits = longest.map_or(1, |l| l.min(bits));
        Tables {
            lits,
            dists: expand(&s.dist, dist_bits, pack_dist),
            lit_shift: 32 - bits,
            dist_shift: 32 - dist_bits,
        }
    }
}

/// The value of the extra bits behind the code that heads window `w`, for
/// that code's length or distance entry `e`: the low `extra` of the
/// entry's `bits` leading window bits (at most 16 + 13).
#[inline]
fn extra_bits(w: u32, e: u32) -> usize {
    let (bits, extra) = (e & BITS_MASK, (e >> AUX_SHIFT) & BITS_MASK);
    ((w >> (32 - bits)) & ((1 << extra) - 1)) as usize
}

/// Resolves a code the window table has no entry for — longer than the
/// window, or no code at all — into the entry the table would have held.
#[cold]
fn walk(table: &HuffmanTable, w: u32, pack: fn(u16, u32) -> u32) -> Result<u32> {
    let (len, sym) = table.walk16(w >> 16)?;
    Ok(pack(sym, len))
}

/// LZ-decodes tokens into `out` until `s.target` bytes are written, and
/// returns the bit position the body was read up to.
fn inflate(s: &Stream<'_>, t: &Tables, out: &mut [u8]) -> Result<u64> {
    let target = s.target;
    debug_assert!(out.len() >= target + SLACK);
    let mut r = s.body.clone();
    let mut c = FastCursor::from_reader(&r);
    let mut pos = 0usize;
    while pos < target {
        // One top-up (≥ 57 bits unless the stream ends) covers the widest
        // token: 16 + 5 bits of length, 16 + 13 of distance.
        c.refill_full();
        let w = c.peek32();
        let mut e = t.lits[(w >> t.lit_shift) as usize];
        if e == 0 {
            e = walk(&s.litlen, w, pack_litlen)?;
        }
        let n_lits = (e >> LITS_SHIFT) & 3;
        if n_lits != 0 {
            out[pos..pos + 2].copy_from_slice(&[(e >> 16) as u8, (e >> 24) as u8]);
            if pos + 1 == target && n_lits == 2 {
                // The reference stops on the literal that reaches the
                // target and never reads the second code.
                c.skip((e >> AUX_SHIFT) & BITS_MASK);
                pos += 1;
                break;
            }
            c.skip(e & BITS_MASK);
            pos += n_lits as usize;
            continue;
        }
        let base = (e >> BASE_SHIFT) as usize;
        if base == 0 {
            break; // end of stream
        }
        let len = base + extra_bits(w, e);
        c.skip(e & BITS_MASK);

        let w = c.peek32();
        let mut e = t.dists[(w >> t.dist_shift) as usize];
        if e == 0 {
            e = walk(&s.dist, w, pack_dist)?;
        }
        let d = (e >> BASE_SHIFT) as usize + extra_bits(w, e);
        c.skip(e & BITS_MASK);
        if d > pos {
            return Err(Error::BadCode {
                context: "spng distance out of window",
            });
        }
        copy_match(out, pos, d, len);
        pos += len;
    }
    if pos < target {
        return Err(Error::Truncated {
            context: "spng body",
        });
    }
    // Reads past the end saw zero bits; this is where they surface.
    c.sync(&mut r)?;
    Ok(r.bit_pos())
}

/// The table-driven decoder every caller runs.
fn decode_fast(s: &Stream<'_>, bits: u32) -> Result<(ImageU8, f64)> {
    let mut lz = vec![0u8; s.target + SLACK];
    let end = inflate(s, &Tables::new(s, bits), &mut lz)?;

    // A second buffer, allocated after the short-lived ones, and not an
    // in-place unfilter: callers keep the image (the tensor cache does), and
    // both packing it inside `lz` and allocating it first left the serving
    // benchmark's heap 3-6 MB larger.
    let stride = s.stride();
    let mut pixels = vec![0u8; s.rows * stride];
    match s.bpp {
        1 => unfilter_rows::<1>(&lz, stride, &mut pixels)?,
        2 => unfilter_rows::<2>(&lz, stride, &mut pixels)?,
        3 => unfilter_rows::<3>(&lz, stride, &mut pixels)?,
        _ => unfilter_rows::<4>(&lz, stride, &mut pixels)?,
    }
    let img = ImageU8::from_vec(s.width, s.rows, s.bpp, pixels).map_err(Error::Image)?;
    Ok((img, s.consumed(end)))
}

/// Reconstructs the scanlines of `lz` (`1 + stride` filtered bytes each)
/// into `pixels` (`stride` bytes each), predicting from the rows already
/// written there.
fn unfilter_rows<const BPP: usize>(lz: &[u8], stride: usize, pixels: &mut [u8]) -> Result<()> {
    let mut done: &[u8] = &[];
    for (line, cur) in lz
        .chunks_exact(stride + 1)
        .zip(pixels.chunks_exact_mut(stride))
    {
        let (ftype, raw) = (line[0], &line[1..]);
        match (ftype, done.is_empty()) {
            // With no row above, Up predicts 0 and Paeth picks the left
            // neighbour every time.
            (0, _) | (2, true) => cur.copy_from_slice(raw),
            (1, _) | (4, true) => unfilter_sub::<BPP>(raw, cur),
            (2, false) => {
                for ((o, &r), &b) in cur.iter_mut().zip(raw).zip(done) {
                    *o = r.wrapping_add(b);
                }
            }
            (3, true) => unfilter_average_first::<BPP>(raw, cur),
            (3, false) => unfilter_average::<BPP>(raw, done, cur),
            (4, false) => unfilter_paeth::<BPP>(raw, done, cur),
            _ => {
                return Err(Error::BadCode {
                    context: "spng filter type",
                })
            }
        }
        done = cur;
    }
    Ok(())
}

fn unfilter_sub<const BPP: usize>(raw: &[u8], cur: &mut [u8]) {
    let mut left = [0u8; BPP];
    for (o, r) in cur.chunks_exact_mut(BPP).zip(raw.chunks_exact(BPP)) {
        for c in 0..BPP {
            left[c] = r[c].wrapping_add(left[c]);
            o[c] = left[c];
        }
    }
}

fn unfilter_average_first<const BPP: usize>(raw: &[u8], cur: &mut [u8]) {
    let mut left = [0u8; BPP];
    for (o, r) in cur.chunks_exact_mut(BPP).zip(raw.chunks_exact(BPP)) {
        for c in 0..BPP {
            left[c] = r[c].wrapping_add(left[c] / 2);
            o[c] = left[c];
        }
    }
}

fn unfilter_average<const BPP: usize>(raw: &[u8], up: &[u8], cur: &mut [u8]) {
    let mut left = [0u8; BPP];
    let rows = cur.chunks_exact_mut(BPP).zip(raw.chunks_exact(BPP));
    for ((o, r), b) in rows.zip(up.chunks_exact(BPP)) {
        for c in 0..BPP {
            left[c] = r[c].wrapping_add(((left[c] as u16 + b[c] as u16) / 2) as u8);
            o[c] = left[c];
        }
    }
}

fn unfilter_paeth<const BPP: usize>(raw: &[u8], up: &[u8], cur: &mut [u8]) {
    let (mut left, mut up_left) = ([0u8; BPP], [0u8; BPP]);
    let rows = cur.chunks_exact_mut(BPP).zip(raw.chunks_exact(BPP));
    for ((o, r), b) in rows.zip(up.chunks_exact(BPP)) {
        for c in 0..BPP {
            left[c] = r[c].wrapping_add(paeth(left[c], b[c], up_left[c]));
            up_left[c] = b[c];
            o[c] = left[c];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textured(w: usize, h: usize) -> ImageU8 {
        let mut img = ImageU8::zeros(w, h, 3);
        for y in 0..h {
            for x in 0..w {
                img.set(x, y, 0, ((x * 5 + y * 3) % 256) as u8);
                img.set(x, y, 1, ((x ^ y) % 256) as u8);
                img.set(x, y, 2, ((x * y / 7) % 256) as u8);
            }
        }
        img
    }

    #[test]
    fn roundtrip_is_lossless() {
        let img = textured(61, 43);
        let enc = encode(&img).unwrap();
        let dec = decode(&enc).unwrap();
        assert_eq!(img, dec);
    }

    #[test]
    fn smooth_images_compress() {
        let mut img = ImageU8::zeros(128, 128, 3);
        for y in 0..128 {
            for x in 0..128 {
                for c in 0..3 {
                    img.set(x, y, c, ((x + y) / 2) as u8);
                }
            }
        }
        let enc = encode(&img).unwrap();
        assert!(
            enc.len() * 4 < img.data().len(),
            "len={} raw={}",
            enc.len(),
            img.data().len()
        );
        assert_eq!(decode(&enc).unwrap(), img);
    }

    #[test]
    fn early_stop_reconstructs_prefix_rows_exactly() {
        let img = textured(80, 60);
        let enc = encode(&img).unwrap();
        let (top, consumed) = decode_rows(&enc, 15).unwrap();
        assert_eq!(top.height(), 15);
        assert!(consumed < 1.0);
        for y in 0..15 {
            assert_eq!(top.row(y), img.row(y));
        }
    }

    #[test]
    fn early_stop_consumes_less_of_the_stream() {
        let img = textured(128, 128);
        let enc = encode(&img).unwrap();
        let (_, frac_quarter) = decode_rows(&enc, 32).unwrap();
        let (_, frac_full) = decode_rows(&enc, 128).unwrap();
        assert!(
            frac_quarter < frac_full * 0.6,
            "quarter={frac_quarter} full={frac_full}"
        );
    }

    #[test]
    fn single_channel_roundtrip() {
        let mut img = ImageU8::zeros(33, 17, 1);
        for (i, v) in img.data_mut().iter_mut().enumerate() {
            *v = (i % 251) as u8;
        }
        let enc = encode(&img).unwrap();
        assert_eq!(decode(&enc).unwrap(), img);
    }

    #[test]
    fn random_noise_roundtrip() {
        // Noise defeats LZ and filters — must still be lossless.
        let mut img = ImageU8::zeros(40, 40, 3);
        let mut state = 0x12345678u32;
        for v in img.data_mut() {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            *v = (state >> 24) as u8;
        }
        let enc = encode(&img).unwrap();
        assert_eq!(decode(&enc).unwrap(), img);
    }

    #[test]
    fn corrupt_magic_rejected() {
        let img = textured(16, 16);
        let mut enc = encode(&img).unwrap().to_vec();
        enc[1] ^= 0x55;
        assert!(decode(&enc).is_err());
    }

    #[test]
    fn truncated_stream_errors() {
        let img = textured(64, 64);
        let enc = encode(&img).unwrap();
        assert!(decode(&enc[..enc.len() / 2]).is_err());
    }

    #[test]
    fn peek_dims_works() {
        let img = textured(23, 41);
        let enc = encode(&img).unwrap();
        assert_eq!(peek_dims(&enc).unwrap(), (23, 41));
    }

    #[test]
    fn paeth_matches_png_spec_examples() {
        assert_eq!(paeth(0, 0, 0), 0);
        assert_eq!(paeth(100, 100, 100), 100);
        // p = a + b - c; the predictor is whichever neighbour lies nearest
        // to it, ties going to a, then b.
        assert_eq!(paeth(10, 20, 30), 10); // p = 0: a is nearest
        assert_eq!(paeth(20, 10, 30), 10); // p = 0: b is nearest
        assert_eq!(paeth(10, 30, 20), 20); // p = 20: c is exact
    }

    /// Both decoders on `data` at `n_rows`: same `Ok`/`Err`, and when `Ok`
    /// the same pixels and the same `consumed` fraction. Returns the
    /// agreed result.
    fn agree(data: &[u8], n_rows: usize) -> Option<ImageU8> {
        let fast = decode_rows_opts(data, n_rows, DecodeOptions::default());
        let reference = decode_rows_opts(data, n_rows, DecodeOptions::scalar_reference());
        match (fast, reference) {
            (Ok((f, fc)), Ok((r, rc))) => {
                assert_eq!(f, r, "pixels at n_rows {n_rows}");
                assert_eq!(fc, rc, "consumed at n_rows {n_rows}");
                Some(f)
            }
            (Err(_), Err(_)) => None,
            (f, r) => panic!(
                "n_rows {n_rows}: fast {:?} but reference {:?}",
                f.map(|_| ()),
                r.map(|_| ())
            ),
        }
    }

    #[test]
    fn fast_path_matches_reference_under_every_filter_and_row_count() {
        for (w, h) in [(1, 1), (1, 9), (2, 5), (37, 11)] {
            let rgb = textured(w, h);
            for bpp in 1..=4usize {
                let mut img = ImageU8::zeros(w, h, bpp);
                for (i, v) in img.data_mut().iter_mut().enumerate() {
                    *v = rgb.data()[i % rgb.data().len()].wrapping_mul(bpp as u8 + 2);
                }
                for forced in [None, Some(0), Some(1), Some(2), Some(3), Some(4)] {
                    let enc = encode_with_filter(&img, forced).unwrap();
                    for n_rows in 0..=h + 1 {
                        let got = agree(&enc, n_rows).expect("a valid stream decodes");
                        let rows = n_rows.clamp(1, h);
                        assert_eq!(got.height(), rows);
                        assert_eq!(got.data(), &img.data()[..rows * w * bpp], "{forced:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn output_does_not_depend_on_the_table_width() {
        // Behind a narrow window nearly every code resolves through the
        // walk, which `TABLE_BITS` leaves to the rare long code.
        let mut noise = ImageU8::zeros(40, 40, 3);
        let mut state = 0x12345678u32;
        for v in noise.data_mut() {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            *v = (state >> 24) as u8;
        }
        for img in [noise, textured(61, 43)] {
            let enc = encode(&img).unwrap();
            for bits in 1..=TABLE_BITS {
                assert_eq!(decode_with_window(&enc, bits).unwrap(), img, "{bits} bits");
            }
        }
    }

    /// Literals, plus a match at distance `d` wherever `data` repeats itself
    /// `d` bytes back for at least `MIN_MATCH` bytes.
    fn tokenize_at(data: &[u8], d: usize) -> Vec<Token> {
        let mut tokens = Vec::new();
        let mut i = 0;
        while i < data.len() {
            let run = (i..data.len())
                .take_while(|&k| k >= d && data[k] == data[k - d])
                .count()
                .min(MAX_MATCH);
            if run >= MIN_MATCH {
                tokens.push(Token::Match {
                    len: run as u16,
                    dist: d as u16,
                });
                i += run;
            } else {
                tokens.push(Token::Literal(data[i]));
                i += 1;
            }
        }
        tokens
    }

    #[test]
    fn overlapping_and_overshooting_matches_decode_like_the_reference() {
        let (w, h, bpp) = (50usize, 6usize, 3usize);
        let line = w * bpp + 1;
        // Distances 1, 2, bpp and one that is none of them. The whole
        // filtered stream — filter bytes included, hence the `% 5` — is
        // `d`-periodic, so after `d` literals it is one chain of maximal
        // matches, each longer than its distance and blind to row ends.
        for d in [1usize, 2, bpp, 7] {
            let filtered: Vec<u8> = (0..h * line).map(|i| (i % d % 5) as u8).collect();
            let tokens = tokenize_at(&filtered, d);
            let mut start = 0;
            let mut overshot = Vec::new();
            for t in &tokens {
                let len = match *t {
                    Token::Literal(_) => 1,
                    Token::Match { len, dist } => {
                        assert!(dist as usize == d && len as usize > d);
                        len as usize
                    }
                };
                // A token that starts in row `k - 1` and ends inside a later
                // row overshoots the target of `decode_rows(k)`.
                let k = start / line + 1;
                if start + len > k * line {
                    overshot.push(k);
                }
                start += len;
            }
            assert!(!overshot.is_empty(), "d={d}: no match overshoots a row");

            let mut expect = filtered.clone();
            for y in 0..h {
                let (above, rest) = expect.split_at_mut(y * line);
                let prev = (y > 0).then(|| &above[(y - 1) * line + 1..]);
                unfilter_row(rest[0], &mut rest[1..line], prev, bpp);
            }
            let enc = write_stream(w, h, bpp, &tokens).unwrap();
            for n_rows in (1..=h).chain(overshot) {
                let got = agree(&enc, n_rows).expect("a valid stream decodes");
                for y in 0..got.height() {
                    let row = &expect[y * line + 1..(y + 1) * line];
                    assert_eq!(got.row(y), row, "d={d} n_rows={n_rows} y={y}");
                }
            }
        }
    }

    #[test]
    fn a_header_larger_than_its_body_can_hold_is_rejected_before_allocating() {
        let mut img = ImageU8::zeros(8, 8, 3);
        for (i, v) in img.data_mut().iter_mut().enumerate() {
            *v = (i * 37 % 251) as u8;
        }
        let enc = encode(&img).unwrap().to_vec();
        // 65535 × 65535 × 4 claims 17 GB; the seed aborted the process
        // allocating it.
        let mut hostile = enc.clone();
        hostile[5..10].copy_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0x04]);
        for opts in [DecodeOptions::default(), DecodeOptions::scalar_reference()] {
            assert!(matches!(
                decode_with_opts(&hostile, opts),
                Err(Error::BadHeader(_))
            ));
        }

        // One scanline of width `2064 × body`: exactly one byte past the
        // bound with the filter byte, exactly on it one pixel narrower.
        let tiny = encode(&ImageU8::zeros(4, 1, 1)).unwrap().to_vec();
        let body = Stream::open(&tiny, 1).unwrap().body_bytes();
        let bound = max_output_bytes(body);
        assert!(bound <= u16::MAX as usize, "body {body} too large to test");
        let with_width = |w: usize| {
            let mut data = tiny.clone();
            data[5..7].copy_from_slice(&(w as u16).to_be_bytes());
            data
        };
        for opts in [DecodeOptions::default(), DecodeOptions::scalar_reference()] {
            assert!(matches!(
                decode_with_opts(&with_width(bound), opts),
                Err(Error::BadHeader(_))
            ));
            assert!(matches!(
                decode_with_opts(&with_width(bound - 1), opts),
                Err(Error::Truncated { .. })
            ));
        }
    }
}
