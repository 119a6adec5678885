//! Canonical, length-limited Huffman coding.
//!
//! Both codecs build per-image tables from symbol frequencies (two-pass
//! encoding), serialize the table spec (counts-per-length + symbols in
//! canonical order) into the header, and decode with the classic
//! JPEG-style first-code/count walk — a deliberately branchy, sequential
//! procedure, because branchy sequential entropy decoding is exactly the
//! preprocessing cost structure the paper studies (§6.4).

use crate::bitio::{BitReader, BitWriter};
use crate::error::{Error, Result};

/// Maximum code length supported by the (de)serializer.
pub const MAX_CODE_LEN: u8 = 16;

/// Window width of the fast decoder's prefix lookup table: one peek of
/// this many bits resolves any code of length ≤ `LUT_BITS` in a single
/// table hit. Longer codes (rare by construction — canonical tables put
/// frequent symbols on short codes) fall back to the first-code walk.
/// 12 bits keeps a table at 8 KiB (u16 entries) so the two tables a
/// decode uses both stay L1-resident while covering the long tail of
/// mid-frequency AC symbols that an 11-bit window pushed onto the walk.
const LUT_BITS: u32 = 12;

/// Symbols representable in a LUT entry's low bits (len lives in the top
/// 4 bits: `LUT_BITS ≤ 15` fits). Larger alphabets simply skip the LUT.
const LUT_MAX_SYM: usize = 1 << 12;

/// A canonical Huffman table over a dense alphabet `0..alphabet_size`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HuffmanTable {
    /// Code length per symbol; 0 = symbol unused.
    lengths: Vec<u8>,
    /// Canonical code per symbol (valid where `lengths[sym] > 0`).
    codes: Vec<u16>,
    /// Symbols in canonical order (sorted by length, then value).
    canon_symbols: Vec<u16>,
    /// Number of codes of each length `1..=MAX_CODE_LEN` (index 0 unused).
    count_per_len: [u16; MAX_CODE_LEN as usize + 1],
    /// First canonical code of each length.
    first_code: [u32; MAX_CODE_LEN as usize + 1],
    /// Index into `canon_symbols` of the first symbol of each length.
    first_index: [u32; MAX_CODE_LEN as usize + 1],
    /// Prefix-expanded decode table: entry `(len << 12) | sym` for every
    /// `LUT_BITS`-bit window starting with a code of length ≤ `LUT_BITS`;
    /// 0 where the window starts with a longer (or no) code.
    lut: Vec<u16>,
}

impl HuffmanTable {
    /// Builds a length-limited canonical table from symbol frequencies.
    ///
    /// Symbols with zero frequency receive no code. At least one symbol must
    /// have nonzero frequency. The code lengths are computed with a Huffman
    /// tree and then, if necessary, rebalanced to respect `max_len` using
    /// the libjpeg-style length-adjustment procedure.
    pub fn from_frequencies(freqs: &[u64], max_len: u8) -> Result<Self> {
        if max_len == 0 || max_len > MAX_CODE_LEN {
            return Err(Error::BadTable(format!("max_len {max_len} unsupported")));
        }
        let used: Vec<usize> = freqs
            .iter()
            .enumerate()
            .filter(|(_, &f)| f > 0)
            .map(|(i, _)| i)
            .collect();
        if used.is_empty() {
            return Err(Error::BadTable("no symbols with nonzero frequency".into()));
        }
        let mut lengths = vec![0u8; freqs.len()];
        if used.len() == 1 {
            lengths[used[0]] = 1;
        } else {
            huffman_code_lengths(freqs, &mut lengths);
            limit_lengths(&mut lengths, max_len);
        }
        Self::from_lengths(lengths)
    }

    /// Builds the canonical table from per-symbol code lengths.
    pub fn from_lengths(lengths: Vec<u8>) -> Result<Self> {
        let mut count_per_len = [0u16; MAX_CODE_LEN as usize + 1];
        for &l in &lengths {
            if l > MAX_CODE_LEN {
                return Err(Error::BadTable(format!("length {l} exceeds max")));
            }
            if l > 0 {
                count_per_len[l as usize] += 1;
            }
        }
        check_kraft(&count_per_len)?;

        let mut canon_symbols: Vec<u16> = (0..lengths.len() as u16)
            .filter(|&s| lengths[s as usize] > 0)
            .collect();
        canon_symbols.sort_by_key(|&s| (lengths[s as usize], s));

        let mut first_code = [0u32; MAX_CODE_LEN as usize + 1];
        let mut first_index = [0u32; MAX_CODE_LEN as usize + 1];
        let mut code: u32 = 0;
        let mut index: u32 = 0;
        for l in 1..=MAX_CODE_LEN as usize {
            first_code[l] = code;
            first_index[l] = index;
            code = (code + count_per_len[l] as u32) << 1;
            index += count_per_len[l] as u32;
        }

        let mut codes = vec![0u16; lengths.len()];
        let mut next = first_code;
        for &s in &canon_symbols {
            let l = lengths[s as usize] as usize;
            codes[s as usize] = next[l] as u16;
            next[l] += 1;
        }

        // Prefix-expand codes of length ≤ LUT_BITS: every window whose top
        // bits spell a short code decodes in one indexed load.
        let mut lut = vec![0u16; 1 << LUT_BITS];
        if lengths.len() <= LUT_MAX_SYM {
            for &s in &canon_symbols {
                let l = lengths[s as usize] as u32;
                if l > LUT_BITS {
                    break; // canon_symbols is sorted by length
                }
                let base = (codes[s as usize] as u32) << (LUT_BITS - l);
                let entry = ((l as u16) << 12) | s;
                for slot in &mut lut[base as usize..(base + (1 << (LUT_BITS - l))) as usize] {
                    *slot = entry;
                }
            }
        }

        Ok(HuffmanTable {
            lengths,
            codes,
            canon_symbols,
            count_per_len,
            first_code,
            first_index,
            lut,
        })
    }

    pub fn alphabet_size(&self) -> usize {
        self.lengths.len()
    }

    /// Code length for a symbol (0 if the symbol has no code).
    pub fn length_of(&self, sym: u16) -> u8 {
        self.lengths[sym as usize]
    }

    /// Encodes one symbol.
    #[inline]
    pub fn encode(&self, w: &mut BitWriter, sym: u16) -> Result<()> {
        let l = self.lengths[sym as usize];
        if l == 0 {
            return Err(Error::BadTable(format!("symbol {sym} has no code")));
        }
        w.put(self.codes[sym as usize] as u32, l as u32);
        Ok(())
    }

    /// Decodes one symbol with the canonical first-code walk.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u16> {
        let mut code: u32 = 0;
        for l in 1..=MAX_CODE_LEN as usize {
            code = (code << 1) | r.bit()?;
            let cnt = self.count_per_len[l] as u32;
            if cnt > 0 {
                let offset = code.wrapping_sub(self.first_code[l]);
                if offset < cnt {
                    return Ok(self.canon_symbols[(self.first_index[l] + offset) as usize]);
                }
            }
        }
        Err(Error::BadCode {
            context: "HuffmanTable::decode",
        })
    }

    /// Resolves the symbol starting at the top of a 16-bit window peeked
    /// from the stream. Returns `(code_length, symbol)`; a length of 0
    /// means the window starts with a code longer than `LUT_BITS` (or
    /// garbage) and the caller must fall back to [`Self::decode`]. The
    /// caller owns consuming `code_length` bits from the reader.
    #[inline]
    pub fn lookup16(&self, window: u32) -> (u32, u16) {
        let entry = self.lut[(window >> (16 - LUT_BITS)) as usize];
        ((entry >> 12) as u32, entry & 0x0FFF)
    }

    /// Every coded symbol as `(symbol, code_length, code)` in canonical
    /// order (shortest codes first) — what a decoder that expands its own
    /// window-sized tables iterates.
    pub fn canonical_codes(&self) -> impl Iterator<Item = (u16, u32, u32)> + '_ {
        self.canon_symbols.iter().map(|&s| {
            (
                s,
                self.lengths[s as usize] as u32,
                self.codes[s as usize] as u32,
            )
        })
    }

    /// Canonical first-code walk over a pre-peeked MSB-first 16-bit
    /// window: resolves `(code_length, symbol)` without touching a
    /// reader. Consumes nothing — the caller owns advancing the cursor
    /// by the returned length. Bit-for-bit the same procedure as
    /// [`Self::decode`], used by the fast path when a code outruns the
    /// prefix LUT.
    #[inline]
    pub fn walk16(&self, window: u32) -> Result<(u32, u16)> {
        let mut code: u32 = 0;
        for l in 1..=MAX_CODE_LEN as usize {
            code = (code << 1) | ((window >> (16 - l)) & 1);
            let cnt = self.count_per_len[l] as u32;
            if cnt > 0 {
                let offset = code.wrapping_sub(self.first_code[l]);
                if offset < cnt {
                    let sym = self.canon_symbols[(self.first_index[l] + offset) as usize];
                    return Ok((l as u32, sym));
                }
            }
        }
        Err(Error::BadCode {
            context: "HuffmanTable::walk16",
        })
    }

    /// Decodes one symbol via the prefix lookup table: peek a `LUT_BITS`
    /// window, resolve symbol + length in one load, consume the length.
    /// Codes longer than `LUT_BITS` (rare) fall back to the walk. Produces
    /// exactly the same symbols and cursor positions as [`Self::decode`].
    #[inline]
    pub fn decode_fast(&self, r: &mut BitReader<'_>) -> Result<u16> {
        let (len, sym) = self.lookup16(r.peek16());
        if len != 0 {
            r.skip_bits(len)?;
            return Ok(sym);
        }
        self.decode(r)
    }

    /// Writes the table spec: counts per length then canonical symbols.
    pub fn write_spec(&self, w: &mut BitWriter) {
        for l in 1..=MAX_CODE_LEN as usize {
            w.put(self.count_per_len[l] as u32, 16);
        }
        for &s in &self.canon_symbols {
            w.put(s as u32, 16);
        }
    }

    /// Deserializes a table spec written by [`Self::write_spec`].
    pub fn read_spec(r: &mut BitReader<'_>, alphabet_size: usize) -> Result<Self> {
        Self::from_lengths(Self::read_lengths(r, alphabet_size)?)
    }

    /// Reads a table spec and checks it — symbol count, symbol range and
    /// repeats, the Kraft inequality on the counts — without building the
    /// table: the per-symbol code lengths [`Self::from_lengths`] takes. A
    /// spec this accepts always builds.
    pub(crate) fn read_lengths(r: &mut BitReader<'_>, alphabet_size: usize) -> Result<Vec<u8>> {
        let mut count_per_len = [0u16; MAX_CODE_LEN as usize + 1];
        let mut total: usize = 0;
        for slot in count_per_len.iter_mut().skip(1) {
            *slot = r.bits(16)? as u16;
            total += *slot as usize;
        }
        if total == 0 || total > alphabet_size {
            return Err(Error::BadTable(format!(
                "table spec has {total} symbols for alphabet {alphabet_size}"
            )));
        }
        check_kraft(&count_per_len)?;
        let mut lengths = vec![0u8; alphabet_size];
        let mut read_so_far = 0usize;
        for (l, &count) in count_per_len.iter().enumerate().skip(1) {
            for _ in 0..count {
                let s = r.bits(16)? as usize;
                if s >= alphabet_size {
                    return Err(Error::BadTable(format!("symbol {s} out of alphabet")));
                }
                if lengths[s] != 0 {
                    return Err(Error::BadTable(format!("symbol {s} repeated")));
                }
                lengths[s] = l as u8;
                read_so_far += 1;
            }
        }
        debug_assert_eq!(read_so_far, total);
        Ok(lengths)
    }
}

/// Kraft inequality on codes-per-length: `Σ count_l · 2^-l ≤ 1`, or no
/// prefix code has those lengths.
fn check_kraft(count_per_len: &[u16; MAX_CODE_LEN as usize + 1]) -> Result<()> {
    let mut kraft: u64 = 0;
    for (l, &count) in count_per_len.iter().enumerate().skip(1) {
        kraft += (count as u64) << (MAX_CODE_LEN as usize - l);
    }
    if kraft > 1u64 << MAX_CODE_LEN {
        return Err(Error::BadTable("code lengths violate Kraft".into()));
    }
    Ok(())
}

/// Computes unlimited Huffman code lengths into `lengths`.
fn huffman_code_lengths(freqs: &[u64], lengths: &mut [u8]) {
    // Node arena: leaves then internal nodes; parent-pointer trick.
    #[derive(Clone, Copy)]
    struct Node {
        freq: u64,
        parent: usize,
    }
    const NONE: usize = usize::MAX;
    let mut nodes: Vec<Node> = Vec::with_capacity(freqs.len() * 2);
    let mut leaf_of_symbol = vec![NONE; freqs.len()];
    for (s, &f) in freqs.iter().enumerate() {
        if f > 0 {
            leaf_of_symbol[s] = nodes.len();
            nodes.push(Node {
                freq: f,
                parent: NONE,
            });
        }
    }
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| Reverse((n.freq, i)))
        .collect();
    while heap.len() > 1 {
        let Reverse((f1, a)) = heap.pop().expect("len>1");
        let Reverse((f2, b)) = heap.pop().expect("len>1");
        let idx = nodes.len();
        nodes.push(Node {
            freq: f1 + f2,
            parent: NONE,
        });
        nodes[a].parent = idx;
        nodes[b].parent = idx;
        heap.push(Reverse((f1 + f2, idx)));
    }
    for (s, &leaf) in leaf_of_symbol.iter().enumerate() {
        if leaf == NONE {
            continue;
        }
        let mut depth = 0u32;
        let mut n = leaf;
        while nodes[n].parent != NONE {
            n = nodes[n].parent;
            depth += 1;
        }
        lengths[s] = depth.clamp(1, 255) as u8;
    }
}

/// Rebalances code lengths to respect `max_len` (libjpeg's `jpeg_gen_optimal_table`
/// adjustment): repeatedly move a pair of over-long codes up under a shorter
/// prefix, preserving the Kraft inequality.
fn limit_lengths(lengths: &mut [u8], max_len: u8) {
    let max = max_len as usize;
    let mut count = vec![0u32; 64];
    for &l in lengths.iter() {
        if l > 0 {
            count[l as usize] += 1;
        }
    }
    let longest = (1..count.len()).rev().find(|&l| count[l] > 0).unwrap_or(0);
    if longest <= max {
        return;
    }
    for l in ((max + 1)..=longest).rev() {
        while count[l] > 0 {
            // Find the longest length < l with at least one code to split.
            let mut j = l - 2;
            while j > 0 && count[j] == 0 {
                j -= 1;
            }
            debug_assert!(j > 0, "cannot limit lengths");
            // Move two codes of length l to length l-1 and one code of
            // length j to j+1 (splitting its subtree).
            count[l] -= 2;
            count[l - 1] += 1;
            count[j + 1] += 2;
            count[j] -= 1;
        }
    }
    // Reassign lengths to symbols: sort symbols by frequency proxy — here we
    // keep relative order by original length then symbol value, assigning
    // shortest new lengths to originally-shortest symbols.
    let mut order: Vec<usize> = (0..lengths.len()).filter(|&s| lengths[s] > 0).collect();
    order.sort_by_key(|&s| (lengths[s], s));
    let mut new_lengths = vec![0u8; lengths.len()];
    let mut l = 1usize;
    for &s in &order {
        while l < count.len() && count[l] == 0 {
            l += 1;
        }
        debug_assert!(l < count.len());
        new_lengths[s] = l as u8;
        count[l] -= 1;
    }
    lengths.copy_from_slice(&new_lengths);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(freqs: &[u64], stream: &[u16]) {
        let table = HuffmanTable::from_frequencies(freqs, MAX_CODE_LEN).unwrap();
        let mut w = BitWriter::new();
        table.write_spec(&mut w);
        for &s in stream {
            table.encode(&mut w, s).unwrap();
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let table2 = HuffmanTable::read_spec(&mut r, freqs.len()).unwrap();
        assert_eq!(table, table2);
        for &s in stream {
            assert_eq!(table2.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn skewed_frequencies_roundtrip() {
        let freqs = [1000, 500, 100, 10, 1, 1, 0, 3];
        let stream = [0u16, 1, 0, 2, 3, 4, 5, 7, 0, 0, 1];
        roundtrip(&freqs, &stream);
    }

    #[test]
    fn uniform_frequencies_roundtrip() {
        let freqs = vec![7u64; 257];
        let stream: Vec<u16> = (0..257u16).collect();
        roundtrip(&freqs, &stream);
    }

    #[test]
    fn single_symbol_gets_one_bit_code() {
        let freqs = [0u64, 42, 0];
        let table = HuffmanTable::from_frequencies(&freqs, 16).unwrap();
        assert_eq!(table.length_of(1), 1);
        let mut w = BitWriter::new();
        table.encode(&mut w, 1).unwrap();
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(table.decode(&mut r).unwrap(), 1);
    }

    #[test]
    fn shorter_codes_for_frequent_symbols() {
        let freqs = [1_000_000u64, 1, 1, 1, 1, 1, 1, 1];
        let table = HuffmanTable::from_frequencies(&freqs, 16).unwrap();
        for s in 1..8u16 {
            assert!(table.length_of(0) <= table.length_of(s));
        }
    }

    #[test]
    fn length_limiting_respects_bound() {
        // Fibonacci-like frequencies force deep trees without limiting.
        let mut freqs = vec![0u64; 40];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let table = HuffmanTable::from_frequencies(&freqs, 11).unwrap();
        for s in 0..40u16 {
            assert!(table.length_of(s) <= 11, "symbol {s} too long");
        }
        // Must still round-trip.
        let stream: Vec<u16> = (0..40u16).chain((0..40u16).rev()).collect();
        let mut w = BitWriter::new();
        for &s in &stream {
            table.encode(&mut w, s).unwrap();
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in &stream {
            assert_eq!(table.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn empty_frequencies_rejected() {
        assert!(HuffmanTable::from_frequencies(&[0, 0, 0], 16).is_err());
    }

    #[test]
    fn encoding_unused_symbol_rejected() {
        let table = HuffmanTable::from_frequencies(&[5, 5, 0], 16).unwrap();
        let mut w = BitWriter::new();
        assert!(table.encode(&mut w, 2).is_err());
    }

    #[test]
    fn bad_spec_rejected() {
        // Spec claiming more symbols than the alphabet.
        let mut w = BitWriter::new();
        for _ in 0..MAX_CODE_LEN {
            w.put(300, 16);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert!(HuffmanTable::read_spec(&mut r, 8).is_err());
    }

    #[test]
    fn fast_decode_matches_walk_exactly() {
        // Fibonacci frequencies force codes longer than LUT_BITS, so the
        // stream exercises both the table hit and the fallback walk.
        let mut freqs = vec![0u64; 40];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let table = HuffmanTable::from_frequencies(&freqs, MAX_CODE_LEN).unwrap();
        assert!(
            (0..40u16).any(|s| table.length_of(s) as u32 > super::LUT_BITS),
            "test needs codes longer than the LUT window"
        );
        let stream: Vec<u16> = (0..40u16).chain((0..40u16).rev()).collect();
        let mut w = BitWriter::new();
        for &s in &stream {
            table.encode(&mut w, s).unwrap();
        }
        let bytes = w.finish();
        let mut walk = BitReader::new(&bytes);
        let mut fast = BitReader::new(&bytes);
        for &s in &stream {
            assert_eq!(table.decode(&mut walk).unwrap(), s);
            assert_eq!(table.decode_fast(&mut fast).unwrap(), s);
            assert_eq!(walk.bit_pos(), fast.bit_pos());
        }
    }

    #[test]
    fn canonical_codes_are_the_coded_symbols_shortest_first() {
        let freqs = [40u64, 0, 9, 9, 3, 1, 1, 25];
        let table = HuffmanTable::from_frequencies(&freqs, 16).unwrap();
        let codes: Vec<_> = table.canonical_codes().collect();
        assert_eq!(codes.len(), 7); // symbol 1 is never coded
        assert!(codes.windows(2).all(|p| p[0].1 <= p[1].1));
        for (sym, len, code) in codes {
            // Each code, left-aligned in a 16-bit window, resolves to itself.
            assert_eq!(table.walk16(code << (16 - len)).unwrap(), (len, sym));
        }
    }

    #[test]
    fn decode_garbage_errors_not_panics() {
        let freqs = [10u64, 1];
        let table = HuffmanTable::from_frequencies(&freqs, 16).unwrap();
        // A stream of bits that walks past every populated length.
        let bytes = vec![0xFFu8; 4];
        let mut r = BitReader::new(&bytes);
        // Either decodes (if 1-bits map to a symbol) or errors; must not panic.
        let _ = table.decode(&mut r);
    }
}
