//! MSB-first bit-level I/O used by both codecs' entropy coders.

use crate::error::{Error, Result};

/// MSB-first bit writer over a growable byte buffer.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Bits accumulated in `acc`, most-significant side filled first.
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    pub fn new() -> Self {
        BitWriter::default()
    }

    pub fn with_capacity(bytes: usize) -> Self {
        BitWriter {
            buf: Vec::with_capacity(bytes),
            acc: 0,
            nbits: 0,
        }
    }

    /// Writes the low `n` bits of `value`, MSB first. `n` must be ≤ 32.
    #[inline]
    pub fn put(&mut self, value: u32, n: u32) {
        debug_assert!(n <= 32);
        debug_assert!(n == 32 || value < (1u32 << n));
        self.acc = (self.acc << n) | value as u64;
        self.nbits += n;
        while self.nbits >= 8 {
            self.nbits -= 8;
            self.buf.push((self.acc >> self.nbits) as u8);
        }
    }

    /// Current position in bits (including unflushed bits).
    pub fn bit_pos(&self) -> u64 {
        self.buf.len() as u64 * 8 + self.nbits as u64
    }

    /// Pads to a byte boundary with zero bits.
    pub fn align_byte(&mut self) {
        if self.nbits > 0 {
            let pad = 8 - self.nbits;
            self.put(0, pad);
        }
    }

    /// Pads to a byte boundary and returns the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        self.align_byte();
        self.buf
    }
}

/// MSB-first bit reader over a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Absolute bit cursor.
    pos: u64,
}

impl<'a> BitReader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        BitReader { data, pos: 0 }
    }

    /// Total number of bits available.
    pub fn len_bits(&self) -> u64 {
        self.data.len() as u64 * 8
    }

    pub fn bit_pos(&self) -> u64 {
        self.pos
    }

    /// Moves the cursor to an absolute bit position (used to seek to MCU-row
    /// restart points for partial decoding).
    fn seek_bits(&mut self, pos: u64) -> Result<()> {
        if pos > self.len_bits() {
            return Err(Error::Truncated {
                context: "BitReader::seek_bits",
            });
        }
        self.pos = pos;
        Ok(())
    }

    /// Reads one bit.
    #[inline]
    pub fn bit(&mut self) -> Result<u32> {
        if self.pos >= self.len_bits() {
            return Err(Error::Truncated {
                context: "BitReader::bit",
            });
        }
        let byte = self.data[(self.pos >> 3) as usize];
        let bit = (byte >> (7 - (self.pos & 7))) & 1;
        self.pos += 1;
        Ok(bit as u32)
    }

    /// Reads `n` bits (≤ 32), MSB first.
    #[inline]
    pub fn bits(&mut self, n: u32) -> Result<u32> {
        debug_assert!(n <= 32);
        if self.pos + n as u64 > self.len_bits() {
            return Err(Error::Truncated {
                context: "BitReader::bits",
            });
        }
        let mut v: u32 = 0;
        let mut remaining = n;
        // Fast path: pull whole bytes when aligned enough.
        while remaining > 0 {
            let byte_idx = (self.pos >> 3) as usize;
            let bit_off = (self.pos & 7) as u32;
            let avail = 8 - bit_off;
            let take = avail.min(remaining);
            let byte = self.data[byte_idx] as u32;
            let chunk = (byte >> (avail - take)) & ((1u32 << take) - 1);
            v = (v << take) | chunk;
            self.pos += take as u64;
            remaining -= take;
        }
        Ok(v)
    }

    /// Returns the next 16 bits MSB-first *without* consuming them,
    /// zero-padded past the end of the stream. The fast entropy path peeks
    /// a window, resolves a symbol from a lookup table, then consumes its
    /// actual length with [`BitReader::skip_bits`] (which still enforces
    /// the stream bound, so padding can never be silently consumed).
    #[inline]
    pub fn peek16(&self) -> u32 {
        let byte = (self.pos >> 3) as usize;
        let shift = (self.pos & 7) as u32;
        if let Some(chunk) = self.data.get(byte..byte + 4) {
            // Hot case: one 32-bit load covers any 16-bit window.
            let w = u32::from_be_bytes(chunk.try_into().expect("4 bytes"));
            (w >> (16 - shift)) & 0xFFFF
        } else {
            let b = |i: usize| -> u32 { self.data.get(byte + i).copied().unwrap_or(0) as u32 };
            let window = (b(0) << 16) | (b(1) << 8) | b(2);
            (window >> (8 - shift)) & 0xFFFF
        }
    }

    /// Consumes `n` bits previously inspected with [`BitReader::peek16`].
    /// Errors if that would move past the end of the stream.
    #[inline]
    pub fn skip_bits(&mut self, n: u32) -> Result<()> {
        if self.pos + n as u64 > self.len_bits() {
            return Err(Error::Truncated {
                context: "BitReader::skip_bits",
            });
        }
        self.pos += n as u64;
        Ok(())
    }

    /// Skips to the next byte boundary.
    pub fn align_byte(&mut self) {
        self.pos = (self.pos + 7) & !7;
    }
}

/// Bit cursor for the fast entropy path: upcoming stream bits live
/// left-aligned in a u64 accumulator, so peeking and consuming are plain
/// shifts with no bounds check, and one 8-byte load refills the
/// accumulator every ~4 symbols. The cursor is not held in registers
/// across a block: `sjpg::decode_block_fast` takes its cursors by `&mut`
/// and lends them to the out-of-line `runlength::read_pair` fallback, so
/// there a cursor lives in memory, and each symbol loads `avail` and
/// stores `acc`, `avail` and `pos` back.
///
/// Reads past the end of the stream return zero bits (the accumulator is
/// zero-padded); `pos` keeps advancing, so the overrun is detected when
/// the caller syncs back with `BitReader::seek_bits`, which errors on
/// an out-of-range position. Callers therefore get the same `Err` on
/// truncated input as the checked reader, at block rather than symbol
/// granularity.
#[derive(Debug)]
pub struct FastCursor<'a> {
    data: &'a [u8],
    /// Stream bits `[pos, pos + avail)` left-aligned: bit `pos` is bit 63.
    acc: u64,
    avail: u32,
    /// Absolute bit position of the next unconsumed bit.
    pos: u64,
    /// Next byte of `data` to pull into `acc` (`next_byte * 8 ≥ pos + avail`).
    next_byte: usize,
}

impl<'a> FastCursor<'a> {
    /// Starts a cursor at the reader's current position (any bit offset).
    #[inline]
    pub fn from_reader(r: &BitReader<'a>) -> Self {
        let pos = r.bit_pos();
        let mut c = FastCursor {
            data: r.data,
            acc: 0,
            avail: 0,
            pos,
            next_byte: (pos >> 3) as usize,
        };
        c.refill();
        // Drop the already-consumed bits of the containing byte; `pos`
        // already counts them.
        let off = (pos & 7) as u32;
        c.acc <<= off;
        c.avail = c.avail.saturating_sub(off);
        c
    }

    /// Absolute bit position of the next unconsumed bit (may exceed the
    /// stream length after reading into the zero padding).
    #[inline]
    pub fn bit_pos(&self) -> u64 {
        self.pos
    }

    /// Ensures at least 32 valid bits are available (or the stream is
    /// exhausted), topping the accumulator up to 57+ when it does reload.
    /// Call before each bounded read burst: 32 bits cover any code +
    /// amplitude pair (≤ 31 bits), and the ≥ 32 early-out skips the
    /// 8-byte load entirely on most calls.
    #[inline]
    pub fn refill(&mut self) {
        if self.avail >= 32 {
            return;
        }
        self.reload();
    }

    /// Tops the accumulator up to at least 57 valid bits (or to the end of
    /// the stream) whenever it has room for any. For loops that consume a
    /// few bits to a few dozen per turn, where [`Self::refill`]'s "enough
    /// already?" branch is a coin toss: the unconditional load is cheaper
    /// than its mispredictions, and this branch only ever goes the other
    /// way on a cursor nothing was read from.
    #[inline]
    pub fn refill_full(&mut self) {
        if self.avail < 64 {
            self.reload();
        }
    }

    /// Pulls in as many whole bytes as fit; `avail` must be below 64.
    #[inline(always)]
    fn reload(&mut self) {
        if self.next_byte + 8 <= self.data.len() {
            let w = u64::from_be_bytes(
                self.data[self.next_byte..self.next_byte + 8]
                    .try_into()
                    .expect("8 bytes"),
            );
            // OR in the whole bytes that fit. The partial trailing byte's
            // top bits also land in `acc` uncounted — harmless: they hold
            // the true stream values at those positions, and the next
            // refill ORs the same byte over them idempotently.
            self.acc |= w >> self.avail;
            let added = (64 - self.avail) & !7;
            self.avail += added;
            self.next_byte += (added >> 3) as usize;
        } else {
            while self.avail <= 56 && self.next_byte < self.data.len() {
                self.acc |= (self.data[self.next_byte] as u64) << (56 - self.avail);
                self.next_byte += 1;
                self.avail += 8;
            }
        }
    }

    /// The next 32 bits MSB-first, zero-padded past the end of the stream.
    #[inline]
    pub fn peek32(&self) -> u32 {
        (self.acc >> 32) as u32
    }

    /// Consumes `n` bits previously inspected with [`Self::peek32`];
    /// `n` must be ≤ 32 and nonzero consumption past the stream end is
    /// caught at sync time.
    #[inline]
    pub fn skip(&mut self, n: u32) {
        debug_assert!(n <= 32);
        self.acc <<= n;
        self.avail = self.avail.saturating_sub(n);
        self.pos += n as u64;
    }

    /// Moves the reader to the cursor's position, erroring if the cursor
    /// ran past the end of the stream (truncated input).
    #[inline]
    pub fn sync(&self, r: &mut BitReader<'a>) -> Result<()> {
        r.seek_bits(self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        w.put(0b1, 1);
        w.put(0b1011, 4);
        w.put(0xABCD, 16);
        w.put(0, 3);
        w.put(0x7FFF_FFFF, 31);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.bits(1).unwrap(), 0b1);
        assert_eq!(r.bits(4).unwrap(), 0b1011);
        assert_eq!(r.bits(16).unwrap(), 0xABCD);
        assert_eq!(r.bits(3).unwrap(), 0);
        assert_eq!(r.bits(31).unwrap(), 0x7FFF_FFFF);
    }

    #[test]
    fn align_pads_with_zeros() {
        let mut w = BitWriter::new();
        w.put(0b101, 3);
        w.align_byte();
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b1010_0000]);
    }

    #[test]
    fn bit_pos_tracks_written_bits() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_pos(), 0);
        w.put(0, 5);
        assert_eq!(w.bit_pos(), 5);
        w.put(0, 11);
        assert_eq!(w.bit_pos(), 16);
    }

    #[test]
    fn reader_detects_truncation() {
        let bytes = [0xFFu8];
        let mut r = BitReader::new(&bytes);
        assert!(r.bits(8).is_ok());
        assert!(r.bit().is_err());
    }

    #[test]
    fn seek_enables_random_access() {
        let mut w = BitWriter::new();
        for i in 0..16u32 {
            w.put(i, 4);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        r.seek_bits(4 * 7).unwrap();
        assert_eq!(r.bits(4).unwrap(), 7);
        assert!(r.seek_bits(bytes.len() as u64 * 8 + 1).is_err());
    }

    #[test]
    fn peek_matches_read_at_every_offset() {
        let mut w = BitWriter::new();
        w.put(0xDEAD_BEEF, 32);
        w.put(0x1234_5678, 32);
        let bytes = w.finish();
        for start in 0..48u64 {
            let mut r = BitReader::new(&bytes);
            r.seek_bits(start).unwrap();
            let peeked = r.peek16();
            let read = r.bits(16).unwrap();
            assert_eq!(peeked, read, "offset {start}");
        }
        // Past-the-end peeks are zero-padded; consumption stays bounded.
        let mut r = BitReader::new(&bytes);
        r.seek_bits(60).unwrap();
        assert_eq!(r.peek16(), (r.bits(4).unwrap()) << 12);
        assert!(r.skip_bits(1).is_err());
    }

    #[test]
    fn fast_cursor_matches_reader_at_every_offset() {
        let mut w = BitWriter::new();
        for i in 0..24u32 {
            w.put(i.wrapping_mul(0x9E37) & 0x3FF, 10);
        }
        let bytes = w.finish();
        // Both refills: the unconditional one also runs on a full
        // accumulator (a byte-aligned start, the zero-width reads).
        for (start, full) in (0..64u64).flat_map(|s| [(s, false), (s, true)]) {
            let mut r = BitReader::new(&bytes);
            r.seek_bits(start).unwrap();
            let mut c = FastCursor::from_reader(&r);
            // Consume a mixed pattern of widths, checking each peek
            // against the checked reader.
            let mut check = r.clone();
            for n in [3u32, 0, 11, 1, 16, 0, 7, 25] {
                if full {
                    c.refill_full();
                } else {
                    c.refill();
                }
                let have = (bytes.len() as u64 * 8).saturating_sub(check.bit_pos());
                if have >= n as u64 && n > 0 {
                    let expect = check.bits(n).unwrap();
                    assert_eq!(c.peek32() >> (32 - n), expect, "start={start} n={n}");
                }
                c.skip(n);
            }
            assert_eq!(c.bit_pos(), start + 63);
        }
    }

    #[test]
    fn one_full_refill_covers_fifty_bits() {
        // spng's widest token: 21 bits of length behind one top-up, then
        // 29 of distance with no refill in between.
        let bytes: Vec<u8> = (0..80u32).map(|i| (i * 197 + 31) as u8).collect();
        for start in 0..16u64 {
            let mut check = BitReader::new(&bytes);
            check.seek_bits(start).unwrap();
            let mut c = FastCursor::from_reader(&check);
            for _ in 0..12 {
                c.refill_full();
                assert_eq!(c.peek32() >> 11, check.bits(21).unwrap());
                c.skip(21);
                assert_eq!(c.peek32() >> 3, check.bits(29).unwrap());
                c.skip(29);
            }
            assert_eq!(c.bit_pos(), check.bit_pos());
        }
    }

    #[test]
    fn fast_cursor_zero_pads_and_sync_detects_overrun() {
        let bytes = [0xA5u8, 0x5A];
        let mut r = BitReader::new(&bytes);
        let mut c = FastCursor::from_reader(&r);
        c.refill();
        assert_eq!(c.peek32(), 0xA55A_0000);
        c.skip(16);
        c.refill();
        assert_eq!(c.peek32(), 0, "past-end bits are zero padding");
        assert!(c.sync(&mut r).is_ok(), "at the boundary is still in range");
        c.skip(1);
        assert!(c.sync(&mut r).is_err(), "past the end errors at sync");
    }

    #[test]
    fn single_bits_match_multibit_read() {
        let mut w = BitWriter::new();
        w.put(0b1101_0010_1100_0111, 16);
        let bytes = w.finish();
        let mut r1 = BitReader::new(&bytes);
        let mut v = 0u32;
        for _ in 0..16 {
            v = (v << 1) | r1.bit().unwrap();
        }
        assert_eq!(v, 0b1101_0010_1100_0111);
    }
}
