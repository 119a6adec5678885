//! # smol-codec
//!
//! From-scratch image codecs whose decode cost structure mirrors the formats
//! the paper studies (§2, §6.4):
//!
//! * [`sjpg`] — a DCT block codec (JPEG anatomy): branchy sequential Huffman
//!   entropy decoding + vectorizable IDCT, with **ROI/partial decoding** via
//!   an MCU-row index, **early stopping**, and **multi-resolution decoding**
//!   via a scaled IDCT;
//! * [`spng`] — a lossless codec (PNG anatomy): predictive scanline filters +
//!   LZ77/Huffman, raster order only, with **early stopping** as its one
//!   partial-decoding feature and a table-driven decoder pinned to the seed's
//!   bit-by-bit walk;
//! * [`runlength`] — the run/size coefficient coding sjpg's AC runs and
//!   `smol_video`'s P-frame residuals share: encoders, the one table-driven
//!   decode loop, and the rule that sizes its pair-LUT window to the payload;
//! * [`registry`] — the Table-4 format/feature matrix.
//!
//! ## Partial-decoding features and the plans that exercise them
//!
//! The low-fidelity decode features (§6.4, Table 4) and the
//! `smol_core::DecodeMode` variants the planner chooses for them:
//!
//! | feature (Table 4)          | entry point            | `DecodeMode`                   |
//! |----------------------------|------------------------|--------------------------------|
//! | ROI / partial decoding     | [`sjpg::decode_roi`]   | `CentralRoi { crop_w, crop_h }`|
//! | early stopping             | [`sjpg::decode_rows`], `spng::decode_rows` | — (not planned; Figure 3 and `examples/partial_decode.rs`) |
//! | multi-resolution decoding  | [`sjpg::decode_scaled`]| `ReducedResolution { factor }` |
//! | reduced fidelity + frame selection (video) | `smol_video::gop::decode_selected` | `Video { selection, deblock }` |
//!
//! ROI decoding skips the IDCT for blocks outside a rectangle (rows skipped
//! wholesale through the MCU-row index); early stopping truncates the
//! sequential stream after the last needed row; multi-resolution decoding
//! reconstructs every block at `8/factor` points per axis from the top-left
//! coefficients of its spectrum (a scaled IDCT), fusing the downsample into
//! the decoder so a low-resolution plan never materializes full-resolution
//! pixels. [`sjpg::DecodeStats`] counts the work each mode actually skips.
//!
//! [`EncodedImage`] is the uniform container the rest of the system passes
//! around: cheaply cloneable [`Bytes`] tagged with their format.
#![deny(unsafe_code)]

pub mod bitio;
mod buffer;
pub mod dct;
pub mod error;
pub mod hash;
pub mod huffman;
pub mod quant;
pub mod registry;
pub mod runlength;
pub mod signal;
pub mod sjpg;
pub mod spng;

pub use buffer::Bytes;
pub use error::{Error, Result};
pub use signal::DifficultySignal;
pub use sjpg::{DecodeOptions, DecodeStats, SjpgEncoder};
use smol_imgproc::{ImageU8, Rect};

/// sjpg chroma storage mode — the planner's cheapest *encode-side* variant
/// axis (Table 4's "natively present" formats): 4:2:0 stores chroma at half
/// resolution per axis, quartering chroma entropy + transform work at a
/// small fidelity cost on chroma-detailed content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Chroma {
    /// Full-resolution chroma (8×8 MCUs of Y, Cb, Cr).
    #[default]
    C444,
    /// 2× subsampled chroma (16×16 MCUs: 4 luma blocks + Cb + Cr).
    C420,
}

impl Chroma {
    /// MCU edge in pixels (8 for 4:4:4, 16 for 4:2:0).
    pub fn mcu(&self) -> usize {
        match self {
            Chroma::C444 => dct::BLOCK,
            Chroma::C420 => 2 * dct::BLOCK,
        }
    }

    /// Component blocks per MCU (3 for 4:4:4, 6 for 4:2:0).
    pub fn blocks_per_mcu(&self) -> usize {
        match self {
            Chroma::C444 => 3,
            Chroma::C420 => 6,
        }
    }

    /// True when chroma is stored below luma resolution.
    pub fn is_subsampled(&self) -> bool {
        matches!(self, Chroma::C420)
    }
}

/// The encodings understood end to end by the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    /// Lossy DCT block codec; `quality` ∈ 1..=100, `chroma` selects 4:4:4
    /// or 4:2:0 storage. Use [`Format::sjpg`] / [`Format::sjpg420`].
    Sjpg { quality: u8, chroma: Chroma },
    /// Lossless predictive+LZ codec.
    Spng,
    /// GOP-structured video container (H.264 anatomy: sjpg-coded I-frames,
    /// motion-compensated P-frames, in-loop deblocking); `quality` is the
    /// shared I/P quantizer quality. This is a *format tag only* at this
    /// layer: the encoder/decoder live in `smol_video` (which builds on
    /// this crate), and the image entry points below return
    /// [`Error::UnsupportedFormat`] for it. The tag exists here so the
    /// planner's `InputVariant` vocabulary spans stills and video with one
    /// type.
    Svid { quality: u8 },
}

impl Format {
    /// 4:4:4 sjpg at `quality`.
    pub fn sjpg(quality: u8) -> Format {
        Format::Sjpg {
            quality,
            chroma: Chroma::C444,
        }
    }

    /// 4:2:0 sjpg at `quality`.
    pub fn sjpg420(quality: u8) -> Format {
        Format::Sjpg {
            quality,
            chroma: Chroma::C420,
        }
    }

    pub fn name(&self) -> String {
        match self {
            Format::Sjpg {
                quality,
                chroma: Chroma::C444,
            } => format!("sjpg(q={quality})"),
            Format::Sjpg {
                quality,
                chroma: Chroma::C420,
            } => format!("sjpg420(q={quality})"),
            Format::Spng => "spng".to_string(),
            Format::Svid { quality } => format!("svid(q={quality})"),
        }
    }

    /// True for GOP-structured video containers.
    pub fn is_video(&self) -> bool {
        matches!(self, Format::Svid { .. })
    }

    /// True when the format stores chroma below luma resolution (the
    /// cost model charges such variants fewer entropy + IDCT blocks).
    pub fn is_chroma_subsampled(&self) -> bool {
        matches!(
            self,
            Format::Sjpg {
                chroma: Chroma::C420,
                ..
            }
        )
    }

    /// The format as one word, injective over every variant and parameter
    /// (what [`EncodedImage::cache_key`] hashes in place of the allocated
    /// [`Format::name`]).
    fn tag(&self) -> u64 {
        match *self {
            Format::Sjpg { quality, chroma } => {
                1 | (quality as u64) << 8 | (chroma.is_subsampled() as u64) << 16
            }
            Format::Spng => 2,
            Format::Svid { quality } => 3 | (quality as u64) << 8,
        }
    }

    fn unsupported(&self, op: &'static str) -> Error {
        Error::UnsupportedFormat {
            format: self.name(),
            op,
        }
    }
}

/// An encoded image: format tag + shared bytes + cached dimensions.
#[derive(Debug, Clone)]
pub struct EncodedImage {
    pub format: Format,
    pub width: usize,
    pub height: usize,
    pub bytes: Bytes,
}

impl EncodedImage {
    /// Encodes `img` in the requested format.
    pub fn encode(img: &ImageU8, format: Format) -> Result<Self> {
        let bytes = match format {
            Format::Sjpg { quality, chroma } => {
                SjpgEncoder::with_chroma(quality, chroma).encode(img)?
            }
            Format::Spng => spng::encode(img)?,
            Format::Svid { .. } => return Err(format.unsupported("single-image encode")),
        };
        Ok(EncodedImage {
            format,
            width: img.width(),
            height: img.height(),
            bytes,
        })
    }

    /// Fully decodes.
    pub fn decode(&self) -> Result<ImageU8> {
        match self.format {
            Format::Sjpg { .. } => sjpg::decode(&self.bytes),
            Format::Spng => spng::decode(&self.bytes),
            Format::Svid { .. } => Err(self.format.unsupported("image decode")),
        }
    }

    /// Fully decodes with explicit [`DecodeOptions`]: `scalar_kernels`
    /// selects each format's reference decoder.
    pub fn decode_with_opts(&self, opts: DecodeOptions) -> Result<ImageU8> {
        match self.format {
            Format::Sjpg { .. } => sjpg::decode_with_opts(&self.bytes, opts).map(|(img, _)| img),
            Format::Spng => spng::decode_with_opts(&self.bytes, opts),
            Format::Svid { .. } => Err(self.format.unsupported("image decode")),
        }
    }

    /// Decodes only what is needed to cover `roi`, exploiting whatever
    /// low-fidelity feature the format offers:
    ///
    /// * sjpg: macroblock-aligned ROI decode (rows skipped via the index,
    ///   off-ROI columns skip IDCT);
    /// * spng: raster-order early stopping after the ROI's bottom row (the
    ///   stream is sequential, so rows above the ROI must still be decoded).
    ///
    /// Returns the decoded pixels and the region of the source they cover.
    pub fn decode_roi(&self, roi: Rect) -> Result<(ImageU8, Rect)> {
        self.decode_roi_opts(roi, DecodeOptions::default())
    }

    /// [`EncodedImage::decode_roi`] with explicit [`DecodeOptions`].
    pub fn decode_roi_opts(&self, roi: Rect, opts: DecodeOptions) -> Result<(ImageU8, Rect)> {
        match self.format {
            Format::Sjpg { .. } => {
                let (img, aligned, _) = sjpg::decode_roi_opts(&self.bytes, roi, opts)?;
                Ok((img, aligned))
            }
            Format::Spng => {
                if !roi.fits_in(self.width, self.height) || roi.w == 0 || roi.h == 0 {
                    return Err(Error::BadRegion(format!(
                        "roi {roi:?} invalid for {}x{}",
                        self.width, self.height
                    )));
                }
                let rows = roi.y_end();
                let (img, _) = spng::decode_rows_opts(&self.bytes, rows, opts)?;
                Ok((img, Rect::new(0, 0, self.width, rows)))
            }
            Format::Svid { .. } => Err(self.format.unsupported("ROI decode")),
        }
    }

    /// Decodes directly to `1/factor` resolution (factor ∈ {1, 2, 4, 8}),
    /// exploiting multi-resolution decoding where the format supports it:
    ///
    /// * sjpg: scaled-IDCT reduced-resolution decode — the downsample is
    ///   fused into the transform, so IDCT work and pixel writes shrink
    ///   with the scale ([`sjpg::decode_scaled`]);
    /// * spng: no multi-resolution feature exists (Table 4), so this falls
    ///   back to a full decode followed by a box downsample — same output
    ///   geometry, but the full decode cost is still paid.
    ///
    /// Returns the reduced image and the work counters (zeroed for the
    /// spng fallback, which skips nothing).
    pub fn decode_scaled(&self, factor: usize) -> Result<(ImageU8, DecodeStats)> {
        self.decode_scaled_opts(factor, DecodeOptions::default())
    }

    /// [`EncodedImage::decode_scaled`] with explicit [`DecodeOptions`].
    pub fn decode_scaled_opts(
        &self,
        factor: usize,
        opts: DecodeOptions,
    ) -> Result<(ImageU8, DecodeStats)> {
        match self.format {
            Format::Sjpg { .. } => sjpg::decode_scaled_opts(&self.bytes, factor, opts),
            Format::Spng => {
                if !matches!(factor, 1 | 2 | 4 | 8) {
                    return Err(Error::BadRegion(format!(
                        "reduced-resolution factor must be 1, 2, 4, or 8, got {factor}"
                    )));
                }
                let full = spng::decode_with_opts(&self.bytes, opts)?;
                let small =
                    smol_imgproc::ops::box_downsample_u8(&full, factor).map_err(Error::Image)?;
                Ok((small, DecodeStats::default()))
            }
            Format::Svid { .. } => Err(self.format.unsupported("scaled decode")),
        }
    }

    /// Compressed size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Content fingerprint: FNV-1a 64 over the format tag, dimensions, and
    /// the encoded bytes. Stable across processes and releases (unlike
    /// `std::collections::hash_map::DefaultHasher`), so it names objects
    /// in the on-disk content-addressed store. Byte-serial, hence slow on
    /// large payloads: per-lookup keying uses [`EncodedImage::cache_key`].
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        eat(self.format.name().as_bytes());
        eat(&(self.width as u64).to_le_bytes());
        eat(&(self.height as u64).to_le_bytes());
        eat(&self.bytes);
        h
    }

    /// In-memory content key: the same fields as [`fingerprint`] (format,
    /// dimensions, every payload byte, length) through the word-wide
    /// [`hash::content_key`]. This is what decoded-tensor caches key on —
    /// it is computed on every lookup, so it must cost far less than the
    /// decode a hit saves. Only equal within one process and release; it
    /// names nothing on disk (that is [`fingerprint`]'s job).
    ///
    /// Recomputed from the bytes on every call, never stored: the fields
    /// are public, so a stored key could outlive a change to `bytes` and
    /// hand a cache the wrong tensor.
    ///
    /// [`fingerprint`]: EncodedImage::fingerprint
    pub fn cache_key(&self) -> u64 {
        hash::content_key(
            &[self.format.tag(), self.width as u64, self.height as u64],
            &self.bytes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textured(w: usize, h: usize) -> ImageU8 {
        let mut img = ImageU8::zeros(w, h, 3);
        for y in 0..h {
            for x in 0..w {
                img.set(x, y, 0, ((x * 3 + y) % 256) as u8);
                img.set(x, y, 1, ((x + y * 5) % 256) as u8);
                img.set(x, y, 2, ((x * y) % 256) as u8);
            }
        }
        img
    }

    #[test]
    fn encoded_image_roundtrips_both_formats() {
        let img = textured(48, 40);
        for fmt in [Format::sjpg(90), Format::Spng] {
            let enc = EncodedImage::encode(&img, fmt).unwrap();
            assert_eq!((enc.width, enc.height), (48, 40));
            let dec = enc.decode().unwrap();
            assert_eq!((dec.width(), dec.height()), (48, 40));
            if fmt == Format::Spng {
                assert_eq!(dec, img);
            }
        }
    }

    #[test]
    fn decode_roi_covers_requested_region_for_both_formats() {
        let img = textured(96, 96);
        let roi = Rect::new(30, 30, 40, 40);
        for fmt in [Format::sjpg(90), Format::Spng] {
            let enc = EncodedImage::encode(&img, fmt).unwrap();
            let (decoded, covered) = enc.decode_roi(roi).unwrap();
            // The covered region must contain the ROI rows/cols it claims.
            assert!(covered.x <= roi.x && covered.y <= roi.y);
            assert!(covered.y_end() >= roi.y_end());
            assert_eq!(decoded.width(), covered.w);
            assert_eq!(decoded.height(), covered.h);
        }
    }

    #[test]
    fn decode_scaled_matches_geometry_for_both_formats() {
        let img = textured(96, 64);
        for fmt in [Format::sjpg(90), Format::Spng] {
            let enc = EncodedImage::encode(&img, fmt).unwrap();
            let (small, stats) = enc.decode_scaled(4).unwrap();
            assert_eq!((small.width(), small.height()), (24, 16));
            if matches!(fmt, Format::Sjpg { .. }) {
                assert!(stats.idct_macs > 0);
                assert!(stats.blocks_idct < (96 / 8) * (64 / 8) * 3 / 4);
            } else {
                // spng pays the full decode; nothing is skipped.
                assert_eq!(stats, DecodeStats::default());
            }
        }
    }

    #[test]
    fn fingerprints_separate_content_format_and_shape() {
        let img = textured(48, 40);
        let a = EncodedImage::encode(&img, Format::sjpg(90)).unwrap();
        // Deterministic: same encode → same fingerprint.
        assert_eq!(
            a.fingerprint(),
            EncodedImage::encode(&img, Format::sjpg(90))
                .unwrap()
                .fingerprint()
        );
        // Format, content, and shape each change the fingerprint.
        let b = EncodedImage::encode(&img, Format::sjpg420(90)).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        let other = EncodedImage::encode(&textured(48, 41), Format::sjpg(90)).unwrap();
        assert_ne!(a.fingerprint(), other.fingerprint());
        // Pinned value: the fingerprint is part of the on-disk store layout,
        // so it must stay stable across processes and releases.
        let empty = EncodedImage {
            format: Format::Spng,
            width: 0,
            height: 0,
            bytes: Bytes::new(),
        };
        assert_eq!(empty.fingerprint(), {
            // FNV-1a of "spng" + two zero u64s, computed independently.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for &b in b"spng\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0" {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h
        });
    }

    #[test]
    fn compression_ratio_sane() {
        let img = textured(64, 64);
        let enc = EncodedImage::encode(&img, Format::sjpg(75)).unwrap();
        assert!(enc.bytes.len() * 2 < 64 * 64 * 3);
    }

    #[test]
    fn format_names_stable() {
        assert_eq!(Format::sjpg(75).name(), "sjpg(q=75)");
        assert_eq!(Format::sjpg420(95).name(), "sjpg420(q=95)");
        assert!(Format::sjpg420(95).is_chroma_subsampled());
        assert!(!Format::sjpg(95).is_chroma_subsampled());
        assert_eq!(Format::Spng.name(), "spng");
        assert_eq!(Format::Svid { quality: 80 }.name(), "svid(q=80)");
    }

    #[test]
    fn svid_is_a_tag_only_at_this_layer() {
        let fmt = Format::Svid { quality: 80 };
        assert!(fmt.is_video());
        assert!(!Format::Spng.is_video());
        let img = textured(32, 32);
        assert!(matches!(
            EncodedImage::encode(&img, fmt),
            Err(Error::UnsupportedFormat { .. })
        ));
        let enc = EncodedImage {
            format: fmt,
            width: 32,
            height: 32,
            bytes: Bytes::new(),
        };
        assert!(matches!(enc.decode(), Err(Error::UnsupportedFormat { .. })));
        assert!(enc.decode_roi(Rect::new(0, 0, 8, 8)).is_err());
        assert!(enc.decode_scaled(2).is_err());
    }
}
