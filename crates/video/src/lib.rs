//! # smol-video
//!
//! A GOP-structured video codec with H.264's decode-cost anatomy (§6.4):
//!
//! * **I-frames** are intra-coded with `smol-codec`'s sjpg (DCT blocks +
//!   Huffman);
//! * **P-frames** carry per-macroblock motion vectors and quantized-DCT
//!   residuals against the previous reconstructed frame ([`pframe`]);
//! * an **in-loop deblocking filter** ([`deblock`]) runs inside the
//!   encoder's reconstruction loop. Decoders may skip it
//!   ([`DecodeOptions::deblock`] = false) for *reduced-fidelity decoding*:
//!   genuinely cheaper, and genuinely drift-inducing, exactly the trade
//!   H.264/HEVC expose.
//!
//! The same content is typically encoded at several resolutions ("natively
//! present" low-resolution variants, §5.2); see `smol-data` for the dataset
//! side of that.
//!
//! The query path enters through [`gop`]: [`EncodedVideo::gops`] splits a
//! container into its random-access [`EncodedGop`] items (zero-copy), and
//! [`gop::EncodedGop::decode_selected`] is the plan-driven selective
//! decoder — a [`FrameSelection`] (all / keyframe-only / strided) plus the
//! deblock knob, with per-frame work stats so profiling and the planner's
//! cost model can be checked against the work actually done. Keyframe-only
//! decoding never touches the motion-compensation machinery at all.
//!
//! ## Decode hot path
//!
//! Like `smol_codec::sjpg`, the decoder exists twice and the two are pinned
//! to each other bit for bit (`tests/video_properties.rs`, this crate's
//! unit tests):
//!
//! * the **fast path** is what every caller gets — [`EncodedGop::decode_selected`],
//!   [`EncodedVideo::decode_all`] / [`EncodedVideo::decode_parallel`],
//!   and the encoder's own reconstruction loop: sjpg
//!   keyframes behind a pair LUT sized to the payload
//!   (`smol_codec::runlength::pair_window_bits`), table-driven P-frame
//!   entropy decode with row-wise motion compensation
//!   ([`pframe::decode_pframe`]), a row-wise in-loop filter
//!   ([`deblock::deblock`]), and a reference chain that borrows the
//!   previous output instead of copying it;
//! * the **seed chain** — [`EncodedGop::decode_selected_reference`] over
//!   [`pframe::decode_pframe_reference`], [`deblock::deblock_reference`] and
//!   sjpg's scalar reference — is the oracle. Nothing selects it at run
//!   time: it is called from tests and benches only.
#![deny(unsafe_code)]

pub mod deblock;
pub mod gop;
pub mod motion;
pub mod pframe;

pub use gop::{DecodedFrame, EncodedGop, FrameStats, VideoDecodeStats};
pub use pframe::PFrameStats;
pub use smol_core::FrameSelection;

use smol_codec::bitio::{BitReader, BitWriter};
use smol_codec::error::{Error, Result};
use smol_codec::Bytes;
use smol_codec::SjpgEncoder;
use smol_imgproc::ImageU8;

const MAGIC: u32 = 0x5356_4944; // "SVID"
const VERSION: u32 = 1;
/// Container index entry: one kind byte plus a 32-bit payload length.
const INDEX_ENTRY_BYTES: usize = 5;

/// Frame kind tag in the container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    Intra,
    Predicted,
}

/// Encoder configuration.
#[derive(Debug, Clone, Copy)]
pub struct VideoEncoder {
    /// Quantizer quality (1..=100), shared by I- and P-frames.
    pub quality: u8,
    /// GOP length: an I-frame every `gop` frames.
    pub gop: usize,
    /// Motion search range in pixels (±).
    pub search_range: i16,
}

impl Default for VideoEncoder {
    fn default() -> Self {
        VideoEncoder {
            quality: 80,
            gop: 12,
            search_range: 7,
        }
    }
}

impl VideoEncoder {
    /// Encodes a frame sequence into a self-contained container.
    pub fn encode_frames(&self, frames: &[ImageU8], fps: f64) -> Result<Bytes> {
        if frames.is_empty() {
            return Err(Error::BadHeader("no frames".into()));
        }
        let (w, h) = (frames[0].width(), frames[0].height());
        if w == 0 || h == 0 || w > 0xFFFF || h > 0xFFFF {
            return Err(Error::BadHeader("bad frame dimensions".into()));
        }
        for f in frames {
            if f.width() != w || f.height() != h || f.channels() != 3 {
                return Err(Error::BadHeader("inconsistent frame geometry".into()));
            }
        }
        let gop = self.gop.max(1);
        let iencoder = SjpgEncoder::new(self.quality);

        let mut payloads: Vec<(FrameKind, Vec<u8>)> = Vec::with_capacity(frames.len());
        let mut reference: Option<ImageU8> = None;
        for (idx, frame) in frames.iter().enumerate() {
            if idx % gop == 0 || reference.is_none() {
                let bytes = iencoder.encode(frame)?;
                // The reference is the *decoded* I-frame with in-loop
                // deblocking, exactly what a conforming decoder produces.
                let mut recon = smol_codec::sjpg::decode(&bytes)?;
                deblock::deblock(&mut recon, smol_codec::dct::BLOCK);
                reference = Some(recon);
                payloads.push((FrameKind::Intra, bytes.to_vec()));
            } else {
                let r = reference.as_ref().expect("reference set");
                let (bytes, mut recon) =
                    pframe::encode_pframe(frame, r, self.quality, self.search_range)?;
                deblock::deblock(&mut recon, smol_codec::dct::BLOCK);
                reference = Some(recon);
                payloads.push((FrameKind::Predicted, bytes));
            }
        }

        let mut head = BitWriter::new();
        head.put(MAGIC, 32);
        head.put(VERSION, 8);
        head.put(w as u32, 16);
        head.put(h as u32, 16);
        head.put(self.quality as u32, 8);
        head.put(gop as u32, 16);
        head.put(self.search_range as u32, 8);
        head.put(frames.len() as u32, 32);
        head.put((fps * 1000.0).round() as u32, 32);
        for (kind, bytes) in &payloads {
            head.put(matches!(kind, FrameKind::Predicted) as u32, 8);
            head.put(bytes.len() as u32, 32);
        }
        let mut out = head.finish();
        for (_, bytes) in &payloads {
            out.extend_from_slice(bytes);
        }
        Ok(Bytes::from(out))
    }
}

/// Decode-time options.
#[derive(Debug, Clone, Copy)]
pub struct DecodeOptions {
    /// Apply the in-loop deblocking filter. Turning this off is the
    /// reduced-fidelity fast path (§6.4): less work per frame, small
    /// accumulated drift on P-frames.
    pub deblock: bool,
}

impl Default for DecodeOptions {
    fn default() -> Self {
        DecodeOptions { deblock: true }
    }
}

/// A parsed video container with random access to frame payloads.
#[derive(Debug, Clone)]
pub struct EncodedVideo {
    pub width: usize,
    pub height: usize,
    pub quality: u8,
    pub gop: usize,
    pub search_range: i16,
    pub fps: f64,
    /// (kind, byte offset, byte length) per frame; offsets into `body`.
    index: Vec<(FrameKind, usize, usize)>,
    body: Bytes,
}

impl EncodedVideo {
    /// Parses a container produced by [`VideoEncoder::encode_frames`].
    pub fn parse(data: Bytes) -> Result<Self> {
        let mut r = BitReader::new(&data);
        if r.bits(32)? != MAGIC {
            return Err(Error::BadMagic { expected: "SVID" });
        }
        if r.bits(8)? != VERSION {
            return Err(Error::BadHeader("unsupported version".into()));
        }
        let width = r.bits(16)? as usize;
        let height = r.bits(16)? as usize;
        let quality = r.bits(8)? as u8;
        let gop = r.bits(16)? as usize;
        let search_range = r.bits(8)? as i16;
        let n_frames = r.bits(32)? as usize;
        let fps = r.bits(32)? as f64 / 1000.0;
        // A frame costs five index bytes: bound the count by what the
        // buffer can hold before allocating for it.
        let index_bytes = ((r.len_bits() - r.bit_pos()) / 8) as usize;
        if n_frames > index_bytes / INDEX_ENTRY_BYTES {
            return Err(Error::Truncated {
                context: "video frame index",
            });
        }
        let mut index = Vec::with_capacity(n_frames);
        let mut offset = 0usize;
        for _ in 0..n_frames {
            let kind = if r.bits(8)? == 1 {
                FrameKind::Predicted
            } else {
                FrameKind::Intra
            };
            let len = r.bits(32)? as usize;
            index.push((kind, offset, len));
            offset = offset.saturating_add(len);
        }
        r.align_byte();
        let body_start = (r.bit_pos() / 8) as usize;
        if offset > data.len() - body_start {
            return Err(Error::Truncated {
                context: "video body",
            });
        }
        let body = data.slice(body_start..body_start + offset);
        Ok(EncodedVideo {
            width,
            height,
            quality,
            gop,
            search_range,
            fps,
            index,
            body,
        })
    }

    pub fn n_frames(&self) -> usize {
        self.index.len()
    }

    pub fn size_bytes(&self) -> usize {
        self.body.len()
    }

    /// Decodes every frame (convenience for tests/small clips). Each
    /// P-frame decodes against a borrow of the frame pushed before it.
    pub fn decode_all(&self, opts: DecodeOptions) -> Result<Vec<ImageU8>> {
        let mut out = Vec::with_capacity(self.n_frames());
        for idx in 0..self.n_frames() {
            let frame = self.decode_frame(idx, out.last(), opts)?;
            out.push(frame);
        }
        Ok(out)
    }

    /// Decodes frame `idx` against `reference`, the decoded frame before it
    /// (unused by I-frames), through the fast path.
    fn decode_frame(
        &self,
        idx: usize,
        reference: Option<&ImageU8>,
        opts: DecodeOptions,
    ) -> Result<ImageU8> {
        let (kind, payload) = self.payload(idx);
        let params = (self.quality, self.search_range);
        gop::decode_frame(idx, *kind, payload, reference, params, opts).map(|(frame, _)| frame)
    }

    /// Frame indices of the I-frames (GOP starts); these are the only
    /// random-access points of the stream.
    pub fn iframe_positions(&self) -> Vec<usize> {
        self.index
            .iter()
            .enumerate()
            .filter(|(_, (k, _, _))| matches!(k, FrameKind::Intra))
            .map(|(i, _)| i)
            .collect()
    }

    /// GOP-parallel decode: partitions the stream at I-frame boundaries
    /// across `threads` workers and applies `visit(frame_idx, frame)` to
    /// every frame. This is how batch video-analytics engines parallelize
    /// decoding within one file; it is the decode path the Figure 9
    /// experiments time.
    pub fn decode_parallel<F>(&self, threads: usize, opts: DecodeOptions, visit: F) -> Result<()>
    where
        F: Fn(usize, &ImageU8) + Sync,
    {
        let gops = self.iframe_positions();
        if gops.is_empty() {
            return Err(Error::BadHeader("stream has no I-frames".into()));
        }
        let next = std::sync::atomic::AtomicUsize::new(0);
        let error = std::sync::OnceLock::new();
        std::thread::scope(|scope| {
            for _ in 0..threads.max(1) {
                let next = &next;
                let gops = &gops;
                let visit = &visit;
                let error = &error;
                scope.spawn(move || loop {
                    let g = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if g >= gops.len() {
                        break;
                    }
                    let start = gops[g];
                    let end = gops.get(g + 1).copied().unwrap_or(self.n_frames());
                    // Each chunk decodes independently starting at its
                    // I-frame; reference state is chunk-local.
                    let mut iter = FrameIter {
                        video: self,
                        next: start,
                        reference: None,
                        opts,
                    };
                    for idx in start..end {
                        match iter.decode_next() {
                            Ok(frame) => visit(idx, frame),
                            Err(e) => {
                                let _ = error.set(e);
                                return;
                            }
                        }
                    }
                });
            }
        });
        match error.into_inner() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn payload(&self, idx: usize) -> (&FrameKind, &[u8]) {
        let (kind, off, len) = &self.index[idx];
        (kind, &self.body[*off..*off + *len])
    }

    /// The `(kind, offset, length)` frame index (offsets into the body).
    pub(crate) fn frame_index(&self) -> &[(FrameKind, usize, usize)] {
        &self.index
    }

    /// The shared frame-payload bytes (for zero-copy GOP slicing).
    pub(crate) fn body_bytes(&self) -> &Bytes {
        &self.body
    }
}

/// Sequential decoder holding the inter-frame reference state.
struct FrameIter<'a> {
    video: &'a EncodedVideo,
    next: usize,
    reference: Option<ImageU8>,
    opts: DecodeOptions,
}

impl FrameIter<'_> {
    /// Decodes the next frame into the reference slot and lends it out.
    fn decode_next(&mut self) -> Result<&ImageU8> {
        let frame = self
            .video
            .decode_frame(self.next, self.reference.as_ref(), self.opts)?;
        self.next += 1;
        Ok(self.reference.insert(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smol_imgproc::psnr;

    fn scene(n: usize, w: usize, h: usize) -> Vec<ImageU8> {
        (0..n)
            .map(|t| {
                let mut img = ImageU8::zeros(w, h, 3);
                for y in 0..h {
                    for x in 0..w {
                        let bg = ((x * 2 + y * 3) % 48 + 80) as u8;
                        for c in 0..3 {
                            img.set(x, y, c, bg);
                        }
                    }
                }
                let ox = (t * 3) % (w.saturating_sub(12)).max(1);
                for y in h / 4..(h / 4 + 10).min(h) {
                    for x in ox..(ox + 12).min(w) {
                        img.set(x, y, 0, 250);
                        img.set(x, y, 1, 60);
                        img.set(x, y, 2, 60);
                    }
                }
                img
            })
            .collect()
    }

    #[test]
    fn encode_decode_roundtrip_reasonable_fidelity() {
        let frames = scene(10, 64, 48);
        let enc = VideoEncoder::default()
            .encode_frames(&frames, 30.0)
            .unwrap();
        let video = EncodedVideo::parse(enc).unwrap();
        assert_eq!(video.n_frames(), 10);
        assert_eq!((video.width, video.height), (64, 48));
        let decoded = video.decode_all(DecodeOptions::default()).unwrap();
        assert_eq!(decoded.len(), 10);
        for (orig, dec) in frames.iter().zip(&decoded) {
            let p = psnr(orig, dec);
            assert!(p > 26.0, "psnr={p}");
        }
    }

    #[test]
    fn gop_structure_as_configured() {
        let frames = scene(9, 48, 32);
        let enc = VideoEncoder {
            gop: 4,
            ..Default::default()
        }
        .encode_frames(&frames, 24.0)
        .unwrap();
        let video = EncodedVideo::parse(enc).unwrap();
        let kinds: Vec<FrameKind> = (0..9).map(|i| *video.payload(i).0).collect();
        for (i, k) in kinds.iter().enumerate() {
            if i % 4 == 0 {
                assert_eq!(*k, FrameKind::Intra, "frame {i}");
            } else {
                assert_eq!(*k, FrameKind::Predicted, "frame {i}");
            }
        }
    }

    #[test]
    fn video_compresses_well_on_temporal_redundancy() {
        let frames = scene(16, 64, 48);
        let raw = 16 * 64 * 48 * 3;
        let enc = VideoEncoder::default()
            .encode_frames(&frames, 30.0)
            .unwrap();
        assert!(
            enc.len() * 6 < raw,
            "encoded {} raw {raw} (ratio {:.1})",
            enc.len(),
            raw as f64 / enc.len() as f64
        );
    }

    #[test]
    fn no_deblock_decodes_with_bounded_drift() {
        let frames = scene(12, 64, 48);
        let enc = VideoEncoder::default()
            .encode_frames(&frames, 30.0)
            .unwrap();
        let video = EncodedVideo::parse(enc).unwrap();
        let with = video.decode_all(DecodeOptions { deblock: true }).unwrap();
        let without = video.decode_all(DecodeOptions { deblock: false }).unwrap();
        // Reduced fidelity: outputs differ, but stay close to the original.
        let mut differs = false;
        for (a, b) in with.iter().zip(&without) {
            if a != b {
                differs = true;
            }
        }
        assert!(differs, "deblock toggle must change output");
        for (orig, dec) in frames.iter().zip(&without) {
            assert!(psnr(orig, dec) > 22.0);
        }
    }

    #[test]
    fn empty_input_rejected() {
        assert!(VideoEncoder::default().encode_frames(&[], 30.0).is_err());
    }

    #[test]
    fn inconsistent_frames_rejected() {
        let mut frames = scene(2, 32, 32);
        frames.push(ImageU8::zeros(16, 16, 3));
        assert!(VideoEncoder::default()
            .encode_frames(&frames, 30.0)
            .is_err());
    }

    #[test]
    fn corrupt_container_rejected() {
        let frames = scene(4, 32, 32);
        let enc = VideoEncoder::default()
            .encode_frames(&frames, 30.0)
            .unwrap();
        let mut bad = enc.to_vec();
        bad[0] ^= 0x1;
        assert!(EncodedVideo::parse(Bytes::from(bad)).is_err());
        let truncated = enc.slice(0..enc.len() / 4);
        assert!(EncodedVideo::parse(truncated).is_err());
    }

    /// A frame count the buffer cannot hold is a typed error before any
    /// allocation: the 21-byte header claiming 2³² − 1 frames used to abort
    /// the process on a 103 GB `Vec::with_capacity`.
    #[test]
    fn frame_count_is_bounded_by_the_buffer() {
        let header = |n_frames: u32| {
            let mut w = BitWriter::new();
            w.put(MAGIC, 32);
            w.put(VERSION, 8);
            w.put(32, 16);
            w.put(32, 16);
            w.put(80, 8);
            w.put(4, 16);
            w.put(7, 8);
            w.put(n_frames, 32);
            w.put(30_000, 32);
            w.finish()
        };
        let bare = header(u32::MAX);
        assert_eq!(bare.len(), 21);
        assert!(matches!(
            EncodedVideo::parse(Bytes::from(bare)),
            Err(Error::Truncated { .. })
        ));
        // Room for exactly three index entries: three parse (empty
        // payloads), four is one past what the buffer holds.
        let with_index = |n_frames: u32| {
            let mut bytes = header(n_frames);
            bytes.extend_from_slice(&[0u8; 3 * INDEX_ENTRY_BYTES]);
            Bytes::from(bytes)
        };
        assert_eq!(EncodedVideo::parse(with_index(3)).unwrap().n_frames(), 3);
        assert!(matches!(
            EncodedVideo::parse(with_index(4)),
            Err(Error::Truncated { .. })
        ));
    }

    #[test]
    fn fps_preserved() {
        let frames = scene(3, 32, 32);
        let enc = VideoEncoder::default()
            .encode_frames(&frames, 29.97)
            .unwrap();
        let video = EncodedVideo::parse(enc).unwrap();
        assert!((video.fps - 29.97).abs() < 0.001);
    }
}
