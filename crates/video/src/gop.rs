//! GOP-level random access and plan-driven selective decoding.
//!
//! A [`EncodedGop`] is one group of pictures — an I-frame plus its
//! dependent P-frames — sliced zero-copy out of an [`EncodedVideo`](crate::EncodedVideo)
//! container. GOPs are the *items* of the video query path: they are the
//! stream's only random-access points, so they are the natural unit of
//! storage, scheduling, and parallel decode, while the *frames* a plan
//! selects are the unit of inference.
//!
//! [`EncodedGop::decode_selected`] is the plan-driven entry point: a
//! `smol_core::FrameSelection` says which frames to materialize and
//! [`DecodeOptions`] carries the in-loop-filter knob. Work counters come
//! back per frame ([`FrameStats`]) and aggregated ([`VideoDecodeStats`]),
//! mirroring `smol_codec::DecodeStats` on the image path so profiling and
//! the planner's cost model can be validated against the work the decoder
//! actually did. The load-bearing property, asserted in tests: a
//! [`FrameSelection::Keyframes`] decode never executes the
//! motion-compensation path at all — no motion vectors, no residual IDCT,
//! no reference chain.
//!
//! ```
//! use smol_core::FrameSelection;
//! use smol_imgproc::ImageU8;
//! use smol_video::{DecodeOptions, EncodedVideo, VideoEncoder};
//!
//! # fn main() -> Result<(), smol_codec::Error> {
//! let frames: Vec<ImageU8> = (0..8)
//!     .map(|t| {
//!         let mut img = ImageU8::zeros(32, 32, 3);
//!         for (j, v) in img.data_mut().iter_mut().enumerate() {
//!             *v = ((j + t * 9) % 200) as u8;
//!         }
//!         img
//!     })
//!     .collect();
//! let bytes = VideoEncoder { gop: 4, ..Default::default() }
//!     .encode_frames(&frames, 30.0)?;
//! let video = EncodedVideo::parse(bytes)?;
//! let gops = video.gops(); // zero-copy random-access points
//! assert_eq!(gops.len(), 2);
//! // Plan-driven selective decode: keyframe-only, filter skipped.
//! let (keys, stats) =
//!     gops[0].decode_selected(FrameSelection::Keyframes, DecodeOptions { deblock: false })?;
//! assert_eq!(keys.len(), 1);
//! assert_eq!(stats.mc_macroblocks, 0); // motion compensation never ran
//! assert_eq!(stats.frames_untouched, 3); // P-frame payloads never read
//! # Ok(())
//! # }
//! ```

use crate::{deblock, pframe, DecodeOptions, FrameKind};
use smol_codec::error::{Error, Result};
use smol_codec::sjpg;
use smol_codec::Bytes;
use smol_core::FrameSelection;
use smol_imgproc::ImageU8;

/// Aggregate work counters of a selective GOP/stream decode.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VideoDecodeStats {
    /// Frames actually decoded (≥ `frames_output`: P-frames between
    /// strided selections still decode to keep the reference chain).
    pub frames_decoded: u64,
    /// Frames materialized for the caller.
    pub frames_output: u64,
    /// Frames skipped without touching their payload (the tail past the
    /// last selected frame).
    pub frames_untouched: u64,
    pub iframes: u64,
    pub pframes: u64,
    /// Motion-compensated (non-skip) macroblocks across all P-frames;
    /// **zero** for keyframe-only decodes.
    pub mc_macroblocks: u64,
    /// Entropy symbols read (I-frame Huffman + P-frame residual coding).
    pub symbols_decoded: u64,
    /// Inverse-transform multiply-accumulates (I-frame blocks + P-frame
    /// residual blocks, charged at the full 8×8 rate).
    pub idct_macs: u64,
    /// Frames the in-loop deblocking filter ran on.
    pub deblock_frames: u64,
}

impl VideoDecodeStats {
    fn absorb(&mut self, f: &FrameStats) {
        self.frames_decoded += 1;
        self.iframes += matches!(f.kind, FrameKind::Intra) as u64;
        self.pframes += matches!(f.kind, FrameKind::Predicted) as u64;
        self.mc_macroblocks += f.mc_macroblocks;
        self.symbols_decoded += f.symbols_decoded;
        self.idct_macs += f.idct_macs;
        self.deblock_frames += f.deblocked as u64;
    }

    /// Accumulates another decode's counters (destructured so a new field
    /// fails to compile here instead of being silently dropped from
    /// whole-stream aggregates).
    pub fn merge(&mut self, other: &VideoDecodeStats) {
        let VideoDecodeStats {
            frames_decoded,
            frames_output,
            frames_untouched,
            iframes,
            pframes,
            mc_macroblocks,
            symbols_decoded,
            idct_macs,
            deblock_frames,
        } = *other;
        self.frames_decoded += frames_decoded;
        self.frames_output += frames_output;
        self.frames_untouched += frames_untouched;
        self.iframes += iframes;
        self.pframes += pframes;
        self.mc_macroblocks += mc_macroblocks;
        self.symbols_decoded += symbols_decoded;
        self.idct_macs += idct_macs;
        self.deblock_frames += deblock_frames;
    }
}

/// Per-frame work counters of a selective decode (the video analogue of
/// `smol_codec::DecodeStats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameStats {
    /// Frame position within its GOP (0 = the I-frame).
    pub index: usize,
    pub kind: FrameKind,
    /// Entropy symbols read for this frame.
    pub symbols_decoded: u64,
    /// Motion-compensated (non-skip) macroblocks (0 for I-frames).
    pub mc_macroblocks: u64,
    /// Macroblocks skipped as co-located copies (0 for I-frames).
    pub skipped_macroblocks: u64,
    /// Inverse-transform MACs spent on this frame.
    pub idct_macs: u64,
    /// Whether the in-loop filter ran on this frame.
    pub deblocked: bool,
}

impl FrameStats {
    fn intra(index: usize, s: &sjpg::DecodeStats) -> Self {
        FrameStats {
            index,
            kind: FrameKind::Intra,
            symbols_decoded: s.symbols_decoded,
            mc_macroblocks: 0,
            skipped_macroblocks: 0,
            idct_macs: s.idct_macs,
            deblocked: false,
        }
    }

    fn predicted(index: usize, s: &pframe::PFrameStats) -> Self {
        FrameStats {
            index,
            kind: FrameKind::Predicted,
            symbols_decoded: s.symbols_decoded,
            mc_macroblocks: s.macroblocks - s.skipped,
            skipped_macroblocks: s.skipped,
            // Residual sub-blocks run the full 8×8 transform.
            idct_macs: s.coded_subblocks * 2 * 8 * 8 * 8,
            deblocked: false,
        }
    }
}

/// Decodes one frame on the fast path — sjpg keyframe or P-frame against
/// `reference` (the decoded frame before it), then the in-loop filter when
/// `opts.deblock` — with its work counters. What every production decoder
/// in this crate runs per frame.
pub(crate) fn decode_frame(
    index: usize,
    kind: FrameKind,
    payload: &[u8],
    reference: Option<&ImageU8>,
    (quality, search_range): (u8, i16),
    opts: DecodeOptions,
) -> Result<(ImageU8, FrameStats)> {
    let (mut image, mut stats) = match kind {
        FrameKind::Intra => {
            let (img, s) = sjpg::decode_with_stats(payload)?;
            (img, FrameStats::intra(index, &s))
        }
        FrameKind::Predicted => {
            let reference = reference.ok_or(Error::BadHeader(
                "P-frame without a preceding I-frame".into(),
            ))?;
            let (img, s) = pframe::decode_pframe(payload, reference, quality, search_range)?;
            (img, FrameStats::predicted(index, &s))
        }
    };
    if opts.deblock {
        // The reference for the next P-frame is the post-filter frame when
        // the filter runs (in-loop semantics); without it, drift accrues —
        // the genuine reduced-fidelity trade-off.
        deblock::deblock(&mut image, smol_codec::dct::BLOCK);
        stats.deblocked = true;
    }
    Ok((image, stats))
}

/// One decoded, selected frame with its work counters.
#[derive(Debug, Clone)]
pub struct DecodedFrame {
    /// Frame position within its GOP.
    pub index: usize,
    pub image: ImageU8,
    pub stats: FrameStats,
}

/// One group of pictures: an I-frame plus its dependent P-frames, sliced
/// zero-copy from an [`EncodedVideo`](crate::EncodedVideo) container (`body` shares the parent
/// container's `Bytes`).
#[derive(Debug, Clone)]
pub struct EncodedGop {
    pub width: usize,
    pub height: usize,
    pub quality: u8,
    pub search_range: i16,
    pub fps: f64,
    /// Position of this GOP's first frame in the parent stream.
    pub start_frame: usize,
    /// `(kind, byte offset, byte length)` per frame; offsets into `body`.
    index: Vec<(FrameKind, usize, usize)>,
    body: Bytes,
}

impl EncodedGop {
    /// Frames in this GOP.
    pub fn n_frames(&self) -> usize {
        self.index.len()
    }

    /// Compressed size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.body.len()
    }

    /// How many frames `selection` would output from this GOP.
    pub fn selected_count(&self, selection: FrameSelection) -> usize {
        selection.count(self.n_frames())
    }

    /// Content fingerprint: FNV-1a 64 over the codec parameters that
    /// affect reconstruction (geometry, quality, search range) and the
    /// encoded body. Stable across processes, like
    /// `smol_codec::EncodedImage::fingerprint`, so decoded-tensor caches
    /// can key individual frames on (gop fingerprint, frame index) and
    /// hit across repeated submissions of the same stream content.
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
        eat(b"svid-gop");
        eat(&(self.width as u64).to_le_bytes());
        eat(&(self.height as u64).to_le_bytes());
        eat(&[self.quality]);
        eat(&(self.search_range as i64).to_le_bytes());
        eat(&self.body);
        h
    }

    /// In-memory content key: the same fields as [`EncodedGop::fingerprint`]
    /// through the word-wide [`smol_codec::hash::content_key`] — what
    /// decoded-tensor caches key a GOP's frames on (see
    /// `smol_codec::EncodedImage::cache_key` for why the two are distinct).
    /// The body's half is memoised on its [`Bytes`] and shared by clones of
    /// this GOP; the codec parameters are mixed in on every call.
    pub fn cache_key(&self) -> u64 {
        self.body.cache_key(&[
            u64::from_le_bytes(*b"svid-gop"),
            self.width as u64,
            self.height as u64,
            self.quality as u64,
            self.search_range as u64,
        ])
    }

    /// Kind and encoded payload of frame `idx` (`idx < n_frames()`).
    pub fn frame_payload(&self, idx: usize) -> (FrameKind, &[u8]) {
        let (kind, off, len) = self.index[idx];
        (kind, &self.body[off..off + len])
    }

    /// Plan-driven selective decode: materializes the frames `selection`
    /// picks, decoding the minimal prefix of the GOP needed to reconstruct
    /// them (everything past the last selected frame is never touched).
    ///
    /// * [`FrameSelection::Keyframes`] decodes only the I-frame: the
    ///   motion-compensation machinery is skipped entirely.
    /// * [`FrameSelection::Stride`] decodes through the last selected
    ///   frame (P-frames reference their predecessor) but outputs only the
    ///   selected positions.
    /// * `opts.deblock = false` skips the in-loop filter on every decoded
    ///   frame — cheaper, and drift-inducing on P-frames because the
    ///   encoder's reconstruction loop applied it.
    ///
    /// Each P-frame decodes against a borrow of its predecessor where that
    /// already lives — the last pushed output when it was selected — so no
    /// frame is copied to keep the reference chain going.
    pub fn decode_selected(
        &self,
        selection: FrameSelection,
        opts: DecodeOptions,
    ) -> Result<(Vec<DecodedFrame>, VideoDecodeStats)> {
        let n = self.n_frames();
        if n == 0 {
            return Ok((Vec::new(), VideoDecodeStats::default()));
        }
        let last = selection.last_decoded(n).min(n - 1);
        let mut out: Vec<DecodedFrame> = Vec::with_capacity(selection.count(n));
        let mut agg = VideoDecodeStats::default();
        // The previous frame when it was *not* selected; a selected one is
        // `out.last()`.
        let mut unselected: Option<ImageU8> = None;
        for pos in 0..=last {
            let (kind, payload) = self.frame_payload(pos);
            let reference = unselected.as_ref().or(out.last().map(|f| &f.image));
            let (image, stats) = decode_frame(
                pos,
                kind,
                payload,
                reference,
                (self.quality, self.search_range),
                opts,
            )?;
            agg.absorb(&stats);
            if selection.selects(pos) {
                agg.frames_output += 1;
                unselected = None;
                out.push(DecodedFrame {
                    index: pos,
                    image,
                    stats,
                });
            } else {
                unselected = Some(image);
            }
        }
        agg.frames_untouched = (n - 1 - last) as u64;
        Ok((out, agg))
    }

    /// The seed decode chain, kept as the oracle [`Self::decode_selected`] is
    /// pinned to (pixels, [`FrameStats`] and [`VideoDecodeStats`]): scalar
    /// sjpg reference → [`pframe::decode_pframe_reference`] →
    /// [`deblock::deblock_reference`], one frame copy per reference hand-off.
    /// Tests and benches only; no option selects it.
    pub fn decode_selected_reference(
        &self,
        selection: FrameSelection,
        opts: DecodeOptions,
    ) -> Result<(Vec<DecodedFrame>, VideoDecodeStats)> {
        let n = self.n_frames();
        if n == 0 {
            return Ok((Vec::new(), VideoDecodeStats::default()));
        }
        let last = selection.last_decoded(n).min(n - 1);
        let mut out = Vec::with_capacity(selection.count(n));
        let mut agg = VideoDecodeStats::default();
        let mut reference: Option<ImageU8> = None;
        for pos in 0..=last {
            let (kind, payload) = self.frame_payload(pos);
            let (mut image, mut stats) = match kind {
                FrameKind::Intra => {
                    let (img, s) =
                        sjpg::decode_with_opts(payload, sjpg::DecodeOptions::scalar_reference())?;
                    (img, FrameStats::intra(pos, &s))
                }
                FrameKind::Predicted => {
                    let reference = reference.as_ref().ok_or(Error::BadHeader(
                        "P-frame without a preceding I-frame".into(),
                    ))?;
                    let (img, s) = pframe::decode_pframe_reference(
                        payload,
                        reference,
                        self.quality,
                        self.search_range,
                    )?;
                    (img, FrameStats::predicted(pos, &s))
                }
            };
            if opts.deblock {
                deblock::deblock_reference(&mut image, smol_codec::dct::BLOCK);
                stats.deblocked = true;
            }
            agg.absorb(&stats);
            let selected = selection.selects(pos);
            if pos < last {
                // The reference for the next P-frame is the post-filter
                // frame when the filter runs (in-loop semantics).
                reference = Some(if selected {
                    image.clone()
                } else {
                    std::mem::replace(&mut image, ImageU8::zeros(0, 0, 0))
                });
            }
            if selected {
                agg.frames_output += 1;
                out.push(DecodedFrame {
                    index: pos,
                    image,
                    stats,
                });
            }
        }
        agg.frames_untouched = (n - 1 - last) as u64;
        Ok((out, agg))
    }
}

impl crate::EncodedVideo {
    /// Splits the container into its GOPs (zero-copy: each GOP's body is a
    /// slice of this container's `Bytes`). GOPs are the stream's
    /// random-access points and the item granularity of the video query
    /// path.
    pub fn gops(&self) -> Vec<EncodedGop> {
        let starts = self.iframe_positions();
        let mut out = Vec::with_capacity(starts.len());
        for (g, &start) in starts.iter().enumerate() {
            let end = starts.get(g + 1).copied().unwrap_or(self.n_frames());
            let frames = &self.frame_index()[start..end];
            let base = frames.first().map(|&(_, off, _)| off).unwrap_or(0);
            let total: usize = frames.iter().map(|&(_, _, len)| len).sum();
            let index: Vec<(FrameKind, usize, usize)> = frames
                .iter()
                .map(|&(kind, off, len)| (kind, off - base, len))
                .collect();
            out.push(EncodedGop {
                width: self.width,
                height: self.height,
                quality: self.quality,
                search_range: self.search_range,
                fps: self.fps,
                start_frame: start,
                index,
                body: self.body_bytes().slice(base..base + total),
            });
        }
        out
    }

    /// Selective decode over the whole stream: applies `selection` within
    /// each GOP (positions are GOP-relative, so `Keyframes` yields exactly
    /// the I-frames) and returns frames tagged with their *stream* index,
    /// plus aggregated work counters.
    pub fn decode_selected(
        &self,
        selection: FrameSelection,
        opts: DecodeOptions,
    ) -> Result<(Vec<(usize, ImageU8)>, VideoDecodeStats)> {
        let mut frames = Vec::new();
        let mut agg = VideoDecodeStats::default();
        for gop in self.gops() {
            let (decoded, stats) = gop.decode_selected(selection, opts)?;
            for f in decoded {
                frames.push((gop.start_frame + f.index, f.image));
            }
            agg.merge(&stats);
        }
        Ok((frames, agg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EncodedVideo, VideoEncoder};

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

    fn encoded(n: usize, gop: usize) -> EncodedVideo {
        let frames = scene(n, 64, 48);
        let enc = VideoEncoder {
            gop,
            ..Default::default()
        }
        .encode_frames(&frames, 30.0)
        .unwrap();
        EncodedVideo::parse(enc).unwrap()
    }

    #[test]
    fn gops_partition_the_stream() {
        let video = encoded(10, 4); // GOPs: 4 + 4 + 2
        let gops = video.gops();
        assert_eq!(gops.len(), 3);
        assert_eq!(
            gops.iter().map(EncodedGop::n_frames).collect::<Vec<_>>(),
            vec![4, 4, 2]
        );
        assert_eq!(
            gops.iter().map(|g| g.start_frame).collect::<Vec<_>>(),
            vec![0, 4, 8]
        );
        assert_eq!(
            gops.iter().map(EncodedGop::size_bytes).sum::<usize>(),
            video.size_bytes(),
            "zero-copy split must cover every byte exactly once"
        );
    }

    #[test]
    fn full_selection_matches_sequential_decode() {
        let video = encoded(9, 4);
        let reference = video.decode_all(DecodeOptions::default()).unwrap();
        let (frames, stats) = video
            .decode_selected(FrameSelection::All, DecodeOptions::default())
            .unwrap();
        assert_eq!(frames.len(), 9);
        assert_eq!(stats.frames_decoded, 9);
        assert_eq!(stats.deblock_frames, 9);
        for (i, (idx, img)) in frames.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(img, &reference[i], "frame {i} must be bit-identical");
        }
    }

    #[test]
    fn keyframe_selection_skips_motion_compensation_entirely() {
        let video = encoded(12, 4);
        let (frames, stats) = video
            .decode_selected(FrameSelection::Keyframes, DecodeOptions::default())
            .unwrap();
        assert_eq!(frames.len(), 3);
        assert_eq!(
            frames.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![0, 4, 8]
        );
        assert_eq!(stats.pframes, 0, "no P-frame may be touched");
        assert_eq!(stats.mc_macroblocks, 0, "no motion compensation at all");
        assert_eq!(stats.frames_decoded, 3);
        assert_eq!(stats.frames_untouched, 9);
        // Keyframes must be bit-identical to the sequential decode's
        // I-frames (same payload, same filter).
        let reference = video.decode_all(DecodeOptions::default()).unwrap();
        for (idx, img) in &frames {
            assert_eq!(img, &reference[*idx]);
        }
    }

    #[test]
    fn stride_selection_outputs_selected_but_decodes_the_chain() {
        let video = encoded(8, 8); // one GOP of 8
        let (frames, stats) = video
            .decode_selected(FrameSelection::Stride(3), DecodeOptions::default())
            .unwrap();
        assert_eq!(
            frames.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![0, 3, 6]
        );
        // Reference chain: frames 0..=6 decoded, frame 7 untouched.
        assert_eq!(stats.frames_decoded, 7);
        assert_eq!(stats.frames_untouched, 1);
        assert_eq!(stats.frames_output, 3);
        let reference = video.decode_all(DecodeOptions::default()).unwrap();
        for (idx, img) in &frames {
            assert_eq!(img, &reference[*idx]);
        }
    }

    #[test]
    fn deblock_skip_saves_work_and_keeps_geometry() {
        let video = encoded(8, 4);
        let on = DecodeOptions { deblock: true };
        let off = DecodeOptions { deblock: false };
        let (with, ws) = video.decode_selected(FrameSelection::All, on).unwrap();
        let (without, ns) = video.decode_selected(FrameSelection::All, off).unwrap();
        assert_eq!(ws.deblock_frames, 8);
        assert_eq!(ns.deblock_frames, 0);
        // Identical decode work besides the filter: the entropy/transform
        // counters must match exactly.
        assert_eq!(ws.symbols_decoded, ns.symbols_decoded);
        assert_eq!(ws.idct_macs, ns.idct_macs);
        for ((_, a), (_, b)) in with.iter().zip(&without) {
            assert_eq!((a.width(), a.height()), (b.width(), b.height()));
        }
        assert!(
            with.iter().zip(&without).any(|((_, a), (_, b))| a != b),
            "the filter must change some pixels"
        );
    }

    #[test]
    fn per_frame_stats_distinguish_frame_kinds() {
        let video = encoded(4, 4);
        let gop = &video.gops()[0];
        let (frames, _) = gop
            .decode_selected(FrameSelection::All, DecodeOptions::default())
            .unwrap();
        assert_eq!(frames[0].stats.kind, FrameKind::Intra);
        assert!(frames[0].stats.idct_macs > 0);
        assert_eq!(frames[0].stats.mc_macroblocks, 0);
        for f in &frames[1..] {
            assert_eq!(f.stats.kind, FrameKind::Predicted);
            let mbs = f.stats.mc_macroblocks + f.stats.skipped_macroblocks;
            assert_eq!(mbs, 4 * 3, "64x48 = 4x3 macroblocks");
            // Every macroblock is either motion-compensated or skipped;
            // how much residual survives is content-dependent (this noisy
            // synthetic scene codes residuals in nearly every block).
            assert!(f.stats.symbols_decoded > 0);
        }
    }

    #[test]
    fn fingerprints_are_stable_and_content_sensitive() {
        let video = encoded(8, 4);
        let gops = video.gops();
        assert_eq!(gops[0].fingerprint(), gops[0].clone().fingerprint());
        assert_ne!(
            gops[0].fingerprint(),
            gops[1].fingerprint(),
            "different GOP bodies must fingerprint differently"
        );
        // Same content re-encoded parses to the same fingerprint (the
        // fingerprint is a pure function of codec params + body).
        let again = encoded(8, 4);
        assert_eq!(gops[0].fingerprint(), again.gops()[0].fingerprint());
        // The in-memory cache key separates and repeats the same way.
        assert_ne!(gops[0].cache_key(), gops[1].cache_key());
        assert_eq!(gops[0].cache_key(), again.gops()[0].cache_key());
    }

    #[test]
    fn selected_count_matches_decode_output() {
        let video = encoded(10, 4);
        for sel in [
            FrameSelection::All,
            FrameSelection::Keyframes,
            FrameSelection::Stride(2),
            FrameSelection::Stride(5),
        ] {
            let counted: usize = video.gops().iter().map(|g| g.selected_count(sel)).sum();
            let (frames, _) = video
                .decode_selected(sel, DecodeOptions::default())
                .unwrap();
            assert_eq!(frames.len(), counted, "{sel:?}");
        }
    }
}
