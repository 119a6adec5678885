//! The unit of work the pipeline decodes: a still image **or** a video
//! GOP.
//!
//! The serving runtime schedules, claims, and accounts *items*; the
//! device consumes *tensors*. For stills the two coincide (one item → one
//! tensor). For GOP-structured video one item fans out into as many
//! tensors as the plan's [`FrameSelection`] materializes — the producer
//! stage decodes the GOP once and stages each selected frame
//! independently, so cross-query batching and the buffer pool see
//! ordinary per-frame work items downstream.

use smol_codec::EncodedImage;
use smol_core::{DecodeMode, FrameSelection};
use smol_video::{DecodeOptions, EncodedGop};

/// One decodable work item: a still image or a video GOP.
#[derive(Debug, Clone)]
pub enum MediaItem {
    Image(EncodedImage),
    Gop(EncodedGop),
}

impl MediaItem {
    /// How many tensors this item stages under `mode` (the item's
    /// *fan-out*): 1 for stills, the selected-frame count for GOPs.
    pub fn output_count(&self, mode: DecodeMode) -> usize {
        match self {
            MediaItem::Image(_) => 1,
            MediaItem::Gop(g) => g.selected_count(video_decode_params(mode).0),
        }
    }

    /// Source geometry (frame geometry for GOPs).
    pub fn dims(&self) -> (usize, usize) {
        match self {
            MediaItem::Image(i) => (i.width, i.height),
            MediaItem::Gop(g) => (g.width, g.height),
        }
    }

    /// Compressed size in bytes.
    pub fn size_bytes(&self) -> usize {
        match self {
            MediaItem::Image(i) => i.size_bytes(),
            MediaItem::Gop(g) => g.size_bytes(),
        }
    }
}

impl From<EncodedImage> for MediaItem {
    fn from(i: EncodedImage) -> Self {
        MediaItem::Image(i)
    }
}

impl From<EncodedGop> for MediaItem {
    fn from(g: EncodedGop) -> Self {
        MediaItem::Gop(g)
    }
}

/// Wraps a still-image corpus as media items (cheap: `EncodedImage` is
/// `Bytes`-backed).
pub fn wrap_images(items: &[EncodedImage]) -> Vec<MediaItem> {
    items.iter().cloned().map(MediaItem::Image).collect()
}

/// Wraps a GOP corpus as media items (cheap: GOP bodies are shared
/// `Bytes` slices).
pub fn wrap_gops(items: &[EncodedGop]) -> Vec<MediaItem> {
    items.iter().cloned().map(MediaItem::Gop).collect()
}

/// Output (tensor) layout of an item list under a decode mode: item
/// `i`'s outputs occupy `offsets[i]..offsets[i] + count(i)`. Shared by
/// the serving scheduler and the profile loop so result indexing can
/// never desynchronize between them.
#[derive(Debug, Clone)]
pub struct OutputLayout {
    /// Output offset of each item.
    pub offsets: Vec<usize>,
    /// Total outputs across all items.
    pub total: usize,
    /// Largest single-item fan-out (≥ 1; pool-capacity sizing).
    pub max_fanout: usize,
}

impl OutputLayout {
    pub fn of(items: &[MediaItem], mode: DecodeMode) -> Self {
        let counts: Vec<usize> = items.iter().map(|i| i.output_count(mode)).collect();
        let max_fanout = counts.iter().copied().max().unwrap_or(1).max(1);
        let mut offsets = Vec::with_capacity(counts.len());
        let mut total = 0usize;
        for c in counts {
            offsets.push(total);
            total += c;
        }
        OutputLayout {
            offsets,
            total,
            max_fanout,
        }
    }
}

/// The selective-decode parameters a plan's decode mode implies for a GOP
/// item. Image decode modes on a GOP degrade gracefully to a full-GOP,
/// full-fidelity decode (the partial *image* decodes — ROI and the
/// scaled IDCT — have no GOP analogue; the video ladder is
/// [`FrameSelection`] + deblock skipping).
pub fn video_decode_params(mode: DecodeMode) -> (FrameSelection, DecodeOptions) {
    match mode {
        DecodeMode::Video { selection, deblock } => (selection, DecodeOptions { deblock }),
        _ => (FrameSelection::All, DecodeOptions { deblock: true }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smol_imgproc::ImageU8;
    use smol_video::{EncodedVideo, VideoEncoder};

    fn gop() -> EncodedGop {
        let frames: Vec<ImageU8> = (0..6)
            .map(|t| {
                let mut img = ImageU8::zeros(32, 32, 3);
                for (i, v) in img.data_mut().iter_mut().enumerate() {
                    *v = ((i + t * 13) % 200) as u8;
                }
                img
            })
            .collect();
        let enc = VideoEncoder {
            gop: 6,
            ..Default::default()
        }
        .encode_frames(&frames, 30.0)
        .unwrap();
        EncodedVideo::parse(enc).unwrap().gops().remove(0)
    }

    #[test]
    fn output_counts_follow_the_plan() {
        let item = MediaItem::Gop(gop());
        let video = |selection| DecodeMode::Video {
            selection,
            deblock: true,
        };
        assert_eq!(item.output_count(video(FrameSelection::All)), 6);
        assert_eq!(item.output_count(video(FrameSelection::Keyframes)), 1);
        assert_eq!(item.output_count(video(FrameSelection::Stride(2))), 3);
        // Image modes on a GOP degrade to a full decode.
        assert_eq!(item.output_count(DecodeMode::Full), 6);
        let img =
            EncodedImage::encode(&ImageU8::zeros(16, 16, 3), smol_codec::Format::sjpg(80)).unwrap();
        assert_eq!(MediaItem::Image(img).output_count(DecodeMode::Full), 1);
    }

    #[test]
    fn image_modes_map_to_full_fidelity_video_decode() {
        let (sel, opts) = video_decode_params(DecodeMode::Full);
        assert_eq!(sel, FrameSelection::All);
        assert!(opts.deblock);
        let (sel, opts) = video_decode_params(DecodeMode::Video {
            selection: FrameSelection::Keyframes,
            deblock: false,
        });
        assert_eq!(sel, FrameSelection::Keyframes);
        assert!(!opts.deblock);
    }
}
