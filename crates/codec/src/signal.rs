//! Per-item difficulty signals computed from the *encoded* stream's header
//! alone — no body byte read, no entropy symbol decoded, no Huffman table
//! built, no pixel written (Tahoma-style cascades routed by input
//! complexity, arXiv:2512.20839).
//!
//! An entropy coder already measures complexity: busy, textured content
//! codes long AC runs with large amplitudes, while smooth content collapses
//! to near-empty blocks. And sjpg's row index already records what every
//! row's two segments cost in bytes, so the coded bits per block are known
//! once the header is read ([`crate::sjpg::SjpgFrame::parse`], the same
//! checks a decoder's header parse runs, minus building the tables). v2
//! streams index one segment per row and sum the same way.
//!
//! [`DifficultySignal::score`] is that one scalar, used by the cascade
//! router (`smol_runtime::route_stage`): items scoring above a calibrated
//! threshold escalate to the full rung.

use crate::sjpg::SjpgFrame;
use crate::{EncodedImage, Format, Result};

/// Difficulty signal of one encoded item: the body bytes its row index
/// lays out and the blocks they code. A pure function of the header's
/// bytes — it reads none of the body, so overwriting any body byte leaves
/// it unchanged (pinned by the workspace proptests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DifficultySignal {
    /// Body bytes of every row's segments, summed over all rows.
    pub coded_bytes: u64,
    /// Blocks the stream codes, luma and chroma.
    pub blocks: u64,
}

impl DifficultySignal {
    /// Scalar difficulty: coded bits per block. Routing thresholds are
    /// calibrated on this score's empirical quantiles, so only its order
    /// across items matters, not its units.
    pub fn score(&self) -> f64 {
        if self.blocks == 0 {
            return 0.0;
        }
        8.0 * self.coded_bytes as f64 / self.blocks as f64
    }
}

/// The difficulty signal of an encoded sjpg buffer, read from its header
/// and row index. Fails exactly when the decoders' header parse
/// ([`crate::sjpg::SjpgHeader::parse`]) fails.
pub fn sjpg_signal(data: &[u8]) -> Result<DifficultySignal> {
    let frame = SjpgFrame::parse(data)?;
    Ok(DifficultySignal {
        coded_bytes: frame.coded_bytes(true) as u64,
        blocks: frame.blocks() as u64,
    })
}

/// The difficulty signal of an [`EncodedImage`], when its format carries
/// one. `None` for formats without a block-transform entropy stream to
/// read (spng, video containers) or when the header fails to parse —
/// cascade routers treat both as "no signal: escalate".
pub fn image_signal(img: &EncodedImage) -> Option<DifficultySignal> {
    match img.format {
        Format::Sjpg { .. } => sjpg_signal(&img.bytes).ok(),
        Format::Spng | Format::Svid { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ImageU8;

    fn noisy(w: usize, h: usize) -> ImageU8 {
        let mut img = ImageU8::zeros(w, h, 3);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for v in img.data_mut().iter_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *v = (state >> 32) as u8;
        }
        img
    }

    fn flat(w: usize, h: usize) -> ImageU8 {
        let mut img = ImageU8::zeros(w, h, 3);
        img.data_mut().fill(128);
        img
    }

    #[test]
    fn signal_orders_flat_below_noise_and_touches_no_pixels() {
        let hard = EncodedImage::encode(&noisy(64, 64), Format::sjpg(90)).unwrap();
        let easy = EncodedImage::encode(&flat(64, 64), Format::sjpg(90)).unwrap();
        let hs = sjpg_signal(&hard.bytes).unwrap();
        let es = sjpg_signal(&easy.bytes).unwrap();
        assert!(hs.score() > es.score(), "hard {hs:?} vs easy {es:?}");
        // Same geometry, so the same blocks; the noise codes more bytes.
        assert_eq!(hs.blocks, es.blocks);
        assert_eq!(hs.blocks, 8 * 8 * 3);
        assert!(hs.coded_bytes > es.coded_bytes);
        // The whole body, and nothing but the body.
        let body_start = hard.bytes.len() - hs.coded_bytes as usize;
        let mut zeroed = hard.bytes.to_vec();
        zeroed[body_start..].fill(0);
        assert_eq!(sjpg_signal(&zeroed).unwrap(), hs);
    }

    #[test]
    fn signal_is_deterministic_and_format_gated() {
        let img = noisy(48, 32);
        let enc = EncodedImage::encode(&img, Format::sjpg420(80)).unwrap();
        let a = image_signal(&enc).unwrap();
        let b = image_signal(&enc).unwrap();
        assert_eq!(a, b);
        let png = EncodedImage::encode(&img, Format::Spng).unwrap();
        assert_eq!(image_signal(&png), None);
    }
}
