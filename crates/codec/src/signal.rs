//! Per-item difficulty signals computed from the *encoded* bitstream —
//! no dequantization, no IDCT, no pixels (ROADMAP item 3; Tahoma-style
//! cascades routed by input complexity, arXiv:2512.20839).
//!
//! The sjpg entropy stream already is a complexity measure: busy,
//! textured content codes long AC runs with large amplitudes, while
//! smooth content collapses to near-empty blocks. A sampled entropy-only
//! scan of a few MCU rows (the row index makes seeking free, and DC
//! prediction resets per row) therefore yields three correlated
//! difficulty signals at a small fraction of even a factor-8 reduced
//! decode's cost:
//!
//! * **entropy symbol count** — coded symbols per luma block;
//! * **DC-coefficient variance** — large-scale luminance structure;
//! * **AC energy** — high-frequency texture mass.
//!
//! [`DifficultySignal::score`] folds them into one scalar used by the
//! cascade router (`smol_runtime::route_stage`): items scoring above a
//! calibrated threshold escalate to the full rung.

use crate::sjpg::{self, DecodeOptions, DecodeStats};
use crate::{EncodedImage, Format, Result};

/// How many MCU rows the sampled scan entropy-decodes. Enough rows to
/// see both the top and bottom of typical content, cheap enough that
/// the signal stays far below the cost of any decode rung.
pub const SIGNAL_SAMPLE_ROWS: usize = 4;

/// Bitstream-derived difficulty signals of one encoded item. A pure
/// function of the encoded bytes: the table-driven and the reference
/// entropy walk ([`sjpg_signal_opts`]) read the same symbols, so the
/// signal is independent of [`DecodeOptions`] (pinned by the workspace
/// proptests), and deterministic across repeated scans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DifficultySignal {
    /// Entropy symbols decoded across the sampled rows.
    pub symbols: u64,
    /// Luma blocks sampled (normalizer for the per-block signals).
    pub blocks: u64,
    /// Variance of the sampled luma DC coefficients (quantized units²).
    pub dc_variance: f64,
    /// Mean per-luma-block AC energy (quantized units²).
    pub ac_energy: f64,
}

impl DifficultySignal {
    /// Coded entropy symbols per luma block — the scale-free version of
    /// the symbol count (invariant to how many rows were sampled).
    pub fn symbols_per_block(&self) -> f64 {
        if self.blocks == 0 {
            return 0.0;
        }
        self.symbols as f64 / self.blocks as f64
    }

    /// Scalar difficulty: symbols per block plus log-compressed AC
    /// energy and DC variance. Log compression keeps one signal from
    /// drowning the others (energies span orders of magnitude while
    /// symbol counts stay in the tens); the exact weighting matters
    /// little because routing thresholds are calibrated on *this*
    /// score's empirical quantiles, not on absolute units.
    pub fn score(&self) -> f64 {
        self.symbols_per_block() + (1.0 + self.ac_energy).ln() + 0.5 * (1.0 + self.dc_variance).ln()
    }
}

/// Scans an encoded sjpg buffer for its difficulty signal. Returns the
/// signal together with the scan's [`DecodeStats`]: only
/// `symbols_decoded` and `rows_skipped` move — `blocks_idct`,
/// `pixels_written`, and `idct_macs` stay zero, which is the "no decode
/// happened" proof the workspace proptests pin.
pub fn sjpg_signal(data: &[u8]) -> Result<(DifficultySignal, DecodeStats)> {
    sjpg_signal_opts(data, DecodeOptions::default())
}

/// [`sjpg_signal`] with the entropy path chosen by `opts.scalar_kernels`:
/// the table-driven walk the decoder's fast path uses (the default), or
/// the bit-by-bit reference it is checked against.
pub fn sjpg_signal_opts(
    data: &[u8],
    opts: DecodeOptions,
) -> Result<(DifficultySignal, DecodeStats)> {
    let (scan, stats) = sjpg::scan_signal(data, SIGNAL_SAMPLE_ROWS, opts)?;
    Ok((
        DifficultySignal {
            symbols: scan.symbols,
            blocks: scan.luma_blocks,
            dc_variance: scan.dc_variance,
            ac_energy: scan.ac_energy,
        },
        stats,
    ))
}

/// The difficulty signal of an [`EncodedImage`], when its format carries
/// one. `None` for formats without a block-transform entropy stream to
/// read (spng, video containers) or when the buffer fails to parse —
/// cascade routers treat both as "no signal: escalate".
pub fn image_signal(img: &EncodedImage) -> Option<DifficultySignal> {
    match img.format {
        Format::Sjpg { .. } => sjpg_signal(&img.bytes).ok().map(|(sig, _)| sig),
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
        let (hs, hstats) = sjpg_signal(&hard.bytes).unwrap();
        let (es, estats) = sjpg_signal(&easy.bytes).unwrap();
        assert!(hs.score() > es.score(), "hard {hs:?} vs easy {es:?}");
        assert!(hs.symbols_per_block() > es.symbols_per_block());
        assert!(hs.ac_energy > es.ac_energy);
        for stats in [hstats, estats] {
            assert!(stats.symbols_decoded > 0);
            assert_eq!(stats.blocks_idct, 0);
            assert_eq!(stats.pixels_written, 0);
            assert_eq!(stats.idct_macs, 0);
        }
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

    #[test]
    fn tiny_images_sample_every_row() {
        // 16 px tall 4:4:4 ⇒ 2 MCU rows, fewer than the sample budget:
        // the scan degenerates to a full entropy pass without panicking.
        let enc = EncodedImage::encode(&noisy(24, 16), Format::sjpg(85)).unwrap();
        let (sig, stats) = sjpg_signal(&enc.bytes).unwrap();
        assert!(sig.blocks > 0);
        assert_eq!(stats.rows_skipped, 0);
    }
}
