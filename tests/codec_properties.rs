//! Property-based tests on the codec substrates: round-trips, partial
//! decode consistency, and bounded loss, over randomized images.

use proptest::prelude::*;
use smol::codec::{sjpg, spng, Chroma, DecodeOptions, EncodedImage, Format, SjpgEncoder};
use smol::imgproc::{ImageU8, Rect};

fn arb_image(max_edge: usize) -> impl Strategy<Value = ImageU8> {
    (2usize..max_edge, 2usize..max_edge, any::<u64>()).prop_map(|(w, h, seed)| {
        // Mix of smooth gradient and pseudo-random detail: exercises both
        // RLE-friendly and entropy-heavy paths.
        let mut state = seed | 1;
        let mut img = ImageU8::zeros(w, h, 3);
        for y in 0..h {
            for x in 0..w {
                for c in 0..3 {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let noise = (state >> 56) as u8;
                    let grad = ((x * 199 / w.max(1) + y * 97 / h.max(1)) % 256) as u8;
                    img.set(x, y, c, grad.wrapping_add(noise / 4));
                }
            }
        }
        img
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// spng is lossless for arbitrary images.
    #[test]
    fn spng_roundtrip_lossless(img in arb_image(80)) {
        let enc = spng::encode(&img).unwrap();
        let dec = spng::decode(&enc).unwrap();
        prop_assert_eq!(img, dec);
    }

    /// sjpg round-trips with bounded per-pixel error at high quality.
    #[test]
    fn sjpg_roundtrip_bounded_error(img in arb_image(72)) {
        let enc = SjpgEncoder::new(95).encode(&img).unwrap();
        let dec = sjpg::decode(&enc).unwrap();
        prop_assert_eq!((dec.width(), dec.height()), (img.width(), img.height()));
        let mad: f64 = img.data().iter().zip(dec.data())
            .map(|(&a, &b)| (a as f64 - b as f64).abs()).sum::<f64>()
            / img.data().len() as f64;
        prop_assert!(mad < 20.0, "mean abs diff too large: {mad}");
    }

    /// ROI decode agrees exactly with the corresponding region of a full
    /// decode, for arbitrary in-bounds ROIs.
    #[test]
    fn sjpg_roi_matches_full(
        img in arb_image(96),
        fx in 0.0f64..0.8,
        fy in 0.0f64..0.8,
        fw in 0.1f64..0.9,
        fh in 0.1f64..0.9,
    ) {
        let enc = SjpgEncoder::new(85).encode(&img).unwrap();
        let full = sjpg::decode(&enc).unwrap();
        let (w, h) = (img.width(), img.height());
        let x = ((w as f64 * fx) as usize).min(w - 1);
        let y = ((h as f64 * fy) as usize).min(h - 1);
        let rw = ((w as f64 * fw) as usize).clamp(1, w - x);
        let rh = ((h as f64 * fh) as usize).clamp(1, h - y);
        let roi = Rect::new(x, y, rw, rh);
        let (part, aligned, _) = sjpg::decode_roi(enc.bytes(), roi).unwrap();
        for dy in 0..aligned.h {
            for dx in 0..aligned.w {
                for c in 0..3 {
                    prop_assert_eq!(
                        part.at(dx, dy, c),
                        full.at(aligned.x + dx, aligned.y + dy, c)
                    );
                }
            }
        }
    }

    /// spng early stop reproduces the exact prefix rows.
    #[test]
    fn spng_early_stop_prefix(img in arb_image(64), frac in 0.1f64..1.0) {
        let enc = spng::encode(&img).unwrap();
        let rows = ((img.height() as f64 * frac) as usize).clamp(1, img.height());
        let (top, _) = spng::decode_rows(&enc, rows).unwrap();
        prop_assert_eq!(top.height(), rows);
        for y in 0..rows {
            prop_assert_eq!(top.row(y), img.row(y));
        }
    }

    /// Reduced-resolution (scaled-IDCT) decode stays within a PSNR bound
    /// of the reference path — full decode + box downsample to the same
    /// geometry — for arbitrary images and every supported factor.
    #[test]
    fn sjpg_scaled_decode_tracks_reference_psnr(
        img in arb_image(96),
        which in 0usize..3,
    ) {
        let factor = [2usize, 4, 8][which];
        let enc = SjpgEncoder::new(90).encode(&img).unwrap();
        let full = sjpg::decode(&enc).unwrap();
        let reference = smol::imgproc::ops::box_downsample_u8(&full, factor).unwrap();
        let (small, _) = sjpg::decode_scaled(&enc, factor).unwrap();
        prop_assert_eq!(
            (small.width(), small.height()),
            (reference.width(), reference.height())
        );
        let mse: f64 = reference.data().iter().zip(small.data())
            .map(|(&a, &b)| { let d = a as f64 - b as f64; d * d }).sum::<f64>()
            / reference.data().len() as f64;
        let psnr = if mse == 0.0 { f64::INFINITY } else { 10.0 * (255.0f64 * 255.0 / mse).log10() };
        prop_assert!(psnr > 24.0, "factor {}: psnr {:.1} dB", factor, psnr);
    }

    /// The scaled decode provably skips transform work: at factor 4 the
    /// full-IDCT-equivalent block count drops ≥4× (it is exactly 64× in
    /// MACs: 16 per block instead of 1024), while entropy decoding — the
    /// sequential part — is unchanged.
    #[test]
    fn sjpg_scaled_decode_skips_idct_work(img in arb_image(96)) {
        let enc = SjpgEncoder::new(85).encode(&img).unwrap();
        let (_, full) = sjpg::decode_with_stats(&enc).unwrap();
        let (_, reduced) = sjpg::decode_scaled(&enc, 4).unwrap();
        prop_assert_eq!(reduced.symbols_decoded, full.symbols_decoded);
        prop_assert_eq!(reduced.idct_macs * 64, full.idct_macs);
        prop_assert!(
            reduced.blocks_idct * 4 <= full.blocks_idct,
            "blocks_idct must drop ≥4x: {} vs {}",
            reduced.blocks_idct,
            full.blocks_idct
        );
    }

    /// The decode hot path's vectorized kernels and band-parallel entropy
    /// decoding are *bit-identical* to the scalar sequential reference —
    /// for both chroma layouts, every scaled-decode factor, arbitrary
    /// (non-multiple-of-8) dimensions, and odd worker counts.
    #[test]
    fn sjpg_fast_path_bit_identical_to_scalar_reference(
        img in arb_image(96),
        subsampled in any::<bool>(),
        which in 0usize..4,
        workers in 1usize..9,
    ) {
        let factor = [1usize, 2, 4, 8][which];
        let chroma = if subsampled { Chroma::C420 } else { Chroma::C444 };
        let enc = SjpgEncoder::with_chroma(88, chroma).encode(&img).unwrap();
        let (reference, ref_stats) =
            sjpg::decode_scaled_opts(&enc, factor, DecodeOptions::scalar_reference()).unwrap();
        let (fast, fast_stats) =
            sjpg::decode_scaled_opts(&enc, factor, DecodeOptions::with_workers(workers)).unwrap();
        prop_assert_eq!(reference.data(), fast.data(),
            "chroma {:?} factor {} workers {}", chroma, factor, workers);
        prop_assert_eq!(ref_stats.symbols_decoded, fast_stats.symbols_decoded);
        prop_assert_eq!(ref_stats.idct_macs, fast_stats.idct_macs);
        prop_assert_eq!(ref_stats.pixels_written, fast_stats.pixels_written);
    }

    /// 4:2:0 chroma subsampling keeps smooth content faithful: round-trip
    /// PSNR stays above 30 dB on low-frequency images (where averaging
    /// 2x2 chroma neighborhoods loses almost nothing).
    #[test]
    fn sjpg420_roundtrip_psnr_on_smooth_content(
        w in 16usize..96,
        h in 16usize..96,
        phase in 0usize..256,
    ) {
        let mut img = ImageU8::zeros(w, h, 3);
        for y in 0..h {
            for x in 0..w {
                for c in 0..3 {
                    // Low-frequency sinusoid: smooth everywhere (no modular
                    // wrap edge), phase-shifted per case and per channel.
                    let t = x as f64 / w as f64 + 0.6 * y as f64 / h as f64
                        + c as f64 * 0.21 + phase as f64 / 64.0;
                    let v = 127.5 + 100.0 * (t * std::f64::consts::PI).sin();
                    img.set(x, y, c, v.round() as u8);
                }
            }
        }
        let enc = SjpgEncoder::with_chroma(95, Chroma::C420).encode(&img).unwrap();
        let dec = sjpg::decode(&enc).unwrap();
        let mse: f64 = img.data().iter().zip(dec.data())
            .map(|(&a, &b)| { let d = a as f64 - b as f64; d * d }).sum::<f64>()
            / img.data().len() as f64;
        let psnr = if mse == 0.0 { f64::INFINITY } else { 10.0 * (255.0f64 * 255.0 / mse).log10() };
        prop_assert!(psnr >= 30.0, "{}x{} phase {}: psnr {:.1} dB", w, h, phase, psnr);
    }

    /// Corrupting any single byte of the payload never panics (it may
    /// error or decode to something wrong, but must stay memory-safe and
    /// terminate).
    #[test]
    fn sjpg_corruption_never_panics(img in arb_image(48), pos in any::<prop::sample::Index>(), bit in 0u8..8) {
        let enc = SjpgEncoder::new(80).encode(&img).unwrap();
        let mut data = enc.to_vec();
        let idx = pos.index(data.len());
        data[idx] ^= 1 << bit;
        let _ = sjpg::decode(&data); // must not panic
    }

    /// The tensor-cache key follows content, not allocation: equal fields in
    /// two allocations agree, and any one-byte flip (tail shorter than one
    /// 32-byte step included: payloads start at length 1), any change of
    /// format tag, width or height, and a zero-byte extension all disagree.
    #[test]
    fn cache_key_follows_content(
        payload in prop::collection::vec(any::<u8>(), 1usize..200),
        pos in any::<prop::sample::Index>(),
        bit in 0u8..8,
        (w, h) in (1usize..4096, 1usize..4096),
        q in 1u8..100,
    ) {
        let item = |format, width, height, bytes: &[u8]| EncodedImage {
            format,
            width,
            height,
            bytes: bytes::Bytes::from(bytes.to_vec()),
        };
        let clean = item(Format::sjpg(q), w, h, &payload);
        prop_assert_eq!(clean.cache_key(), item(Format::sjpg(q), w, h, &payload).cache_key());

        let mut flipped = payload.clone();
        flipped[pos.index(payload.len())] ^= 1 << bit;
        let mut extended = payload.clone();
        extended.push(0);
        for other in [
            item(Format::sjpg(q), w, h, &flipped),
            item(Format::sjpg(q), w, h, &extended),
            item(Format::sjpg(q), w, h, &payload[..payload.len() - 1]),
            item(Format::sjpg(q + 1), w, h, &payload),
            item(Format::sjpg420(q), w, h, &payload),
            item(Format::Svid { quality: q }, w, h, &payload),
            item(Format::Spng, w, h, &payload),
            item(Format::sjpg(q), w + 1, h, &payload),
            item(Format::sjpg(q), w, h + 1, &payload),
            item(Format::sjpg(q), h, w + 4096, &payload),
        ] {
            prop_assert_ne!(clean.cache_key(), other.cache_key(), "{:?}", other);
        }
    }
}

trait BytesExt {
    fn bytes(&self) -> &[u8];
}

impl BytesExt for bytes::Bytes {
    fn bytes(&self) -> &[u8] {
        self
    }
}
