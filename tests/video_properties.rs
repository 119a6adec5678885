//! Property tests for the selective video decode paths: the deblock knob
//! never changes geometry or decode-work accounting, frame selections
//! output exactly what they promise, and keyframe-only decoding holds a
//! PSNR bound against the full-fidelity reference.
//!
//! Then the decode-hot-path battery: the fast decoder every caller runs is
//! bit-identical — pixels, per-frame and aggregate work counters — to the
//! seed chain (`decode_selected_reference`) across geometry, quality, search
//! range, GOP length, frame selection and the filter knob; the two agree on
//! `Ok`/`Err` (and never panic) on truncated and bit-flipped bodies; and the
//! encoder, whose reconstruction loop runs the fast filter, still writes the
//! bytes it wrote before the fast path existed. None of it asserts a
//! duration.

use proptest::prelude::*;
use smol::codec::bitio::BitWriter;
use smol::codec::Bytes;
use smol::core::FrameSelection;
use smol::imgproc::{psnr, ImageU8};
use smol::video::{
    deblock, pframe, DecodeOptions, DecodedFrame, EncodedGop, EncodedVideo, FrameKind,
    VideoDecodeStats, VideoEncoder,
};

/// A deterministic moving-blob scene parameterized by seed.
fn scene(seed: u64, n: usize, w: usize, h: usize) -> Vec<ImageU8> {
    (0..n)
        .map(|t| {
            let mut img = ImageU8::zeros(w, h, 3);
            for y in 0..h {
                for x in 0..w {
                    let bg = ((x as u64 * 3 + y as u64 * 5 + seed) % 56 + 70) as u8;
                    for c in 0..3 {
                        img.set(x, y, c, bg);
                    }
                }
            }
            let ox = ((seed as usize) + t * 2) % w.saturating_sub(8).max(1);
            let oy = h / 3;
            for y in oy..(oy + 8).min(h) {
                for x in ox..(ox + 8).min(w) {
                    img.set(x, y, 0, 240);
                    img.set(x, y, 1, 80);
                    img.set(x, y, 2, 70);
                }
            }
            img
        })
        .collect()
}

fn encode(seed: u64, n: usize, gop: usize) -> EncodedVideo {
    let frames = scene(seed, n, 48, 40);
    let bytes = VideoEncoder {
        gop,
        ..Default::default()
    }
    .encode_frames(&frames, 30.0)
    .unwrap();
    EncodedVideo::parse(bytes).unwrap()
}

fn arb_selection() -> impl Strategy<Value = FrameSelection> {
    (0u8..4, 1usize..5).prop_map(|(tag, n)| match tag {
        0 => FrameSelection::All,
        1 => FrameSelection::Keyframes,
        _ => FrameSelection::Stride(n),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Skipping the in-loop filter is a pure fidelity knob: it must never
    /// change which frames come out, their geometry, or the entropy/
    /// transform work accounting — only the filter counter and pixels.
    #[test]
    fn deblock_skip_changes_neither_geometry_nor_work_accounting(
        seed in 0u64..1000,
        n in 4usize..14,
        gop in 2usize..7,
        selection in arb_selection(),
    ) {
        let video = encode(seed, n, gop);
        let (with, ws) = video
            .decode_selected(selection, DecodeOptions { deblock: true })
            .unwrap();
        let (without, ns) = video
            .decode_selected(selection, DecodeOptions { deblock: false })
            .unwrap();
        prop_assert_eq!(with.len(), without.len());
        for ((ia, a), (ib, b)) in with.iter().zip(&without) {
            prop_assert_eq!(ia, ib);
            prop_assert_eq!((a.width(), a.height()), (b.width(), b.height()));
            prop_assert_eq!((a.width(), a.height()), (48, 40));
        }
        // Identical decode work besides the filter.
        prop_assert_eq!(ws.frames_decoded, ns.frames_decoded);
        prop_assert_eq!(ws.frames_output, ns.frames_output);
        prop_assert_eq!(ws.frames_untouched, ns.frames_untouched);
        prop_assert_eq!(ws.iframes, ns.iframes);
        prop_assert_eq!(ws.pframes, ns.pframes);
        prop_assert_eq!(ws.mc_macroblocks, ns.mc_macroblocks);
        prop_assert_eq!(ws.symbols_decoded, ns.symbols_decoded);
        prop_assert_eq!(ws.idct_macs, ns.idct_macs);
        prop_assert_eq!(ws.deblock_frames, ws.frames_decoded);
        prop_assert_eq!(ns.deblock_frames, 0);
        // Output accounting matches the selection's promise.
        let expected: usize = video
            .gops()
            .iter()
            .map(|g| g.selected_count(selection))
            .sum();
        prop_assert_eq!(with.len(), expected);
    }

    /// Keyframe-only decoding never touches motion compensation and its
    /// frames stay within a PSNR bound of both the full-fidelity decode
    /// (bit-identical, in fact) and the pristine source.
    #[test]
    fn keyframe_decode_psnr_bounds(seed in 0u64..1000, gops in 1usize..4) {
        let n = gops * 5;
        let frames = scene(seed, n, 48, 40);
        let bytes = VideoEncoder { gop: 5, ..Default::default() }
            .encode_frames(&frames, 30.0)
            .unwrap();
        let video = EncodedVideo::parse(bytes).unwrap();
        let reference = video.decode_all(DecodeOptions::default()).unwrap();
        let (keys, stats) = video
            .decode_selected(FrameSelection::Keyframes, DecodeOptions::default())
            .unwrap();
        prop_assert_eq!(stats.mc_macroblocks, 0);
        prop_assert_eq!(stats.pframes, 0);
        prop_assert_eq!(keys.len(), gops);
        for (idx, img) in &keys {
            // Round-trip: identical to the conforming sequential decode.
            prop_assert_eq!(img, &reference[*idx]);
            // Fidelity floor vs the pristine source frame.
            let p = psnr(&frames[*idx], img);
            prop_assert!(p > 26.0, "keyframe {} psnr {:.1}", idx, p);
        }
    }
}

// ---------------------------------------------------------------------------
// Decode hot path: fast ≡ seed chain
// ---------------------------------------------------------------------------

/// A textured scene panning by `(px, py)` pixels per frame with a bright
/// blob crossing it: a global pan gives edge macroblocks motion vectors that
/// point outside the frame, `(0, 0)` a static scene that is all skips.
fn panning_scene(seed: u64, n: usize, w: usize, h: usize, (px, py): (i64, i64)) -> Vec<ImageU8> {
    (0..n as i64)
        .map(|t| {
            let mut img = ImageU8::zeros(w, h, 3);
            for y in 0..h {
                for x in 0..w {
                    let (sx, sy) = (x as i64 + px * t + 64, y as i64 + py * t + 64);
                    let tex = ((sx / 3 * 7 + sy / 2 * 13 + seed as i64) % 61) as u8;
                    for c in 0..3 {
                        img.set(x, y, c, 60 + tex + 25 * c as u8);
                    }
                }
            }
            if px != 0 || py != 0 {
                let ox = (seed as usize + 3 * t as usize) % w;
                for y in h / 3..(h / 3 + 6).min(h) {
                    for x in ox..(ox + 6).min(w) {
                        img.set(x, y, 0, 245);
                    }
                }
            }
            img
        })
        .collect()
}

/// One decode's observable result: frames in order, per-frame counters,
/// aggregate counters.
type Decoded = (Vec<DecodedFrame>, VideoDecodeStats);

fn assert_same_decode(fast: &Decoded, seed: &Decoded, what: &str) {
    assert_eq!(fast.1, seed.1, "aggregate stats: {what}");
    assert_eq!(fast.0.len(), seed.0.len(), "frame count: {what}");
    for (a, b) in fast.0.iter().zip(&seed.0) {
        assert_eq!(a.index, b.index, "{what}");
        assert_eq!(a.stats, b.stats, "frame {} stats: {what}", a.index);
        assert_eq!(a.image, b.image, "frame {} pixels: {what}", a.index);
    }
}

const SELECTIONS: [FrameSelection; 4] = [
    FrameSelection::All,
    FrameSelection::Keyframes,
    FrameSelection::Stride(2),
    FrameSelection::Stride(3),
];

/// The oracle sweep. Geometries cover exact macroblock multiples, multiples
/// of 8 but not 16, neither, and widths/heights ≡ 1 (mod 8) where the
/// filter's outer tap clamps onto the last row/column; search range 0 codes
/// motion vectors in zero bits; pans in both directions push vectors past
/// every frame edge.
#[test]
fn fast_decoder_is_bit_identical_to_the_seed_chain() {
    let geometries = [(64, 48), (48, 40), (41, 35), (33, 17), (20, 9), (16, 16)];
    let mut mc = 0u64;
    let mut cases = 0usize;
    for (gi, &(w, h)) in geometries.iter().enumerate() {
        for (qi, quality) in [30u8, 80, 95].into_iter().enumerate() {
            for (ri, search_range) in [0i16, 3, 7, 15].into_iter().enumerate() {
                // One pan direction and one GOP length per cell, rotated so
                // every value meets every geometry.
                let pan = [(3, 2), (-2, -3), (4, 0), (0, 0)][(gi + qi + ri) % 4];
                let gop = [1usize, 2, 4, 7][(gi + ri) % 4];
                let frames = panning_scene((gi * 16 + qi * 4 + ri) as u64, 7, w, h, pan);
                let bytes = VideoEncoder {
                    quality,
                    gop,
                    search_range,
                }
                .encode_frames(&frames, 30.0)
                .unwrap();
                let video = EncodedVideo::parse(bytes).unwrap();
                for g in video.gops() {
                    for selection in SELECTIONS {
                        for deblock in [true, false] {
                            let opts = DecodeOptions { deblock };
                            let fast = g.decode_selected(selection, opts).unwrap();
                            let seed = g.decode_selected_reference(selection, opts).unwrap();
                            let what = format!(
                                "{w}x{h} q{quality} range {search_range} gop {gop} pan {pan:?} \
                                 {selection:?} deblock {deblock}"
                            );
                            assert_same_decode(&fast, &seed, &what);
                            mc += fast.1.mc_macroblocks;
                            cases += 1;
                        }
                    }
                }
                // The sequential decoders run the same fast path.
                let all = video.decode_all(DecodeOptions::default()).unwrap();
                let (selected, _) = video
                    .decode_selected(FrameSelection::All, DecodeOptions::default())
                    .unwrap();
                assert_eq!(all.len(), selected.len());
                for (a, (_, b)) in all.iter().zip(&selected) {
                    assert_eq!(a, b);
                }
            }
        }
    }
    assert!(cases > 1000, "{cases} cases");
    assert!(
        mc > 1000,
        "the sweep must exercise motion compensation ({mc} macroblocks)"
    );
}

/// A flat static scene (which sjpg reconstructs exactly) codes every
/// macroblock of every P-frame as a skip; both decoders reproduce the
/// reference frame from the one-symbol table.
#[test]
fn all_skip_frames_decode_identically() {
    let flat = ImageU8::from_vec(40, 24, 3, vec![128; 40 * 24 * 3]).unwrap();
    let frames = vec![flat; 4];
    let bytes = VideoEncoder {
        gop: 4,
        ..Default::default()
    }
    .encode_frames(&frames, 30.0)
    .unwrap();
    let gop = &EncodedVideo::parse(bytes).unwrap().gops()[0];
    for deblock in [true, false] {
        let opts = DecodeOptions { deblock };
        let fast = gop.decode_selected(FrameSelection::All, opts).unwrap();
        let seed = gop
            .decode_selected_reference(FrameSelection::All, opts)
            .unwrap();
        assert_same_decode(&fast, &seed, "all-skip");
        for f in &fast.0[1..] {
            assert_eq!(f.stats.mc_macroblocks, 0);
            assert_eq!(f.stats.skipped_macroblocks, 3 * 2);
            assert_eq!(f.stats.symbols_decoded, 0);
        }
    }
}

/// Minimal xorshift for the seeded corruption sweeps (no test depends on
/// its statistical quality, only on its determinism).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

#[test]
fn fast_filter_matches_the_reference_on_random_images() {
    let mut rng = Rng(0x5eed_0019);
    for case in 0..120 {
        let (w, h) = (1 + rng.next() as usize % 70, 1 + rng.next() as usize % 50);
        let c = if case % 2 == 0 { 3 } else { 1 };
        // Alternate smooth content (most boundaries filtered) with noise
        // (most left alone) so both sides of the threshold are dense.
        let spread = if case % 4 < 2 { 12 } else { 256 };
        let mut a = ImageU8::zeros(w, h, c);
        for v in a.data_mut() {
            *v = (100 + rng.next() % spread) as u8;
        }
        let mut b = a.clone();
        deblock::deblock(&mut a, 8);
        deblock::deblock_reference(&mut b, 8);
        assert_eq!(a, b, "{w}x{h}x{c} spread {spread}");
    }
}

/// Re-wraps `payloads` in a container with `gop`'s parameters and returns
/// its single GOP: how a damaged body reaches the decoders (the container
/// parser itself rejects a body shorter than its index says).
fn regop(gop: &EncodedGop, payloads: &[(FrameKind, Vec<u8>)]) -> EncodedGop {
    let mut head = BitWriter::new();
    head.put(0x5356_4944, 32); // "SVID"
    head.put(1, 8);
    head.put(gop.width as u32, 16);
    head.put(gop.height as u32, 16);
    head.put(gop.quality as u32, 8);
    head.put(payloads.len() as u32, 16);
    head.put(gop.search_range as u32, 8);
    head.put(payloads.len() as u32, 32);
    head.put((gop.fps * 1000.0).round() as u32, 32);
    for (kind, bytes) in payloads {
        head.put(matches!(kind, FrameKind::Predicted) as u32, 8);
        head.put(bytes.len() as u32, 32);
    }
    let mut out = head.finish();
    for (_, bytes) in payloads {
        out.extend_from_slice(bytes);
    }
    let mut gops = EncodedVideo::parse(Bytes::from(out)).unwrap().gops();
    assert_eq!(gops.len(), 1);
    gops.remove(0)
}

fn payloads_of(gop: &EncodedGop) -> Vec<(FrameKind, Vec<u8>)> {
    (0..gop.n_frames())
        .map(|i| {
            let (kind, bytes) = gop.frame_payload(i);
            (kind, bytes.to_vec())
        })
        .collect()
}

/// Fast and seed decoders must agree on a damaged GOP: both fail, or both
/// succeed with the same frames. (A panic in either fails the test.)
fn assert_agree_on_damage(damaged: &EncodedGop, what: &str) {
    let opts = DecodeOptions::default();
    let fast = damaged.decode_selected(FrameSelection::All, opts);
    let seed = damaged.decode_selected_reference(FrameSelection::All, opts);
    match (fast, seed) {
        (Ok(fast), Ok(seed)) => assert_same_decode(&fast, &seed, what),
        (Err(_), Err(_)) => {}
        (fast, seed) => panic!(
            "{what}: fast {:?} vs seed {:?}",
            fast.map(|d| d.1),
            seed.map(|d| d.1)
        ),
    }
}

fn small_gop() -> EncodedGop {
    let frames = panning_scene(11, 3, 40, 24, (3, -2));
    let bytes = VideoEncoder {
        quality: 60,
        gop: 3,
        search_range: 7,
    }
    .encode_frames(&frames, 30.0)
    .unwrap();
    EncodedVideo::parse(bytes).unwrap().gops().remove(0)
}

/// Every truncation point of a small GOP body: the frame holding the cut
/// is shortened, the frames after it are empty.
#[test]
fn truncated_bodies_fail_the_same_way_in_both_decoders() {
    let gop = small_gop();
    let payloads = payloads_of(&gop);
    assert!(gop
        .decode_selected(FrameSelection::All, DecodeOptions::default())
        .is_ok());
    let (mut failures, mut cut) = (0usize, 0usize);
    for (f, (_, whole)) in payloads.iter().enumerate() {
        for keep in 0..whole.len() {
            let mut damaged = payloads.clone();
            damaged[f].1.truncate(keep);
            for later in &mut damaged[f + 1..] {
                later.1.clear();
            }
            let damaged = regop(&gop, &damaged);
            failures += damaged
                .decode_selected(FrameSelection::All, DecodeOptions::default())
                .is_err() as usize;
            assert_agree_on_damage(&damaged, &format!("frame {f} cut to {keep} bytes"));
            cut += 1;
        }
    }
    assert_eq!(cut, gop.size_bytes());
    assert!(
        failures * 10 >= cut * 9,
        "{failures} of {cut} truncations failed"
    );
}

/// A fixed number of seeded bit flips anywhere in the body — entropy tables,
/// macroblock headers, motion vectors, residual symbols.
#[test]
fn bit_flipped_bodies_decode_or_fail_the_same_way_in_both_decoders() {
    let gop = small_gop();
    let payloads = payloads_of(&gop);
    let total_bits = gop.size_bytes() * 8;
    let mut rng = Rng(0x5eed_0419);
    let (mut survived, mut failed) = (0usize, 0usize);
    for case in 0..1500 {
        let mut damaged = payloads.clone();
        // One to three flips per case.
        for _ in 0..=case % 3 {
            let mut bit = rng.next() as usize % total_bits;
            for (_, bytes) in &mut damaged {
                if bit < bytes.len() * 8 {
                    bytes[bit / 8] ^= 0x80 >> (bit % 8);
                    break;
                }
                bit -= bytes.len() * 8;
            }
        }
        let damaged = regop(&gop, &damaged);
        match damaged.decode_selected(FrameSelection::All, DecodeOptions::default()) {
            Ok(_) => survived += 1,
            Err(_) => failed += 1,
        }
        assert_agree_on_damage(&damaged, &format!("flip case {case}"));
    }
    assert!(
        survived > 50 && failed > 50,
        "{survived} decoded, {failed} failed"
    );
}

/// The same at the P-frame layer alone, where flips land on the motion
/// vector and residual syntax far more often than in a whole GOP.
#[test]
fn bit_flipped_pframes_decode_or_fail_the_same_way_in_both_decoders() {
    let gop = small_gop();
    let (frames, _) = gop
        .decode_selected(FrameSelection::All, DecodeOptions::default())
        .unwrap();
    let reference = &frames[0].image;
    let (_, payload) = gop.frame_payload(1);
    let mut rng = Rng(0x5eed_0519);
    let mut survived = 0usize;
    for case in 0..3000 {
        let mut damaged = payload.to_vec();
        for _ in 0..=case % 2 {
            let bit = rng.next() as usize % (damaged.len() * 8);
            damaged[bit / 8] ^= 0x80 >> (bit % 8);
        }
        let fast = pframe::decode_pframe(&damaged, reference, gop.quality, gop.search_range);
        let seed =
            pframe::decode_pframe_reference(&damaged, reference, gop.quality, gop.search_range);
        match (fast, seed) {
            (Ok(fast), Ok(seed)) => {
                assert_eq!(fast, seed, "flip case {case}");
                survived += 1;
            }
            (Err(_), Err(_)) => {}
            (fast, seed) => panic!(
                "flip case {case}: fast {:?} vs seed {:?}",
                fast.map(|d| d.1),
                seed.map(|d| d.1)
            ),
        }
    }
    assert!(survived > 100, "{survived} flipped P-frames still decoded");
}

/// The benchmark's input corpus is what the encoder wrote before the fast
/// filter moved into its reconstruction loop: every P-frame payload byte
/// for byte, and every keyframe pixel for pixel — keyframes are sjpg, whose
/// bytes changed with stream version 3 while their decode did not (folds
/// recorded at the commit before v3, whose GOP fingerprints this test
/// pinned since the fast filter landed).
#[test]
fn encoder_output_is_unchanged_by_the_fast_reconstruction_loop() {
    let corpus = smol::data::gops::gop_corpus(&smol::data::catalog::video_catalog()[1], 42, 120, 6);
    assert_eq!(corpus.gops.len(), 120);
    // FNV-1a over the P-frame payloads and over the decoded keyframes.
    let fnv = |fold: u64, bytes: &[u8]| {
        bytes.iter().fold(fold, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    let (mut predicted, mut keyframes) = (0xcbf2_9ce4_8422_2325u64, 0xcbf2_9ce4_8422_2325u64);
    let mut predicted_bytes = 0;
    for gop in &corpus.gops {
        for idx in 0..gop.n_frames() {
            match gop.frame_payload(idx) {
                (FrameKind::Predicted, payload) => {
                    predicted_bytes += payload.len();
                    predicted = fnv(predicted, payload);
                }
                (FrameKind::Intra, payload) => {
                    let frame = smol::codec::sjpg::decode(payload).unwrap();
                    keyframes = fnv(keyframes, frame.data());
                }
            }
        }
    }
    assert_eq!(predicted_bytes, 262_041);
    assert_eq!(predicted, 0x3984_3fdb_a955_8821);
    assert_eq!(keyframes, 0xb836_0a39_2c80_e9af);
}
