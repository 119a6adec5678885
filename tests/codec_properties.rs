//! Property-based tests on the codec substrates: round-trips, partial
//! decode consistency, and bounded loss, over randomized images.

use proptest::prelude::*;
use smol::codec::signal::sjpg_signal;
use smol::codec::{sjpg, spng, Bytes, Chroma, DecodeOptions, EncodedImage, Format, SjpgEncoder};
use smol::imgproc::{psnr, ImageU8, Rect};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, remembering the largest single request each thread
/// has made: how the hostile-input tests see that a decoder never sizes an
/// allocation from a header its body cannot back.
struct PeakAlloc;

thread_local! {
    static LARGEST_REQUEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded to `System` unchanged; the only addition
// is a thread-local counter with no destructor and no allocation of its own.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_request(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

fn note_request(size: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = LARGEST_REQUEST.try_with(|peak| peak.set(peak.get().max(size)));
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// Runs `f` and returns its result with the largest single allocation this
/// thread requested meanwhile.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LARGEST_REQUEST.with(|peak| peak.replace(0));
    let out = f();
    let during = LARGEST_REQUEST.with(|peak| peak.replace(before.max(peak.get())));
    (out, during)
}

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

/// One step of the 64-bit LCG the generators below share; the high bits are
/// the usable ones.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

/// Images of 1–4 channels in the shapes that steer spng's filter choice and
/// LZ matches: flat (distance-1 runs), a per-pixel period (matches at
/// distance 2 and at the pixel size), gradient and noise — from one pixel
/// wide (every byte is a filter's `i < bpp` head) upwards.
fn arb_spng_image() -> impl Strategy<Value = ImageU8> {
    (1usize..40, 1usize..24, 1usize..5, 0usize..5, any::<u64>()).prop_map(
        |(w, h, channels, kind, seed)| {
            let mut state = seed | 1;
            let mut img = ImageU8::zeros(w, h, channels);
            for (i, v) in img.data_mut().iter_mut().enumerate() {
                let noise = lcg(&mut state);
                let (x, y) = (i / channels % w, i / channels / w);
                *v = match kind {
                    0 => seed as u8,
                    1 => [seed as u8, (seed >> 8) as u8][i % 2],
                    2 => (seed >> (8 * (i % channels))) as u8,
                    3 => (x * 255 / w + y * 3 + i % channels * 40) as u8,
                    _ => (noise >> 56) as u8,
                };
            }
            img
        },
    )
}

/// Both spng decoders on `data` at `n_rows`, each under a cap on what it
/// may allocate: the same `Ok`/`Err`, and when `Ok` the same pixels, row
/// count and `consumed` fraction. Returns the agreed image.
fn spng_paths_agree(data: &[u8], n_rows: usize) -> Option<ImageU8> {
    // No token costs less than a bit or yields more than a 258-byte match,
    // so no stream of this length justifies a larger output buffer; the
    // window tables and small scratch ride in the constant.
    let cap = data.len() * 8 * 258 + (64 << 10);
    let decode = |opts| {
        let (out, peak) = largest_allocation(|| spng::decode_rows_opts(data, n_rows, opts));
        assert!(
            peak <= cap,
            "allocated {peak} bytes for a {}-byte stream",
            data.len()
        );
        out
    };
    match (
        decode(DecodeOptions::default()),
        decode(DecodeOptions::scalar_reference()),
    ) {
        (Ok((fast, fast_consumed)), Ok((reference, consumed))) => {
            assert_eq!(fast, reference, "pixels at n_rows {n_rows}");
            assert_eq!(fast_consumed, consumed, "consumed at n_rows {n_rows}");
            Some(fast)
        }
        (Err(_), Err(_)) => None,
        (fast, reference) => panic!(
            "n_rows {n_rows}: fast path {:?}, reference {:?}",
            fast.map(|_| ()),
            reference.map(|_| ())
        ),
    }
}

/// A small stream that still has everything in it: two channels, rows under
/// different filters, literals and matches.
fn small_spng_stream() -> Vec<u8> {
    let mut img = ImageU8::zeros(12, 7, 2);
    for (i, v) in img.data_mut().iter_mut().enumerate() {
        *v = if i % 24 < 9 { 7 } else { (i * i % 251) as u8 };
    }
    spng::encode(&img).unwrap().to_vec()
}

/// Every byte-prefix of a stream gets the same verdict from both paths, at
/// full height and at an early stop (which may be satisfied before the
/// cut); a full decode of one that lost token bits is an error.
#[test]
fn spng_truncations_fail_the_same_way_on_both_paths() {
    let data = small_spng_stream();
    for n_rows in [usize::MAX, 3] {
        assert!(spng_paths_agree(&data, n_rows).is_some());
    }
    for cut in 0..data.len() {
        let full = spng_paths_agree(&data[..cut], usize::MAX);
        // A full decode stops at the last pixel and never reads the
        // end-of-stream code (≤ 15 bits) or the byte padding behind it.
        assert!(
            full.is_none() || cut + 3 > data.len(),
            "prefix {cut} decoded"
        );
        spng_paths_agree(&data[..cut], 3);
    }
}

/// Seeded bit flips anywhere in the stream — geometry, either table spec,
/// tokens, extra bits: both paths fail, or both return the same image.
#[test]
fn spng_bit_flips_decode_or_fail_the_same_way_on_both_paths() {
    let clean = small_spng_stream();
    let mut state = 0x5EED_0F5B_1775u64;
    let mut next = |n: usize| (lcg(&mut state) >> 33) as usize % n;
    let mut survived = 0;
    for case in 0..2400 {
        let mut data = clean.clone();
        for _ in 0..1 + case % 3 {
            data[next(clean.len())] ^= 1 << next(8);
        }
        let n_rows = [usize::MAX, 1, 4][case % 3];
        survived += spng_paths_agree(&data, n_rows).is_some() as usize;
    }
    // The battery must reach past the header checks: some flips land in
    // literals and leave a decodable stream.
    assert!(survived > 100, "only {survived} mutated streams decoded");
}

/// Both sjpg decoders on `data`, each under a cap on its largest single
/// allocation: the same `Ok`/`Err`, and when `Ok` the same pixels. A coded
/// block costs at least two bits and decodes to at most 128 output bytes
/// (4:2:0: a 16×16 MCU from six blocks), so no stream of this length
/// justifies a buffer past `512 ×` its size; tables and scratch ride in the
/// constant.
fn sjpg_paths_agree(data: &[u8]) -> Option<ImageU8> {
    let cap = data.len() * 512 + (256 << 10);
    let decode = |opts| {
        let (out, peak) = largest_allocation(|| sjpg::decode_with_opts(data, opts));
        assert!(
            peak <= cap,
            "allocated {peak} bytes for a {}-byte stream",
            data.len()
        );
        out.map(|(img, _)| img)
    };
    match (
        decode(DecodeOptions::default()),
        decode(DecodeOptions::scalar_reference()),
    ) {
        (Ok(fast), Ok(reference)) => {
            assert_eq!(fast, reference);
            Some(fast)
        }
        (Err(_), Err(_)) => None,
        (fast, reference) => panic!(
            "fast path {:?}, reference {:?}",
            fast.map(|_| ()),
            reference.map(|_| ())
        ),
    }
}

/// Where an sjpg stream's row index starts (every header field is a whole
/// number of bytes: 11 fixed, then per table sixteen 16-bit counts and one
/// 16-bit symbol per code) and how many MCU rows it indexes.
fn sjpg_index_at(data: &[u8]) -> (usize, usize) {
    let mut at = 11;
    for _table in 0..2 {
        let codes: usize = (0..16)
            .map(|l| u16::from_be_bytes([data[at + 2 * l], data[at + 2 * l + 1]]) as usize)
            .sum();
        at += 2 * (16 + codes);
    }
    (at, u16::from_be_bytes([data[at], data[at + 1]]) as usize)
}

/// Entry `i` of a v3 row index that starts at `index_at` — row `i / 2`,
/// segment `i % 2 + 1` — as a body offset.
fn index_entry(data: &[u8], index_at: usize, i: usize) -> u32 {
    let at = index_at + 2 + 4 * i;
    u32::from_be_bytes(data[at..at + 4].try_into().unwrap())
}

fn set_index_entry(data: &mut [u8], index_at: usize, i: usize, offset: u32) {
    let at = index_at + 2 + 4 * i;
    data[at..at + 4].copy_from_slice(&offset.to_be_bytes());
}

/// The file byte ranges of each row's two segments in a v3 stream.
fn sjpg_v3_segments(data: &[u8]) -> Vec<[std::ops::Range<usize>; 2]> {
    assert_eq!(data[4], 3, "a v3 stream");
    let (at, rows) = sjpg_index_at(data);
    let body = at + 2 + 8 * rows;
    let offset = |i| {
        if i < 2 * rows {
            body + index_entry(data, at, i) as usize
        } else {
            data.len()
        }
    };
    (0..rows)
        .map(|r| {
            [
                offset(2 * r)..offset(2 * r + 1),
                offset(2 * r + 1)..offset(2 * r + 2),
            ]
        })
        .collect()
}

/// A small 4:2:0 v3 stream and where its two-row index starts.
fn small_sjpg_stream() -> (Vec<u8>, usize) {
    let mut img = ImageU8::zeros(40, 24, 3);
    for (i, v) in img.data_mut().iter_mut().enumerate() {
        *v = (i * i % 251) as u8;
    }
    let data = SjpgEncoder::with_chroma(90, Chroma::C420)
        .encode(&img)
        .unwrap()
        .to_vec();
    let (at, rows) = sjpg_index_at(&data);
    assert_eq!((data[4], rows), (3, 2), "a v3 stream of two MCU rows");
    (data, at)
}

fn is_bad_header<T>(result: &smol::codec::Result<T>) -> bool {
    matches!(result, Err(smol::codec::Error::BadHeader(_)))
}

/// Every sjpg entry point on `data` — each decode under both option sets,
/// and the difficulty signal — with the largest single allocation each
/// made on the way.
fn sjpg_entry_points(data: &[u8]) -> Vec<(smol::codec::Result<()>, usize)> {
    let mut verdicts = Vec::new();
    for opts in [DecodeOptions::default(), DecodeOptions::scalar_reference()] {
        let runs: [&dyn Fn() -> smol::codec::Result<()>; 4] = [
            &|| sjpg::decode_with_opts(data, opts).map(|_| ()),
            &|| sjpg::decode_scaled_opts(data, 8, opts).map(|_| ()),
            &|| sjpg::decode_scaled_opts(data, 4, opts).map(|_| ()),
            &|| sjpg::decode_roi_opts(data, Rect::new(0, 0, 16, 16), opts).map(|_| ()),
        ];
        verdicts.extend(runs.iter().map(largest_allocation));
    }
    verdicts.push(largest_allocation(|| sjpg_signal(data).map(|_| ())));
    verdicts
}

/// The hostile headers of the battery below: a 65 535 × 65 535 claim its
/// body cannot back, each inconsistency of a v3 row index, and a last row
/// that starts exactly at the body's end — each with what it is.
fn sjpg_hostile_headers() -> Vec<(&'static str, Vec<u8>)> {
    let (clean, index_at) = small_sjpg_stream();
    let header_len = index_at + 2 + 16;

    let mut hostile = clean[..index_at].to_vec();
    hostile[5..9].copy_from_slice(&[0xFF; 4]);
    // 4:2:0: 16-px MCU rows, each indexed by two non-decreasing offsets.
    hostile.extend(4096u16.to_be_bytes());
    hostile.extend((0..2 * 4096u32).flat_map(|i| (i / 32).to_be_bytes()));
    hostile.extend_from_slice(&clean[header_len..]);
    let mut headers = vec![("a 65 535 × 65 535 claim", hostile)];

    // The index is [row 0 segment 1, row 0 segment 2, row 1 segment 1,
    // row 1 segment 2] as body offsets.
    let body_len = (clean.len() - header_len) as u32;
    let entry = |i| index_entry(&clean, index_at, i);
    let broken: [(&str, usize, u32); 5] = [
        ("a row past the body", 2, body_len + 1),
        ("a segment 2 past the body", 3, body_len + 1),
        ("a segment 2 below its segment 1", 3, entry(2) - 1),
        ("a segment 1 past its segment 2", 0, entry(1) + 1),
        ("rows out of order", 2, entry(1) - 1),
    ];
    for (what, i, offset) in broken {
        let mut data = clean.clone();
        set_index_entry(&mut data, index_at, i, offset);
        headers.push((what, data));
    }

    let mut past = clean.clone();
    set_index_entry(&mut past, index_at, 2, body_len);
    set_index_entry(&mut past, index_at, 3, body_len);
    headers.push(("a last row at the body's end", past));
    headers
}

/// A ~33 KB file whose header claims 65 535 × 65 535 pixels (12 GB decoded)
/// with a self-consistent 4 096-row index is a typed `BadHeader` on every
/// entry point, fast and scalar, before anything is sized from it; so is a
/// v3 index that points past the body, puts a segment 2 before its segment
/// 1, or a row before its predecessor.
#[test]
fn sjpg_header_its_body_cannot_back_is_rejected_before_allocating() {
    let (clean, _) = small_sjpg_stream();
    assert!(sjpg_paths_agree(&clean).is_some());
    let mut headers = sjpg_hostile_headers();
    let (what, past) = headers.pop().expect("the last-row case");
    let (_, hostile) = &headers[0];
    assert!(hostile.len() < 34 << 10, "{} bytes", hostile.len());
    assert_eq!(sjpg::peek_dims(hostile).unwrap(), (65_535, 65_535));
    // The claim and each of the index's own inconsistencies, on every
    // entry point.
    for (what, data) in &headers {
        for (verdict, peak) in sjpg_entry_points(data) {
            assert!(is_bad_header(&verdict), "{what}: {verdict:?}");
            assert!(
                peak < 64 << 10,
                "{what}: allocated {peak} bytes on the way to the error"
            );
        }
        assert!(sjpg_paths_agree(data).is_none(), "{what}");
    }

    // A last row whose segments both start exactly at the body's end is
    // merely truncated.
    assert!(!is_bad_header(&sjpg::decode(&past)), "{what}");
    assert!(sjpg_paths_agree(&past).is_none(), "{what}");
}

/// Routing and decoding agree on what a valid stream is: the difficulty
/// signal reads a header exactly when the decoders' header parse does, on
/// every hostile header above, every seeded header bit flip and every
/// truncation into the header.
#[test]
fn sjpg_signal_accepts_exactly_the_headers_decoders_accept() {
    let (clean, index_at) = small_sjpg_stream();
    let header_len = index_at + 2 + 16;
    let agree = |what: &str, data: &[u8]| {
        assert_eq!(
            sjpg_signal(data).is_ok(),
            sjpg::SjpgHeader::parse(data).is_ok(),
            "{what}"
        );
    };
    for (what, data) in sjpg_hostile_headers() {
        agree(what, &data);
    }
    let mut state = 0x5EED_51B6_0BADu64;
    let mut next = |n: usize| (lcg(&mut state) >> 33) as usize % n;
    let mut parsed = 0;
    for case in 0..2400 {
        let mut data = clean.clone();
        for _ in 0..1 + case % 3 {
            data[next(header_len)] ^= 1 << next(8);
        }
        agree(&format!("flip case {case}"), &data);
        parsed += sjpg_signal(&data).is_ok() as usize;
    }
    assert!(parsed > 20, "only {parsed} mutated headers parsed");
    for cut in 0..header_len + 4 {
        agree(&format!("prefix {cut}"), &clean[..cut]);
    }
}

/// Each segment is read through its own bounded reader: a segment 1 cut
/// short by its segment 2's offset is `Truncated` — not a read into the
/// next segment's bytes — on the fast path and the scalar oracle alike.
#[test]
fn sjpg_overrun_into_the_next_segment_is_truncated_on_both_paths() {
    let (clean, index_at) = small_sjpg_stream();
    let (low_start, rest_start) = (
        index_entry(&clean, index_at, 0),
        index_entry(&clean, index_at, 1),
    );
    for cut in 1..=(rest_start - low_start) {
        let mut data = clean.clone();
        set_index_entry(&mut data, index_at, 1, rest_start - cut);
        for opts in [DecodeOptions::default(), DecodeOptions::scalar_reference()] {
            for factor in [4, 8] {
                let result = sjpg::decode_scaled_opts(&data, factor, opts);
                assert!(
                    matches!(result, Err(smol::codec::Error::Truncated { .. })),
                    "cut {cut} factor {factor} {opts:?}: {:?}",
                    result.map(|_| ())
                );
            }
        }
        assert!(sjpg_paths_agree(&data).is_none(), "cut {cut}");
    }
}

/// Seeded bit flips over the sjpg header — geometry, quality, chroma tag,
/// both table specs, the row index — and every truncation of it: both paths
/// fail, or both return the same image, and neither sizes an allocation the
/// body cannot back.
#[test]
fn sjpg_header_flips_decode_or_fail_the_same_way_on_both_paths() {
    let (clean, index_at) = small_sjpg_stream();
    let header_len = index_at + 2 + 16;
    let mut state = 0x5EED_51B6_0BADu64;
    let mut next = |n: usize| (lcg(&mut state) >> 33) as usize % n;
    let mut survived = 0;
    for case in 0..2400 {
        let mut data = clean.clone();
        for _ in 0..1 + case % 3 {
            data[next(header_len)] ^= 1 << next(8);
        }
        survived += sjpg_paths_agree(&data).is_some() as usize;
    }
    // Some flips (a quality step, a swapped code) leave a decodable stream.
    assert!(survived > 20, "only {survived} mutated streams decoded");
    for cut in 0..header_len + 4 {
        assert!(sjpg_paths_agree(&clean[..cut]).is_none(), "prefix {cut}");
    }
}

/// The central-ROI and early-stop entry points under the scalar reference
/// options — what a serving oracle compares its outputs with — agree with
/// the default path for every still format.
#[test]
fn roi_decode_under_reference_options_matches_the_default_path() {
    let mut img = ImageU8::zeros(70, 52, 3);
    for (i, v) in img.data_mut().iter_mut().enumerate() {
        *v = (i * 31 % 253) as u8 ^ (i / 210) as u8;
    }
    let roi = Rect::new(19, 9, 30, 26);
    for format in [Format::sjpg(90), Format::sjpg420(90), Format::Spng] {
        let enc = EncodedImage::encode(&img, format).unwrap();
        let fast = enc.decode_roi(roi).unwrap();
        let reference = enc
            .decode_roi_opts(roi, DecodeOptions::scalar_reference())
            .unwrap();
        assert_eq!(fast, reference, "{format:?}");
    }
}

/// `coefs_dequantized` is exact: a reduced-resolution decode dequantizes at
/// most the zig-zag prefix its reconstruction reads — one coefficient per
/// block at factor 8, at most five at factor 4 — while factor 1 and ROI
/// decodes dequantize the whole coded prefix, as before.
#[test]
fn sjpg_reduced_decodes_dequantize_only_what_they_read() {
    let mut img = ImageU8::zeros(96, 64, 3);
    let mut state = 99u64;
    for v in img.data_mut() {
        *v = (lcg(&mut state) >> 56) as u8;
    }
    // Noise at q = 95: every block codes (nearly) all 64 coefficients.
    let enc = SjpgEncoder::new(95).encode(&img).unwrap();
    let blocks = (96 / 8) * (64 / 8) * 3;
    let dequantized = |factor| {
        sjpg::decode_scaled(&enc, factor)
            .unwrap()
            .1
            .coefs_dequantized
    };
    let full = dequantized(1);
    assert!(full > 60 * blocks && full <= 64 * blocks, "{full}");
    assert!(dequantized(2) <= 25 * blocks && dequantized(2) > 20 * blocks);
    // Factor 4 reads segment 1 alone, where a low band that ends in zeros
    // stops at its end-of-block code: it dequantizes that band's coded
    // prefix, up to five coefficients.
    assert!(dequantized(4) <= 5 * blocks && dequantized(4) > 4 * blocks);
    assert_eq!(dequantized(8), blocks);
    // A whole-image ROI is the same factor-1 decode; the scalar reference
    // dequantizes every coefficient of every block.
    let whole = Rect::new(0, 0, 96, 64);
    assert_eq!(
        sjpg::decode_roi(&enc, whole).unwrap().2.coefs_dequantized,
        full
    );
    let (_, _, reference) =
        sjpg::decode_roi_opts(&enc, whole, DecodeOptions::scalar_reference()).unwrap();
    assert_eq!(reference.coefs_dequantized, 64 * blocks);
    // 4:2:0 chroma reconstructs at twice the luma's points per axis, so its
    // blocks keep the next-larger prefix: 4 × 1 + 2 × 5 per MCU at factor 8.
    let enc = SjpgEncoder::with_chroma(95, Chroma::C420)
        .encode(&img)
        .unwrap();
    let mcus = (96 / 16) * (64 / 16);
    let (_, stats) = sjpg::decode_scaled(&enc, 8).unwrap();
    assert_eq!(stats.coefs_dequantized, mcus * (4 + 2 * 5));
}

/// One sjpg v2 stream under `tests/fixtures/sjpg_v2/`, written by the last
/// v2 encoder (the commit before v3): the parameters that regenerate its
/// source ([`fixture_source`]) and the digest of its decoded pixels
/// ([`pixel_digest`]).
struct V2Fixture {
    name: &'static str,
    w: usize,
    h: usize,
    seed: u64,
    noise: u32,
    quality: u8,
    chroma: Chroma,
    digest: u64,
}

const fn fixture(
    name: &'static str,
    (w, h): (usize, usize),
    (seed, noise): (u64, u32),
    (quality, chroma): (u8, Chroma),
    digest: u64,
) -> V2Fixture {
    V2Fixture {
        name,
        w,
        h,
        seed,
        noise,
        quality,
        chroma,
        digest,
    }
}

/// 4:4:4 and 4:2:0, odd dimensions, and a noisy q95 still of each.
const V2_FIXTURES: [V2Fixture; 6] = [
    fixture(
        "c444_q85_40x32",
        (40, 32),
        (1, 48),
        (85, Chroma::C444),
        0xb220_77e6_7326_41d1,
    ),
    fixture(
        "c420_q90_37x29",
        (37, 29),
        (2, 48),
        (90, Chroma::C420),
        0x116d_1f74_efc3_f1bc,
    ),
    fixture(
        "c444_q75_61x45",
        (61, 45),
        (3, 96),
        (75, Chroma::C444),
        0xa590_58c8_fb8c_87e3,
    ),
    fixture(
        "c420_q80_48x48",
        (48, 48),
        (4, 24),
        (80, Chroma::C420),
        0x1fa6_1d54_9d00_84d4,
    ),
    fixture(
        "c444_q95_noise_96x72",
        (96, 72),
        (5, 255),
        (95, Chroma::C444),
        0x3d67_5b12_9726_02e7,
    ),
    fixture(
        "c420_q95_noise_70x50",
        (70, 50),
        (6, 255),
        (95, Chroma::C420),
        0x1742_dab4_b3df_6893,
    ),
];

/// A fixture's source: a per-channel gradient plus LCG noise of amplitude
/// `noise` (255: a noisy still).
fn fixture_source(w: usize, h: usize, seed: u64, noise: u32) -> ImageU8 {
    let mut state = seed;
    let mut img = ImageU8::zeros(w, h, 3);
    for y in 0..h {
        for x in 0..w {
            for c in 0..3 {
                let n = (lcg(&mut state) >> 56) as u32 * noise / 255;
                let grad = (x * 255 / w + y * 128 / h + c * 85) as u32;
                img.set(x, y, c, (grad + n) as u8);
            }
        }
    }
    img
}

/// FNV-1a 64 over the dimensions (three little-endian u32) and the pixels.
fn pixel_digest(img: &ImageU8) -> u64 {
    let dims = [img.width(), img.height(), img.channels()].map(|d| (d as u32).to_le_bytes());
    dims.iter()
        .flatten()
        .chain(img.data())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn v2_fixture(name: &str) -> Vec<u8> {
    let path = format!(
        "{}/tests/fixtures/sjpg_v2/{name}.sjpg",
        env!("CARGO_MANIFEST_DIR")
    );
    let data = std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(data[4], 2, "{name} is a v2 stream");
    data
}

/// Every v2 fixture still decodes to its digest, on the fast path and the
/// scalar oracle alike (and under the hostile-input allocation cap), and
/// its one-segment row index yields a finite difficulty score.
#[test]
fn sjpg_v2_fixtures_still_decode_to_their_digests() {
    for f in &V2_FIXTURES {
        let data = v2_fixture(f.name);
        let decoded = sjpg_paths_agree(&data).expect("a v2 fixture decodes");
        assert_eq!(pixel_digest(&decoded), f.digest, "{}", f.name);
        let score = sjpg_signal(&data)
            .expect("a v2 fixture has a signal")
            .score();
        assert!(score.is_finite() && score > 0.0, "{}: {score}", f.name);
    }
}

/// The v3 encode of each fixture's source decodes pixel-identically to the
/// v2 stream of the same image — full, ROI, early stop and every factor,
/// fast ≡ scalar — while its factor-4/8 decodes read fewer symbols.
#[test]
fn sjpg_v3_decodes_pixel_identically_to_the_v2_stream() {
    let paths = [DecodeOptions::default(), DecodeOptions::scalar_reference()];
    for &V2Fixture {
        name,
        w,
        h,
        seed,
        noise,
        quality,
        chroma,
        ..
    } in &V2_FIXTURES
    {
        let v2 = v2_fixture(name);
        let v3 = SjpgEncoder::with_chroma(quality, chroma)
            .encode(&fixture_source(w, h, seed, noise))
            .unwrap();
        assert_eq!(v3[4], 3, "{name}: the encoder writes v3");
        for factor in [1usize, 2, 4, 8] {
            let decode = |data: &[u8], opts| sjpg::decode_scaled_opts(data, factor, opts).unwrap();
            let (want, v2_stats) = decode(&v2, paths[0]);
            for opts in paths {
                for (version, data) in [(2, &v2[..]), (3, &v3[..])] {
                    let (got, stats) = decode(data, opts);
                    assert_eq!(got, want, "{name} v{version} factor {factor} {opts:?}");
                    assert_eq!(stats.idct_macs, v2_stats.idct_macs);
                    assert_eq!(stats.pixels_written, v2_stats.pixels_written);
                }
            }
            let v3_symbols = decode(&v3, paths[0]).1.symbols_decoded;
            if factor >= 4 {
                assert!(v3_symbols < v2_stats.symbols_decoded, "{name} /{factor}");
            }
        }
        let roi = Rect::new(w / 4, h / 5, w / 2, h / 2);
        let want = sjpg::decode_roi(&v2, roi).unwrap();
        for opts in paths {
            for data in [&v2[..], &v3[..]] {
                let got = sjpg::decode_roi_opts(data, roi, opts).unwrap();
                assert_eq!(
                    (got.0, got.1),
                    (want.0.clone(), want.1),
                    "{name} roi {opts:?}"
                );
            }
        }
        let rows = sjpg::decode_rows(&v3, h / 2).unwrap().0;
        assert_eq!(
            rows,
            sjpg::decode_rows(&v2, h / 2).unwrap().0,
            "{name} rows"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A v3 factor-4 or factor-8 decode touches no byte of any segment 2:
    /// with every one of those bytes flipped it decodes the same pixels
    /// with the same work counters, on both paths.
    #[test]
    fn sjpg_v3_reduced_decodes_touch_no_byte_of_segment_2(
        img in arb_image(96),
        subsampled in any::<bool>(),
        mask in 1u8..=255,
    ) {
        let chroma = if subsampled { Chroma::C420 } else { Chroma::C444 };
        let enc = SjpgEncoder::with_chroma(90, chroma).encode(&img).unwrap();
        let mut flipped = enc.to_vec();
        for [_, rest] in sjpg_v3_segments(&enc) {
            prop_assert!(!rest.is_empty());
            for b in &mut flipped[rest] {
                *b ^= mask;
            }
        }
        for factor in [4usize, 8] {
            for opts in [DecodeOptions::default(), DecodeOptions::scalar_reference()] {
                let clean = sjpg::decode_scaled_opts(&enc, factor, opts).unwrap();
                let dirty = sjpg::decode_scaled_opts(&flipped, factor, opts).unwrap();
                prop_assert_eq!(clean, dirty, "{:?} /{} {:?}", chroma, factor, opts);
            }
        }
    }

    /// The table-driven spng decoder and the seed walk agree on arbitrary
    /// images of 1–4 channels under the encoder's own filter choice and
    /// under each forced filter type, at every early-stop row count
    /// (including 0 and past the end, which clamp).
    #[test]
    fn spng_fast_path_matches_reference(img in arb_spng_image(), filter in 0u8..6) {
        let forced = (filter < 5).then_some(filter);
        let enc = spng::encode_with_filter(&img, forced).unwrap();
        let row_bytes = img.width() * img.channels();
        for n_rows in 0..=img.height() + 1 {
            let got = spng_paths_agree(&enc, n_rows).expect("a valid stream decodes");
            let rows = n_rows.clamp(1, img.height());
            prop_assert_eq!(got.height(), rows);
            prop_assert_eq!(got.data(), &img.data()[..rows * row_bytes]);
        }
    }

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
        let (part, aligned, _) = sjpg::decode_roi(&enc, roi).unwrap();
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
        let db = psnr(&reference, &small);
        prop_assert!(db > 24.0, "factor {}: psnr {:.1} dB", factor, db);
    }

    /// The scaled decode provably skips transform work: at factor 4 the
    /// full-IDCT-equivalent block count drops ≥4× (it is exactly 64× in
    /// MACs: 16 per block instead of 1024), and it reads segment 1 alone —
    /// fewer entropy symbols — where factor 2 parses every one.
    #[test]
    fn sjpg_scaled_decode_skips_idct_work(img in arb_image(96)) {
        let enc = SjpgEncoder::new(85).encode(&img).unwrap();
        let (_, full) = sjpg::decode_with_stats(&enc).unwrap();
        let (_, reduced) = sjpg::decode_scaled(&enc, 4).unwrap();
        let (_, half) = sjpg::decode_scaled(&enc, 2).unwrap();
        prop_assert!(reduced.symbols_decoded < full.symbols_decoded);
        prop_assert_eq!(half.symbols_decoded, full.symbols_decoded);
        prop_assert_eq!(reduced.idct_macs * 64, full.idct_macs);
        prop_assert!(
            reduced.blocks_idct * 4 <= full.blocks_idct,
            "blocks_idct must drop ≥4x: {} vs {}",
            reduced.blocks_idct,
            full.blocks_idct
        );
    }

    /// The decode hot path's table-driven entropy decoding and vectorized
    /// kernels are *bit-identical* to the scalar reference — for both
    /// chroma layouts, every scaled-decode factor, and arbitrary
    /// (non-multiple-of-8) dimensions.
    #[test]
    fn sjpg_fast_path_bit_identical_to_scalar_reference(
        img in arb_image(96),
        subsampled in any::<bool>(),
        which in 0usize..4,
    ) {
        let factor = [1usize, 2, 4, 8][which];
        let chroma = if subsampled { Chroma::C420 } else { Chroma::C444 };
        let enc = SjpgEncoder::with_chroma(88, chroma).encode(&img).unwrap();
        let (reference, ref_stats) =
            sjpg::decode_scaled_opts(&enc, factor, DecodeOptions::scalar_reference()).unwrap();
        let (fast, fast_stats) =
            sjpg::decode_scaled_opts(&enc, factor, DecodeOptions::default()).unwrap();
        prop_assert_eq!(reference.data(), fast.data(), "chroma {:?} factor {}", chroma, factor);
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
        let db = psnr(&img, &dec);
        prop_assert!(db >= 30.0, "{}x{} phase {}: psnr {:.1} dB", w, h, phase, db);
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
            bytes: Bytes::from(bytes.to_vec()),
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
