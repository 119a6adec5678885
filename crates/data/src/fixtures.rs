//! The shared synthetic corpus of the serving gates and the integration
//! tests: a deterministic textured image, and the pixel fingerprint their
//! bit-identity checks compare.

use smol_imgproc::ImageU8;

/// A deterministic `w`×`h` RGB image: diagonal ramps in every channel,
/// offset by `seed` (modulo 256), so distinct seeds encode to distinct
/// items with real AC content for the entropy coder.
pub fn textured(w: usize, h: usize, seed: usize) -> ImageU8 {
    let mut img = ImageU8::zeros(w, h, 3);
    for y in 0..h {
        for x in 0..w {
            for c in 0..3 {
                img.set(
                    x,
                    y,
                    c,
                    ((x * 7 + y * 13 + c * 19 + seed % 256 * 23) % 256) as u8,
                );
            }
        }
    }
    img
}

/// FNV-1a over item index, dimensions and pixels, eight bytes per round so
/// that hashing stays cheap beside the decode it witnesses. Shaped as an
/// inference callback (`SubmitRequest::infer`).
pub fn fingerprint(idx: usize, img: &ImageU8) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mix = |h: u64, word: u64| (h ^ word).wrapping_mul(PRIME);
    let mut h = [img.width(), img.height()]
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325 ^ idx as u64, |h, d| mix(h, d as u64));
    let mut words = img.data().chunks_exact(8);
    for word in &mut words {
        h = mix(h, u64::from_le_bytes(word.try_into().expect("eight bytes")));
    }
    words.remainder().iter().fold(h, |h, &b| mix(h, b as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_fingerprint_separates_index_size_and_pixels() {
        let img = textured(5, 3, 1);
        let base = fingerprint(0, &img);
        assert_eq!(base, fingerprint(0, &img.clone()));
        assert_ne!(base, fingerprint(1, &img));
        assert_ne!(base, fingerprint(0, &textured(3, 5, 1)));
        let mut tail = img.clone();
        *tail.data_mut().last_mut().unwrap() ^= 1;
        assert_ne!(base, fingerprint(0, &tail));
        assert_ne!(textured(8, 8, 1), textured(8, 8, 2));
    }
}
