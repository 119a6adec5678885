//! Seeded input generation shared by the workloads. Everything here is a
//! pure function of `--seed`: the program under test receives only the
//! generated inputs, never the seed. Corpora come from the `smol_data`
//! generators; the benchmark adds no image synthesis of its own.

use smol::codec::{Bytes, EncodedImage};
use smol::data::{still_catalog, StillSpec, VariantStore};
use smol::imgproc::ImageU8;
use std::path::{Path, PathBuf};

/// SplitMix64: the benchmark's own tiny generator for access orders and
/// sample picks (the workspace `rand` is a shim and belongs to the code
/// under test).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at the
    /// sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The hardest still dataset of the catalog (imagenet-sim): the highest
/// noise, so its sjpg(q=95) stills are coefficient-dense and entropy decode
/// dominates. Native geometry 320×240.
pub fn fullres_spec() -> StillSpec {
    still_catalog()[3].clone()
}

/// imagenet-sim rendered at thumbnail scale: 96×96 natives whose stored
/// thumbnails are [`SMALL_EDGE`] px — equal to the DNN input edge the
/// small-input tenants plan for, so the serving machinery rather than pixel
/// work is the largest share of an item's cost.
pub fn small_spec() -> StillSpec {
    StillSpec {
        tput_native: (96, 96),
        tput_thumb_short: SMALL_EDGE,
        ..still_catalog()[3].clone()
    }
}

/// Thumbnail edge and DNN input edge of the small-input tenants.
pub const SMALL_EDGE: usize = 64;

/// FNV-1a over a decoded image's geometry and pixels: the digest the
/// correctness oracle compares between served outputs and the
/// single-threaded scalar reference decode.
pub fn pixel_digest(img: &ImageU8) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    eat(&(img.width() as u32).to_le_bytes());
    eat(&(img.height() as u32).to_le_bytes());
    eat(img.data());
    h
}

/// A copy of `item` with an eighth of its entropy-coded body inverted, from
/// the middle on (`--self-check`): several MCU rows of an sjpg, so that no
/// central-ROI or reduced-resolution decode can step around the damage. It
/// either fails to decode or decodes to different pixels, and the oracle
/// must notice either way.
pub fn corrupt(item: &EncodedImage) -> EncodedImage {
    let mut bytes = item.bytes.to_vec();
    let (mid, span) = (bytes.len() / 2, (bytes.len() / 8).max(1));
    for b in &mut bytes[mid..mid + span] {
        *b = !*b;
    }
    EncodedImage {
        bytes: Bytes::from(bytes),
        ..item.clone()
    }
}

/// The per-process scratch directory under `perfbench/out/`, removed when
/// dropped. `VariantStore` roots live here.
pub struct RunDir {
    path: PathBuf,
}

/// `perfbench/out/`, next to the manifest this binary was built from: trace
/// files are written here and survive the run.
pub fn out_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

impl RunDir {
    pub fn create() -> std::io::Result<RunDir> {
        let path = out_root().join(format!("run-{}", std::process::id()));
        // A stale directory can only be a crashed run of a recycled pid.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(RunDir { path })
    }

    pub fn store(&self, name: &str) -> std::io::Result<VariantStore> {
        VariantStore::open(self.path.join(name))
    }

    /// Bytes of every regular file under the directory (store size, for the
    /// load-bandwidth metric).
    pub fn size_bytes(&self) -> u64 {
        fn walk(dir: &Path) -> u64 {
            std::fs::read_dir(dir)
                .map(|entries| {
                    entries
                        .flatten()
                        .map(|e| match e.metadata() {
                            Ok(m) if m.is_dir() => walk(&e.path()),
                            Ok(m) => m.len(),
                            Err(_) => 0,
                        })
                        .sum()
                })
                .unwrap_or(0)
        }
        walk(&self.path)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        // Best effort: a failure to clean up must not turn into a panic
        // while another one may be unwinding.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smol::codec::Format;
    use smol::data::throughput_images;

    #[test]
    fn same_seed_gives_byte_identical_corpora_and_other_seeds_differ() {
        let encode = |seed: u64| -> Vec<Vec<u8>> {
            throughput_images(&small_spec(), seed, 4)
                .iter()
                .map(|img| {
                    EncodedImage::encode(img, Format::sjpg(95))
                        .expect("encode")
                        .bytes
                        .to_vec()
                })
                .collect()
        };
        assert_eq!(encode(11), encode(11));
        assert_ne!(encode(11), encode(12));
    }

    #[test]
    fn splitmix_is_reproducible_per_seed() {
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..32).map(|_| rng.below(97)).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        assert!(draw(5).iter().all(|&v| v < 97));
    }

    #[test]
    fn corruption_changes_the_decoded_pixels_or_fails() {
        let img = &throughput_images(&small_spec(), 3, 1)[0];
        let enc = EncodedImage::encode(img, Format::sjpg(95)).expect("encode");
        let bad = corrupt(&enc);
        assert_ne!(bad.bytes, enc.bytes);
        let good = pixel_digest(&enc.decode().expect("decode"));
        assert!(bad.decode().map_or(true, |d| pixel_digest(&d) != good));
    }
}
