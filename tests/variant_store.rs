//! The physical-representation store, end to end: on-disk variant-store
//! round-trips, decoded-tensor cache identity and budget properties,
//! single-flight under concurrency, what the serving path keys the cache
//! on, and the materialize-then-query session flow.

use proptest::prelude::*;
use smol::codec::{EncodedImage, Format};
use smol::core::{DecodeMode, FrameSelection, InputVariant, Planner, PlannerConfig, QueryPlan};
use smol::data::{encode_variant, textured, VariantStore};
use smol::imgproc::ImageU8;
use smol::runtime::{decode_item, wrap_gops, TensorCache};
use smol::serve::{Server, ServerConfig, SubmitRequest};
use smol::video::{EncodedVideo, VideoEncoder};
use smol::{AccuracyTable, Calibration, Dataset, Query, Session, SessionConfig};
use smol_accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smol-vstore-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The decode modes a format legally supports (the partial decodes are
/// sjpg-only; spng always decodes fully).
fn modes_for(format: Format, w: usize, h: usize) -> Vec<DecodeMode> {
    match format {
        Format::Sjpg { .. } => vec![
            DecodeMode::Full,
            DecodeMode::CentralRoi {
                crop_w: (w / 2).max(1),
                crop_h: (h / 2).max(1),
            },
            DecodeMode::ReducedResolution { factor: 2 },
        ],
        _ => vec![DecodeMode::Full],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Materialize → load round-trips every object bit-identically, for
    /// arbitrary image content in both full-res formats of the serving
    /// ladder.
    #[test]
    fn store_roundtrip_is_bit_identical(
        w in 8usize..48,
        h in 8usize..48,
        seed in any::<u64>(),
    ) {
        let images: Vec<ImageU8> = (0..3).map(|i| textured(w, h, (seed ^ i) as usize)).collect();
        let vars = vec![
            encode_variant("a sjpg(q=95)", &images, Format::sjpg(95), false).unwrap(),
            encode_variant("b spng", &images, Format::Spng, false).unwrap(),
        ];
        let root = temp_root(&format!("rt-{seed:x}"));
        let store = VariantStore::open(&root).unwrap();
        store.materialize("prop", &vars).unwrap();
        let loaded = store.load("prop").unwrap();
        prop_assert_eq!(loaded.len(), vars.len());
        for (orig, back) in vars.iter().zip(&loaded) {
            prop_assert_eq!(&orig.name, &back.name);
            for (o, b) in orig.items.iter().zip(&back.items) {
                prop_assert_eq!(&o.bytes[..], &b.bytes[..]);
                prop_assert_eq!(o.fingerprint(), b.fingerprint());
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The cached decode path is bit-identical to a fresh decode across
    /// formats × decode modes, and the second lookup is always a hit.
    #[test]
    fn cached_decode_matches_fresh_decode(
        w in 8usize..64,
        h in 8usize..64,
        seed in any::<u64>(),
        q in 60u8..96,
    ) {
        let img = textured(w, h, seed as usize);
        for format in [Format::sjpg(q), Format::sjpg420(q), Format::Spng] {
            let enc = EncodedImage::encode(&img, format).unwrap();
            for mode in modes_for(format, w, h) {
                let cache = TensorCache::new(64 << 20);
                let fresh = decode_item(&enc, mode).unwrap();
                let (first, hit1) = cache
                    .get_or_decode(enc.fingerprint(), mode, || decode_item(&enc, mode))
                    .unwrap();
                let (second, hit2) = cache
                    .get_or_decode(enc.fingerprint(), mode, || decode_item(&enc, mode))
                    .unwrap();
                prop_assert!(!hit1 && hit2, "miss then hit for {mode:?}");
                prop_assert_eq!(&fresh, &*first, "cached fill differs for {:?}", mode);
                prop_assert_eq!(&*first, &*second, "hit returned different pixels");
                prop_assert_eq!(cache.stats().decodes, 1);
            }
        }
    }

    /// Resident bytes never exceed the byte budget, whatever the insertion
    /// pattern; an insertion beyond budget either evicts the entries worth
    /// the least decode time per byte or is not admitted at all.
    #[test]
    fn lru_never_exceeds_budget(
        dims in prop::collection::vec((4usize..40, 4usize..40), 1usize..24),
        budget_kib in 1usize..64,
    ) {
        let budget = budget_kib * 1024;
        let cache = TensorCache::new(budget);
        for (i, &(w, h)) in dims.iter().enumerate() {
            let _ = cache.get_or_decode(i as u64, DecodeMode::Full, || {
                Ok::<_, std::convert::Infallible>(ImageU8::zeros(w, h, 3))
            });
            prop_assert!(
                cache.stats().resident_bytes <= budget as u64,
                "resident {} > budget {}",
                cache.stats().resident_bytes,
                budget
            );
        }
    }
}

/// Hammering one key from many threads decodes exactly once per key:
/// single-flight fill never duplicates work, and late arrivals all see the
/// winner's tensor.
#[test]
fn single_flight_never_double_decodes_across_keys() {
    let cache = Arc::new(TensorCache::new(256 << 20));
    let decodes = Arc::new(AtomicUsize::new(0));
    let keys = 4u64;
    let threads_per_key = 6;
    let barrier = Arc::new(Barrier::new((keys as usize) * threads_per_key));
    let handles: Vec<_> = (0..keys)
        .flat_map(|k| (0..threads_per_key).map(move |_| k))
        .map(|k| {
            let cache = Arc::clone(&cache);
            let decodes = Arc::clone(&decodes);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let (img, _) = cache
                    .get_or_decode(k, DecodeMode::Full, || {
                        decodes.fetch_add(1, Ordering::AcqRel);
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        Ok::<_, std::convert::Infallible>(ImageU8::zeros(16 + k as usize, 16, 3))
                    })
                    .unwrap();
                assert_eq!(img.width(), 16 + k as usize, "wrong tensor for key {k}");
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        decodes.load(Ordering::Acquire),
        keys as usize,
        "exactly one decode per key"
    );
    assert_eq!(cache.stats().decodes, keys);
}

fn pixel_digest(img: &ImageU8) -> u64 {
    img.data().iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The serving path memoises an item's payload hash on its `Bytes`, never
/// on the item: an item that takes a resident item's format, dimensions and
/// everything else by struct update, but carries other bytes, must miss and
/// be decoded from its own bytes. (A key memoised in a field of
/// `EncodedImage` would ride along in `..clean.clone()` and serve `clean`'s
/// tensor here; the memo rides with the bytes, so it is replaced with them.)
#[test]
fn an_item_with_swapped_bytes_never_hits_the_original_s_tensor() {
    let clean = EncodedImage::encode(&textured(64, 64, 1), Format::Spng).unwrap();
    let other = EncodedImage::encode(&textured(64, 64, 2), Format::Spng).unwrap();
    let swapped = EncodedImage {
        bytes: other.bytes.clone(),
        ..clean.clone()
    };
    let input = InputVariant::new("thumbs", Format::Spng, 64, 64);
    let plan = QueryPlan {
        dnn: ModelKind::ResNet18,
        preproc: Planner::new(PlannerConfig {
            dnn_input: 64,
            ..Default::default()
        })
        .build_preproc(&input),
        input,
        decode: DecodeMode::Full,
        batch: 1,
    };
    let server = Server::new(
        VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 0.02),
        ServerConfig::default(),
    );
    let serve = |item: &EncodedImage| {
        let mut report = server
            .submit(
                SubmitRequest::stills(plan.clone(), std::slice::from_ref(item))
                    .infer(|_, img| pixel_digest(img)),
            )
            .unwrap()
            .wait()
            .unwrap();
        assert!(report.error.is_none(), "{:?}", report.error);
        let digest = report.take_results::<u64>()[0].expect("inferred");
        (report.cache_hits, digest)
    };
    let clean_digest = pixel_digest(&clean.decode().unwrap());
    let other_digest = pixel_digest(&other.decode().unwrap());
    assert_ne!(clean_digest, other_digest);
    assert_eq!(serve(&clean), (0, clean_digest), "first sight decodes");
    assert_eq!(serve(&clean), (1, clean_digest), "now resident");
    assert_eq!(
        serve(&swapped),
        (0, other_digest),
        "same header, other bytes: its own decode, not the resident tensor"
    );
    assert_eq!(serve(&clean), (1, clean_digest), "and `clean` is untouched");
    server.shutdown();
}

/// Frame keys are the GOP's content key mixed with the frame position, with
/// the frame selection kept out of the key: a keyframe decoded under `All`
/// is served from the cache when a later query selects `Keyframes`.
#[test]
fn gop_frames_hit_across_frame_selections() {
    // Distinct frames throughout, so no two GOPs (hence no two frame keys)
    // coincide and every hit below is a cross-selection hit.
    let (n_gops, gop_len, w, h) = (3, 4, 64, 48);
    let frames: Vec<ImageU8> = (0..n_gops * gop_len)
        .map(|i| textured(w, h, 40 + i))
        .collect();
    let encoder = VideoEncoder {
        gop: gop_len,
        ..Default::default()
    };
    let video = EncodedVideo::parse(encoder.encode_frames(&frames, 30.0).unwrap()).unwrap();
    let gops = wrap_gops(&video.gops());
    let input = InputVariant::new(
        "clip",
        Format::Svid {
            quality: encoder.quality,
        },
        w,
        h,
    )
    .video(gop_len);
    let plan = |selection| QueryPlan {
        dnn: ModelKind::ResNet18,
        preproc: Planner::default().build_preproc(&input),
        input: input.clone(),
        decode: DecodeMode::Video {
            selection,
            deblock: true,
        },
        batch: 4,
    };
    let server = Server::new(
        VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 0.02),
        ServerConfig::default(),
    );
    let run = |selection| {
        server
            .submit(SubmitRequest::new(plan(selection), gops.clone()))
            .unwrap()
            .wait()
            .unwrap()
    };
    let all = run(FrameSelection::All);
    assert_eq!((all.images, all.cache_hits), (n_gops * gop_len, 0));
    let keys = run(FrameSelection::Keyframes);
    assert_eq!((keys.images, keys.cache_hits), (n_gops, n_gops));
    assert_eq!(keys.decode_cpu_s, 0.0, "no GOP was decoded again");
    server.shutdown();
}

/// The full tentpole flow: materialize a dataset into a variant store,
/// register it, query twice — the store round-trips, the second query is
/// served from the tensor cache, and both queries agree on what ran.
#[test]
fn materialize_then_query_serves_repeats_from_cache() {
    let root = temp_root("session");
    let store = VariantStore::open(&root).unwrap();
    let images: Vec<ImageU8> = (0..10).map(|i| textured(96, 96, 1000 + i)).collect();
    let encoded: Vec<EncodedImage> = images
        .iter()
        .map(|img| EncodedImage::encode(img, Format::sjpg(95)).unwrap())
        .collect();
    let dataset = Dataset::new("shop")
        .with_model(ModelKind::ResNet50)
        .with_variant(InputVariant::new("full", Format::sjpg(95), 96, 96), encoded)
        .with_calibration(Calibration::Table(AccuracyTable::new().with(
            ModelKind::ResNet50,
            "full",
            0.80,
        )))
        .materialize(&store)
        .unwrap();
    assert!(dataset.is_materialized());
    assert!(store.contains("shop"));
    let loaded = store.load("shop").unwrap();
    assert_eq!(loaded.len(), 1);
    assert_eq!(loaded[0].items.len(), 10);

    let device = VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 1.0);
    let session = Session::new(device, SessionConfig::default());
    session.register(dataset).unwrap();
    let q = Query::new("shop").max_accuracy_loss(0.0);
    let r1 = session.run(&q).unwrap();
    let r2 = session.run(&q).unwrap();
    assert_eq!(r1.images, 10);
    assert_eq!(r2.images, 10);
    assert_eq!(r1.label, r2.label);
    assert_eq!(r2.cache_hits, r2.images, "warm repeat serves from cache");
    assert_eq!(r2.decode_cpu_s, 0.0);
    session.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
