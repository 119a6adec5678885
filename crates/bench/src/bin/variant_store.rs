//! variant_store: the physical-representation store end to end — repeat
//! queries over a materialized dataset must be served from the decoded-
//! tensor cache, bit-identically and coherently.
//!
//! Three gates, all enforced (SMOL_NO_ENFORCE=1 opts out):
//!
//! 1. **Warm speedup ≥ 5×.** The same query submitted twice to one
//!    server: the second run skips every decode (the dominant CPU cost
//!    for full-resolution sjpg at a small DNN input), so its wall time
//!    must be at least 5× shorter. Cold and warm runs share each
//!    repetition (interleaved A/B) and per-mode minima are taken.
//! 2. **Bit identity.** Per-image inference callbacks hash the decoded
//!    pixels; the cold hashes, the warm hashes, and direct
//!    `decode_item` ground truth must agree exactly.
//! 3. **Coherence.** N threads submit the identical query to a fresh
//!    server concurrently; single-flight must decode each item exactly
//!    once and every query must observe identical pixel hashes.
//!
//! A fourth section demonstrates the storage-aware planner flip with
//! *measured* rates: read throughput from a verified store load,
//! transcode amortization from timing the encoder, the cached-path rate
//! derived from joint and decode-only measurements, and the live cache
//! hit rate — the planner must pick the materialized variant, and the
//! `-Storage` lesion must price the difference away.

use smol_accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol_bench::{fmt_ratio, fmt_tput, quick_mode, Table};
use smol_codec::{EncodedImage, Format};
use smol_core::{
    CandidateSpec, Constraint, DecodeMode, InputVariant, Planner, PlannerConfig, QueryPlan,
    StorageProfile,
};
use smol_data::{encode_variant, VariantStore};
use smol_imgproc::ImageU8;
use smol_runtime::{decode_item, measure_preproc_throughput, RuntimeOptions};
use smol_serve::{Server, ServerConfig};
use std::path::PathBuf;
use std::time::Instant;

fn textured(w: usize, h: usize, seed: usize) -> ImageU8 {
    let mut img = ImageU8::zeros(w, h, 3);
    for y in 0..h {
        for x in 0..w {
            for c in 0..3 {
                img.set(x, y, c, ((x * 7 + y * 13 + c * 19 + seed * 23) % 256) as u8);
            }
        }
    }
    img
}

/// FNV-1a over the raw pixel buffer, eight bytes per round: the
/// bit-identity witness. Word-at-a-time keeps the witness cheap enough
/// that hashing doesn't distort the warm-pass timing it guards.
fn pixel_hash(img: &ImageU8) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut chunks = img.data().chunks_exact(8);
    for c in &mut chunks {
        let word = u64::from_le_bytes(c.try_into().expect("exact chunk"));
        h = (h ^ word).wrapping_mul(0x100000001b3);
    }
    for &b in chunks.remainder() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h
}

fn temp_root() -> PathBuf {
    std::env::temp_dir().join(format!("smol-variant-store-bench-{}", std::process::id()))
}

fn main() {
    // Full-resolution images at a small DNN input: decode dominates the
    // CPU side, which is exactly the regime the tensor cache targets.
    // The corpus must stay large enough that fixed per-submission costs
    // (admission, batch formation, device wait) don't mask the decode
    // win on the warm pass, so quick mode trims less than `scaled`.
    let n = if quick_mode() { 24 } else { 64 };
    let (w, h) = (512usize, 384usize);
    let dnn_input = 64u32;
    let reps = if quick_mode() { 3 } else { 5 };

    let images: Vec<ImageU8> = (0..n).map(|i| textured(w, h, i)).collect();
    let encoded: Vec<EncodedImage> = images
        .iter()
        .map(|img| EncodedImage::encode(img, Format::sjpg(95)).expect("encode"))
        .collect();
    let truth: Vec<u64> = encoded
        .iter()
        .map(|e| pixel_hash(&decode_item(e, DecodeMode::Full).expect("decode")))
        .collect();

    // ---- Materialize into the variant store and read it back. ----
    let root = temp_root();
    let _ = std::fs::remove_dir_all(&root);
    let store = VariantStore::open(&root).expect("open store");
    let variant = encode_variant("512x384 sjpg(q=95)", &images, Format::sjpg(95), false)
        .expect("encode variant");
    let mat = store
        .materialize("bench", std::slice::from_ref(&variant))
        .expect("materialize");
    let read_start = Instant::now();
    let loaded = store.load("bench").expect("load");
    let read_s = read_start.elapsed().as_secs_f64();
    let read_tput = if read_s > 0.0 {
        n as f64 / read_s
    } else {
        f64::INFINITY
    };
    let store_identical = loaded[0]
        .items
        .iter()
        .zip(&encoded)
        .all(|(a, b)| a.bytes[..] == b.bytes[..] && a.fingerprint() == b.fingerprint());
    println!(
        "store: {n} objects, {} bytes written, {} deduped; verified load {} im/s; \
         round-trip bit-identical: {store_identical}",
        mat.bytes_written,
        mat.objects_deduped,
        fmt_tput(read_tput),
    );
    let encoded = loaded.into_iter().next().expect("one variant").items;

    let input = InputVariant::new("512x384 sjpg(q=95)", Format::sjpg(95), w, h);
    let planner = Planner::new(PlannerConfig {
        dnn_input,
        batch: n,
        ..Default::default()
    });
    // Full decode on purpose: the gate measures the cache eliding the
    // decode, so the cold path must actually pay it in full.
    let plan = QueryPlan {
        dnn: ModelKind::ResNet50,
        input: input.clone(),
        preproc: planner.build_preproc(&input),
        decode: DecodeMode::Full,
        batch: n,
    };
    let opts = RuntimeOptions::default();
    // A very fast simulated device keeps execution negligible so wall
    // time is CPU-side: decode+preproc when cold, preproc alone when warm.
    let device = || VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 0.02);
    let cfg = ServerConfig {
        runtime: opts,
        tensor_cache_bytes: 256 << 20,
        ..Default::default()
    };

    // ---- Gate 1+2: cold-vs-warm speedup and bit identity. ----
    // Each repetition runs cold-then-warm on a fresh server (the cold
    // submit fills that server's cache, the warm one reuses it), and
    // per-mode minima are taken across repetitions: interleaved A/B, so
    // host-load drift hits both modes alike.
    let mut cold_wall = f64::INFINITY;
    let mut warm_wall = f64::INFINITY;
    let mut warm_report = None;
    let mut identical = true;
    let mut last_stats = None;
    for _ in 0..reps {
        let server = Server::new(device(), cfg);
        let mut run = |label: &str| {
            let start = Instant::now();
            let handle = server
                .submit_with_infer(plan.clone(), encoded.clone(), |_, img: &ImageU8| {
                    pixel_hash(img)
                })
                .expect("admitted");
            let mut report = handle.wait().expect("resolves");
            let wall = start.elapsed().as_secs_f64();
            let hashes: Vec<u64> = report
                .take_results::<u64>()
                .into_iter()
                .map(|h| h.unwrap_or_else(|| panic!("{label} item missing a result")))
                .collect();
            if hashes != truth {
                eprintln!("BIT-IDENTITY VIOLATION: {label} run diverged from decode_item");
                identical = false;
            }
            (wall, report)
        };
        let (cold, _) = run("cold");
        let (warm, report) = run("warm");
        cold_wall = cold_wall.min(cold);
        if warm < warm_wall {
            warm_wall = warm;
            warm_report = Some(report);
        }
        last_stats = Some(server.stats().tensor_cache);
        server.shutdown();
    }
    let warm_report = warm_report.expect("at least one repetition");
    let cache = last_stats.expect("at least one repetition");
    let speedup = cold_wall / warm_wall;
    let warm_served_cached =
        warm_report.cache_hits == warm_report.images && warm_report.decode_cpu_s == 0.0;

    let mut table = Table::new(
        format!("variant_store — repeat query over {n} materialized 512x384 sjpg(q=95) images"),
        &["Pass", "Wall (s)", "Throughput (im/s)", "Speedup"],
    );
    table.row(&[
        "cold (decode + preproc)".to_string(),
        format!("{cold_wall:.3}"),
        fmt_tput(n as f64 / cold_wall),
        fmt_ratio(1.0),
    ]);
    table.row(&[
        "warm (tensor cache)".to_string(),
        format!("{warm_wall:.3}"),
        fmt_tput(n as f64 / warm_wall),
        fmt_ratio(speedup),
    ]);
    table.print();
    table.write_csv("variant_store");
    println!(
        "warm report: {} / {} cache hits, decode {:.4}s; cache: {} decodes, {} hits, \
         {} misses, {} resident bytes",
        warm_report.cache_hits,
        warm_report.images,
        warm_report.decode_cpu_s,
        cache.decodes,
        cache.hits,
        cache.misses,
        cache.resident_bytes,
    );

    // ---- Gate 3: coherence under concurrent identical submissions. ----
    let writers = 4usize;
    let coherent = {
        let server = Server::new(device(), cfg);
        let hashes: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..writers)
                .map(|_| {
                    let server = &server;
                    let plan = plan.clone();
                    let items = encoded.clone();
                    scope.spawn(move || {
                        let mut report = server
                            .submit_with_infer(plan, items, |_, img: &ImageU8| pixel_hash(img))
                            .expect("admitted")
                            .wait()
                            .expect("resolves");
                        report
                            .take_results::<u64>()
                            .into_iter()
                            .map(|h| h.expect("every item carries a result"))
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            handles.into_iter().map(|j| j.join().unwrap()).collect()
        });
        let stats = server.stats().tensor_cache;
        server.shutdown();
        let all_truth = hashes.iter().all(|h| h == &truth);
        println!(
            "coherence: {writers} concurrent identical queries → {} decodes for {n} unique \
             items, all outputs ground-truth-identical: {all_truth}",
            stats.decodes,
        );
        all_truth && stats.decodes == n as u64
    };

    // ---- Planner flip with measured storage rates. ----
    // On-the-fly: decode+preproc at the measured joint rate, plus the
    // measured per-image transcode cost every query re-pays. Store: the
    // verified-load read rate, transcode already paid, and the cached
    // rate the warm pass actually achieves.
    let joint_tput = measure_preproc_throughput(&encoded, &plan, &opts);
    let transcode_start = Instant::now();
    for img in &images {
        EncodedImage::encode(img, Format::sjpg(95)).expect("encode");
    }
    let transcode_amortized_s = transcode_start.elapsed().as_secs_f64() / n as f64;
    let cached_tput = n as f64 / warm_wall;
    let hit_rate = cache.hit_rate();
    let accuracy = 0.80;
    let on_the_fly = CandidateSpec {
        dnn: ModelKind::ResNet50,
        input: InputVariant::new("on-the-fly sjpg(q=95)", Format::sjpg(95), w, h),
        accuracy,
        preproc_throughput: joint_tput,
        reduced_accuracy: None,
        cascade: None,
        routing: Vec::new(),
        video: None,
        storage: Some(StorageProfile {
            read_throughput: f64::INFINITY,
            transcode_amortized_s,
            cached_throughput: 0.0,
            cache_hit_rate: 0.0,
        }),
    };
    let materialized = CandidateSpec {
        input: InputVariant::new("store sjpg(q=95)", Format::sjpg(95), w, h),
        storage: Some(StorageProfile {
            read_throughput: read_tput,
            transcode_amortized_s: 0.0,
            cached_throughput: cached_tput,
            cache_hit_rate: hit_rate,
        }),
        ..on_the_fly.clone()
    };
    let specs = [on_the_fly, materialized];
    let chosen = Planner::new(PlannerConfig {
        dnn_input,
        batch: n,
        ..Default::default()
    })
    .plan(&specs, &Constraint::MaxAccuracyLoss(0.0))
    .expect("feasible");
    println!(
        "\nplanner: joint {} im/s, transcode {:.2}ms/im, read {} im/s, cached {} im/s \
         (hit rate {:.0}%) → chose \"{}\" at {} im/s",
        fmt_tput(joint_tput),
        transcode_amortized_s * 1e3,
        fmt_tput(read_tput),
        fmt_tput(cached_tput),
        hit_rate * 100.0,
        chosen.plan.input.name,
        fmt_tput(chosen.est_throughput),
    );
    let flipped = chosen.plan.input.name == "store sjpg(q=95)";
    // Lesion: with storage-aware costing off, both specs must price
    // identically — the flip is attributable to the storage terms alone.
    let lesioned = Planner::new(PlannerConfig {
        dnn_input,
        batch: n,
        enable_storage_aware: false,
        ..Default::default()
    });
    let cands = lesioned.enumerate(&specs);
    let tputs = |name: &str| {
        cands
            .iter()
            .filter(|c| c.plan.input.name == name)
            .map(|c| c.preproc_throughput)
            .collect::<Vec<_>>()
    };
    let (a, b) = (tputs("on-the-fly sjpg(q=95)"), tputs("store sjpg(q=95)"));
    let lesion_parity =
        !a.is_empty() && a.len() == b.len() && a.iter().zip(&b).all(|(x, y)| (x - y).abs() < 1e-9);
    println!("lesion (-Storage): candidate rates identical across specs: {lesion_parity}");

    let _ = std::fs::remove_dir_all(&root);

    println!(
        "\nwarm speedup {speedup:.2}x (target ≥ 5x){}",
        if speedup >= 5.0 {
            " — PASS"
        } else {
            " — BELOW TARGET"
        }
    );
    let enforce = std::env::var("SMOL_NO_ENFORCE")
        .map(|v| v != "1")
        .unwrap_or(true);
    let mut failed = false;
    let mut gate = |ok: bool, what: &str| {
        if !ok {
            eprintln!("GATE FAILED: {what}");
            failed = true;
        }
    };
    gate(store_identical, "store round-trip bit identity");
    gate(speedup >= 5.0, "warm repeat ≥ 5x cold");
    gate(
        identical,
        "cold/warm results match decode_item ground truth",
    );
    gate(
        warm_served_cached,
        "warm repeat fully cache-served (hits == images, zero decode CPU)",
    );
    gate(
        coherent,
        "concurrent submissions: one decode per item, identical outputs",
    );
    gate(flipped, "planner flips to the materialized variant");
    gate(lesion_parity, "-Storage lesion prices specs identically");
    if enforce && failed {
        std::process::exit(1);
    }
}
