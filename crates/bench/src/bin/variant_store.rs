//! variant_store: the physical-representation store end to end — repeat
//! queries over a materialized dataset must be served from the decoded-
//! tensor cache, bit-identically and coherently.
//!
//! Three gates, all enforced:
//!
//! 1. **Warm speedup ≥ 5×.** The same query submitted twice to one
//!    server: the second run skips every decode (the dominant CPU cost
//!    for full-resolution sjpg at a small DNN input), so its wall time
//!    must be at least 5× shorter. The cold run (a fresh server) and the
//!    warm one (a fresh server whose cache an untimed run filled) are
//!    paired by the shared estimator (`smol_bench::measure`).
//! 2. **Bit identity.** Per-image inference callbacks fingerprint the
//!    decoded pixels; the cold fingerprints, the warm ones, and direct
//!    `decode_item` ground truth must agree exactly.
//! 3. **Coherence.** N threads submit the identical query to a fresh
//!    server concurrently; single-flight must decode each item exactly
//!    once and every query must observe identical pixel hashes.
//! 4. **Scan resistance.** The query runs twice on a server whose cache
//!    holds half the corpus. Recency would evict every item before the
//!    second pass asks for it again; the cache's admission policy must
//!    keep part of the corpus resident, so ≥ 40 % of the second pass
//!    hits (a count, not a duration).
//!
//! A final section demonstrates the storage-aware planner flip with
//! *measured* rates: read throughput from a verified store load,
//! transcode amortization from timing the encoder, the cached-path rate
//! derived from joint and decode-only measurements, and the live cache
//! hit rate — the planner must pick the materialized variant, and the
//! `-Storage` lesion must price the difference away.
#![deny(unsafe_code)]

use smol_accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol_bench::{fmt_ratio, fmt_tput, measure, quick_mode, timed, Gate, Table};
use smol_codec::{EncodedImage, Format};
use smol_core::{
    CandidateSpec, Constraint, DecodeMode, InputVariant, Planner, PlannerConfig, QueryPlan,
    StorageProfile,
};
use smol_data::{encode_variant, fingerprint, textured, VariantStore};
use smol_imgproc::ImageU8;
use smol_runtime::{decode_item, measure_preproc_throughput, RuntimeOptions};
use smol_serve::{QueryReport, Server, ServerConfig, SubmitRequest};
use std::cell::Cell;
use std::path::PathBuf;
use std::process::ExitCode;

fn temp_root() -> PathBuf {
    std::env::temp_dir().join(format!("smol-variant-store-bench-{}", std::process::id()))
}

fn main() -> ExitCode {
    // Full-resolution images at a small DNN input: decode dominates the
    // CPU side, which is exactly the regime the tensor cache targets.
    // The corpus must stay large enough that fixed per-submission costs
    // (admission, batch formation, device wait) don't mask the decode
    // win on the warm pass, so quick mode trims less than `scaled`.
    let n = if quick_mode() { 24 } else { 64 };
    let (w, h) = (512usize, 384usize);
    let dnn_input = 64u32;

    let images: Vec<ImageU8> = (0..n).map(|i| textured(w, h, i)).collect();
    let encoded: Vec<EncodedImage> = images
        .iter()
        .map(|img| EncodedImage::encode(img, Format::sjpg(95)).expect("encode"))
        .collect();
    let truth: Vec<u64> = encoded
        .iter()
        .enumerate()
        .map(|(i, e)| fingerprint(i, &decode_item(e, DecodeMode::Full).expect("decode")))
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
    let (read_s, loaded) = timed(|| store.load("bench").expect("load"));
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
    // One submission, timed, whose fingerprints must match `truth`.
    let identical = Cell::new(true);
    let submit = |server: &Server, label: &str| -> (f64, QueryReport) {
        let (wall, mut report) = timed(|| {
            let handle = server
                .submit(SubmitRequest::stills(plan.clone(), &encoded).infer(fingerprint))
                .expect("admitted");
            handle.wait().expect("resolves")
        });
        let results: Vec<u64> = report
            .take_results::<u64>()
            .into_iter()
            .map(|h| h.unwrap_or_else(|| panic!("{label} item missing a result")))
            .collect();
        if results != truth {
            eprintln!("BIT-IDENTITY VIOLATION: {label} run diverged from decode_item");
            identical.set(false);
        }
        (wall, report)
    };
    let mut warm = None;
    let paired = measure(
        || {
            let server = Server::new(device(), cfg);
            let (wall, _) = submit(&server, "cold");
            server.shutdown();
            wall
        },
        || {
            // A fresh server whose cache an untimed cold run fills.
            let server = Server::new(device(), cfg);
            submit(&server, "fill");
            let (wall, report) = submit(&server, "warm");
            warm = Some((report, server.stats().tensor_cache));
            server.shutdown();
            wall
        },
    );
    let (cold_wall, warm_wall, speedup) = (paired.a, paired.b, paired.ratio);
    let (warm_report, cache) = warm.expect("at least one repetition");
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
         {} misses, {} evictions, {} rejected, {} resident bytes",
        warm_report.cache_hits,
        warm_report.images,
        warm_report.decode_cpu_s,
        cache.decodes,
        cache.hits,
        cache.misses,
        cache.evictions,
        cache.rejected,
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
                            .submit(SubmitRequest::stills(plan, &items).infer(fingerprint))
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

    // ---- Gate 4: a cyclic pass over twice the budget. ----
    let scan_hit_share = {
        let decoded_bytes = w * h * 3;
        let server = Server::new(
            device(),
            ServerConfig {
                tensor_cache_bytes: n / 2 * decoded_bytes,
                ..cfg
            },
        );
        let pass = || {
            server
                .submit(SubmitRequest::stills(plan.clone(), &encoded))
                .expect("admitted")
                .wait()
                .expect("resolves")
                .cache_hits
        };
        let first = pass();
        let second = pass();
        let stats = server.stats().tensor_cache;
        server.shutdown();
        println!(
            "cyclic scan: {n} items through a budget of {}: first pass {first} hits, second \
             pass {second} hits; {} evictions, {} rejected",
            n / 2,
            stats.evictions,
            stats.rejected,
        );
        second as f64 / n as f64
    };

    // ---- Planner flip with measured storage rates. ----
    // On-the-fly: decode+preproc at the measured joint rate, plus the
    // measured per-image transcode every query re-pays, priced as the
    // variant's read rate. Store: the verified-load read rate, transcode
    // already paid, and the cached rate the warm pass actually achieves.
    let joint_tput = measure_preproc_throughput(&encoded, &plan, &opts);
    let transcode = || {
        for img in &images {
            EncodedImage::encode(img, Format::sjpg(95)).expect("encode");
        }
    };
    let transcode_s = timed(transcode).0 / n as f64;
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
            read_throughput: 1.0 / transcode_s,
            cached_throughput: 0.0,
            cache_hit_rate: 0.0,
        }),
    };
    let materialized = CandidateSpec {
        input: InputVariant::new("store sjpg(q=95)", Format::sjpg(95), w, h),
        storage: Some(StorageProfile {
            read_throughput: read_tput,
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
        transcode_s * 1e3,
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

    let mut gate = Gate::new("variant_store");
    gate.check(store_identical, "store round-trip bit identity");
    gate.check(
        speedup >= 5.0,
        format!("warm repeat {speedup:.2}x cold (gate ≥ 5x)"),
    );
    gate.check(
        identical.get(),
        "cold/warm results match decode_item ground truth",
    );
    gate.check(
        warm_served_cached,
        "warm repeat fully cache-served (hits == images, zero decode CPU)",
    );
    gate.check(
        coherent,
        "concurrent submissions: one decode per item, identical outputs",
    );
    gate.check(
        scan_hit_share >= 0.4,
        format!(
            "cyclic pass over twice the budget: second-pass hit share {scan_hit_share:.2} \
             (gate ≥ 0.4)"
        ),
    );
    gate.check(flipped, "planner flips to the materialized variant");
    gate.check(lesion_parity, "-Storage lesion prices specs identically");
    gate.finish()
}
