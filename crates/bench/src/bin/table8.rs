//! Table 8: throughput and cost (¢ per million images) with and without
//! Smol's optimizations at 4 / 8 / 16 vCPUs, at fixed accuracy.
//!
//! "Opt" is Smol's plan: low-resolution (161 spng) thumbnails with an
//! augmented SmolNet-50 (accuracy ≈ full-res, Table 7) and optimized
//! preprocessing. "No opt" is the naive plan: full-resolution images,
//! standard preprocessing, buffer reuse and pinned staging off.

use smol_accel::{DeviceSpec, ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol_bench::{
    default_planner, fmt_tput, naive_planner, quick_mode, run_once, Table, VariantKind, VariantSet,
};
use smol_core::QueryPlan;
use smol_data::still_catalog;
use smol_runtime::{wrap_images, RuntimeOptions};

fn main() {
    let spec = &still_catalog()[3];
    let n = if quick_mode() { 192 } else { 768 };
    println!("encoding {n} images...");
    let set = VariantSet::build(spec, n, 37);
    let instances = smol_accel::economics::g4dn_family();
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(8);

    // Paper reference rows.
    let paper = [
        (4, 1927.0, 7.58, 377.0, 38.75),
        (8, 3756.0, 5.56, 634.0, 32.92),
        (16, 4548.0, 7.35, 1165.0, 28.68),
    ];

    let mut table = Table::new(
        "Table 8 — throughput and cost vs vCPUs (paper values in parens)",
        &[
            "Condition",
            "vCPUs",
            "Throughput (im/s)",
            "Cost (c/1M images)",
        ],
    );
    let mut ratios = Vec::new();
    for &(vcpus, p_opt_t, p_opt_c, p_no_t, p_no_c) in &paper {
        if vcpus > cores {
            println!("skipping {vcpus} vCPUs (machine has {cores} cores)");
            continue;
        }
        let price = instances
            .iter()
            .find(|i| i.vcpus == vcpus as u32)
            .expect("g4dn instance")
            .price_per_hour;
        // Opt: thumbnails + optimized preprocessing + all runtime opts.
        let planner = default_planner();
        let input = set.input_variant(VariantKind::ThumbPng);
        let opt_plan = QueryPlan {
            dnn: ModelKind::ResNet50,
            input: input.clone(),
            preproc: planner.build_preproc(&input),
            decode: planner.decode_mode(&input),
            batch: 32,
        };
        let device = VirtualDevice::new(GpuModel::T4, ExecutionEnv::TensorRt, 1.0);
        let opt_tput = run_once(
            &device,
            RuntimeOptions {
                producers: vcpus,
                ..Default::default()
            },
            &opt_plan,
            wrap_images(set.items(VariantKind::ThumbPng)),
        )
        .throughput;
        // No opt: full-res, standard preprocessing, systems opts off.
        let nplanner = naive_planner();
        let ninput = set.input_variant(VariantKind::FullRes);
        let no_plan = QueryPlan {
            dnn: ModelKind::ResNet50,
            input: ninput.clone(),
            preproc: nplanner.build_preproc(&ninput),
            decode: nplanner.decode_mode(&ninput),
            batch: 32,
        };
        // Keep the DNN from becoming the bottleneck in either condition
        // (the paper's 16-vCPU row approaches the RN-50 limit; ours is far
        // from it, so the T4 spec is fine as-is).
        let device2 = VirtualDevice::with_spec(
            DeviceSpec {
                ..GpuModel::T4.spec()
            },
            ExecutionEnv::TensorRt,
            1.0,
        );
        let no_tput = run_once(
            &device2,
            RuntimeOptions {
                producers: vcpus,
                memory_reuse: false,
                pinned: false,
                ..Default::default()
            },
            &no_plan,
            wrap_images(set.items(VariantKind::FullRes)),
        )
        .throughput;
        let opt_cost = smol_accel::economics::cents_per_million_images(opt_tput, price);
        let no_cost = smol_accel::economics::cents_per_million_images(no_tput, price);
        ratios.push(no_cost / opt_cost);
        table.row(&[
            "Opt".into(),
            vcpus.to_string(),
            format!("{} ({p_opt_t:.0})", fmt_tput(opt_tput)),
            format!("{opt_cost:.2} ({p_opt_c})"),
        ]);
        table.row(&[
            "No opt".into(),
            vcpus.to_string(),
            format!("{} ({p_no_t:.0})", fmt_tput(no_tput)),
            format!("{no_cost:.2} ({p_no_c})"),
        ]);
    }
    table.print();
    table.write_csv("table8");
    if let Some(max_ratio) = ratios
        .iter()
        .cloned()
        .fold(None::<f64>, |a, b| Some(a.map_or(b, |a| a.max(b))))
    {
        println!("\nSmol is up to {max_ratio:.1}x more cost-effective per image (paper: up to 5x)");
    }
}
