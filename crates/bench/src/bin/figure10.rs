//! Figure 10 (Appendix A.1): DALI, PyTorch, and Smol across vCPU counts —
//! (a) CPU-only preprocessing (Smol's DAG optimizations off),
//! (b) optimized preprocessing, (c) end-to-end inference.

use smol_accel::{GpuModel, ModelKind, VirtualDevice};
use smol_bench::{
    default_planner, fmt_tput, naive_planner, quick_mode, run_once, Table, VariantKind, VariantSet,
};
use smol_core::QueryPlan;
use smol_data::still_catalog;
use smol_runtime::{measure_preproc_throughput, wrap_images, Personality};

fn build_plan(opt: bool, set: &VariantSet, kind: VariantKind) -> QueryPlan {
    let planner = if opt {
        default_planner()
    } else {
        naive_planner()
    };
    let input = set.input_variant(kind);
    QueryPlan {
        dnn: ModelKind::ResNet50,
        input: input.clone(),
        preproc: planner.build_preproc(&input),
        decode: planner.decode_mode(&input),
        batch: 32,
    }
}

fn main() {
    let spec = &still_catalog()[3];
    let n = if quick_mode() { 192 } else { 512 };
    println!("encoding {n} full-resolution images...");
    let set = VariantSet::build(spec, n, 29);
    let items = set.items(VariantKind::FullRes);
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(8);
    let mut vcpu_sweep: Vec<usize> = [4usize, 8, 16, 32]
        .into_iter()
        .filter(|&v| v <= cores)
        .collect();
    if vcpu_sweep.is_empty() {
        // Fewer than four cores: one point at what the host has, so the
        // personalities can still be compared.
        vcpu_sweep.push(cores);
    }
    println!("machine has {cores} cores; sweeping vCPUs {vcpu_sweep:?} (paper: 4..64)");

    for (panel, optimized, end_to_end) in [
        ("a) CPU preprocessing (opts off)", false, false),
        ("b) optimized preprocessing", true, false),
        ("c) end-to-end inference", true, true),
    ] {
        let mut table = Table::new(
            format!("Figure 10 {panel} — throughput (im/s) by vCPUs"),
            &["vCPUs", "SMOL", "DALI", "PyTorch"],
        );
        let mut last_row: Vec<f64> = Vec::new();
        for &vcpus in &vcpu_sweep {
            let mut cells = vec![vcpus.to_string()];
            last_row.clear();
            for personality in Personality::all() {
                let plan = build_plan(optimized, &set, VariantKind::FullRes);
                let opts = personality.options(vcpus);
                let tput = if end_to_end {
                    let device = VirtualDevice::new(GpuModel::T4, personality.env(), 1.0);
                    run_once(&device, opts, &plan, wrap_images(items)).throughput
                } else {
                    measure_preproc_throughput(items, &plan, &opts)
                };
                last_row.push(tput);
                cells.push(fmt_tput(tput));
            }
            table.row(&cells);
        }
        table.print();
        table.write_csv(&format!(
            "figure10_{}",
            match panel.chars().next().unwrap() {
                'a' => "cpu_preproc",
                'b' => "opt_preproc",
                _ => "end_to_end",
            }
        ));
        // Shape at the largest sweep point: Smol ≥ DALI ≥ PyTorch.
        if last_row.len() == 3 {
            println!(
                "  shape at max vCPUs: SMOL >= DALI: {}, DALI >= PyTorch: {}",
                last_row[0] >= last_row[1] * 0.9,
                last_row[1] >= last_row[2] * 0.9
            );
        }
    }
}
