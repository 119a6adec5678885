//! Figures 7 and 8: lesion study and factor analysis of the *systems*
//! optimizations (§6.1) — threading, memory reuse, pinned staging, and the
//! preprocessing DAG — measured with real pipeline runs on full-resolution
//! and low-resolution (161 spng) ImageNet-sim images, ResNet-50.
//!
//! One binary produces both figures (they sweep the same axis in opposite
//! directions); `figure8` is an alias binary.

use smol_accel::{DeviceSpec, ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol_bench::{
    default_planner, fmt_tput, naive_planner, quick_mode, run_once, Table, VariantKind, VariantSet,
    VCPUS,
};
use smol_data::still_catalog;
use smol_runtime::{wrap_images, RuntimeOptions};

fn fast_exec_device() -> VirtualDevice {
    // §8.3: configured so DNN execution is never the bottleneck.
    let spec = DeviceSpec {
        resnet50_batch64: 1e9,
        elementwise_ops_per_s: 1e14,
        ..GpuModel::T4.spec()
    };
    VirtualDevice::with_spec(spec, ExecutionEnv::TensorRt, 1.0)
}

struct Config {
    name: &'static str,
    threading: bool,
    memory_reuse: bool,
    pinned: bool,
    dag: bool,
}

pub fn run(factor_mode: bool) {
    let spec = &still_catalog()[3];
    let n = if quick_mode() { 192 } else { 768 };
    println!("encoding {n} images...");
    let set = VariantSet::build(spec, n, 21);

    let configs: Vec<Config> = if factor_mode {
        vec![
            Config {
                name: "None",
                threading: false,
                memory_reuse: false,
                pinned: false,
                dag: false,
            },
            Config {
                name: "+threading",
                threading: true,
                memory_reuse: false,
                pinned: false,
                dag: false,
            },
            Config {
                name: "+mem reuse",
                threading: true,
                memory_reuse: true,
                pinned: false,
                dag: false,
            },
            Config {
                name: "+pinned",
                threading: true,
                memory_reuse: true,
                pinned: true,
                dag: false,
            },
            Config {
                name: "+DAG",
                threading: true,
                memory_reuse: true,
                pinned: true,
                dag: true,
            },
        ]
    } else {
        vec![
            Config {
                name: "All",
                threading: true,
                memory_reuse: true,
                pinned: true,
                dag: true,
            },
            Config {
                name: "-threading",
                threading: false,
                memory_reuse: true,
                pinned: true,
                dag: true,
            },
            Config {
                name: "-mem reuse",
                threading: true,
                memory_reuse: false,
                pinned: true,
                dag: true,
            },
            Config {
                name: "-pinned",
                threading: true,
                memory_reuse: true,
                pinned: false,
                dag: true,
            },
            Config {
                name: "-DAG",
                threading: true,
                memory_reuse: true,
                pinned: true,
                dag: false,
            },
        ]
    };
    let figure = if factor_mode {
        "Figure 8 (factor analysis)"
    } else {
        "Figure 7 (lesion study)"
    };

    for (panel, kind) in [
        ("a) Full resolution", VariantKind::FullRes),
        ("b) Low resolution (161 spng)", VariantKind::ThumbPng),
    ] {
        let mut table = Table::new(
            format!("{figure} — systems optimizations, {panel}"),
            &["Config", "Throughput (im/s)", "vs all-on"],
        );
        let mut results = Vec::new();
        // Baseline with everything on, for the ratio column.
        let all_on = {
            let planner = default_planner();
            let (mut plan, _) = set.plan_and_profile(&planner, ModelKind::ResNet50, kind, VCPUS);
            plan.batch = 32;
            run_once(
                &fast_exec_device(),
                RuntimeOptions {
                    producers: VCPUS,
                    ..Default::default()
                },
                &plan,
                wrap_images(set.items(kind)),
            )
            .throughput
        };
        for cfg in &configs {
            let planner = if cfg.dag {
                default_planner()
            } else {
                naive_planner()
            };
            let input = set.input_variant(kind);
            let plan = smol_core::QueryPlan {
                dnn: ModelKind::ResNet50,
                input: input.clone(),
                preproc: planner.build_preproc(&input),
                decode: planner.decode_mode(&input),
                batch: 32,
                extra_stages: Vec::new(),
            };
            let opts = RuntimeOptions {
                producers: VCPUS,
                threading: cfg.threading,
                memory_reuse: cfg.memory_reuse,
                pinned: cfg.pinned,
                ..Default::default()
            };
            let report = run_once(
                &fast_exec_device(),
                opts,
                &plan,
                wrap_images(set.items(kind)),
            );
            results.push((cfg.name, report.throughput));
            table.row(&[
                cfg.name.to_string(),
                fmt_tput(report.throughput),
                format!("{:.2}x", report.throughput / all_on),
            ]);
        }
        table.print();
        let csv_tag = if factor_mode { "figure8" } else { "figure7" };
        table.write_csv(&format!(
            "{csv_tag}_{}",
            if kind == VariantKind::FullRes {
                "fullres"
            } else {
                "lowres"
            }
        ));
        if factor_mode {
            let monotone = results.windows(2).all(|w| w[1].1 >= w[0].1 * 0.9);
            println!("  shape: throughput non-decreasing as factors add: {monotone}");
        } else {
            let all = results[0].1;
            for (name, tput) in &results[1..] {
                println!(
                    "  lesion {name}: {} ({:.0}% of all-on)",
                    fmt_tput(*tput),
                    tput / all * 100.0
                );
            }
        }
    }
}

#[allow(dead_code)]
fn main() {
    run(false);
}
