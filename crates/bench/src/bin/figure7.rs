//! Figures 7 and 8: lesion study and factor analysis of the *systems*
//! optimizations (§6.1–§6.3) — threading, memory reuse, pinned staging, the
//! preprocessing DAG, and operator placement — measured with real pipeline
//! runs on full-resolution and low-resolution (161 spng) ImageNet-sim
//! images, ResNet-50.
//!
//! One binary produces both figures (they sweep the same axis in opposite
//! directions); `figure8` is an alias binary.

use smol_accel::{throughput, DeviceSpec, ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol_bench::{fmt_tput, quick_mode, run_once, Table, VariantKind, VariantSet, VCPUS};
use smol_core::{Planner, PlannerConfig, QueryPlan};
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

#[derive(Clone, Copy)]
struct Config {
    name: &'static str,
    threading: bool,
    memory_reuse: bool,
    pinned: bool,
    dag: bool,
    placement: bool,
}

const ALL_ON: Config = Config {
    name: "All",
    threading: true,
    memory_reuse: true,
    pinned: true,
    dag: true,
    placement: true,
};

const BATCH: usize = 32;

impl Config {
    /// The plan this configuration's planner makes for `kind`: DAG-optimized
    /// or not, and — under placement — with as much of the elementwise tail
    /// on the accelerator as the all-CPU profile `cpu_throughput` against
    /// the planner's device calls for (§6.3; both panels are
    /// preprocessing-bound on the T4 the planner costs, so the tail moves).
    fn plan(&self, set: &VariantSet, kind: VariantKind, cpu_throughput: f64) -> QueryPlan {
        let planner = Planner::new(PlannerConfig {
            enable_dag_opt: self.dag,
            enable_placement: self.placement,
            batch: BATCH,
            ..PlannerConfig::default()
        });
        let input = set.input_variant(kind);
        let decode = planner.decode_mode(&input);
        let config = &planner.config;
        let exec = throughput(ModelKind::ResNet50, config.device, config.env, BATCH);
        let (preproc, _) = planner.place(
            &input,
            planner.build_preproc(&input),
            decode,
            cpu_throughput,
            exec,
        );
        QueryPlan {
            dnn: ModelKind::ResNet50,
            input,
            preproc,
            decode,
            batch: BATCH,
        }
    }

    fn runtime(&self) -> RuntimeOptions {
        RuntimeOptions {
            producers: VCPUS,
            threading: self.threading,
            memory_reuse: self.memory_reuse,
            pinned: self.pinned,
            ..Default::default()
        }
    }
}

pub fn run(factor_mode: bool) {
    let spec = &still_catalog()[3];
    let n = if quick_mode() { 192 } else { 768 };
    println!("encoding {n} images...");
    let set = VariantSet::build(spec, n, 21);

    let configs: Vec<Config> = if factor_mode {
        let none = Config {
            name: "None",
            threading: false,
            memory_reuse: false,
            pinned: false,
            dag: false,
            placement: false,
        };
        let threading = Config {
            name: "+threading",
            threading: true,
            ..none
        };
        let mem_reuse = Config {
            name: "+mem reuse",
            memory_reuse: true,
            ..threading
        };
        let pinned = Config {
            name: "+pinned",
            pinned: true,
            ..mem_reuse
        };
        let dag = Config {
            name: "+DAG",
            dag: true,
            ..pinned
        };
        let placement = Config {
            name: "+placement",
            ..ALL_ON
        };
        vec![none, threading, mem_reuse, pinned, dag, placement]
    } else {
        vec![
            ALL_ON,
            Config {
                name: "-threading",
                threading: false,
                ..ALL_ON
            },
            Config {
                name: "-mem reuse",
                memory_reuse: false,
                ..ALL_ON
            },
            Config {
                name: "-pinned",
                pinned: false,
                ..ALL_ON
            },
            Config {
                name: "-DAG",
                dag: false,
                ..ALL_ON
            },
            Config {
                name: "-placement",
                placement: false,
                ..ALL_ON
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
        // The all-CPU profile every configuration's placement is judged
        // against, and the baseline with everything on for the ratio column.
        let (_, profiled) = set.plan_and_profile(
            &Planner::new(PlannerConfig::default()),
            ModelKind::ResNet50,
            kind,
            VCPUS,
        );
        let run = |cfg: &Config| {
            run_once(
                &fast_exec_device(),
                cfg.runtime(),
                &cfg.plan(&set, kind, profiled),
                wrap_images(set.items(kind)),
            )
        };
        let all_on = run(&ALL_ON).throughput;
        for cfg in &configs {
            let report = run(cfg);
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
