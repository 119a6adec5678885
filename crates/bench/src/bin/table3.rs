//! Table 3: cost-model validation. Three regimes — balanced,
//! preprocessing-bound, DNN-bound — with *measured* pipelined throughput
//! compared against the three estimators (Smol min, BlazeIt exec-only,
//! Tahoma additive).
//!
//! The paper tunes the regimes by picking DNN/input combinations; we tune
//! the virtual device's execution rate to the same preproc:exec ratios the
//! paper reports, then really run the engine (one query per regime).
//!
//! The last column is the §6.3 split the planner gives the plan in each
//! regime (the estimators are defined over the all-CPU profile, which is
//! also what runs here). A DNN-bound plan must keep every operator on the
//! CPU; the binary exits non-zero if it does not.

use smol_accel::{DeviceSpec, ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol_bench::{default_planner, fmt_tput, run_once, Table, VariantKind, VariantSet, VCPUS};
use smol_core::{estimate_throughput, percent_error, CascadeStage, CostModelKind};
use smol_data::still_catalog;
use smol_runtime::{wrap_images, RuntimeOptions};

fn device_with_exec_rate(rate: f64) -> VirtualDevice {
    let spec = DeviceSpec {
        resnet50_batch64: rate,
        ..GpuModel::T4.spec()
    };
    VirtualDevice::with_spec(spec, ExecutionEnv::TensorRt, 1.0)
}

fn main() {
    let spec = &still_catalog()[3]; // imagenet-sim
    let n = if smol_bench::quick_mode() { 256 } else { 1024 };
    println!("encoding {n} images in thumbnail variants...");
    let set = VariantSet::build(spec, n, 11);
    let planner = default_planner();

    // Profile preprocessing throughput for q75 thumbnails (the paper's
    // full-load configuration) once.
    let (mut plan, preproc_tput) =
        set.plan_and_profile(&planner, ModelKind::ResNet50, VariantKind::ThumbQ75, VCPUS);
    plan.batch = 32;
    println!(
        "measured preprocessing throughput: {:.0} im/s",
        preproc_tput
    );

    // Regimes defined by the paper's exec:preproc ratios.
    let regimes = [
        ("Balanced", 4999.0 / 4001.0),
        ("Preproc-bound", 4999.0 / 534.0),
        ("DNN-bound", 1844.0 / 5876.0),
    ];
    let mut table = Table::new(
        "Table 3 — measured pipelined throughput vs cost-model estimates",
        &[
            "Config",
            "Preproc (im/s)",
            "Exec (im/s)",
            "Pipelined (im/s)",
            "Smol est (err)",
            "BlazeIt est (err)",
            "Tahoma est (err)",
            "Split (§6.3)",
        ],
    );
    let mut smol_errs = Vec::new();
    let mut best_count = 0usize;
    let mut dnn_bound_moved_work = false;
    for (name, ratio) in regimes {
        let exec_rate = preproc_tput * ratio;
        let device = device_with_exec_rate(exec_rate);
        let opts = RuntimeOptions {
            producers: VCPUS,
            ..Default::default()
        };
        let items = wrap_images(set.items(VariantKind::ThumbQ75));
        let measured = run_once(&device, opts, &plan, items).throughput;
        let stages = CascadeStage::single(device.model_throughput(ModelKind::ResNet50, 32));
        let exec = stages[0].throughput;
        let (placed, placement) = planner.place(
            &plan.input,
            plan.preproc.clone(),
            plan.decode,
            preproc_tput,
            exec,
        );
        let split = placement.expect("a measured profile").split;
        dnn_bound_moved_work |= name == "DNN-bound" && split < placed.ops.len();
        let ests: Vec<(CostModelKind, f64)> = [
            CostModelKind::Smol,
            CostModelKind::ExecOnly,
            CostModelKind::Additive,
        ]
        .into_iter()
        .map(|k| (k, estimate_throughput(k, preproc_tput, &stages)))
        .collect();
        let errs: Vec<f64> = ests
            .iter()
            .map(|(_, e)| percent_error(*e, measured))
            .collect();
        smol_errs.push(errs[0]);
        if errs[0] <= errs[1] + 1e-9 && errs[0] <= errs[2] + 1e-9 {
            best_count += 1;
        }
        table.row(&[
            name.to_string(),
            fmt_tput(preproc_tput),
            fmt_tput(exec),
            fmt_tput(measured),
            format!("{} ({:.1}%)", fmt_tput(ests[0].1), errs[0]),
            format!("{} ({:.1}%)", fmt_tput(ests[1].1), errs[1]),
            format!("{} ({:.1}%)", fmt_tput(ests[2].1), errs[2]),
            placed.placement_label(),
        ]);
    }
    table.print();
    table.write_csv("table3");
    println!("\nSmol's estimate matches or ties the best in {best_count}/3 regimes (paper: 3/3);");
    println!(
        "Smol mean error: {:.1}% (paper per-row: 1.4% / 4.1% / 7.2%)",
        smol_errs.iter().sum::<f64>() / smol_errs.len() as f64
    );
    if dnn_bound_moved_work {
        eprintln!("FAIL: the DNN-bound regime's plan moved work onto the accelerator");
        std::process::exit(1);
    }
}
