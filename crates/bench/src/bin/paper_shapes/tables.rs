//! The device and catalogue sections: Tables 1, 4, 5 and 6, and §7's
//! price and power accounting.

use smol_accel::economics::{cost_breakdown, fit_core_price, g4dn_family, PAPER_PREPROC_PER_CORE};
use smol_accel::{ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol_bench::{fmt_tput, Gate, Table};
use smol_codec::registry::{format_table, LowFidelityFeature, MediaType};
use smol_data::still_catalog;
use smol_runtime::measure_exec_throughput;

/// Measured execution rate of `model` at `batch` (simulated im/s): about a
/// second of simulated back-to-back batches, at least two. Tables 1, 2
/// and 5 share it.
pub fn exec_rate(device: &VirtualDevice, model: ModelKind, batch: usize) -> f64 {
    let n_batches = (device.model_throughput(model, batch) / batch as f64).ceil() as usize;
    measure_exec_throughput(device, model, batch, n_batches.clamp(2, 100))
}

/// Checks that every measured execution rate lands within 10 % of the rate
/// its device is calibrated to (the virtual device keeps its catalogue).
fn check_calibrated(gate: &mut Gate, table: &str, rows: &[(&str, f64, f64)]) {
    let worst = rows
        .iter()
        .map(|&(_, measured, calibrated)| (measured - calibrated).abs() / calibrated)
        .fold(0.0, f64::max);
    gate.check(
        worst < 0.1,
        format!(
            "{table}: every measured rate within 10 % of its device's calibration (worst {:.1} %)",
            worst * 100.0
        ),
    );
}

fn error_pct(measured: f64, paper: f64) -> String {
    format!("{:.1}%", (measured - paper).abs() / paper * 100.0)
}

/// Table 1: ResNet-50 on the T4 under Keras / PyTorch / TensorRT, each at
/// its Table-1 batch. Shape: the software stack alone is worth an order of
/// magnitude (paper: "over a 17× improvement").
pub fn table1(gate: &mut Gate) {
    let paper = [243.0, 424.0, 4513.0];
    let mut table = Table::new(
        "Table 1 — ResNet-50 throughput on the T4 by execution environment",
        &[
            "Environment",
            "Batch",
            "Paper (im/s)",
            "Measured (im/s)",
            "Error",
        ],
    );
    let mut rows = Vec::new();
    for (env, paper_tput) in ExecutionEnv::all().into_iter().zip(paper) {
        let device = VirtualDevice::new(GpuModel::T4, env, 1.0);
        let batch = env.table1_batch();
        let measured = exec_rate(&device, ModelKind::ResNet50, batch);
        rows.push((
            env.name(),
            measured,
            device.model_throughput(ModelKind::ResNet50, batch),
        ));
        table.row(&[
            env.name().to_string(),
            batch.to_string(),
            fmt_tput(paper_tput),
            fmt_tput(measured),
            error_pct(measured, paper_tput),
        ]);
    }
    table.print();
    table.write_csv("table1");
    check_calibrated(gate, "Table 1", &rows);
    let [keras, pytorch, trt] = [rows[0].1, rows[1].1, rows[2].1];
    gate.check(
        keras < pytorch && pytorch < trt,
        "Table 1: Keras < PyTorch < TensorRT",
    );
    gate.check(
        trt > 10.0 * keras,
        format!(
            "Table 1: TensorRT over 10x Keras ({:.1}x; paper {:.1}x)",
            trt / keras,
            4513.0 / 243.0
        ),
    );
}

/// Table 4: the format registry (printed; it renders the live registry).
pub fn table4() {
    let mut table = Table::new(
        "Table 4 — visual formats and their low-fidelity features",
        &["Format", "Type", "Low-fidelity features", "Modeled by"],
    );
    for entry in format_table() {
        let features: Vec<&str> = entry
            .features
            .iter()
            .map(|f| match f {
                LowFidelityFeature::PartialDecoding => "partial decoding",
                LowFidelityFeature::EarlyStopping => "early stopping",
                LowFidelityFeature::ReducedFidelityDecoding => "reduced-fidelity decoding",
                LowFidelityFeature::MultiResolutionDecoding => "multi-resolution decoding",
            })
            .collect();
        let media = match entry.media {
            MediaType::Image => "Image",
            MediaType::Video => "Video",
            MediaType::ImageAndVideo => "Image/Video",
        };
        table.row(&[
            entry.name.to_string(),
            media.to_string(),
            features.join(", "),
            entry.modeled_by.unwrap_or("—").to_string(),
        ]);
    }
    table.print();
    table.write_csv("table4");
}

/// Table 5: ResNet-50 across GPU generations at batch 64. Shape: every
/// generation is faster than the last (paper: K80 → RTX "over 94×").
pub fn table5(gate: &mut Gate) {
    let mut table = Table::new(
        "Table 5 — ResNet-50 throughput by GPU generation (batch 64, TensorRT)",
        &["GPU", "Release", "Paper (im/s)", "Measured (im/s)", "Error"],
    );
    let mut rows = Vec::new();
    for gpu in GpuModel::table5_order() {
        let spec = gpu.spec();
        let device = VirtualDevice::new(gpu, ExecutionEnv::TensorRt, 1.0);
        let measured = exec_rate(&device, ModelKind::ResNet50, 64);
        rows.push((
            spec.name,
            measured,
            device.model_throughput(ModelKind::ResNet50, 64),
        ));
        table.row(&[
            spec.name.to_string(),
            spec.release_year.to_string(),
            fmt_tput(spec.resnet50_batch64),
            fmt_tput(measured),
            error_pct(measured, spec.resnet50_batch64),
        ]);
    }
    table.print();
    table.write_csv("table5");
    check_calibrated(gate, "Table 5", &rows);
    let (first, last) = (rows[0].1, rows[rows.len() - 1].1);
    gate.check(
        rows.windows(2).all(|w| w[0].1 < w[1].1),
        format!(
            "Table 5: throughput rises with every generation (K80 → RTX {:.0}x; paper 94x)",
            last / first
        ),
    );
}

/// Table 6: the dataset catalogue, paper beside reproduction (printed; it
/// renders the live catalogue).
pub fn table6() {
    let mut table = Table::new(
        "Table 6 — still-image dataset statistics (paper vs reproduction)",
        &[
            "Dataset",
            "Paper classes",
            "Paper train",
            "Paper test",
            "Sim classes",
            "Sim train",
            "Sim test",
            "Sim native px",
        ],
    );
    for spec in still_catalog() {
        table.row(&[
            spec.name.to_string(),
            spec.paper_classes.to_string(),
            spec.paper_train.to_string(),
            spec.paper_test.to_string(),
            spec.n_classes.to_string(),
            (spec.n_classes * spec.train_per_class).to_string(),
            (spec.n_classes * spec.test_per_class).to_string(),
            format!("{}x{}", spec.tput_native.0, spec.tput_native.1),
        ]);
    }
    table.print();
    table.write_csv("table6");
}

/// §7: the core-price fit over the g4dn family and the preprocessing-vs-DNN
/// price and power breakdowns. Shape: feeding the accelerator costs more
/// than running it, in dollars and in watts, and more so for the faster
/// DNN (paper: 11× the price and 2.3× the power for ResNet-50).
pub fn section7(gate: &mut Gate) {
    let family = g4dn_family();
    let fit = fit_core_price(&family);
    println!(
        "\n§7 linear fit: T4 ≈ ${:.3}/h (paper: $0.218), vCPU ≈ ${:.4}/h (paper: $0.0639), \
         R² = {:.4} (paper: 0.999); {:.1} vCPUs cost one T4 (paper: ≈3.4)",
        fit.gpu_price_per_hour,
        fit.core_price_per_hour,
        fit.r_squared,
        fit.gpu_price_per_hour / fit.core_price_per_hour
    );
    let mut table = Table::new(
        "§7 — preprocessing vs DNN execution: price and power (paper-calibrated preproc rate)",
        &[
            "Model",
            "DNN tput (im/s)",
            "Cores to keep up",
            "Preproc $/h",
            "DNN $/h",
            "$ ratio",
            "Preproc W",
            "DNN W",
            "W ratio",
        ],
    );
    let mut ratios = Vec::new();
    for (name, tput, paper_price, paper_watts) in [
        ("ResNet-50", 4513.0, 2.37, 161.0),
        ("ResNet-18", 12592.0, 6.501, 444.0),
    ] {
        let b = cost_breakdown(tput, PAPER_PREPROC_PER_CORE, &fit);
        ratios.push((b.price_ratio(), b.power_ratio()));
        table.row(&[
            name.to_string(),
            format!("{tput:.0}"),
            format!("{:.1}", b.cores_needed),
            format!("{:.2} (paper {paper_price})", b.preproc_price_per_hour),
            format!("{:.3}", b.dnn_price_per_hour),
            format!("{:.1}x", b.price_ratio()),
            format!("{:.0} (paper {paper_watts})", b.preproc_watts),
            format!("{:.0}", b.dnn_watts),
            format!("{:.1}x", b.power_ratio()),
        ]);
    }
    table.print();
    table.write_csv("section7");
    let (rn50, rn18) = (ratios[0], ratios[1]);
    gate.check(
        rn50.0 > 1.0 && rn50.1 > 1.0 && rn18.0 > rn50.0 && rn18.1 > rn50.1,
        format!(
            "§7: preprocessing outprices and outdraws the T4 ({:.1}x / {:.1}x for ResNet-50), \
             more so for ResNet-18 ({:.1}x / {:.1}x)",
            rn50.0, rn50.1, rn18.0, rn18.1
        ),
    );
}
