//! The still-image analytics sections: Figures 4, 5 and 6 from one
//! per-dataset context, and Tables 2 and 7 from imagenet-sim's model zoo.

use smol_accel::ModelKind;
use smol_bench::imagexp::{pareto, peak, speedup_at_fixed_accuracy, StillExperiment, Toggles};
use smol_bench::{
    fmt_pct, fmt_ratio, fmt_tput, quick_mode, scaled, t4_device, tier_model, Gate, ModelZoo, Table,
};
use smol_data::{still_catalog, StillSpec};
use smol_nn::{InputFormat, ThumbCodec, Tier};

use crate::tables::exec_rate;

/// Figures 4–6 on every still dataset, and Tables 2 and 7 on imagenet-sim.
pub fn figures4_to_6(gate: &mut Gate) {
    let n_images = scaled(192);
    let (mut best_rn18, mut best_rn50) = (0.0f64, 0.0f64);
    for spec in still_catalog() {
        println!(
            "\n=== {}: training the model zoo (3 tiers x 2 procedures), profiling {n_images} \
             images ===",
            spec.name
        );
        let exp = StillExperiment::new(&spec, n_images);
        let (rn18, rn50) = figure4(gate, &spec, &exp);
        best_rn18 = best_rn18.max(rn18);
        best_rn50 = best_rn50.max(rn50);
        figure5(gate, &spec, &exp);
        figure6(gate, &spec, &exp);
        if spec.name == "imagenet-sim" {
            table2(gate, &exp.zoo);
            table7(gate, &spec, &exp.zoo);
        }
    }
    println!(
        "\nFigure 4 headline: max speedup at ResNet-18 accuracy {} (paper: up to 5.9x), at \
         ResNet-50 accuracy {} (paper: up to 2.2x)",
        fmt_ratio(best_rn18),
        fmt_ratio(best_rn50)
    );
}

/// Figure 4: accuracy vs throughput for the naive baseline, Tahoma and
/// Smol. Shape: Smol extends the frontier rightward. Returns the best
/// speedups at ResNet-18 and ResNet-50 accuracy.
fn figure4(gate: &mut Gate, spec: &StillSpec, exp: &StillExperiment) -> (f64, f64) {
    let naive = exp.naive_points();
    let tahoma = exp.tahoma_points(quick_mode(), 77);
    let smol = exp.smol_points(Toggles::all());
    let mut table = Table::new(
        format!("Figure 4 — {} (all points)", spec.name),
        &[
            "System",
            "Config",
            "Accuracy",
            "Throughput (im/s)",
            "Pareto",
        ],
    );
    for points in [&naive, &tahoma, &smol] {
        let frontier = pareto(points);
        for p in points.iter() {
            let on_frontier = frontier
                .iter()
                .any(|f| f.config == p.config && (f.throughput - p.throughput).abs() < 1e-9);
            table.row(&[
                p.system.to_string(),
                p.config.clone(),
                fmt_pct(p.accuracy),
                fmt_tput(p.throughput),
                if on_frontier { "*" } else { "" }.to_string(),
            ]);
        }
    }
    table.print();
    table.write_csv(&format!("figure4_{}", spec.name));
    let (mut rn18, mut rn50) = (0.0f64, 0.0f64);
    for (config, base, best, ratio) in speedup_at_fixed_accuracy(&smol, &naive) {
        println!(
            "  speedup at {config} accuracy: {} -> {} = {}",
            fmt_tput(base),
            fmt_tput(best),
            fmt_ratio(ratio)
        );
        if config.contains("18") {
            rn18 = rn18.max(ratio);
        }
        if config.contains("50") {
            rn50 = rn50.max(ratio);
        }
    }
    gate.check(
        peak(&smol) > peak(&naive),
        format!(
            "Figure 4 {}: Smol extends the frontier rightward ({} vs naive {} im/s)",
            spec.name,
            fmt_tput(peak(&smol)),
            fmt_tput(peak(&naive))
        ),
    );
    (rn18, rn50)
}

/// Prints one Pareto frontier per configuration and returns each
/// configuration's peak throughput.
fn frontiers(
    title: String,
    csv: String,
    exp: &StillExperiment,
    configs: &[(&str, Toggles)],
) -> Vec<f64> {
    let mut table = Table::new(
        title,
        &["Variant", "Config", "Accuracy", "Throughput (im/s)"],
    );
    let peaks = configs
        .iter()
        .map(|(name, toggles)| {
            let frontier = pareto(&exp.smol_points(*toggles));
            for p in &frontier {
                table.row(&[
                    name.to_string(),
                    p.config.clone(),
                    fmt_pct(p.accuracy),
                    fmt_tput(p.throughput),
                ]);
            }
            peak(&frontier)
        })
        .collect();
    table.print();
    table.write_csv(&csv);
    peaks
}

/// Figure 5: lesion study — remove low-resolution data or the
/// preprocessing optimizations from Smol. Shape: removing low-resolution
/// data lowers peak throughput. Removing the preprocessing optimizations
/// is printed, not asserted: with thumbnails on, the peak is a thumbnail
/// plan whose preprocessing the DAG optimizations barely change.
fn figure5(gate: &mut Gate, spec: &StillSpec, exp: &StillExperiment) {
    let peaks = frontiers(
        format!("Figure 5 — lesion study, {} (Pareto frontiers)", spec.name),
        format!("figure5_{}", spec.name),
        exp,
        &[
            ("SMOL", Toggles::all()),
            (
                "-Low res",
                Toggles {
                    low_res: false,
                    preproc_opt: true,
                },
            ),
            (
                "-Preproc opt",
                Toggles {
                    low_res: true,
                    preproc_opt: false,
                },
            ),
        ],
    );
    let (all, no_low_res, no_opt) = (peaks[0], peaks[1], peaks[2]);
    gate.check(
        no_low_res < all,
        format!(
            "Figure 5 {}: removing low-res data lowers peak throughput ({} vs {})",
            spec.name,
            fmt_tput(no_low_res),
            fmt_tput(all)
        ),
    );
    gate.observe(
        no_opt < all,
        format!(
            "Figure 5 {}: removing preprocessing optimizations lowers peak throughput ({} vs {})",
            spec.name,
            fmt_tput(no_opt),
            fmt_tput(all)
        ),
    );
}

/// Figure 6: factor analysis — add the preprocessing optimizations, then
/// low-resolution data. Shape: peak throughput never falls as factors add.
fn figure6(gate: &mut Gate, spec: &StillSpec, exp: &StillExperiment) {
    let peaks = frontiers(
        format!(
            "Figure 6 — factor analysis, {} (Pareto frontiers)",
            spec.name
        ),
        format!("figure6_{}", spec.name),
        exp,
        &[
            (
                "Basic",
                Toggles {
                    low_res: false,
                    preproc_opt: false,
                },
            ),
            (
                "+Preproc",
                Toggles {
                    low_res: false,
                    preproc_opt: true,
                },
            ),
            ("+Lowres & preproc", Toggles::all()),
        ],
    );
    gate.check(
        peaks[0] <= peaks[1] + 1e-9 && peaks[1] <= peaks[2] + 1e-9,
        format!(
            "Figure 6 {}: peak throughput monotone across factors ({} -> {} -> {})",
            spec.name,
            fmt_tput(peaks[0]),
            fmt_tput(peaks[1]),
            fmt_tput(peaks[2])
        ),
    );
}

/// Table 2: throughput and top-1 accuracy across depths. Shape: deeper
/// models are slower and more accurate (the trade-off behind cost-based
/// model selection).
fn table2(gate: &mut Gate, zoo: &ModelZoo) {
    let mut table = Table::new(
        "Table 2 — throughput and top-1 accuracy by model depth",
        &[
            "Model (ours)",
            "Stand-in for",
            "Paper tput",
            "Measured tput",
            "Paper acc (ImageNet)",
            "Measured acc (imagenet-sim)",
        ],
    );
    let device = t4_device();
    let rows: Vec<(f64, f64)> = Tier::ladder()
        .into_iter()
        .map(|tier| {
            let model: ModelKind = tier_model(tier);
            let spec = model.spec();
            let tput = exec_rate(&device, model, 64);
            let acc = zoo.model(tier, false).evaluate(
                &zoo.dataset.test,
                &zoo.dataset.test_labels,
                InputFormat::FullRes,
            );
            table.row(&[
                tier.name().to_string(),
                spec.name.to_string(),
                fmt_tput(spec.t4_tensorrt_throughput),
                fmt_tput(tput),
                format!("{:.2}%", spec.paper_top1_accuracy.unwrap_or(f64::NAN)),
                fmt_pct(acc),
            ]);
            (tput, acc)
        })
        .collect();
    table.print();
    table.write_csv("table2");
    let (first, last) = (rows[0], rows[rows.len() - 1]);
    gate.check(
        rows.windows(2).all(|w| w[0].0 > w[1].0 && w[0].1 < w[1].1),
        format!(
            "Table 2: throughput falls and accuracy rises with depth (T18→T50 {:+.1} pts; paper \
             +6.1 pts; {} → {} im/s)",
            (last.1 - first.1) * 100.0,
            fmt_tput(first.0),
            fmt_tput(last.0)
        ),
    );
}

/// Table 7: training procedure × input format for the two largest tiers.
/// Shape (SmolNet-50): naive low-resolution evaluation drops accuracy,
/// low-resolution-aware training recovers it on lossless thumbnails, and
/// lossy thumbnails recover less, q=75 least (2-point slack).
fn table7(gate: &mut Gate, spec: &StillSpec, zoo: &ModelZoo) {
    let thumb = |codec| InputFormat::Thumbnail {
        short: spec.acc_thumb_short,
        codec,
    };
    let formats = [
        ("Full resol".to_string(), InputFormat::FullRes),
        (
            format!("{}, PNG", spec.acc_thumb_short),
            thumb(ThumbCodec::Lossless),
        ),
        (
            format!("{}, JPEG (q=95)", spec.acc_thumb_short),
            thumb(ThumbCodec::Lossy { quality: 95 }),
        ),
        (
            format!("{}, JPEG (q=75)", spec.acc_thumb_short),
            thumb(ThumbCodec::Lossy { quality: 75 }),
        ),
    ];
    // Paper reference values (Table 7, imagenet), one row per model column.
    let paper: [[f64; 4]; 4] = [
        [75.16, 70.92, 68.93, 64.02], // reg train, RN-50
        [57.72, 75.00, 71.94, 63.23], // low-res train, RN-50
        [72.72, 68.30, 66.92, 62.45], // reg train, RN-34
        [64.76, 72.50, 69.79, 62.45], // low-res train, RN-34
    ];
    let models = [
        zoo.model(Tier::T50, false),
        zoo.model(Tier::T50, true),
        zoo.model(Tier::T34, false),
        zoo.model(Tier::T34, true),
    ];
    let mut table = Table::new(
        "Table 7 — training procedure x input format (accuracy; paper in parens)",
        &[
            "Format",
            "reg train, 50",
            "low-res train, 50",
            "reg train, 34",
            "low-res train, 34",
        ],
    );
    let mut grid = [[0.0f64; 4]; 4];
    for (fi, (label, format)) in formats.iter().enumerate() {
        let mut cells = vec![label.clone()];
        for (mi, model) in models.iter().enumerate() {
            let acc = model.evaluate(&zoo.dataset.test, &zoo.dataset.test_labels, *format);
            grid[mi][fi] = acc;
            cells.push(format!("{} ({:.2}%)", fmt_pct(acc), paper[mi][fi]));
        }
        table.row(&cells);
    }
    table.print();
    table.write_csv("table7");
    let (reg50, aug50) = (grid[0], grid[1]);
    gate.check(
        reg50[1] < reg50[0],
        format!(
            "Table 7: naive low-res evaluation drops accuracy ({} -> {})",
            fmt_pct(reg50[0]),
            fmt_pct(reg50[1])
        ),
    );
    gate.check(
        aug50[1] > reg50[1],
        format!(
            "Table 7: low-res training recovers on PNG thumbnails ({} -> {})",
            fmt_pct(reg50[1]),
            fmt_pct(aug50[1])
        ),
    );
    gate.check(
        aug50[3] <= aug50[2] + 0.02 && aug50[2] <= aug50[1] + 0.02,
        format!(
            "Table 7: under low-res training q75 ≤ q95 ≤ PNG ({} / {} / {})",
            fmt_pct(aug50[3]),
            fmt_pct(aug50[2]),
            fmt_pct(aug50[1])
        ),
    );
}
