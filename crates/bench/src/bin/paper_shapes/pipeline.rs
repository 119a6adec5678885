//! The pipelined-engine sections: Table 3 with §8.2 (one sweep of
//! exec:preproc regimes feeds both), Table 8, Figures 7 and 8, and
//! Figure 10.

use smol_accel::economics::{cents_per_million_images, g4dn_family};
use smol_accel::{throughput, DeviceSpec, ExecutionEnv, GpuModel, ModelKind, VirtualDevice};
use smol_bench::{
    default_planner, fmt_tput, measure, naive_planner, quick_mode, run_once, simple_plan,
    t4_device, Gate, Paired, Table, VariantKind, VariantSet, VCPUS,
};
use smol_core::{
    estimate_throughput, percent_error, CascadeStage, CostModelKind, Planner, PlannerConfig,
    QueryPlan,
};
use smol_data::still_catalog;
use smol_runtime::{measure_preproc_throughput, wrap_images, Personality, RuntimeOptions};

use crate::tables::exec_rate;

/// The exec:preproc ratios of Table 3's three regimes (the paper's
/// 4 999 / 4 001, 4 999 / 534 and 1 844 / 5 876 im/s); §8.2(b) runs every
/// input variant through the same three.
const REGIMES: [(&str, f64); 3] = [
    ("Balanced", 4999.0 / 4001.0),
    ("Preproc-bound", 4999.0 / 534.0),
    ("DNN-bound", 1844.0 / 5876.0),
];

/// The regimes whose Table 3 shape is printed, not asserted. On a 2-vCPU
/// host the pipelined run sits 5–10 % under the producer stage alone when
/// preprocessing-bound and 15–35 % under min(preproc, exec) when balanced,
/// so the additive model's guess (0.9× and 0.56× the preprocessing rate)
/// lands about as close as Smol's min (`docs/PAPER_SHAPES.md`).
const NOT_REPRODUCED: [&str; 2] = ["Balanced", "Preproc-bound"];

/// Smol's min, BlazeIt's exec-only and Tahoma's additive estimators.
const COST_MODELS: [CostModelKind; 3] = [
    CostModelKind::Smol,
    CostModelKind::ExecOnly,
    CostModelKind::Additive,
];

/// A T4 whose ResNet-50 batch-64 rate is `rate`.
fn device_with_exec_rate(rate: f64) -> VirtualDevice {
    let spec = DeviceSpec {
        resnet50_batch64: rate,
        ..GpuModel::T4.spec()
    };
    VirtualDevice::with_spec(spec, ExecutionEnv::TensorRt, 1.0)
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(8, |c| c.get())
}

/// Table 3 and §8.2: the engine really runs each input variant against a
/// device tuned to each regime's exec:preproc ratio, and the three cost
/// models estimate it from the preprocessing profile measured beside it
/// (paired by the shared estimator).
///
/// Table 3 (q=75 thumbnails) asserts that Smol's min model is the best
/// estimator in the regimes outside [`NOT_REPRODUCED`], and that a
/// DNN-bound pipeline runs at the device's rate and keeps every operator on
/// the CPU (§6.3). §8.2(b) asserts that Smol's average error over all
/// variants is the lowest (paper: 5.9 % vs 217 % exec-only vs 23 %
/// additive).
pub fn table3_and_section82(gate: &mut Gate) {
    let spec = &still_catalog()[3]; // imagenet-sim
    let n = if quick_mode() { 256 } else { 1024 };
    let set = VariantSet::build(spec, n, 11);
    let planner = default_planner();
    let opts = RuntimeOptions {
        producers: VCPUS,
        ..Default::default()
    };
    let mut table3 = Table::new(
        "Table 3 — measured pipelined throughput vs cost-model estimates (161 sjpg(q=75))",
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
    // Per cost model, its error on every (variant, regime) run.
    let mut errs: [Vec<f64>; 3] = Default::default();
    let mut smol_best = Vec::new();
    let mut full_load = None;
    for kind in VariantKind::all() {
        let plan = simple_plan(&planner, ModelKind::ResNet50, set.input_variant(kind), 32);
        let items = set.items(kind);
        // Seconds per image of the producer stage alone: the profile every
        // cost model reads.
        let profile = || 1.0 / measure_preproc_throughput(items, &plan, &opts);
        // The first pass over a variant runs cold and reads up to a quarter
        // slower: calibrate the regimes on a warm one.
        profile();
        let calibration = 1.0 / profile();
        for (name, ratio) in REGIMES {
            let rate = calibration * ratio;
            let exec = device_with_exec_rate(rate).model_throughput(ModelKind::ResNet50, 32);
            // The profile and the pipelined run, paired: host-speed drift
            // between two single runs would read as estimation error. A
            // fresh device per run keeps their timelines independent.
            let run = || {
                let device = device_with_exec_rate(rate);
                1.0 / run_once(&device, opts, &plan, wrap_images(items)).throughput
            };
            let paired = measure(&profile, run);
            let (preproc, measured) = (1.0 / paired.a, paired.ratio / paired.a);
            let ests =
                COST_MODELS.map(|m| estimate_throughput(m, preproc, &CascadeStage::single(exec)));
            let row_errs = ests.map(|e| percent_error(e, measured));
            for (all, e) in errs.iter_mut().zip(row_errs) {
                all.push(e);
            }
            if kind != VariantKind::ThumbQ75 {
                continue;
            }
            let (placed, placement) = planner.place(
                &plan.input,
                plan.preproc.clone(),
                plan.decode,
                preproc,
                exec,
            );
            let all_cpu = placement.expect("a measured profile").split == placed.ops.len();
            if name == "DNN-bound" {
                gate.check(
                    all_cpu && (measured - exec).abs() / exec < 0.3,
                    format!(
                        "Table 3: a DNN-bound pipeline runs within 30 % of the device's rate \
                         ({} vs {} im/s) and keeps every operator on the CPU ({})",
                        fmt_tput(measured),
                        fmt_tput(exec),
                        placed.placement_label()
                    ),
                );
            }
            smol_best.push((name, row_errs));
            let cell = |i: usize| format!("{} ({:.1}%)", fmt_tput(ests[i]), row_errs[i]);
            table3.row(&[
                name.to_string(),
                fmt_tput(preproc),
                fmt_tput(exec),
                fmt_tput(measured),
                cell(0),
                cell(1),
                cell(2),
                placed.placement_label(),
            ]);
            full_load = Some((plan.clone(), preproc));
        }
    }
    table3.print();
    table3.write_csv("table3");
    for (name, e) in smol_best {
        let what = format!(
            "Table 3 {name}: Smol's estimate is the best ({:.1} % vs exec-only {:.1} % vs \
             additive {:.1} %)",
            e[0], e[1], e[2]
        );
        let best = e[0] <= e[1] + 1e-9 && e[0] <= e[2] + 1e-9;
        if NOT_REPRODUCED.contains(&name) {
            gate.observe(best, what);
        } else {
            gate.check(best, what);
        }
    }

    // §8.2(a): full-load pipelining, exec tuned just below preprocessing
    // (the paper's 5.9k preproc / 4.2k exec).
    let (plan, preproc) = full_load.expect("the q=75 thumbnails ran");
    let rate = preproc * 4.2 / 5.9;
    let exec = exec_rate(&device_with_exec_rate(rate), ModelKind::ResNet50, 32);
    let items = wrap_images(set.items(VariantKind::ThumbQ75));
    let pipelined = run_once(&device_with_exec_rate(rate), opts, &plan, items).throughput;
    let overhead = 1.0 - pipelined / preproc.min(exec);
    let mut t = Table::new(
        "§8.2(a) — full-load pipelining (paper: 5.9k / 4.2k / 3.6k im/s, 16% overhead)",
        &["Measurement", "im/s"],
    );
    t.row(&["preprocessing only".into(), fmt_tput(preproc)]);
    t.row(&["DNN execution only".into(), fmt_tput(exec)]);
    t.row(&["pipelined end-to-end".into(), fmt_tput(pipelined)]);
    t.print();
    gate.observe(
        overhead <= 0.16,
        format!(
            "§8.2(a): pipelined within 16 % of min(preproc, exec) ({:.1} % overhead)",
            overhead * 100.0
        ),
    );

    // §8.2(b): average error over every variant and regime.
    let avg: Vec<f64> = errs
        .iter()
        .map(|v| v.iter().sum::<f64>() / v.len() as f64)
        .collect();
    let mut t2 = Table::new(
        "§8.2(b) — average estimation error across RN-50 configurations",
        &["Cost model", "Avg error (ours)", "Avg error (paper)"],
    );
    for (i, (name, paper)) in [
        ("Smol (min)", "5.9%"),
        ("BlazeIt (exec only)", "217%"),
        ("Tahoma (sum)", "23%"),
    ]
    .into_iter()
    .enumerate()
    {
        t2.row(&[name.into(), format!("{:.1}%", avg[i]), paper.into()]);
    }
    t2.print();
    t2.write_csv("section82");
    gate.check(
        avg[0] < avg[1] && avg[0] < avg[2],
        format!(
            "§8.2(b): Smol has the lowest average error ({:.1} % vs {:.1} % vs {:.1} %)",
            avg[0], avg[1], avg[2]
        ),
    );
}

/// Table 8: throughput and cost with and without Smol's optimizations at
/// 4 / 8 / 16 vCPUs — or, on a host with fewer than four cores, one row at
/// the host's core count (Figure 10's rule). "Opt" is 161 spng thumbnails
/// with optimized preprocessing; "No opt" full-resolution images, standard
/// preprocessing, buffer reuse and pinned staging off. Shape: Opt costs
/// less per image at every vCPU count (paper: up to 5× less).
pub fn table8(gate: &mut Gate) {
    let spec = &still_catalog()[3];
    let n = if quick_mode() { 192 } else { 768 };
    let set = VariantSet::build(spec, n, 37);
    let instances = g4dn_family();
    let paper = [
        (4, 1927.0, 7.58, 377.0, 38.75),
        (8, 3756.0, 5.56, 634.0, 32.92),
        (16, 4548.0, 7.35, 1165.0, 28.68),
    ];
    let cores = cores();
    let mut rows: Vec<_> = paper
        .iter()
        .filter(|row| row.0 <= cores)
        .map(|row| (row.0, Some(row)))
        .collect();
    if rows.is_empty() {
        rows.push((cores, None));
    }
    let opt_plan = simple_plan(
        &default_planner(),
        ModelKind::ResNet50,
        set.input_variant(VariantKind::ThumbPng),
        32,
    );
    let no_plan = simple_plan(
        &naive_planner(),
        ModelKind::ResNet50,
        set.input_variant(VariantKind::FullRes),
        32,
    );
    let mut table = Table::new(
        "Table 8 — throughput and cost vs vCPUs (paper values in parens)",
        &[
            "Condition",
            "vCPUs",
            "Throughput (im/s)",
            "Cost (c/1M images)",
        ],
    );
    let mut savings = Vec::new();
    for (vcpus, p) in rows {
        // The smallest g4dn instance with at least this many vCPUs.
        let price = instances
            .iter()
            .find(|i| i.vcpus as usize >= vcpus)
            .expect("a g4dn instance this large")
            .price_per_hour;
        let opts = RuntimeOptions {
            producers: vcpus,
            ..Default::default()
        };
        let no_opts = RuntimeOptions {
            memory_reuse: false,
            pinned: false,
            ..opts
        };
        let run = |opts, plan, kind| {
            run_once(&t4_device(), opts, plan, wrap_images(set.items(kind))).throughput
        };
        let opt_tput = run(opts, &opt_plan, VariantKind::ThumbPng);
        let no_tput = run(no_opts, &no_plan, VariantKind::FullRes);
        let opt_cost = cents_per_million_images(opt_tput, price);
        let no_cost = cents_per_million_images(no_tput, price);
        savings.push(no_cost / opt_cost);
        let paren = |v: Option<f64>| v.map_or(String::new(), |v| format!(" ({v})"));
        table.row(&[
            "Opt".into(),
            vcpus.to_string(),
            format!("{}{}", fmt_tput(opt_tput), paren(p.map(|r| r.1))),
            format!("{opt_cost:.2}{}", paren(p.map(|r| r.2))),
        ]);
        table.row(&[
            "No opt".into(),
            vcpus.to_string(),
            format!("{}{}", fmt_tput(no_tput), paren(p.map(|r| r.3))),
            format!("{no_cost:.2}{}", paren(p.map(|r| r.4))),
        ]);
    }
    table.print();
    table.write_csv("table8");
    gate.check(
        savings.iter().all(|&s| s > 1.0),
        format!(
            "Table 8: Opt costs less per image than No opt at every vCPU count measured \
             ({} rows, up to {:.1}x; paper up to 5x)",
            savings.len(),
            savings.iter().cloned().fold(0.0, f64::max)
        ),
    );
}

/// The systems optimizations of §6.1–§6.3, in the order Figure 8 adds
/// them.
const OPTIMIZATIONS: [&str; 5] = ["threading", "mem reuse", "pinned", "DAG", "placement"];

/// Which of [`OPTIMIZATIONS`] a configuration turns on.
type Config = [bool; 5];

const BATCH: usize = 32;

/// The plan a configuration's planner makes for `kind`: DAG-optimized or
/// not, and — under placement — with as much of the elementwise tail on
/// the accelerator as the all-CPU profile `cpu_throughput` against the
/// planner's device calls for (§6.3; both panels are preprocessing-bound
/// on the T4 the planner costs, so the tail moves).
fn plan(cfg: Config, set: &VariantSet, kind: VariantKind, cpu_throughput: f64) -> QueryPlan {
    let planner = Planner::new(PlannerConfig {
        enable_dag_opt: cfg[3],
        enable_placement: cfg[4],
        batch: BATCH,
        ..PlannerConfig::default()
    });
    let mut plan = simple_plan(
        &planner,
        ModelKind::ResNet50,
        set.input_variant(kind),
        BATCH,
    );
    let config = &planner.config;
    let exec = throughput(ModelKind::ResNet50, config.device, config.env, BATCH);
    (plan.preproc, _) = planner.place(&plan.input, plan.preproc, plan.decode, cpu_throughput, exec);
    plan
}

/// Figures 7 and 8: lesion study and factor analysis of the systems
/// optimizations with ResNet-50 on full- and low-resolution imagenet-sim,
/// against a device that is never the bottleneck (§8.3). Figure 7 removes
/// one optimization from all-on and pairs it against all-on; Figure 8 adds
/// them in order from none and pairs each step against the one before it
/// (the shared estimator both times). Shape: removing threading costs
/// throughput and adding it gains throughput on both panels, and so does
/// the preprocessing DAG on full-resolution images. The other steps move
/// throughput by less than a paired run resolves on a small host; they are
/// printed, not asserted.
pub fn figures7_and_8(gate: &mut Gate) {
    let spec = &still_catalog()[3];
    let n = if quick_mode() { 192 } else { 768 };
    let set = VariantSet::build(spec, n, 21);
    let all_on: Config = [true; 5];
    let lesions: Vec<(String, Config)> = OPTIMIZATIONS
        .iter()
        .enumerate()
        .map(|(i, name)| (format!("-{name}"), std::array::from_fn(|j| j != i)))
        .collect();
    // None, then one more optimization per step up to all-on.
    let steps: Vec<(String, Config)> = (0..=OPTIMIZATIONS.len())
        .map(|i| {
            let name = i
                .checked_sub(1)
                .map_or("None".into(), |p| format!("+{}", OPTIMIZATIONS[p]));
            (name, std::array::from_fn(|j| j < i))
        })
        .collect();
    // §8.3: a device configured so DNN execution is never the bottleneck.
    let fast_exec = || {
        let spec = DeviceSpec {
            resnet50_batch64: 1e9,
            elementwise_ops_per_s: 1e14,
            ..GpuModel::T4.spec()
        };
        VirtualDevice::with_spec(spec, ExecutionEnv::TensorRt, 1.0)
    };
    for (panel, kind, tag) in [
        ("a) Full resolution", VariantKind::FullRes, "fullres"),
        (
            "b) Low resolution (161 spng)",
            VariantKind::ThumbPng,
            "lowres",
        ),
    ] {
        // The all-CPU profile every configuration's placement is judged
        // against.
        let (_, profiled) =
            set.plan_and_profile(&default_planner(), ModelKind::ResNet50, kind, VCPUS);
        // Wall seconds of one run under a configuration.
        let wall = |cfg: Config| {
            let runtime = RuntimeOptions {
                // "-threading" is one producer.
                producers: if cfg[0] { VCPUS } else { 1 },
                memory_reuse: cfg[1],
                pinned: cfg[2],
                ..Default::default()
            };
            let plan = plan(cfg, &set, kind, profiled);
            run_once(&fast_exec(), runtime, &plan, wrap_images(set.items(kind))).wall_s
        };
        // Lesions run in reverse, so -threading comes last: on a 2-vCPU VM
        // the first multi-threaded runs after the single-threaded corpus
        // build can run at one core's speed for a few seconds, and only the
        // single-threaded side of a pairing escapes that.
        let mut lesion_runs: Vec<(&str, Paired)> = lesions
            .iter()
            .rev()
            .map(|(name, cfg)| (name.as_str(), measure(|| wall(all_on), || wall(*cfg))))
            .collect();
        lesion_runs.reverse();
        let step_runs: Vec<(&str, Paired)> = steps
            .windows(2)
            .map(|w| (w[1].0.as_str(), measure(|| wall(w[0].1), || wall(w[1].1))))
            .collect();
        // Figure 7 opens with all-on, Figure 8 with None; every other row is
        // a pairing's second side.
        let baseline = |name: &str, p: &Paired| {
            [
                name.into(),
                fmt_tput(n as f64 / p.a),
                "-".into(),
                "-".into(),
            ]
        };
        for (figure, csv, vs, first, runs) in [
            (
                "Figure 7 (lesion study)",
                "figure7",
                "vs all-on (paired)",
                baseline("All", &lesion_runs[0].1),
                &lesion_runs,
            ),
            (
                "Figure 8 (factor analysis)",
                "figure8",
                "vs the step before (paired)",
                baseline("None", &step_runs[0].1),
                &step_runs,
            ),
        ] {
            let mut table = Table::new(
                format!("{figure} — systems optimizations, {panel}"),
                &["Config", "Throughput (im/s)", vs, "Spread"],
            );
            table.row(&first);
            for (name, p) in runs {
                table.row(&[
                    name.to_string(),
                    fmt_tput(n as f64 / p.b),
                    format!("{:.2}x", p.ratio),
                    format!("{:.0}%", p.spread * 100.0),
                ]);
            }
            table.print();
            table.write_csv(&format!("{csv}_{tag}"));
        }
        let asserted = |name: &str| {
            name.ends_with("threading") || (kind == VariantKind::FullRes && name.ends_with("DAG"))
        };
        let mut shape = |holds: bool, what: String, name: &str| {
            if asserted(name) {
                gate.check(holds, what);
            } else {
                gate.observe(holds, what);
            }
        };
        for (name, p) in &lesion_runs {
            let what = format!(
                "Figure 7 {tag}: {name} lowers throughput ({:.2}x of all-on)",
                p.ratio
            );
            shape(p.ratio < 1.0, what, name);
        }
        for (name, p) in &step_runs {
            let what = format!(
                "Figure 8 {tag}: {name} raises throughput ({:.2}x the step before)",
                p.ratio
            );
            shape(p.ratio > 1.0, what, name);
        }
    }
}

/// Figure 10 (Appendix A.1): SMOL, DALI and PyTorch personalities across
/// vCPU counts — (a) CPU preprocessing with the DAG optimizations off,
/// (b) optimized preprocessing, (c) end to end. At most four vCPU counts
/// the host has, or one point at its core count. Shape at the largest
/// count: SMOL ≥ DALI ≥ PyTorch, each within 10 %, judged on paired runs.
pub fn figure10(gate: &mut Gate) {
    let spec = &still_catalog()[3];
    let n = if quick_mode() { 192 } else { 512 };
    let set = VariantSet::build(spec, n, 29);
    let items = set.items(VariantKind::FullRes);
    let cores = cores();
    let mut sweep: Vec<usize> = [4usize, 8, 16, 32]
        .into_iter()
        .filter(|&v| v <= cores)
        .collect();
    if sweep.is_empty() {
        sweep.push(cores);
    }
    println!("\nFigure 10: host has {cores} cores; sweeping vCPUs {sweep:?} (paper: 4..64)");
    for (panel, optimized, end_to_end, csv) in [
        (
            "a) CPU preprocessing (opts off)",
            false,
            false,
            "cpu_preproc",
        ),
        ("b) optimized preprocessing", true, false, "opt_preproc"),
        ("c) end-to-end inference", true, true, "end_to_end"),
    ] {
        let planner = if optimized {
            default_planner()
        } else {
            naive_planner()
        };
        let plan = simple_plan(
            &planner,
            ModelKind::ResNet50,
            set.input_variant(VariantKind::FullRes),
            32,
        );
        // Seconds per image under one personality.
        let cost = |personality: Personality, vcpus: usize| {
            let opts = personality.options(vcpus);
            let tput = if end_to_end {
                let device = VirtualDevice::new(GpuModel::T4, personality.env(), 1.0);
                run_once(&device, opts, &plan, wrap_images(items)).throughput
            } else {
                measure_preproc_throughput(items, &plan, &opts)
            };
            1.0 / tput
        };
        let mut table = Table::new(
            format!("Figure 10 {panel} — throughput (im/s) by vCPUs"),
            &["vCPUs", "SMOL", "DALI", "PyTorch"],
        );
        let mut last = None;
        for &vcpus in &sweep {
            let smol_dali = measure(
                || cost(Personality::Dali, vcpus),
                || cost(Personality::Smol, vcpus),
            );
            let dali_pytorch = measure(
                || cost(Personality::PyTorch, vcpus),
                || cost(Personality::Dali, vcpus),
            );
            table.row(&[
                vcpus.to_string(),
                fmt_tput(1.0 / smol_dali.b),
                fmt_tput(1.0 / smol_dali.a),
                fmt_tput(1.0 / dali_pytorch.a),
            ]);
            last = Some((smol_dali.ratio, dali_pytorch.ratio));
        }
        table.print();
        table.write_csv(&format!("figure10_{csv}"));
        let (smol_dali, dali_pytorch) = last.expect("one sweep point at least");
        gate.check(
            smol_dali >= 0.9 && dali_pytorch >= 0.9,
            format!(
                "Figure 10 {panel}: SMOL ≥ DALI ≥ PyTorch within 10 % at max vCPUs \
                 (SMOL/DALI {smol_dali:.2}x, DALI/PyTorch {dali_pytorch:.2}x)"
            ),
        );
    }
}
