//! Turns the logs of an A/A session (`aa.sh`) into `AA.md`: for each
//! workload and end-to-end metric, both sets' median and quartiles, each
//! set's interquartile range as a share of its median, how far the second
//! median is from the first, and pass/fail against the metric's bound; then,
//! for the seed that was run three times, whether the exact counts and the
//! plan labels repeated.
//!
//! ```text
//! aa_report <BENCHMARK.json> <dir with A.<workload>.jsonl, B.<workload>.jsonl, X.<workload>.{0,1,2}.log>
//! ```

use perfbench::json::{parse, Value};
use perfbench::stats::{median, quartiles};
use std::path::Path;

struct Metric {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

fn text(v: &Value, key: &str) -> String {
    match v.get(key) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("BENCHMARK.json: field {key:?} is {other:?}"),
    }
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Arr(items)) => items,
        other => panic!("BENCHMARK.json: field {key:?} is {other:?}"),
    }
}

/// The values of `metric` in every result line of `file`, and whether every
/// run was correct with nothing failed.
fn read_set(file: &Path, metric: &str) -> (Vec<f64>, bool) {
    let body =
        std::fs::read_to_string(file).unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
    let mut clean = true;
    let values = body
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let run = parse(line).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
            clean &= run.get("correct").and_then(Value::as_bool) == Some(true)
                && run.get("failed").and_then(Value::as_f64) == Some(0.0);
            run.get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("{}: no metric {metric}", file.display()))
        })
        .collect();
    (values, clean)
}

/// Per-layer metrics that are counts of work, or shares of counts, fixed by
/// the seed: identical runs must report identical values.
const EXACT: &[&str] = &[
    "codec.symbols_per_item",
    "codec.idct_macs_per_item",
    "codec.pixels_per_item",
    "codec.encoded_bytes_per_item",
    "video.mc_blocks_per_gop",
    "video.frames_decoded",
    "serve.escalated_share",
];
/// Exact on the workload whose whole working set is cache-resident.
const EXACT_ON: &[(&str, &str)] = &[("thumbs_hot", "runtime.cache_hit_share")];

/// The `plan ...` lines of a run's log and its result line.
fn plans_and_result(file: &Path) -> (Vec<String>, Value) {
    let body =
        std::fs::read_to_string(file).unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
    let plans = body
        .lines()
        .filter(|l| l.starts_with("plan "))
        .map(String::from)
        .collect();
    let last = body.lines().last().expect("a result line");
    (
        plans,
        parse(last).unwrap_or_else(|e| panic!("{}: {e}", file.display())),
    )
}

/// Checks the three runs of one seed (`X.<workload>.0.log` untraced, `.1`
/// and `.2` traced) and prints one table row per workload. Returns failures.
fn report_exactness(dir: &Path, workloads: &[String]) -> usize {
    println!();
    println!("## One seed, three runs: exact counts and plan labels");
    println!();
    println!("| workload | plan labels | counts compared | verdict |");
    println!("|---|---|---|---|");
    let mut failures = 0;
    for workload in workloads {
        let runs: Vec<(Vec<String>, Value)> = (0..3)
            .map(|i| plans_and_result(&dir.join(format!("X.{workload}.{i}.log"))))
            .collect();
        let plans_same = !runs[0].0.is_empty() && runs.iter().all(|r| r.0 == runs[0].0);
        let exact = |run: &Value, name: &str| {
            run.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("X.{workload}: no metric {name}"))
        };
        let names: Vec<&str> = EXACT
            .iter()
            .copied()
            .chain(
                EXACT_ON
                    .iter()
                    .filter(|(w, _)| w == workload)
                    .map(|(_, n)| *n),
            )
            .collect();
        let differing: Vec<&str> = names
            .iter()
            .copied()
            .filter(|n| exact(&runs[1].1, n).to_bits() != exact(&runs[2].1, n).to_bits())
            .collect();
        let ok = plans_same && differing.is_empty();
        failures += !ok as usize;
        println!(
            "| {workload} | {} | {}{} | {} |",
            runs[0]
                .0
                .iter()
                .map(|p| format!("`{}`", p[5..].replace('|', "\\|")))
                .collect::<Vec<_>>()
                .join("<br>"),
            names.len(),
            if differing.is_empty() {
                String::new()
            } else {
                format!(", differing: {}", differing.join(", "))
            },
            if ok { "pass" } else { "**FAIL**" }
        );
    }
    failures
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [benchmark, dir] = args.as_slice() else {
        eprintln!("usage: aa_report <BENCHMARK.json> <results dir | --plan>");
        std::process::exit(2);
    };
    let doc = parse(&std::fs::read_to_string(benchmark).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json is valid JSON");
    if dir == "--plan" {
        // For aa.sh: the run length, then the workload names.
        let seconds = doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .expect("run_seconds");
        let names: Vec<String> = list(&doc, "workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        println!("{seconds} {}", names.join(" "));
        return;
    }
    let metrics: Vec<Metric> = list(&doc, "end_to_end")
        .iter()
        .map(|m| Metric {
            name: text(m, "name"),
            unit: text(m, "unit"),
            higher_is_better: text(m, "better") == "higher",
            bound: m.get("bound").and_then(Value::as_f64).expect("bound"),
        })
        .collect();
    let workloads: Vec<String> = list(&doc, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();

    println!("# A/A: two interleaved sets of runs of the same code");
    println!();
    println!(
        "Written by `perfbench/aa.sh`. Spread is the distance between the first and third \
         quartile (`statistics.quantiles(values, n=4)`) as a share of the median. A row passes \
         when each set's spread is within the metric's bound, the second set's median is not \
         worse than the first's by more than the bound, and every run was correct with nothing \
         failed."
    );
    let mut failures = 0;
    for workload in &workloads {
        println!();
        println!("## {workload}");
        println!();
        println!("| metric | unit | bound | A median [q1, q3] | A spread | B median [q1, q3] | B spread | B worse by | verdict |");
        println!("|---|---|---|---|---|---|---|---|---|");
        for m in &metrics {
            let (a, a_clean) =
                read_set(&Path::new(dir).join(format!("A.{workload}.jsonl")), &m.name);
            let (b, b_clean) =
                read_set(&Path::new(dir).join(format!("B.{workload}.jsonl")), &m.name);
            let describe = |v: &[f64]| {
                let q = quartiles(v);
                (median(v), q, (q[2] - q[0]) / median(v))
            };
            let ((ma, qa, sa), (mb, qb, sb)) = (describe(&a), describe(&b));
            let worse = if m.higher_is_better {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let ok = sa <= m.bound && sb <= m.bound && worse <= m.bound && a_clean && b_clean;
            failures += !ok as usize;
            println!(
                "| `{}` | {} | {:.2} | {:.4} [{:.4}, {:.4}] | {:.1} % | {:.4} [{:.4}, {:.4}] | {:.1} % | {:+.1} % | {} |",
                m.name, m.unit, m.bound, ma, qa[0], qa[2], sa * 100.0, mb, qb[0], qb[2],
                sb * 100.0, worse * 100.0,
                if ok { "pass" } else { "**FAIL**" }
            );
        }
    }
    failures += report_exactness(Path::new(dir), &workloads);
    println!();
    println!(
        "{}",
        if failures == 0 {
            "All rows pass.".to_string()
        } else {
            format!("**{failures} row(s) fail.**")
        }
    );
    std::process::exit((failures > 0) as i32);
}
