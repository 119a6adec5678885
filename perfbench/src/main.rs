//! The repo benchmark. One command runs one workload:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds 20 --trace <0|1> [--self-check]
//! ```
//!
//! It generates the inputs from the seed, measures for `--seconds` (the
//! `run_seconds` of `BENCHMARK.json` and no other value: there is no short
//! run), checks the outputs against single-threaded oracles, prints every
//! metric by name with its unit, and ends with one JSON line: `correct`,
//! `attempted`, `failed`, `metrics`. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` reports the per-layer metrics and writes
//! `perfbench/out/<workload>.trace.json`. See README.md.

use perfbench::harness::{run, Outcome, RunArgs, RUN_SECONDS};
use perfbench::workloads::mixed_tenants::MixedTenants;
use perfbench::workloads::stills::{FullresCold, Stills, ThumbsHot};
use perfbench::workloads::video_live::VideoLive;

const USAGE: &str =
    "usage: perfbench --workload <fullres_cold|thumbs_hot|mixed_tenants|video_live> \
--seed <n> --seconds 20 --trace <0|1> [--self-check]";

struct Cli {
    workload: String,
    run: RunArgs,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, false, None);
    let mut self_check = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload")?.clone()),
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                // The driver passes BENCHMARK.json's run_seconds; any other
                // length would be a quick mode, and there is none.
                let s = value("--seconds")?;
                if s.parse::<u64>() != Ok(RUN_SECONDS) {
                    return Err(format!(
                        "--seconds {s}: a run measures for {RUN_SECONDS} s and nothing else"
                    ));
                }
                seconds = true;
            }
            "--trace" => {
                trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--self-check" => self_check = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !seconds {
        return Err("--seconds is required".into());
    }
    Ok(Cli {
        workload: workload.ok_or("--workload is required")?,
        run: RunArgs {
            seed: seed.ok_or("--seed is required")?,
            trace: trace.ok_or("--trace is required")?,
            self_check,
        },
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&args).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let outcome: Outcome = match cli.workload.as_str() {
        "fullres_cold" => run::<Stills<FullresCold>>(&cli.run),
        "thumbs_hot" => run::<Stills<ThumbsHot>>(&cli.run),
        "mixed_tenants" => run::<MixedTenants>(&cli.run),
        "video_live" => run::<VideoLive>(&cli.run),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if cli.run.self_check {
        // The planted bad item must have been caught.
        let caught = !outcome.correct && outcome.failed > 0;
        println!(
            "self-check: the oracle {} the corrupted item",
            if caught { "caught" } else { "MISSED" }
        );
        println!("{}", outcome.result_line());
        std::process::exit(if caught { 0 } else { 1 });
    }
    println!("{}", outcome.result_line());
    // A wrong answer is still a result the driver must see: exit 0.
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let cli = parse_cli(&argv(&format!(
            "--workload thumbs_hot --seed 7 --seconds {RUN_SECONDS} --trace 1"
        )))
        .unwrap();
        assert_eq!(cli.workload, "thumbs_hot");
        assert_eq!(cli.run.seed, 7);
        assert!(cli.run.trace && !cli.run.self_check);
    }

    #[test]
    fn malformed_command_lines_are_rejected() {
        for bad in [
            "--seed 1 --seconds S --trace 0",
            "--workload a --seed x --seconds S --trace 0",
            "--workload a --seed 1 --seconds 1 --trace 0",
            "--workload a --seed 1 --trace 0",
            "--workload a --seed 1 --seconds S --trace 2",
            "--workload a --seed 1 --seconds S --trace 0 --quick",
            "--workload a --seed 1 --seconds S --trace",
        ] {
            let bad = bad.replace('S', &RUN_SECONDS.to_string());
            assert!(parse_cli(&argv(&bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn benchmark_json_asks_for_the_run_length_the_harness_measures() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = perfbench::json::parse(&text).expect("BENCHMARK.json is valid JSON");
        let asked = doc
            .get("run_seconds")
            .and_then(perfbench::json::Value::as_f64);
        assert_eq!(asked, Some(RUN_SECONDS as f64));
    }
}
