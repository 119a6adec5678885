#!/usr/bin/env bash
# A/A check: builds once, then runs two interleaved sets (A, B) of 10 runs
# per workload of the *same* code, each run on a seed of its own that was not
# used during development, then two traced runs per workload on one of those
# seeds, and writes perfbench/AA.md: per-set median, quartiles and pass/fail
# against each end-to-end metric's bound, and whether the exact counts and
# plan labels repeated for the repeated seed. Exit code 1 if anything fails.
#
# 88 runs, about 45 minutes. Ten runs per set is what the acceptance rule of
# the benchmark is computed on; neither it nor the seeds are adjustable.
set -euo pipefail
cd "$(dirname "$0")/.."

runs=10
seed=7300
target=${CARGO_TARGET_DIR:-perfbench/target}
cargo build --release --offline --manifest-path perfbench/Cargo.toml
bench="$target/release/perfbench"

read -r seconds workloads < <("$target/release/aa_report" BENCHMARK.json --plan)
out=perfbench/out/aa
rm -rf "$out"
mkdir -p "$out"

for i in $(seq "$runs"); do
    for w in $workloads; do
        for set in A B; do
            seed=$((seed + 1))
            echo "run $i/$runs set $set $w seed $seed" >&2
            "$bench" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
                > "$out/$set.$w.$seed.log"
            tail -n 1 "$out/$set.$w.$seed.log" >> "$out/$set.$w.jsonl"
        done
    done
done

# One seed again, traced twice: counts and plan labels must repeat exactly.
# 7301 + 2k is the seed of workload k's first run in set A.
seed=7301
for w in $workloads; do
    cp "$out/A.$w.$seed.log" "$out/X.$w.0.log"
    for i in 1 2; do
        echo "traced run $i/2 $w seed $seed" >&2
        "$bench" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 \
            > "$out/X.$w.$i.log"
    done
    seed=$((seed + 2))
done

"$target/release/aa_report" BENCHMARK.json "$out" > perfbench/AA.md && status=0 || status=$?
cat perfbench/AA.md
exit "$status"
