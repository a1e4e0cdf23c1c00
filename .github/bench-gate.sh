#!/usr/bin/env bash
# The benchmark regression gate: runs the four workloads of
# BENCHMARK.json with `bvq-benchmark` on BASE_REV and on the working
# tree, then judges the working tree against the base with
# `bvq-benchmark compare` under BENCHMARK.json's end-to-end bounds.
#
#   .github/bench-gate.sh BASE_REV [WORK_DIR]
#
# BASE_REV is exported with `git archive` into WORK_DIR/base (WORK_DIR
# defaults to .bench-gate) and its benchmark builds into
# WORK_DIR/base-target; the working tree's benchmark builds into
# bvq-benchmark/target. Each workload runs in 3 pairs of 10-second
# runs, all with the benchmark's default seed: a workload's latencies
# depend on its seed, and `compare` reads the spread of each side's
# runs as noise. The side that runs first alternates from pair to
# pair, so a slow phase of the host falls on both sides. Every run is
# appended to WORK_DIR/base.jsonl or WORK_DIR/head.jsonl; the verdict
# table goes to WORK_DIR/compare.txt.
#
# Before any run, `compare` is checked on the committed records in
# .github/bench-gate/: a x2 slowdown of lat_* must exit 1, and identical
# inputs must exit 0.
#
# Exit status: 0 when no end-to-end metric regressed beyond its bound,
# 1 when one did, 2 when the gate could not be carried out (a failed
# build, a run that failed its checks, or a failed self-test).
set -euo pipefail

PAIRS=3
RUN_SECONDS=10
SEED=45235
WORKLOADS=(warm_mix cold_eval write_mix replica_fanout)

die() {
    echo "bench-gate: $*" >&2
    exit 2
}

[ $# -ge 1 ] || die "usage: .github/bench-gate.sh BASE_REV [WORK_DIR]"
cd "$(git rev-parse --show-toplevel)"
base_sha=$(git rev-parse --verify --quiet "$1^{commit}") || die "unknown revision $1"
mkdir -p "${2:-.bench-gate}"
work=$(cd "${2:-.bench-gate}" && pwd)
rm -f "$work/base.jsonl" "$work/head.jsonl" "$work/compare.txt"
head_bin=bvq-benchmark/target/release/bvq-benchmark
base_bin=$work/base-target/release/bvq-benchmark
fixtures=.github/bench-gate

echo "bench-gate: building the working tree's benchmark"
cargo build --release --offline --manifest-path bvq-benchmark/Cargo.toml ||
    die "the working tree's benchmark does not build"

status=0
"$head_bin" compare "$fixtures/base.jsonl" "$fixtures/head.jsonl" --bench BENCHMARK.json \
    >/dev/null || status=$?
[ "$status" -eq 1 ] || die "self-test: compare exited $status on a x2 lat_* slowdown, not 1"
"$head_bin" compare "$fixtures/base.jsonl" "$fixtures/base.jsonl" --bench BENCHMARK.json \
    >/dev/null || die "self-test: compare did not pass identical inputs"

echo "bench-gate: building the benchmark of $base_sha"
rm -rf "$work/base"
mkdir -p "$work/base"
# -m stamps the files with the current time, so a cached base-target
# never passes for a build of different sources.
git archive "$base_sha" | tar -x -m -C "$work/base"
[ -f "$work/base/bvq-benchmark/Cargo.toml" ] || die "$base_sha has no bvq-benchmark"
CARGO_TARGET_DIR=$work/base-target cargo build --release --offline \
    --manifest-path "$work/base/bvq-benchmark/Cargo.toml" ||
    die "the benchmark of $base_sha does not build"

run() { # side binary workload
    echo "bench-gate: $1 $3"
    "$2" --workload "$3" --seed "$SEED" --seconds "$RUN_SECONDS" --out "$work/$1.jsonl" \
        >"$work/run.log" || {
        cat "$work/run.log"
        die "the $1 run of $3 failed"
    }
    tail -n 1 "$work/run.log"
}
turn=0
for workload in "${WORKLOADS[@]}"; do
    for ((pair = 0; pair < PAIRS; pair++)); do
        if ((turn % 2 == 0)); then
            run base "$base_bin" "$workload"
            run head "$head_bin" "$workload"
        else
            run head "$head_bin" "$workload"
            run base "$base_bin" "$workload"
        fi
        turn=$((turn + 1))
    done
done

status=0
"$head_bin" compare "$work/base.jsonl" "$work/head.jsonl" --bench BENCHMARK.json |
    tee "$work/compare.txt" || status=$?
exit "$status"
