#!/usr/bin/env bash
# maskbench front door. Builds the benchmark (release, offline) and then:
#
#   benchmark/run.sh                       every workload, untraced then traced;
#                                          prints every metric, writes target/maskbench/
#   benchmark/run.sh --workload W ...      one run, as the benchmark driver calls it
#                                          (--seed N --seconds S --trace 0|1)
#   benchmark/run.sh repeat                every workload twice untraced, then compare
#   benchmark/run.sh compare A B [--allow-drift]
#   benchmark/run.sh check                 fmt, clippy, unit tests, selftest
#
# The modes that start runs themselves leave seed and seconds at maskbench's
# defaults (2018, and BENCHMARK.json's run_seconds), so that their result
# files stay comparable.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
target_dir="${CARGO_TARGET_DIR:-benchmark/target}"
bin="$target_dir/release/maskbench"
out=target/maskbench
workloads=(serial_2hmr serial_0hmr headline_sweep maskd_mix)

build() {
    CARGO_TARGET_DIR="$target_dir" cargo build --release --offline --quiet --manifest-path "$manifest"
}

# run_set <out-dir> <trace>: one run of every workload; all but the summary
# line the driver reads goes to the terminal.
run_set() {
    mkdir -p "$1"
    for w in "${workloads[@]}"; do
        "$bin" run --workload "$w" --trace "$2" --out "$1" | sed '$d'
    done
}

case "${1:-all}" in
    --*)
        build
        exec "$bin" run "$@"
        ;;
    all)
        build
        run_set "$out" 0
        run_set "$out" 1
        echo "result files and span traces: $out/"
        ;;
    repeat)
        build
        run_set "$out/repeat-a" 0 >/dev/null
        run_set "$out/repeat-b" 0 >/dev/null
        "$bin" compare "$out/repeat-a" "$out/repeat-b"
        ;;
    compare)
        build
        shift
        "$bin" compare "$@"
        ;;
    check)
        cargo fmt --manifest-path "$manifest" --check
        CARGO_TARGET_DIR="$target_dir" cargo clippy --offline --quiet --manifest-path "$manifest" --all-targets -- -D warnings
        CARGO_TARGET_DIR="$target_dir" cargo test --offline --quiet --manifest-path "$manifest"
        build
        "$bin" selftest
        ;;
    *)
        sed -n '2,14p' "$0"
        exit 2
        ;;
esac
