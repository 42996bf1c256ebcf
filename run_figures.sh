#!/bin/bash
# Regenerates every table and figure. Characterization runs that are not
# sweep grids (Table 1, the cost model, the single-app Figures 3 and 5,
# and the ablation/parallel extensions) keep their dedicated binaries;
# every mix-grid experiment (Figures 6-12, the screened capacity sweep)
# runs through the campaign engine from the committed specs under
# specs/, one JSONL manifest per spec in results/campaign/. The fig6-fig12 binaries then render
# results/fig6.txt-fig12.txt from those manifests without simulating.
#
# Every binary reads its settings from its command line only; this
# script turns the variables below into flags. A binary given a flag it
# does not take, or a malformed value, exits 2 before simulating.
#
# JOBS controls the worker-thread count (default: all cores). Manifests
# and figure outputs are bit-identical for any JOBS value.
#
# TIME_SAMPLE (optional, "detail:gap" cycle counts, e.g. 10000:40000)
# turns on time-sampled simulation everywhere: simulating binaries and
# campaigns get --time-sample $TIME_SAMPLE (perf uses it for its
# time-sampled accuracy pass), alternating detailed windows with
# functionally warmed gaps (DESIGN.md §8). IPC becomes a SMARTS
# estimate with confidence bounds — leave it unset for publication
# runs. A zero gap (e.g. TIME_SAMPLE=10000:0) is bit-identical to
# unset.
#
# TRACE and METRICS_OUT (both optional) turn on telemetry for the
# characterization binaries (--trace / --metrics-out): set them to the
# literal string "results" to write results/<bin>.trace.jsonl /
# results/<bin>.metrics.json, to any other prefix P to write
# P.<bin>.jsonl / P.<bin>.json, or leave them empty to run untraced.
# (Campaign runs emit manifests, not event traces; perf records none.)
#
# Last, perf scores time sampling against the exact run on its
# fixed matrix and writes that accuracy report to results/perf.json.
# It is not a speed benchmark: the repository's speed harness is
# nucabench (BENCHMARK.json).
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p results results/campaign
JOBS="${JOBS:-$(nproc)}"
TRACE="${TRACE:-}"
METRICS_OUT="${METRICS_OUT:-}"
TIME_SAMPLE="${TIME_SAMPLE:-}"
sample=()
if [ -n "$TIME_SAMPLE" ]; then
    sample+=(--time-sample "$TIME_SAMPLE")
    echo "time sampling on: $TIME_SAMPLE detailed:functional cycle schedule"
fi

echo "running characterization binaries with --jobs $JOBS"
for bin in table1 cost_model fig3 fig5 shadow_sampling ablations parallel; do
    echo "=== $bin ==="
    tele=()
    if [ "$TRACE" = "results" ]; then
        tele+=(--trace "results/$bin.trace.jsonl")
    elif [ -n "$TRACE" ]; then
        tele+=(--trace "$TRACE.$bin.jsonl")
    fi
    if [ "$METRICS_OUT" = "results" ]; then
        tele+=(--metrics-out "results/$bin.metrics.json")
    elif [ -n "$METRICS_OUT" ]; then
        tele+=(--metrics-out "$METRICS_OUT.$bin.json")
    fi
    # Table 1 and the cost model simulate nothing: telemetry flags only.
    policy=()
    case "$bin" in
        table1 | cost_model) ;;
        *) policy+=(--jobs "$JOBS" ${sample[@]+"${sample[@]}"}) ;;
    esac
    cargo run --quiet --release -p nuca-bench --bin "$bin" -- \
        ${policy[@]+"${policy[@]}"} \
        ${tele[@]+"${tele[@]}"} > "results/$bin.txt" 2>&1
    echo "done: results/$bin.txt"
done

echo "running campaigns with --jobs $JOBS"
for spec in specs/paper.toml specs/fig8.toml specs/fig9.toml \
            specs/fig10.toml specs/sweep.toml; do
    name="$(basename "$spec" .toml)"
    echo "=== campaign $name ==="
    rm -f "results/campaign/$name.jsonl"
    cargo run --quiet --release --bin nuca-sim -- campaign "$spec" \
        --jobs "$JOBS" ${sample[@]+"${sample[@]}"} \
        --out "results/campaign/$name.jsonl" \
        > "results/campaign/$name.log" 2>&1
    echo "done: results/campaign/$name.jsonl"
done

echo "rendering Figures 6-12 from the campaign manifests"
m=results/campaign
render() {
    bin=$1
    shift
    cargo run --quiet --release -p nuca-bench --bin "$bin" -- "$@" \
        > "results/$bin.txt"
    echo "done: results/$bin.txt"
}
render fig6 "$m/paper.jsonl"
render fig7 "$m/paper.jsonl"
render fig8 "$m/fig8.jsonl"
render fig9 "$m/fig9.jsonl"
render fig10 "$m/paper.jsonl" "$m/fig10.jsonl"
render fig11 "$m/paper.jsonl"
render fig12 "$m/fig8.jsonl"

echo "=== perf ==="
cargo run --quiet --release -p nuca-bench --bin perf -- \
    ${sample[@]+"${sample[@]}"} --out results/perf.json \
    > /dev/null 2> results/perf.txt
echo "done: results/perf.json (summary: results/perf.txt)"
