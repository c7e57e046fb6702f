#!/usr/bin/env bash
# The full local CI gate. Offline-friendly: every dependency is vendored
# in-tree (see vendor/), so no network or registry access is needed.
#
# Usage: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q =="
cargo test -q

echo "== cargo test -q --workspace =="
cargo test -q --workspace

echo "== cargo bench --no-run =="
cargo bench --no-run

echo "== fig2_inverter + lut_comparison (single-resource aging shape checks) =="
# The inverter and the LUT-SRAM cell each age in a one-slot AgingArena;
# both bins exit non-zero when a paper shape check fails.
cargo run --release -q -p bench --bin fig2_inverter
cargo run --release -q -p bench --bin lut_comparison

echo "== ablations + ro_baseline (shape checks) =="
# Both bins exit non-zero when a shape check fails; neither writes an
# artifact.
cargo run --release -q -p bench --bin ablations
cargo run --release -q -p bench --bin ro_baseline

echo "== fig3_traces (raw capture words, byte identity) =="
# The one bin that prints raw capture words (through
# TdcSensor::capture_sample): it exits non-zero when a shape check fails,
# and its stdout must match the checked-in copy, so a capture change that
# moves a single bit of a word fails here.
cargo run --release -q -p bench --bin fig3_traces > /tmp/ci_fig3_traces.txt
cmp results/fig3_traces.txt /tmp/ci_fig3_traces.txt \
    || { echo "FAIL: fig3_traces stdout differs from results/fig3_traces.txt"; exit 1; }

echo "== perfbench self-test + pinned passes (benchmark workloads, bit identity) =="
# perfbench is a workspace of its own. The self-test checks that the
# outcome digest and every work counter repeat at pool widths 2, 2 and 1;
# one traced pass per workload and pinned seed (0-10, perfbench/src/pins.rs)
# must reproduce its pinned digest, so a capture change that moves a bit
# on the benchmark's own workloads fails here.
cargo run --release -q --offline --manifest-path perfbench/Cargo.toml -- --self-test
for seed in $(seq 0 10); do
    for workload in attack_tdc campaign_hostile; do
        line=$(cargo run --release -q --offline --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds 0 --trace 1 | tail -n 1)
        case "$line" in
            *'"correct":true'*) ;;
            *) echo "FAIL: perfbench $workload seed $seed: $line"; exit 1 ;;
        esac
    done
done

echo "== fig6 + fig7 + fig8 + repeatability (paper figures, byte identity) =="
# fig6 pins the lab burn-in/recovery experiment end to end; its stdout
# must also match the checked-in copy, which pins the smoothed
# recovery-crossing check (the smoother's only consumer). The other
# bins reach the attack protocol only through threat_model1::run /
# threat_model2::run, so their checked-in CSVs pin those entry points
# end to end: any bit they move must fail here.
cargo run --release -q -p bench --bin fig6 > /tmp/ci_fig6.txt
cmp results/fig6.txt /tmp/ci_fig6.txt \
    || { echo "FAIL: fig6 stdout differs from results/fig6.txt"; exit 1; }
cargo run --release -q -p bench --bin fig7
cargo run --release -q -p bench --bin fig8
cargo run --release -q -p bench --bin repeatability
git diff --exit-code -- results/fig6.csv results/fig7.csv results/fig8.csv results/repeatability.csv \
    || { echo "FAIL: fig6/fig7/fig8/repeatability CSVs differ from the checked-in copies"; exit 1; }

echo "== table1 + covert_channel + mitigations + fault_tolerance (byte identity) =="
# Each bin exits non-zero when a shape check fails, and its checked-in
# artifacts must reproduce byte for byte.
cargo run --release -q -p bench --bin table1
cargo run --release -q -p bench --bin covert_channel
cargo run --release -q -p bench --bin mitigations
cargo run --release -q -p bench --bin fault_tolerance
git diff --exit-code -- results/table1.csv results/covert_channel.csv \
    results/mitigations.csv results/fault_tolerance.csv results/fault_tolerance.json \
    || { echo "FAIL: table1/covert_channel/mitigations/fault_tolerance artifacts differ from the checked-in copies"; exit 1; }

echo "== attack_accuracy trace smoke (observability artifacts + overhead) =="
# The traced smoke run must produce a parseable JSONL trace and metrics
# JSON, leave the CSV artifact byte-identical to the untraced run, and
# (on real hardware) stay within the < 5 % instrumentation overhead
# budget. The binary is built first and timed directly, so the gate
# measures tracing and not a cargo rebuild. One pair of ~55 ms runs reads
# anywhere from -18 % to +13 %, so the gate times 5 alternating
# untraced/traced pairs and takes the median per-pair overhead.
# Wall-clock timing is too noisy to gate on hosts with < 4 hardware
# threads, so there the overhead is printed but not enforced.
cargo build --release -q -p bench --bin attack_accuracy
attack_accuracy="${CARGO_TARGET_DIR:-target}/release/attack_accuracy"
"$attack_accuracy" --smoke
# The checked-in CSV is the smoke output: a sensing change that moves
# any bit of it must fail here, not only traced-vs-untraced below.
git diff --exit-code -- results/attack_accuracy.csv \
    || { echo "FAIL: attack_accuracy.csv differs from the checked-in copy"; exit 1; }
cp results/attack_accuracy.csv /tmp/ci_untraced_attack_accuracy.csv
"$attack_accuracy" --smoke \
    --trace /tmp/ci_trace.jsonl --metrics /tmp/ci_metrics.json
cmp results/attack_accuracy.csv /tmp/ci_untraced_attack_accuracy.csv \
    || { echo "FAIL: tracing changed attack_accuracy.csv"; exit 1; }
test -s /tmp/ci_trace.jsonl || { echo "FAIL: empty trace"; exit 1; }
# Strict in-tree validation: obs_report parses every line with the typed
# obs-analyze parser (exact 5-key schema, canonical event order) and
# cross-checks the metrics snapshot against the trace.
cargo run --release -q -p bench --bin obs_report -- \
    validate /tmp/ci_trace.jsonl /tmp/ci_metrics.json
overheads=""
for pair in 1 2 3 4 5; do
    t0=$(date +%s%N)
    "$attack_accuracy" --smoke >/dev/null
    t1=$(date +%s%N)
    "$attack_accuracy" --smoke --trace /tmp/ci_overhead_trace.jsonl \
        --metrics /tmp/ci_overhead_metrics.json >/dev/null
    t2=$(date +%s%N)
    overheads="$overheads $(awk "BEGIN{print (($t2-$t1)-($t1-$t0))/($t1-$t0)*100}")"
done
overhead=$(printf '%s\n' $overheads | sort -g | sed -n 3p)
echo "overhead per pair (%):${overheads}; median ${overhead}%"
hw_threads=$(nproc 2>/dev/null || echo 1)
if [ "$hw_threads" -ge 4 ]; then
    awk "BEGIN{exit !($overhead < 5.0)}" \
        || { echo "FAIL: instrumentation overhead ${overhead}% >= 5%"; exit 1; }
else
    echo "(${hw_threads} hardware thread(s): overhead gate informational)"
fi

echo "== indicators across pool widths (attack_accuracy at widths 1/2/4) =="
# The indicator report is a pure function of the (width-invariant)
# trace, so every width's report must equal width 1's in both
# renderings. Each width's fresh CSV must also equal the checked-in one:
# sweep cells are width-invariant.
for t in 1 2 4; do
    cargo run --release -q -p bench --bin attack_accuracy -- --smoke \
        --threads "$t" --trace "/tmp/ci_width_$t.jsonl"
    git diff --exit-code -- results/attack_accuracy.csv \
        || { echo "FAIL: attack_accuracy.csv changed at $t threads"; exit 1; }
    for fmt in json md; do
        cargo run --release -q -p bench --bin obs_report -- \
            indicators "/tmp/ci_width_$t.jsonl" "--$fmt" \
            > "/tmp/ci_ind_$t.$fmt"
        cmp "/tmp/ci_ind_1.$fmt" "/tmp/ci_ind_$t.$fmt" \
            || { echo "FAIL: indicators differ between widths 1 and $t (--$fmt)"; exit 1; }
    done
done

echo "== chaos_suite smoke (crash-safe fleet supervision) =="
# Sweeps the smoke chaos matrix — scheduled kills, torn envelopes, the
# kill-9 torn-store cell, a doomed campaign — asserting every supervised
# campaign completes bit-identically to its unsupervised reference or
# fails typed + quarantined, deterministically across pool widths. The
# combined supervisor + campaign trace must validate through the strict
# obs-analyze parser (fleet events ride the tick axis, content-sorted).
# A second fresh run at --threads 1 must reproduce BENCH_chaos.json
# byte-identically, and both must equal the checked-in copy.
rm -rf /tmp/ci_chaos_flight
cargo run --release -q -p bench --bin chaos_suite -- --smoke \
    --flight-dir /tmp/ci_chaos_flight \
    --trace /tmp/ci_chaos_trace.jsonl --metrics /tmp/ci_chaos_metrics.json
cargo run --release -q -p bench --bin obs_report -- \
    validate /tmp/ci_chaos_trace.jsonl /tmp/ci_chaos_metrics.json
# Every quarantined campaign sealed a flight-recorder dump: the binary
# gates the per-campaign coverage mapping (flight_covered) and folds
# dump digests into the width/replay determinism digest; CI re-checks
# that the artifacts actually landed on disk and that each one is a
# valid canonical trace in its own right.
flight_dumps=$(find /tmp/ci_chaos_flight -name '*.jsonl' | sort)
test -n "$flight_dumps" \
    || { echo "FAIL: no flight dumps sealed (doomed cell quarantines)"; exit 1; }
for dump in $flight_dumps; do
    cargo run --release -q -p bench --bin obs_report -- validate "$dump" \
        || { echo "FAIL: flight dump $dump does not validate"; exit 1; }
done
cp results/BENCH_chaos.json /tmp/ci_first_BENCH_chaos.json
cargo run --release -q -p bench --bin chaos_suite -- --smoke --threads 1
cmp results/BENCH_chaos.json /tmp/ci_first_BENCH_chaos.json \
    || { echo "FAIL: --threads 1 rerun changed BENCH_chaos.json"; exit 1; }
# BENCH_chaos.json holds only verdicts and counts (no timings, no host
# facts), so it must also match the checked-in copy byte for byte.
git diff --exit-code -- results/BENCH_chaos.json \
    || { echo "FAIL: BENCH_chaos.json differs from the checked-in copy"; exit 1; }

echo "== fleet_scaling smoke (serial fleet tick, pool widths 1 and 2) =="
# Drives the full 64-campaign fleet through the serial supervisor tick
# at pool widths 1 and 2. Exits non-zero if any width's outcomes,
# trace, or quarantine ledger diverge from the width-1
# reference. The drained telemetry must
# validate through the strict obs-analyze parser (scheduler_tick /
# commit_batch events ride the tick axis, content-sorted).
cargo run --release -q -p bench --bin fleet_scaling -- --smoke --threads 2 \
    --trace /tmp/ci_fleet_trace.jsonl --metrics /tmp/ci_fleet_metrics.json
cargo run --release -q -p bench --bin obs_report -- \
    validate /tmp/ci_fleet_trace.jsonl /tmp/ci_fleet_metrics.json

echo "== cargo clippy --workspace --all-targets -- -D warnings (+ perfbench) =="
# Every target is linted: libs and bins, but also tests, examples and
# benches. perfbench is a workspace of its own, so it gets its own pass.
if command -v cargo-clippy >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D warnings \
        -W clippy::redundant_clone -W clippy::needless_collect
    cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings
else
    echo "clippy not installed; skipping (install with: rustup component add clippy)"
fi

echo "== cargo doc (warning-clean) =="
# Broken or private intra-doc links are errors, not noise.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo fmt --check (+ perfbench) =="
if command -v cargo-fmt >/dev/null 2>&1; then
    cargo fmt --check
    cargo fmt --manifest-path perfbench/Cargo.toml --check
else
    echo "rustfmt not installed; skipping (install with: rustup component add rustfmt)"
fi

echo "CI gate passed."
