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
# one traced pass per workload must reproduce its pinned seed-1 digest,
# so a capture change that moves a bit on the benchmark's own workloads
# fails here.
cargo run --release -q --offline --manifest-path perfbench/Cargo.toml -- --self-test
for workload in attack_tdc campaign_hostile; do
    line=$(cargo run --release -q --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 0 --trace 1 | tail -n 1)
    case "$line" in
        *'"correct":true'*) ;;
        *) echo "FAIL: perfbench $workload seed 1: $line"; exit 1 ;;
    esac
done

echo "== fig6 + fig7 + fig8 + repeatability (paper figures, byte identity) =="
# fig6 pins the lab burn-in/recovery experiment end to end. The other
# bins reach the attack protocol only through threat_model1::run /
# threat_model2::run, so their checked-in CSVs pin those entry points
# end to end: any bit they move must fail here.
cargo run --release -q -p bench --bin fig6
cargo run --release -q -p bench --bin fig7
cargo run --release -q -p bench --bin fig8
cargo run --release -q -p bench --bin repeatability
git diff --exit-code -- results/fig6.csv results/fig7.csv results/fig8.csv results/repeatability.csv \
    || { echo "FAIL: fig6/fig7/fig8/repeatability CSVs differ from the checked-in copies"; exit 1; }

echo "== attack_accuracy trace smoke (observability artifacts + overhead) =="
# The traced smoke run must produce a parseable JSONL trace and metrics
# JSON, leave the CSV artifact byte-identical to the untraced run, and
# (on real hardware) stay within the < 5 % instrumentation overhead
# budget. Like the sentinel's timing gates, the overhead gate is
# informational on hosts with < 4 hardware threads.
t0=$(date +%s%N)
cargo run --release -q -p bench --bin attack_accuracy -- --smoke
t1=$(date +%s%N)
# The checked-in CSV is the smoke output: a sensing change that moves
# any bit of it must fail here, not only traced-vs-untraced below.
git diff --exit-code -- results/attack_accuracy.csv \
    || { echo "FAIL: attack_accuracy.csv differs from the checked-in copy"; exit 1; }
cp results/attack_accuracy.csv /tmp/ci_untraced_attack_accuracy.csv
t2=$(date +%s%N)
cargo run --release -q -p bench --bin attack_accuracy -- --smoke \
    --trace /tmp/ci_trace.jsonl --metrics /tmp/ci_metrics.json
t3=$(date +%s%N)
cmp results/attack_accuracy.csv /tmp/ci_untraced_attack_accuracy.csv \
    || { echo "FAIL: tracing changed attack_accuracy.csv"; exit 1; }
test -s /tmp/ci_trace.jsonl || { echo "FAIL: empty trace"; exit 1; }
# Strict in-tree validation: obs_report parses every line with the typed
# obs-analyze parser (exact 5-key schema, canonical event order) and
# cross-checks the metrics snapshot against the trace.
cargo run --release -q -p bench --bin obs_report -- \
    validate /tmp/ci_trace.jsonl /tmp/ci_metrics.json
untraced_s=$(awk "BEGIN{print ($t1-$t0)/1e9}")
traced_s=$(awk "BEGIN{print ($t3-$t2)/1e9}")
overhead=$(awk "BEGIN{print ($traced_s-$untraced_s)/$untraced_s*100}")
echo "untraced ${untraced_s}s, traced ${traced_s}s, overhead ${overhead}%"
hw_threads=$(nproc 2>/dev/null || echo 1)
if [ "$hw_threads" -ge 4 ]; then
    awk "BEGIN{exit !($overhead < 5.0)}" \
        || { echo "FAIL: instrumentation overhead ${overhead}% >= 5%"; exit 1; }
else
    echo "(${hw_threads} hardware thread(s): overhead gate informational)"
fi

echo "== streaming indicators parity (--stream == batch at widths 1/2/4) =="
# The streaming engine must derive byte-identical reports from real
# smoke traces at every pool width, in both renderings — and since the
# indicator report is a pure function of the (width-invariant) trace,
# every width's report must equal width 1's. Each width's fresh CSV must
# also equal the checked-in one: sweep cells are width-invariant.
for t in 1 2 4; do
    cargo run --release -q -p bench --bin attack_accuracy -- --smoke \
        --threads "$t" --trace "/tmp/ci_stream_$t.jsonl"
    git diff --exit-code -- results/attack_accuracy.csv \
        || { echo "FAIL: attack_accuracy.csv changed at $t threads"; exit 1; }
    for fmt in json md; do
        cargo run --release -q -p bench --bin obs_report -- \
            indicators "/tmp/ci_stream_$t.jsonl" "--$fmt" \
            > "/tmp/ci_ind_batch_$t.$fmt"
        cargo run --release -q -p bench --bin obs_report -- \
            indicators "/tmp/ci_stream_$t.jsonl" "--$fmt" --stream \
            > "/tmp/ci_ind_stream_$t.$fmt"
        cmp "/tmp/ci_ind_batch_$t.$fmt" "/tmp/ci_ind_stream_$t.$fmt" \
            || { echo "FAIL: --stream diverged from batch (--$fmt, $t threads)"; exit 1; }
        cmp "/tmp/ci_ind_stream_1.$fmt" "/tmp/ci_ind_stream_$t.$fmt" \
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
# byte-identically.
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

echo "== alert engine smoke (batch == --stream on the chaos trace) =="
# The online anomaly rules replay the real chaos telemetry; the
# streaming derivation must be byte-identical to batch in both
# renderings (an alert firing is a report, not a CI failure).
for fmt in json md; do
    cargo run --release -q -p bench --bin obs_report -- \
        alerts /tmp/ci_chaos_trace.jsonl "--$fmt" \
        > "/tmp/ci_alerts_batch.$fmt"
    cargo run --release -q -p bench --bin obs_report -- \
        alerts /tmp/ci_chaos_trace.jsonl "--$fmt" --stream \
        > "/tmp/ci_alerts_stream.$fmt"
    cmp "/tmp/ci_alerts_batch.$fmt" "/tmp/ci_alerts_stream.$fmt" \
        || { echo "FAIL: alerts --stream diverged from batch (--$fmt)"; exit 1; }
done

echo "== fleet_scaling smoke (sharded scheduler, 2 worker lanes) =="
# Drives the full 64-campaign fleet through the sharded lane/barrier
# scheduler at pool widths 1 and 2, racing a broker flash-attack for the
# device pool first. Exits non-zero if any width's outcomes, trace, or
# quarantine ledger diverge from the serial reference, or if the broker
# resolution is interleaving-dependent. The drained telemetry must
# validate through the strict obs-analyze parser (scheduler_tick /
# commit_batch events ride the tick axis, content-sorted).
cargo run --release -q -p bench --bin fleet_scaling -- --smoke --threads 2 \
    --trace /tmp/ci_fleet_trace.jsonl --metrics /tmp/ci_fleet_metrics.json
cargo run --release -q -p bench --bin obs_report -- \
    validate /tmp/ci_fleet_trace.jsonl /tmp/ci_fleet_metrics.json

echo "== fleet dashboard (one frame, byte-identical at widths 1/2/4) =="
# The health dashboard is a pure function of the per-tick HealthSnapshot
# rollups, which are themselves width-invariant — so the rendered frame
# must be byte-identical whatever pool width drove the fleet.
for t in 1 2 4; do
    cargo run --release -q -p bench --bin fleet_scaling -- --smoke \
        --threads "$t" --dashboard-once "/tmp/ci_dash_$t.txt"
done
for t in 2 4; do
    cmp /tmp/ci_dash_1.txt "/tmp/ci_dash_$t.txt" \
        || { echo "FAIL: dashboard frame differs between widths 1 and $t"; exit 1; }
done

echo "== regression sentinel (BENCH lineage vs checked-in baseline) =="
# The chaos_suite and fleet_scaling smoke steps above regenerated
# results/BENCH_chaos.json and results/BENCH_fleet.json on this host, so
# the sentinel compares fresh artifacts against the checked-in bundle. First run (no
# baseline yet) writes the bundle and exits 0; afterwards any lost
# identity/equivalence claim fails the build, while timing gates stay
# informational on hosts with < 4 hardware threads.
cargo run --release -q -p bench --bin obs_report -- \
    sentinel --baseline results/BENCH_obs_baseline.json

echo "== cargo clippy --workspace -- -D warnings =="
if command -v cargo-clippy >/dev/null 2>&1; then
    cargo clippy --workspace -- -D warnings \
        -W clippy::redundant_clone -W clippy::needless_collect
else
    echo "clippy not installed; skipping (install with: rustup component add clippy)"
fi

echo "== cargo doc (warning-clean) =="
# Broken or private intra-doc links are errors, not noise.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo fmt --check =="
if command -v cargo-fmt >/dev/null 2>&1; then
    cargo fmt --check
else
    echo "rustfmt not installed; skipping (install with: rustup component add rustfmt)"
fi

echo "CI gate passed."
