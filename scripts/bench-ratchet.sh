#!/usr/bin/env bash
# Perf-ratchet driver: the single source of truth for how baselines are
# saved and compared, used verbatim by CI (.github/workflows/ci.yml,
# `perf-ratchet` job) and by local runs — so the invocation can't drift
# between the two.
#
# Usage:
#   scripts/bench-ratchet.sh cycle     [name]   # per bench: save baseline,
#                                               # calibrate (fail on ANY
#                                               # change), ratchet-check
#                                               # (fail on regression)
#   scripts/bench-ratchet.sh save      [name]   # run benches, save baseline
#   scripts/bench-ratchet.sh calibrate [name]   # compare; fail on ANY change
#   scripts/bench-ratchet.sh check     [name]   # compare; fail on regression
#   scripts/bench-ratchet.sh cross     [name]   # cross-commit check: like
#                                               # `check` against a baseline
#                                               # restored from another
#                                               # commit's run (CI caches it
#                                               # keyed on the base branch);
#                                               # skips cleanly when the
#                                               # baseline is absent, and
#                                               # widens the noise threshold
#                                               # (different runner hardware)
#                                               # unless the caller set one
#
# `name` defaults to "ratchet". The benches covered are the closure
# microbenchmark and the engine round-throughput benchmark — one pure
# graph-algorithm kernel and one end-to-end engine hot path.
#
# `cycle` (what CI runs) keeps the save and compare passes of each bench
# **adjacent**: measured on this workload, interposing another bench's
# memory churn between a bench's save and compare passes shifts physical
# page allocation enough to flip cache-aliasing modes (observed 2.4×
# uniform slowdowns on closure/gnp with nothing in between but a big-graph
# bench) — while back-to-back save→compare of the same bench repeats
# within ±2%. Per-bench pairing is what makes the same-runner calibration
# meaningful.
#
# The verdict gates are enforced by the criterion shim itself
# (CRITERION_FAIL_ON_CHANGE / CRITERION_FAIL_ON_REGRESSION; a missing
# baseline record also fails under either gate; comparisons use the
# stall-robust trimmed mean), so a regression fails the process — and
# therefore the CI job — rather than just printing a line.
#
# Local workflow around a change (cross-commit, so the pairing caveat does
# not apply — the runs being compared are the point):
#   git stash && scripts/bench-ratchet.sh save before && git stash pop
#   scripts/bench-ratchet.sh check before

set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:?usage: bench-ratchet.sh cycle|save|calibrate|check|cross [baseline-name]}"
BASELINE="${2:-ratchet}"
# bench[:filter] — filter is a CRITERION_FILTER substring list keeping each
# pass short (a multi-minute pass drifts 15-25% on shared runners between
# save and compare; a sub-minute pass repeats within a few percent). The
# closure bench is quick and runs whole; round_throughput is ratcheted on
# its 4096-node rows (arena, sharded, listener seam) — the 64k rows' working
# sets straddle cache capacity and flip layout modes 20% between process
# instances, which no same-runner comparison survives. frame_codec (the
# transport's mailbox encode/decode hot path) is quick and runs whole.
BENCHES=(closure round_throughput:4096 frame_codec)
export CRITERION_BASELINE_DIR="${CRITERION_BASELINE_DIR:-target/criterion-baselines}"

one_bench() {
    local bench="${1%%:*}" filter=""
    case "$1" in *:*) filter="${1#*:}" ;; esac
    CRITERION_FILTER="$filter" cargo bench -p gossip-bench --bench "$bench"
}

# Glob matching the baseline record files a bench's ids sanitize to
# (<group>_<name>_<param>.json). Group names usually share the bench
# target's name as a prefix; round_throughput's groups are round_arena/
# round_sharded/round_listened.
baseline_glob() {
    case "${1%%:*}" in
        round_throughput) echo "round_*" ;;
        *) echo "${1%%:*}*" ;;
    esac
}

# A gated pass, retried in a fresh process on failure (3 attempts).
# Per-process allocator/ASLR layout shifts cache aliasing enough to move
# some rows 10-25% between process instances of *identical code*; a real
# regression shifts every instance, a layout flip only some, so demanding
# one in-threshold instance out of three separates the two. A genuine
# regression still fails all three attempts.
gated_pass() {
    local attempt
    for attempt in 1 2 3; do
        if "$@"; then
            return 0
        fi
        echo "[bench-ratchet] gated pass failed (attempt $attempt/3)" >&2
    done
    return 1
}

# Compile everything up front: a measured pass must never run in the heat
# (and CPU contention) of a fresh build — a save pass that overlapped
# compilation tail has been observed 30-50% slow, which the calibration
# pass then correctly-but-uselessly flags as an "improvement".
echo "[bench-ratchet] pre-building bench binaries"
cargo bench -p gossip-bench --no-run

for_each_bench() {
    for bench in "${BENCHES[@]}"; do
        one_bench "$bench"
    done
}

case "$MODE" in
    cycle)
        for bench in "${BENCHES[@]}"; do
            echo "[bench-ratchet] $bench 1/3: saving baseline '$BASELINE' (best of 2 runs)"
            # Two save runs with keep-best: the baseline is each row's
            # least-contaminated process instance (layout flips and load
            # bursts only ever slow a run down), symmetric with the
            # retried compare passes below.
            CRITERION_SAVE_BASELINE="$BASELINE" CRITERION_SAVE_KEEP_BEST=1 one_bench "$bench"
            CRITERION_SAVE_BASELINE="$BASELINE" CRITERION_SAVE_KEEP_BEST=1 one_bench "$bench"
            echo "[bench-ratchet] $bench 2/3: calibration (any change verdict fails)"
            CRITERION_BASELINE="$BASELINE" CRITERION_FAIL_ON_CHANGE=1 gated_pass one_bench "$bench"
            echo "[bench-ratchet] $bench 3/3: ratchet (a regression verdict fails)"
            CRITERION_BASELINE="$BASELINE" CRITERION_FAIL_ON_REGRESSION=1 gated_pass one_bench "$bench"
        done
        ;;
    save)
        echo "[bench-ratchet] saving baseline '$BASELINE' -> $CRITERION_BASELINE_DIR"
        CRITERION_SAVE_BASELINE="$BASELINE" for_each_bench
        ;;
    calibrate)
        echo "[bench-ratchet] calibration vs '$BASELINE': any change verdict fails"
        for bench in "${BENCHES[@]}"; do
            CRITERION_BASELINE="$BASELINE" CRITERION_FAIL_ON_CHANGE=1 gated_pass one_bench "$bench"
        done
        ;;
    check)
        echo "[bench-ratchet] ratchet vs '$BASELINE': a regression verdict fails"
        for bench in "${BENCHES[@]}"; do
            CRITERION_BASELINE="$BASELINE" CRITERION_FAIL_ON_REGRESSION=1 gated_pass one_bench "$bench"
        done
        ;;
    cross)
        # The between-PRs ratchet (ROADMAP PR 4 follow-up): the baseline
        # was measured by a *different* CI run on the base branch and
        # restored via the actions cache. First run / evicted cache is not
        # a regression — skip loudly instead of failing. Cross-runner
        # comparisons see different physical hardware, so the default
        # noise threshold is widened well past the same-runner 15%; a real
        # regression (algorithmic, not layout) still clears 40%.
        if ! ls "$CRITERION_BASELINE_DIR/$BASELINE"/*.json >/dev/null 2>&1; then
            echo "[bench-ratchet] no cross-commit baseline '$BASELINE' under $CRITERION_BASELINE_DIR — skipping (cache miss)"
            exit 0
        fi
        echo "[bench-ratchet] cross-commit ratchet vs '$BASELINE': a regression verdict fails"
        # Skip-on-missing is per bench, not per run: a baseline cached
        # before a bench existed (e.g. frame_codec landing after the base
        # branch's run) has records for the other benches but none for the
        # new one, and the shim's missing-record gate would fail it. That
        # is cache staleness, not a regression — skip that bench loudly
        # and still ratchet the benches the baseline does cover.
        for bench in "${BENCHES[@]}"; do
            if ! ls "$CRITERION_BASELINE_DIR/$BASELINE"/$(baseline_glob "$bench").json >/dev/null 2>&1; then
                echo "[bench-ratchet] no cross-commit baseline records for '${bench%%:*}' — skipping this bench (stale cache)"
                continue
            fi
            CRITERION_NOISE_THRESHOLD="${CRITERION_NOISE_THRESHOLD:-0.40}" \
            CRITERION_BASELINE="$BASELINE" CRITERION_FAIL_ON_REGRESSION=1 gated_pass one_bench "$bench"
        done
        ;;
    *)
        echo "error: unknown mode '$MODE' (cycle|save|calibrate|check|cross)" >&2
        exit 2
        ;;
esac
