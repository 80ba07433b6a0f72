#!/usr/bin/env bash
# The perf gate: a base revision and this tree, run in pairs on one machine
# through each tree's own benchmark ledger, judged by the merge rule.
#
# Usage:
#   scripts/ledger-gate.sh BASE_REV
#
# BASE_REV is checked out into a temporary git worktree, removed on exit
# (Ctrl-C included). For every workload in BENCHMARK.json both trees run
# `benchmark/run.sh --workload W --seed i --seconds S --trace 0` (the
# driver's form, S = `.run_seconds`) for seeds i = 1..PAIRS, alternating
# which tree goes first. The gate fails when
#   - a run of this tree reports `correct: false`,
#   - on some workload this tree's failed/attempted share is higher than
#     the base's, or
#   - on some workload an end-to-end metric's median is worse than the
#     base's by more than the metric's `bound`, in its `better` direction.
# It prints one markdown table and exits 0 on pass, 1 on fail, 2 on a
# usage error. Needs git and jq. Compare the two trees of one run, never
# tables from different runs: the machine's speed drifts between them.
set -euo pipefail

# Pairs of runs per workload. Raise it only if the same-code run,
# `scripts/ledger-gate.sh HEAD`, fails on the machine that gates.
PAIRS=3

usage() {
    echo "usage: $0 BASE_REV" >&2
    exit 2
}
[[ $# -eq 1 && -n $1 ]] || usage
change=$(cd "$(dirname "$0")/.." && pwd)
cd "$change"
base_rev=$1
if ! git rev-parse --verify --quiet "$base_rev^{commit}" >/dev/null; then
    echo "$0: $base_rev is not a commit in $change" >&2
    usage
fi

manifest=$change/BENCHMARK.json
mapfile -t workloads < <(jq -r '.workloads[].name' "$manifest")
seconds=$(jq -r '.run_seconds' "$manifest")
# Each tree builds into its own benchmark/target (run.sh's default).
unset CARGO_TARGET_DIR

tmp=$(mktemp -d "${TMPDIR:-/tmp}/ledger-gate.XXXXXX")
base=$tmp/base
pid=""
cleanup() {
    if [[ -n $pid ]]; then
        # The ledger runs each workload in a process group of its own.
        for kid in $(pgrep -P "$pid" || true); do
            kill -KILL -- "-$kid" 2>/dev/null || kill -KILL "$kid" 2>/dev/null || true
        done
        kill -KILL "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    fi
    git -C "$change" worktree remove --force "$base" 2>/dev/null || true
    git -C "$change" worktree prune
    rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

# Runs a command in the background and waits for it, so that a signal
# reaches the traps at once and not when the command ends.
run() {
    "$@" &
    pid=$!
    local status=0
    wait "$pid" || status=$?
    pid=""
    return "$status"
}

git worktree add --quiet --detach "$base" "$base_rev"

# Build both ledgers before anything is timed.
for tree in "$base" "$change"; do
    if ! run bash -c 'cd "$1" && exec benchmark/run.sh --manifest' _ "$tree" >/dev/null; then
        echo "$0: the ledger in $tree does not build" >&2
        exit 1
    fi
done

# One run of one tree; appends {side, workload, seed, result} to runs.jsonl.
# A run without a result line (a crash) counts as one failed operation.
one() {
    local side=$1 tree=$2 w=$3 i=$4
    local log="$tmp/$side-$w-$i.log" result
    echo "[ledger-gate] $side $w seed $i" >&2
    run bash -c 'cd "$1" && shift && exec benchmark/run.sh "$@"' _ "$tree" \
        --workload "$w" --seed "$i" --seconds "$seconds" --trace 0 >"$log" 2>&1 || true
    result=$(tail -n 1 "$log")
    if ! jq -e 'type == "object" and has("correct")' <<<"$result" >/dev/null 2>&1; then
        echo "[ledger-gate] $side $w seed $i printed no result; its last lines:" >&2
        tail -n 20 "$log" >&2
        result='{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}'
    fi
    jq -c --arg side "$side" --arg w "$w" --argjson i "$i" \
        '{side: $side, workload: $w, seed: $i, result: .}' <<<"$result" >>"$tmp/runs.jsonl"
}

for w in "${workloads[@]}"; do
    for ((i = 1; i <= PAIRS; i++)); do
        if ((i % 2)); then
            one base "$base" "$w" "$i"
            one change "$change" "$w" "$i"
        else
            one change "$change" "$w" "$i"
            one base "$base" "$w" "$i"
        fi
    done
done

# One row per (workload, end-to-end metric) and one failed-share row per
# workload; `.ok` is the row's verdict.
jq -s --slurpfile manifest "$manifest" '
  # Median and quartiles as Python statistics.quantiles(n=4) (exclusive).
  def quartiles:
    sort as $v | ($v | length) as $n
    | if $n == 0 then null
      elif $n == 1 then [$v[0], $v[0], $v[0]]
      else [1, 2, 3] | map(
          (. * ($n + 1) / 4) as $p
          | ([([($p | floor), 1] | max), $n - 1] | min) as $j
          | $v[$j - 1] + ($p - $j) * ($v[$j] - $v[$j - 1]))
      end;
  . as $runs
  | [ $manifest[0].workloads[].name as $w
      | ($runs | map(select(.workload == $w))) as $wr
      | ($wr | map(select(.side == "base") | .result)) as $b
      | ($wr | map(select(.side == "change") | .result)) as $c
      | ( $manifest[0].end_to_end[] as $m
          | ($b | map(.metrics[$m.name].value // empty) | quartiles) as $bq
          | ($c | map(.metrics[$m.name].value // empty) | quartiles) as $cq
          | (if $bq and $cq and $bq[1] != 0 then ($cq[1] - $bq[1]) / $bq[1] else null end) as $d
          | { workload: $w, metric: $m.name, bound: $m.bound, base: $bq, change: $cq, delta: $d,
              ok: ( if $cq == null then false
                    elif $d == null then true
                    elif $m.better == "lower" then $d <= $m.bound
                    else -$d <= $m.bound end ) } ),
        ( ($b | map(.failed // 0) | add) as $bf | ($b | map(.attempted // 0) | add) as $ba
          | ($c | map(.failed // 0) | add) as $cf | ($c | map(.attempted // 0) | add) as $ca
          | ($c | map(select(.correct | not)) | length) as $wrong
          | { workload: $w, metric: "failed/attempted", bound: null,
              share: ["\($bf)/\($ba)", "\($cf)/\($ca)"], wrong: $wrong,
              ok: ($wrong == 0 and $cf * $ba <= $bf * $ca) } )
    ]' "$tmp/runs.jsonl" >"$tmp/rows.json"

jq -r --argjson pairs "$PAIRS" --argjson seconds "$seconds" '
  def fixed($d): (if . < 0 then "-" else "" end) as $sign
    | ((if . < 0 then -. else . end) * pow(10; $d) | round | tostring) as $s
    | if $d == 0 then $sign + $s
      else (("0" * ($d + 1 - ($s | length))) // "") + $s | $sign + .[:-$d] + "." + .[-$d:] end;
  # Three significant digits below 1, three or one decimals above.
  def num: (if . < 0 then -. else . end) as $a
    | if $a >= 100 then fixed(1) elif $a >= 1 or $a == 0 then fixed(3)
      else fixed(2 - ($a | log10 | floor)) end;
  def q: if . == null then "—" else "\(.[1] | num) [\(.[0] | num), \(.[2] | num)]" end;
  "\($pairs) pairs of \($seconds) s runs per workload, base and change alternating",
  "",
  "| workload | metric | bound | base median [q1, q3] | change median [q1, q3] | Δ % | verdict |",
  "|---|---|---:|---:|---:|---:|---|",
  ( .[]
    | if .share then
        "| \(.workload) | \(.metric) | — | \(.share[0]) | \(.share[1]) | — | \(
          if .ok then "pass"
          elif .wrong > 0 then "**FAIL** (correct: false in \(.wrong) runs)"
          else "**FAIL**" end) |"
      else
        "| \(.workload) | \(.metric) | \(.bound * 100 | round) % | \(.base | q) | \(.change | q) | \(
          if .delta == null then "—" else (.delta * 100 | fixed(1)) end) | \(if .ok then "pass" else "**FAIL**" end) |"
      end ),
  "",
  (if all(.ok) then "**ledger gate: pass**" else "**ledger gate: FAIL**" end)
' "$tmp/rows.json"

jq -e 'all(.ok)' "$tmp/rows.json" >/dev/null || exit 1
