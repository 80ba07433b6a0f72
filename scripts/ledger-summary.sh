#!/usr/bin/env bash
# A ledger at a glance: per workload, the four end-to-end rows of its
# measured run and the arena/propose rows of its traced run — the numbers
# a `BENCH_<pr>.json` is committed for — as one markdown table.
#
# Usage:
#   scripts/ledger-summary.sh [LEDGER]     # default benchmark/out/ledger.json
#
# The CI `benchmark` job tees the smoke ledger's table into its step
# summary; `scripts/ledger-summary.sh BENCH_22.json` reads a committed one.
set -euo pipefail
ledger=${1:-"$(dirname "$0")/../benchmark/out/ledger.json"}

jq -r '
  ["setup_s", "ns_per_node_round", "rounds_per_s", "peak_rss_mib",
   "graph.apply_ns_per_proposal", "core.propose_ns_per_node",
   "graph.apply_minor_faults_per_round", "graph.bytes_per_edge"] as $rows
  | "seed \(.seed), \(.seconds) s runs, smoke = \(.smoke), correct = \(.correct)",
    "",
    "| workload | \($rows | join(" | ")) |",
    "|---|\($rows | map("---:") | join("|"))|",
    ( .runs | group_by(.workload)[]
      | (map(.metrics // []) | add | map({key: .name, value: .value}) | from_entries) as $m
      | "| \(.[0].workload) | \($rows | map($m[.] | if . then (. * 1000 | round) / 1000 else "—" end | tostring) | join(" | ")) |" )
' "$ledger"
