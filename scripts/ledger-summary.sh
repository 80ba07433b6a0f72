#!/usr/bin/env bash
# A ledger at a glance: per workload, the four end-to-end rows of its
# measured run and the arena/propose rows of its traced run — the numbers
# a `BENCH_<pr>.json` is committed for — as one markdown table.
#
# Usage:
#   scripts/ledger-summary.sh [LEDGER]     # default benchmark/out/ledger.json
#   scripts/ledger-summary.sh A B          # two ledgers: A | B | Δ %, per workload and row
#
# The two-ledger form adds the `shard.wire_*` rows (frame encode and decode
# per entry, bytes per entry) to the table's, so a change to the wire codec
# shows in the diff.
#
# The CI `benchmark` job tees the smoke ledger's table into its step
# summary, and the `ledger gate` job the two-ledger table of the base's and
# the change's smoke ledgers; `scripts/ledger-summary.sh BENCH_22.json`
# reads a committed one. Two ledgers from different runs are standings,
# not a paired comparison: `scripts/ledger-gate.sh` is that.
set -euo pipefail
# shellcheck disable=SC2016
common='
  ["setup_s", "ns_per_node_round", "rounds_per_s", "peak_rss_mib",
   "graph.apply_ns_per_proposal", "core.propose_ns_per_node",
   "graph.apply_minor_faults_per_round", "graph.bytes_per_edge"] as $rows
  | def header: "seed \(.seed), \(.seconds) s runs, smoke = \(.smoke), correct = \(.correct)";
    def r3: if . then (. * 1000 | round) / 1000 else "—" end | tostring;
    # workload -> {metric name -> value}, measured and traced runs merged.
    def by_workload: [ .runs | group_by(.workload)[]
      | {key: .[0].workload,
         value: (map(.metrics // []) | add | map({key: .name, value: .value}) | from_entries)} ]
      | from_entries;
'

if [[ $# -eq 2 ]]; then
    jq -n -r --slurpfile a "$1" --slurpfile b "$2" --arg na "$1" --arg nb "$2" "$common"'
      ($a[0] | by_workload) as $ma | ($b[0] | by_workload) as $mb
      | "A = \($na): \($a[0] | header)",
        "B = \($nb): \($b[0] | header)",
        "",
        "| workload | metric | A | B | Δ % |",
        "|---|---|---:|---:|---:|",
        ( ($ma | keys_unsorted) + ($mb | keys_unsorted) | unique[] as $w
          | ($rows + ["shard.wire_encode_ns_per_entry", "shard.wire_decode_ns_per_entry",
                      "shard.wire_bytes_per_entry"])[] as $r
          | $ma[$w][$r] as $x | $mb[$w][$r] as $y
          | "| \($w) | \($r) | \($x | r3) | \($y | r3) | \(
              if $x and $y and $x != 0 then (($y - $x) / $x * 1000 | round) / 10 | tostring else "—" end) |" )'
    exit
fi

ledger=${1:-"$(dirname "$0")/../benchmark/out/ledger.json"}
jq -r "$common"'
  header,
  "",
  "| workload | \($rows | join(" | ")) |",
  "|---|\($rows | map("---:") | join("|"))|",
  ( by_workload | to_entries[]
    | .value as $m
    | "| \(.key) | \($rows | map($m[.] | r3) | join(" | ")) |" )
' "$ledger"
