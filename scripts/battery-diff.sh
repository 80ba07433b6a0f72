#!/usr/bin/env bash
# Byte-identity of the experiment battery: a base revision against this
# tree. Every output of `run_all --quick --seed 7` is a function of the
# seed, so a change that claims not to move the battery must leave every
# file byte for byte as the base wrote it.
#
# Usage:
#   scripts/battery-diff.sh BASE_REV
#
# BASE_REV is exported (`git archive`) into a temporary directory,
# removed on exit (Ctrl-C included). Both trees build `run_all` (release,
# each into its own target/) and run `run_all --quick --seed 7`; then
# every output file is compared with `cmp`, a file that only one side
# wrote counting as different. Prints "N/N identical" and exits 0, or
# names each file that differs and exits 1; a usage error exits 2. The
# quick battery takes about 70-80 s per tree on a 2-vCPU machine, plus
# the two builds.
set -euo pipefail

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
# Each tree builds into its own target/.
unset CARGO_TARGET_DIR

tmp=$(mktemp -d "${TMPDIR:-/tmp}/battery-diff.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

base=$tmp/base
mkdir "$base"
git archive "$base_rev" | tar -x -C "$base"

for side in base change; do
    tree=${!side}
    echo "[battery-diff] $side: build and run" >&2
    (cd "$tree" && cargo build --release --quiet -p gossip-bench --bin run_all)
    "$tree/target/release/run_all" --quick --seed 7 --out "$tmp/out-$side" >"$tmp/$side.log" 2>&1 || {
        echo "$0: run_all failed in the $side tree; its last lines:" >&2
        tail -n 20 "$tmp/$side.log" >&2
        exit 1
    }
done

total=0
differ=()
while read -r f; do
    total=$((total + 1))
    cmp -s "$tmp/out-base/$f" "$tmp/out-change/$f" || differ+=("$f")
done < <( (ls "$tmp/out-base"; ls "$tmp/out-change") | sort -u)

if ((${#differ[@]} == 0)); then
    echo "$total/$total identical"
else
    echo "$((total - ${#differ[@]}))/$total identical; these differ:"
    printf '  %s\n' "${differ[@]}"
    exit 1
fi
