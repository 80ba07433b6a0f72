#!/usr/bin/env bash
# The deleted-lines ledger's metric (CHANGES.md, since PR 12), as a
# script instead of a hand count: per crate and in total, the non-blank
# lines that do not start with `//` (so comments and docs are out) above
# the first `#[cfg(test)]` at column 0 of every `crates/*/src/**/*.rs` file
# — the code that ships, not its unit tests. An indented `#[cfg(test)]`
# gates one item inside the shipped code and does not end the count.
#
# The root package's `src/` (the facade and the CLI) and the vendored
# dependency shims (`vendor/*/src`) get a row each, counted by the same
# rule and left out of the `all crates` total, so that total stays
# comparable with every figure quoted for it before.
#
# Usage:
#   scripts/code-lines.sh            # a markdown table on stdout
#
# The CI `fmt` job appends the table to its step summary; CHANGES.md
# quotes it for the parent commit and for the change.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    # shellcheck disable=SC2046
    awk 'FNR == 1 { live = 1 }
         /^#\[cfg\(test\)\]/ { live = 0 }
         live && NF && $1 !~ /^\/\// { n++ }
         END { print n + 0 }' $(find "$@" -name '*.rs' | sort)
}

echo "| crate | code lines |"
echo "|-------|-----------:|"
for dir in crates/*/src; do
    crate=${dir#crates/}
    echo "| ${crate%/src} | $(count "$dir") |"
done
echo "| **shard + cluster** | **$(count crates/shard/src crates/cluster/src)** |"
echo "| **all crates** | **$(count crates/*/src)** |"
echo "| src (facade + CLI) | $(count src) |"
echo "| vendor (shims) | $(count vendor/*/src) |"
