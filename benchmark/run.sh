#!/usr/bin/env bash
# The benchmark's one command. Builds the ledger binary (release, offline)
# and hands it the arguments:
#
#   run.sh                       every workload, measured then traced; writes
#                                benchmark/out/ledger.json and trace-<workload>.json
#   run.sh --workload NAME       the same for one workload
#   run.sh --seed N              inputs from another seed (default 7)
#   run.sh --smoke               small sizes, same code paths, ~20 s in all
#   run.sh --calibrate           two sets of ten seeds per workload against the bounds
#   run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                one run; its result is the last line (the driver's form)
#   run.sh --manifest            print BENCHMARK.json as the code defines it
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# A relative CARGO_TARGET_DIR is taken from here, the root of the checkout.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/gossip-ledger" "$@"
