#!/usr/bin/env bash
# Build the benchmark and run it. Without --workload every workload runs as a
# process of its own (so peak-memory marks do not mix) and the result lines
# are merged into one JSON object, printed last and written to --out.
#
#   benchmark/run.sh --seed 42                      # all four workloads, both phases
#   benchmark/run.sh --workload serve_skew --seed 7 # one workload
#   benchmark/run.sh --repeat-check                 # two timed sets, compared
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
