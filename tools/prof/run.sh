#!/usr/bin/env bash
# Profiles one benchmark workload with the sampling shim beside this
# script (see dmfprof.c and report.py; docs/guide.md has an example).
#
# Usage: ./tools/prof/run.sh <workload> [--seed <u64>] [--seconds <n>] ...
#        (arguments after the workload go to `dmf-benchmark run`;
#        defaults: --seed 7 --seconds 20 --trace 0)
# Output: the two share tables on stdout; the shim, the raw samples
#         and the benchmark's own report under $DMFPROF_DIR
#         (default: a fresh directory under $TMPDIR).
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
workload=${1:?usage: run.sh <workload> [dmf-benchmark run arguments]}
shift
dir=${DMFPROF_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/dmfprof.XXXXXX")}
mkdir -p "$dir"

gcc -O2 -Wall -shared -fPIC -o "$dir/dmfprof.so" "$here/dmfprof.c"
cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"
bin=${CARGO_TARGET_DIR:-$root/benchmark/target}/release/dmf-benchmark

# `run --workload` measures in this process (`run --all` would only
# profile the parent that spawns one child per workload).
DMFPROF_OUT="$dir/$workload.samples" LD_PRELOAD="$dir/dmfprof.so" \
  "$bin" run --workload "$workload" --seed 7 --seconds 20 --trace 0 "$@" \
  > "$dir/$workload.report"
"$here/report.py" "$dir/$workload.samples" --root "$root"
echo
echo "samples and benchmark report in $dir"
