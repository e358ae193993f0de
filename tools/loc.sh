#!/usr/bin/env bash
# First-party lines of rust per crate: `src/` only, with the lines
# inside `#[cfg(test)] mod tests` blocks (always the tail of a file in
# this repo) and under `tests/` counted separately. The `vendor` row
# sums the vendored crates: they are hand-written local subsets of the
# third-party APIs, so they count as first-party code. The `pub`
# column counts the `pub fn|struct|enum|trait|type|const` lines of
# the source half (restricted visibilities such as `pub(crate)` do
# not count): the public surface, tracked beside the line count.
# ROADMAP's "least code" aim tracks these numbers; run before and
# after a PR that claims to shrink something.
#
# Usage: ./tools/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

printf '%-12s %8s %6s %10s %8s\n' crate src pub unit-tests tests/
total_src=0 total_pub=0 total_unit=0 total_integ=0
for dir in crates/* . vendor; do
  srcs=("$dir/src") tests=("$dir/tests")
  if [ "$dir" = vendor ]; then
    srcs=(vendor/*/src) tests=(vendor/*/tests)
  fi
  [ -d "${srcs[0]}" ] || continue
  name=$(basename "$dir")
  [ "$dir" = . ] && name=facade
  # Per file: lines before the first `#[cfg(test)]` are source, the
  # rest are unit tests.
  read -r src pub unit < <(find "${srcs[@]}" -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && /^[ \t]*pub (fn|struct|enum|trait|type|const)[ \t]/ { pub++ }
    { if (in_tests) unit++; else src++ }
    END { print src + 0, pub + 0, unit + 0 }' | awk '
    { src += $1; pub += $2; unit += $3 } END { print src + 0, pub + 0, unit + 0 }')
  integ=0
  for t in "${tests[@]}"; do
    if [ -d "$t" ]; then
      integ=$((integ + $(find "$t" -name '*.rs' -print0 | xargs -0 cat | wc -l)))
    fi
  done
  printf '%-12s %8d %6d %10d %8d\n' "$name" "$src" "$pub" "$unit" "$integ"
  total_src=$((total_src + src))
  total_pub=$((total_pub + pub))
  total_unit=$((total_unit + unit))
  total_integ=$((total_integ + integ))
done
printf '%-12s %8d %6d %10d %8d\n' total "$total_src" "$total_pub" "$total_unit" "$total_integ"
