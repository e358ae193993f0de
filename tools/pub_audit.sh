#!/usr/bin/env bash
# Public surface audit: lists every `pub fn|struct|enum|trait|type|const`
# in `crates/*/src` (outside items marked `#[cfg(test)]` at column 0)
# whose name no *other* non-test file in `crates/` (sources and
# examples), `src/`, `examples/` or `benchmark/src` mentions.
# Such an item is public for nobody: delete it, narrow it to private or
# `pub(crate)`, or list it in `tools/pub_audit.allow` with the caller
# or reason that needs it.
#
# The match is by name, as a whole word, over code lines: whole-line
# `//` comments and doc comments are skipped, a `pub use` re-export is
# not a caller, and neither are tests (`tests/` directories and
# `#[cfg(test)]` blocks). Crate examples (`crates/*/examples`) are
# callers. That is crude on purpose, and it errs both ways:
#   - false hits: a name reached only through a glob import or a macro
#     is reported although something uses it;
#   - misses: a common name (`new`, `len`, `run`) used anywhere else
#     hides an unused item of that name, and trait methods are never
#     listed at all (they carry no `pub` of their own).
#
# Allowlist lines are `<path> <name>  # <reason>`; blank lines and
# lines starting with `#` are ignored. An entry that no longer matches
# a hit is reported as stale, so the list cannot outlive its reasons.
#
# Usage: ./tools/pub_audit.sh   (exit 0: clean; exit 1: unlisted hits
# or stale allowlist entries)
set -euo pipefail
cd "$(dirname "$0")/.."

allow=tools/pub_audit.allow
shopt -s nullglob
files=$(find crates/*/src crates/*/examples src examples benchmark/src -name '*.rs' | sort)

# One record per (file, word) over the code half of every file, and one
# `DEF` record per public item of a `crates/*/src` file.
# shellcheck disable=SC2086
awk '
  FNR == 1 { in_tests = 0; in_reexport = 0; delete seen }
  # A column-0 `#[cfg(test)]` item: a `;` line, or a block up to its
  # column-0 `}`.
  /^#\[cfg\(test\)\]/ { in_tests = 1; opening = 1; next }
  in_tests {
    if (opening && !/^[ \t]*#/) { opening = 0; if (/;[ \t]*$/) in_tests = 0; next }
    if (/^\}/) in_tests = 0
    next
  }
  /^[ \t]*\/\// { next }
  # A re-export names an item without calling it.
  /^[ \t]*pub use / { in_reexport = 1 }
  in_reexport { if (/;/) in_reexport = 0; next }
  FILENAME ~ /^crates\/[^\/]+\/src\// &&
    match($0, /^[ \t]*pub (const fn|fn|struct|enum|trait|type|const)[ \t]+[A-Za-z_][A-Za-z0-9_]*/) {
    n = split(substr($0, RSTART, RLENGTH), w, /[ \t]+/)
    print "DEF", FILENAME, FNR, w[n]
  }
  {
    line = $0
    while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
      word = substr(line, RSTART, RLENGTH)
      if (!(word in seen)) { seen[word] = 1; print "USE", FILENAME, word }
      line = substr(line, RSTART + RLENGTH)
    }
  }
' $files | awk -v allow="$allow" '
  BEGIN {
    while ((getline entry < allow) > 0) {
      sub(/#.*/, "", entry)
      if (split(entry, f, /[ \t]+/) < 2 || f[1] == "") continue
      listed[f[1] " " f[2]] = 1
    }
  }
  $1 == "USE" {
    # Files mentioning the word: count them, keep one.
    if (!(($3, $2) in pair)) { pair[$3, $2] = 1; users[$3]++; one[$3] = $2 }
    next
  }
  { defs[++d] = $2 " " $3 " " $4 }
  END {
    bad = 0
    for (k = 1; k <= d; k++) {
      split(defs[k], f, " ")
      file = f[1]; name = f[3]
      if (users[name] > 1 || (users[name] == 1 && one[name] != file)) continue
      key = file " " name
      if (key in listed) { used[key] = 1; continue }
      printf "%s:%s pub %s: no caller outside its own file\n", file, f[2], name
      bad = 1
    }
    for (key in listed) if (!(key in used)) {
      printf "%s: stale allowlist entry (no longer a hit)\n", key
      bad = 1
    }
    exit bad
  }
'
