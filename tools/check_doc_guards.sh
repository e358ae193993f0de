#!/usr/bin/env bash
# Verifies that every service-surface module keeps its
# `#[deny(missing_docs)]` attribute.
#
# The attribute is what turns an undocumented public item into a hard
# build error (the real enforcement happens in `cargo build`/`clippy`);
# this script only keeps the attribute itself from being silently
# dropped in a refactor. It replaces the ad-hoc `grep -B1` pipeline the
# CI workflow used to inline: one data-driven list, runnable locally
# (`./tools/check_doc_guards.sh`) and from CI.
#
# To guard a new module: add `#[deny(missing_docs)]` above its
# `pub mod <name>;` declaration and append "<lib.rs path>:<name>" below.
set -euo pipefail
cd "$(dirname "$0")/.."

GUARDS=(
  "crates/core/src/lib.rs:endpoint"
  "crates/core/src/lib.rs:epoch"
  "crates/core/src/lib.rs:session"
  "crates/core/src/lib.rs:snapshot"
  "crates/core/src/lib.rs:error"
  "crates/agent/src/lib.rs:fleet"
  "crates/agent/src/lib.rs:metrics"
  "crates/datasets/src/lib.rs:scenario"
  "crates/eval/src/lib.rs:window"
  "crates/linalg/src/lib.rs:simd"
  "crates/ops/src/lib.rs:export"
  "crates/ops/src/lib.rs:handle"
  "crates/ops/src/lib.rs:health"
  "crates/ops/src/lib.rs:quality"
  "crates/service/src/lib.rs:client"
  "crates/service/src/lib.rs:connection"
  "crates/service/src/lib.rs:loopback"
  "crates/service/src/lib.rs:metrics"
  "crates/service/src/lib.rs:partition"
  "crates/service/src/lib.rs:protocol"
  "crates/service/src/lib.rs:service"
)

fail=0
for guard in "${GUARDS[@]}"; do
  file="${guard%%:*}"
  module="${guard##*:}"
  if ! grep -B1 "pub mod ${module};" "$file" | grep -q "deny(missing_docs)"; then
    echo "MISSING doc guard: ${file}: pub mod ${module} lost #[deny(missing_docs)]" >&2
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "doc guards OK (${#GUARDS[@]} modules)"
