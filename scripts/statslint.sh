#!/usr/bin/env bash
# statslint: fail the build when an exported *Stats struct is declared
# outside internal/telemetry and is not in scripts/stats_allowlist.txt,
# when an allowlist line names a struct that no longer exists, or when a
# component grows a second constructor or snapshot (below).
#
# The unified observability layer keeps one metrics registry per daemon
# (internal/telemetry), and counters are read there. The allowlist says
# why each remaining Stats struct stays. A brand-new Stats struct usually
# means new mutable counters outside the registry — publish them into a
# telemetry.Registry instead, or (for a value type) add the
# "path:TypeName" line to the allowlist in the same change.
set -euo pipefail
cd "$(dirname "$0")/.."

allow=scripts/stats_allowlist.txt
status=0

while IFS= read -r line; do
  [ -z "$line" ] && continue
  file=${line%%:*}
  file=${file#./}
  decl=$(printf '%s\n' "$line" | sed -E 's/^[^:]*:[0-9]+:type ([A-Za-z0-9_]*Stats) struct.*/\1/')
  key="${file}:${decl}"
  if ! grep -qxF "$key" "$allow"; then
    echo "statslint: new exported Stats struct: $key" >&2
    echo "  publish into internal/telemetry instead, or allowlist the view in $allow" >&2
    status=1
  fi
done < <(grep -rn --include='*.go' -E '^type [A-Za-z0-9_]*Stats struct' . \
  | grep -v '_test\.go:' | grep -v '^\./internal/telemetry/' || true)

# The other direction: a line whose type is gone is stale, and would let
# a deleted view come back under it unnoticed.
while IFS= read -r key; do
  file=${key%%:*}
  decl=${key#*:}
  if ! grep -qE "^type ${decl} struct" "$file" 2>/dev/null; then
    echo "statslint: stale allowlist line (no such Stats struct): $key" >&2
    echo "  delete the line from $allow" >&2
    status=1
  fi
done < <(grep -vE '^[[:space:]]*(#|$)' "$allow")

# One constructor and one snapshot per component: New is the only
# constructor, and Snapshot() is the telemetry.Snapshotter method. A
# New…WithTelemetry twin or a StatsSnapshot() beside Snapshot() is a
# second way in. internal/gearregistry keeps its StatsSnapshot for
# loadbench until that harness moves to Snapshot().
twins=$(grep -rn --include='*.go' -E '^func New[A-Za-z0-9_]*WithTelemetry\(|^func \([^)]*\) StatsSnapshot\(\)' . \
  | grep -v '_test\.go:' | grep -v '^\./internal/gearregistry/' || true)
if [ -n "$twins" ]; then
  echo "statslint: a second constructor or snapshot:" >&2
  printf '%s\n' "$twins" >&2
  echo "  fold the twin into New, and answer Snapshot() only" >&2
  status=1
fi

if [ "$status" -eq 0 ]; then
  echo "statslint: ok"
fi
exit $status
