#!/usr/bin/env bash
# wirelint: fail the build when non-test code outside internal/wire
# reads a body with io.ReadAll, serves with bare http.Serve, or answers
# 405 itself.
#
# Every HTTP protocol in the repo is a verb table over internal/wire
# (DESIGN.md, "Wire protocols"): the client helper bounds and drains
# replies, the server helper owns 404/405 and the request-body bound,
# and wire.Serve owns timeouts and shutdown. Any of the three patterns
# outside it is a hand-rolled protocol growing back — add a verb to a
# table instead. internal/tarstream (gunzip, not HTTP) and loadbench/
# (the benchmark's own harness) are exempt.
set -euo pipefail
cd "$(dirname "$0")/.."

hits=$(grep -rn --include='*.go' -E 'io\.ReadAll\(|http\.Serve\(|http\.StatusMethodNotAllowed' . \
  | grep -v '_test\.go:' \
  | grep -v -E '^\./(internal/wire|internal/tarstream|loadbench)/' || true)

if [ -n "$hits" ]; then
  echo "wirelint: hand-rolled HTTP outside internal/wire:" >&2
  printf '%s\n' "$hits" >&2
  echo "  use wire.Client.Do / wire.NewHandler / wire.Serve instead" >&2
  exit 1
fi
echo "wirelint: ok"
