#!/bin/sh
# Run the hot-path layer microbenchmarks with -benchmem and fail on
# allocation regressions (>20% B/op or allocs/op) against the committed
# baseline. Refresh the baseline after a deliberate change with:
#
#   ./scripts/benchguard.sh -update
set -eu
cd "$(dirname "$0")/.."
PKGS="./internal/hashing ./internal/vfs ./internal/corpus ./internal/cache ./internal/imagefmt ./internal/tarstream ./internal/overlay ./internal/gear/index ./internal/gear/convert ./internal/gear/viewer ./internal/gear/store ./internal/telemetry ./internal/shardreg ./internal/gearregistry ./internal/wire ./internal/dockersim"
OUT="${BENCH_OUT:-$(mktemp)}"
# shellcheck disable=SC2086
go test -run '^$' -bench . -benchmem -count=3 $PKGS | tee "$OUT.raw"
grep -E '^(goos|goarch|pkg:|Benchmark)' "$OUT.raw" > "$OUT"
if [ "${1:-}" = "-update" ]; then
  cp "$OUT" scripts/bench_baseline.txt
  echo "refreshed scripts/bench_baseline.txt"
  exit 0
fi
go run ./cmd/benchguard -baseline scripts/bench_baseline.txt -current "$OUT"
