#!/usr/bin/env bash
# codelines: count the non-test Go code lines the ROADMAP and README quote
# for code size. A line counts unless it is blank or a // comment;
# _test.go files and loadbench/ (the benchmark, sized on its own) are
# left out. Prints "<lines> <directory>" per directory, then the total.
#
#   scripts/codelines.sh            # every directory and the total
#   scripts/codelines.sh | tail -1  # the total only
set -euo pipefail
cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path './loadbench/*' -print0 |
  xargs -0 grep -HcvE '^\s*$|^\s*//' |
  awk -F: '{
      d = $1; sub(/\/[^\/]*$/, "", d); sub(/^\.\/?/, "", d)
      if (d == "") d = "."
      n[d] += $2; total += $2
    }
    END {
      for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"
      close("sort -k2")
      printf "%6d total\n", total
    }'
