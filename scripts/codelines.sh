#!/usr/bin/env bash
# codelines: count the non-test Go code lines the ROADMAP and README quote
# for code size. A line counts unless it is blank or a // comment;
# _test.go files and loadbench/ (the benchmark, sized on its own) are
# left out. Prints "<lines> <directory>" per directory, then the total.
#
#   scripts/codelines.sh                   # every directory and the total
#   scripts/codelines.sh | tail -1         # the total only
#   scripts/codelines.sh -table            # the same as a markdown table
#   scripts/codelines.sh -check README.md  # fail unless the file's table
#                                          # (between <!-- codelines -->
#                                          # and <!-- /codelines -->) is
#                                          # the -table output
set -euo pipefail
export LC_ALL=C
file=""
if [ "${1:-}" = "-check" ]; then
  file=$(realpath "${2:?usage: codelines.sh -check FILE}")
fi
cd "$(dirname "$0")/.."

count() {
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
}

table() {
  echo '| directory | code lines |'
  echo '|---|---:|'
  count | awk '$2 == "total" { printf "| total | %d |\n", $1; next }
    { printf "| `%s` | %d |\n", $2, $1 }'
}

case "${1:-}" in
"") count ;;
-table) table ;;
-check)
  want=$(table)
  got=$(sed -n '/^<!-- codelines -->$/,/^<!-- \/codelines -->$/p' "$file" | sed '1d;$d')
  if [ "$got" != "$want" ]; then
    echo "codelines: the table in $file is not the current count; replace it with scripts/codelines.sh -table:" >&2
    diff <(echo "$got") <(echo "$want") >&2 || true
    exit 1
  fi
  echo "codelines: $file ok"
  ;;
*)
  echo "usage: codelines.sh [-table | -check FILE]" >&2
  exit 2
  ;;
esac
