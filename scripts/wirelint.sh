#!/usr/bin/env bash
# wirelint: fail the build when non-test code outside internal/wire
# reads a body with io.ReadAll, serves with bare http.Serve, answers
# 405 itself, writes a reply body to the ResponseWriter itself, or names
# net/http's default client or transport — or when any non-test code
# outside loadbench/ builds a net/http transport, probes a gearregistry
# store for a verb, renames a converted image outside the converter,
# builds a remote client a second way, or builds a fleet by hand.
#
# Every HTTP protocol in the repo, all five, is a verb table over
# internal/wire (DESIGN.md, "Wire protocols"): the client helper bounds
# and drains replies, the server helper owns 404/405 and the
# request-body bound, wire.Serve owns timeouts and shutdown, and
# wire.Respond is the one body writer, which is what makes every reply
# declare its length. Any of the patterns outside it is a hand-rolled
# protocol growing back — add a verb to a table, and answer through
# wire.Respond, instead.
# internal/tarstream (gunzip, not HTTP) and loadbench/ (the benchmark's
# own harness) are exempt.
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

# A reply body written to the ResponseWriter itself bypasses
# wire.Respond, goes out unsized, and is chunked as soon as it outgrows
# net/http's 2 KiB buffer. The check reads each function that is handed
# a ResponseWriter, under whatever name, from the line that names it to
# the closing brace gofmt puts at that line's indentation (or to the end
# of that line, when it does not open a block).
unsized=$(find . -name '*.go' ! -name '*_test.go' \
    ! -path './internal/wire/*' ! -path './loadbench/*' -print0 \
  | xargs -0 awk '
    FNR == 1 { name = "" }
    name == "" && match($0, /[A-Za-z_][A-Za-z_0-9]* http\.ResponseWriter/) {
      name = substr($0, RSTART, RLENGTH); sub(/ .*/, "", name)
      match($0, /^[ \t]*/); indent = RLENGTH
      oneline = ($0 !~ /{[ \t]*$/)
    }
    name != "" {
      if ($0 ~ ("(^|[^A-Za-z_0-9.])" name "\\.Write\\(") || $0 ~ ("fmt\\.Fprint(f|ln)?\\(" name "[,)]"))
        print FILENAME ":" FNR ": " $0
      match($0, /^[ \t]*/)
      if (oneline || (RLENGTH == indent && $0 ~ /^[ \t]*}/)) name = ""
    }')
if [ -n "$unsized" ]; then
  echo "wirelint: reply body written around wire.Respond:" >&2
  printf '%s\n' "$unsized" >&2
  echo "  build the body and answer through wire.Respond / RespondObject / RespondFrames" >&2
  exit 1
fi

# wire.NewClient gives a client without a transport the package's own
# (internal/wire/transport.go): pooled request-body copies, an idle pool
# the size of a fetch wave, no Accept-Encoding. A client built around
# net/http's default bypasses all three without saying so.
defaults=$(grep -rn --include='*.go' -E 'http\.Default(Client|Transport)' . \
  | grep -v '_test\.go:' \
  | grep -v -E '^\./(internal/wire|loadbench)/' || true)
if [ -n "$defaults" ]; then
  echo "wirelint: net/http's default client or transport outside internal/wire:" >&2
  printf '%s\n' "$defaults" >&2
  echo "  pass wire.NewClient a nil client, or one that names its own Transport" >&2
  exit 1
fi

# internal/wire's transport is the one the product builds: a second
# net/http transport, built or cloned anywhere outside loadbench/ —
# internal/wire included — is a second set of connection rules.
transports=$(grep -rn --include='*.go' -E 'http\.Transport\{|Transport\)\.Clone\(\)' . \
  | grep -v '_test\.go:' \
  | grep -v -E '^\./loadbench/' || true)
if [ -n "$transports" ]; then
  echo "wirelint: a net/http transport built outside loadbench/:" >&2
  printf '%s\n' "$transports" >&2
  echo "  let wire.NewClient carry the client on internal/wire's transport" >&2
  exit 1
fi

# gearregistry.Store is the one six-verb contract, and viewer.Resolver
# the one two-verb contract above it: a type assertion to one of their
# parts, or an error for a verb a store or resolver lacks, is the
# optional-verb ladder growing back.
ladder=$(grep -rn --include='*.go' -E '\.\(gearregistry\.[A-Za-z]+\)|ErrRangeUnsupported|\.\((viewer\.)?RangeResolver\)|ErrNotChunked' . \
  | grep -v '_test\.go:' \
  | grep -v -E '^\./loadbench/' || true)
if [ -n "$ladder" ]; then
  echo "wirelint: a store or resolver probed for a verb:" >&2
  printf '%s\n' "$ladder" >&2
  echo "  gearregistry.Store and viewer.Resolver carry every verb — call it" >&2
  exit 1
fi

# A Gear image is named once, inside Convert (convert.Options.IndexPrefix),
# and published by Pusher.Push. Code that renames a Result's index and
# re-encodes its index image writes to a Result the converter may hand
# out again and prices the image twice.
renames=$(grep -rn --include='*.go' -E '\.Index\.Name = |IndexImage = ' . \
  | grep -v '_test\.go:' \
  | grep -v -E '^\./internal/gear/convert/' || true)
if [ -n "$renames" ]; then
  echo "wirelint: a converted image renamed outside the converter:" >&2
  printf '%s\n' "$renames" >&2
  echo "  set convert.Options.IndexPrefix and publish the Result as Convert returned it" >&2
  exit 1
fi

# Each remote client has one constructor, NewClient(baseURL, hc), and
# sends each request once; a deadline is hc.Timeout. A retry policy, a
# second constructor that takes one, or the tracker's second stats verb
# beside /peer/metrics is a second way in growing back.
twins=$(grep -rn --include='*.go' -E 'clientopt|RetryStore|WithOptions\(|"/peer/stats"' . \
  | grep -v '_test\.go:' \
  | grep -v -E '^\./loadbench/' || true)
if [ -n "$twins" ]; then
  echo "wirelint: a second way to build a client or read a tracker's stats:" >&2
  printf '%s\n' "$twins" >&2
  echo "  build the client with NewClient(baseURL, hc) and set hc.Timeout; read /peer/metrics" >&2
  exit 1
fi
# A multi-client fleet — its topology, peer tracker and shard tier — is
# built in one place, fleet.New, so every caller prices the same link
# classes and seeds the tier the same way; a tier-only caller builds a
# harness and joins no node. A constructor called anywhere else is a
# hand-built fleet growing back. loadbench/ (the benchmark's own
# harness) and the public facade gear.go are exempt.
fleets=$(grep -rn --include='*.go' -E 'shardreg\.New\(|netsim\.NewTopology\(|peer\.NewTracker\(' . \
  | grep -v '_test\.go:' \
  | grep -v -E '^\./(internal/fleet/|loadbench/|gear\.go:)' || true)
if [ -n "$fleets" ]; then
  echo "wirelint: a fleet, topology or shard tier built outside internal/fleet:" >&2
  printf '%s\n' "$fleets" >&2
  echo "  build it with fleet.New" >&2
  exit 1
fi
echo "wirelint: ok"
