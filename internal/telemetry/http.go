package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"github.com/gear-image/gear/internal/wire"
)

// Snapshotter is anything that can produce a metrics snapshot — a
// *Registry, or a component that refreshes derived gauges before
// delegating to one.
type Snapshotter interface {
	Snapshot() Snapshot
}

// Verb serves src's snapshot as JSON at path: the /metrics exposition
// row of the gear-registry, docker-registry, tracker, and profile
// servers' verb tables. encoding/json sorts map keys, so the body is
// deterministic for a given snapshot — golden tests rely on that.
func Verb(path string, src Snapshotter) wire.Verb {
	return wire.Verb{Method: http.MethodGet, Path: path, Serve: func(w http.ResponseWriter, _ *wire.Request) error {
		var body bytes.Buffer
		if err := EncodeSnapshot(&body, src.Snapshot()); err != nil {
			return err
		}
		wire.Respond(w, "application/json", body.Bytes())
		return nil
	}}
}

// EncodeSnapshot writes s as indented JSON (the /metrics wire format).
func EncodeSnapshot(w io.Writer, s Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// DecodeSnapshot parses a /metrics body and validates its structural
// invariants. This is the decoder behind gearctl's diff mode and the
// package's fuzz target: arbitrary input must produce an error or a
// valid snapshot, never a panic downstream.
func DecodeSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return Snapshot{}, fmt.Errorf("telemetry: decode snapshot: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Snapshot{}, err
	}
	return s, nil
}

// WriteText pretty-prints s for terminals: sorted sections, aligned
// values, histogram sums rendered as durations (histogram observations
// are nanoseconds by convention). Deterministic for a given snapshot.
func WriteText(w io.Writer, s Snapshot) {
	if len(s.Counters) > 0 {
		fmt.Fprintln(w, "counters:")
		for _, name := range sortedKeys(s.Counters) {
			fmt.Fprintf(w, "  %-32s %d\n", name, s.Counters[name])
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintln(w, "gauges:")
		for _, name := range sortedKeys(s.Gauges) {
			fmt.Fprintf(w, "  %-32s %d\n", name, s.Gauges[name])
		}
	}
	if len(s.Histograms) > 0 {
		fmt.Fprintln(w, "histograms:")
		names := make([]string, 0, len(s.Histograms))
		for name := range s.Histograms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			h := s.Histograms[name]
			mean := time.Duration(0)
			if h.Count > 0 {
				mean = time.Duration(h.Sum / h.Count)
			}
			fmt.Fprintf(w, "  %-32s count=%d sum=%s mean=%s\n",
				name, h.Count, time.Duration(h.Sum), mean)
		}
	}
	if len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Histograms) == 0 {
		fmt.Fprintln(w, "(empty snapshot)")
	}
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
