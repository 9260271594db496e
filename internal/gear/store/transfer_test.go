package store

import (
	"sync"
	"testing"
	"time"

	"github.com/gear-image/gear/internal/gear/index"
	"github.com/gear-image/gear/internal/gear/viewer"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/telemetry"
	"github.com/gear-image/gear/internal/vfs"
)

// Every transfer is accounted once, three ways: whatever moved, the
// OnTransfer calls, the store.* totals and their peer and prefetch
// splits describe the same objects and bytes, and only the speculative
// classes move store.prefetch.*.
func TestEveryTransferIsAccountedOnceThreeWays(t *testing.T) {
	type env struct {
		opts Options
		ix   *index.Index
		ref  string
	}
	web := func(t *testing.T) env {
		ix, reg := fixture(t)
		return env{Options{Remote: reg}, ix, "web:v1"}
	}
	chunked := func(t *testing.T) env {
		ix, reg, _ := chunkedFixture(t, 65536, 4096)
		return env{Options{Remote: reg}, ix, "ai:v1"}
	}
	fingerprints := func(ix *index.Index) []hashing.Fingerprint {
		var fps []hashing.Fingerprint
		walkEntries(ix.Root, "", func(_ string, e *index.Entry) {
			if e.Type == vfs.TypeRegular {
				fps = append(fps, e.Fingerprint)
			}
		})
		return fps
	}
	rows := []struct {
		name  string
		setup func(t *testing.T) env
		run   func(t *testing.T, s *Store, e env) error
		// calls is how many OnTransfer calls the row makes; op and class
		// are what every one of them says.
		calls        int
		op, class    string
		peer, window bool
	}{
		{
			name: "whole-file fault", setup: web,
			run: func(t *testing.T, s *Store, e env) error {
				_, err := mustContainer(t, s, e.ref).ReadFile("/bin/app")
				return err
			},
			calls: 1, op: "fault", class: telemetry.ClassDemand,
		},
		{
			// Three chunks, one round trip.
			name: "chunk-span read", setup: chunked,
			run: func(t *testing.T, s *Store, e env) error {
				_, err := mustContainer(t, s, e.ref).ReadAt("/model", 4096, 3*4096)
				return err
			},
			calls: 1, op: "fault", class: telemetry.ClassDemand,
		},
		{
			// The row is the two chunks read ahead; the demanded chunk
			// before them is cached first so that it moves nothing here.
			name: "readahead",
			setup: func(t *testing.T) env {
				e := chunked(t)
				e.opts.ChunkReadahead = 2
				return e
			},
			run: func(t *testing.T, s *Store, e env) error {
				head := e.ix.Lookup("/model").Chunks[0].Fingerprint
				data, _, err := e.opts.Remote.Download(head)
				if err != nil {
					return err
				}
				if _, err := s.cache.Put(head, data); err != nil {
					return err
				}
				_, err = mustContainer(t, s, e.ref).ReadAt("/model", 0, 10)
				s.WaitReadahead()
				return err
			},
			calls: 2, op: "readahead", class: telemetry.ClassPrefetch,
		},
		{
			name: "range read",
			setup: func(t *testing.T) env {
				e := web(t)
				e.opts.RangeReads = true
				return e
			},
			run: func(t *testing.T, s *Store, e env) error {
				_, err := mustContainer(t, s, e.ref).ReadAt("/bin/app", 100, 50)
				return err
			},
			calls: 1, op: "rangefault", class: telemetry.ClassDemand,
		},
		{
			name: "FetchAll demand window",
			setup: func(t *testing.T) env {
				ix, reg := bigFixture(t, 12)
				return env{Options{Remote: reg, FetchWorkers: 3}, ix, "big:v1"}
			},
			run: func(t *testing.T, s *Store, e env) error {
				w, err := s.FetchAll(fingerprints(e.ix))
				if len(w.Streams) != 3 || w.Prefetch {
					t.Errorf("window = %+v, want 3 demand streams", w)
				}
				return err
			},
			calls: 1, op: "fetch", class: telemetry.ClassDemand, window: true,
		},
		{
			// Five profile entries replay in groups of replayGroup: two
			// windows.
			name: "profile-replay window",
			setup: func(t *testing.T) env {
				ix, fps, reg := prefetchFixture(t)
				return env{Options{Remote: reg, Profiles: startupProfile(t, fps)}, ix, "web:v1"}
			},
			run: func(t *testing.T, s *Store, e env) error {
				res, err := s.PrefetchProfile(e.ref)
				if res.Objects != 5 || res.Bytes != s.m.prefetchBytes.Value() {
					t.Errorf("replay result = %+v, store.prefetch.bytes = %d", res, s.m.prefetchBytes.Value())
				}
				return err
			},
			calls: 2, op: "fetch", class: telemetry.ClassPrefetch, window: true,
		},
		{
			name: "peer-served fault",
			setup: func(t *testing.T) env {
				ix, pool, reg := peerFixture(t, 4)
				return env{Options{Remote: reg, Peers: newFakePeers(pool)}, ix, "peered:v1"}
			},
			run: func(t *testing.T, s *Store, e env) error {
				_, err := mustContainer(t, s, e.ref).ReadFile("/data/f000")
				return err
			},
			calls: 1, op: "fault", class: telemetry.ClassDemand, peer: true,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			e := row.setup(t)
			var mu sync.Mutex
			var calls []Transfer
			e.opts.OnTransfer = func(tr Transfer) time.Duration {
				mu.Lock()
				calls = append(calls, tr)
				mu.Unlock()
				return 0
			}
			s := mustStore(t, e.opts)
			if err := s.AddIndex(e.ix); err != nil {
				t.Fatal(err)
			}
			if err := row.run(t, s, e); err != nil {
				t.Fatal(err)
			}

			var hook, hookPrefetch, hookPeer StreamStat
			for _, c := range calls {
				if c.Op != row.op || c.Class != row.class || (c.Window != nil) != row.window {
					t.Errorf("OnTransfer(%+v): want op %s, class %s, window %v", c, row.op, row.class, row.window)
				}
				hook.add(c.Registry.Objects+c.Peer.Objects, c.Registry.Bytes+c.Peer.Bytes)
				hookPeer.add(c.Peer.Objects, c.Peer.Bytes)
				if c.Class == telemetry.ClassPrefetch {
					hookPrefetch.add(c.Registry.Objects, c.Registry.Bytes)
				}
				var streams StreamStat
				for _, st := range c.Window {
					streams.add(st.Objects, st.Bytes)
				}
				if row.window && streams != (StreamStat{Objects: c.Registry.Objects, Bytes: c.Registry.Bytes}) {
					t.Errorf("window streams sum to %+v, the transfer's registry traffic is %+v", streams, c.Registry)
				}
			}
			st := metrics(s)
			counters := StreamStat{
				Objects: int(st.Counter("store.remote.objects") + st.Counter("store.peer.objects")),
				Bytes:   st.Counter("store.remote.bytes") + st.Counter("store.peer.bytes"),
			}
			if hook.Bytes == 0 || hook != counters {
				t.Errorf("hook saw %+v, counters moved %+v; want one nonzero figure", hook, counters)
			}
			if got := (StreamStat{Objects: int(st.Counter("store.peer.objects")), Bytes: st.Counter("store.peer.bytes")}); got != hookPeer || (got.Objects > 0) != row.peer {
				t.Errorf("peer counters moved %+v, hook saw %+v from peers, want peer traffic = %v", got, hookPeer, row.peer)
			}
			if got := (StreamStat{Objects: int(st.Counter("store.prefetch.objects")), Bytes: st.Counter("store.prefetch.bytes")}); got != hookPrefetch ||
				(got.Objects > 0) != (row.class == telemetry.ClassPrefetch) {
				t.Errorf("store.prefetch.* moved %+v, prefetch-class transfers moved %+v (row class %s)", got, hookPrefetch, row.class)
			}
			if len(calls) != row.calls {
				t.Errorf("%d OnTransfer calls, want %d", len(calls), row.calls)
			}
		})
	}
}

func mustContainer(t *testing.T, s *Store, ref string) *viewer.Viewer {
	t.Helper()
	v, err := s.CreateContainer("c1", ref)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
