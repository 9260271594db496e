package netsim

import (
	"errors"
	"testing"
	"time"
)

// TestTransferWindowEdgeCases drives the fair-share window through the
// degenerate inputs a fleet harness can produce — empty windows,
// latency-only streams, zero or vanishing bandwidth, impossible stream
// parameters — and checks each returns a typed error or a finite cost
// instead of hanging or dividing by zero. A stream's setup latency comes
// from its link, so a bandwidth or latency the window could not price is
// a configuration NewLink refuses.
func TestTransferWindowEdgeCases(t *testing.T) {
	lan := DefaultLAN()
	tests := []struct {
		name    string
		cfg     LinkConfig
		streams []Stream
		wantErr error
		// min and max bound the window cost when no error is wanted.
		min, max time.Duration
	}{
		{
			name: "empty window",
			cfg:  lan,
		},
		{
			name:    "latency-only stream",
			cfg:     LinkConfig{BytesPerSecond: lan.BytesPerSecond, RTT: time.Millisecond},
			streams: []Stream{{Requests: 1}},
			min:     time.Millisecond,
			max:     time.Millisecond,
		},
		{
			name:    "single byte stream",
			cfg:     lan,
			streams: []Stream{{Bytes: 1, Requests: 1}},
			min:     time.Nanosecond,
			max:     time.Second,
		},
		{
			name:    "zero bandwidth",
			cfg:     LinkConfig{BytesPerSecond: 0},
			streams: []Stream{{Bytes: 100, Requests: 1}},
			wantErr: ErrBadLink,
		},
		{
			name:    "negative bandwidth",
			cfg:     LinkConfig{BytesPerSecond: -1},
			streams: []Stream{{Bytes: 100, Requests: 1}},
			wantErr: ErrBadLink,
		},
		{
			name: "tiny bandwidth stays finite",
			cfg:  LinkConfig{BytesPerSecond: 1},
			streams: []Stream{
				{Bytes: 3, Requests: 1},
				{Bytes: 2, Requests: 1},
			},
			min: 4 * time.Second,
			max: 6 * time.Second,
		},
		{
			name:    "negative bytes",
			cfg:     lan,
			streams: []Stream{{Bytes: -5, Requests: 1}},
			wantErr: ErrBadStream,
		},
		{
			name:    "negative latency",
			cfg:     LinkConfig{BytesPerSecond: 1, RTT: -time.Second},
			streams: []Stream{{Bytes: 5, Requests: 1}},
			wantErr: ErrBadLink,
		},
		{
			name:    "negative requests",
			cfg:     lan,
			streams: []Stream{{Bytes: 5, Requests: -1}},
			wantErr: ErrBadStream,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			link, err := NewLink(tt.cfg)
			var makespan time.Duration
			if err == nil {
				makespan, err = link.TransferWindow(tt.streams)
			}
			if tt.wantErr != nil {
				if !errors.Is(err, tt.wantErr) {
					t.Fatalf("window error = %v, want %v", err, tt.wantErr)
				}
				if makespan != 0 || (link != nil && link.Stats() != Stats{}) {
					t.Errorf("invalid input still cost %v and recorded %+v", makespan, link.Stats())
				}
				return
			}
			if err != nil {
				t.Fatalf("TransferWindow: %v", err)
			}
			if makespan < tt.min || makespan > tt.max {
				t.Errorf("makespan = %v, want within [%v, %v]", makespan, tt.min, tt.max)
			}
			// The recorded window agrees with the simulation.
			finish, want := fairShare(tt.cfg, tt.streams)
			if len(finish) != len(tt.streams) {
				t.Fatalf("finish has %d entries for %d streams", len(finish), len(tt.streams))
			}
			if makespan != want || link.Stats().Elapsed != want {
				t.Errorf("TransferWindow = %v (elapsed %v), simulation makespan = %v",
					makespan, link.Stats().Elapsed, want)
			}
		})
	}
}

// TestTopologyEdgeCases covers fleet-shaped topology edges: the
// single-node fleet, node detach (including mid-window transfer
// attempts), double detach, and rejoin-after-churn stats continuity.
func TestTopologyEdgeCases(t *testing.T) {
	wan := DefaultLAN().WithBandwidth(20)
	lan := DefaultLAN().WithBandwidth(1000)

	t.Run("single-node fleet", func(t *testing.T) {
		topo, err := NewTopology(wan, lan)
		if err != nil {
			t.Fatal(err)
		}
		n := topo.Node("only")
		if _, err := n.WAN.Transfer(1, 1000); err != nil {
			t.Fatalf("single-node transfer: %v", err)
		}
		if got := topo.WANStats().Bytes; got != 1000 {
			t.Errorf("WAN bytes = %d, want 1000", got)
		}
		if got := topo.LANStats().Bytes; got != 0 {
			t.Errorf("LAN bytes = %d, want 0 (no peers to talk to)", got)
		}
	})

	t.Run("detach unknown node", func(t *testing.T) {
		topo, err := NewTopology(wan, lan)
		if err != nil {
			t.Fatal(err)
		}
		if err := topo.Detach("ghost"); !errors.Is(err, ErrUnknownNode) {
			t.Errorf("Detach(ghost) = %v, want ErrUnknownNode", err)
		}
	})

	t.Run("detach closes links mid-transfer", func(t *testing.T) {
		topo, err := NewTopology(wan, lan)
		if err != nil {
			t.Fatal(err)
		}
		n := topo.Node("a")
		n.WAN.Transfer(1, 500)
		if err := topo.Detach("a"); err != nil {
			t.Fatalf("Detach: %v", err)
		}
		// Every transfer shape on the detached node's links is a typed
		// error, not a hang or silent accounting: a refused transfer costs
		// nothing and records nothing rather than pricing traffic for a
		// node that left.
		before := topo.WANStats()
		if cost, err := n.WAN.Transfer(3, 100); !errors.Is(err, ErrLinkClosed) || cost != 0 {
			t.Errorf("Transfer after detach = %v, %v, want 0, ErrLinkClosed", cost, err)
		}
		if _, err := n.WAN.TransferQuote(1, 100); !errors.Is(err, ErrLinkClosed) {
			t.Errorf("TransferQuote after detach = %v, want ErrLinkClosed", err)
		}
		if _, err := n.LAN.TransferWindow([]Stream{{Bytes: 10, Requests: 1}}); !errors.Is(err, ErrLinkClosed) {
			t.Errorf("TransferWindow after detach = %v, want ErrLinkClosed", err)
		}
		if after := topo.WANStats(); after != before {
			t.Errorf("closed-link transfer changed stats: %+v -> %+v", before, after)
		}
		if err := topo.Detach("a"); !errors.Is(err, ErrUnknownNode) {
			t.Errorf("double Detach = %v, want ErrUnknownNode", err)
		}
	})

	t.Run("rejoin keeps aggregate stats monotonic", func(t *testing.T) {
		topo, err := NewTopology(wan, lan)
		if err != nil {
			t.Fatal(err)
		}
		old := topo.Node("a")
		old.WAN.Transfer(1, 700)
		if err := topo.Detach("a"); err != nil {
			t.Fatal(err)
		}
		fresh := topo.Node("a")
		if fresh == old {
			t.Error("rejoin returned the detached attachment")
		}
		if fresh.WAN.Closed() {
			t.Error("rejoined node got a closed link")
		}
		fresh.WAN.Transfer(1, 300)
		if got := topo.WANStats().Bytes; got != 1000 {
			t.Errorf("WAN bytes across churn = %d, want 1000 (700 pre-detach + 300 post)", got)
		}
	})

	t.Run("degrade and recover WAN", func(t *testing.T) {
		topo, err := NewTopology(wan, lan)
		if err != nil {
			t.Fatal(err)
		}
		a := topo.Node("a")
		fast := priced(a.WAN.TransferQuote(1, 1<<20))
		if err := topo.SetWANConfig(wan.WithBandwidth(2)); err != nil {
			t.Fatalf("SetWANConfig: %v", err)
		}
		slow := priced(a.WAN.TransferQuote(1, 1<<20))
		if slow <= fast {
			t.Errorf("degraded cost %v not above healthy cost %v", slow, fast)
		}
		// New attachments inherit the degraded config.
		b := topo.Node("b")
		if got := priced(b.WAN.TransferQuote(1, 1<<20)); got != slow {
			t.Errorf("new node cost = %v, want degraded %v", got, slow)
		}
		if err := topo.SetWANConfig(LinkConfig{}); !errors.Is(err, ErrBadLink) {
			t.Errorf("SetWANConfig(zero) = %v, want ErrBadLink", err)
		}
		if err := topo.SetWANConfig(wan); err != nil {
			t.Fatalf("recover: %v", err)
		}
		if got := priced(a.WAN.TransferQuote(1, 1<<20)); got != fast {
			t.Errorf("recovered cost = %v, want %v", got, fast)
		}
	})
}
