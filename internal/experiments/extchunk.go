package experiments

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"time"

	"github.com/gear-image/gear/internal/gear/index"
	"github.com/gear-image/gear/internal/gear/store"
	"github.com/gear-image/gear/internal/gear/viewer"
	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/netsim"
	"github.com/gear-image/gear/internal/vfs"
)

// The chunked lazy-loading study: the AI/big-model workload of the
// ROADMAP — a container whose startup touches only the head of one
// large model file. Whole-file Gear stalls that startup on the entire
// file; content-defined chunking stalls it on just the chunks the read
// overlaps, faulted through the bounded fetch window. The sweep runs
// file size x chunk size x window budget, verifies exact client byte
// parity and the window's peak-occupancy bound, and checks that a
// build with chunking disabled degenerates to the whole-file path in
// both bytes and modeled timing.

// ExtChunkPoint is one (file size, chunk size, window budget) sample.
type ExtChunkPoint struct {
	FileBytes   int64 `json:"fileBytes"`
	ChunkAvg    int64 `json:"chunkAvg"`
	WindowBytes int64 `json:"windowBytes"`
	// Chunks is how many pieces the CDC policy cut the file into.
	Chunks int `json:"chunks"`
	// HeadBytes is the startup read; DemandRequests/DemandBytes are the
	// wire traffic it faulted (only the overlapping chunks).
	HeadBytes      int64 `json:"headBytes"`
	DemandRequests int64 `json:"demandRequests"`
	DemandBytes    int64 `json:"demandBytes"`
	// FirstReadStall is the modeled link time of the demand traffic;
	// WholeFileStall is what the same read stalls on the unchunked path
	// (the entire file, one request).
	FirstReadStall time.Duration `json:"firstReadStall"`
	WholeFileStall time.Duration `json:"wholeFileStall"`
	// PeakWindowBytes is the measured high-water mark of in-flight chunk
	// bytes across the full-file read; WindowOK asserts it stayed within
	// the configured budget.
	PeakWindowBytes int64 `json:"peakWindowBytes"`
	WindowOK        bool  `json:"windowOK"`
	// ParityOK reports the head read, the full read, and the total wire
	// volume were all byte-exact.
	ParityOK bool `json:"parityOK"`
}

// ExtChunkDegen is the degeneration check for one file size: chunking
// disabled at build time must reproduce the whole-file path exactly —
// one request, the whole file on the wire, and the identical modeled
// stall.
type ExtChunkDegen struct {
	FileBytes int64         `json:"fileBytes"`
	Requests  int64         `json:"requests"`
	WireBytes int64         `json:"wireBytes"`
	Stall     time.Duration `json:"stall"`
	// BytesExact is one-request/whole-file equality; TimingExact is
	// stall equality with the chunked points' WholeFileStall reference;
	// ParityOK is client byte equality.
	BytesExact  bool `json:"bytesExact"`
	TimingExact bool `json:"timingExact"`
	ParityOK    bool `json:"parityOK"`
}

// ExtChunkResult is the chunked lazy-loading sweep.
type ExtChunkResult struct {
	WANMbps float64         `json:"wanMbps"`
	Points  []ExtChunkPoint `json:"points"`
	Degen   []ExtChunkDegen `json:"degen"`
}

// Sweep axes. Every file exceeds every policy's maximum chunk size
// (4x the average), so each point actually chunks; window budgets stay
// at or above the maximum chunk size so the bound is a true ceiling
// rather than the oversized-chunk serial degeneration.
var (
	extChunkFiles   = []int64{256 << 10, 1 << 20}
	extChunkAvgs    = []int64{8 << 10, 32 << 10}
	extChunkWindows = []int64{128 << 10, 512 << 10}
)

const extChunkWANMbps = 20

// extChunkModel builds the one-big-file image: /model of size bytes
// plus a tiny launcher, from the run's seeded stream.
func extChunkModel(seed, size int64) (*vfs.FS, []byte, error) {
	root := vfs.New()
	model := make([]byte, size)
	rand.New(rand.NewSource(seed ^ size)).Read(model)
	if err := root.WriteFile("/model", model, 0o644); err != nil {
		return nil, nil, err
	}
	if err := root.MkdirAll("/bin", 0o755); err != nil {
		return nil, nil, err
	}
	if err := root.WriteFile("/bin/start", []byte("#!/bin/sh\nexec serve /model\n"), 0o755); err != nil {
		return nil, nil, err
	}
	return root, model, nil
}

// extChunkDeploy publishes root under pol into a fresh registry and
// returns a store-backed viewer over it. The registry stores raw bytes
// (Compress off) so wire volume equals chunk volume exactly.
func extChunkDeploy(root *vfs.FS, pol index.ChunkPolicy, window int64) (*store.Store, *viewer.Viewer, error) {
	ix, pool, err := index.BuildPolicy("ai", "v1", imagefmt.Config{}, root, nil, pol, 1)
	if err != nil {
		return nil, nil, err
	}
	reg := gearregistry.New(gearregistry.Options{})
	for fp, data := range pool {
		if err := reg.Upload(fp, data); err != nil {
			return nil, nil, err
		}
	}
	s, err := store.New(store.Options{Remote: reg, ChunkWindowBytes: window})
	if err != nil {
		return nil, nil, err
	}
	if err := s.AddIndex(ix); err != nil {
		return nil, nil, err
	}
	v, err := s.CreateContainer("c1", "ai:v1")
	if err != nil {
		return nil, nil, err
	}
	return s, v, nil
}

// RunExtChunk sweeps file size x chunk size x window budget over the
// big-model startup read and verifies the degeneration path.
func RunExtChunk(cfg Config) (*ExtChunkResult, error) {
	res := &ExtChunkResult{WANMbps: extChunkWANMbps}
	linkCfg := cfg.link(extChunkWANMbps)

	for _, fileSize := range extChunkFiles {
		root, model, err := extChunkModel(cfg.Seed, fileSize)
		if err != nil {
			return nil, err
		}
		headBytes := fileSize / 8

		// The whole-file reference: one request carrying the full file.
		wholeLink, err := netsim.NewLink(linkCfg)
		if err != nil {
			return nil, err
		}
		wholeStall, err := wholeLink.TransferQuote(1, fileSize)
		if err != nil {
			return nil, err
		}

		for _, avg := range extChunkAvgs {
			chunks, err := index.CDCChunks(avg).Split(model)
			if err != nil {
				return nil, err
			}
			for _, window := range extChunkWindows {
				point := ExtChunkPoint{
					FileBytes:      fileSize,
					ChunkAvg:       avg,
					WindowBytes:    window,
					Chunks:         len(chunks),
					HeadBytes:      headBytes,
					WholeFileStall: wholeStall,
				}
				s, v, err := extChunkDeploy(root, index.CDCChunks(avg), window)
				if err != nil {
					return nil, err
				}
				head, err := v.ReadAt("/model", 0, headBytes)
				if err != nil {
					return nil, err
				}
				st := s.Stats()
				point.DemandRequests = st.RemoteObjects
				point.DemandBytes = st.RemoteBytes
				link, err := netsim.NewLink(linkCfg)
				if err != nil {
					return nil, err
				}
				if point.FirstReadStall, err = link.TransferQuote(int(point.DemandRequests), point.DemandBytes); err != nil {
					return nil, err
				}
				// Full read: every remaining chunk faults through the window.
				full, err := v.ReadFile("/model")
				if err != nil {
					return nil, err
				}
				after := s.Stats()
				point.PeakWindowBytes = s.ChunkWindowPeak()
				point.WindowOK = point.PeakWindowBytes <= window
				point.ParityOK = bytes.Equal(head, model[:headBytes]) &&
					bytes.Equal(full, model) &&
					after.RemoteBytes == fileSize &&
					after.RemoteObjects == int64(len(chunks))
				res.Points = append(res.Points, point)
			}
		}

		// Degeneration: chunking off reproduces the whole-file path in
		// bytes and modeled timing.
		s, v, err := extChunkDeploy(root, index.ChunkPolicy{}, 0)
		if err != nil {
			return nil, err
		}
		head, err := v.ReadAt("/model", 0, headBytes)
		if err != nil {
			return nil, err
		}
		st := s.Stats()
		degen := ExtChunkDegen{
			FileBytes: fileSize,
			Requests:  st.RemoteObjects,
			WireBytes: st.RemoteBytes,
		}
		degenLink, err := netsim.NewLink(linkCfg)
		if err != nil {
			return nil, err
		}
		if degen.Stall, err = degenLink.TransferQuote(int(st.RemoteObjects), st.RemoteBytes); err != nil {
			return nil, err
		}
		degen.BytesExact = st.RemoteObjects == 1 && st.RemoteBytes == fileSize
		degen.TimingExact = degen.Stall == wholeStall
		degen.ParityOK = bytes.Equal(head, model[:headBytes])
		res.Degen = append(res.Degen, degen)
	}
	return res, nil
}

// Print renders the sweep. PeakWindowBytes is not a column: it is a
// high-water mark over real goroutines, so it varies run to run, and
// the report is compared exactly (testdata/all_mini.golden). Its
// verdict, "bound", is deterministic and stays.
func (r *ExtChunkResult) Print(w io.Writer) {
	fmt.Fprintf(w, "big-model startup read (head 1/8 of file) @ %g Mbps\n", r.WANMbps)
	fmt.Fprintf(w, "%-9s %-9s %-9s %7s %10s %12s %12s %7s %7s\n",
		"file", "chunk", "window", "chunks", "demand", "first stall", "whole stall", "bound", "parity")
	for i := range r.Points {
		p := &r.Points[i]
		fmt.Fprintf(w, "%-9s %-9s %-9s %7d %10s %12s %12s %7v %7v\n",
			kb(p.FileBytes), kb(p.ChunkAvg), kb(p.WindowBytes), p.Chunks,
			kb(p.DemandBytes), p.FirstReadStall.Round(time.Microsecond),
			p.WholeFileStall.Round(time.Microsecond), p.WindowOK, p.ParityOK)
	}
	for i := range r.Points {
		p := &r.Points[i]
		if p.FirstReadStall > 0 && i == 0 {
			fmt.Fprintf(w, "stall reduction at first point = %.1fx\n",
				float64(p.WholeFileStall)/float64(p.FirstReadStall))
		}
	}
	for _, d := range r.Degen {
		fmt.Fprintf(w, "degeneration %s: %d req / %s wire, stall %v (bytes exact %v, timing exact %v, parity %v)\n",
			kb(d.FileBytes), d.Requests, kb(d.WireBytes), d.Stall.Round(time.Microsecond),
			d.BytesExact, d.TimingExact, d.ParityOK)
	}
}

// kb renders bytes as KB.
func kb(n int64) string { return fmt.Sprintf("%d KB", n>>10) }
