package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/gear-image/gear/internal/dockersim"
	"github.com/gear-image/gear/internal/gear/convert"
	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/netsim"
	"github.com/gear-image/gear/internal/registry"
)

// ExtPushPoint is one worker-count sample of the push-engine sweep.
type ExtPushPoint struct {
	// Workers is both the converter's fingerprint pool and the pusher's
	// upload pool size (1 = the serial baseline).
	Workers int `json:"workers"`
	// PushTime is the summed modeled wall time of the rollout: conversion
	// on the modeled disk plus query/upload transfer on the modeled link.
	PushTime time.Duration `json:"pushTime"`
	// Speedup is PushTime(workers=1) / PushTime(workers).
	Speedup float64 `json:"speedup"`
	// QueryRoundTrips counts dedup query requests; with the batch
	// protocol this is one per image regardless of file count.
	QueryRoundTrips int64 `json:"queryRoundTrips"`
	// Uploaded/UploadedBytes are the Gear files (and payload bytes) that
	// actually crossed the wire; they must be identical at every worker
	// count (parallelism changes time, not volume).
	Uploaded      int   `json:"uploaded"`
	UploadedBytes int64 `json:"uploadedBytes"`
	// Skipped counts query-before-upload dedup hits across the rollout.
	Skipped int `json:"skipped"`
	// DedupRatio is Skipped over all queried fingerprints — the push-side
	// view of the paper's Fig 7 registry saving.
	DedupRatio float64 `json:"dedupRatio"`
}

// ExtPushResult is the concurrent-push-engine sweep: the same
// cold-registry category rollout converted and pushed with 1..16
// workers. Each image dedups its whole fingerprint set against the
// registry in one QueryBatch round trip, then uploads only the absent
// files through the bounded pool; the serial baseline pays one query and
// one upload round trip per file.
type ExtPushResult struct {
	// Series lists the pushed series (one per category).
	Series []string `json:"series"`
	// Images is the number of images pushed per point.
	Images int            `json:"images"`
	Points []ExtPushPoint `json:"points"`
	// WarmQueryRoundTrips/WarmUploads describe re-pushing an image whose
	// files all exist remotely: the dedup fast path must cost exactly one
	// query round trip and zero uploads.
	WarmQueryRoundTrips int `json:"warmQueryRoundTrips"`
	WarmUploads         int `json:"warmUploads"`
}

// extPushWorkers is the swept worker-count axis.
var extPushWorkers = []int{1, 2, 4, 8, 16}

// RunExtPush converts and pushes one series per category (versions
// capped) into fresh registries per worker count, so every point pays
// the full cold-registry cost and dedups only within the rollout.
func RunExtPush(cfg Config) (*ExtPushResult, error) {
	if cfg.SeriesPerCategory <= 0 {
		cfg.SeriesPerCategory = 1
	}
	if cfg.VersionsPerSeries <= 0 || cfg.VersionsPerSeries > 3 {
		cfg.VersionsPerSeries = 3
	}
	co, err := cfg.newCorpus(nil)
	if err != nil {
		return nil, err
	}
	series := cfg.pickSeries(co)

	res := &ExtPushResult{}
	for _, s := range series {
		res.Series = append(res.Series, s.Name)
	}
	reqBytes := int64(900 * cfg.Scale)
	linkCfg := cfg.link(904)

	for _, workers := range extPushWorkers {
		docker := registry.New()
		gear := gearregistry.New(gearregistry.Options{Compress: true})
		link, err := netsim.NewLink(linkCfg)
		if err != nil {
			return nil, err
		}
		conv, err := convert.New(convert.Options{Workers: workers, IndexPrefix: gearPrefix})
		if err != nil {
			return nil, err
		}
		pusher, err := convert.NewPusher(convert.PushOptions{
			Gear:         gear,
			PushWorkers:  workers,
			OnPushWindow: dockersim.PricePushWindow(link, reqBytes),
		})
		if err != nil {
			return nil, err
		}

		var convTime time.Duration
		p := ExtPushPoint{Workers: workers}
		images := 0
		var queried int
		var firstFiles map[hashing.Fingerprint][]byte
		for _, s := range series {
			for v := 0; v < s.NumVersions; v++ {
				img, err := co.Image(s.Name, v)
				if err != nil {
					return nil, err
				}
				cres, err := conv.Convert(img)
				if err != nil {
					return nil, err
				}
				convTime += cres.Timing.Total()
				indexBytes, window, err := pusher.Push(cres, docker)
				if err != nil {
					return nil, err
				}
				link.Transfer(1, indexBytes+reqBytes)
				p.QueryRoundTrips += int64(window.QueryRoundTrips)
				p.Uploaded += window.Uploaded()
				p.UploadedBytes += window.Bytes()
				p.Skipped += window.Skipped
				queried += window.Queried
				if firstFiles == nil {
					firstFiles = cres.Files
				}
				images++
			}
		}
		res.Images = images
		p.PushTime = convTime + link.Stats().Elapsed
		if queried > 0 {
			p.DedupRatio = float64(p.Skipped) / float64(queried)
		}
		if len(res.Points) == 0 {
			p.Speedup = 1
		} else {
			p.Speedup = float64(res.Points[0].PushTime) / float64(p.PushTime)
		}
		res.Points = append(res.Points, p)

		// Warm re-push on the last sweep point: every file of the first
		// image already exists remotely, so the dedup fast path must cost
		// exactly one QueryBatch round trip and zero uploads.
		if workers == extPushWorkers[len(extPushWorkers)-1] {
			warm, err := pusher.PushAll(firstFiles)
			if err != nil {
				return nil, err
			}
			res.WarmQueryRoundTrips = warm.QueryRoundTrips
			res.WarmUploads = warm.Uploaded()
		}
	}
	return res, nil
}

// Print renders the worker sweep.
func (r *ExtPushResult) Print(w io.Writer) {
	fmt.Fprintf(w, "cold-registry push rollout of %d images (%v), 904 Mbps link\n",
		r.Images, r.Series)
	fmt.Fprintf(w, "%-8s %14s %9s %9s %9s %12s %7s\n",
		"workers", "push time", "speedup", "queries", "uploads", "bytes", "dedup")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-8d %14s %8.2fx %9d %9d %12s %6.1f%%\n",
			p.Workers, p.PushTime.Round(time.Millisecond), p.Speedup,
			p.QueryRoundTrips, p.Uploaded, mb(p.UploadedBytes), 100*p.DedupRatio)
	}
	fmt.Fprintf(w, "warm re-push of a fully deduplicated image: %d query round trip(s), %d uploads\n",
		r.WarmQueryRoundTrips, r.WarmUploads)
	fmt.Fprintln(w, "uploads, bytes, and dedup ratio are identical at every worker count:")
	fmt.Fprintln(w, "the engine batches and overlaps round trips, it does not change what is pushed")
}
