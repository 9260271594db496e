// Big model: the paper's future-work extension (§VII) — "enable Gear to
// read big files on demand in chunks to better accelerate containers
// that need to download big files, such as AI containers with big
// models" — implemented end to end.
//
// The same AI-serving image (one 4 MB model blob) is published twice:
// once with whole-file Gear, once with content-defined chunking. Both
// containers then read the same 64 KB slice of the model (an embedding
// lookup, say); the whole-file deployment stalls on the entire model,
// the chunked one only on the chunks the slice overlaps, faulted
// through the bounded fetch window.
//
// Run with:
//
//	go run ./examples/bigmodel
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"time"

	gear "github.com/gear-image/gear"
)

const (
	modelSize = 4 << 20
	chunkAvg  = 64 << 10
	windowCap = 512 << 10
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// deploy publishes img (converted under pol) into fresh registries and
// returns the running deployment plus its daemon. Chunked deploys fault
// through a bounded demand window.
func deploy(img *gear.Image, pol gear.ChunkPolicy) (*gear.Deployment, *gear.Daemon, error) {
	conv, err := gear.NewConverter(gear.ConverterOptions{Chunking: pol})
	if err != nil {
		return nil, nil, err
	}
	res, err := conv.Convert(img)
	if err != nil {
		return nil, nil, err
	}
	docker := gear.NewRegistry()
	files := gear.NewFileStore(gear.FileStoreOptions{Compress: true})
	if _, _, err := gear.Publish(res, docker, files); err != nil {
		return nil, nil, err
	}
	var dopts gear.DaemonOptions
	if pol.Enabled() {
		dopts.ChunkWindowBytes = windowCap
	}
	daemon, err := gear.NewDaemon(docker, files, dopts)
	if err != nil {
		return nil, nil, err
	}
	dep, err := daemon.DeployGear("ai-serving", "v1", nil, 0)
	if err != nil {
		return nil, nil, err
	}
	return dep, daemon, nil
}

func run() error {
	// 1. An AI-serving image: small code, one big model blob.
	fs := gear.NewFS()
	if err := fs.MkdirAll("/srv/model", 0o755); err != nil {
		return err
	}
	model := make([]byte, modelSize)
	rand.New(rand.NewSource(42)).Read(model)
	if err := fs.WriteFile("/srv/model/weights.bin", model, 0o644); err != nil {
		return err
	}
	if err := fs.WriteFile("/srv/serve.py", []byte("import model..."), 0o755); err != nil {
		return err
	}
	img, err := gear.SingleLayerImage("ai-serving", "v1", fs, gear.ImageConfig{})
	if err != nil {
		return err
	}

	// 2. Publish twice: whole-file Gear vs content-defined chunks.
	whole, _, err := deploy(img, gear.ChunkPolicy{})
	if err != nil {
		return err
	}
	chunked, chunkedDaemon, err := deploy(img, gear.CDCChunks(chunkAvg))
	if err != nil {
		return err
	}
	ix, err := chunkedDaemon.GearStore().Index("ai-serving:v1")
	if err != nil {
		return err
	}
	entry := ix.Lookup("/srv/model/weights.bin")
	fmt.Printf("model is %d bytes -> %d content-defined chunks (avg %d KB, window %d KB)\n",
		entry.Size, len(entry.Chunks), chunkAvg>>10, windowCap>>10)

	// 3. Both containers read the same 64 KB slice out of the middle.
	const off, n = 1<<20 + 7, 64 << 10
	wholeSlice, wholeStall, err := whole.ReadAt("/srv/model/weights.bin", off, n)
	if err != nil {
		return err
	}
	chunkSlice, chunkStall, err := chunked.ReadAt("/srv/model/weights.bin", off, n)
	if err != nil {
		return err
	}
	st := chunkedDaemon.Snapshot()
	fmt.Printf("\nfirst read of model[%d:%d]:\n", off, off+n)
	fmt.Printf("  whole-file gear: %8s stall (%d bytes over the wire)\n",
		round(wholeStall), modelSize)
	fmt.Printf("  chunked gear:    %8s stall (%d chunks, %d bytes over the wire)\n",
		round(chunkStall), st.Counter("store.remote.objects"), st.Counter("store.remote.bytes"))
	if chunkStall > 0 {
		fmt.Printf("  stall reduction: %.1fx\n", float64(wholeStall)/float64(chunkStall))
	}
	ok := bytes.Equal(wholeSlice, model[off:off+n]) && bytes.Equal(chunkSlice, wholeSlice)
	fmt.Printf("  slice content identical on both paths: %v\n", ok)

	// 4. A full sequential read faults the remaining chunks through the
	// bounded window and reuses what the slice already cached.
	full, _, err := chunked.Read("/srv/model/weights.bin")
	if err != nil {
		return err
	}
	after := chunkedDaemon.Snapshot().Diff(st)
	fmt.Printf("\nfull read (%d bytes) fetched the remaining %d chunks; peak window %d KB\n",
		len(full), after.Counter("store.remote.objects"),
		chunkedDaemon.GearStore().ChunkWindowPeak()>>10)
	return nil
}

func round(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
