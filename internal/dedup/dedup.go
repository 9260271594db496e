// Package dedup implements the offline deduplication study of §II-D
// (Table II of the Gear paper): given a set of Docker images, it
// measures storage usage and unique-object counts when duplicates are
// removed at no / layer / file / chunk granularity, compressing objects
// at the same granularity they are deduplicated at.
//
// The paper's conclusion — file-level dedup captures nearly all of
// chunk-level's space saving at a ~16x smaller object count — is the
// motivation for Gear's file-granularity design; this analyzer is what
// regenerates that comparison.
package dedup

import (
	"errors"
	"fmt"

	"github.com/gear-image/gear/internal/gear/index"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/tarstream"
	"github.com/gear-image/gear/internal/vfs"
)

// Granularity selects the dedup unit.
type Granularity int

// Granularities of Table II, plus the content-defined sub-file row the
// chunked lazy-loading extension adds: CDC cuts by rolling hash (the
// index builder's own chunker), so identical regions dedup across files
// even at different offsets — the ceiling fixed-size Chunk misses.
const (
	None Granularity = iota + 1
	Layer
	File
	Chunk
	CDC
)

// String returns the granularity's display name.
func (g Granularity) String() string {
	switch g {
	case None:
		return "none"
	case Layer:
		return "layer"
	case File:
		return "file"
	case Chunk:
		return "chunk"
	case CDC:
		return "cdc"
	default:
		return fmt.Sprintf("Granularity(%d)", int(g))
	}
}

// ErrBadChunkSize reports a non-positive chunk size.
var ErrBadChunkSize = errors.New("chunk size must be positive")

// Report is one Table II row.
type Report struct {
	Granularity Granularity `json:"granularity"`
	// StorageBytes is total storage with per-object compression.
	StorageBytes int64 `json:"storageBytes"`
	// RawBytes is total storage before compression.
	RawBytes int64 `json:"rawBytes"`
	// Objects is the number of unique stored objects.
	Objects int64 `json:"objects"`
}

// Analyzer ingests images incrementally and reports every row.
// It is not safe for concurrent use.
type Analyzer struct {
	chunkSize int64

	// none: every image is one object.
	noneObjects int64
	noneRaw     int64
	noneStored  int64

	layers map[hashing.Digest]struct{}
	layerRaw,
	layerStored int64

	files map[hashing.Fingerprint]struct{}
	fileRaw,
	fileStored int64

	chunks map[hashing.Fingerprint]struct{}
	chunkRaw,
	chunkStored int64

	cdcPolicy index.ChunkPolicy
	cdc       map[hashing.Fingerprint]struct{}
	cdcRaw,
	cdcStored int64
}

// NewAnalyzer returns an Analyzer using chunkSize for the chunk row.
func NewAnalyzer(chunkSize int64) (*Analyzer, error) {
	if chunkSize <= 0 {
		return nil, fmt.Errorf("dedup: chunk size %d: %w", chunkSize, ErrBadChunkSize)
	}
	return &Analyzer{
		chunkSize: chunkSize,
		layers:    make(map[hashing.Digest]struct{}),
		files:     make(map[hashing.Fingerprint]struct{}),
		chunks:    make(map[hashing.Fingerprint]struct{}),
		cdcPolicy: index.CDCChunks(chunkSize),
		cdc:       make(map[hashing.Fingerprint]struct{}),
	}, nil
}

// Add ingests one image into every accounting.
func (a *Analyzer) Add(img *imagefmt.Image) error {
	if err := img.Validate(); err != nil {
		return fmt.Errorf("dedup: add: %w", err)
	}

	// Row 1: no dedup — the image stored whole (compressed layers
	// concatenated, as a registry without digest sharing would hold it).
	a.noneObjects++
	for _, l := range img.Layers {
		a.noneRaw += l.UncompressedSize
		a.noneStored += l.Size
	}

	for _, l := range img.Layers {
		// Row 2: layer dedup — unique compressed tarballs by digest.
		if _, ok := a.layers[l.Digest]; !ok {
			a.layers[l.Digest] = struct{}{}
			a.layerRaw += l.UncompressedSize
			a.layerStored += l.Size
		}

		// Rows 3 and 4 operate on the unpacked layer's files ("the
		// registry unpacks the layers and removes duplicate data").
		tree, err := l.Tree()
		if err != nil {
			return fmt.Errorf("dedup: add %s: %w", img.Manifest.Reference(), err)
		}
		err = tree.Walk(func(_ string, n *vfs.Node) error {
			if n.Type() != vfs.TypeRegular {
				return nil
			}
			data := n.Content().Data()
			if err := a.addFile(data); err != nil {
				return err
			}
			if err := a.addChunks(data); err != nil {
				return err
			}
			return a.addCDC(data)
		})
		if err != nil {
			return fmt.Errorf("dedup: add %s: %w", img.Manifest.Reference(), err)
		}
	}
	return nil
}

func (a *Analyzer) addFile(data []byte) error {
	fp := hashing.FingerprintBytes(data)
	if _, ok := a.files[fp]; ok {
		return nil
	}
	a.files[fp] = struct{}{}
	a.fileRaw += int64(len(data))
	z, err := tarstream.Gzip(data)
	if err != nil {
		return err
	}
	a.fileStored += int64(len(z))
	return nil
}

func (a *Analyzer) addChunks(data []byte) error {
	for off := int64(0); off == 0 || off < int64(len(data)); off += a.chunkSize {
		end := off + a.chunkSize
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		piece := data[off:end]
		fp := hashing.FingerprintBytes(piece)
		if _, ok := a.chunks[fp]; ok {
			continue
		}
		a.chunks[fp] = struct{}{}
		a.chunkRaw += int64(len(piece))
		z, err := tarstream.Gzip(piece)
		if err != nil {
			return err
		}
		a.chunkStored += int64(len(z))
	}
	return nil
}

// addCDC accounts the content-defined sub-file row: data is cut by the
// same rolling-hash policy the index builder uses (average a.chunkSize,
// bounds at the conventional 4x spread); files the policy leaves whole
// are one object.
func (a *Analyzer) addCDC(data []byte) error {
	pieces, err := a.cdcPolicy.Split(data)
	if err != nil {
		return err
	}
	if pieces == nil {
		pieces = [][]byte{data}
	}
	for _, piece := range pieces {
		fp := hashing.FingerprintBytes(piece)
		if _, ok := a.cdc[fp]; ok {
			continue
		}
		a.cdc[fp] = struct{}{}
		a.cdcRaw += int64(len(piece))
		z, err := tarstream.Gzip(piece)
		if err != nil {
			return err
		}
		a.cdcStored += int64(len(z))
	}
	return nil
}

// Reports returns the Table II rows in granularity order: the paper's
// four plus the content-defined sub-file row.
func (a *Analyzer) Reports() []Report {
	return []Report{
		{Granularity: None, StorageBytes: a.noneStored, RawBytes: a.noneRaw, Objects: a.noneObjects},
		{Granularity: Layer, StorageBytes: a.layerStored, RawBytes: a.layerRaw, Objects: int64(len(a.layers))},
		{Granularity: File, StorageBytes: a.fileStored, RawBytes: a.fileRaw, Objects: int64(len(a.files))},
		{Granularity: Chunk, StorageBytes: a.chunkStored, RawBytes: a.chunkRaw, Objects: int64(len(a.chunks))},
		{Granularity: CDC, StorageBytes: a.cdcStored, RawBytes: a.cdcRaw, Objects: int64(len(a.cdc))},
	}
}
