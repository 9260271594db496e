// Package convert implements the Gear Converter (§III-B, §IV of the
// paper): it turns a regular Docker image into a Gear image — a tiny Gear
// index packaged as a single-layer Docker image, plus a pool of
// content-addressed Gear files.
//
// The conversion pipeline follows the paper exactly: fetch the manifest,
// decompress and apply the layers bottom-up to reconstruct the root
// filesystem, traverse the tree building the index and extracting Gear
// files, then build the index image. A disksim-backed timing model
// reports where the time goes, reproducing the shape of Fig 6 (conversion
// time proportional to image size, dominated by small-file traversal, and
// much faster on SSD).
package convert

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/gear-image/gear/internal/disksim"
	"github.com/gear-image/gear/internal/gear/index"
	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/registry"
	"github.com/gear-image/gear/internal/tarstream"
	"github.com/gear-image/gear/internal/vfs"
)

// ErrAlreadyConverted reports a second conversion of the same reference;
// the paper notes conversion "is performed only once" per image.
var ErrAlreadyConverted = errors.New("image already converted")

// Timing breaks down where conversion time goes on the modeled disk.
type Timing struct {
	// Unpack covers reading and decompressing layer tarballs and writing
	// the reconstructed filesystem.
	Unpack time.Duration `json:"unpack"`
	// Traverse covers walking the reconstructed tree and reading every
	// regular file to fingerprint it.
	Traverse time.Duration `json:"traverse"`
	// Build covers writing Gear files into the pool and building the
	// single-layer index image.
	Build time.Duration `json:"build"`
}

// Total returns the end-to-end modeled conversion time.
func (t Timing) Total() time.Duration { return t.Unpack + t.Traverse + t.Build }

// Result is one converted image.
type Result struct {
	// Index is the Gear index.
	Index *index.Index
	// Files maps every fingerprint referenced by the index to its
	// content — the image's complete Gear file set before dedup against
	// any registry.
	Files map[hashing.Fingerprint][]byte
	// IndexImage is the index packaged as a single-layer Docker image.
	IndexImage *imagefmt.Image
	// Timing is the modeled conversion cost.
	Timing Timing
}

// Options configures a Converter.
type Options struct {
	// Disk models conversion I/O cost. Defaults to disksim.HDD(), the
	// paper's testbed disk.
	Disk disksim.Config
	// Chunking enables the big-file extension (§VII future work): files
	// the policy splits are stored and fetched as chunks — fixed-size
	// (index.FixedChunks) or content-defined (index.CDCChunks). The zero
	// value keeps every file whole.
	Chunking index.ChunkPolicy
	// IndexPrefix is put before each image's own name to name its Gear
	// form ("gear/" publishes nginx:v1's index as gear/nginx:v1, beside
	// the original in one Docker registry). Empty keeps the original name
	// (the paper stores the Gear index under the original reference once
	// the regular image is removed).
	IndexPrefix string
	// Workers is only the worker pool of the timing model: disk costs
	// stay serial (one modeled spindle), but the CPU-bound costs —
	// hashing and the per-file conversion work — divide across Workers
	// (<= 1 is the serial baseline). It changes nothing a conversion
	// does or produces, only its modeled Timing.
	Workers int
}

// The converter's CPU cost model. No experiment varies it.
const (
	// perFileCPU models the device-independent per-file processing cost
	// (the paper converts through the Docker API, which dominates once
	// seeks are gone — it is why the SSD speedup saturates at ~66%
	// instead of the raw seek ratio).
	perFileCPU = 8 * time.Millisecond
	// hashBPS models fingerprinting throughput.
	hashBPS = 200e6
)

// Converter converts Docker images to Gear images. Every conversion
// shares three things: the fingerprint registry, so collisions are
// detected globally; the content table, which holds the one copy of each
// content of the image converted last — against which the next version
// dedups — and of the images converting now; and the set of references
// converted. The rest — unpacking, hashing, index building, packing the
// index image, the modeled Timing — is each conversion's own, so
// conversions of different images run in parallel. What a
// Converter holds does not grow with the number of images it converted:
// of all but the last it keeps only their references. Converter is safe
// for concurrent use.
type Converter struct {
	opts  Options
	reg   *hashing.Registry
	files *table // the one copy of every content of last and of the conversions in flight
	disk  *disksim.Disk
	// unpack reads a layer the table has no record of:
	// (*imagefmt.Layer).TreeKeep, which tests meter.
	unpack func(*imagefmt.Layer, tarstream.Keep) (*vfs.FS, error)

	// mu guards the references, taken when a conversion starts and when
	// it ends; done is signalled whenever one ends.
	mu      sync.Mutex
	done    *sync.Cond
	refs    map[string]bool // every reference converting (false) or converted (true)
	last    *Result         // the image converted last
	lastRef string          // and its reference
}

// New returns a Converter.
func New(opts Options) (*Converter, error) {
	if opts.Disk == (disksim.Config{}) {
		opts.Disk = disksim.HDD()
	}
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if err := opts.Chunking.Validate(); err != nil {
		return nil, fmt.Errorf("convert: %w", err)
	}
	disk, err := disksim.New(opts.Disk)
	if err != nil {
		return nil, fmt.Errorf("convert: %w", err)
	}
	reg := hashing.NewRegistry(nil)
	c := &Converter{opts: opts, reg: reg, files: newTable(reg), disk: disk, unpack: (*imagefmt.Layer).TreeKeep,
		refs: make(map[string]bool)}
	c.done = sync.NewCond(&c.mu)
	return c, nil
}

// Convert turns img into a Gear image. Each reference converts once;
// converting it again returns ErrAlreadyConverted, alongside its Result
// if it is the image converted last, so a caller can push the image it
// just converted again without paying for a reconversion. A Convert of a
// reference that is converting now waits for that conversion to end.
func (c *Converter) Convert(img *imagefmt.Image) (*Result, error) {
	ref := img.Manifest.Reference()
	if cached, err := c.reserve(ref); err != nil {
		return cached, err
	}
	u := c.files.begin()
	res, err := c.convert(img, ref, u)
	c.mu.Lock()
	if err == nil {
		c.refs[ref] = true
		c.last, c.lastRef = res, ref
	} else {
		delete(c.refs, ref)
	}
	u.settle(err == nil)
	c.mu.Unlock()
	c.done.Broadcast()
	return res, err
}

// reserve marks ref as converting, once no conversion of it is in
// flight, or says why it is not to be converted.
func (c *Converter) reserve(ref string) (*Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		converted, taken := c.refs[ref]
		if !taken {
			break
		}
		if converted {
			var cached *Result
			if ref == c.lastRef {
				cached = c.last
			}
			return cached, fmt.Errorf("convert %s: %w", ref, ErrAlreadyConverted)
		}
		c.done.Wait()
	}
	c.refs[ref] = false
	return nil, nil
}

// convert is one conversion of img, under reference ref, holding its
// contents in the table through u.
func (c *Converter) convert(img *imagefmt.Image, ref string, u *use) (*Result, error) {
	if err := img.Validate(); err != nil {
		return nil, fmt.Errorf("convert %s: %w", ref, err)
	}

	var timing Timing

	// Phase 1: decompress and apply layers bottom-up (§III-B: "the
	// converter decompresses and then saves the layers starting from the
	// bottom layer to the top layer"). Every file is hashed as it is
	// unpacked, and one the converter holds already — from a lower layer,
	// the image converted last or one converting now — is not held again.
	// A layer the table has a record of, which Validate has just checked
	// against its Digest, is cloned from the record and not unpacked; it
	// is priced as one unpacked, as the paper's converter unpacks it.
	root := vfs.New()
	for i, layer := range img.Layers {
		timing.Unpack += c.disk.ReadCost(layer.Size)
		tree := u.recall(layer.Digest)
		if tree == nil {
			var err error
			if tree, err = c.unpack(layer, u.keep); err != nil {
				return nil, fmt.Errorf("convert %s layer %d: %w", ref, i, err)
			}
			u.remember(layer.Digest, tree)
		}
		tarstream.ApplyLayer(root, tree)
		timing.Unpack += c.disk.WriteCost(layer.UncompressedSize)
	}

	// Phase 2: traverse the reconstructed filesystem, building the index
	// and extracting the Gear files. The builder takes each file's sum
	// from the unpack and hashes nothing again.
	ix, pool, err := index.BuildKnown(c.opts.IndexPrefix+img.Manifest.Name, img.Manifest.Tag, img.Manifest.Config,
		root, c.reg, c.opts.Chunking, u.known)
	if err != nil {
		return nil, fmt.Errorf("convert %s: %w", ref, err)
	}
	// The modeled traverse reads every regular file once to fingerprint
	// it. Small files make this seek-bound, which is why Fig 6's time
	// grows with file count. The disk is one spindle, so reads stay
	// serial; the hash CPU fans out over the worker pool. It is priced
	// off the index, which has the tree's shape and every file's size
	// and whose walk spells out no path.
	var hashCPU time.Duration
	c.priceTraverse(ix.Root, &timing.Traverse, &hashCPU)
	workers := time.Duration(c.opts.Workers)
	timing.Traverse += hashCPU / workers

	// Phase 3: write Gear files and build the single-layer index image.
	// Each file pays the device write plus the device-independent
	// conversion CPU (Docker API calls, metadata bookkeeping); the CPU
	// share divides across the worker pool.
	for _, data := range pool {
		timing.Build += c.disk.WriteCost(int64(len(data)))
	}
	timing.Build += time.Duration(len(pool)) * perFileCPU / workers
	indexImage, err := ix.ToImage()
	if err != nil {
		return nil, fmt.Errorf("convert %s: %w", ref, err)
	}
	timing.Build += c.disk.WriteCost(indexImage.Manifest.TotalSize())

	return &Result{Index: ix, Files: pool, IndexImage: indexImage, Timing: timing}, nil
}

// priceTraverse adds, for every regular file under e, the modeled read
// to disk and the modeled hash to cpu.
func (c *Converter) priceTraverse(e *index.Entry, disk, cpu *time.Duration) {
	if e.Type == vfs.TypeRegular {
		*disk += c.disk.ReadCost(e.Size)
		*cpu += time.Duration(float64(e.Size) / hashBPS * float64(time.Second))
	}
	for _, child := range e.Children {
		c.priceTraverse(child, disk, cpu)
	}
}

// Publish stores a conversion result in one shot: Pusher.Push through a
// Pusher of its own, so the Gear files go to the Gear registry first —
// skipping the ones it already holds (fingerprint query before upload,
// §III-C) — and the index image to the Docker registry once they are all
// in. It returns the bytes actually uploaded to each store.
func Publish(res *Result, docker registry.Store, gear gearregistry.Store) (indexBytes, fileBytes int64, err error) {
	p, err := NewPusher(PushOptions{Gear: gear})
	if err != nil {
		return 0, 0, err
	}
	indexBytes, window, err := p.Push(res, docker)
	return indexBytes, window.Bytes(), err
}
