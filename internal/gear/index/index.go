// Package index implements the Gear index — the metadata half of a Gear
// image (§III-B of the paper). The index retains the directory structure
// of the original Docker image; every regular file is replaced by the MD5
// fingerprint of its content, so the index is tiny (the paper measures
// ~0.53 MB on average, ~1.1% of total image bytes) and a container can be
// launched as soon as it is downloaded.
//
// The index has four representations. They are interchangeable in what
// they say; they differ in who holds them and for how long:
//
//   - the serialized blob (EncodeBinary; JSON for tools), carried by a
//     single-layer Docker image (ToImage) so the unmodified Docker
//     distribution path can store and pull it (§III-C). On a client the
//     blob is read out of the layer once, as a string, and lives as long
//     as the installed image: every decoded name is a substring of it;
//   - a typed tree (Index/Entry: DecodeBinary, FromImage), used by the
//     converter, the tools and Commit. Nothing on the deploy path builds
//     one: an installed image derives it from the retained blob the first
//     time Store.Index, Prefetch or Commit asks (Mounted.Index);
//   - a placeholder filesystem (ToTree/FromTree) where each regular file
//     holds a one-line "gearfp:" record — the "index" directory the Gear
//     File Viewer mounts, and the fingerprint file the paper's modified
//     ovl_lookup_single() pauses on. It is mutable: a fault relinks the
//     file over its record, so the tree forgets fingerprints as it is
//     used, which is why the blob is kept beside it;
//   - the installed form (Mounted: that tree plus the chunk tables), which
//     is what a client's store holds per image. DecodeMounted/MountImage
//     build it from the blob in the one decoder walk, validating as they
//     go; Index.Mount builds it from a typed tree.
package index

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"strconv"
	"strings"

	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/vfs"
)

// Errors returned by index operations.
var (
	ErrCorrupt     = errors.New("corrupt gear index")
	ErrNotGearFile = errors.New("not a gear fingerprint placeholder")
)

// PlaceholderPrefix starts every fingerprint placeholder file's content.
const PlaceholderPrefix = "gearfp:"

// IndexLabel marks a single-layer Docker image as carrying a Gear index.
const IndexLabel = "io.gear.index"

// IndexFileName is where the serialized index lives inside its
// single-layer image (the compact binary form; see binary.go).
const IndexFileName = "/.gear/index.bin"

// Entry is one node of the Gear index tree.
type Entry struct {
	Name string       `json:"name"`
	Type vfs.FileType `json:"type"`
	Mode fs.FileMode  `json:"mode"`
	// Target is the symlink target (symlinks only).
	Target string `json:"target,omitempty"`
	// Fingerprint addresses the Gear file holding this regular file's
	// content (regular files only).
	Fingerprint hashing.Fingerprint `json:"fingerprint,omitempty"`
	// Size is the regular file's uncompressed size, kept in the index so
	// deploy planners can budget downloads without fetching anything.
	Size int64 `json:"size,omitempty"`
	// Chunks, when non-empty, split a big regular file into separately
	// addressed Gear files that concatenate to the full content. This is
	// the paper's future-work extension ("enable Gear to read big files
	// on demand in chunks", §VII); Fingerprint still identifies the whole
	// file. Chunked entries dedup and download at chunk granularity.
	Chunks []Chunk `json:"chunks,omitempty"`
	// Children are a directory's entries, sorted by name.
	Children []*Entry `json:"children,omitempty"`
}

// Chunk is one piece of a chunked regular file.
type Chunk struct {
	Fingerprint hashing.Fingerprint `json:"fingerprint"`
	Size        int64               `json:"size"`
}

// Index is a complete Gear index: the tree plus the image configuration
// the converter copies from the original Docker image (§III-C).
type Index struct {
	// Name and Tag identify the image the index was converted from.
	Name string `json:"name"`
	Tag  string `json:"tag"`
	// Config carries environment/entrypoint/etc. from the Docker image.
	Config imagefmt.Config `json:"config"`
	// Root is the directory tree ("" name, TypeDir).
	Root *Entry `json:"root"`
}

// Reference returns the canonical "name:tag" reference.
func (ix *Index) Reference() string { return ix.Name + ":" + ix.Tag }

// Build constructs an Index from a flattened image root filesystem,
// assigning fingerprints through reg (collision-safe content addressing)
// and collecting the Gear files into pool (fingerprint -> content).
func Build(name, tag string, cfg imagefmt.Config, root *vfs.FS, reg *hashing.Registry) (*Index, map[hashing.Fingerprint][]byte, error) {
	return BuildPolicy(name, tag, cfg, root, reg, ChunkPolicy{}, 1)
}

// BuildPolicy is the general index builder: chunking follows pol (none,
// fixed-size, or content-defined; see ChunkPolicy) and fingerprinting
// fans out over workers. The output is bit-identical for any worker
// count: chunk boundaries depend only on pol and the file bytes, the
// tree walk collects every content item in exactly the order the serial
// builder would Assign it (whole file, then its chunks, in walk order),
// hashes run concurrently, and collision IDs are assigned sequentially
// in that order (see hashing.Registry.AssignSums).
func BuildPolicy(name, tag string, cfg imagefmt.Config, root *vfs.FS, reg *hashing.Registry, pol ChunkPolicy, workers int) (*Index, map[hashing.Fingerprint][]byte, error) {
	return BuildKnown(name, tag, cfg, root, reg, pol, workers, nil)
}

// Known answers for a file content that was hashed where its bytes
// streamed by (reg.Sum of it, kept by whoever unpacked the layers), so
// that the builder does not hash it again. It is asked once per regular
// file, in walk order, from one goroutine, with the slice the tree
// holds; a content it does not know is hashed here.
type Known func(data []byte) (hashing.Sum, bool)

// BuildKnown is BuildPolicy with the sums of whole files taken from
// known (nil knows nothing). The output is what BuildPolicy's is.
func BuildKnown(name, tag string, cfg imagefmt.Config, root *vfs.FS, reg *hashing.Registry, pol ChunkPolicy, workers int, known Known) (*Index, map[hashing.Fingerprint][]byte, error) {
	if err := pol.Validate(); err != nil {
		return nil, nil, fmt.Errorf("index: build %s:%s: %w", name, tag, err)
	}
	if reg == nil {
		reg = hashing.NewRegistry(nil)
	}
	b := &builder{reg: reg, pool: make(map[hashing.Fingerprint][]byte), pol: pol.normalized(), known: known, collect: workers > 1}
	rootEntry, err := b.buildEntry("", root.Root())
	if err != nil {
		return nil, nil, fmt.Errorf("index: build %s:%s: %w", name, tag, err)
	}
	ix := &Index{Name: name, Tag: tag, Config: cfg, Root: rootEntry}
	if !b.collect {
		return ix, b.pool, nil
	}
	// Hash, on the workers, what nobody has hashed yet.
	sums := make([]hashing.Sum, len(b.slots))
	var unhashed [][]byte
	for i, s := range b.slots {
		if s.hashed {
			sums[i] = s.sum
		} else {
			unhashed = append(unhashed, s.data)
		}
	}
	fresh := reg.SumAll(unhashed, workers)
	for i, s := range b.slots {
		if !s.hashed {
			sums[i], fresh = fresh[0], fresh[1:]
		}
	}
	fps := reg.AssignSums(sums, workers)
	for i, s := range b.slots {
		fp := fps[i]
		if s.chunk {
			s.entry.Chunks = append(s.entry.Chunks, Chunk{Fingerprint: fp, Size: int64(len(s.data))})
			b.pool[fp] = s.data
		} else {
			s.entry.Fingerprint = fp
			if !s.chunked {
				b.pool[fp] = s.data
			}
		}
	}
	return ix, b.pool, nil
}

type builder struct {
	reg   *hashing.Registry
	pool  map[hashing.Fingerprint][]byte
	pol   ChunkPolicy
	known Known
	// collect defers fingerprint assignment: buildEntry records slots in
	// serial Assign order instead of calling Assign inline.
	collect bool
	slots   []assignSlot
}

// assignSlot is one pending content-address assignment.
type assignSlot struct {
	entry *Entry
	data  []byte
	// sum is data's, when hashed says it has been computed already.
	sum    hashing.Sum
	hashed bool
	// chunk marks a chunk piece; chunked marks a whole-file slot whose
	// content is pooled at chunk granularity instead.
	chunk   bool
	chunked bool
}

func (b *builder) buildEntry(name string, n *vfs.Node) (*Entry, error) {
	e := &Entry{Name: name, Type: n.Type(), Mode: n.Mode()}
	switch n.Type() {
	case vfs.TypeDir:
		for _, childName := range n.ChildNames() {
			child, err := b.buildEntry(childName, n.Child(childName))
			if err != nil {
				return nil, err
			}
			e.Children = append(e.Children, child)
		}
	case vfs.TypeRegular:
		data := n.Content().Data()
		e.Size = int64(len(data))
		pieces := b.pol.split(data)
		chunked := pieces != nil
		var sum hashing.Sum
		hashed := false
		if b.known != nil {
			sum, hashed = b.known(data)
		}
		if b.collect {
			b.slots = append(b.slots, assignSlot{entry: e, data: data, sum: sum, hashed: hashed, chunked: chunked})
		} else {
			if !hashed {
				sum = b.reg.Sum(data)
			}
			e.Fingerprint = b.reg.AssignSum(sum)
			if !chunked {
				b.pool[e.Fingerprint] = data
			}
		}
		for _, piece := range pieces {
			if b.collect {
				b.slots = append(b.slots, assignSlot{entry: e, data: piece, chunk: true})
				continue
			}
			cfp := b.reg.Assign(piece)
			e.Chunks = append(e.Chunks, Chunk{Fingerprint: cfp, Size: int64(len(piece))})
			b.pool[cfp] = piece
		}
	case vfs.TypeSymlink:
		e.Target = n.Target()
	default:
		return nil, fmt.Errorf("%w: node type %v at %q", ErrCorrupt, n.Type(), name)
	}
	return e, nil
}

// Validate checks structural invariants: types, sorted unique children
// whose names are each one real path segment, well-formed fingerprints.
func (ix *Index) Validate() error {
	if ix.Root == nil || ix.Root.Type != vfs.TypeDir || ix.Root.Name != "" {
		return fmt.Errorf("index %s: root: %w", ix.Reference(), ErrCorrupt)
	}
	return validateEntry(ix.Root, nil)
}

// dirPath is the chain of directories above an entry being validated,
// innermost first. It lives on the validating goroutine's stack (which is
// why the error branches call String themselves instead of handing fmt
// the pointer); the path it spells is only put together for a message.
type dirPath struct {
	dir *Entry
	up  *dirPath
}

// String renders the chain as "/a/b/" ("/" for the root alone, whose own
// name is not part of any path).
func (at *dirPath) String() string {
	if at == nil || at.up == nil {
		return "/"
	}
	return at.up.String() + at.dir.Name + "/"
}

func validateEntry(e *Entry, at *dirPath) error {
	switch e.Type {
	case vfs.TypeDir:
		in := dirPath{dir: e, up: at}
		prev := ""
		for i, c := range e.Children {
			if badName(c.Name) {
				return fmt.Errorf("index: bad name %q in %s: %w", c.Name, in.String(), ErrCorrupt)
			}
			if i > 0 && c.Name <= prev {
				return fmt.Errorf("index: unsorted children in %s: %w", in.String(), ErrCorrupt)
			}
			prev = c.Name
			if err := validateEntry(c, &in); err != nil {
				return err
			}
		}
	case vfs.TypeRegular:
		if err := e.Fingerprint.Validate(); err != nil {
			return fmt.Errorf("index: %s%s: %w", at.String(), e.Name, err)
		}
		if len(e.Children) > 0 {
			return fmt.Errorf("index: file %s%s has children: %w", at.String(), e.Name, ErrCorrupt)
		}
		for _, c := range e.Chunks {
			if err := c.Fingerprint.Validate(); err != nil {
				return fmt.Errorf("index: %s%s chunk: %w", at.String(), e.Name, err)
			}
		}
		if err := checkSizes(e.Size, e.Chunks); err != nil {
			return fmt.Errorf("index: %s%s: %w", at.String(), e.Name, err)
		}
	case vfs.TypeSymlink:
		if len(e.Children) > 0 {
			return fmt.Errorf("index: symlink %s%s has children: %w", at.String(), e.Name, ErrCorrupt)
		}
	default:
		return fmt.Errorf("index: %s%s: bad type %v: %w", at.String(), e.Name, e.Type, ErrCorrupt)
	}
	return nil
}

// badName reports whether name cannot be an entry's: it is not one path
// segment, or it is "." or "..", which would pass for segments and then
// name the directory itself or its parent once the tree is mounted.
func badName(name string) bool {
	return name == "" || name == "." || name == ".." || strings.ContainsAny(name, "/\x00")
}

// checkSizes holds a regular file's size and its chunks' sizes to what
// Validate requires of them.
func checkSizes(size int64, chunks []Chunk) error {
	if size < 0 {
		return fmt.Errorf("negative size: %w", ErrCorrupt)
	}
	if len(chunks) == 0 {
		return nil
	}
	var sum int64
	for _, c := range chunks {
		if c.Size <= 0 {
			return fmt.Errorf("bad chunk size %d: %w", c.Size, ErrCorrupt)
		}
		sum += c.Size
	}
	if sum != size {
		return fmt.Errorf("chunk sizes sum %d != size %d: %w", sum, size, ErrCorrupt)
	}
	return nil
}

// Encode renders the index as JSON.
func Encode(ix *Index) ([]byte, error) {
	data, err := json.Marshal(ix)
	if err != nil {
		return nil, fmt.Errorf("index: encode %s: %w", ix.Reference(), err)
	}
	return data, nil
}

// Decode parses and validates index JSON.
func Decode(data []byte) (*Index, error) {
	var ix Index
	if err := json.Unmarshal(data, &ix); err != nil {
		return nil, fmt.Errorf("index: decode: %w: %w", ErrCorrupt, err)
	}
	if err := ix.Validate(); err != nil {
		return nil, err
	}
	return &ix, nil
}

// Placeholder renders the one-line fingerprint record stored in place of
// a regular file: "gearfp:<fingerprint>:<size>\n".
func Placeholder(fp hashing.Fingerprint, size int64) []byte {
	return appendPlaceholder(nil, fpRef{s: string(fp)}, size)
}

func appendPlaceholder(dst []byte, fp fpRef, size int64) []byte {
	dst = append(dst, PlaceholderPrefix...)
	dst = fp.appendText(dst)
	dst = append(dst, ':')
	dst = strconv.AppendInt(dst, size, 10)
	return append(dst, '\n')
}

// ParsePlaceholder inverts Placeholder. It returns ErrNotGearFile for
// content that is not a placeholder record — and decides that from the
// first bytes: content of any size that does not begin like a record (a
// materialized file, on every read of it) is turned away without a copy.
// Content that begins like one and is not (a container's own data can)
// is ErrCorrupt, and turned away by its length when it is longer than
// any record: the error quotes no more of it than a record's worth.
func ParsePlaceholder(data []byte) (hashing.Fingerprint, int64, error) {
	rawFP, size, err := parseRecord(data)
	if err != nil {
		return "", 0, err
	}
	return hashing.Fingerprint(rawFP), size, nil
}

// IsPlaceholder reports whether data is a fingerprint placeholder record:
// whether ParsePlaceholder accepts it. For a record, and for content that
// does not begin like one, it answers from the bytes and allocates
// nothing.
func IsPlaceholder(data []byte) bool {
	_, _, err := parseRecord(data)
	return err == nil
}

// maxRecordLen is the longest record Placeholder writes: the prefix, a
// collision-fallback ID ("<32 hex>-c" and the digits of an int), a colon,
// the digits of an int64, a newline.
const maxRecordLen = len(PlaceholderPrefix) + 32 + 2 + 20 + 1 + 20 + 1

// parseRecord is ParsePlaceholder up to the fingerprint's bytes, which
// lie in data.
func parseRecord(data []byte) (rawFP []byte, size int64, err error) {
	if len(data) < len(PlaceholderPrefix) || string(data[:len(PlaceholderPrefix)]) != PlaceholderPrefix {
		return nil, 0, ErrNotGearFile
	}
	if len(data) > maxRecordLen {
		return nil, 0, fmt.Errorf("placeholder %q... is %d bytes, longer than any record: %w",
			data[:maxRecordLen], len(data), ErrCorrupt)
	}
	rest := bytes.TrimSuffix(data[len(PlaceholderPrefix):], []byte("\n"))
	rawFP, rawSize, found := bytes.Cut(rest, []byte(":"))
	if !found {
		return nil, 0, fmt.Errorf("placeholder %q: %w", data, ErrCorrupt)
	}
	if !hashing.ValidFingerprint(rawFP) {
		return nil, 0, fmt.Errorf("placeholder: fingerprint %q: %w", rawFP, hashing.ErrMalformed)
	}
	size, err = strconv.ParseInt(string(rawSize), 10, 64)
	if err != nil || size < 0 {
		return nil, 0, fmt.Errorf("placeholder size %q: %w", rawSize, ErrCorrupt)
	}
	return rawFP, size, nil
}

// ToTree materializes the index as a placeholder filesystem: directories
// and symlinks verbatim, regular files replaced by placeholder records.
// This is the read-only "index" directory of the three-level storage
// structure (§III-D1).
//
// The index is validated first, and that is what lets the tree be built
// entry by entry into the directory node in hand, with no path resolved
// and none spelled out: Validate has established what the path-taking
// vfs calls would check again (each name one real segment, unique in its
// directory). All placeholder records share one buffer of their exact
// total size.
func (ix *Index) ToTree() (*vfs.FS, error) {
	if err := ix.Validate(); err != nil {
		return nil, err
	}
	f := vfs.New()
	records := make([]byte, 0, placeholderBytes(ix.Root))
	dirToTree(ix.Root, f.Root(), records)
	return f, nil
}

// placeholderBytes is the total length of the records of the files
// under e.
func placeholderBytes(e *Entry) int {
	if e.Type == vfs.TypeRegular {
		var digits [20]byte
		return len(PlaceholderPrefix) + len(e.Fingerprint) + 1 + len(strconv.AppendInt(digits[:0], e.Size, 10)) + 1
	}
	n := 0
	for _, c := range e.Children {
		n += placeholderBytes(c)
	}
	return n
}

// dirToTree fills the directory node n from the entry dir, appending the
// records of the files below it to records, which it returns.
func dirToTree(dir *Entry, n *vfs.Node, records []byte) []byte {
	for _, c := range dir.Children {
		switch c.Type {
		case vfs.TypeDir:
			records = dirToTree(c, n.AddDir(c.Name, c.Mode, len(c.Children)), records)
		case vfs.TypeRegular:
			start := len(records)
			records = appendPlaceholder(records, fpRef{s: string(c.Fingerprint)}, c.Size)
			n.AddFile(c.Name, records[start:len(records):len(records)], c.Mode)
		case vfs.TypeSymlink:
			n.AddSymlink(c.Name, c.Target)
		}
	}
	return records
}

// FromTree parses a placeholder filesystem back into an Index tree.
func FromTree(name, tag string, cfg imagefmt.Config, f *vfs.FS) (*Index, error) {
	root, err := treeToEntry("", f.Root())
	if err != nil {
		return nil, fmt.Errorf("index: from tree %s:%s: %w", name, tag, err)
	}
	ix := &Index{Name: name, Tag: tag, Config: cfg, Root: root}
	if err := ix.Validate(); err != nil {
		return nil, err
	}
	return ix, nil
}

func treeToEntry(name string, n *vfs.Node) (*Entry, error) {
	e := &Entry{Name: name, Type: n.Type(), Mode: n.Mode()}
	switch n.Type() {
	case vfs.TypeDir:
		for _, childName := range n.ChildNames() {
			c, err := treeToEntry(childName, n.Child(childName))
			if err != nil {
				return nil, err
			}
			e.Children = append(e.Children, c)
		}
	case vfs.TypeRegular:
		fp, size, err := ParsePlaceholder(n.Content().Data())
		if err != nil {
			return nil, fmt.Errorf("at %q: %w", name, err)
		}
		e.Fingerprint = fp
		e.Size = size
	case vfs.TypeSymlink:
		e.Target = n.Target()
	default:
		return nil, fmt.Errorf("%w: type %v at %q", ErrCorrupt, n.Type(), name)
	}
	return e, nil
}

// FileRef is one unique Gear file referenced by an index.
type FileRef struct {
	Fingerprint hashing.Fingerprint
	Size        int64
}

// Files returns the unique Gear files the index references, sorted by
// fingerprint — the download set for a full materialization.
func (ix *Index) Files() []FileRef {
	seen := make(map[hashing.Fingerprint]int64)
	collectFiles(ix.Root, seen)
	out := make([]FileRef, 0, len(seen))
	for fp, size := range seen {
		out = append(out, FileRef{Fingerprint: fp, Size: size})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fingerprint < out[j].Fingerprint })
	return out
}

func collectFiles(e *Entry, seen map[hashing.Fingerprint]int64) {
	if e.Type == vfs.TypeRegular {
		if len(e.Chunks) > 0 {
			for _, c := range e.Chunks {
				seen[c.Fingerprint] = c.Size
			}
		} else {
			seen[e.Fingerprint] = e.Size
		}
		return
	}
	for _, c := range e.Children {
		collectFiles(c, seen)
	}
}

// ChunkMap returns, for every chunked file, its whole-file fingerprint
// mapped to the chunk list. Drivers use it to resolve a placeholder that
// names a chunked file into its fetchable pieces.
func (ix *Index) ChunkMap() map[hashing.Fingerprint][]Chunk {
	out := make(map[hashing.Fingerprint][]Chunk)
	var walk func(e *Entry)
	walk = func(e *Entry) {
		if e.Type == vfs.TypeRegular && len(e.Chunks) > 0 {
			out[e.Fingerprint] = e.Chunks
		}
		for _, c := range e.Children {
			walk(c)
		}
	}
	walk(ix.Root)
	return out
}

// Lookup resolves a cleaned path to its entry, or nil.
func (ix *Index) Lookup(p string) *Entry {
	cur := ix.Root
	for rest := vfs.Clean(p)[1:]; rest != ""; {
		if cur.Type != vfs.TypeDir {
			return nil
		}
		var name string
		name, rest, _ = strings.Cut(rest, "/")
		var next *Entry
		for _, c := range cur.Children {
			if c.Name == name {
				next = c
				break
			}
		}
		if next == nil {
			return nil
		}
		cur = next
	}
	return cur
}

// Stats summarizes an index.
type Stats struct {
	Dirs        int   `json:"dirs"`
	Files       int   `json:"files"` // regular-file entries (not unique)
	UniqueFiles int   `json:"uniqueFiles"`
	Symlinks    int   `json:"symlinks"`
	DataBytes   int64 `json:"dataBytes"` // unique Gear file bytes
	IndexBytes  int64 `json:"indexBytes"`
}

// Stats computes index statistics, including its own encoded size.
func (ix *Index) Stats() (Stats, error) {
	var s Stats
	seen := make(map[hashing.Fingerprint]int64)
	var walk func(e *Entry)
	walk = func(e *Entry) {
		switch e.Type {
		case vfs.TypeDir:
			s.Dirs++
			for _, c := range e.Children {
				walk(c)
			}
		case vfs.TypeRegular:
			s.Files++
			seen[e.Fingerprint] = e.Size
		case vfs.TypeSymlink:
			s.Symlinks++
		}
	}
	walk(ix.Root)
	s.Dirs-- // exclude root
	s.UniqueFiles = len(seen)
	for _, size := range seen {
		s.DataBytes += size
	}
	enc, err := EncodeBinary(ix)
	if err != nil {
		return Stats{}, err
	}
	s.IndexBytes = int64(len(enc))
	return s, nil
}

// ToImage packages the index as a single-layer Docker image so regular
// Docker push/pull moves it (§III-C). The layer carries one file — the
// serialized index at IndexFileName — from which the driver rebuilds the
// placeholder tree on arrival (storing the tree itself in the layer
// would duplicate every path and fingerprint on the wire). The image
// keeps the original configuration and an IndexLabel marker.
func (ix *Index) ToImage() (*imagefmt.Image, error) {
	enc, err := EncodeBinary(ix)
	if err != nil {
		return nil, err
	}
	tree := vfs.New()
	if err := tree.MkdirAll("/.gear", 0o755); err != nil {
		return nil, fmt.Errorf("index: to image: %w", err)
	}
	if err := tree.WriteFile(IndexFileName, enc, 0o444); err != nil {
		return nil, fmt.Errorf("index: to image: %w", err)
	}
	cfg := ix.Config
	labels := make(map[string]string, len(cfg.Labels)+1)
	for k, v := range cfg.Labels {
		labels[k] = v
	}
	labels[IndexLabel] = "v1"
	cfg.Labels = labels
	return imagefmt.SingleLayerImage(ix.Name, ix.Tag, tree, cfg)
}

// FromImage extracts the Index from a single-layer Gear index image. The
// serialized index is read straight out of that layer's tarball: nothing
// is flattened, and no tree is built to hold one file.
func FromImage(img *imagefmt.Image) (*Index, error) {
	blob, err := imageBlob(img)
	if err != nil {
		return nil, err
	}
	return decodeIndex(blob)
}

// imageBlob reads the serialized index out of its single-layer image.
func imageBlob(img *imagefmt.Image) (string, error) {
	if img.Manifest.Config.Labels[IndexLabel] == "" {
		return "", fmt.Errorf("index: image %s is not a gear index: %w",
			img.Manifest.Reference(), ErrNotGearFile)
	}
	if len(img.Layers) != 1 {
		return "", fmt.Errorf("index: from image: %s has %d layers, a gear index image has one: %w",
			img.Manifest.Reference(), len(img.Layers), ErrCorrupt)
	}
	blob, err := img.Layers[0].ReadFile(IndexFileName)
	if err != nil {
		return "", fmt.Errorf("index: from image: %w: %w", ErrCorrupt, err)
	}
	return blob, nil
}
