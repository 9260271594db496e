// Package imagefmt models the Docker image format described in §II of the
// Gear paper: a read-only template composed of stacked layers, each stored
// as a gzip-compressed tarball identified by the SHA256 digest of its
// content, plus a JSON manifest carrying the image configuration and the
// ordered layer digest list.
//
// The Gear converter consumes these images; the Docker-baseline registry
// and client push, pull, and flatten them exactly as the Docker
// distribution path does.
package imagefmt

import (
	"encoding/json"
	"errors"
	"fmt"

	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/tarstream"
	"github.com/gear-image/gear/internal/vfs"
)

// Errors returned by image operations.
var (
	ErrNoLayers      = errors.New("image has no layers")
	ErrLayerMismatch = errors.New("manifest layer list does not match image layers")
	ErrBadDigest     = errors.New("layer content does not match digest")
)

// Layer is one read-only image layer: a diff over its parents, serialized
// as a gzip-compressed tarball. Digest identifies the compressed bytes
// (what registries dedup on); DiffID identifies the uncompressed tar.
type Layer struct {
	Digest           hashing.Digest `json:"digest"`
	DiffID           hashing.Digest `json:"diffId"`
	Size             int64          `json:"size"`
	UncompressedSize int64          `json:"uncompressedSize"`

	tarball []byte // gzip tar
}

// NewLayerFromDiff serializes a layer diff tree (whiteouts included as
// literal ".wh.*" entries) into a Layer.
func NewLayerFromDiff(diff *vfs.FS) (*Layer, error) {
	raw, err := tarstream.Pack(diff)
	if err != nil {
		return nil, fmt.Errorf("imagefmt: pack layer: %w", err)
	}
	gz, err := tarstream.Gzip(raw)
	if err != nil {
		return nil, fmt.Errorf("imagefmt: compress layer: %w", err)
	}
	return &Layer{
		Digest:           hashing.DigestBytes(gz),
		DiffID:           hashing.DigestBytes(raw),
		Size:             int64(len(gz)),
		UncompressedSize: int64(len(raw)),
		tarball:          gz,
	}, nil
}

// NewLayerFromTarball wraps registry-fetched compressed bytes, verifying
// them against the expected digest.
func NewLayerFromTarball(gz []byte, want hashing.Digest) (*Layer, error) {
	if got := hashing.DigestBytes(gz); got != want {
		return nil, fmt.Errorf("imagefmt: %w: got %s want %s", ErrBadDigest, got, want)
	}
	// The DiffID and the uncompressed size are properties of the inflated
	// tar, which is hashed as it streams by and never held.
	diffID := hashing.NewDigestWriter()
	rawSize, err := tarstream.GunzipTo(diffID, gz)
	if err != nil {
		return nil, fmt.Errorf("imagefmt: decompress layer: %w", err)
	}
	return &Layer{
		Digest:           want,
		DiffID:           diffID.Digest(),
		Size:             int64(len(gz)),
		UncompressedSize: rawSize,
		tarball:          gz,
	}, nil
}

// Tarball returns the compressed layer bytes. Callers must not mutate it.
func (l *Layer) Tarball() []byte { return l.tarball }

// Tree decompresses and parses the layer into its diff tree.
func (l *Layer) Tree() (*vfs.FS, error) {
	return tarstream.UnpackGz(l.tarball)
}

// TreeKeep is Tree with the file contents the tree holds chosen by keep
// (see tarstream.Keep), which up to workers goroutines call at once.
func (l *Layer) TreeKeep(keep tarstream.Keep, workers int) (*vfs.FS, error) {
	return tarstream.UnpackGzKeep(l.tarball, keep, workers)
}

// ReadFile returns the content of the regular file at the clean path p
// in the layer's own diff — Tree().ReadFile(p) without the tree, and as
// the string its reader keeps (see tarstream.ReadFileGz).
func (l *Layer) ReadFile(p string) (string, error) {
	return tarstream.ReadFileGz(l.tarball, p)
}

// Config is the subset of a Docker image configuration the reproduction
// needs: the paper notes the converter must copy environment variables and
// configuration into the Gear index image so applications run unchanged.
type Config struct {
	Env        []string          `json:"env,omitempty"`
	Entrypoint []string          `json:"entrypoint,omitempty"`
	Cmd        []string          `json:"cmd,omitempty"`
	WorkingDir string            `json:"workingDir,omitempty"`
	Labels     map[string]string `json:"labels,omitempty"`
}

// Manifest is the registry-side description of an image: its reference,
// configuration, and ordered layer digests (bottom first).
type Manifest struct {
	Name   string           `json:"name"`
	Tag    string           `json:"tag"`
	Config Config           `json:"config"`
	Layers []hashing.Digest `json:"layers"`
	// LayerSizes mirrors Layers with the compressed byte size of each, so
	// clients can plan downloads without fetching blobs.
	LayerSizes []int64 `json:"layerSizes"`
}

// Reference returns the canonical "name:tag" reference.
func (m *Manifest) Reference() string { return m.Name + ":" + m.Tag }

// TotalSize returns the compressed size of all layers.
func (m *Manifest) TotalSize() int64 {
	var total int64
	for _, s := range m.LayerSizes {
		total += s
	}
	return total
}

// MarshalJSON-friendly encode/decode helpers.

// EncodeManifest renders the manifest as canonical JSON.
func EncodeManifest(m *Manifest) ([]byte, error) {
	data, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("imagefmt: encode manifest: %w", err)
	}
	return data, nil
}

// DecodeManifest parses manifest JSON.
func DecodeManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("imagefmt: decode manifest: %w", err)
	}
	return &m, nil
}

// Image is a complete local image: manifest plus layer payloads.
type Image struct {
	Manifest *Manifest
	Layers   []*Layer
}

// Validate checks manifest/layer agreement and digest integrity.
func (img *Image) Validate() error {
	if len(img.Layers) == 0 {
		return fmt.Errorf("imagefmt: %s: %w", img.Manifest.Reference(), ErrNoLayers)
	}
	if len(img.Manifest.Layers) != len(img.Layers) {
		return fmt.Errorf("imagefmt: %s: %w", img.Manifest.Reference(), ErrLayerMismatch)
	}
	for i, l := range img.Layers {
		if img.Manifest.Layers[i] != l.Digest {
			return fmt.Errorf("imagefmt: %s layer %d: %w", img.Manifest.Reference(), i, ErrLayerMismatch)
		}
		if got := hashing.DigestBytes(l.tarball); got != l.Digest {
			return fmt.Errorf("imagefmt: %s layer %d: %w", img.Manifest.Reference(), i, ErrBadDigest)
		}
	}
	return nil
}

// Flatten applies all layers bottom-up and returns the root filesystem the
// image describes, with whiteouts resolved.
func (img *Image) Flatten() (*vfs.FS, error) {
	root := vfs.New()
	for i, l := range img.Layers {
		tree, err := l.Tree()
		if err != nil {
			return nil, fmt.Errorf("imagefmt: flatten %s layer %d: %w",
				img.Manifest.Reference(), i, err)
		}
		if err := tarstream.ApplyLayer(root, tree); err != nil {
			return nil, fmt.Errorf("imagefmt: flatten %s layer %d: %w",
				img.Manifest.Reference(), i, err)
		}
	}
	return root, nil
}

// Builder assembles an image layer by layer.
type Builder struct {
	name   string
	tag    string
	config Config
	layers []*Layer
	// snapshot tracks the cumulative root filesystem so diffs can be
	// computed from successive snapshots.
	snapshot *vfs.FS
}

// NewBuilder starts an image build for name:tag.
func NewBuilder(name, tag string) *Builder {
	return &Builder{name: name, tag: tag, snapshot: vfs.New()}
}

// SetConfig replaces the image configuration.
func (b *Builder) SetConfig(c Config) *Builder {
	b.config = c
	return b
}

// AddDiffLayer appends a pre-computed diff tree as the next layer.
func (b *Builder) AddDiffLayer(diff *vfs.FS) error {
	layer, err := NewLayerFromDiff(diff)
	if err != nil {
		return err
	}
	if err := tarstream.ApplyLayer(b.snapshot, diff); err != nil {
		return fmt.Errorf("imagefmt: track snapshot: %w", err)
	}
	b.layers = append(b.layers, layer)
	return nil
}

// AddSnapshotLayer appends a layer computed as the diff between the
// builder's current cumulative filesystem and next. This mirrors how
// "docker commit" turns a writable layer into a read-only image layer.
func (b *Builder) AddSnapshotLayer(next *vfs.FS) error {
	diff, err := tarstream.Diff(b.snapshot, next)
	if err != nil {
		return fmt.Errorf("imagefmt: snapshot diff: %w", err)
	}
	layer, err := NewLayerFromDiff(diff)
	if err != nil {
		return err
	}
	b.snapshot = next.Clone()
	b.layers = append(b.layers, layer)
	return nil
}

// Build finalizes the image. The builder remains usable (e.g. to stack
// more layers for a derived image).
func (b *Builder) Build() (*Image, error) {
	if len(b.layers) == 0 {
		return nil, fmt.Errorf("imagefmt: build %s:%s: %w", b.name, b.tag, ErrNoLayers)
	}
	m := &Manifest{
		Name:   b.name,
		Tag:    b.tag,
		Config: b.config,
	}
	layers := make([]*Layer, len(b.layers))
	copy(layers, b.layers)
	for _, l := range layers {
		m.Layers = append(m.Layers, l.Digest)
		m.LayerSizes = append(m.LayerSizes, l.Size)
	}
	img := &Image{Manifest: m, Layers: layers}
	if err := img.Validate(); err != nil {
		return nil, err
	}
	return img, nil
}

// SingleLayerImage packages one tree as a single-layer image — the shape
// the Gear converter uses for Gear indexes (§III-C: "Gear index is
// organized as a single-layer Docker image so that it is accessible by
// Docker commands").
func SingleLayerImage(name, tag string, tree *vfs.FS, cfg Config) (*Image, error) {
	b := NewBuilder(name, tag)
	b.SetConfig(cfg)
	if err := b.AddDiffLayer(tree); err != nil {
		return nil, err
	}
	return b.Build()
}
