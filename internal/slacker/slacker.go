// Package slacker implements the Slacker baseline of Fig 10 (Harter et
// al., FAST'16): a block-based remote image format. Each image is
// flattened onto a per-container virtual block device served over the
// network (the original uses LVM over NFS on a Tintri VMstore); a
// container boots immediately and pages 4 KB blocks in on demand.
//
// The two properties that distinguish Slacker from Gear in the paper's
// evaluation are modeled faithfully:
//
//   - block granularity: a file read fetches every block it spans, plus
//     per-file metadata blocks, so the request count is much higher than
//     Gear's one-request-per-file — which is why Slacker degrades faster
//     as bandwidth drops (§V-E2);
//   - no sharing: block caches are per-container and per-image, so
//     deploying version N+1 after version N re-fetches everything
//     ("Slacker's time shows little change due to the absence of sharing
//     mechanism").
package slacker

import (
	"errors"
	"fmt"
	"sync"

	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/vfs"
)

// DefaultBlockSize is the 4 KB paging granularity.
const DefaultBlockSize = 4096

// Errors returned by slacker operations.
var (
	ErrNoImage     = errors.New("image not on block server")
	ErrNoMount     = errors.New("container has no mounted device")
	ErrMountExists = errors.New("container already mounted")
	ErrNotFile     = errors.New("not a regular file")
)

// extent locates a file's bytes on the device.
type extent struct {
	offset int64
	length int64
}

// BlockImage is one image laid out as a virtual block device.
type BlockImage struct {
	ref       string
	blockSize int64
	device    []byte
	extents   map[string]extent
	// metaBlocks is the number of filesystem-metadata blocks charged on
	// mount (superblock, inode tables) before any file is read.
	metaBlocks int
}

// FromImage flattens img onto a device image.
func FromImage(img *imagefmt.Image, blockSize int64) (*BlockImage, error) {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	root, err := img.Flatten()
	if err != nil {
		return nil, fmt.Errorf("slacker: layout %s: %w", img.Manifest.Reference(), err)
	}
	bi := &BlockImage{
		ref:       img.Manifest.Reference(),
		blockSize: blockSize,
		extents:   make(map[string]extent),
	}
	err = root.Walk(func(p string, n *vfs.Node) error {
		if n.Type() != vfs.TypeRegular {
			return nil
		}
		data := n.Content().Data()
		// Files start block-aligned, as ext4 would place them.
		if pad := int64(len(bi.device)) % blockSize; pad != 0 {
			bi.device = append(bi.device, make([]byte, blockSize-pad)...)
		}
		bi.extents[p] = extent{offset: int64(len(bi.device)), length: int64(len(data))}
		bi.device = append(bi.device, data...)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("slacker: layout %s: %w", img.Manifest.Reference(), err)
	}
	// Metadata footprint grows with file count (inode blocks).
	bi.metaBlocks = 4 + len(bi.extents)/64
	return bi, nil
}

// Server hosts block images (the NFS/VMstore side). Safe for concurrent
// use.
type Server struct {
	mu     sync.RWMutex
	images map[string]*BlockImage
}

// NewServer returns an empty block server.
func NewServer() *Server {
	return &Server{images: make(map[string]*BlockImage)}
}

// Put registers an image's block layout.
func (s *Server) Put(bi *BlockImage) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.images[bi.ref] = bi
}

// Get fetches an image's layout.
func (s *Server) Get(ref string) (*BlockImage, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	bi, ok := s.images[ref]
	if !ok {
		return nil, fmt.Errorf("slacker: %s: %w", ref, ErrNoImage)
	}
	return bi, nil
}

// Client is one deployment host. Block caches are per-container.
type Client struct {
	server *Server
	// onFetch observes remote block fetches (count, bytes).
	onFetch func(blocks int, bytes int64)

	mu     sync.Mutex
	mounts map[string]*mountState
}

type mountState struct {
	image  *BlockImage
	cached map[int64]bool // block index -> present locally
}

// NewClient returns a client against server. onFetch may be nil.
func NewClient(server *Server, onFetch func(blocks int, bytes int64)) *Client {
	return &Client{
		server:  server,
		onFetch: onFetch,
		mounts:  make(map[string]*mountState),
	}
}

// Mount attaches a container to its per-container device and pages in
// the filesystem metadata blocks. This is Slacker's whole "pull" phase:
// no image data crosses the wire yet.
func (c *Client) Mount(containerID, ref string) error {
	bi, err := c.server.Get(ref)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.mounts[containerID]; ok {
		return fmt.Errorf("slacker: %s: %w", containerID, ErrMountExists)
	}
	c.mounts[containerID] = &mountState{image: bi, cached: make(map[int64]bool)}
	c.recordLocked(bi.metaBlocks, int64(bi.metaBlocks)*bi.blockSize)
	return nil
}

// Unmount detaches the container, discarding its block cache.
func (c *Client) Unmount(containerID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.mounts[containerID]; !ok {
		return fmt.Errorf("slacker: %s: %w", containerID, ErrNoMount)
	}
	delete(c.mounts, containerID)
	return nil
}

// ReadFile reads a file through the container's device, fetching any
// blocks not yet paged in.
func (c *Client) ReadFile(containerID, path string) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.mounts[containerID]
	if !ok {
		return nil, fmt.Errorf("slacker: %s: %w", containerID, ErrNoMount)
	}
	ext, ok := m.image.extents[vfs.Clean(path)]
	if !ok {
		return nil, fmt.Errorf("slacker: %s: %s: %w", containerID, path, ErrNotFile)
	}
	first := ext.offset / m.image.blockSize
	last := (ext.offset + ext.length - 1) / m.image.blockSize
	if ext.length == 0 {
		last = first
	}
	missing := 0
	for b := first; b <= last; b++ {
		if !m.cached[b] {
			m.cached[b] = true
			missing++
		}
	}
	c.recordLocked(missing, int64(missing)*m.image.blockSize)
	return m.image.device[ext.offset : ext.offset+ext.length], nil
}

func (c *Client) recordLocked(blocks int, bytes int64) {
	if blocks == 0 {
		return
	}
	if c.onFetch != nil {
		c.onFetch(blocks, bytes)
	}
}
