package peer

import (
	"fmt"

	"github.com/gear-image/gear/internal/cache"
	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/tarstream"
	"github.com/gear-image/gear/internal/telemetry"
	"github.com/gear-image/gear/internal/wire"
)

// DefaultMaxConcurrent bounds how many downloads a peer serves at once
// when ServerOptions leaves MaxConcurrent zero. Serving neighbours must
// not starve the node's own workload, so the bound is deliberately
// small (the bounded-transfer-path lesson from parallel image pulling).
const DefaultMaxConcurrent = 4

// ServerOptions configures a Server.
type ServerOptions struct {
	// MaxConcurrent bounds concurrent serves; excess requests wait.
	// 0 selects DefaultMaxConcurrent.
	MaxConcurrent int
	// Compress serves gzip wire framing, exactly like a compressing
	// Gear Registry: gzip is deterministic here, so a file served by a
	// peer costs the same wire bytes as the registry serving it — what
	// keeps per-node received bytes identical with and without peers.
	Compress bool
	// Telemetry, if set, is the registry peer.served.* metrics publish
	// into — typically the owning daemon's. Nil gets private handles.
	Telemetry *telemetry.Registry
}

// Server exports a node's level-1 cache to its cluster over the Gear
// Registry's own query/download/batch verb set. Reads go through
// cache.Peek, so serving neighbours never distorts the owner's
// replacement decisions or hit-ratio accounting. Safe for concurrent
// use.
type Server struct {
	id    string
	cache *cache.Cache
	opts  ServerOptions
	sem   chan struct{}

	objectsServed *telemetry.Counter
	bytesServed   *telemetry.Counter
}

// NewServer exports c, owned by the node named id.
func NewServer(id string, c *cache.Cache, opts ServerOptions) *Server {
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = DefaultMaxConcurrent
	}
	return &Server{
		id:            id,
		cache:         c,
		opts:          opts,
		sem:           make(chan struct{}, opts.MaxConcurrent),
		objectsServed: opts.Telemetry.Counter("peer.served.objects"),
		bytesServed:   opts.Telemetry.Counter("peer.served.bytes"),
	}
}

// ID returns the owning node's id.
func (s *Server) ID() string { return s.id }

// Query reports whether the node currently holds fp.
func (s *Server) Query(fp hashing.Fingerprint) (bool, error) {
	if err := fp.Validate(); err != nil {
		return false, fmt.Errorf("peer server %s: query: %w", s.id, err)
	}
	return s.cache.Contains(fp), nil
}

// Download serves fp from the cache, returning the uncompressed payload
// and the wire bytes it cost (the compressed length when Compress is
// set). A file the cache no longer holds returns
// gearregistry.ErrNotFound — eviction between locate and download is a
// normal race, and callers fall back to another holder or the registry.
func (s *Server) Download(fp hashing.Fingerprint) ([]byte, int64, error) {
	data, stored, err := s.serve(fp)
	return data, int64(len(stored)), err
}

// Stored implements gearregistry.Pool: the bytes exactly as they cross
// the wire, gzip-framed when Compress is set, so that
// gearregistry.NewPoolHandler(s) serves the cache to a stock
// gearregistry.Client — single downloads and batches alike. Accounting
// matches Download.
func (s *Server) Stored(fp hashing.Fingerprint) (wire.Object, error) {
	data, stored, err := s.serve(fp)
	if err != nil {
		return wire.Object{}, err
	}
	return wire.Object{FP: fp, Stored: stored, Gzip: s.opts.Compress, Size: int64(len(data))}, nil
}

// serve looks fp up under a serve slot and counts it served: data is
// the content, stored the bytes as they cross the wire.
func (s *Server) serve(fp hashing.Fingerprint) (data, stored []byte, err error) {
	if err := fp.Validate(); err != nil {
		return nil, nil, fmt.Errorf("peer server %s: download: %w", s.id, err)
	}
	s.acquire()
	defer s.release()
	content, ok := s.cache.Peek(fp)
	if !ok {
		return nil, nil, fmt.Errorf("peer server %s: %s: %w", s.id, fp, gearregistry.ErrNotFound)
	}
	data = content.Data()
	stored = data
	if s.opts.Compress {
		if stored, err = tarstream.Gzip(data); err != nil {
			return nil, nil, fmt.Errorf("peer server %s: %s: %w", s.id, fp, err)
		}
	}
	s.objectsServed.Add(1)
	s.bytesServed.Add(int64(len(stored)))
	return data, stored, nil
}

func (s *Server) acquire() { s.sem <- struct{}{} }
func (s *Server) release() { <-s.sem }

// ServerStats summarizes what the node has served to its cluster.
type ServerStats struct {
	ObjectsServed int64 `json:"objectsServed"`
	BytesServed   int64 `json:"bytesServed"`
	MaxConcurrent int   `json:"maxConcurrent"`
}

// Stats returns a snapshot.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		ObjectsServed: s.objectsServed.Value(),
		BytesServed:   s.bytesServed.Value(),
		MaxConcurrent: s.opts.MaxConcurrent,
	}
}
