package prefetch

import (
	"fmt"
	"sort"
	"sync"

	"github.com/gear-image/gear/internal/telemetry"
)

// ErrNoProfile reports a library lookup for an image that has no
// persisted profile.
var ErrNoProfile = fmt.Errorf("no startup profile")

// Library persists startup profiles keyed by image reference, the way
// the store persists level-2 indexes: profiles survive container and
// daemon churn and are shared by every deploy of the image. Profiles
// are held in their encoded form, so every Get exercises the versioned
// decoder — a corrupt or version-skewed profile is discovered at load
// time and reported, never silently replayed.
//
// Library is safe for concurrent use.
type Library struct {
	mu       sync.Mutex
	profiles map[string][]byte

	// Telemetry gauges mirror the map under mu: profile count and
	// encoded-bytes footprint, so a shared registry sees the library
	// without iterating it.
	tele         *telemetry.Registry
	profileCount *telemetry.Gauge
	profileBytes *telemetry.Gauge
}

// NewLibrary returns an empty Library publishing profiles.* metrics
// into a private telemetry registry.
func NewLibrary() *Library {
	reg := telemetry.NewRegistry()
	return &Library{
		profiles:     make(map[string][]byte),
		tele:         reg,
		profileCount: reg.Gauge("profiles.count"),
		profileBytes: reg.Gauge("profiles.bytes"),
	}
}

// Snapshot implements telemetry.Snapshotter: the unified telemetry
// snapshot for this library, what the /profile/metrics endpoint serves.
func (l *Library) Snapshot() telemetry.Snapshot { return l.tele.Snapshot() }

// Put encodes and stores p under p.ImageRef, replacing any previous
// profile for that image.
func (l *Library) Put(p *Profile) error {
	data, err := Encode(p)
	if err != nil {
		return fmt.Errorf("prefetch: put %s: %w", p.ImageRef, err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.storeLocked(p.ImageRef, data)
	return nil
}

// PutRaw stores already-encoded bytes under ref without validating
// them. Tests use it to plant corrupt and version-skewed profiles; the
// decoder rejects them at Get time.
func (l *Library) PutRaw(ref string, data []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.storeLocked(ref, append([]byte(nil), data...))
}

// storeLocked installs data under ref and keeps the gauges equal to the
// map's size and byte footprint. Caller holds mu.
func (l *Library) storeLocked(ref string, data []byte) {
	if old, ok := l.profiles[ref]; ok {
		l.profileBytes.Add(-int64(len(old)))
	} else {
		l.profileCount.Add(1)
	}
	l.profiles[ref] = data
	l.profileBytes.Add(int64(len(data)))
}

// Get decodes and returns ref's profile. Absent profiles return
// ErrNoProfile; corrupt or version-skewed ones return the decoder's
// error. Callers treat any error as "deploy without prefetch".
func (l *Library) Get(ref string) (*Profile, error) {
	l.mu.Lock()
	data, ok := l.profiles[ref]
	l.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("prefetch: %s: %w", ref, ErrNoProfile)
	}
	p, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("prefetch: %s: %w", ref, err)
	}
	return p, nil
}

// Delete removes ref's profile, reporting whether one was present.
func (l *Library) Delete(ref string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	old, ok := l.profiles[ref]
	if ok {
		l.profileCount.Add(-1)
		l.profileBytes.Add(-int64(len(old)))
	}
	delete(l.profiles, ref)
	return ok
}

// Info summarizes one persisted profile for listings.
type Info struct {
	// Ref is the image reference the profile belongs to.
	Ref string `json:"ref"`
	// Entries is the number of recorded first accesses.
	Entries int `json:"entries"`
	// Bytes is the content volume the profile covers.
	Bytes int64 `json:"bytes"`
}

// List summarizes every persisted profile, sorted by reference.
// Profiles that no longer decode (corrupt plants, version skew) are
// listed with Entries == -1 so operators can find and delete them.
func (l *Library) List() []Info {
	l.mu.Lock()
	refs := make([]string, 0, len(l.profiles))
	for ref := range l.profiles {
		refs = append(refs, ref)
	}
	l.mu.Unlock()
	sort.Strings(refs)
	out := make([]Info, 0, len(refs))
	for _, ref := range refs {
		p, err := l.Get(ref)
		if err != nil {
			out = append(out, Info{Ref: ref, Entries: -1})
			continue
		}
		out = append(out, Info{Ref: ref, Entries: len(p.Entries), Bytes: p.TotalBytes()})
	}
	return out
}
