package telemetry

import "time"

// Span classes: what triggered the recorded work.
const (
	// ClassDemand marks work done on the blocking path of a container
	// read (a demand fault).
	ClassDemand = "demand"
	// ClassPrefetch marks work done speculatively by the profile replay.
	ClassPrefetch = "prefetch"
)

// Span is one node of a deployment's span tree. Its durations are
// virtual-clock time, which a simulation reproduces exactly.
type Span struct {
	// ID identifies the span in its tree (1-based).
	ID int64 `json:"id,omitempty"`
	// Parent is the ID of the span this one is part of; 0 for a root.
	// A parent's Dur and Bytes include its children's.
	Parent int64 `json:"parent,omitempty"`
	// Op names the operation. A deployment's tree: "deploy" (the root),
	// "deploy.pull" with "deploy.unpack", "deploy.prefetch", and
	// "deploy.run" with "deploy.fault", "deploy.local" and
	// "deploy.compute".
	Op string `json:"op"`
	// Ref identifies the subject (image ref or accessed path).
	Ref string `json:"ref,omitempty"`
	// Class is ClassDemand or ClassPrefetch.
	Class string `json:"class,omitempty"`
	// Objects is the number of Gear files or requests the span moved
	// (for "deploy.local", the accesses it served).
	Objects int `json:"objects,omitempty"`
	// Bytes is the wire volume the span accounts for.
	Bytes int64 `json:"bytes,omitempty"`
	// Dur is the span's duration.
	Dur time.Duration `json:"dur,omitempty"`
}
