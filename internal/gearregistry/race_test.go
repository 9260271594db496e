//go:build race

package gearregistry

// raceEnabled says the race detector is on: sync.Pool then drops a
// quarter of what it is given — a compressor's state among it — so what
// a path allocates says little about the path.
const raceEnabled = true
