//go:build race

package wire

// raceEnabled says the race detector is on: sync.Pool then drops a
// quarter of what it is given, so what a path allocates says little
// about the path.
const raceEnabled = true
