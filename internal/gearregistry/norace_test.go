//go:build !race

package gearregistry

const raceEnabled = false
