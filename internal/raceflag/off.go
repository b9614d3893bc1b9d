//go:build !race

// Package raceflag tells tests whether the race detector is on: it
// instruments allocations, so pins on absolute malloc and byte counts do
// not apply under it.
package raceflag

// Enabled reports that the binary was built with -race.
const Enabled = false
