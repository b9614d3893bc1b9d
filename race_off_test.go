//go:build !race

package talign

// raceEnabled reports that the race detector is on: it instruments
// allocations, so pins on absolute malloc counts do not apply.
const raceEnabled = false
