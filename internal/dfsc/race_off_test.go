//go:build !race

package dfsc

// raceEnabled reports whether the race detector is compiled in.
// Allocation assertions are skipped under -race: the detector drops a
// share of sync.Pool puts on purpose and its instrumentation allocates.
const raceEnabled = false
