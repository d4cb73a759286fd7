//go:build race

package sat

// raceEnabled reports a -race build, whose instrumentation allocates
// where a plain build does not, so allocation counts mean nothing.
const raceEnabled = true
