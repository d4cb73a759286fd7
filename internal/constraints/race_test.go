//go:build race

package constraints

// raceEnabled reports a -race build, whose instrumentation allocates
// inside the SAT solver where a plain build does not, so a session's
// allocation counts mean nothing there.
const raceEnabled = true
