//go:build race

package dts

// raceEnabled reports a -race build, where sync.Pool drops a share of
// what is put back at random, so pooled-buffer allocation counts mean
// nothing.
const raceEnabled = true
