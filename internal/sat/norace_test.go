//go:build !race

package sat

const raceEnabled = false
