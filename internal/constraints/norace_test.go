//go:build !race

package constraints

const raceEnabled = false
