//go:build !race

package dts

const raceEnabled = false
