//go:build !race

package zero

const raceEnabled = false
