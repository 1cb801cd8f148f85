//go:build !race

package dongle

const raceEnabled = false
