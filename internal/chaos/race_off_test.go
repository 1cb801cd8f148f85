//go:build !race

package chaos

const raceEnabled = false
