//go:build race

package radio

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a share of the items put back, so allocation counts over pooled
// paths only hold without it.
const raceEnabled = true
