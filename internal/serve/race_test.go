//go:build race

package serve

// raceEnabled reports a -race build, under which sync.Pool drops pooled
// objects at random and allocation counts do not repeat.
const raceEnabled = true
