//go:build race

package store

// A -race build's sync.Pool drops a random share of what is put back,
// so exact allocation counts do not hold under it.
func init() { raceEnabled = true }
