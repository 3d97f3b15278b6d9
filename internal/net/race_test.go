//go:build race

package net

// A -race build's sync.Pool drops a random share of what is put back
// (fmt's printer pool among them), so exact allocation counts do not
// hold under it.
func init() { raceEnabled = true }
