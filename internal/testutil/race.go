//go:build race

package testutil

// Race reports whether the race detector is on. Under it sync.Pool drops
// a share of what is put back, so a pooled search allocates more.
const Race = true
