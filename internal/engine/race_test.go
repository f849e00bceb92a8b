//go:build race

package engine_test

// The race detector makes sync.Pool drop a share of what is put back,
// so pooled paths allocate under -race by design.
func init() { raceEnabled = true }
