//go:build race

package service

// The race detector makes sync.Pool drop a share of what is put back,
// so pooled paths allocate more under -race by design.
func init() { raceEnabled = true }
