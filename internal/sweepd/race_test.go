//go:build race

package sweepd

// The race detector's sync.Pool drops a quarter of the values put back, so
// under -race json.Encoder allocates a fresh encoder state on about one
// Encode in four, and allocation bounds on per-line encoding do not hold.
func init() { raceEnabled = true }
