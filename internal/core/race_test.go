//go:build race

package core

// Built only with the race detector, which the byte budgets must know of
// (raceDetector).
func init() { raceDetector = true }
