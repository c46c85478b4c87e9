//go:build race

package main

// raceEnabled: the race detector slows the stack several times over, so
// the open loop's fixed rates, calibrated for a plain build, overload it.
const raceEnabled = true
