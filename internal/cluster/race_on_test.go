//go:build race

package cluster

// raceEnabled mirrors the -race build tag for tests: sync.Pool drops
// items at random under the race detector, so the pooled call's
// allocation budgets only hold in the regular suite.
const raceEnabled = true
