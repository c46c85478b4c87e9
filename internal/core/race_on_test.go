//go:build race

package core

// raceEnabled mirrors the -race build tag for tests: sync.Pool
// deliberately drops items under the race detector, so pool-backed
// allocation budgets only hold in the regular suite.
const raceEnabled = true
