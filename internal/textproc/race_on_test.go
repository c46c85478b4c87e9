//go:build race

package textproc

// raceEnabled mirrors the -race build tag for tests: the race detector
// instruments allocation, so AllocsPerRun budgets only hold in the
// regular suite.
const raceEnabled = true
