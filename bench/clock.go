package main

import "time"

// now is the harness's only wall-clock read: cosmo/bench is not in the
// lint allowlist, so every timestamp the benchmark takes goes through
// this one helper.
func now() time.Time {
	//cosmo:lint-ignore wallclock the benchmark measures wall time by definition; this helper is its single clock read
	return time.Now()
}

// since is time.Since on the harness clock.
func since(t time.Time) time.Duration { return now().Sub(t) }

// spinWindow is how close to a due time sleepUntil stops sleeping and
// busy-waits.
const spinWindow = 2 * time.Millisecond

// sleepUntil blocks until the harness clock reaches due: a coarse sleep,
// then a busy-wait for the last spinWindow.
func sleepUntil(due time.Time) {
	for {
		d := due.Sub(now())
		switch {
		case d <= 0:
			return
		case d > spinWindow:
			time.Sleep(d - spinWindow)
		}
	}
}
