package main

import "time"

// now is the benchmark's only wall-clock read. The harness measures real
// elapsed time around calls into the product; nothing it reads here is fed
// back into the pipeline, whose own clock stays the simulated one.
func now() time.Time {
	return time.Now() //falcon:allow determinism the benchmark's stopwatch: measures the product from outside, never feeds simulation state
}

// since is time.Since through now.
func since(t time.Time) time.Duration { return now().Sub(t) }

// timed runs fn and returns how long it took.
func timed(fn func()) time.Duration {
	t0 := now()
	fn()
	return since(t0)
}
