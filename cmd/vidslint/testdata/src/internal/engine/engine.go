// Package engine deliberately violates vidslint's wall-clock rule;
// it is analyzed only by the analyzer's own tests (the go tool's
// ./... skips testdata). Its import path ends in
// "internal/engine", which is what puts it inside the rule's gate.
package engine

import "time"

// Deadline reads the wall clock twice without annotation. Both calls
// must be flagged.
func Deadline() time.Time {
	start := time.Now()                      // finding: wall clock
	return start.Add(time.Since(time.Now())) // finding: wall clock (nested call)
}

// Backoff sleeps on the wall clock. Flagged.
func Backoff() {
	time.Sleep(10 * time.Millisecond) // finding: wall clock
}

// Instrumented is a deliberate wall-clock site — self-timing around a
// batch, annotated end-of-line. Not flagged.
func Instrumented() time.Duration {
	start := time.Now() //vidslint:allow wallclock
	work()
	//vidslint:allow wallclock
	return time.Since(time.Now().Add(-time.Since(start)))
}

// VirtualOK uses a passed-in instant instead of the wall clock. Not
// flagged: time arithmetic is fine, only Now and Sleep read the
// clock.
func VirtualOK(now time.Time) time.Time {
	return now.Add(250 * time.Millisecond)
}

func work() {}
