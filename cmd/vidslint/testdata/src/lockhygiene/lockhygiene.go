// Package lockhygiene seeds what the lock gate and the directive sweep
// missed while the gate ran on a list of package paths and each
// directive had a reader of its own: this package is on no list, it
// just declares a mutex.
package lockhygiene

import (
	"sync"
	"time"
)

// queue is a ring with a condition variable, so mu is a queue lock.
type queue struct {
	mu    sync.Mutex
	ready sync.Cond
	buf   []int
}

// stats is the second lock of the one nesting this package has.
type stats struct {
	mu   sync.Mutex
	pops int
}

// ifWait guards Wait with an if: a spurious wakeup pops an empty ring.
func ifWait(q *queue) int {
	q.mu.Lock()
	if len(q.buf) == 0 {
		q.ready.Wait() // want: Wait outside a for loop
	}
	v := q.buf[0]
	q.buf = q.buf[1:]
	q.mu.Unlock()
	return v
}

// popCounted nests stats.mu inside queue.mu; the walk sees the order.
func popCounted(q *queue, s *stats) {
	q.mu.Lock()
	s.mu.Lock()
	s.pops++
	s.mu.Unlock()
	q.mu.Unlock()
}

// The first declaration repeats what popCounted shows (want: stale),
// the second has no arrow (want: malformed).
//
//vids:lockorder lockhygiene.queue.mu -> lockhygiene.stats.mu the walk sees this in popCounted
//vids:lockorder lockhygiene.queue.mu then lockhygiene.stats.mu
var _ = popCounted

// elapsed reads no wall clock on the annotated line.
func elapsed(start, now time.Time) time.Duration {
	//vidslint:allow wallclock — want: stale, nothing here reads the clock
	return now.Sub(start)
}
