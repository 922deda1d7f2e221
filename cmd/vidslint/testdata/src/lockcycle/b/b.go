// Package b is the callee half of the cross-package lock-order cycle
// fixture (see package a). Its mutex is exported only so that package
// a can take it directly: Go's import graph is acyclic, so b can never
// name a lock of a, and both orders have to be written where both
// locks are visible.
package b

import "sync"

// U guards n with Mu.
type U struct {
	Mu sync.Mutex
	n  int
}

// G takes U.Mu. A caller that holds a lock of its own orders that lock
// before U.Mu — an edge only a whole-program summary can see.
func G(u *U) {
	u.Mu.Lock()
	u.n++
	u.Mu.Unlock()
}
