// Package a seeds a lock-order cycle that crosses a package boundary.
// Neither package sits under internal/engine or internal/timerwheel,
// and one of the two orders exists only through the acquire summary of
// a function in another package: the gate finds the cycle because it
// is whole-program and runs wherever a mutex is declared.
package a

import (
	"sync"

	"vids/cmd/vidslint/testdata/src/lockcycle/b"
)

// T guards n with mu.
type T struct {
	mu sync.Mutex
	n  int
}

// F holds T.mu and calls b.G, which takes b.U.Mu: a.T.mu → b.U.Mu.
func F(t *T, u *b.U) {
	t.mu.Lock()
	b.G(u)
	t.mu.Unlock()
}

// H takes the pair in the opposite order, T.mu through a helper:
// b.U.Mu → a.T.mu. // want: lock-order cycle
func H(t *T, u *b.U) {
	u.Mu.Lock()
	bump(t)
	u.Mu.Unlock()
}

func bump(t *T) {
	t.mu.Lock()
	t.n++
	t.mu.Unlock()
}
