// Package bufpool provides a fixed-size datagram-buffer free list for
// the live ingestion path (ingress.UDPListeners).
//
// A UDP reader needs a maximum-datagram-sized buffer per read, and the
// engine keeps the payload referenced until the owning shard has
// analyzed the packet — so the buffer cannot be reused immediately and
// a naive reader allocates ~64 KiB per datagram. The pool mirrors the
// CallMonitor free list in internal/ids: buffers are recycled
// explicitly at end-of-life (the engine's OnRetire hook) rather than
// left for the garbage collector, so a steady-state capture loop
// allocates nothing.
//
// The pool only ever adopts buffers of its own size class: Put drops
// foreign slices (for example trace-replay payloads retired through
// the same engine hook) instead of mixing capacities into the free
// list. That keeps Get's contract trivial — every buffer it returns
// has the full capacity a datagram read needs.
package bufpool

import "sync"

// DefaultSize is the buffer capacity used by New(0): the maximum UDP
// datagram size, so one buffer always holds one whole read.
const DefaultSize = 64 * 1024

// Pool is a mutex-guarded free list of equal-capacity byte buffers.
// The zero value is not usable; create pools with New.
type Pool struct {
	mu     sync.Mutex
	size   int
	free   [][]byte
	gets   uint64
	misses uint64
}

// New creates a pool of size-capacity buffers. size <= 0 means
// DefaultSize.
func New(size int) *Pool {
	if size <= 0 {
		size = DefaultSize
	}
	return &Pool{size: size}
}

// Size reports the capacity of every buffer the pool hands out.
func (p *Pool) Size() int { return p.size }

// Get returns a full-length buffer (len == cap == Size), recycled when
// the free list has one.
//
//vids:noalloc the per-datagram receive path; steady state recycles via Put
func (p *Pool) Get() []byte {
	p.mu.Lock()
	p.gets++
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return b
	}
	p.misses++
	p.mu.Unlock()
	return make([]byte, p.size) //vids:alloc-ok pool miss: first use or more buffers in flight than ever retired
}

// Put returns a buffer to the free list. Slices of a different
// capacity are dropped — the retire hook sees every payload the engine
// finishes with, pooled or not, and only the pool's own buffers may
// re-enter circulation.
//
//vids:noalloc the per-datagram retire path
func (p *Pool) Put(b []byte) {
	if cap(b) != p.size {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, b[:p.size])
	p.mu.Unlock()
}

// Stats reports lifetime Get calls, allocation misses, and the current
// free-list depth.
func (p *Pool) Stats() (gets, misses uint64, free int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gets, p.misses, len(p.free)
}
