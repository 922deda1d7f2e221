// Package nopanic deliberately violates vidslint's panic-freedom
// gate; it is analyzed only by the analyzer's own tests (the go
// tool's ./... skips testdata). Every seeded site below corresponds to
// one rule of the panic model, and the directive misuses at the
// bottom exercise the freshness sweep.
package nopanic

import "encoding/hex"

// Box mirrors a parsed-message record.
type Box struct{ N int }

// hook is a function value the traversal cannot resolve.
var hook = func(b []byte) {}

// Feeder is an interface the gate cannot see through.
type Feeder interface{ Feed(b []byte) }

// Entry is the seeded untrusted-input root: each commented line below
// is one distinct violation class.
//
//vids:nopanic fixture root; every site below is a seeded violation
func Entry(data []byte, v any, f Feeder, k int) int {
	x := data[4]     // want: index may be out of range
	tail := data[k:] // want: slice bounds may be out of range
	n := v.(int)     // want: single-result type assertion
	var m map[string]int
	m["k"] = n // want: write to a map not bound only to make or a literal
	var p *Box
	total := p.N        // want: nil pointer dereference
	total += int(x) / n // want: divisor may be zero
	total <<= n         // want: shift count may be negative
	if n > 1000 {
		panic("flood") // want: explicit panic call
	}
	idx := uint64(total)
	small := data[uint8(idx)] // want: truncating conversion used as index, and its bounds check
	hook(tail)                // want: dynamic call through function value
	f.Feed(tail)              // want: unresolvable interface method call
	_ = hex.EncodeToString(tail)
	pair := [2]byte(tail)  // want: slice-to-array conversion may get a short slice
	buf := make([]byte, k) // want: make size neither a constant nor a len or cap
	//vids:panic-ok fixture: seeded suppression — this waiver absorbs the site below
	waived := data[9]
	total += helper(tail) + int(small) + int(waived) + int(Quiet(tail)) + int(pair[1]) + len(buf)
	return total
}

// helper panics one level below the root, so its finding must carry
// the call-graph path nopanic.Entry → nopanic.helper.
func helper(b []byte) int {
	return int(b[8]) // want: index may be out of range, with path diagnostic
}

// Quiet is reached from the root and fully guarded, so its
// function-level waiver has nothing left to justify.
//
//vids:panic-ok fixture: stale because Quiet suppresses nothing
func Quiet(b []byte) byte {
	if len(b) == 0 {
		return 0
	}
	return b[0]
}

// Unreached carries a function-level waiver but no nopanic root
// reaches it, so the waiver is stale by construction.
//
//vids:panic-ok fixture: stale because Unreached is unreached
func Unreached(b []byte) byte {
	return b[0]
}

// waivers seeds the line-level hygiene findings: a waiver with no
// justification, and a justified waiver with nothing to justify.
func waivers(b []byte) int {
	x := 0
	//vids:panic-ok
	x++
	//vids:panic-ok fixture: nothing on this line can panic
	x++
	return x + len(b)
}
