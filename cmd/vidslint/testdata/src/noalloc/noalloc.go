// Package noalloc deliberately violates vidslint's whole-program
// allocation gate; it is analyzed only by the analyzer's own tests.
// The gate compiles it (the go tool builds a testdata package when
// named, though its ./... skips testdata), and every seeded site below
// is one the compiler really heap-allocates, or a call the gate cannot
// follow. The directive misuses at the bottom exercise the freshness
// sweep.
package noalloc

// Box is a record the seeded sites force onto the heap.
type Box struct{ N int }

// Sink keeps boxed values reachable, mirroring how alert callbacks
// retain interface values in the real codebase.
var Sink any

// Table keeps a map reachable, so making it allocates.
var Table map[string]int

// Bytes keeps an appended copy reachable.
var Bytes []byte

// Kept keeps a local's address reachable past the call that took it.
var Kept *[]int

// hook is a function value the traversal cannot resolve.
var hook = func() {}

// Hot is the seeded hot-path root: each line below is one distinct
// violation class.
//
//vids:noalloc fixture root; every site below is a seeded violation
func Hot(b []byte) string {
	Table = make(map[string]int) // want: make allocates a map
	Table["k"] = len(b)          // want: map assignment may grow
	s := string(b)               // want: conversion copies
	go idle()                    // want: go statement allocates
	hook()                       // want: dynamic call through a function value
	Sink = s                     // want: interface conversion boxes
	Bytes = append(b, '!')       // want: append not reassigned to its own operand
	Bytes = []byte(s + s)        // want: conversion of a concatenation allocates
	var grown []byte
	grown = append(grown, b...) // want: self-append onto a local declared without capacity
	Bytes = grown
	escape()
	keep(len(b))
	return s
}

// escape allocates one level below the root, so its finding must carry
// the call-graph path noalloc.Hot → noalloc.escape.
func escape() *Box {
	return &Box{N: 1} // want: composite literal escapes
}

// keep publishes a local's address, so the variable moves to the heap
// though no line of it says new or &T{}: the shape of a copy-on-write
// list published through an atomic pointer. Its self-append has no
// capacity to reuse either: list is declared without one.
func keep(n int) {
	var list []int         // want: a value escapes (moved to heap: list)
	list = append(list, n) // want: self-append onto a local declared without capacity
	Kept = &list
}

func idle() {}

// Frozen is reached from no root, so its function-level waiver is
// stale by construction.
//
//vids:alloc-ok fixture: stale because Frozen is unreached
func Frozen() []int {
	return make([]int, 4)
}

// Detached is never reached either; its coldpath marker never cuts a
// traversal and must be reported stale.
//
//vids:coldpath fixture: stale because no closure reaches Detached
func Detached() {}

// Confused carries contradictory directives: a function cannot be a
// hot-path root and off the hot path at once.
//
//vids:noalloc fixture conflict root
//vids:coldpath fixture conflict marker
func Confused() {}

// waivers seeds the two line-level hygiene findings: a waiver with no
// justification, and a justified waiver with nothing left to justify.
func waivers() int {
	x := 0
	//vids:alloc-ok
	x++
	//vids:alloc-ok fixture: nothing on this line allocates
	x++
	return x
}
