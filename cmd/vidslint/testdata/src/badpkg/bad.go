// Package badpkg deliberately violates vidslint's dropped-error and
// Args-indexing rules; it is analyzed only by the analyzer's own
// tests (the go tool's ./... skips testdata).
package badpkg

import (
	"vids/internal/core"
	"vids/internal/rtp"
	"vids/internal/sim"
)

// DropEverything discards the results of every call the linter cares
// about. Each of the four calls below must be flagged.
func DropEverything(m *core.Machine, sys *core.System) {
	m.Step(core.Event{Name: "e"})                 // finding: dropped Step
	sys.Deliver("m", core.Event{Name: "e"})       // finding: dropped Deliver
	go sys.DeliverSync("m", core.Event{Name: ""}) // finding: dropped DeliverSync
	defer m.Step(core.Event{Name: "e"})           // finding: dropped Step
}

// ExplicitDiscard is the accepted idiom: the blank assignments are a
// visible, reviewable decision. Not flagged.
func ExplicitDiscard(m *core.Machine) {
	_, _ = m.Step(core.Event{Name: "e"})
}

// RawArgs indexes the event argument map directly instead of going
// through the typed accessors. Both the read and the write must be
// flagged.
func RawArgs(e core.Event) any {
	e.Args["k"] = 1    // finding: direct Args index
	return e.Args["x"] // finding: direct Args index
}

// TypedAccess is the accepted idiom. Not flagged.
func TypedAccess(e core.Event) string {
	return e.StringArg("x")
}

// PayloadAssertString materializes the whole packet body as a string
// via a type assertion — the per-packet copy the hot path forbids.
// Must be flagged.
func PayloadAssertString(pkt *sim.Packet) string {
	return string(pkt.Payload.([]byte)) // finding: payload string conversion
}

// PayloadFieldString converts a typed []byte Payload field. Must be
// flagged.
func PayloadFieldString(p *rtp.Packet) string {
	return string(p.Payload) // finding: payload string conversion
}

// ByteSliceString converts a byte slice that is not a packet payload.
// Not flagged.
func ByteSliceString(b []byte) string {
	return string(b)
}

// PayloadLength reads the payload without copying it. Not flagged.
func PayloadLength(p *rtp.Packet) int {
	return len(p.Payload)
}
