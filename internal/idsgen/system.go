// Package idsgen is the compiled backend for the EFSM specifications
// of internal/ids. Everything that is specification semantics — the
// dense state×event tables, the typed event vectors, the machine
// structs holding the l.* and g.* variables as fields, Step, and the
// guard and action bodies — is generated by cmd/specgen from the same
// guard/action IR the interpreted reference evaluates (*_gen.go; `make
// specgen`, checked by `specgen -check`). The three handwritten files
// name no state, variable, event or guard: runtime.go holds the table
// types and the machine shell, this file the constructors,
// reconstruct.go the table-to-Spec view behind `fsmdump -backend
// compiled`. The machines mirror core.Machine exactly — same candidate
// walk, same coverage-callback order — behind core.MachineLike, and a
// call's three machines run inside core.System, the δ-FIFO runtime the
// interpreted backend uses too, so the two backends are
// interchangeable and held to each other step by step
// (differential_test.go).
package idsgen

import (
	"time"

	"vids/internal/core"
)

// Params carries the configuration the compiled machines are built
// with: the Figure 6 media thresholds and the cross-protocol ablation
// switch. It is a value copy of the relevant ids.Config fields (idsgen
// cannot import internal/ids — ids imports idsgen); the constructors
// below split it into each machine type's generated parameter block.
type Params struct {
	// SeqGap / TSGap are the paper's Δn and Δt spam thresholds.
	SeqGap uint16
	TSGap  uint32
	// RateWindow / RatePackets bound the legitimate packet rate.
	RateWindow  time.Duration
	RatePackets int
	// CrossProtocol enables the δ teardown/reopen notifications from
	// the SIP machine to the RTP machines (ablation A1 disables it).
	CrossProtocol bool
}

// NewCallSystem builds one compiled per-call communicating system: the
// SIP machine and the two RTP direction machines of Figure 2(b), wired
// to one shared SysGlobals and handed to core.System, the δ-FIFO
// runtime both backends share. Members answer to their table's name.
func NewCallSystem(p Params) *core.System {
	c := new(struct {
		g              SysGlobals
		sip            SIPMachine
		caller, callee RTPMachine
	})
	media := rtpParams{SeqGap: int(p.SeqGap), TSGap: p.TSGap, RateWindow: p.RateWindow, RatePackets: p.RatePackets}
	c.sip = SIPMachine{machBase: newBase(&tblSip), g: &c.g, p: sipParams{CrossProtocol: p.CrossProtocol}}
	c.caller = RTPMachine{machBase: newBase(&tblRtpCaller), g: &c.g, p: media}
	c.callee = RTPMachine{machBase: newBase(&tblRtpCallee), g: &c.g, p: media}
	return core.Compose(&c.g, &c.sip, &c.caller, &c.callee)
}

// FloodKind selects which windowed-counter twin a FloodMachine runs:
// Figure 4's per-destination INVITE flood detector or the DRDoS stray
// response counter. The twins share one machine type; only the counted
// event and the attack label differ, and those live in their tables.
type FloodKind uint8

// Flood detector kinds.
const (
	FloodInvite FloodKind = iota
	FloodResponse
)

// NewFloodMachine builds one compiled windowed flood counter with
// threshold n (Figure 4).
//
//vids:coldpath flood machines are created once per watched destination
func NewFloodMachine(kind FloodKind, n int) *FloodMachine {
	tbl := &tblInviteFlood
	if kind == FloodResponse {
		tbl = &tblResponseFlood
	}
	return &FloodMachine{machBase: newBase(tbl), p: floodParams{N: n}}
}

// NewSpamMachine builds one compiled standalone media-spam monitor
// (Figure 6). Only the media thresholds of p are consulted.
//
//vids:coldpath spam monitors are created once per unsolicited stream
func NewSpamMachine(p Params) *SpamMachine {
	return &SpamMachine{machBase: newBase(&tblRtpSpam), p: spamParams{SeqGap: int(p.SeqGap), TSGap: p.TSGap}}
}
