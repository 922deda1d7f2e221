// Code generated by specgen from the EFSM specifications. DO NOT EDIT.
//
// Regenerate with `make specgen`; CI runs `specgen -check` and fails
// if this file drifts from the specifications.

package idsgen

import (
	"time"
	"vids/internal/core"
)

// SIPArgs is the typed input vector x declared as core.Vector "SIP":
// the keys the specifications read through the core.Event accessors,
// held in a reusable struct so the packet path neither builds a map
// nor boxes a field. Absent fields read as zero values, as a missing
// map key does.
type SIPArgs struct {
	Src        string
	CallID     string
	From       string
	To         string
	FromTag    string
	ToTag      string
	Contact    string
	CseqMethod string
	SdpAddr    string
	SdpPort    int
	SdpPayload int
	Status     int
}

// StringArg implements core.TypedArgs.
func (a *SIPArgs) StringArg(key string) (string, bool) {
	switch key {
	case "src":
		return a.Src, true
	case "callID":
		return a.CallID, true
	case "from":
		return a.From, true
	case "to":
		return a.To, true
	case "fromTag":
		return a.FromTag, true
	case "toTag":
		return a.ToTag, true
	case "contact":
		return a.Contact, true
	case "cseqMethod":
		return a.CseqMethod, true
	case "sdpAddr":
		return a.SdpAddr, true
	}
	return "", false
}

// IntArg implements core.TypedArgs.
func (a *SIPArgs) IntArg(key string) (int, bool) {
	switch key {
	case "sdpPort":
		return a.SdpPort, true
	case "sdpPayload":
		return a.SdpPayload, true
	case "status":
		return a.Status, true
	}
	return 0, false
}

// Uint32Arg implements core.TypedArgs.
func (a *SIPArgs) Uint32Arg(string) (uint32, bool) { return 0, false }

// DurationArg implements core.TypedArgs.
func (a *SIPArgs) DurationArg(string) (time.Duration, bool) { return 0, false }

// Field reads of SIPArgs, falling back to the core.Event accessors
// when an event carries an Args map instead (tests and tooling).

func sipSrc(e *core.Event, a *SIPArgs) string {
	if a != nil {
		return a.Src
	}
	return e.StringArg("src")
}

func sipCallID(e *core.Event, a *SIPArgs) string {
	if a != nil {
		return a.CallID
	}
	return e.StringArg("callID")
}

func sipFrom(e *core.Event, a *SIPArgs) string {
	if a != nil {
		return a.From
	}
	return e.StringArg("from")
}

func sipTo(e *core.Event, a *SIPArgs) string {
	if a != nil {
		return a.To
	}
	return e.StringArg("to")
}

func sipFromTag(e *core.Event, a *SIPArgs) string {
	if a != nil {
		return a.FromTag
	}
	return e.StringArg("fromTag")
}

func sipToTag(e *core.Event, a *SIPArgs) string {
	if a != nil {
		return a.ToTag
	}
	return e.StringArg("toTag")
}

func sipContact(e *core.Event, a *SIPArgs) string {
	if a != nil {
		return a.Contact
	}
	return e.StringArg("contact")
}

func sipCseqMethod(e *core.Event, a *SIPArgs) string {
	if a != nil {
		return a.CseqMethod
	}
	return e.StringArg("cseqMethod")
}

func sipSdpAddr(e *core.Event, a *SIPArgs) string {
	if a != nil {
		return a.SdpAddr
	}
	return e.StringArg("sdpAddr")
}

func sipSdpPort(e *core.Event, a *SIPArgs) int {
	if a != nil {
		return a.SdpPort
	}
	return e.IntArg("sdpPort")
}

func sipSdpPayload(e *core.Event, a *SIPArgs) int {
	if a != nil {
		return a.SdpPayload
	}
	return e.IntArg("sdpPayload")
}

func sipStatus(e *core.Event, a *SIPArgs) int {
	if a != nil {
		return a.Status
	}
	return e.IntArg("status")
}

// RTPArgs is the typed input vector x declared as core.Vector "RTP":
// the keys the specifications read through the core.Event accessors,
// held in a reusable struct so the packet path neither builds a map
// nor boxes a field. Absent fields read as zero values, as a missing
// map key does.
type RTPArgs struct {
	Src         string
	Ssrc        uint32
	Ts          uint32
	Seq         int
	PayloadType int
	Now         time.Duration
}

// StringArg implements core.TypedArgs.
func (a *RTPArgs) StringArg(key string) (string, bool) {
	switch key {
	case "src":
		return a.Src, true
	}
	return "", false
}

// IntArg implements core.TypedArgs.
func (a *RTPArgs) IntArg(key string) (int, bool) {
	switch key {
	case "seq":
		return a.Seq, true
	case "payloadType":
		return a.PayloadType, true
	}
	return 0, false
}

// Uint32Arg implements core.TypedArgs.
func (a *RTPArgs) Uint32Arg(key string) (uint32, bool) {
	switch key {
	case "ssrc":
		return a.Ssrc, true
	case "ts":
		return a.Ts, true
	}
	return 0, false
}

// DurationArg implements core.TypedArgs.
func (a *RTPArgs) DurationArg(key string) (time.Duration, bool) {
	switch key {
	case "now":
		return a.Now, true
	}
	return 0, false
}

// Field reads of RTPArgs, falling back to the core.Event accessors
// when an event carries an Args map instead (tests and tooling).

func rtpSrc(e *core.Event, a *RTPArgs) string {
	if a != nil {
		return a.Src
	}
	return e.StringArg("src")
}

func rtpSsrc(e *core.Event, a *RTPArgs) uint32 {
	if a != nil {
		return a.Ssrc
	}
	return e.Uint32Arg("ssrc")
}

func rtpTs(e *core.Event, a *RTPArgs) uint32 {
	if a != nil {
		return a.Ts
	}
	return e.Uint32Arg("ts")
}

func rtpSeq(e *core.Event, a *RTPArgs) int {
	if a != nil {
		return a.Seq
	}
	return e.IntArg("seq")
}

func rtpPayloadType(e *core.Event, a *RTPArgs) int {
	if a != nil {
		return a.PayloadType
	}
	return e.IntArg("payloadType")
}

func rtpNow(e *core.Event, a *RTPArgs) time.Duration {
	if a != nil {
		return a.Now
	}
	return e.DurationArg("now")
}

// FloodArgs is the typed input vector x declared as core.Vector "Flood":
// the keys the specifications read through the core.Event accessors,
// held in a reusable struct so the packet path neither builds a map
// nor boxes a field. Absent fields read as zero values, as a missing
// map key does.
type FloodArgs struct {
	Dest string
	Src  string
}

// StringArg implements core.TypedArgs.
func (a *FloodArgs) StringArg(key string) (string, bool) {
	switch key {
	case "dest":
		return a.Dest, true
	case "src":
		return a.Src, true
	}
	return "", false
}

// IntArg implements core.TypedArgs.
func (a *FloodArgs) IntArg(string) (int, bool) { return 0, false }

// Uint32Arg implements core.TypedArgs.
func (a *FloodArgs) Uint32Arg(string) (uint32, bool) { return 0, false }

// DurationArg implements core.TypedArgs.
func (a *FloodArgs) DurationArg(string) (time.Duration, bool) { return 0, false }

// Field reads of FloodArgs, falling back to the core.Event accessors
// when an event carries an Args map instead (tests and tooling).

func floodDest(e *core.Event, a *FloodArgs) string {
	if a != nil {
		return a.Dest
	}
	return e.StringArg("dest")
}

func floodSrc(e *core.Event, a *FloodArgs) string {
	if a != nil {
		return a.Src
	}
	return e.StringArg("src")
}

// Pre-built δ synchronization events: the values the specifications'
// Emit statements carry, shared across calls and never mutated.
var (
	deltaBye             = core.Event{Name: "delta.bye"}
	deltaReopen          = core.Event{Name: "delta.reopen"}
	deltaOpenPartyCallee = core.Event{Name: "delta.open", Args: map[string]any{"party": "callee"}}
	deltaOpenPartyCaller = core.Event{Name: "delta.open", Args: map[string]any{"party": "caller"}}
)

// SysGlobals is the compiled form of a system's shared variable
// store (a core.Store): the g.* variables as struct fields plus a
// presence bitmask, so the Vars view — and the memory accounting core
// computes from it — matches the interpreted map exactly.
type SysGlobals struct {
	set             uint8
	byeSender       string
	callerMediaAddr string
	callerMediaPort int
	payload         int
	calleeMediaAddr string
	calleeMediaPort int
}

// Presence bits of SysGlobals.set.
const (
	sysGlobalsSetByeSender = 1 << iota
	sysGlobalsSetCallerMediaAddr
	sysGlobalsSetCallerMediaPort
	sysGlobalsSetPayload
	sysGlobalsSetCalleeMediaAddr
	sysGlobalsSetCalleeMediaPort
)

// Reset clears every variable.
func (g *SysGlobals) Reset() { *g = SysGlobals{} }

// Vars materializes the map view (cold path: tooling and tests).
func (g *SysGlobals) Vars() core.Vars {
	v := make(core.Vars)
	if g.set&sysGlobalsSetByeSender != 0 {
		v.SetString("g.byeSender", g.byeSender)
	}
	if g.set&sysGlobalsSetCallerMediaAddr != 0 {
		v.SetString("g.callerMediaAddr", g.callerMediaAddr)
	}
	if g.set&sysGlobalsSetCallerMediaPort != 0 {
		v.SetInt("g.callerMediaPort", g.callerMediaPort)
	}
	if g.set&sysGlobalsSetPayload != 0 {
		v.SetInt("g.payload", g.payload)
	}
	if g.set&sysGlobalsSetCalleeMediaAddr != 0 {
		v.SetString("g.calleeMediaAddr", g.calleeMediaAddr)
	}
	if g.set&sysGlobalsSetCalleeMediaPort != 0 {
		v.SetInt("g.calleeMediaPort", g.calleeMediaPort)
	}
	return v
}
