package ids

import (
	"vids/internal/core"
)

// Flood machine states (paper Figure 4).
const (
	FloodInit     core.State = "INIT"
	FloodCounting core.State = "PACKET_RCVD"
	FloodAttack   core.State = "ATTACK_INVITE_FLOOD"
)

// EvTimerT1 is the window timer of Figure 4, injected by the IDS.
const EvTimerT1 = "timer.T1"

const labelInviteFlood = "invite-flood"

// floodSpec builds the per-destination INVITE-flood detector: N
// INVITEs for the same destination within window T1 are considered
// normal; exceeding N signals a flooding attack. "The setting of
// threshold N depends upon the up-limit that a particular type of a
// phone can handle" (Section 6).
func floodSpec(n int) *core.Spec {
	return windowCounterSpec("invite-flood", EvInvite, labelInviteFlood, n)
}

// respFloodSpec is the same windowed counter applied to SIP responses
// for calls the destination never initiated: the signature of a
// Distributed Reflection DoS, where spoofed requests sent to many
// reflectors swamp the victim with their responses (Section 3.1).
func respFloodSpec(n int) *core.Spec {
	return windowCounterSpec("response-flood", EvResponse, labelDRDoS, n)
}

const labelDRDoS = "drdos"

// The flood counters' event vector and local variables. No guard reads
// src; the vector carries it so an alert can name the sender.
var (
	floodVector = core.NewVector("Flood")

	floodDest = floodVector.Arg("dest", core.KindString)
	_         = floodVector.Arg("src", core.KindString)

	lDest  = core.Local("l.dest", core.KindString)
	lCount = core.Local("l.count", core.KindInt)
)

// windowCounterSpec is the generic Figure 4 machine: count occurrences
// of event per destination, enter the attack state past n within one
// timer window.
func windowCounterSpec(name, event, label string, n int) *core.Spec {
	s := core.NewSpec(name, FloodInit)
	s.Family = "Flood"
	limit := core.Param("N", core.IntVal(n))

	// First event for destination D: initialize the packet counter
	// and (via the IDS observing this transition) start timer T1.
	s.When(FloodInit, event, nil, core.Do(
		core.Set(lDest, floodDest),
		core.Set(lCount, core.Lit(1)),
	), FloodCounting)

	s.When(FloodCounting, event, core.Lt(lCount, limit), core.Do(
		core.Set(lCount, core.Add(lCount, core.Lit(1))),
	), FloodCounting)

	s.WhenLabeled(label, FloodCounting, event, core.Ge(lCount, limit), nil, FloodAttack)

	// Window expiry resets the detector.
	reset := core.Do(core.Delete(lCount))
	s.When(FloodCounting, EvTimerT1, nil, reset, FloodInit)
	s.When(FloodAttack, EvTimerT1, nil, reset, FloodInit)
	s.When(FloodInit, EvTimerT1, nil, nil, FloodInit)

	// Further events inside an already-flagged window are part of the
	// same attack.
	s.When(FloodAttack, event, nil, nil, FloodAttack)

	s.Attack(FloodAttack)
	s.Final(FloodInit)
	return s
}
