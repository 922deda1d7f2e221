// Code generated by specgen from the EFSM specifications. DO NOT EDIT.
//
// Regenerate with `make specgen`; CI runs `specgen -check` and fails
// if this file drifts from the specifications.

package idsgen

import (
	"vids/internal/core"
)

// SIPMachine is the compiled form of
// sip:
// the l.* vector as struct fields (presence bits in machBase.set feed
// the Vars view). Field zero values mirror the interpreted
// read-of-an-absent-key semantics, so guards read fields directly.
type SIPMachine struct {
	machBase
	callerContact string
	fromTag       string
	calleeContact string
	toTag         string
	inviteSrc     string
	callID        string
	from          string
	to            string
	g             *SysGlobals
	p             sipParams
	emits         []core.SyncMsg
}

// sipParams is the parameter block the SIPMachine guards read.
type sipParams struct {
	CrossProtocol bool
}

// Presence bits of machBase.set for SIPMachine.
const (
	sipSetCallerContact = 1 << iota
	sipSetFromTag
	sipSetCalleeContact
	sipSetToTag
	sipSetInviteSrc
	sipSetCallID
	sipSetFrom
	sipSetTo
)

// Reset returns the machine to its pristine configuration; parameters,
// the coverage observer and buffer capacity survive.
func (m *SIPMachine) Reset() {
	m.reset()
	m.callerContact = ""
	m.fromTag = ""
	m.calleeContact = ""
	m.toTag = ""
	m.inviteSrc = ""
	m.callID = ""
	m.from = ""
	m.to = ""
	m.emits = m.emits[:0]
}

// Vars materializes the l.* vector as a map (cold path).
func (m *SIPMachine) Vars() core.Vars {
	v := make(core.Vars)
	if m.set&sipSetCallerContact != 0 {
		v.SetString("l.callerContact", m.callerContact)
	}
	if m.set&sipSetFromTag != 0 {
		v.SetString("l.fromTag", m.fromTag)
	}
	if m.set&sipSetCalleeContact != 0 {
		v.SetString("l.calleeContact", m.calleeContact)
	}
	if m.set&sipSetToTag != 0 {
		v.SetString("l.toTag", m.toTag)
	}
	if m.set&sipSetInviteSrc != 0 {
		v.SetString("l.inviteSrc", m.inviteSrc)
	}
	if m.set&sipSetCallID != 0 {
		v.SetString("l.callID", m.callID)
	}
	if m.set&sipSetFrom != 0 {
		v.SetString("l.from", m.from)
	}
	if m.set&sipSetTo != 0 {
		v.SetString("l.to", m.to)
	}
	return v
}

// Step replicates core.Machine.Step over the compiled tables: walk the
// (state, event) cell in spec order, record the unguarded fallback,
// evaluate every guard (two enabled is the nondeterminism error), run
// the action, report to the coverage observer in interpreter order.
//
//vids:noalloc compiled sip step — the generated-dispatch hot path
//vids:nopanic steps on attacker-sequenced events
func (m *SIPMachine) Step(e core.Event) (res core.StepResult, err error) {
	t := m.tbl
	fromState := t.stateName(m.state)
	var cands []trans
	if eid := t.eventID(e.Name); eid >= 0 {
		cands = t.cell(m.state, eid)
	}
	if len(cands) == 0 {
		res = core.StepResult{Machine: t.name, From: fromState, Event: e.Name}
		err = core.ErrNoTransition
		return
	}
	a, _ := e.Typed.(*SIPArgs)
	m.emits = m.emits[:0]
	chosen, fallback := -1, -1
	enabled := 0
	for i := range cands {
		if !cands[i].guarded {
			fallback = i
			continue
		}
		if sipGuardFn(cands[i].fn, m, &e, a) {
			enabled++
			chosen = i
		}
	}
	if enabled > 1 {
		res = core.StepResult{Machine: t.name, From: fromState, Event: e.Name}
		err = core.ErrNondeterministic
		return
	}
	if chosen < 0 {
		chosen = fallback
	}
	if chosen < 0 || chosen >= len(cands) {
		res = core.StepResult{Machine: t.name, From: fromState, Event: e.Name}
		err = core.ErrNoTransition
		return
	}
	tr := &cands[chosen]
	if tr.action {
		sipActionFn(tr.fn, m, &e, a)
	}
	from := m.state
	m.state = tr.to
	m.steps++
	toState := t.stateName(tr.to)
	moved := from != tr.to
	enteredAttack := stateFlag(t.attack, tr.to) && moved
	if m.cover != nil {
		m.observe(fromState, toState, e.Name, tr.label, m.emits, enteredAttack)
	}
	res.Machine = t.name
	res.From = fromState
	res.To = toState
	res.Event = e.Name
	res.Label = tr.label
	res.EnteredAttack = enteredAttack
	res.EnteredFinal = stateFlag(t.final, tr.to) && moved
	res.Emitted = m.emits
	return
}
func sipGuard_CALL_ESTABLISHED_sip_bye_0(m *SIPMachine, e *core.Event, a *SIPArgs) bool {
	return (sipSrc(e, a) == m.callerContact && sipFromTag(e, a) == m.fromTag) || (sipSrc(e, a) == m.calleeContact && sipFromTag(e, a) == m.toTag) || (sipSrc(e, a) == m.inviteSrc && sipFromTag(e, a) == m.fromTag)
}

func sipAction_CALL_ESTABLISHED_sip_bye_0(m *SIPMachine, e *core.Event, a *SIPArgs) {
	if sipFromTag(e, a) == m.toTag {
		m.g.byeSender = "callee"
		m.g.set |= sysGlobalsSetByeSender
	} else {
		m.g.byeSender = "caller"
		m.g.set |= sysGlobalsSetByeSender
	}
	if m.p.CrossProtocol {
		m.emits = append(m.emits, core.SyncMsg{Target: "rtp-caller", Event: deltaBye}, core.SyncMsg{Target: "rtp-callee", Event: deltaBye})
	}
}

func sipGuard_CALL_ESTABLISHED_sip_bye_1(m *SIPMachine, e *core.Event, a *SIPArgs) bool {
	return !((sipSrc(e, a) == m.callerContact && sipFromTag(e, a) == m.fromTag) || (sipSrc(e, a) == m.calleeContact && sipFromTag(e, a) == m.toTag) || (sipSrc(e, a) == m.inviteSrc && sipFromTag(e, a) == m.fromTag))
}

func sipGuard_CALL_ESTABLISHED_sip_response_0(m *SIPMachine, e *core.Event, a *SIPArgs) bool {
	return sipStatus(e, a) >= 200 && sipStatus(e, a) < 300 && sipCseqMethod(e, a) == "INVITE"
}

func sipGuard_CALL_ESTABLISHED_sip_response_1(m *SIPMachine, e *core.Event, a *SIPArgs) bool {
	return !(sipStatus(e, a) >= 200 && sipStatus(e, a) < 300 && sipCseqMethod(e, a) == "INVITE")
}

func sipGuard_CALL_TEARDOWN_sip_response_1(m *SIPMachine, e *core.Event, a *SIPArgs) bool {
	return sipCseqMethod(e, a) == "BYE" && sipStatus(e, a) < 300
}

func sipGuard_CALL_TEARDOWN_sip_response_2(m *SIPMachine, e *core.Event, a *SIPArgs) bool {
	return sipCseqMethod(e, a) == "BYE" && sipStatus(e, a) == 401
}

func sipAction_CALL_TEARDOWN_sip_response_2(m *SIPMachine, e *core.Event, a *SIPArgs) {
	if m.p.CrossProtocol {
		m.emits = append(m.emits, core.SyncMsg{Target: "rtp-caller", Event: deltaReopen}, core.SyncMsg{Target: "rtp-callee", Event: deltaReopen})
	}
}

func sipGuard_CANCEL_WAIT_sip_cancel_0(m *SIPMachine, e *core.Event, a *SIPArgs) bool {
	return sipSrc(e, a) == m.inviteSrc && sipFromTag(e, a) == m.fromTag
}

func sipGuard_CANCEL_WAIT_sip_response_0(m *SIPMachine, e *core.Event, a *SIPArgs) bool {
	return sipStatus(e, a) < 300
}

func sipGuard_CANCEL_WAIT_sip_response_1(m *SIPMachine, e *core.Event, a *SIPArgs) bool {
	return sipStatus(e, a) >= 300
}

func sipAction_CANCEL_WAIT_sip_response_1(m *SIPMachine, e *core.Event, a *SIPArgs) {
	if m.p.CrossProtocol {
		m.emits = append(m.emits, core.SyncMsg{Target: "rtp-caller", Event: deltaBye}, core.SyncMsg{Target: "rtp-callee", Event: deltaBye})
	}
}

func sipAction_INIT_sip_invite_0(m *SIPMachine, e *core.Event, a *SIPArgs) {
	m.callID = sipCallID(e, a)
	m.fromTag = sipFromTag(e, a)
	m.inviteSrc = sipSrc(e, a)
	m.callerContact = sipContact(e, a)
	m.from = sipFrom(e, a)
	m.to = sipTo(e, a)
	m.set |= sipSetCallID | sipSetFromTag | sipSetInviteSrc | sipSetCallerContact | sipSetFrom | sipSetTo
	if sipSdpAddr(e, a) != "" {
		m.g.callerMediaAddr = sipSdpAddr(e, a)
		m.g.callerMediaPort = sipSdpPort(e, a)
		m.g.payload = sipSdpPayload(e, a)
		m.g.set |= sysGlobalsSetCallerMediaAddr | sysGlobalsSetCallerMediaPort | sysGlobalsSetPayload
		m.emits = append(m.emits, core.SyncMsg{Target: "rtp-callee", Event: deltaOpenPartyCallee})
	}
}

func sipGuard_INVITE_RCVD_sip_cancel_1(m *SIPMachine, e *core.Event, a *SIPArgs) bool {
	return !(sipSrc(e, a) == m.inviteSrc && sipFromTag(e, a) == m.fromTag)
}

func sipGuard_INVITE_RCVD_sip_invite_0(m *SIPMachine, e *core.Event, a *SIPArgs) bool {
	return sipSrc(e, a) == m.inviteSrc && sipToTag(e, a) == ""
}

func sipGuard_INVITE_RCVD_sip_response_0(m *SIPMachine, e *core.Event, a *SIPArgs) bool {
	return sipStatus(e, a) >= 100 && sipStatus(e, a) < 200 && sipStatus(e, a) != 180
}

func sipGuard_INVITE_RCVD_sip_response_1(m *SIPMachine, e *core.Event, a *SIPArgs) bool {
	return sipStatus(e, a) == 180
}

func sipAction_INVITE_RCVD_sip_response_2(m *SIPMachine, e *core.Event, a *SIPArgs) {
	m.toTag = sipToTag(e, a)
	m.calleeContact = sipContact(e, a)
	m.set |= sipSetToTag | sipSetCalleeContact
	if sipSdpAddr(e, a) != "" {
		m.g.calleeMediaAddr = sipSdpAddr(e, a)
		m.g.calleeMediaPort = sipSdpPort(e, a)
		m.g.set |= sysGlobalsSetCalleeMediaAddr | sysGlobalsSetCalleeMediaPort
		m.emits = append(m.emits, core.SyncMsg{Target: "rtp-caller", Event: deltaOpenPartyCaller})
	}
}

func sipGuard_INVITE_RCVD_sip_response_3(m *SIPMachine, e *core.Event, a *SIPArgs) bool {
	return sipStatus(e, a) >= 300 && sipCseqMethod(e, a) == "INVITE"
}

func sipGuard_RINGING_sip_response_0(m *SIPMachine, e *core.Event, a *SIPArgs) bool {
	return sipStatus(e, a) < 200
}

func sipGuardFn(fn uint16, m *SIPMachine, e *core.Event, a *SIPArgs) bool {
	switch fn {
	case 16, 18:
		return sipGuard_CALL_ESTABLISHED_sip_bye_0(m, e, a)
	case 17, 19:
		return sipGuard_CALL_ESTABLISHED_sip_bye_1(m, e, a)
	case 20, 40, 46:
		return sipGuard_CALL_ESTABLISHED_sip_response_0(m, e, a)
	case 21:
		return sipGuard_CALL_ESTABLISHED_sip_response_1(m, e, a)
	case 25:
		return sipGuard_CALL_TEARDOWN_sip_response_1(m, e, a)
	case 26:
		return sipGuard_CALL_TEARDOWN_sip_response_2(m, e, a)
	case 28, 35, 42:
		return sipGuard_CANCEL_WAIT_sip_cancel_0(m, e, a)
	case 29:
		return sipGuard_CANCEL_WAIT_sip_response_0(m, e, a)
	case 30:
		return sipGuard_CANCEL_WAIT_sip_response_1(m, e, a)
	case 36, 43:
		return sipGuard_INVITE_RCVD_sip_cancel_1(m, e, a)
	case 37, 44:
		return sipGuard_INVITE_RCVD_sip_invite_0(m, e, a)
	case 38:
		return sipGuard_INVITE_RCVD_sip_response_0(m, e, a)
	case 39:
		return sipGuard_INVITE_RCVD_sip_response_1(m, e, a)
	case 41, 47:
		return sipGuard_INVITE_RCVD_sip_response_3(m, e, a)
	case 45:
		return sipGuard_RINGING_sip_response_0(m, e, a)
	}
	return true
}

func sipActionFn(fn uint16, m *SIPMachine, e *core.Event, a *SIPArgs) {
	switch fn {
	case 16, 17:
		sipAction_CALL_ESTABLISHED_sip_bye_0(m, e, a)
	case 26:
		sipAction_CALL_TEARDOWN_sip_response_2(m, e, a)
	case 30, 41, 47:
		sipAction_CANCEL_WAIT_sip_response_1(m, e, a)
	case 34:
		sipAction_INIT_sip_invite_0(m, e, a)
	case 40, 46:
		sipAction_INVITE_RCVD_sip_response_2(m, e, a)
	}
}
