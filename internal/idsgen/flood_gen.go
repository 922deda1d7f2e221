// Code generated by specgen from the EFSM specifications. DO NOT EDIT.
//
// Regenerate with `make specgen`; CI runs `specgen -check` and fails
// if this file drifts from the specifications.

package idsgen

import (
	"vids/internal/core"
)

// FloodMachine is the compiled form of
// invite-flood, response-flood:
// the l.* vector as struct fields (presence bits in machBase.set feed
// the Vars view). Field zero values mirror the interpreted
// read-of-an-absent-key semantics, so guards read fields directly.
type FloodMachine struct {
	machBase
	dest  string
	count int
	p     floodParams
}

// floodParams is the parameter block the FloodMachine guards read.
type floodParams struct {
	N int
}

// Presence bits of machBase.set for FloodMachine.
const (
	floodSetDest = 1 << iota
	floodSetCount
)

// Reset returns the machine to its pristine configuration; parameters,
// the coverage observer and buffer capacity survive.
func (m *FloodMachine) Reset() {
	m.reset()
	m.dest = ""
	m.count = 0
}

// Vars materializes the l.* vector as a map (cold path).
func (m *FloodMachine) Vars() core.Vars {
	v := make(core.Vars)
	if m.set&floodSetDest != 0 {
		v.SetString("l.dest", m.dest)
	}
	if m.set&floodSetCount != 0 {
		v.SetInt("l.count", m.count)
	}
	return v
}

// Step replicates core.Machine.Step over the compiled tables: walk the
// (state, event) cell in spec order, record the unguarded fallback,
// evaluate every guard (two enabled is the nondeterminism error), run
// the action, report to the coverage observer in interpreter order.
//
//vids:noalloc compiled flood step — the generated-dispatch hot path
//vids:nopanic steps on attacker-sequenced events
func (m *FloodMachine) Step(e core.Event) (res core.StepResult, err error) {
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
	a, _ := e.Typed.(*FloodArgs)
	chosen, fallback := -1, -1
	enabled := 0
	for i := range cands {
		if !cands[i].guarded {
			fallback = i
			continue
		}
		if floodGuardFn(cands[i].fn, m, &e, a) {
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
		floodActionFn(tr.fn, m, &e, a)
	}
	from := m.state
	m.state = tr.to
	m.steps++
	toState := t.stateName(tr.to)
	moved := from != tr.to
	enteredAttack := stateFlag(t.attack, tr.to) && moved
	if m.cover != nil {
		m.observe(fromState, toState, e.Name, tr.label, nil, enteredAttack)
	}
	res.Machine = t.name
	res.From = fromState
	res.To = toState
	res.Event = e.Name
	res.Label = tr.label
	res.EnteredAttack = enteredAttack
	res.EnteredFinal = stateFlag(t.final, tr.to) && moved
	res.Emitted = nil
	return
}
func floodAction_ATTACK_INVITE_FLOOD_timer_T1_0(m *FloodMachine, e *core.Event, a *FloodArgs) {
	m.count = 0
	m.set &^= floodSetCount
}

func floodAction_INIT_sip_invite_0(m *FloodMachine, e *core.Event, a *FloodArgs) {
	m.dest = floodDest(e, a)
	m.count = 1
	m.set |= floodSetDest | floodSetCount
}

func floodGuard_PACKET_RCVD_sip_invite_0(m *FloodMachine, e *core.Event, a *FloodArgs) bool {
	return m.count < m.p.N
}

func floodAction_PACKET_RCVD_sip_invite_0(m *FloodMachine, e *core.Event, a *FloodArgs) {
	m.count = m.count + 1
	m.set |= floodSetCount
}

func floodGuard_PACKET_RCVD_sip_invite_1(m *FloodMachine, e *core.Event, a *FloodArgs) bool {
	return m.count >= m.p.N
}

func floodGuardFn(fn uint16, m *FloodMachine, e *core.Event, a *FloodArgs) bool {
	switch fn {
	case 4:
		return floodGuard_PACKET_RCVD_sip_invite_0(m, e, a)
	case 5:
		return floodGuard_PACKET_RCVD_sip_invite_1(m, e, a)
	}
	return true
}

func floodActionFn(fn uint16, m *FloodMachine, e *core.Event, a *FloodArgs) {
	switch fn {
	case 1, 6:
		floodAction_ATTACK_INVITE_FLOOD_timer_T1_0(m, e, a)
	case 2:
		floodAction_INIT_sip_invite_0(m, e, a)
	case 4:
		floodAction_PACKET_RCVD_sip_invite_0(m, e, a)
	}
}
