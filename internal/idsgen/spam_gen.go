// Code generated by specgen from the EFSM specifications. DO NOT EDIT.
//
// Regenerate with `make specgen`; CI runs `specgen -check` and fails
// if this file drifts from the specifications.

package idsgen

import (
	"vids/internal/core"
	"vids/internal/rtp"
)

// SpamMachine is the compiled form of
// rtp-spam:
// the l.* vector as struct fields (presence bits in machBase.set feed
// the Vars view). Field zero values mirror the interpreted
// read-of-an-absent-key semantics, so guards read fields directly.
type SpamMachine struct {
	machBase
	ssrc uint32
	seq  uint32
	ts   uint32
	p    spamParams
}

// spamParams is the parameter block the SpamMachine guards read.
type spamParams struct {
	SeqGap int
	TSGap  uint32
}

// Presence bits of machBase.set for SpamMachine.
const (
	spamSetSsrc = 1 << iota
	spamSetSeq
	spamSetTs
)

// Reset returns the machine to its pristine configuration; parameters,
// the coverage observer and buffer capacity survive.
func (m *SpamMachine) Reset() {
	m.reset()
	m.ssrc = 0
	m.seq = 0
	m.ts = 0
}

// Vars materializes the l.* vector as a map (cold path).
func (m *SpamMachine) Vars() core.Vars {
	v := make(core.Vars)
	if m.set&spamSetSsrc != 0 {
		v.SetUint32("l.ssrc", m.ssrc)
	}
	if m.set&spamSetSeq != 0 {
		v.SetUint32("l.seq", m.seq)
	}
	if m.set&spamSetTs != 0 {
		v.SetUint32("l.ts", m.ts)
	}
	return v
}

// Step replicates core.Machine.Step over the compiled tables: walk the
// (state, event) cell in spec order, record the unguarded fallback,
// evaluate every guard (two enabled is the nondeterminism error), run
// the action, report to the coverage observer in interpreter order.
//
//vids:noalloc compiled spam step — the generated-dispatch hot path
//vids:nopanic steps on attacker-sequenced events
func (m *SpamMachine) Step(e core.Event) (res core.StepResult, err error) {
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
	a, _ := e.Typed.(*RTPArgs)
	chosen, fallback := -1, -1
	enabled := 0
	for i := range cands {
		if !cands[i].guarded {
			fallback = i
			continue
		}
		if spamGuardFn(cands[i].fn, m, &e, a) {
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
		spamActionFn(tr.fn, m, &e, a)
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
func spamAction_INIT_rtp_packet_0(m *SpamMachine, e *core.Event, a *RTPArgs) {
	m.ssrc = rtpSsrc(e, a)
	m.seq = uint32(rtpSeq(e, a))
	m.ts = rtpTs(e, a)
	m.set |= spamSetSsrc | spamSetSeq | spamSetTs
}

func spamGuard_RTP_RCVD_rtp_packet_0(m *SpamMachine, e *core.Event, a *RTPArgs) bool {
	return (!(rtp.SeqLess(uint16(m.seq), uint16(rtpSeq(e, a)))) && int64(rtpSeq(e, a)) != int64(m.seq)) || (rtp.WindowOK(uint16(m.seq), uint16(rtpSeq(e, a)), m.ts, rtpTs(e, a), uint16(m.p.SeqGap), m.p.TSGap) && rtpSsrc(e, a) == m.ssrc)
}

func spamAction_RTP_RCVD_rtp_packet_0(m *SpamMachine, e *core.Event, a *RTPArgs) {
	seq, ts := rtp.WindowAdvance(uint16(m.seq), uint16(rtpSeq(e, a)), m.ts, rtpTs(e, a))
	m.seq = uint32(seq)
	m.ts = ts
	m.set |= spamSetSeq | spamSetTs
}

func spamGuard_RTP_RCVD_rtp_packet_1(m *SpamMachine, e *core.Event, a *RTPArgs) bool {
	return !((!(rtp.SeqLess(uint16(m.seq), uint16(rtpSeq(e, a)))) && int64(rtpSeq(e, a)) != int64(m.seq)) || (rtp.WindowOK(uint16(m.seq), uint16(rtpSeq(e, a)), m.ts, rtpTs(e, a), uint16(m.p.SeqGap), m.p.TSGap) && rtpSsrc(e, a) == m.ssrc))
}

func spamGuardFn(fn uint16, m *SpamMachine, e *core.Event, a *RTPArgs) bool {
	switch fn {
	case 2:
		return spamGuard_RTP_RCVD_rtp_packet_0(m, e, a)
	case 3:
		return spamGuard_RTP_RCVD_rtp_packet_1(m, e, a)
	}
	return true
}

func spamActionFn(fn uint16, m *SpamMachine, e *core.Event, a *RTPArgs) {
	switch fn {
	case 1:
		spamAction_INIT_rtp_packet_0(m, e, a)
	case 2:
		spamAction_RTP_RCVD_rtp_packet_0(m, e, a)
	}
}
