// Code generated by specgen from the EFSM specifications. DO NOT EDIT.
//
// Regenerate with `make specgen`; CI runs `specgen -check` and fails
// if this file drifts from the specifications.

package idsgen

import (
	"time"
	"vids/internal/core"
	"vids/internal/rtp"
)

// RTPMachine is the compiled form of
// rtp-caller, rtp-callee:
// the l.* vector as struct fields (presence bits in machBase.set feed
// the Vars view). Field zero values mirror the interpreted
// read-of-an-absent-key semantics, so guards read fields directly.
type RTPMachine struct {
	machBase
	party    string
	src      string
	payload  int
	winStart time.Duration
	winCount int
	ssrc     uint32
	seq      uint32
	ts       uint32
	started  bool
	g        *SysGlobals
	p        rtpParams
}

// rtpParams is the parameter block the RTPMachine guards read.
type rtpParams struct {
	SeqGap      int
	TSGap       uint32
	RateWindow  time.Duration
	RatePackets int
}

// Presence bits of machBase.set for RTPMachine.
const (
	rtpSetParty = 1 << iota
	rtpSetSrc
	rtpSetPayload
	rtpSetWinStart
	rtpSetWinCount
	rtpSetSsrc
	rtpSetSeq
	rtpSetTs
	rtpSetStarted
)

// Reset returns the machine to its pristine configuration; parameters,
// the coverage observer and buffer capacity survive.
func (m *RTPMachine) Reset() {
	m.reset()
	m.party = ""
	m.src = ""
	m.payload = 0
	m.winStart = 0
	m.winCount = 0
	m.ssrc = 0
	m.seq = 0
	m.ts = 0
	m.started = false
}

// Vars materializes the l.* vector as a map (cold path).
func (m *RTPMachine) Vars() core.Vars {
	v := make(core.Vars)
	if m.set&rtpSetParty != 0 {
		v.SetString("l.party", m.party)
	}
	if m.set&rtpSetSrc != 0 {
		v.SetString("l.src", m.src)
	}
	if m.set&rtpSetPayload != 0 {
		v.SetInt("l.payload", m.payload)
	}
	if m.set&rtpSetWinStart != 0 {
		v.SetDuration("l.winStart", m.winStart)
	}
	if m.set&rtpSetWinCount != 0 {
		v.SetInt("l.winCount", m.winCount)
	}
	if m.set&rtpSetSsrc != 0 {
		v.SetUint32("l.ssrc", m.ssrc)
	}
	if m.set&rtpSetSeq != 0 {
		v.SetUint32("l.seq", m.seq)
	}
	if m.set&rtpSetTs != 0 {
		v.SetUint32("l.ts", m.ts)
	}
	if m.set&rtpSetStarted != 0 {
		v.SetBool("l.started", m.started)
	}
	return v
}

// Payload reads the specification's Payload view.
func (m *RTPMachine) Payload() (payload int) {
	return m.payload
}

// SetPayload writes the specification's Payload view.
func (m *RTPMachine) SetPayload(payload int) {
	m.payload = payload
	m.set |= rtpSetPayload
}

// MediaWindow reads the specification's MediaWindow view.
func (m *RTPMachine) MediaWindow() (ssrc uint32, seq uint32, ts uint32, winStart time.Duration, winCount int) {
	return m.ssrc, m.seq, m.ts, m.winStart, m.winCount
}

// SetMediaWindow writes the specification's MediaWindow view.
func (m *RTPMachine) SetMediaWindow(ssrc uint32, seq uint32, ts uint32, winStart time.Duration, winCount int) {
	m.ssrc = ssrc
	m.seq = seq
	m.ts = ts
	m.winStart = winStart
	m.winCount = winCount
	m.set |= rtpSetSsrc | rtpSetSeq | rtpSetTs | rtpSetWinStart | rtpSetWinCount
}

// Step replicates core.Machine.Step over the compiled tables: walk the
// (state, event) cell in spec order, record the unguarded fallback,
// evaluate every guard (two enabled is the nondeterminism error), run
// the action, report to the coverage observer in interpreter order.
//
//vids:noalloc compiled rtp step — the generated-dispatch hot path
//vids:nopanic steps on attacker-sequenced events
func (m *RTPMachine) Step(e core.Event) (res core.StepResult, err error) {
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
		if rtpGuardFn(cands[i].fn, m, &e, a) {
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
		rtpActionFn(tr.fn, m, &e, a)
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
func rtpAction_INIT_delta_open_0(m *RTPMachine, e *core.Event, a *RTPArgs) {
	m.party = e.StringArg("party")
	m.payload = m.g.payload
	m.set |= rtpSetParty | rtpSetPayload
}

func rtpGuard_RTP_CLOSE_delta_reopen_0(m *RTPMachine, e *core.Event, a *RTPArgs) bool {
	return m.started
}

func rtpGuard_RTP_CLOSE_delta_reopen_1(m *RTPMachine, e *core.Event, a *RTPArgs) bool {
	return !m.started
}

func rtpGuard_RTP_CLOSE_rtp_packet_0(m *RTPMachine, e *core.Event, a *RTPArgs) bool {
	return m.party == m.g.byeSender
}

func rtpGuard_RTP_CLOSE_rtp_packet_1(m *RTPMachine, e *core.Event, a *RTPArgs) bool {
	return m.party != m.g.byeSender
}

func rtpGuard_RTP_OPEN_rtp_packet_0(m *RTPMachine, e *core.Event, a *RTPArgs) bool {
	return rtpPayloadType(e, a) == m.payload
}

func rtpAction_RTP_OPEN_rtp_packet_0(m *RTPMachine, e *core.Event, a *RTPArgs) {
	m.started = true
	m.ssrc = rtpSsrc(e, a)
	m.seq = uint32(rtpSeq(e, a))
	m.ts = rtpTs(e, a)
	m.src = rtpSrc(e, a)
	m.winStart = rtpNow(e, a)
	m.winCount = 1
	m.set |= rtpSetStarted | rtpSetSsrc | rtpSetSeq | rtpSetTs | rtpSetSrc | rtpSetWinStart | rtpSetWinCount
}

func rtpGuard_RTP_OPEN_rtp_packet_1(m *RTPMachine, e *core.Event, a *RTPArgs) bool {
	return rtpPayloadType(e, a) != m.payload
}

func rtpGuard_RTP_RCVD_rtp_packet_0(m *RTPMachine, e *core.Event, a *RTPArgs) bool {
	return rtpPayloadType(e, a) == m.payload && rtpSsrc(e, a) == m.ssrc && rtp.WindowOK(uint16(m.seq), uint16(rtpSeq(e, a)), m.ts, rtpTs(e, a), uint16(m.p.SeqGap), m.p.TSGap) && (rtpNow(e, a)-m.winStart > m.p.RateWindow || m.winCount < m.p.RatePackets)
}

func rtpAction_RTP_RCVD_rtp_packet_0(m *RTPMachine, e *core.Event, a *RTPArgs) {
	seq, ts := rtp.WindowAdvance(uint16(m.seq), uint16(rtpSeq(e, a)), m.ts, rtpTs(e, a))
	m.seq = uint32(seq)
	m.ts = ts
	m.set |= rtpSetSeq | rtpSetTs
	if rtpNow(e, a)-m.winStart > m.p.RateWindow {
		m.winStart = rtpNow(e, a)
		m.winCount = 1
		m.set |= rtpSetWinStart | rtpSetWinCount
	} else {
		m.winCount = m.winCount + 1
		m.set |= rtpSetWinCount
	}
}

func rtpGuard_RTP_RCVD_rtp_packet_2(m *RTPMachine, e *core.Event, a *RTPArgs) bool {
	return rtpPayloadType(e, a) == m.payload && (rtpSsrc(e, a) != m.ssrc || !(rtp.WindowOK(uint16(m.seq), uint16(rtpSeq(e, a)), m.ts, rtpTs(e, a), uint16(m.p.SeqGap), m.p.TSGap)))
}

func rtpGuard_RTP_RCVD_rtp_packet_3(m *RTPMachine, e *core.Event, a *RTPArgs) bool {
	return rtpPayloadType(e, a) == m.payload && rtpSsrc(e, a) == m.ssrc && rtp.WindowOK(uint16(m.seq), uint16(rtpSeq(e, a)), m.ts, rtpTs(e, a), uint16(m.p.SeqGap), m.p.TSGap) && !(rtpNow(e, a)-m.winStart > m.p.RateWindow || m.winCount < m.p.RatePackets)
}

func rtpGuardFn(fn uint16, m *RTPMachine, e *core.Event, a *RTPArgs) bool {
	switch fn {
	case 28, 45:
		return rtpGuard_RTP_CLOSE_delta_reopen_0(m, e, a)
	case 29, 46:
		return rtpGuard_RTP_CLOSE_delta_reopen_1(m, e, a)
	case 30:
		return rtpGuard_RTP_CLOSE_rtp_packet_0(m, e, a)
	case 31:
		return rtpGuard_RTP_CLOSE_rtp_packet_1(m, e, a)
	case 35:
		return rtpGuard_RTP_OPEN_rtp_packet_0(m, e, a)
	case 36, 41:
		return rtpGuard_RTP_OPEN_rtp_packet_1(m, e, a)
	case 40:
		return rtpGuard_RTP_RCVD_rtp_packet_0(m, e, a)
	case 42:
		return rtpGuard_RTP_RCVD_rtp_packet_2(m, e, a)
	case 43:
		return rtpGuard_RTP_RCVD_rtp_packet_3(m, e, a)
	}
	return true
}

func rtpActionFn(fn uint16, m *RTPMachine, e *core.Event, a *RTPArgs) {
	switch fn {
	case 26:
		rtpAction_INIT_delta_open_0(m, e, a)
	case 35:
		rtpAction_RTP_OPEN_rtp_packet_0(m, e, a)
	case 40:
		rtpAction_RTP_RCVD_rtp_packet_0(m, e, a)
	}
}
