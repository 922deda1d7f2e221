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

var tblIrProbe = machTable{
	name:    "ir-probe",
	initial: 1,
	states:  []core.State{"HALT", "S", "TRAP"},
	events:  []string{"and", "arg.map", "arith", "delete", "emit", "eq.bool", "eq.int", "eq.mixed", "eq.str", "ge", "global.int", "global.str", "gt", "halt", "if", "le", "local.dur", "local.int", "local.str", "local.u32", "lt", "lt.mixed", "ne.mixed", "ne.str", "nest", "or", "param.bool", "param.dur", "param.int", "param.str", "param.u32", "seqless", "set", "set.arith", "set.conv", "set.lit", "trap", "window", "windowok"},
	final:   []bool{true, false, false},
	attack:  []bool{false, false, true},
	cells: [][]trans{
		// HALT
		nil, // and
		nil, // arg.map
		nil, // arith
		nil, // delete
		nil, // emit
		nil, // eq.bool
		nil, // eq.int
		nil, // eq.mixed
		nil, // eq.str
		nil, // ge
		nil, // global.int
		nil, // global.str
		nil, // gt
		nil, // halt
		nil, // if
		nil, // le
		nil, // local.dur
		nil, // local.int
		nil, // local.str
		nil, // local.u32
		nil, // lt
		nil, // lt.mixed
		nil, // ne.mixed
		nil, // ne.str
		nil, // nest
		nil, // or
		nil, // param.bool
		nil, // param.dur
		nil, // param.int
		nil, // param.str
		nil, // param.u32
		nil, // seqless
		nil, // set
		nil, // set.arith
		nil, // set.conv
		nil, // set.lit
		nil, // trap
		nil, // window
		nil, // windowok
		// S
		{{to: 1, fn: 0, guarded: true, label: "yes"}, {to: 1, fn: 1, guarded: true, label: "no"}}, // and
		{{to: 1, fn: 2, guarded: true, label: "yes"}, {to: 1, fn: 3, guarded: true, label: "no"}}, // arg.map
		{{to: 1, fn: 4, guarded: true, label: "yes"}, {to: 1, fn: 5, guarded: true, label: "no"}}, // arith
		{{to: 1, fn: 6, action: true}}, // delete
		{{to: 1, fn: 7, action: true}}, // emit
		{{to: 1, fn: 8, guarded: true, label: "yes"}, {to: 1, fn: 9, guarded: true, label: "no"}},   // eq.bool
		{{to: 1, fn: 10, guarded: true, label: "yes"}, {to: 1, fn: 11, guarded: true, label: "no"}}, // eq.int
		{{to: 1, fn: 12, guarded: true, label: "yes"}, {to: 1, fn: 13, guarded: true, label: "no"}}, // eq.mixed
		{{to: 1, fn: 14, guarded: true, label: "yes"}, {to: 1, fn: 15, guarded: true, label: "no"}}, // eq.str
		{{to: 1, fn: 16, guarded: true, label: "yes"}, {to: 1, fn: 17, guarded: true, label: "no"}}, // ge
		{{to: 1, fn: 18, guarded: true, label: "yes"}, {to: 1, fn: 19, guarded: true, label: "no"}}, // global.int
		{{to: 1, fn: 20, guarded: true, label: "yes"}, {to: 1, fn: 21, guarded: true, label: "no"}}, // global.str
		{{to: 1, fn: 22, guarded: true, label: "yes"}, {to: 1, fn: 23, guarded: true, label: "no"}}, // gt
		{{to: 0, fn: 24}},               // halt
		{{to: 1, fn: 25, action: true}}, // if
		{{to: 1, fn: 26, guarded: true, label: "yes"}, {to: 1, fn: 27, guarded: true, label: "no"}}, // le
		{{to: 1, fn: 28, guarded: true, label: "yes"}, {to: 1, fn: 29, guarded: true, label: "no"}}, // local.dur
		{{to: 1, fn: 30, guarded: true, label: "yes"}, {to: 1, fn: 31, guarded: true, label: "no"}}, // local.int
		{{to: 1, fn: 32, guarded: true, label: "yes"}, {to: 1, fn: 33, guarded: true, label: "no"}}, // local.str
		{{to: 1, fn: 34, guarded: true, label: "yes"}, {to: 1, fn: 35, guarded: true, label: "no"}}, // local.u32
		{{to: 1, fn: 36, guarded: true, label: "yes"}, {to: 1, fn: 37, guarded: true, label: "no"}}, // lt
		{{to: 1, fn: 38, guarded: true, label: "yes"}, {to: 1, fn: 39, guarded: true, label: "no"}}, // lt.mixed
		{{to: 1, fn: 40, guarded: true, label: "yes"}, {to: 1, fn: 41, guarded: true, label: "no"}}, // ne.mixed
		{{to: 1, fn: 42, guarded: true, label: "yes"}, {to: 1, fn: 43, guarded: true, label: "no"}}, // ne.str
		{{to: 1, fn: 44, guarded: true, label: "yes"}, {to: 1, fn: 45, guarded: true, label: "no"}}, // nest
		{{to: 1, fn: 46, guarded: true, label: "yes"}, {to: 1, fn: 47, guarded: true, label: "no"}}, // or
		{{to: 1, fn: 48, guarded: true, label: "yes"}, {to: 1, fn: 49, guarded: true, label: "no"}}, // param.bool
		{{to: 1, fn: 50, guarded: true, label: "yes"}, {to: 1, fn: 51, guarded: true, label: "no"}}, // param.dur
		{{to: 1, fn: 52, guarded: true, label: "yes"}, {to: 1, fn: 53, guarded: true, label: "no"}}, // param.int
		{{to: 1, fn: 54, guarded: true, label: "yes"}, {to: 1, fn: 55, guarded: true, label: "no"}}, // param.str
		{{to: 1, fn: 56, guarded: true, label: "yes"}, {to: 1, fn: 57, guarded: true, label: "no"}}, // param.u32
		{{to: 1, fn: 58, guarded: true, label: "yes"}, {to: 1, fn: 59, guarded: true, label: "no"}}, // seqless
		{{to: 1, fn: 60, action: true}}, // set
		{{to: 1, fn: 61, action: true}}, // set.arith
		{{to: 1, fn: 62, action: true}}, // set.conv
		{{to: 1, fn: 63, action: true}}, // set.lit
		{{to: 2, fn: 64}},               // trap
		{{to: 1, fn: 65, action: true}}, // window
		{{to: 1, fn: 66, guarded: true, label: "yes"}, {to: 1, fn: 67, guarded: true, label: "no"}}, // windowok
		// TRAP
		nil,               // and
		nil,               // arg.map
		nil,               // arith
		nil,               // delete
		nil,               // emit
		nil,               // eq.bool
		nil,               // eq.int
		nil,               // eq.mixed
		nil,               // eq.str
		nil,               // ge
		nil,               // global.int
		nil,               // global.str
		nil,               // gt
		nil,               // halt
		nil,               // if
		nil,               // le
		nil,               // local.dur
		nil,               // local.int
		nil,               // local.str
		nil,               // local.u32
		nil,               // lt
		nil,               // lt.mixed
		nil,               // ne.mixed
		nil,               // ne.str
		nil,               // nest
		nil,               // or
		nil,               // param.bool
		nil,               // param.dur
		nil,               // param.int
		nil,               // param.str
		nil,               // param.u32
		nil,               // seqless
		nil,               // set
		nil,               // set.arith
		nil,               // set.conv
		nil,               // set.lit
		{{to: 2, fn: 68}}, // trap
		nil,               // window
		nil,               // windowok
	},
}

// ProbeArgs is the typed input vector x declared as core.Vector "Probe":
// the keys the specifications read through the core.Event accessors,
// held in a reusable struct so the packet path neither builds a map
// nor boxes a field. Absent fields read as zero values, as a missing
// map key does.
type ProbeArgs struct {
	S string
	T string
	I int
	J int
	U uint32
	W uint32
	D time.Duration
	X time.Duration
}

// StringArg implements core.TypedArgs.
func (a *ProbeArgs) StringArg(key string) (string, bool) {
	switch key {
	case "s":
		return a.S, true
	case "t":
		return a.T, true
	}
	return "", false
}

// IntArg implements core.TypedArgs.
func (a *ProbeArgs) IntArg(key string) (int, bool) {
	switch key {
	case "i":
		return a.I, true
	case "j":
		return a.J, true
	}
	return 0, false
}

// Uint32Arg implements core.TypedArgs.
func (a *ProbeArgs) Uint32Arg(key string) (uint32, bool) {
	switch key {
	case "u":
		return a.U, true
	case "w":
		return a.W, true
	}
	return 0, false
}

// DurationArg implements core.TypedArgs.
func (a *ProbeArgs) DurationArg(key string) (time.Duration, bool) {
	switch key {
	case "d":
		return a.D, true
	case "x":
		return a.X, true
	}
	return 0, false
}

// Field reads of ProbeArgs, falling back to the core.Event accessors
// when an event carries an Args map instead (tests and tooling).

func probeS(e *core.Event, a *ProbeArgs) string {
	if a != nil {
		return a.S
	}
	return e.StringArg("s")
}

func probeT(e *core.Event, a *ProbeArgs) string {
	if a != nil {
		return a.T
	}
	return e.StringArg("t")
}

func probeI(e *core.Event, a *ProbeArgs) int {
	if a != nil {
		return a.I
	}
	return e.IntArg("i")
}

func probeJ(e *core.Event, a *ProbeArgs) int {
	if a != nil {
		return a.J
	}
	return e.IntArg("j")
}

func probeU(e *core.Event, a *ProbeArgs) uint32 {
	if a != nil {
		return a.U
	}
	return e.Uint32Arg("u")
}

func probeW(e *core.Event, a *ProbeArgs) uint32 {
	if a != nil {
		return a.W
	}
	return e.Uint32Arg("w")
}

func probeD(e *core.Event, a *ProbeArgs) time.Duration {
	if a != nil {
		return a.D
	}
	return e.DurationArg("d")
}

func probeX(e *core.Event, a *ProbeArgs) time.Duration {
	if a != nil {
		return a.X
	}
	return e.DurationArg("x")
}

// Pre-built δ synchronization events: the values the specifications'
// Emit statements carry, shared across calls and never mutated.
var (
	deltaProbeKVN3 = core.Event{Name: "delta.probe", Args: map[string]any{"k": "v", "n": 3}}
	deltaPlain     = core.Event{Name: "delta.plain"}
)

// probeGlobals is the compiled form of a system's shared variable
// store (a core.Store): the g.* variables as struct fields plus a
// presence bitmask, so the Vars view — and the memory accounting core
// computes from it — matches the interpreted map exactly.
type probeGlobals struct {
	set uint8
	int int
	str string
}

// Presence bits of probeGlobals.set.
const (
	probeGlobalsSetInt = 1 << iota
	probeGlobalsSetStr
)

// Reset clears every variable.
func (g *probeGlobals) Reset() { *g = probeGlobals{} }

// Vars materializes the map view (cold path: tooling and tests).
func (g *probeGlobals) Vars() core.Vars {
	v := make(core.Vars)
	if g.set&probeGlobalsSetInt != 0 {
		v.SetInt("g.int", g.int)
	}
	if g.set&probeGlobalsSetStr != 0 {
		v.SetString("g.str", g.str)
	}
	return v
}

// ProbeMachine is the compiled form of
// ir-probe:
// the l.* vector as struct fields (presence bits in machBase.set feed
// the Vars view). Field zero values mirror the interpreted
// read-of-an-absent-key semantics, so guards read fields directly.
type ProbeMachine struct {
	machBase
	str   string
	dur   time.Duration
	int   int
	u32   uint32
	seq   uint32
	ts    uint32
	flag  bool
	g     *probeGlobals
	p     probeParams
	emits []core.SyncMsg
}

// probeParams is the parameter block the ProbeMachine guards read.
type probeParams struct {
	Dur  time.Duration
	Bool bool
	Int  int
	Str  string
	U32  uint32
}

// Presence bits of machBase.set for ProbeMachine.
const (
	probeSetStr = 1 << iota
	probeSetDur
	probeSetInt
	probeSetU32
	probeSetSeq
	probeSetTs
	probeSetFlag
)

// Reset returns the machine to its pristine configuration; parameters,
// the coverage observer and buffer capacity survive.
func (m *ProbeMachine) Reset() {
	m.reset()
	m.str = ""
	m.dur = 0
	m.int = 0
	m.u32 = 0
	m.seq = 0
	m.ts = 0
	m.flag = false
	m.emits = m.emits[:0]
}

// Vars materializes the l.* vector as a map (cold path).
func (m *ProbeMachine) Vars() core.Vars {
	v := make(core.Vars)
	if m.set&probeSetStr != 0 {
		v.SetString("l.str", m.str)
	}
	if m.set&probeSetDur != 0 {
		v.SetDuration("l.dur", m.dur)
	}
	if m.set&probeSetInt != 0 {
		v.SetInt("l.int", m.int)
	}
	if m.set&probeSetU32 != 0 {
		v.SetUint32("l.u32", m.u32)
	}
	if m.set&probeSetSeq != 0 {
		v.SetUint32("l.seq", m.seq)
	}
	if m.set&probeSetTs != 0 {
		v.SetUint32("l.ts", m.ts)
	}
	if m.set&probeSetFlag != 0 {
		v.SetBool("l.flag", m.flag)
	}
	return v
}

// Window reads the specification's Window view.
func (m *ProbeMachine) Window() (seq uint32, ts uint32) {
	return m.seq, m.ts
}

// SetWindow writes the specification's Window view.
func (m *ProbeMachine) SetWindow(seq uint32, ts uint32) {
	m.seq = seq
	m.ts = ts
	m.set |= probeSetSeq | probeSetTs
}

// Step replicates core.Machine.Step over the compiled tables: walk the
// (state, event) cell in spec order, record the unguarded fallback,
// evaluate every guard (two enabled is the nondeterminism error), run
// the action, report to the coverage observer in interpreter order.
//
//vids:noalloc compiled probe step — the generated-dispatch hot path
//vids:nopanic steps on attacker-sequenced events
func (m *ProbeMachine) Step(e core.Event) (res core.StepResult, err error) {
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
	a, _ := e.Typed.(*ProbeArgs)
	m.emits = m.emits[:0]
	chosen, fallback := -1, -1
	enabled := 0
	for i := range cands {
		if !cands[i].guarded {
			fallback = i
			continue
		}
		if probeGuardFn(cands[i].fn, m, &e, a) {
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
		probeActionFn(tr.fn, m, &e, a)
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
func probeGuard_S_and_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return probeI(e, a) < probeJ(e, a) && probeS(e, a) == probeT(e, a) && m.flag
}

func probeGuard_S_and_1(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return !(probeI(e, a) < probeJ(e, a) && probeS(e, a) == probeT(e, a) && m.flag)
}

func probeGuard_S_arg_map_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return e.StringArg("m") == probeS(e, a) && e.IntArg("n") == probeI(e, a)
}

func probeGuard_S_arg_map_1(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return !(e.StringArg("m") == probeS(e, a) && e.IntArg("n") == probeI(e, a))
}

func probeGuard_S_arith_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return probeD(e, a)-probeX(e, a) > m.p.Dur+m.dur
}

func probeGuard_S_arith_1(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return probeD(e, a)-probeX(e, a) <= m.p.Dur+m.dur
}

func probeAction_S_delete_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) {
	m.int = 0
	m.set &^= probeSetInt
	m.str = ""
	m.set &^= probeSetStr
	m.int = probeI(e, a)
	m.set |= probeSetInt
	m.flag = false
	m.set &^= probeSetFlag
}

func probeAction_S_emit_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) {
	m.str = probeS(e, a)
	m.set |= probeSetStr
	m.emits = append(m.emits, core.SyncMsg{Target: "peer", Event: deltaProbeKVN3}, core.SyncMsg{Target: "other", Event: deltaPlain})
}

func probeGuard_S_eq_bool_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return m.flag == m.p.Bool
}

func probeGuard_S_eq_bool_1(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return m.flag != m.p.Bool
}

func probeGuard_S_eq_int_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return probeI(e, a) == probeJ(e, a)
}

func probeGuard_S_eq_int_1(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return probeI(e, a) != probeJ(e, a)
}

func probeGuard_S_eq_mixed_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return int64(probeI(e, a)) == int64(probeU(e, a))
}

func probeGuard_S_eq_mixed_1(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return int64(probeI(e, a)) != int64(probeU(e, a))
}

func probeGuard_S_eq_str_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return probeS(e, a) == probeT(e, a)
}

func probeGuard_S_eq_str_1(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return probeS(e, a) != probeT(e, a)
}

func probeGuard_S_ge_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return probeI(e, a) >= 0
}

func probeGuard_S_ge_1(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return probeI(e, a) < 0
}

func probeGuard_S_global_int_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return m.g.int == probeI(e, a)
}

func probeGuard_S_global_int_1(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return m.g.int != probeI(e, a)
}

func probeGuard_S_global_str_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return m.g.str == probeS(e, a)
}

func probeGuard_S_global_str_1(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return m.g.str != probeS(e, a)
}

func probeGuard_S_gt_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return probeD(e, a) > probeX(e, a)
}

func probeGuard_S_gt_1(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return probeD(e, a) <= probeX(e, a)
}

func probeAction_S_if_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) {
	if probeI(e, a) < probeJ(e, a) {
		m.str = "then"
		m.set |= probeSetStr
		m.emits = append(m.emits, core.SyncMsg{Target: "peer", Event: deltaPlain})
	} else {
		m.str = "else"
		m.set |= probeSetStr
		if probeS(e, a) == probeT(e, a) {
			m.dur = 0
			m.set &^= probeSetDur
		}
	}
}

func probeGuard_S_le_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return probeU(e, a) <= probeW(e, a)
}

func probeGuard_S_le_1(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return probeU(e, a) > probeW(e, a)
}

func probeGuard_S_local_dur_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return m.dur == probeD(e, a)
}

func probeGuard_S_local_dur_1(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return m.dur != probeD(e, a)
}

func probeGuard_S_local_int_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return m.int == probeI(e, a)
}

func probeGuard_S_local_int_1(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return m.int != probeI(e, a)
}

func probeGuard_S_local_str_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return m.str == probeS(e, a)
}

func probeGuard_S_local_str_1(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return m.str != probeS(e, a)
}

func probeGuard_S_local_u32_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return m.u32 == probeU(e, a)
}

func probeGuard_S_local_u32_1(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return m.u32 != probeU(e, a)
}

func probeGuard_S_lt_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return probeI(e, a) < probeJ(e, a)
}

func probeGuard_S_lt_1(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return probeI(e, a) >= probeJ(e, a)
}

func probeGuard_S_lt_mixed_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return int64(probeI(e, a)) < int64(probeU(e, a))
}

func probeGuard_S_lt_mixed_1(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return int64(probeI(e, a)) >= int64(probeU(e, a))
}

func probeGuard_S_ne_mixed_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return int64(probeD(e, a)) != int64(probeI(e, a))
}

func probeGuard_S_ne_mixed_1(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return int64(probeD(e, a)) == int64(probeI(e, a))
}

func probeGuard_S_ne_str_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return probeS(e, a) != "x"
}

func probeGuard_S_ne_str_1(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return probeS(e, a) == "x"
}

func probeGuard_S_nest_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return (probeI(e, a) < probeJ(e, a) || m.flag) && !(probeS(e, a) == probeT(e, a) && m.p.Bool)
}

func probeGuard_S_nest_1(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return !((probeI(e, a) < probeJ(e, a) || m.flag) && !(probeS(e, a) == probeT(e, a) && m.p.Bool))
}

func probeGuard_S_or_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return probeI(e, a) < probeJ(e, a) || probeS(e, a) == probeT(e, a) || m.flag
}

func probeGuard_S_or_1(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return !(probeI(e, a) < probeJ(e, a) || probeS(e, a) == probeT(e, a) || m.flag)
}

func probeGuard_S_param_bool_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return m.p.Bool
}

func probeGuard_S_param_bool_1(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return !m.p.Bool
}

func probeGuard_S_param_dur_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return m.p.Dur == probeD(e, a)
}

func probeGuard_S_param_dur_1(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return m.p.Dur != probeD(e, a)
}

func probeGuard_S_param_int_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return m.p.Int == probeI(e, a)
}

func probeGuard_S_param_int_1(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return m.p.Int != probeI(e, a)
}

func probeGuard_S_param_str_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return m.p.Str == probeS(e, a)
}

func probeGuard_S_param_str_1(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return m.p.Str != probeS(e, a)
}

func probeGuard_S_param_u32_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return m.p.U32 == probeU(e, a)
}

func probeGuard_S_param_u32_1(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return m.p.U32 != probeU(e, a)
}

func probeGuard_S_seqless_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return rtp.SeqLess(uint16(m.seq), uint16(probeI(e, a)))
}

func probeGuard_S_seqless_1(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return !(rtp.SeqLess(uint16(m.seq), uint16(probeI(e, a))))
}

func probeAction_S_set_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) {
	m.str = probeS(e, a)
	m.int = probeI(e, a)
	m.u32 = probeU(e, a)
	m.dur = probeD(e, a)
	m.flag = probeI(e, a) < probeJ(e, a)
	m.g.str = probeT(e, a)
	m.g.int = probeJ(e, a)
	m.seq = probeW(e, a)
	m.ts = probeU(e, a)
	m.set |= probeSetStr | probeSetInt | probeSetU32 | probeSetDur | probeSetFlag | probeSetSeq | probeSetTs
	m.g.set |= probeGlobalsSetStr | probeGlobalsSetInt
}

func probeAction_S_set_arith_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) {
	m.int = probeI(e, a) + probeJ(e, a)
	m.u32 = probeU(e, a) - probeW(e, a)
	m.dur = probeD(e, a) - probeX(e, a)
	m.g.int = m.int + 1
	m.seq = probeU(e, a) + uint32(probeI(e, a))
	m.set |= probeSetInt | probeSetU32 | probeSetDur | probeSetSeq
	m.g.set |= probeGlobalsSetInt
}

func probeAction_S_set_conv_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) {
	m.u32 = uint32(probeI(e, a))
	m.int = int(probeU(e, a))
	m.dur = time.Duration(probeJ(e, a))
	m.g.int = int(probeD(e, a))
	m.set |= probeSetU32 | probeSetInt | probeSetDur
	m.g.set |= probeGlobalsSetInt
}

func probeAction_S_set_lit_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) {
	m.str = "lit"
	m.int = 42
	m.u32 = 7
	m.flag = true
	m.dur = time.Duration(3000000000)
	m.set |= probeSetStr | probeSetInt | probeSetU32 | probeSetFlag | probeSetDur
}

func probeAction_S_window_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) {
	seq, ts := rtp.WindowAdvance(uint16(m.seq), uint16(probeI(e, a)), m.ts, probeU(e, a))
	m.seq = uint32(seq)
	m.ts = ts
	m.set |= probeSetSeq | probeSetTs
	if m.flag {
		seq2, ts2 := rtp.WindowAdvance(uint16(m.seq), uint16(probeJ(e, a)), m.ts, probeW(e, a))
		m.seq = uint32(seq2)
		m.ts = ts2
		m.set |= probeSetSeq | probeSetTs
	}
}

func probeGuard_S_windowok_0(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return rtp.WindowOK(uint16(m.seq), uint16(probeI(e, a)), m.ts, probeU(e, a), uint16(m.p.Int), m.p.U32)
}

func probeGuard_S_windowok_1(m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	return !(rtp.WindowOK(uint16(m.seq), uint16(probeI(e, a)), m.ts, probeU(e, a), uint16(m.p.Int), m.p.U32))
}

func probeGuardFn(fn uint16, m *ProbeMachine, e *core.Event, a *ProbeArgs) bool {
	switch fn {
	case 0:
		return probeGuard_S_and_0(m, e, a)
	case 1:
		return probeGuard_S_and_1(m, e, a)
	case 2:
		return probeGuard_S_arg_map_0(m, e, a)
	case 3:
		return probeGuard_S_arg_map_1(m, e, a)
	case 4:
		return probeGuard_S_arith_0(m, e, a)
	case 5:
		return probeGuard_S_arith_1(m, e, a)
	case 8:
		return probeGuard_S_eq_bool_0(m, e, a)
	case 9:
		return probeGuard_S_eq_bool_1(m, e, a)
	case 10:
		return probeGuard_S_eq_int_0(m, e, a)
	case 11:
		return probeGuard_S_eq_int_1(m, e, a)
	case 12:
		return probeGuard_S_eq_mixed_0(m, e, a)
	case 13:
		return probeGuard_S_eq_mixed_1(m, e, a)
	case 14:
		return probeGuard_S_eq_str_0(m, e, a)
	case 15:
		return probeGuard_S_eq_str_1(m, e, a)
	case 16:
		return probeGuard_S_ge_0(m, e, a)
	case 17:
		return probeGuard_S_ge_1(m, e, a)
	case 18:
		return probeGuard_S_global_int_0(m, e, a)
	case 19:
		return probeGuard_S_global_int_1(m, e, a)
	case 20:
		return probeGuard_S_global_str_0(m, e, a)
	case 21:
		return probeGuard_S_global_str_1(m, e, a)
	case 22:
		return probeGuard_S_gt_0(m, e, a)
	case 23:
		return probeGuard_S_gt_1(m, e, a)
	case 26:
		return probeGuard_S_le_0(m, e, a)
	case 27:
		return probeGuard_S_le_1(m, e, a)
	case 28:
		return probeGuard_S_local_dur_0(m, e, a)
	case 29:
		return probeGuard_S_local_dur_1(m, e, a)
	case 30:
		return probeGuard_S_local_int_0(m, e, a)
	case 31:
		return probeGuard_S_local_int_1(m, e, a)
	case 32:
		return probeGuard_S_local_str_0(m, e, a)
	case 33:
		return probeGuard_S_local_str_1(m, e, a)
	case 34:
		return probeGuard_S_local_u32_0(m, e, a)
	case 35:
		return probeGuard_S_local_u32_1(m, e, a)
	case 36:
		return probeGuard_S_lt_0(m, e, a)
	case 37:
		return probeGuard_S_lt_1(m, e, a)
	case 38:
		return probeGuard_S_lt_mixed_0(m, e, a)
	case 39:
		return probeGuard_S_lt_mixed_1(m, e, a)
	case 40:
		return probeGuard_S_ne_mixed_0(m, e, a)
	case 41:
		return probeGuard_S_ne_mixed_1(m, e, a)
	case 42:
		return probeGuard_S_ne_str_0(m, e, a)
	case 43:
		return probeGuard_S_ne_str_1(m, e, a)
	case 44:
		return probeGuard_S_nest_0(m, e, a)
	case 45:
		return probeGuard_S_nest_1(m, e, a)
	case 46:
		return probeGuard_S_or_0(m, e, a)
	case 47:
		return probeGuard_S_or_1(m, e, a)
	case 48:
		return probeGuard_S_param_bool_0(m, e, a)
	case 49:
		return probeGuard_S_param_bool_1(m, e, a)
	case 50:
		return probeGuard_S_param_dur_0(m, e, a)
	case 51:
		return probeGuard_S_param_dur_1(m, e, a)
	case 52:
		return probeGuard_S_param_int_0(m, e, a)
	case 53:
		return probeGuard_S_param_int_1(m, e, a)
	case 54:
		return probeGuard_S_param_str_0(m, e, a)
	case 55:
		return probeGuard_S_param_str_1(m, e, a)
	case 56:
		return probeGuard_S_param_u32_0(m, e, a)
	case 57:
		return probeGuard_S_param_u32_1(m, e, a)
	case 58:
		return probeGuard_S_seqless_0(m, e, a)
	case 59:
		return probeGuard_S_seqless_1(m, e, a)
	case 66:
		return probeGuard_S_windowok_0(m, e, a)
	case 67:
		return probeGuard_S_windowok_1(m, e, a)
	}
	return true
}

func probeActionFn(fn uint16, m *ProbeMachine, e *core.Event, a *ProbeArgs) {
	switch fn {
	case 6:
		probeAction_S_delete_0(m, e, a)
	case 7:
		probeAction_S_emit_0(m, e, a)
	case 25:
		probeAction_S_if_0(m, e, a)
	case 60:
		probeAction_S_set_0(m, e, a)
	case 61:
		probeAction_S_set_arith_0(m, e, a)
	case 62:
		probeAction_S_set_conv_0(m, e, a)
	case 63:
		probeAction_S_set_lit_0(m, e, a)
	case 65:
		probeAction_S_window_0(m, e, a)
	}
}
