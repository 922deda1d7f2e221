package idsgen

import "vids/internal/core"

// trans is one compiled transition: a dense-table cell entry. fn is
// the family-wide transition index the generated guard/action switch
// dispatches on; guarded/action mirror the spec's nil checks.
type trans struct {
	to      uint8
	fn      uint16
	guarded bool
	action  bool
	label   string
}

// machTable is one machine's compiled shape: states and events in
// their canonical (sorted) order, the final/attack masks, and the
// dense state×event candidate cells in spec insertion order — the
// exact order the interpreted Machine.Step walks. cells is flattened
// row-major (cells[state*len(events)+event]) so the per-step lookup is
// one bounds check and no intermediate slice-header chase. The tables
// live in tables_gen.go (written by cmd/specgen); what interprets them
// here knows no state, event or variable of any specification.
type machTable struct {
	name    string
	initial uint8
	states  []core.State
	events  []string
	final   []bool
	attack  []bool
	cells   [][]trans
}

// cell returns the candidate list for (state, event column). The
// guard is dead for specgen-emitted tables — every state id and event
// column is in range by construction — but it makes the lookup total,
// so the nopanic gate needs no waiver here.
func (t *machTable) cell(state uint8, eid int) []trans {
	i := int(state)*len(t.events) + eid
	if i < 0 || i >= len(t.cells) {
		return nil
	}
	return t.cells[i]
}

// stateName resolves a state id to its canonical name. Out-of-range
// ids cannot occur (specgen emits only in-range ids and every Step
// writes tr.to straight from the table), so the empty fallback is
// dead; it exists to make the read total.
func (t *machTable) stateName(id uint8) core.State {
	i := int(id)
	if i < len(t.states) {
		return t.states[i]
	}
	return ""
}

// stateFlag reads a per-state bitmask (final/attack) with the same
// dead defensive bound as stateName.
func stateFlag(bits []bool, id uint8) bool {
	i := int(id)
	return i < len(bits) && bits[i]
}

// eventID resolves an event name to its column, or -1. The alphabets
// are tiny (≤5 events), so a linear scan beats a map probe.
func (t *machTable) eventID(name string) int {
	for i := range t.events {
		if t.events[i] == name {
			return i
		}
	}
	return -1
}

// machBase is the shell every compiled machine embeds: its table, the
// control state, the presence mask of its l.* fields (bit assignments
// are generated per machine type), and the bookkeeping behind the
// parts of core.MachineLike that do not depend on the specification.
type machBase struct {
	tbl   *machTable
	state uint8
	set   uint16
	steps uint64
}

func newBase(tbl *machTable) machBase { return machBase{tbl: tbl, state: tbl.initial} }

// Name returns the machine's name.
func (m *machBase) Name() string { return m.tbl.name }

// State returns the current control state.
func (m *machBase) State() core.State { return m.tbl.stateName(m.state) }

// Steps reports transitions taken since the last Reset.
func (m *machBase) Steps() uint64 { return m.steps }

// InAttack reports whether the machine sits in an attack state.
func (m *machBase) InAttack() bool { return stateFlag(m.tbl.attack, m.state) }

// InFinal reports whether the machine reached a final state.
func (m *machBase) InFinal() bool { return stateFlag(m.tbl.final, m.state) }

func (m *machBase) reset() {
	m.state = m.tbl.initial
	m.set = 0
	m.steps = 0
}
