package core

import (
	"errors"
	"fmt"
)

// ErrUnknownMachine reports a delivery to a machine the System does
// not run: a wiring bug, never a property of the traffic.
var ErrUnknownMachine = errors.New("core: unknown machine")

// MachineLike is the behavioral surface of one running EFSM instance,
// implemented both by the interpreted Machine and by the compiled
// machines of internal/idsgen. A System holds its members behind it,
// so one δ-FIFO runtime runs either backend; everything here is either
// cold-path introspection or the Step hot path, which both backends
// keep allocation-free.
type MachineLike interface {
	Name() string
	State() State
	// Vars exposes the local variable vector. The interpreted machine
	// returns its live store; a compiled machine materializes an
	// equivalent map on demand (cold path — tooling and tests only).
	Vars() Vars
	Steps() uint64
	InAttack() bool
	InFinal() bool
	Step(e Event) (StepResult, error)
	Reset()
}

// Store is a System's shared g.* variable store: a Vars map for the
// interpreted backend, a generated struct (idsgen.SysGlobals) for the
// compiled one. The members read and write it directly; the System
// only clears it and reads its map view.
type Store interface {
	// Reset clears every variable, keeping allocated capacity.
	Reset()
	// Vars is the map view. A Vars store is its own view; a compiled
	// store materializes one (cold path — tooling and tests only).
	Vars() Vars
}

// Reset clears the map, keeping its buckets.
func (v Vars) Reset() { clear(v) }

// Vars returns v: an interpreted store is its own map view.
func (v Vars) Vars() Vars { return v }

// System is a set of communicating EFSMs sharing a global variable
// store, joined by reliable FIFO synchronization queues
// (paper Figure 2(b)). One System monitors one call.
type System struct {
	// members in insertion order; a call system has three, so a
	// linear scan over the cached names beats a map probe.
	members []member
	store   Store

	// queue holds pending δ messages in arrival order. The paper
	// models one FIFO queue per machine pair; a single global FIFO
	// with per-message targets preserves the same per-pair ordering
	// because appends happen in emission order. qhead indexes the next
	// message to pop so the backing array's capacity is reused instead
	// of creeping away one element per pop.
	queue []SyncMsg
	qhead int

	// maxPending is the high-water mark of the δ FIFO: the largest
	// number of queued-but-undelivered sync messages observed since the
	// last Reset. speclint's queue-bound witnesses replay against it.
	maxPending int

	results []StepResult
}

type member struct {
	name string
	m    MachineLike
}

// NewSystem creates an empty communicating system over an interpreted
// store; Add instantiates specs in it.
func NewSystem() *System {
	return &System{store: make(Vars)}
}

// Compose builds a system from machines already wired to the shared
// store g — the compiled backend's members, whose g.* variables are
// fields of g. Member names must be distinct; Compose panics on a
// duplicate, a wiring bug.
func Compose(g Store, members ...MachineLike) *System {
	sys := &System{store: g, members: make([]member, 0, len(members))}
	for _, m := range members {
		if err := sys.join(m); err != nil {
			panic(err)
		}
	}
	return sys
}

// Globals exposes the shared variable store (v.g_* in the paper)
// through its map view.
func (sys *System) Globals() Vars { return sys.store.Vars() }

// Add instantiates spec inside the system. Machine names must be
// unique, and the system must hold an interpreted store (NewSystem).
func (sys *System) Add(spec *Spec) (*Machine, error) {
	g, ok := sys.store.(Vars)
	if !ok {
		return nil, fmt.Errorf("core: cannot add interpreted machine %q to a system over a compiled store", spec.Name)
	}
	m := NewMachine(spec, g)
	if err := sys.join(m); err != nil {
		return nil, err
	}
	return m, nil
}

func (sys *System) join(m MachineLike) error {
	name := m.Name()
	if _, dup := sys.Find(name); dup {
		return fmt.Errorf("core: duplicate machine %q", name)
	}
	sys.members = append(sys.members, member{name: name, m: m})
	return nil
}

// Find returns a member machine by name (ok=false if absent).
func (sys *System) Find(name string) (MachineLike, bool) {
	for i := range sys.members {
		if sys.members[i].name == name {
			return sys.members[i].m, true
		}
	}
	return nil, false
}

// Machines lists member machines in insertion order.
func (sys *System) Machines() []MachineLike {
	out := make([]MachineLike, 0, len(sys.members))
	for _, mb := range sys.members {
		out = append(out, mb.m)
	}
	return out
}

// PendingSync reports queued δ messages not yet consumed.
func (sys *System) PendingSync() int { return len(sys.queue) - sys.qhead }

// MaxPendingSync reports the δ FIFO's high-water mark since the last
// Reset: the largest backlog of sync messages that ever waited for
// delivery. A correctly specified system keeps this small (each
// transition emits at most a couple of δs, drained immediately);
// speclint's delta-queue-bound check flags specs that can push it
// past Options.MaxQueue, and its replayed witnesses assert the
// violation through this accessor.
func (sys *System) MaxPendingSync() int { return sys.maxPending }

// noteBacklog updates the high-water mark after an enqueue.
func (sys *System) noteBacklog() {
	if n := len(sys.queue) - sys.qhead; n > sys.maxPending {
		sys.maxPending = n
	}
}

// Reset returns every member machine to its initial configuration and
// clears the shared globals, FIFO queue and result buffer, keeping
// all allocated capacity. Monitor pooling (internal/ids) recycles a
// whole per-call system through this between calls.
func (sys *System) Reset() {
	for _, mb := range sys.members {
		mb.m.Reset() //vids:alloc-ok member dispatch: both backends' Reset clear fields and reslice, keeping capacity
	}
	sys.store.Reset() //vids:alloc-ok member dispatch: both stores clear in place
	sys.queue = sys.queue[:0]
	sys.qhead = 0
	sys.maxPending = 0
	sys.results = sys.results[:0]
}

// Deliver feeds a data-packet event to the named machine. Per the
// paper's priority rule, all pending synchronization events are
// drained first, and any sync messages emitted by the triggered
// transitions are drained afterwards as well.
//
// The returned results list every transition taken (sync-triggered
// and data-triggered, in execution order). An ErrNoTransition from
// the *data* event is returned as a deviation; sync events that find
// no transition are tolerated (the peer machine may legitimately have
// moved past the state that cared).
//
// The returned slice is owned by the System and reused: it is valid
// only until the next Deliver/DeliverSync call. The per-packet hot
// path consumes it synchronously; callers that need to retain results
// must copy them.
//
//vids:noalloc per-packet delivery path of every call system, either backend
//vids:nopanic dispatches attacker-driven events through the call system
func (sys *System) Deliver(machine string, e Event) ([]StepResult, error) {
	m, ok := sys.Find(machine)
	if !ok {
		return nil, ErrUnknownMachine
	}
	sys.results = sys.results[:0]

	if err := sys.drain(); err != nil {
		return sys.results, err
	}

	res, err := step(m, e)
	if err != nil {
		return sys.results, err
	}
	sys.results = append(sys.results, res)
	sys.queue = append(sys.queue, res.Emitted...)
	sys.noteBacklog()

	if err := sys.drain(); err != nil {
		return sys.results, err
	}
	return sys.results, nil
}

// DeliverSync injects a sync event directly (used for timer expiries
// that the IDS schedules on behalf of a machine). Like Deliver, the
// returned slice is reused by the System and valid only until the
// next Deliver/DeliverSync call.
//
//vids:noalloc timer/sync delivery path of every call system, either backend
//vids:nopanic dispatches attacker-driven events through the call system
func (sys *System) DeliverSync(machine string, e Event) ([]StepResult, error) {
	if _, ok := sys.Find(machine); !ok {
		return nil, ErrUnknownMachine
	}
	sys.results = sys.results[:0]
	sys.queue = append(sys.queue, SyncMsg{Target: machine, Event: e})
	sys.noteBacklog()
	err := sys.drain()
	return sys.results, err
}

// drain processes the sync queue to exhaustion in FIFO order. The
// cursor starts at 0 and only ever advances, so the >= 0 arm of the
// loop condition is dead; it states the invariant the queue read
// depends on.
func (sys *System) drain() error {
	for sys.qhead >= 0 && sys.qhead < len(sys.queue) {
		msg := sys.queue[sys.qhead]
		sys.qhead++
		m, ok := sys.Find(msg.Target)
		if !ok {
			continue // emitted to a machine this system doesn't run
		}
		res, err := step(m, msg.Event)
		if err != nil {
			if err == ErrNoTransition {
				continue // peer no longer cares; not a deviation
			}
			return err
		}
		sys.results = append(sys.results, res)
		sys.queue = append(sys.queue, res.Emitted...)
		sys.noteBacklog()
	}
	// Empty: rewind onto the same backing array so the next Deliver
	// appends from the front instead of creeping toward a realloc.
	sys.queue = sys.queue[:0]
	sys.qhead = 0
	return nil
}

// step is the System's one dispatch into a member's Step, whichever
// backend built it.
func step(m MachineLike, e Event) (StepResult, error) {
	//vids:panic-ok member dispatch: every generated Step is a nopanic root of its own
	return m.Step(e) //vids:alloc-ok member dispatch: Machine.Step and every generated Step are noalloc roots of their own
}

// InAttack reports whether any member machine sits in an attack state.
func (sys *System) InAttack() bool {
	for _, mb := range sys.members {
		if mb.m.InAttack() {
			return true
		}
	}
	return false
}

// AllFinal reports whether every member machine reached a final state.
func (sys *System) AllFinal() bool {
	for _, mb := range sys.members {
		if !mb.m.InFinal() { //vids:alloc-ok member dispatch: both backends read a flag of the current state
			return false
		}
	}
	return len(sys.members) > 0
}

// MemoryFootprint estimates the bytes held by the per-call
// configuration — the state variables and control states — mirroring
// the paper's per-call memory accounting (Section 7.3). Spec graphs
// are shared and excluded. A compiled member or store is charged
// through its map view, so both backends account identically (cold
// path: the view is materialized).
func (sys *System) MemoryFootprint() int {
	total := 0
	for _, mb := range sys.members {
		total += len(mb.m.State())
		total += varsFootprint(mb.m.Vars())
	}
	total += varsFootprint(sys.store.Vars())
	return total
}

func varsFootprint(v Vars) int {
	total := 0
	for k, val := range v {
		total += len(k)
		switch val.kind {
		case KindString:
			total += len(val.str)
		case KindInt, KindUint32, KindDuration, KindFloat64:
			total += 8
		case KindBool:
			total++
		default:
			total += 16 // interface header approximation
		}
	}
	return total
}
