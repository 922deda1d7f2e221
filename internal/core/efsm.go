// Package core implements the paper's formal model (Section 4): the
// extended finite state machine (EFSM) quintuple M = (Σ, S, v, D, T)
// and systems of communicating EFSMs joined by reliable FIFO
// synchronization queues.
//
// An EFSM transition t ∈ T is the tuple <s_t, event, P_t, A_t, q_t>:
// from state s_t, on an event carrying input vector x, if the
// predicate P_t(x ∪ v) holds, run the context-update action A_t(v)
// and move to q_t. Deterministic EFSMs require the predicates of
// competing transitions to be mutually disjoint; Step enforces this
// at run time by evaluating every candidate guard.
//
// vids (package ids) builds its SIP and RTP protocol machines on this
// package; the interaction between them — the δ synchronization
// messages of Figure 2 — flows through System's FIFO queues, where
// sync events have priority over data-packet events (Section 4.2).
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// State names one control state of a machine.
type State string

// TypedArgs is a typed backing store for an Event's input vector x.
// The per-packet hot path (internal/ids) hands events a pointer to a
// reusable struct implementing this interface instead of building a
// fresh map[string]any per packet, so classify→step runs without
// boxing every argument through an interface allocation. Lookups
// return ok=false for keys the payload does not carry; the Event
// accessors then fall back to the Args map, which remains the
// spec-authoring and tooling representation (δ emissions, speclint
// probes).
type TypedArgs interface {
	StringArg(key string) (string, bool)
	IntArg(key string) (int, bool)
	Uint32Arg(key string) (uint32, bool)
	DurationArg(key string) (time.Duration, bool)
}

// Event is an element of the event alphabet Σ: a name plus the input
// vector x of named arguments. The vector lives either in Args (the
// general map form) or in Typed (the allocation-free form); the typed
// accessors below consult Typed first and fall back to Args, so
// predicates and actions are agnostic to the representation.
type Event struct {
	Name  string
	Args  map[string]any
	Typed TypedArgs
}

// Arg returns an event argument (nil if absent).
func (e Event) Arg(key string) any {
	if e.Typed != nil {
		if v, ok := e.Typed.StringArg(key); ok {
			return v
		}
		if v, ok := e.Typed.IntArg(key); ok {
			return v
		}
		if v, ok := e.Typed.Uint32Arg(key); ok {
			return v
		}
		if v, ok := e.Typed.DurationArg(key); ok {
			return v
		}
	}
	return e.Args[key]
}

// StringArg returns a string argument ("" if absent or not a string).
func (e Event) StringArg(key string) string {
	if e.Typed != nil {
		//vids:panic-ok TypedArgs implementations are in-repo field-read accessors on scratch structs
		if v, ok := e.Typed.StringArg(key); ok { //vids:alloc-ok TypedArgs implementations are field reads on pre-allocated scratch structs
			return v
		}
	}
	s, _ := e.Args[key].(string)
	return s
}

// IntArg returns an int argument (0 if absent or not an int).
func (e Event) IntArg(key string) int {
	if e.Typed != nil {
		//vids:panic-ok TypedArgs implementations are in-repo field-read accessors on scratch structs
		if v, ok := e.Typed.IntArg(key); ok { //vids:alloc-ok TypedArgs implementations are field reads on pre-allocated scratch structs
			return v
		}
	}
	v, _ := e.Args[key].(int)
	return v
}

// Uint32Arg returns a uint32 argument (0 if absent).
func (e Event) Uint32Arg(key string) uint32 {
	if e.Typed != nil {
		//vids:panic-ok TypedArgs implementations are in-repo field-read accessors on scratch structs
		if v, ok := e.Typed.Uint32Arg(key); ok { //vids:alloc-ok TypedArgs implementations are field reads on pre-allocated scratch structs
			return v
		}
	}
	v, _ := e.Args[key].(uint32)
	return v
}

// DurationArg returns a time.Duration argument (0 if absent).
func (e Event) DurationArg(key string) time.Duration {
	if e.Typed != nil {
		//vids:panic-ok TypedArgs implementations are in-repo field-read accessors on scratch structs
		if v, ok := e.Typed.DurationArg(key); ok { //vids:alloc-ok TypedArgs implementations are field reads on pre-allocated scratch structs
			return v
		}
	}
	v, _ := e.Args[key].(time.Duration)
	return v
}

// Kind discriminates the representation held by a Val.
type Kind uint8

// Val kinds.
const (
	KindNone Kind = iota
	KindString
	KindInt
	KindUint32
	KindBool
	KindDuration
	KindFloat64
	KindAny
)

// Val is one state variable: a small tagged union so that storing a
// string or integer into the variable vector never boxes through an
// interface allocation. The rare value of another type (tooling
// probes, tests) rides in the KindAny escape hatch.
type Val struct {
	kind Kind
	str  string
	num  uint64
	anyv any
}

// StringVal wraps a string.
func StringVal(s string) Val { return Val{kind: KindString, str: s} }

// IntVal wraps an int.
func IntVal(n int) Val { return Val{kind: KindInt, num: uint64(n)} }

// Uint32Val wraps a uint32.
func Uint32Val(n uint32) Val { return Val{kind: KindUint32, num: uint64(n)} }

// BoolVal wraps a bool.
func BoolVal(b bool) Val {
	v := Val{kind: KindBool}
	if b {
		v.num = 1
	}
	return v
}

// DurationVal wraps a time.Duration.
func DurationVal(d time.Duration) Val { return Val{kind: KindDuration, num: uint64(d)} }

// Float64Val wraps a float64.
func Float64Val(f float64) Val { return Val{kind: KindFloat64, num: math.Float64bits(f)} }

// AnyVal wraps an arbitrary value, unboxing the kinds Val represents
// natively. Values of any other type are carried boxed — tooling and
// tests only; hot-path actions use the typed constructors.
func AnyVal(v any) Val {
	switch tv := v.(type) {
	case string:
		return StringVal(tv)
	case int:
		return IntVal(tv)
	case uint32:
		return Uint32Val(tv)
	case bool:
		return BoolVal(tv)
	case time.Duration:
		return DurationVal(tv)
	case float64:
		return Float64Val(tv)
	default:
		return Val{kind: KindAny, anyv: v}
	}
}

// Kind reports the representation tag.
func (v Val) Kind() Kind { return v.kind }

// Any re-materializes the value as an interface (boxing numerics) —
// for tooling and tests, not the packet path.
func (v Val) Any() any {
	switch v.kind {
	case KindString:
		return v.str
	case KindInt:
		return int(v.num)
	case KindUint32:
		return uint32(v.num)
	case KindBool:
		return v.num != 0
	case KindDuration:
		return time.Duration(v.num)
	case KindFloat64:
		return math.Float64frombits(v.num)
	case KindAny:
		return v.anyv
	}
	return nil
}

// Vars is the state-variable vector v. By the paper's convention,
// keys prefixed "l." are local to one machine and keys prefixed "g."
// live in the globals shared across a System.
type Vars map[string]Val

// SetString stores a string variable without boxing.
func (v Vars) SetString(key, s string) { v[key] = StringVal(s) }

// SetInt stores an int variable without boxing.
func (v Vars) SetInt(key string, n int) { v[key] = IntVal(n) }

// SetUint32 stores a uint32 variable without boxing.
func (v Vars) SetUint32(key string, n uint32) { v[key] = Uint32Val(n) }

// SetBool stores a bool variable without boxing.
func (v Vars) SetBool(key string, b bool) { v[key] = BoolVal(b) }

// SetDuration stores a time.Duration variable without boxing.
func (v Vars) SetDuration(key string, d time.Duration) { v[key] = DurationVal(d) }

// Set stores an arbitrary value (see AnyVal).
func (v Vars) Set(key string, val any) { v[key] = AnyVal(val) }

// Any reads a variable back as an interface value (nil if absent).
func (v Vars) Any(key string) any { return v[key].Any() }

// GetString reads a string variable.
func (v Vars) GetString(key string) string {
	val := v[key]
	if val.kind != KindString {
		return ""
	}
	return val.str
}

// GetInt reads an int variable.
func (v Vars) GetInt(key string) int {
	val := v[key]
	if val.kind != KindInt {
		return 0
	}
	return int(val.num)
}

// GetUint32 reads a uint32 variable.
func (v Vars) GetUint32(key string) uint32 {
	val := v[key]
	if val.kind != KindUint32 {
		return 0
	}
	return uint32(val.num)
}

// GetBool reads a bool variable.
func (v Vars) GetBool(key string) bool {
	val := v[key]
	return val.kind == KindBool && val.num != 0
}

// GetDuration reads a time.Duration variable.
func (v Vars) GetDuration(key string) time.Duration {
	val := v[key]
	if val.kind != KindDuration {
		return 0
	}
	return time.Duration(val.num)
}

// Ctx is handed to predicates and actions: the triggering event, the
// machine-local variables, the System-wide globals, and the emit
// buffer for synchronization messages.
type Ctx struct {
	Event   Event
	Vars    Vars // local state variables of this machine
	Globals Vars // variables shared across the communicating system

	emits []SyncMsg
}

// Emit queues a synchronization message to a peer machine. It is
// delivered through the System's FIFO queue after the current
// transition's action completes (c!δ in the paper's CSP notation).
func (c *Ctx) Emit(target string, e Event) {
	c.emits = append(c.emits, SyncMsg{Target: target, Event: e})
}

// Emitted returns the synchronization messages queued by Emit so
// far. Static analysis (internal/speclint) builds a recording Ctx —
// a synthetic event plus fresh variable stores — executes a
// transition's Action against it, and reads the δ emissions back
// through this accessor.
func (c *Ctx) Emitted() []SyncMsg { return c.emits }

// SyncMsg is one δ message in flight between machines.
type SyncMsg struct {
	Target string
	Event  Event
}

// Predicate is P_t(x ∪ v): it must be side-effect free.
type Predicate func(c *Ctx) bool

// Action is A_t(v): it updates the state variables and may Emit.
type Action func(c *Ctx)

// Transition is one element of the transition relation T.
type Transition struct {
	From  State
	Event string
	Guard Predicate // nil means "always true"
	Do    Action    // nil means "no update"
	To    State

	// Label annotates the transition for alerts and traces.
	Label string

	// Pred and Act are the IR the closures above were lowered from
	// (Spec.When); nil on a transition authored as closures (Spec.On).
	// cmd/specgen compiles these; nothing on the step path reads them.
	Pred *Expr
	Act  *Block
}

// Spec is the immutable definition of one EFSM: shared by all of its
// per-call instances, so the marginal memory cost of monitoring one
// more call is just the variable vector (paper Section 7.3).
type Spec struct {
	Name    string
	Initial State

	// Family names the compiled machine type (<Family>Machine) specgen
	// emits for this specification. Structurally identical specs — the
	// two media directions, the two flood counters — share one type.
	Family string
	// Views are the variable tuples the compiled type exposes through
	// generated accessors (see View).
	Views []View

	finals  map[State]bool
	attacks map[State]bool
	// transitions indexed by from-state and event name.
	transitions map[State]map[string][]Transition
	states      map[State]bool
	// declared tracks states the author named on purpose: the initial
	// state, transition sources, Final/Attack states, and anything
	// passed to Declare. A state that only ever appears as a
	// transition *target* is not in this set — Validate flags it as a
	// likely typo.
	declared map[State]bool
}

// NewSpec creates a machine definition with its start state.
func NewSpec(name string, initial State) *Spec {
	return &Spec{
		Name:        name,
		Initial:     initial,
		finals:      make(map[State]bool),
		attacks:     make(map[State]bool),
		transitions: make(map[State]map[string][]Transition),
		states:      map[State]bool{initial: true},
		declared:    map[State]bool{initial: true},
	}
}

// On adds a transition. Multiple transitions may share (from, event)
// as long as their guards are mutually disjoint; at most one of them
// may have a nil (catch-all) guard.
func (s *Spec) On(from State, event string, guard Predicate, action Action, to State) *Spec {
	s.OnLabeled("", from, event, guard, action, to)
	return s
}

// OnLabeled adds a transition carrying a label (used to annotate
// attack signatures, paper Section 4.2).
func (s *Spec) OnLabeled(label string, from State, event string, guard Predicate, action Action, to State) *Spec {
	byEvent := s.transitions[from]
	if byEvent == nil {
		byEvent = make(map[string][]Transition)
		s.transitions[from] = byEvent
	}
	byEvent[event] = append(byEvent[event], Transition{
		From: from, Event: event, Guard: guard, Do: action, To: to, Label: label,
	})
	s.states[from] = true
	s.states[to] = true
	s.declared[from] = true
	return s
}

// Declare names states explicitly without attaching semantics. A pure
// sink that is intentionally neither final nor attack (rare — such a
// state traps the machine forever) must be declared this way or
// Validate rejects the transitions targeting it.
func (s *Spec) Declare(states ...State) *Spec {
	for _, st := range states {
		s.states[st] = true
		s.declared[st] = true
	}
	return s
}

// Final marks states as accepting/terminal: reaching one lets the
// fact base evict the call's machines (paper Section 7.3).
func (s *Spec) Final(states ...State) *Spec {
	for _, st := range states {
		s.finals[st] = true
		s.states[st] = true
		s.declared[st] = true
	}
	return s
}

// Attack annotates states whose entry constitutes an attack signature
// match (s_attack in the paper).
func (s *Spec) Attack(states ...State) *Spec {
	for _, st := range states {
		s.attacks[st] = true
		s.states[st] = true
		s.declared[st] = true
	}
	return s
}

// IsFinal reports whether st is a final state.
func (s *Spec) IsFinal(st State) bool { return s.finals[st] }

// IsAttack reports whether st is an attack state.
func (s *Spec) IsAttack(st State) bool { return s.attacks[st] }

// States returns every state mentioned by the spec, sorted.
func (s *Spec) States() []State {
	out := make([]State, 0, len(s.states))
	for st := range s.states {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Validate checks structural well-formedness: the initial state is
// set and part of the declared graph, every (state, event) pair has
// at most one catch-all transition, every transition targets a
// declared state (a typo'd To would otherwise silently create a trap
// state), and attack/final states belong to the graph. Deeper
// semantic checks — reachability, livelock, the δ-channel contract —
// live in internal/speclint.
func (s *Spec) Validate() error {
	if s.Initial == "" {
		return fmt.Errorf("core: %s: no initial state", s.Name)
	}
	if !s.states[s.Initial] {
		return fmt.Errorf("core: %s: initial state %q not in graph", s.Name, s.Initial)
	}
	for _, t := range s.Transitions() {
		if !s.declared[t.To] {
			return fmt.Errorf("core: %s: transition %q -%s-> %q targets an undeclared state (typo? declare it via Final/Attack/Declare or give it an outgoing transition)",
				s.Name, t.From, t.Event, t.To)
		}
	}
	for from, byEvent := range s.transitions {
		for event, ts := range byEvent {
			defaults := 0
			for _, t := range ts {
				if t.Guard == nil {
					defaults++
				}
			}
			if defaults > 1 {
				return fmt.Errorf("core: %s: %d catch-all transitions from %q on %q",
					s.Name, defaults, from, event)
			}
		}
	}
	for st := range s.attacks {
		if !s.states[st] {
			return fmt.Errorf("core: %s: attack state %q not in graph", s.Name, st)
		}
	}
	for st := range s.finals {
		if !s.states[st] {
			return fmt.Errorf("core: %s: final state %q not in graph", s.Name, st)
		}
	}
	return nil
}

// Errors reported by Machine.Step.
var (
	// ErrNoTransition means the event is not accepted in the current
	// configuration: the specification-deviation signal.
	ErrNoTransition = errors.New("core: no transition for event in current state")
	// ErrNondeterministic means two guards were simultaneously true,
	// violating the mutual-disjointness requirement of Section 4.1.
	ErrNondeterministic = errors.New("core: multiple enabled transitions")
)

// Machine is one running instance of a Spec: a configuration
// (state, v) in the paper's terms.
type Machine struct {
	spec    *Spec
	name    string
	state   State
	vars    Vars
	globals Vars

	// ctx is the reusable evaluation context handed to guards and
	// actions: keeping it on the machine (instead of allocating one
	// per Step) keeps the per-packet hot path allocation-free. Step is
	// not reentrant: an Action must not call Step on its own machine
	// (δ messages go through Ctx.Emit and the System queue instead).
	ctx Ctx

	steps uint64
}

// NewMachine instantiates a spec. globals is the variable store
// shared with peer machines (may be nil for a standalone machine).
//
//vids:coldpath machine construction happens on monitor-pool miss or first sight of an unsolicited stream, not per packet
func NewMachine(spec *Spec, globals Vars) *Machine {
	if globals == nil {
		globals = make(Vars)
	}
	return &Machine{
		spec:    spec,
		name:    spec.Name,
		state:   spec.Initial,
		vars:    make(Vars),
		globals: globals,
	}
}

// Name returns the machine's name (the spec name).
func (m *Machine) Name() string { return m.name }

// State returns the current control state.
func (m *Machine) State() State { return m.state }

// Vars exposes the local variable vector (callers must treat it as
// owned by the machine).
func (m *Machine) Vars() Vars { return m.vars }

// Spec returns the machine's definition.
func (m *Machine) Spec() *Spec { return m.spec }

// Steps reports how many transitions this instance has taken.
func (m *Machine) Steps() uint64 { return m.steps }

// InFinal reports whether the machine reached a final state.
func (m *Machine) InFinal() bool { return m.spec.IsFinal(m.state) }

// Reset returns the machine to its pristine configuration — initial
// control state, empty variable vector, zero step count — while
// keeping the allocated map and emit-buffer capacity. Monitor pooling
// (internal/ids) recycles machines through this instead of
// re-instantiating the spec per call.
func (m *Machine) Reset() {
	m.state = m.spec.Initial
	clear(m.vars)
	m.ctx.emits = m.ctx.emits[:0]
	m.ctx.Event = Event{}
	m.steps = 0
}

// InAttack reports whether the machine sits in an attack state.
func (m *Machine) InAttack() bool { return m.spec.IsAttack(m.state) }

// StepResult describes one transition. Emitted aliases the machine's
// reusable emit buffer: it is valid only until that machine's next
// Step, so retainers must copy it (System.Deliver copies into its
// FIFO queue immediately).
type StepResult struct {
	Machine       string
	From, To      State
	Event         string
	Label         string
	EnteredAttack bool
	EnteredFinal  bool
	Emitted       []SyncMsg
}

// Step feeds one event to the machine. On success it returns the
// transition taken plus any emitted sync messages; ErrNoTransition
// signals a specification deviation, ErrNondeterministic a broken
// spec.
//
//vids:noalloc interpreted EFSM step — the reference backend's hot path, dispatched by core.System
func (m *Machine) Step(e Event) (StepResult, error) {
	byEvent := m.spec.transitions[m.state]
	candidates := byEvent[e.Name]
	if len(candidates) == 0 {
		return StepResult{Machine: m.name, From: m.state, Event: e.Name}, ErrNoTransition
	}

	ctx := &m.ctx
	ctx.Event = e
	ctx.Vars = m.vars
	ctx.Globals = m.globals
	// Reuse the machine's emit buffer: the returned StepResult aliases
	// it, so Emitted is valid only until this machine's next Step. The
	// System copies emissions into its FIFO queue immediately, which is
	// the only consumer that outlives a step.
	ctx.emits = ctx.emits[:0]
	var chosen *Transition
	var fallback *Transition
	enabled := 0
	for i := range candidates {
		t := &candidates[i]
		if t.Guard == nil {
			fallback = t
			continue
		}
		if t.Guard(ctx) { //vids:alloc-ok guards are pure by the vidslint purity gate; pure predicates do not allocate
			enabled++
			chosen = t
		}
	}
	if enabled > 1 {
		return StepResult{Machine: m.name, From: m.state, Event: e.Name}, ErrNondeterministic
	}
	if chosen == nil {
		chosen = fallback
	}
	if chosen == nil {
		return StepResult{Machine: m.name, From: m.state, Event: e.Name}, ErrNoTransition
	}

	if chosen.Do != nil {
		chosen.Do(ctx) //vids:alloc-ok transition actions mutate pre-allocated Vars; specs keep them scratch-based
	}
	from := m.state
	m.state = chosen.To
	m.steps++
	return StepResult{
		Machine: m.name,
		From:    from,
		To:      chosen.To,
		Event:   e.Name,
		Label:   chosen.Label,
		// "Entered" means a genuine state change into the flagged
		// state: absorbing self-loops inside an attack state do not
		// re-trigger.
		EnteredAttack: m.spec.IsAttack(chosen.To) && from != chosen.To,
		EnteredFinal:  m.spec.IsFinal(chosen.To) && from != chosen.To,
		Emitted:       ctx.emits,
	}, nil
}
