package core

import (
	"errors"
	"testing"
	"testing/quick"
)

// pingSpec emits a δ to "pong" when it sees "data"; pongSpec moves on
// that δ. Mirrors the INVITE → δ(SIP→RTP) → RTP Open flow of
// Figure 2(a).
func pingSpec() *Spec {
	s := NewSpec("ping", "INIT")
	s.On("INIT", "data", nil, func(c *Ctx) {
		c.Globals.SetString("g.media", c.Event.StringArg("media"))
		c.Emit("pong", Event{Name: "delta"})
	}, "SENT")
	s.Final("SENT")
	return s
}

func pongSpec() *Spec {
	s := NewSpec("pong", "INIT")
	s.On("INIT", "delta", nil, func(c *Ctx) {
		c.Vars.SetString("l.media", c.Globals.GetString("g.media"))
	}, "OPEN")
	s.On("OPEN", "rtp", nil, nil, "OPEN")
	s.Final("OPEN")
	return s
}

func newPingPong(t *testing.T) *System {
	t.Helper()
	sys := NewSystem()
	if _, err := sys.Add(pingSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Add(pongSpec()); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestSyncMessageCrossesMachines(t *testing.T) {
	sys := newPingPong(t)
	results, err := sys.Deliver("ping", Event{
		Name: "data", Args: map[string]any{"media": "host:4000"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two transitions: ping INIT->SENT, then pong INIT->OPEN via δ.
	if len(results) != 2 {
		t.Fatalf("results = %+v", results)
	}
	if results[0].Machine != "ping" || results[1].Machine != "pong" {
		t.Fatalf("order = %v, %v", results[0].Machine, results[1].Machine)
	}
	pong, _ := sys.Find("pong")
	if pong.State() != "OPEN" {
		t.Fatalf("pong state = %q", pong.State())
	}
	// The global written by ping's action must be visible to pong.
	if pong.Vars().GetString("l.media") != "host:4000" {
		t.Fatalf("pong media = %q", pong.Vars()["l.media"])
	}
	if sys.PendingSync() != 0 {
		t.Fatalf("pending sync = %d", sys.PendingSync())
	}
}

func TestSyncHasPriorityOverData(t *testing.T) {
	// Construct: machine A that emits sync on "d1"; machine B that
	// only accepts "rtp" AFTER the sync arrived. Delivering d1 to A
	// and then rtp to B must succeed because the δ is drained before
	// the rtp data event (paper Section 4.2 priority rule).
	sys := newPingPong(t)
	if _, err := sys.Deliver("ping", Event{Name: "data"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Deliver("pong", Event{Name: "rtp"}); err != nil {
		t.Fatalf("rtp after sync: %v", err)
	}
}

func TestDataDeviationReported(t *testing.T) {
	sys := newPingPong(t)
	// rtp before the δ opened pong: deviation.
	_, err := sys.Deliver("pong", Event{Name: "rtp"})
	if !errors.Is(err, ErrNoTransition) {
		t.Fatalf("err = %v, want ErrNoTransition", err)
	}
}

func TestSyncNoTransitionTolerated(t *testing.T) {
	// A second "data" would be a deviation for ping (already final),
	// but a stray δ to pong in OPEN is tolerated by drain.
	sys := newPingPong(t)
	if _, err := sys.Deliver("ping", Event{Name: "data"}); err != nil {
		t.Fatal(err)
	}
	// Inject a sync event pong does not accept in OPEN.
	results, err := sys.DeliverSync("pong", Event{Name: "delta-unknown"})
	if err != nil {
		t.Fatalf("stray sync must be tolerated: %v", err)
	}
	if len(results) != 0 {
		t.Fatalf("results = %+v", results)
	}
}

func TestDeliverSyncTimerEvent(t *testing.T) {
	s := NewSpec("timer", "WAIT")
	s.On("WAIT", "timer.T", nil, nil, "CLOSED")
	s.Final("CLOSED")
	sys := NewSystem()
	m, err := sys.Add(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.DeliverSync("timer", Event{Name: "timer.T"}); err != nil {
		t.Fatal(err)
	}
	if m.State() != "CLOSED" {
		t.Fatalf("state = %q", m.State())
	}
}

func TestDeliverUnknownMachine(t *testing.T) {
	sys := NewSystem()
	if _, err := sys.Deliver("ghost", Event{Name: "x"}); err != ErrUnknownMachine {
		t.Fatalf("unknown machine: err = %v", err)
	}
	if _, err := sys.DeliverSync("ghost", Event{Name: "x"}); err != ErrUnknownMachine {
		t.Fatalf("unknown machine for sync: err = %v", err)
	}
}

func TestDuplicateMachineRejected(t *testing.T) {
	sys := NewSystem()
	if _, err := sys.Add(pingSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Add(pingSpec()); err == nil {
		t.Fatal("duplicate machine accepted")
	}
}

func TestEmitToUnknownMachineIgnored(t *testing.T) {
	s := NewSpec("lonely", "A")
	s.On("A", "go", nil, func(c *Ctx) {
		c.Emit("nobody", Event{Name: "x"})
	}, "B")
	sys := NewSystem()
	if _, err := sys.Add(s); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Deliver("lonely", Event{Name: "go"}); err != nil {
		t.Fatalf("emit to absent machine must not fail: %v", err)
	}
}

// storeOf is a Store that is not a Vars map, as a compiled store is
// not: it counts the resets the System asks of it.
type storeOf struct {
	v      Vars
	resets int
}

func (s *storeOf) Reset()     { s.resets++; clear(s.v) }
func (s *storeOf) Vars() Vars { return s.v }

func TestComposeRunsMembersOverForeignStore(t *testing.T) {
	g := &storeOf{v: make(Vars)}
	sys := Compose(g, NewMachine(pingSpec(), g.v), NewMachine(pongSpec(), g.v))
	if _, err := sys.Deliver("ping", Event{Name: "data", Args: map[string]any{"media": "h:1"}}); err != nil {
		t.Fatal(err)
	}
	pong, _ := sys.Find("pong")
	if pong.State() != "OPEN" || pong.Vars().GetString("l.media") != "h:1" || sys.Globals().GetString("g.media") != "h:1" {
		t.Fatalf("pong %s, l.media %q, globals %v", pong.State(), pong.Vars().GetString("l.media"), sys.Globals())
	}
	sys.Reset()
	if g.resets != 1 || len(sys.Globals()) != 0 || pong.State() != "INIT" {
		t.Fatalf("after Reset: %d store resets, globals %v, pong %s", g.resets, sys.Globals(), pong.State())
	}
	if _, err := sys.Add(pingSpec()); err == nil {
		t.Fatal("Add accepted an interpreted machine over a foreign store")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Compose accepted two members named ping")
		}
	}()
	Compose(g, NewMachine(pingSpec(), g.v), NewMachine(pingSpec(), g.v))
}

func TestSystemFlags(t *testing.T) {
	sys := newPingPong(t)
	if sys.InAttack() {
		t.Fatal("fresh system in attack")
	}
	if sys.AllFinal() {
		t.Fatal("fresh system all-final")
	}
	if _, err := sys.Deliver("ping", Event{Name: "data"}); err != nil {
		t.Fatal(err)
	}
	if !sys.AllFinal() {
		t.Fatal("both machines final, AllFinal false")
	}
	if (&System{}).AllFinal() {
		t.Fatal("empty system must not be all-final")
	}
}

func TestMachinesOrder(t *testing.T) {
	sys := newPingPong(t)
	ms := sys.Machines()
	if len(ms) != 2 || ms[0].Name() != "ping" || ms[1].Name() != "pong" {
		t.Fatalf("machines = %v", ms)
	}
}

func TestMemoryFootprintGrowsWithVars(t *testing.T) {
	sys := newPingPong(t)
	base := sys.MemoryFootprint()
	if base <= 0 {
		t.Fatalf("footprint = %d", base)
	}
	if _, err := sys.Deliver("ping", Event{
		Name: "data", Args: map[string]any{"media": "some.host.example.com:49172"},
	}); err != nil {
		t.Fatal(err)
	}
	after := sys.MemoryFootprint()
	if after <= base {
		t.Fatalf("footprint did not grow: %d -> %d", base, after)
	}
	// Per-call state should be tiny — the paper budgets ~500 bytes
	// per monitored call.
	if after > 2048 {
		t.Fatalf("footprint = %d bytes, implausibly large", after)
	}
}

func TestVarsFootprintTypes(t *testing.T) {
	v := Vars{
		"str": StringVal("abcd"), "int": IntVal(1), "u32": Uint32Val(1),
		"f": Float64Val(1.5), "b": BoolVal(true),
		"other": AnyVal(struct{ X int }{1}),
	}
	got := varsFootprint(v)
	// 3+4 + 3+8 + 3+8 + 1+8 + 1+1 + 5+16 = 61
	if got != 61 {
		t.Fatalf("footprint = %d, want 61", got)
	}
}

// Property: delivering N data events to ping-pong systems never
// leaves sync messages queued (the drain always runs to exhaustion).
func TestDrainExhaustionProperty(t *testing.T) {
	prop := func(n uint8) bool {
		sys := NewSystem()
		if _, err := sys.Add(pingSpec()); err != nil {
			return false
		}
		if _, err := sys.Add(pongSpec()); err != nil {
			return false
		}
		if _, err := sys.Deliver("ping", Event{Name: "data"}); err != nil {
			return false
		}
		for i := 0; i < int(n%32); i++ {
			if _, err := sys.Deliver("pong", Event{Name: "rtp"}); err != nil {
				return false
			}
		}
		return sys.PendingSync() == 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
