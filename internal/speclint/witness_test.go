package speclint

import (
	"errors"
	"strings"
	"testing"

	"vids/internal/core"
)

// --- Witness reproduction: every product finding must replay --------------

func TestDeadlockWitnessReplays(t *testing.T) {
	// Same fixture as TestProductDeadlock: after "go", machine a waits
	// forever for a δ nobody sends while b accepts nothing.
	a := core.NewSpec("a", "S0")
	a.On("S0", "go", nil, nil, "S1")
	a.On("S1", "delta.x", nil, nil, "S2")
	a.Final("S2")
	b := core.NewSpec("b", "T0")
	specs := []*core.Spec{a, b}
	opts := DefaultOptions()

	fs := findingsFor(LintSystem(specs, opts), CheckDeadlock)
	if len(fs) != 1 {
		t.Fatalf("deadlock findings: %v", fs)
	}
	w := fs[0].Witness
	if len(w) == 0 {
		t.Fatalf("deadlock finding has no witness: %v", fs[0])
	}

	sys, err := ReplayWitness(specs, w, opts)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	ma, _ := sys.Find("a")
	mb, _ := sys.Find("b")
	if ma.State() != "S1" || mb.State() != "T0" {
		t.Fatalf("replay ended in (a=%s, b=%s), want the deadlocked (a=S1, b=T0)", ma.State(), mb.State())
	}
	// The deadlock reproduced: empty queue, not every machine terminal.
	if sys.PendingSync() != 0 {
		t.Fatalf("replay left %d pending sync messages", sys.PendingSync())
	}
	if ma.InFinal() || ma.InAttack() {
		t.Fatalf("machine a terminal after replay: the configuration would be legitimate")
	}
}

func TestUnreachableAttackWitnessReplays(t *testing.T) {
	// Same fixture as TestProductUnreachableAttack. The witness is the
	// machine-local half of the contradiction: forcing the δ input
	// drives a into ATTACK, which the product proves no peer triggers.
	a := core.NewSpec("a", "S0")
	a.On("S0", "a.data", nil, nil, "S0")
	a.On("S0", "delta.go", nil, nil, "ATTACK")
	a.On("ATTACK", "a.data", nil, nil, "ATTACK")
	a.Final("S0")
	a.Attack("ATTACK")
	specs := []*core.Spec{a, loopSpec("b")}
	opts := DefaultOptions()

	fs := findingsFor(LintSystem(specs, opts), CheckProductAttack)
	if len(fs) != 1 {
		t.Fatalf("product-attack findings: %v", fs)
	}
	w := fs[0].Witness
	if len(w) == 0 {
		t.Fatalf("product-attack finding has no witness: %v", fs[0])
	}

	sys, err := ReplayWitness(specs, w, opts)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	ma, _ := sys.Find("a")
	if ma.State() != "ATTACK" || !ma.InAttack() {
		t.Fatalf("replay ended with a=%s, want ATTACK", ma.State())
	}
}

func TestQueueBoundWitnessReplaysOnInput(t *testing.T) {
	// One data event floods the δ channel past the bound: the
	// external-input branch of the exploration must flag it.
	a := core.NewSpec("a", "S0")
	a.On("S0", "go", nil, func(c *core.Ctx) {
		for i := 0; i < 3; i++ {
			c.Emit("b", core.Event{Name: "delta.x"})
		}
	}, "S0")
	a.Final("S0")
	b := core.NewSpec("b", "T0")
	b.On("T0", "delta.x", nil, nil, "T0")
	b.Final("T0")
	specs := []*core.Spec{a, b}
	opts := DefaultOptions()
	opts.MaxQueue = 2

	fs := findingsFor(LintSystem(specs, opts), CheckQueueBound)
	if len(fs) != 1 {
		t.Fatalf("queue-bound findings: %v", fs)
	}
	if !strings.Contains(fs[0].Detail, "bound 2") {
		t.Fatalf("finding does not name the bound: %v", fs[0])
	}
	w := fs[0].Witness
	if len(w) == 0 {
		t.Fatalf("queue-bound finding has no witness: %v", fs[0])
	}

	sys, err := ReplayWitness(specs, w, opts)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if got := sys.MaxPendingSync(); got <= opts.MaxQueue {
		t.Fatalf("replay high-water mark %d does not exceed the bound %d", got, opts.MaxQueue)
	}
}

func TestQueueBoundWitnessReplaysOnSyncCascade(t *testing.T) {
	// The overflow only materializes while draining: a's input emits
	// two δs, and consuming the first makes b emit two more behind the
	// one still queued.
	a := core.NewSpec("a", "S0")
	a.On("S0", "go", nil, func(c *core.Ctx) {
		c.Emit("b", core.Event{Name: "delta.x"})
		c.Emit("b", core.Event{Name: "delta.x"})
	}, "S0")
	a.On("S0", "delta.y", nil, nil, "S0")
	a.Final("S0")
	b := core.NewSpec("b", "T0")
	b.On("T0", "delta.x", nil, func(c *core.Ctx) {
		c.Emit("a", core.Event{Name: "delta.y"})
		c.Emit("a", core.Event{Name: "delta.y"})
	}, "T0")
	b.Final("T0")
	specs := []*core.Spec{a, b}
	opts := DefaultOptions()
	opts.MaxQueue = 2

	fs := findingsFor(LintSystem(specs, opts), CheckQueueBound)
	if len(fs) == 0 {
		t.Fatalf("cascade overflow not flagged: %v", LintSystem(specs, opts))
	}
	w := fs[0].Witness
	if len(w) == 0 {
		t.Fatalf("queue-bound finding has no witness: %v", fs[0])
	}
	if !w[len(w)-1].Sync {
		t.Fatalf("cascade witness should end on a sync delivery: %v", w)
	}

	sys, err := ReplayWitness(specs, w, opts)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if got := sys.MaxPendingSync(); got <= opts.MaxQueue {
		t.Fatalf("replay high-water mark %d does not exceed the bound %d", got, opts.MaxQueue)
	}
}

func TestAmbiguousTransitionWitnessReplays(t *testing.T) {
	// Two guards on (S1, "e") overlap at x=1: Section 4.1's mutual
	// disjointness is violated and Step must refuse at run time.
	a := core.NewSpec("a", "S0")
	a.On("S0", "go", nil, nil, "S1")
	a.On("S1", "e", func(c *core.Ctx) bool { return c.Event.IntArg("x") > 0 }, nil, "S2")
	a.On("S1", "e", func(c *core.Ctx) bool { return c.Event.IntArg("x") < 10 }, nil, "S3")
	a.Final("S2", "S3")
	specs := []*core.Spec{a, loopSpec("b")}
	opts := DefaultOptions()
	opts.Probes = []map[string]any{{"x": 1}}

	fs := findingsFor(LintSystem(specs, opts), CheckAmbiguous)
	if len(fs) != 1 {
		t.Fatalf("ambiguity findings: %v", LintSystem(specs, opts))
	}
	if !strings.Contains(fs[0].Detail, "S2") || !strings.Contains(fs[0].Detail, "S3") {
		t.Fatalf("finding does not name the competing targets: %v", fs[0])
	}
	w := fs[0].Witness
	if len(w) < 2 {
		t.Fatalf("ambiguity witness should include the path to S1 plus the trigger: %v", w)
	}

	_, err := ReplayWitness(specs, w, opts)
	if !errors.Is(err, core.ErrNondeterministic) {
		t.Fatalf("replay error = %v, want ErrNondeterministic", err)
	}
}

func TestDisjointGuardsAreNotAmbiguous(t *testing.T) {
	a := core.NewSpec("a", "S0")
	a.On("S0", "e", func(c *core.Ctx) bool { return c.Event.IntArg("x") > 0 }, nil, "S1")
	a.On("S0", "e", func(c *core.Ctx) bool { return c.Event.IntArg("x") <= 0 }, nil, "S2")
	a.Final("S1", "S2")
	opts := DefaultOptions()
	opts.Probes = []map[string]any{{"x": 1}, {"x": -1}}

	fs := findingsFor(LintSystem([]*core.Spec{a, loopSpec("b")}, opts), CheckAmbiguous)
	if len(fs) != 0 {
		t.Fatalf("disjoint guards flagged as ambiguous: %v", fs)
	}
}

// --- runRecording / guardHolds edge cases ---------------------------------

func TestRunRecordingPanickingAction(t *testing.T) {
	tr := core.Transition{Event: "e", Do: func(c *core.Ctx) {
		c.Emit("b", core.Event{Name: "delta.before-panic"})
		panic("action exploded")
	}}
	if msgs := runRecording(tr, map[string]any{"x": 1}, nil); msgs != nil {
		t.Fatalf("panicking action leaked emissions: %v", msgs)
	}
}

func TestRunRecordingUndeclaredGlobalsReadAsZero(t *testing.T) {
	// Probing runs against scratch stores: a global the options never
	// declared reads back as its zero value, and the action branch
	// gated on it behaves accordingly instead of crashing.
	tr := core.Transition{Event: "e", Do: func(c *core.Ctx) {
		if c.Globals.GetString("g.undeclared") == "" && c.Globals.GetInt("g.also-missing") == 0 {
			c.Emit("b", core.Event{Name: "delta.zero"})
		}
	}}
	msgs := runRecording(tr, nil, nil)
	if len(msgs) != 1 || msgs[0].Event.Name != "delta.zero" {
		t.Fatalf("undeclared-global read did not take the zero branch: %v", msgs)
	}
}

func TestGuardHoldsPanickingGuard(t *testing.T) {
	tr := core.Transition{Event: "e", Guard: func(c *core.Ctx) bool {
		var m map[string]int
		m["boom"] = 1 // nil-map write panics
		return true
	}}
	if guardHolds(tr, nil, nil) {
		t.Fatal("panicking guard counted as satisfied")
	}
}

func TestGuardHoldsNilGuardAndProbeArgs(t *testing.T) {
	if !guardHolds(core.Transition{Event: "e"}, nil, nil) {
		t.Fatal("nil guard must always hold")
	}
	tr := core.Transition{Event: "e", Guard: func(c *core.Ctx) bool {
		return c.Event.StringArg("who") == "caller" && c.Globals.GetString("g.who") == "callee"
	}}
	if guardHolds(tr, map[string]any{"who": "caller"}, nil) {
		t.Fatal("guard held without the global it requires")
	}
	if !guardHolds(tr, map[string]any{"who": "caller"}, map[string]any{"g.who": "callee"}) {
		t.Fatal("guard rejected a satisfying probe")
	}
}

func TestDiscoverEmissionsPerProbeAlternatives(t *testing.T) {
	// The action takes a different branch per probe; discovery must
	// record each distinct emission sequence as its own alternative,
	// remembering the probe that produced it.
	a := core.NewSpec("a", "S0")
	a.On("S0", "go", nil, func(c *core.Ctx) {
		if c.Event.StringArg("sdpAddr") != "" {
			c.Emit("b", core.Event{Name: "delta.open"})
			c.Emit("b", core.Event{Name: "delta.open"})
		} else {
			c.Emit("b", core.Event{Name: "delta.plain"})
		}
	}, "S0")
	a.Final("S0")
	opts := DefaultOptions()

	em := discoverEmissions([]*core.Spec{a}, opts)
	ts := a.Transitions()
	if len(ts) != 1 {
		t.Fatalf("transitions = %d", len(ts))
	}
	alts := em.alts["a"][0]
	if len(alts) != 2 {
		t.Fatalf("alternatives = %d, want 2 (one per branch): %+v", len(alts), alts)
	}
	kinds := map[string]map[string]any{} // first emitted event -> producing probe
	for _, alt := range alts {
		if len(alt.msgs) == 0 {
			t.Fatalf("empty alternative recorded: %+v", alts)
		}
		kinds[alt.msgs[0].name] = alt.probe
	}
	if p := kinds["delta.plain"]; len(p) != 0 {
		t.Fatalf("plain branch should come from the all-zero probe, got %v", p)
	}
	if p := kinds["delta.open"]; p["sdpAddr"] == "" || p["sdpAddr"] == nil {
		t.Fatalf("open branch probe lacks sdpAddr: %v", p)
	}
}

func TestLocalWitnessChoosesSatisfiableEdges(t *testing.T) {
	// Two routes to DONE: a guarded edge no probe satisfies and a
	// longer unguarded detour. The witness must prefer the replayable
	// detour.
	s := core.NewSpec("a", "S0")
	s.On("S0", "shortcut", func(c *core.Ctx) bool { return c.Event.IntArg("x") == 424242 }, nil, "DONE")
	s.On("S0", "hop", nil, nil, "MID")
	s.On("MID", "hop", nil, nil, "DONE")
	s.Final("DONE")
	opts := DefaultOptions()

	w := localWitness(s, "DONE", opts)
	if len(w) != 2 || w[0].Event != "hop" || w[1].Event != "hop" {
		t.Fatalf("witness took an unsatisfiable edge: %v", w)
	}
	sys, err := ReplayWitness([]*core.Spec{s}, w, opts)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	m, _ := sys.Find("a")
	if m.State() != "DONE" {
		t.Fatalf("replay ended in %s, want DONE", m.State())
	}
}
