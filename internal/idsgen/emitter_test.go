package idsgen

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"vids/internal/core"
	"vids/internal/core/irtest"
)

// probePair is the irtest fixture machine twice: the interpreted form
// (core's evaluator over the IR) and the form cmd/specgen compiled from
// the same IR into probe_gen_test.go.
type probePair struct {
	interp   *core.Machine
	globals  core.Vars
	compiled *ProbeMachine
	g        *probeGlobals
}

func newProbePair() *probePair {
	p := &probePair{globals: make(core.Vars), g: &probeGlobals{}}
	p.interp = core.NewMachine(irtest.Specs()[0], p.globals)
	p.compiled = &ProbeMachine{
		machBase: newBase(&tblIrProbe), g: p.g,
		p: probeParams{Str: irtest.PStr, Int: irtest.PInt, U32: irtest.PU32, Bool: irtest.PBool, Dur: irtest.PDur},
	}
	return p
}

// step feeds e to both forms and reports the first observable
// difference: result, error, state, and the local and global vectors.
func (p *probePair) step(e core.Event) error {
	ri, ei := p.interp.Step(e)
	rc, ec := p.compiled.Step(e)
	if ei != ec { // Step returns its two sentinel errors bare
		return fmt.Errorf("error: interpreted %v, compiled %v", ei, ec)
	}
	if len(ri.Emitted) == 0 {
		ri.Emitted = nil // the interpreter returns its empty reused buffer
	}
	if !reflect.DeepEqual(ri, rc) {
		return fmt.Errorf("result: interpreted %+v, compiled %+v", ri, rc)
	}
	if p.interp.State() != p.compiled.State() {
		return fmt.Errorf("state: interpreted %s, compiled %s", p.interp.State(), p.compiled.State())
	}
	if iv, cv := p.interp.Vars(), p.compiled.Vars(); !reflect.DeepEqual(iv, cv) {
		return fmt.Errorf("vars: interpreted %v, compiled %v", iv, cv)
	}
	if cg := p.g.vars(); !reflect.DeepEqual(p.globals, cg) {
		return fmt.Errorf("globals: interpreted %v, compiled %v", p.globals, cg)
	}
	return nil
}

// TestEmitterMatchesEvaluator holds every IR primitive's emitter case
// to its evaluator case: the fixture answers one event per primitive,
// and each row drives that event with inputs on both sides of the
// primitive's boundary after seeding the variables it reads. Every
// input goes in twice — as the typed vector and as an Args map — so the
// generated field accessors' fallback is covered too.
func TestEmitterMatchesEvaluator(t *testing.T) {
	type in = ProbeArgs
	const wrap = 1 << 16
	seed := in{S: "north", T: "t", I: 7, J: 9, U: 9, W: 65530, D: irtest.PDur}
	rows := []struct {
		event  string
		inputs []in
	}{
		{"eq.str", []in{{S: "a", T: "a"}, {S: "a", T: "b"}, {}}},
		{"eq.int", []in{{I: 1, J: 1}, {I: 1, J: 2}, {I: -1, J: -1}}},
		{"eq.mixed", []in{{I: 5, U: 5}, {I: -1, U: 1<<32 - 1}, {I: 1 << 32, U: 0}}},
		{"eq.bool", []in{{}}},
		{"ne.str", []in{{S: "x"}, {S: "y"}, {}}},
		{"ne.mixed", []in{{D: 5, I: 5}, {D: -5, I: 5}}},
		{"lt", []in{{I: 1, J: 2}, {I: 2, J: 2}, {I: 3, J: 2}, {I: -1 << 63, J: 1<<63 - 1}}},
		{"le", []in{{U: 1, W: 2}, {U: 2, W: 2}, {U: 3, W: 2}, {U: 1<<32 - 1, W: 0}}},
		{"gt", []in{{D: 2, X: 1}, {D: 1, X: 1}, {D: -1, X: 1}}},
		{"ge", []in{{I: 0}, {I: -1}, {I: 1}}},
		{"lt.mixed", []in{{I: -1, U: 0}, {I: 1<<32 - 1, U: 1<<32 - 1}, {I: 1 << 32, U: 1<<32 - 1}}},
		{"and", []in{{I: 1, J: 2, S: "a", T: "a"}, {I: 2, J: 2, S: "a", T: "a"}, {I: 1, J: 2, S: "a", T: "b"}}},
		{"or", []in{{I: 1, J: 2}, {I: 2, J: 2, S: "a", T: "b"}, {I: 2, J: 2}}},
		{"nest", []in{{I: 1, J: 2, S: "a", T: "a"}, {I: 2, J: 2, S: "a", T: "b"}, {I: 1, J: 2, S: "a", T: "b"}}},
		{"arith", []in{{D: 3 * irtest.PDur, X: irtest.PDur}, {D: 2*irtest.PDur + 1, X: 0}, {D: 2 * irtest.PDur, X: 0}}},
		{"seqless", []in{{I: 65531}, {I: 65530}, {I: 65529}, {I: 2}, {I: 65530 + 1<<15}, {I: 65530 + 1<<15 - 1}, {I: wrap + 65531}}},
		{"windowok", []in{
			{I: 65531, U: 10}, {I: 65530 + irtest.PInt, U: 9 + irtest.PU32}, {I: 65530 + irtest.PInt + 1, U: 9},
			{I: 65530 + irtest.PInt - wrap, U: 9 + irtest.PU32 + 1}, {I: 1, U: 9}, {I: 65000, U: 0}, {I: 65530, U: 9},
		}},
		{"arg.map", []in{{S: "m", I: 3}, {S: "q", I: 3}, {S: "m", I: 4}}},
		{"local.str", []in{{S: "north"}, {S: "south"}}},
		{"local.int", []in{{I: 7}, {I: 8}}},
		{"local.u32", []in{{U: 9}, {U: 8}}},
		{"local.dur", []in{{D: irtest.PDur}, {D: irtest.PDur + 1}}},
		{"global.str", []in{{S: "t"}, {S: "u"}}},
		{"global.int", []in{{I: 9}, {I: 10}}},
		{"param.str", []in{{S: irtest.PStr}, {S: "south"}}},
		{"param.int", []in{{I: irtest.PInt}, {I: irtest.PInt + 1}}},
		{"param.u32", []in{{U: irtest.PU32}, {U: irtest.PU32 - 1}}},
		{"param.dur", []in{{D: irtest.PDur}, {D: irtest.PDur - 1}}},
		{"param.bool", []in{{}}},
		{"set", []in{{S: "a", T: "b", I: -3, J: 4, U: 1<<32 - 1, W: 65535, D: time.Hour}, {}}},
		{"set.conv", []in{{I: -1, U: 1<<32 - 1, J: 1 << 40, D: -time.Second}, {I: 1<<32 + 5, U: 7, J: -2, D: 3}}},
		{"set.lit", []in{{}}},
		{"set.arith", []in{{I: 1<<63 - 1, J: 1, U: 0, W: 1, D: -1 << 63, X: 1}, {I: -4, J: 9, U: 1<<32 - 1, W: 2, D: 5, X: 7}}},
		{"delete", []in{{I: 11}, {I: 0}}},
		{"emit", []in{{S: "kept"}}},
		{"if", []in{{I: 1, J: 2}, {I: 2, J: 2, S: "a", T: "a"}, {I: 2, J: 2, S: "a", T: "b"}}},
		{"window", []in{{I: 65531, U: 10, J: 3, W: 700}, {I: 65000, U: 1, J: 65529, W: 2}, {I: 65530 + 1<<15, U: 5, J: 65530, W: 6}}},
		{"trap", []in{{}}},
		{"halt", []in{{}}},
		{"unknown.event", []in{{}}},
	}
	events := make(map[string]bool)
	for _, row := range rows {
		events[row.event] = true
		for n, input := range row.inputs {
			for _, form := range []string{"typed", "map"} {
				p := newProbePair()
				prefix := []core.Event{probeEvent("set", seed, "typed")}
				if row.event == "delete" || row.event == "if" {
					prefix = append(prefix, probeEvent("set.lit", in{}, "typed"))
				}
				for _, e := range append(prefix, probeEvent(row.event, input, form)) {
					if err := p.step(e); err != nil {
						t.Errorf("%s input %d (%s form), on %s: %v", row.event, n, form, e.Name, err)
						break
					}
				}
			}
		}
	}
	// A primitive added to the fixture without a row here would go
	// unchecked: every event of the compiled table must be driven.
	for _, ev := range tblIrProbe.events {
		if !events[ev] {
			t.Errorf("fixture event %q has no table row", ev)
		}
	}
}

// probeEvent builds one fixture event carrying input either as the
// typed vector or as the equivalent Args map; the two map-only
// arguments ride in Args both ways.
func probeEvent(name string, input ProbeArgs, form string) core.Event {
	e := core.Event{Name: name, Args: map[string]any{"m": "m", "n": 3}}
	if form == "typed" {
		e.Typed = &input
		return e
	}
	for k, v := range map[string]any{
		"s": input.S, "t": input.T, "i": input.I, "j": input.J,
		"u": input.U, "w": input.W, "d": input.D, "x": input.X,
	} {
		e.Args[k] = v
	}
	return e
}

// TestProbeViewAndReset covers the generated shell around the bodies:
// the view accessors write through to Vars with their presence bits,
// and Reset returns both forms to the same pristine configuration.
func TestProbeViewAndReset(t *testing.T) {
	p := newProbePair()
	p.compiled.SetWindow(40000, 123456)
	p.interp.Vars().SetUint32("l.seq", 40000)
	p.interp.Vars().SetUint32("l.ts", 123456)
	if seq, ts := p.compiled.Window(); seq != 40000 || ts != 123456 {
		t.Fatalf("Window() = %d, %d after SetWindow(40000, 123456)", seq, ts)
	}
	if err := p.step(probeEvent("window", ProbeArgs{I: 40001, U: 123616}, "typed")); err != nil {
		t.Fatal(err)
	}
	if err := p.step(probeEvent("trap", ProbeArgs{}, "typed")); err != nil {
		t.Fatal(err)
	}
	if !p.compiled.InAttack() || p.compiled.Steps() != p.interp.Steps() {
		t.Fatalf("after trap: InAttack=%v, steps %d vs %d", p.compiled.InAttack(), p.compiled.Steps(), p.interp.Steps())
	}
	p.interp.Reset()
	clear(p.globals)
	p.compiled.Reset()
	p.g.reset()
	if err := p.step(probeEvent("set", ProbeArgs{S: "again"}, "map")); err != nil {
		t.Fatalf("after Reset: %v", err)
	}
	if p.compiled.varsFootprint() == 0 || p.g.footprint() == 0 {
		t.Fatal("footprint of a populated machine is zero")
	}
}
