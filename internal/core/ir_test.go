package core

import (
	"testing"
	"time"
)

// The evaluator against expectations written by hand: the compiled
// backend is held to the evaluator elsewhere (internal/idsgen), so this
// is where the evaluator itself answers to the IR's stated meaning.
func TestIREvaluator(t *testing.T) {
	vec := NewVector("T")
	n, u, s := vec.Arg("n", KindInt), vec.Arg("u", KindUint32), vec.Arg("s", KindString)
	count, name, flag := Local("l.count", KindInt), Local("l.name", KindString), Local("l.flag", KindBool)
	seq, ts := Local("l.seq", KindUint32), Local("l.ts", KindUint32)
	shared := Global("g.shared", KindString)
	limit := Param("Limit", IntVal(3))

	c := &Ctx{
		Event:   Event{Name: "e", Args: map[string]any{"n": -1, "u": uint32(1<<32 - 1), "s": "abc"}},
		Vars:    Vars{},
		Globals: Vars{},
	}
	for _, tc := range []struct {
		name string
		x    *Expr
		want bool
	}{
		{"absent variable reads zero", Eq(count, Lit(0)), true},
		{"int vs uint32 widen, not wrap", Lt(n, u), true},
		{"negative int is not a huge uint32", Eq(n, u), false},
		{"string compare", And(Eq(s, Lit("abc")), Ne(s, name)), true},
		{"and short-circuits to false", And(Lit(false), Eq(s, Lit("abc"))), false},
		{"or of nothing true", Or(flag, Gt(n, Lit(0))), false},
		{"param", Lt(Add(count, Lit(2)), limit), true},
		{"uint32 arithmetic wraps", Eq(Add(u, Lit(2)), Lit(uint32(1))), true},
		{"seq 65535 precedes 0 across the wrap", SeqLess(Lit(65535), Lit(0)), true},
		{"window: inside both gaps", WindowOK(Lit(10), Lit(12), Lit(uint32(100)), Lit(uint32(260)), Lit(2), Lit(uint32(160))), true},
		{"window: one past the seq gap", WindowOK(Lit(10), Lit(13), Lit(uint32(100)), Lit(uint32(260)), Lit(2), Lit(uint32(160))), false},
	} {
		if got := tc.x.evalBool(c); got != tc.want {
			t.Errorf("%s: %v, want %v", tc.name, got, tc.want)
		}
	}

	Do(
		Set(count, Add(count, Lit(1))),
		Set(seq, n), // int -1 stored into a uint32 converts like Go does
		Set(ts, Lit(uint32(7))),
		Set(shared, s),
		If(Lt(count, limit), Set(flag, Lit(true))).OrElse(Set(name, Lit("unreached"))),
		WindowAdvance(seq, ts, Lit(3), Lit(uint32(9))), // 65535 -> 3 is ahead across the wrap
		Emit("peer", Event{Name: "delta.x"}),
		Delete(count),
	).exec(c)
	if _, present := c.Vars["l.count"]; present {
		t.Error("Delete left l.count in the vector")
	}
	if got := c.Vars.GetUint32("l.seq"); got != 3 {
		t.Errorf("l.seq = %d, want 3 (advanced past the wrap)", got)
	}
	if got := c.Vars.GetUint32("l.ts"); got != 9 {
		t.Errorf("l.ts = %d, want 9", got)
	}
	if !c.Vars.GetBool("l.flag") || c.Vars.GetString("l.name") != "" || c.Globals.GetString("g.shared") != "abc" {
		t.Errorf("after If/Set: vars %v globals %v", c.Vars, c.Globals)
	}
	if em := c.Emitted(); len(em) != 1 || em[0].Target != "peer" || em[0].Event.Name != "delta.x" {
		t.Errorf("emitted %v", em)
	}
}

// A specification that mixes kinds the IR cannot give a meaning to
// must fail where it is written, not in generated code.
func TestIRConstructorsRejectIllTypedNodes(t *testing.T) {
	str, num, flag := Local("l.s", KindString), Local("l.n", KindInt), Local("l.b", KindBool)
	for name, build := range map[string]func(){
		"string < string":        func() { Lt(str, str) },
		"string == int":          func() { Eq(str, num) },
		"and of an int":          func() { And(flag, num) },
		"add of a string":        func() { Add(num, str) },
		"set string from int":    func() { Set(str, num) },
		"set a constant":         func() { Set(Lit(1), num) },
		"delete a global":        func() { Delete(Global("g.x", KindInt)) },
		"if on an int":           func() { If(num) },
		"else without if":        func() { Set(num, num).OrElse() },
		"bool field of a vector": func() { NewVector("V").Arg("b", KindBool) },
		"float constant":         func() { Lit(1.5) },
		"window over a string":   func() { SeqLess(str, num) },
		"non-boolean guard":      func() { NewSpec("m", "A").When("A", "e", num, nil, "A") },
		"duration vs bool":       func() { Eq(Lit(time.Second), flag) },
		"advance a non-variable": func() { WindowAdvance(Lit(1), num, num, num) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: constructor accepted it", name)
				}
			}()
			build()
		}()
	}
}

// When keeps the IR on the transition and lowers it to closures that
// Machine.Step runs like any hand-written ones.
func TestWhenLowersToClosures(t *testing.T) {
	n := Local("l.n", KindInt)
	s := NewSpec("m", "A")
	s.WhenLabeled("tick", "A", "e", Lt(n, Lit(2)), Do(Set(n, Add(n, Lit(1)))), "A")
	s.When("A", "e", Ge(n, Lit(2)), nil, "B")
	s.Final("B")
	tr := s.Transitions()
	if len(tr) != 2 || tr[0].Pred == nil || tr[0].Act == nil || tr[0].Guard == nil || tr[0].Do == nil || tr[1].Act != nil || tr[1].Do != nil {
		t.Fatalf("transitions %+v", tr)
	}
	m := NewMachine(s, nil)
	for i := 0; i < 3; i++ {
		if _, err := m.Step(Event{Name: "e"}); err != nil {
			t.Fatal(err)
		}
	}
	if m.State() != "B" || m.Vars().GetInt("l.n") != 2 {
		t.Fatalf("state %s, l.n %d", m.State(), m.Vars().GetInt("l.n"))
	}
}
