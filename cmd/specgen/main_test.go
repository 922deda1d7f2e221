package main

import (
	"strings"
	"testing"

	"vids/internal/core"
	"vids/internal/ids"
)

// The committed generated files must be what the generator emits from
// the committed specifications, and internal/idsgen must hold nothing
// handwritten beyond its three runtime files: `specgen -check`, as a
// tier-1 test.
func TestCommittedOutputIsCurrent(t *testing.T) {
	if err := run("../../internal/idsgen", true); err != nil {
		t.Fatal(err)
	}
}

// Twins are found by structure, not by name: the six detector specs
// fall into four families, and the two media directions and the two
// flood counters each share one.
func TestFamiliesAreInferredFromStructure(t *testing.T) {
	p, err := analyze(ids.Specs(ids.DefaultConfig()), "SysGlobals")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range p.Families {
		var members []string
		for _, m := range f.Members {
			members = append(members, m.spec.Name)
		}
		got = append(got, f.Name+"="+strings.Join(members, "+"))
	}
	want := "SIP=sip RTP=rtp-caller+rtp-callee Flood=invite-flood+response-flood Spam=rtp-spam"
	if strings.Join(got, " ") != want {
		t.Fatalf("families %q, want %q", strings.Join(got, " "), want)
	}
}

func counter(name, family string, limit int) *core.Spec {
	n := core.Local("l.n", core.KindInt)
	s := core.NewSpec(name, "A")
	s.Family = family
	s.When("A", "tick", core.Lt(n, core.Param("Limit", core.IntVal(limit))), core.Do(core.Set(n, core.Add(n, core.Lit(1)))), "A")
	s.When("A", "tick", core.Ge(n, core.Param("Limit", core.IntVal(limit))), nil, "B")
	s.Final("B")
	return s
}

// What the generator must refuse rather than guess at.
func TestAnalyzeRejects(t *testing.T) {
	closure := core.NewSpec("by-hand", "A")
	closure.On("A", "e", func(*core.Ctx) bool { return true }, nil, "A")
	other := counter("c", "Counter", 3)
	other.When("B", "tick", nil, nil, "B")
	badVar := core.NewSpec("bad-var", "A")
	badVar.When("A", "e", nil, core.Do(core.Set(core.Local("count", core.KindInt), core.Lit(1))), "A")

	for _, tc := range []struct {
		name  string
		specs []*core.Spec
		want  string
	}{
		{"closure-authored transition", []*core.Spec{closure}, "authored as a closure"},
		{"one name, two shapes", []*core.Spec{counter("a", "Counter", 3), other}, "differ structurally"},
		{"variable that cannot be a field", []*core.Spec{badVar}, "cannot be a struct field"},
	} {
		if _, err := analyze(tc.specs, "g"); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
	// Same shape, same name, different parameter values: one family.
	p, err := analyze([]*core.Spec{counter("a", "Counter", 3), counter("b", "Counter", 5)}, "g")
	if err != nil || len(p.Families) != 1 || len(p.Families[0].Members) != 2 {
		t.Errorf("twins with different limits: families %+v, err %v", p, err)
	}
}
