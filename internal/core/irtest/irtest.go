// Package irtest holds a specification that is not part of the
// detector: one machine with a transition per guard/action IR
// primitive. cmd/specgen compiles it into internal/idsgen's test files
// next to the six real machines — without knowing its name — and
// internal/idsgen's TestEmitterMatchesEvaluator steps the compiled and
// the interpreted form side by side, so each primitive's emitter case
// is held to its evaluator case on boundary inputs.
package irtest

import (
	"time"

	"vids/internal/core"
)

// Probe machine states: every primitive is exercised on a self-loop of
// S; TRAP and HALT exist so attack and final entry are observable.
const (
	stS    core.State = "S"
	stTrap core.State = "TRAP"
	stHalt core.State = "HALT"
)

// Parameter values the fixture is built with; the compiled machine's
// parameter block must be filled with the same.
const (
	PStr  = "north"
	PInt  = 7
	PU32  = uint32(9)
	PBool = true
	PDur  = 5 * time.Millisecond
)

// The probe's typed vector, map-only arguments and variables.
var (
	vector = core.NewVector("Probe")

	s = vector.Arg("s", core.KindString)
	t = vector.Arg("t", core.KindString)
	i = vector.Arg("i", core.KindInt)
	j = vector.Arg("j", core.KindInt)
	u = vector.Arg("u", core.KindUint32)
	w = vector.Arg("w", core.KindUint32)
	d = vector.Arg("d", core.KindDuration)
	x = vector.Arg("x", core.KindDuration)

	mapStr = core.Arg("m", core.KindString)
	mapInt = core.Arg("n", core.KindInt)

	lStr  = core.Local("l.str", core.KindString)
	lInt  = core.Local("l.int", core.KindInt)
	lU32  = core.Local("l.u32", core.KindUint32)
	lFlag = core.Local("l.flag", core.KindBool)
	lDur  = core.Local("l.dur", core.KindDuration)
	lSeq  = core.Local("l.seq", core.KindUint32)
	lTS   = core.Local("l.ts", core.KindUint32)

	gStr = core.Global("g.str", core.KindString)
	gInt = core.Global("g.int", core.KindInt)
)

// The δ events the probe emits.
var (
	deltaKeyed = core.Event{Name: "delta.probe", Args: map[string]any{"k": "v", "n": 3}}
	deltaPlain = core.Event{Name: "delta.plain"}
)

// predicates maps an event name to the boolean primitive it probes:
// the machine answers the event on a self-loop labeled "yes" when the
// predicate holds and "no" (through Not) when it does not.
func predicates() map[string]*core.Expr {
	pStr := core.Param("Str", core.StringVal(PStr))
	pInt := core.Param("Int", core.IntVal(PInt))
	pU32 := core.Param("U32", core.Uint32Val(PU32))
	pBool := core.Param("Bool", core.BoolVal(PBool))
	pDur := core.Param("Dur", core.DurationVal(PDur))
	return map[string]*core.Expr{
		"eq.str":     core.Eq(s, t),
		"eq.int":     core.Eq(i, j),
		"eq.mixed":   core.Eq(i, u),
		"eq.bool":    core.Eq(lFlag, pBool),
		"ne.str":     core.Ne(s, core.Lit("x")),
		"ne.mixed":   core.Ne(d, i),
		"lt":         core.Lt(i, j),
		"le":         core.Le(u, w),
		"gt":         core.Gt(d, x),
		"ge":         core.Ge(i, core.Lit(0)),
		"lt.mixed":   core.Lt(i, u),
		"and":        core.And(core.Lt(i, j), core.Eq(s, t), lFlag),
		"or":         core.Or(core.Lt(i, j), core.Eq(s, t), lFlag),
		"nest":       core.And(core.Or(core.Lt(i, j), lFlag), core.Not(core.And(core.Eq(s, t), pBool))),
		"arith":      core.Gt(core.Sub(d, x), core.Add(pDur, lDur)),
		"seqless":    core.SeqLess(lSeq, i),
		"windowok":   core.WindowOK(lSeq, i, lTS, u, pInt, pU32),
		"arg.map":    core.And(core.Eq(mapStr, s), core.Eq(mapInt, i)),
		"local.str":  core.Eq(lStr, s),
		"local.int":  core.Eq(lInt, i),
		"local.u32":  core.Eq(lU32, u),
		"local.dur":  core.Eq(lDur, d),
		"global.str": core.Eq(gStr, s),
		"global.int": core.Eq(gInt, i),
		"param.str":  core.Eq(pStr, s),
		"param.int":  core.Eq(pInt, i),
		"param.u32":  core.Eq(pU32, u),
		"param.dur":  core.Eq(pDur, d),
		"param.bool": pBool,
	}
}

// actions maps an event name to the statements it probes, run on an
// unguarded self-loop of S.
func actions() map[string]*core.Block {
	return map[string]*core.Block{
		"set": core.Do(
			core.Set(lStr, s), core.Set(lInt, i), core.Set(lU32, u), core.Set(lDur, d),
			core.Set(lFlag, core.Lt(i, j)), core.Set(gStr, t), core.Set(gInt, j),
			core.Set(lSeq, w), core.Set(lTS, u)),
		"set.conv": core.Do(
			core.Set(lU32, i), core.Set(lInt, u), core.Set(lDur, j), core.Set(gInt, d)),
		"set.lit": core.Do(
			core.Set(lStr, core.Lit("lit")), core.Set(lInt, core.Lit(42)), core.Set(lU32, core.Lit(uint32(7))),
			core.Set(lFlag, core.Lit(true)), core.Set(lDur, core.Lit(3*time.Second))),
		"set.arith": core.Do(
			core.Set(lInt, core.Add(i, j)), core.Set(lU32, core.Sub(u, w)), core.Set(lDur, core.Sub(d, x)),
			core.Set(gInt, core.Add(lInt, core.Lit(1))), core.Set(lSeq, core.Add(u, i))),
		"delete": core.Do(core.Delete(lInt), core.Delete(lStr), core.Set(lInt, i), core.Delete(lFlag)),
		"emit": core.Do(
			core.Emit("peer", deltaKeyed), core.Set(lStr, s), core.Emit("other", deltaPlain)),
		"if": core.Do(
			core.If(core.Lt(i, j),
				core.Set(lStr, core.Lit("then")), core.Emit("peer", deltaPlain),
			).OrElse(
				core.Set(lStr, core.Lit("else")),
				core.If(core.Eq(s, t), core.Delete(lDur)))),
		"window": core.Do(
			core.WindowAdvance(lSeq, lTS, i, u),
			core.If(lFlag, core.WindowAdvance(lSeq, lTS, j, w))),
	}
}

// probe builds the fixture machine.
func probe() *core.Spec {
	sp := core.NewSpec("ir-probe", stS)
	sp.Family = "Probe"
	for ev, p := range predicates() {
		sp.WhenLabeled("yes", stS, ev, p, nil, stS)
		sp.WhenLabeled("no", stS, ev, core.Not(p), nil, stS)
	}
	for ev, a := range actions() {
		sp.When(stS, ev, nil, a, stS)
	}
	sp.When(stS, "trap", nil, nil, stTrap)
	sp.When(stS, "halt", nil, nil, stHalt)
	sp.When(stTrap, "trap", nil, nil, stTrap)
	sp.Attack(stTrap)
	sp.Final(stHalt)
	sp.Views = []core.View{{Name: "Window", Vars: []*core.Expr{lSeq, lTS}}}
	return sp
}

// Specs is the fixture set cmd/specgen compiles: the probe machine.
func Specs() []*core.Spec { return []*core.Spec{probe()} }
