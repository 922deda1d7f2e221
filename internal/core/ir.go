package core

import (
	"fmt"
	"time"

	"vids/internal/rtp"
)

// This file is the guard/action IR: the one authorship of every
// predicate P_t and action A_t. A specification written in it is
// evaluated here (the interpreted reference: Spec.When lowers each node
// to the Predicate/Action closures Machine.Step already runs) and
// compiled by cmd/specgen into the typed Go of internal/idsgen. The
// vocabulary is closed: a specification that needs more adds an Op
// with an evaluator case below and an emitter case in cmd/specgen —
// there is no opaque function node.
//
// Values are typed by Kind (string, int, uint32, bool, duration).
// Numeric kinds mix freely in comparisons and arithmetic (both sides
// widen to int64), and Set converts to the destination's kind, so a
// uint32 variable can hold an int event argument exactly as the Go a
// person would write does.

// Op identifies one expression primitive.
type Op uint8

// Expression primitives.
const (
	OpArg    Op = iota + 1 // event argument Name; a typed field when Vector is set
	OpLocal                // machine-local variable Name ("l.*")
	OpGlobal               // system-global variable Name ("g.*")
	OpParam                // machine parameter Name; Val is the configured value
	OpLit                  // constant Val

	OpEq // Args[0] == Args[1] (any kind)
	OpNe
	OpLt // numeric
	OpLe
	OpGt
	OpGe

	OpAnd // all of Args, left to right, short-circuit
	OpOr  // any of Args
	OpNot

	OpAdd // Args[0] + Args[1], in Args[0]'s kind
	OpSub

	OpSeqLess  // rtp.SeqLess(a, b): a precedes b in 16-bit sequence space
	OpWindowOK // rtp.WindowOK(prevSeq, seq, prevTS, ts, maxSeqGap, maxTSGap)
)

// Expr is one expression node. Nodes are immutable once built and may
// be shared: by several transitions (the generator then emits the body
// once) and by several specifications (the twins of a family).
type Expr struct {
	Op     Op
	Kind   Kind    // kind of the node's value
	Name   string  // OpArg key, OpLocal/OpGlobal variable key, OpParam name
	Vector *Vector // OpArg: the typed vector carrying the field, nil for a map-only argument
	Val    Val     // OpLit and OpParam value
	Args   []*Expr
}

// Vector declares the typed input vector x of an event family: the
// arguments the packet path hands over as struct fields (TypedArgs)
// instead of an Args map. The compiled backend emits it as
// <Name>Args with one field per declared argument, in declaration
// order — including arguments no guard reads.
type Vector struct {
	Name   string
	Fields []*Expr
}

// NewVector starts an empty vector declaration.
func NewVector(name string) *Vector { return &Vector{Name: name} }

// Arg declares a field of the vector and returns the expression
// reading it.
func (v *Vector) Arg(key string, k Kind) *Expr {
	x := Arg(key, k)
	x.Vector = v
	v.Fields = append(v.Fields, x)
	return x
}

// Arg reads an event argument that travels only in the Args map (a δ
// message's payload).
func Arg(key string, k Kind) *Expr {
	if k == KindBool {
		panic("core: events carry no bool arguments (core.TypedArgs has no accessor for one)")
	}
	return &Expr{Op: OpArg, Kind: irKind(k), Name: key}
}

// Local names a machine-local state variable.
func Local(key string, k Kind) *Expr { return &Expr{Op: OpLocal, Kind: irKind(k), Name: key} }

// Global names a variable of the store shared across a System.
func Global(key string, k Kind) *Expr { return &Expr{Op: OpGlobal, Kind: irKind(k), Name: key} }

// Param is a machine parameter: a threshold or switch fixed when the
// machine is built. The interpreted reference reads val; the compiled
// machine reads the field name of its parameter block.
func Param(name string, val Val) *Expr {
	return &Expr{Op: OpParam, Kind: irKind(val.kind), Name: name, Val: val}
}

// Lit is a constant (string, int, uint32, bool or time.Duration).
func Lit(v any) *Expr {
	val := AnyVal(v)
	return &Expr{Op: OpLit, Kind: irKind(val.kind), Val: val}
}

// irKind rejects the Val kinds the IR does not carry.
func irKind(k Kind) Kind {
	switch k {
	case KindString, KindInt, KindUint32, KindBool, KindDuration:
		return k
	}
	panic(fmt.Sprintf("core: kind %d is not an IR kind", k))
}

// numeric reports whether k is one of the integer kinds that mix in
// comparisons and arithmetic.
func (k Kind) numeric() bool { return k == KindInt || k == KindUint32 || k == KindDuration }

func compare(op Op, a, b *Expr) *Expr {
	switch {
	case a.Kind.numeric() && b.Kind.numeric():
	case a.Kind == b.Kind && (op == OpEq || op == OpNe):
	default:
		panic(fmt.Sprintf("core: cannot compare kind %d with kind %d", a.Kind, b.Kind))
	}
	return &Expr{Op: op, Kind: KindBool, Args: []*Expr{a, b}}
}

// Eq is a == b.
func Eq(a, b *Expr) *Expr { return compare(OpEq, a, b) }

// Ne is a != b.
func Ne(a, b *Expr) *Expr { return compare(OpNe, a, b) }

// Lt is a < b.
func Lt(a, b *Expr) *Expr { return compare(OpLt, a, b) }

// Le is a <= b.
func Le(a, b *Expr) *Expr { return compare(OpLe, a, b) }

// Gt is a > b.
func Gt(a, b *Expr) *Expr { return compare(OpGt, a, b) }

// Ge is a >= b.
func Ge(a, b *Expr) *Expr { return compare(OpGe, a, b) }

func boolean(op Op, args []*Expr) *Expr {
	for _, a := range args {
		if a.Kind != KindBool {
			panic(fmt.Sprintf("core: boolean operand of kind %d", a.Kind))
		}
	}
	return &Expr{Op: op, Kind: KindBool, Args: args}
}

// And holds when every operand does.
func And(args ...*Expr) *Expr { return boolean(OpAnd, args) }

// Or holds when any operand does.
func Or(args ...*Expr) *Expr { return boolean(OpOr, args) }

// Not negates a.
func Not(a *Expr) *Expr { return boolean(OpNot, []*Expr{a}) }

func arith(op Op, a, b *Expr) *Expr {
	if !a.Kind.numeric() || !b.Kind.numeric() {
		panic(fmt.Sprintf("core: arithmetic on kinds %d, %d", a.Kind, b.Kind))
	}
	return &Expr{Op: op, Kind: a.Kind, Args: []*Expr{a, b}}
}

// Add is a + b in a's kind.
func Add(a, b *Expr) *Expr { return arith(OpAdd, a, b) }

// Sub is a - b in a's kind.
func Sub(a, b *Expr) *Expr { return arith(OpSub, a, b) }

func numerics(args ...*Expr) []*Expr {
	for _, a := range args {
		if !a.Kind.numeric() {
			panic(fmt.Sprintf("core: media-window operand of kind %d", a.Kind))
		}
	}
	return args
}

// SeqLess reports whether sequence number a precedes b modulo 2^16
// (rtp.SeqLess on the operands' low 16 bits).
func SeqLess(a, b *Expr) *Expr {
	return &Expr{Op: OpSeqLess, Kind: KindBool, Args: numerics(a, b)}
}

// WindowOK is Figure 6's gap predicate, rtp.WindowOK: the packet
// (seq, ts) sits behind the stream's high-water pair (prevSeq, prevTS)
// or advances it by at most maxSeqGap and maxTSGap.
func WindowOK(prevSeq, seq, prevTS, ts, maxSeqGap, maxTSGap *Expr) *Expr {
	return &Expr{Op: OpWindowOK, Kind: KindBool, Args: numerics(prevSeq, seq, prevTS, ts, maxSeqGap, maxTSGap)}
}

// StmtOp identifies one statement primitive.
type StmtOp uint8

// Statement primitives.
const (
	StSet           StmtOp = iota + 1 // Dst[0] = Src[0], converted to Dst[0]'s kind
	StDelete                          // remove local Dst[0] from the vector
	StEmit                            // queue δ Event for machine Target
	StIf                              // if Cond { Then } else { Else }
	StWindowAdvance                   // Dst[0], Dst[1] = rtp.WindowAdvance(Dst[0], Src[0], Dst[1], Src[1])
)

// Stmt is one statement node.
type Stmt struct {
	Op     StmtOp
	Dst    []*Expr // variables written (OpLocal or OpGlobal nodes)
	Src    []*Expr
	Target string // StEmit
	Event  Event  // StEmit: shared across calls, never mutated
	Cond   *Expr  // StIf
	Then   []*Stmt
	Else   []*Stmt
}

// Block is an action A_t: statements run in order. Like guards, a
// Block shared by several transitions is compiled once.
type Block struct {
	Stmts []*Stmt
}

// Do builds an action.
func Do(stmts ...*Stmt) *Block { return &Block{Stmts: stmts} }

func variable(x *Expr) *Expr {
	if x.Op != OpLocal && x.Op != OpGlobal {
		panic("core: assignment target is not a state variable")
	}
	return x
}

// Set assigns src to the variable dst. Numeric kinds convert to dst's.
func Set(dst, src *Expr) *Stmt {
	if dst.Kind != src.Kind && !(dst.Kind.numeric() && src.Kind.numeric()) {
		panic(fmt.Sprintf("core: cannot set %s (kind %d) from kind %d", dst.Name, dst.Kind, src.Kind))
	}
	return &Stmt{Op: StSet, Dst: []*Expr{variable(dst)}, Src: []*Expr{src}}
}

// Delete removes a local variable from the vector: it reads as its
// zero value and no longer counts toward Vars or the footprint.
func Delete(dst *Expr) *Stmt {
	if dst.Op != OpLocal {
		panic("core: Delete takes a local variable")
	}
	return &Stmt{Op: StDelete, Dst: []*Expr{dst}}
}

// Emit queues the synchronization message e for the peer machine
// target (c!δ). e is built once and shared by every instance.
func Emit(target string, e Event) *Stmt { return &Stmt{Op: StEmit, Target: target, Event: e} }

// If runs then when cond holds; see OrElse.
func If(cond *Expr, then ...*Stmt) *Stmt {
	if cond.Kind != KindBool {
		panic("core: If condition is not boolean")
	}
	return &Stmt{Op: StIf, Cond: cond, Then: then}
}

// OrElse attaches the branch run when an If's condition does not hold.
func (s *Stmt) OrElse(stmts ...*Stmt) *Stmt {
	if s.Op != StIf {
		panic("core: OrElse on a statement that is not an If")
	}
	s.Else = stmts
	return s
}

// WindowAdvance moves the high-water pair held in seqVar and tsVar
// past the packet (seq, ts) when it is ahead in wraparound order
// (rtp.WindowAdvance); a reordered packet leaves both untouched.
func WindowAdvance(seqVar, tsVar, seq, ts *Expr) *Stmt {
	numerics(seqVar, tsVar, seq, ts)
	return &Stmt{Op: StWindowAdvance, Dst: []*Expr{variable(seqVar), variable(tsVar)}, Src: []*Expr{seq, ts}}
}

// View names a tuple of local variables the embedding detector reads
// and writes as a unit (the media window the fast path mirrors). The
// compiled machine type gets a <Name>() getter and a Set<Name>(...)
// setter over the tuple; an interpreted machine is accessed through
// Vars with the same variables' keys.
type View struct {
	Name string
	Vars []*Expr
}

// When adds a transition whose guard and action are IR: both lower to
// the closures On takes, and the transition keeps the nodes for the
// generator. A nil guard is the catch-all, a nil action no update.
func (s *Spec) When(from State, event string, guard *Expr, do *Block, to State) *Spec {
	return s.WhenLabeled("", from, event, guard, do, to)
}

// WhenLabeled is When for a labeled transition (see OnLabeled).
func (s *Spec) WhenLabeled(label string, from State, event string, guard *Expr, do *Block, to State) *Spec {
	var p Predicate
	if guard != nil {
		if guard.Kind != KindBool {
			panic("core: guard is not boolean")
		}
		p = guard.evalBool
	}
	var a Action
	if do != nil {
		a = do.exec
	}
	s.OnLabeled(label, from, event, p, a, to)
	ts := s.transitions[from][event]
	t := &ts[len(ts)-1]
	t.Pred, t.Act = guard, do
	return s
}

// ---------------------------------------------------------------------------
// Evaluator. One case per primitive; cmd/specgen's emitter mirrors the
// switches below case for case.
// ---------------------------------------------------------------------------

func (x *Expr) evalBool(c *Ctx) bool {
	switch x.Op {
	case OpAnd:
		for _, a := range x.Args {
			if !a.evalBool(c) {
				return false
			}
		}
		return true
	case OpOr:
		for _, a := range x.Args {
			if a.evalBool(c) {
				return true
			}
		}
		return false
	case OpNot:
		return !x.Args[0].evalBool(c)
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		a, b := x.Args[0], x.Args[1]
		switch a.Kind {
		case KindString:
			return (a.evalString(c) == b.evalString(c)) == (x.Op == OpEq)
		case KindBool:
			return (a.evalBool(c) == b.evalBool(c)) == (x.Op == OpEq)
		}
		l, r := a.evalNum(c), b.evalNum(c)
		switch x.Op {
		case OpEq:
			return l == r
		case OpNe:
			return l != r
		case OpLt:
			return l < r
		case OpLe:
			return l <= r
		case OpGt:
			return l > r
		}
		return l >= r
	case OpSeqLess:
		return rtp.SeqLess(uint16(x.Args[0].evalNum(c)), uint16(x.Args[1].evalNum(c)))
	case OpWindowOK:
		a := x.Args
		return rtp.WindowOK(uint16(a[0].evalNum(c)), uint16(a[1].evalNum(c)),
			uint32(a[2].evalNum(c)), uint32(a[3].evalNum(c)),
			uint16(a[4].evalNum(c)), uint32(a[5].evalNum(c)))
	case OpLocal, OpGlobal:
		return scopeOf(c, x).GetBool(x.Name)
	case OpParam, OpLit:
		return x.Val.num != 0
	}
	return false
}

// evalNum evaluates a numeric node widened to int64.
func (x *Expr) evalNum(c *Ctx) int64 {
	switch x.Op {
	case OpArg:
		switch x.Kind {
		case KindInt:
			return int64(c.Event.IntArg(x.Name))
		case KindUint32:
			return int64(c.Event.Uint32Arg(x.Name))
		}
		return int64(c.Event.DurationArg(x.Name))
	case OpLocal, OpGlobal:
		// Like the typed getters, a variable that is absent (or of
		// another kind) reads as zero.
		if val := scopeOf(c, x)[x.Name]; val.kind == x.Kind {
			return int64(val.num)
		}
		return 0
	case OpParam, OpLit:
		return int64(x.Val.num)
	case OpAdd:
		return convert(x.Kind, x.Args[0].evalNum(c)+x.Args[1].evalNum(c))
	case OpSub:
		return convert(x.Kind, x.Args[0].evalNum(c)-x.Args[1].evalNum(c))
	}
	return 0
}

// convert wraps n the way Go's conversion to kind k does: only uint32
// is narrower than the int64 the evaluator computes in.
func convert(k Kind, n int64) int64 {
	if k == KindUint32 {
		return int64(uint32(n))
	}
	return n
}

func (x *Expr) evalString(c *Ctx) string {
	switch x.Op {
	case OpArg:
		return c.Event.StringArg(x.Name)
	case OpLocal, OpGlobal:
		return scopeOf(c, x).GetString(x.Name)
	case OpParam, OpLit:
		return x.Val.str
	}
	return ""
}

func (b *Block) exec(c *Ctx) { execAll(c, b.Stmts) }

func execAll(c *Ctx, stmts []*Stmt) {
	for _, s := range stmts {
		switch s.Op {
		case StSet:
			store(c, s.Dst[0], s.Src[0])
		case StDelete:
			delete(c.Vars, s.Dst[0].Name)
		case StEmit:
			c.Emit(s.Target, s.Event)
		case StIf:
			if s.Cond.evalBool(c) {
				execAll(c, s.Then)
			} else {
				execAll(c, s.Else)
			}
		case StWindowAdvance:
			seqVar, tsVar := s.Dst[0], s.Dst[1]
			seq, ts := rtp.WindowAdvance(
				uint16(seqVar.evalNum(c)), uint16(s.Src[0].evalNum(c)),
				uint32(tsVar.evalNum(c)), uint32(s.Src[1].evalNum(c)))
			storeNum(c, seqVar, int64(seq))
			storeNum(c, tsVar, int64(ts))
		}
	}
}

// scopeOf is the store variable x lives in.
func scopeOf(c *Ctx, x *Expr) Vars {
	if x.Op == OpGlobal {
		return c.Globals
	}
	return c.Vars
}

func store(c *Ctx, dst, src *Expr) {
	switch dst.Kind {
	case KindString:
		scopeOf(c, dst).SetString(dst.Name, src.evalString(c))
	case KindBool:
		scopeOf(c, dst).SetBool(dst.Name, src.evalBool(c))
	default:
		storeNum(c, dst, src.evalNum(c))
	}
}

func storeNum(c *Ctx, dst *Expr, n int64) {
	vars := scopeOf(c, dst)
	switch dst.Kind {
	case KindInt:
		vars.SetInt(dst.Name, int(n))
	case KindUint32:
		vars.SetUint32(dst.Name, uint32(n))
	case KindDuration:
		vars.SetDuration(dst.Name, time.Duration(n))
	}
}
