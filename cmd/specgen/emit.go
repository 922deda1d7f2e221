package main

import (
	"bytes"
	"fmt"
	"go/format"
	"regexp"
	"strconv"
	"strings"
	"text/template"
	"time"

	"vids/internal/core"
)

// kinds is what the emitter knows about each IR kind: the Go type a
// value is held in, its zero literal, its size (for field ordering),
// and the core.Vars setter and core.Event accessor that move it.
var kinds = map[core.Kind]struct {
	goType, zero string
	size         int
	setter, arg  string
}{
	core.KindString:   {"string", `""`, 16, "SetString", "StringArg"},
	core.KindInt:      {"int", "0", 8, "SetInt", "IntArg"},
	core.KindUint32:   {"uint32", "0", 4, "SetUint32", "Uint32Arg"},
	core.KindBool:     {"bool", "false", 1, "SetBool", ""},
	core.KindDuration: {"time.Duration", "0", 8, "SetDuration", "DurationArg"},
}

func goType(k core.Kind) string { return kinds[k].goType }

// store is a struct of variables with a presence mask, as the
// templates see it: the machine's l.* fields or the shared g.* store.
type store struct {
	Recv, Prefix string
	Vars         []*core.Expr
}

var funcs = template.FuncMap{
	"goType": goType, "field": field, "bit": bit, "upper": upperFirst, "quote": strconv.Quote,
	"zero":      func(k core.Kind) string { return kinds[k].zero },
	"setter":    func(k core.Kind) string { return kinds[k].setter },
	"argMethod": func(k core.Kind) string { return kinds[k].arg },
	"store":     func(recv, prefix string, vars []*core.Expr) store { return store{recv, prefix, vars} },
	"deltaVar":  deltaVar,
	"eventLit": func(e core.Event) string {
		if len(e.Args) == 0 {
			return fmt.Sprintf("core.Event{Name: %q}", e.Name)
		}
		args := strings.Replace(fmt.Sprintf("%#v", e.Args), "interface {}", "any", 1) // fmt sorts the keys
		return fmt.Sprintf("core.Event{Name: %q, Args: %s}", e.Name, args)
	},
	"ofKind": func(fields []*core.Expr, k core.Kind) (out []*core.Expr) {
		for _, f := range fields {
			if f.Kind == k {
				out = append(out, f)
			}
		}
		return out
	},
	"argKinds": func() []core.Kind {
		return []core.Kind{core.KindString, core.KindInt, core.KindUint32, core.KindDuration}
	},
	"maskType": func(n int) string {
		switch {
		case n <= 8:
			return "uint8"
		case n <= 16:
			return "uint16"
		}
		return "uint32"
	},
	"lower": strings.ToLower,
	"specNames": func(ms []*model) string {
		names := make([]string, len(ms))
		for i, m := range ms {
			names[i] = m.spec.Name
		}
		return strings.Join(names, ", ")
	},
	"views": func(f *family) []core.View { return f.rep().spec.Views },
}

// tmpl holds the three templates everything but tables and bodies is
// rendered from: "bits"/"view" (shared by both kinds of store),
// "shared" (vectors, δ events, the globals struct) and "machine" (one
// family's shell). The machine's Step fills the ~14-word
// StepResult through the named result via plain field stores of
// pre-computed locals: measured against composite literals on every
// path, this keeps the compiler writing straight into the result slot
// without materializing a temporary it would then duffcopy out.
var tmpl = template.Must(template.New("specgen").Funcs(funcs).Parse(`
{{define "bits"}}{{if .Vars}}// Presence bits of {{.Recv}}.
const (
{{range $i, $v := .Vars}}	{{bit $.Prefix $v}}{{if not $i}} = 1 << iota{{end}}
{{end}})
{{end}}{{end}}

{{define "view"}}{{range .Vars}}	if {{$.Recv}}.set&{{bit $.Prefix .}} != 0 {
		v.{{setter .Kind}}({{quote .Name}}, {{$.Recv}}.{{field .}})
	}
{{end}}{{end}}

{{define "shared"}}{{range $v := .P.Vectors}}{{$typ := print .Name "Args"}}
// {{$typ}} is the typed input vector x declared as core.Vector {{quote .Name}}:
// the keys the specifications read through the core.Event accessors,
// held in a reusable struct so the packet path neither builds a map
// nor boxes a field. Absent fields read as zero values, as a missing
// map key does.
type {{$typ}} struct {
{{range .Fields}}	{{upper .Name}} {{goType .Kind}}
{{end}}}
{{range $k := argKinds}}
// {{argMethod $k}} implements core.TypedArgs.
{{with ofKind $v.Fields $k}}func (a *{{$typ}}) {{argMethod $k}}(key string) ({{goType $k}}, bool) {
	switch key {
{{range .}}	case {{quote .Name}}:
		return a.{{upper .Name}}, true
{{end}}	}
	return {{zero $k}}, false
}
{{else}}func (a *{{$typ}}) {{argMethod $k}}(string) ({{goType $k}}, bool) { return {{zero $k}}, false }
{{end}}{{end}}
// Field reads of {{$typ}}, falling back to the core.Event accessors
// when an event carries an Args map instead (tests and tooling).
{{range .Fields}}
func {{lower $v.Name}}{{upper .Name}}(e *core.Event, a *{{$typ}}) {{goType .Kind}} {
	if a != nil {
		return a.{{upper .Name}}
	}
	return e.{{argMethod .Kind}}({{quote .Name}})
}
{{end}}{{end}}
{{if .P.Deltas}}
// Pre-built δ synchronization events: the values the specifications'
// Emit statements carry, shared across calls and never mutated.
var (
{{range .P.Deltas}}	{{deltaVar .}} = {{eventLit .}}
{{end}})
{{end}}
{{if .P.Globals}}{{$g := store "g" .GlobalsPrefix .P.Globals}}
// {{.GlobalsType}} is the compiled form of a system's shared variable
// store (a core.Store): the g.* variables as struct fields plus a
// presence bitmask, so the Vars view — and the memory accounting core
// computes from it — matches the interpreted map exactly.
type {{.GlobalsType}} struct {
	set {{maskType (len .P.Globals)}}
{{range .P.Globals}}	{{field .}} {{goType .Kind}}
{{end}}}

{{template "bits" store (print .GlobalsType ".set") .GlobalsPrefix .P.Globals}}
// Reset clears every variable.
func (g *{{.GlobalsType}}) Reset() { *g = {{.GlobalsType}}{} }

// Vars materializes the map view (cold path: tooling and tests).
func (g *{{.GlobalsType}}) Vars() core.Vars {
	v := make(core.Vars)
{{template "view" $g}}	return v
}
{{end}}{{end}}

{{define "machine"}}{{$typ := print .F.Name "Machine"}}{{$m := store "m" .F.Prefix .F.Locals}}
// {{$typ}} is the compiled form of
// {{specNames .F.Members}}:
// the l.* vector as struct fields (presence bits in machBase.set feed
// the Vars view). Field zero values mirror the interpreted
// read-of-an-absent-key semantics, so guards read fields directly.
type {{$typ}} struct {
	machBase
{{range .F.Locals}}	{{field .}} {{goType .Kind}}
{{end}}{{if .F.Globals}}	g *{{.GlobalsType}}
{{end}}{{if .F.Params}}	p {{.F.Prefix}}Params
{{end}}{{if .F.Emits}}	emits []core.SyncMsg
{{end}}}
{{if .F.Params}}
// {{.F.Prefix}}Params is the parameter block the {{$typ}} guards read.
type {{.F.Prefix}}Params struct {
{{range .F.Params}}	{{.Name}} {{goType .Kind}}
{{end}}}
{{end}}
{{template "bits" store (print "machBase.set for " $typ) .F.Prefix .F.Locals}}
// Reset returns the machine to its pristine configuration; parameters
// and buffer capacity survive.
func (m *{{$typ}}) Reset() {
	m.reset()
{{range .F.Locals}}	m.{{field .}} = {{zero .Kind}}
{{end}}{{if .F.Emits}}	m.emits = m.emits[:0]
{{end}}}

// Vars materializes the l.* vector as a map (cold path).
func (m *{{$typ}}) Vars() core.Vars {
	v := make(core.Vars)
{{template "view" $m}}	return v
}
{{range views .F}}
// {{.Name}} reads the specification's {{.Name}} view.
func (m *{{$typ}}) {{.Name}}() ({{range $i, $v := .Vars}}{{if $i}}, {{end}}{{field .}} {{goType .Kind}}{{end}}) {
	return {{range $i, $v := .Vars}}{{if $i}}, {{end}}m.{{field .}}{{end}}
}

// Set{{.Name}} writes the specification's {{.Name}} view.
func (m *{{$typ}}) Set{{.Name}}({{range $i, $v := .Vars}}{{if $i}}, {{end}}{{field .}} {{goType .Kind}}{{end}}) {
{{range .Vars}}	m.{{field .}} = {{field .}}
{{end}}	m.set |= {{range $i, $v := .Vars}}{{if $i}} | {{end}}{{bit $.F.Prefix .}}{{end}}
}
{{end}}
// Step replicates core.Machine.Step over the compiled tables: walk the
// (state, event) cell in spec order, record the unguarded fallback,
// evaluate every guard (two enabled is the nondeterminism error), run
// the action, and report the transition as the interpreter does.
//
//vids:noalloc compiled {{.F.Prefix}} step — the generated-dispatch hot path
//vids:nopanic steps on attacker-sequenced events
func (m *{{$typ}}) Step(e core.Event) (res core.StepResult, err error) {
	t := m.tbl
	fromState := t.stateName(m.state)
	var cands []trans
	if eid := t.eventID(e.Name); eid >= 0 {
		cands = t.cell(m.state, eid)
	}
	if len(cands) == 0 {
		res = core.StepResult{Machine: t.name, From: fromState, Event: e.Name}
		err = core.ErrNoTransition
		return
	}
{{if .F.Vector}}	a, _ := e.Typed.(*{{.F.Vector.Name}}Args)
{{end}}{{if .F.Emits}}	m.emits = m.emits[:0]
{{end}}	chosen, fallback := -1, -1
	enabled := 0
	for i := range cands {
		if !cands[i].guarded {
			fallback = i
			continue
		}
		if {{.F.Prefix}}GuardFn(cands[i].fn, m, &e{{if .F.Vector}}, a{{end}}) {
			enabled++
			chosen = i
		}
	}
	if enabled > 1 {
		res = core.StepResult{Machine: t.name, From: fromState, Event: e.Name}
		err = core.ErrNondeterministic
		return
	}
	if chosen < 0 {
		chosen = fallback
	}
	if chosen < 0 || chosen >= len(cands) {
		res = core.StepResult{Machine: t.name, From: fromState, Event: e.Name}
		err = core.ErrNoTransition
		return
	}
	tr := &cands[chosen]
	if tr.action {
		{{.F.Prefix}}ActionFn(tr.fn, m, &e{{if .F.Vector}}, a{{end}})
	}
	from := m.state
	m.state = tr.to
	m.steps++
	toState := t.stateName(tr.to)
	moved := from != tr.to
	enteredAttack := stateFlag(t.attack, tr.to) && moved
	res.Machine = t.name
	res.From = fromState
	res.To = toState
	res.Event = e.Name
	res.Label = tr.label
	res.EnteredAttack = enteredAttack
	res.EnteredFinal = stateFlag(t.final, tr.to) && moved
	res.Emitted = {{if .F.Emits}}m.emits{{else}}nil{{end}}
	return
}
{{end}}`))

// section is one unit of generated source: a file of its own in
// internal/idsgen, or a part of the single fixture test file.
type section struct {
	name string
	body bytes.Buffer
}

// imports are the packages generated code can mention, each with the
// pattern of a use.
var imports = []struct {
	use  *regexp.Regexp
	path string
}{
	{regexp.MustCompile(`\btime\.[A-Z]`), "time"},
	{regexp.MustCompile(`\bcore\.[A-Z]`), "vids/internal/core"},
	{regexp.MustCompile(`\brtp\.[A-Z]`), "vids/internal/rtp"},
}

// render assembles sections into one formatted Go file; the import
// list is whatever the bodies mention.
func render(pkg string, sections ...*section) ([]byte, error) {
	var body bytes.Buffer
	for _, s := range sections {
		body.Write(s.body.Bytes())
	}
	var b bytes.Buffer
	b.WriteString("// Code generated by specgen from the EFSM specifications. DO NOT EDIT.\n")
	b.WriteString("//\n")
	b.WriteString("// Regenerate with `make specgen`; CI runs `specgen -check` and fails\n")
	b.WriteString("// if this file drifts from the specifications.\n\n")
	fmt.Fprintf(&b, "package %s\n\nimport (\n", pkg)
	for _, imp := range imports {
		if imp.use.Match(body.Bytes()) {
			fmt.Fprintf(&b, "%q\n", imp.path)
		}
	}
	b.WriteString(")\n\n")
	b.Write(body.Bytes())
	src, err := format.Source(b.Bytes())
	if err != nil {
		return nil, fmt.Errorf("generated code does not parse: %v\n%s", err, b.Bytes())
	}
	return src, nil
}

// emitter is one run's analysis plus the name of the g.* struct.
type emitter struct {
	P           *program
	GlobalsType string
}

func (g *emitter) GlobalsPrefix() string { return lowerFirst(g.GlobalsType) }

// tables emits every machine's dense table and, if tablesVar is set,
// the slice listing them in specification order.
func (g *emitter) tables(tablesVar string) *section {
	s := &section{name: "tables"}
	b := &s.body
	for _, m := range g.P.Models {
		fmt.Fprintf(b, "var %s = machTable{\nname: %q,\ninitial: %d,\n", m.tblVar, m.spec.Name, m.initial)
		fmt.Fprintf(b, "states: %#v,\nevents: %#v,\nfinal: %#v,\nattack: %#v,\n", m.states, m.events, m.final, m.attack)
		// cells is row-major flat: state si's row occupies indices
		// [si*len(events), (si+1)*len(events)).
		b.WriteString("cells: [][]trans{\n")
		for si, byEvent := range m.cells {
			fmt.Fprintf(b, "// %s\n", m.states[si])
			for ei, cands := range byEvent {
				if len(cands) == 0 {
					fmt.Fprintf(b, "nil, // %s\n", m.events[ei])
					continue
				}
				b.WriteString("{")
				for _, c := range cands {
					fmt.Fprintf(b, "{to: %d, fn: %d", c.to, c.fn)
					if c.pred != nil {
						b.WriteString(", guarded: true")
					}
					if c.act != nil {
						b.WriteString(", action: true")
					}
					if c.label != "" {
						fmt.Fprintf(b, ", label: %q", c.label)
					}
					b.WriteString("},")
				}
				fmt.Fprintf(b, "}, // %s\n", m.events[ei])
			}
		}
		b.WriteString("},\n}\n\n")
	}
	if tablesVar != "" {
		fmt.Fprintf(b, "// %s lists every compiled table in specification order.\nvar %s = []*machTable{", tablesVar, tablesVar)
		for _, m := range g.P.Models {
			b.WriteString("&" + m.tblVar + ",")
		}
		b.WriteString("}\n\n")
	}
	return s
}

// shared emits what belongs to no one family: the typed vectors, the
// δ events and the globals struct.
func (g *emitter) shared() (*section, error) {
	s := &section{name: "args"}
	return s, tmpl.ExecuteTemplate(&s.body, "shared", g)
}

// machine emits one family: its shell from the template, then one
// function per distinct guard and action node — a node shared by
// several transitions is named after its first site and emitted once —
// and the two switches dispatching a transition index to them.
func (g *emitter) machine(f *family) (*section, error) {
	s := &section{name: f.Prefix}
	b := &s.body
	err := tmpl.ExecuteTemplate(b, "machine", struct {
		*emitter
		F *family
	}{g, f})
	if err != nil {
		return nil, err
	}
	rep, sc := f.rep(), scope{prefix: f.Prefix, globals: g.GlobalsPrefix()}
	sig, call := fmt.Sprintf("m *%sMachine, e *core.Event", f.Name), "m, e"
	if f.Vector != nil {
		sig, call = sig+", a *"+f.Vector.Name+"Args", call+", a"
	}
	// name -> transition indices, per kind, in first-site order.
	type group struct {
		name string
		fns  []string
	}
	var guards, actions []*group
	byNode := make(map[any]*group)
	site := func(list *[]*group, node any, kind string, si, ei, ci int, c *cell, body func()) {
		grp := byNode[node]
		if grp == nil {
			grp = &group{name: fmt.Sprintf("%s%s_%s_%s_%d", f.Prefix, kind, sanitize(string(rep.states[si])), sanitize(rep.events[ei]), ci)}
			byNode[node] = grp
			*list = append(*list, grp)
			body()
		}
		grp.fns = append(grp.fns, strconv.Itoa(c.fn))
	}
	rep.walk(func(si, ei, ci int, c *cell) {
		if c.pred != nil {
			site(&guards, c.pred, "Guard", si, ei, ci, c, func() {
				fmt.Fprintf(b, "func %s(%s) bool {\nreturn %s\n}\n\n", byNode[c.pred].name, sig, sc.expr(c.pred))
			})
		}
		if c.act != nil {
			site(&actions, c.act, "Action", si, ei, ci, c, func() {
				fmt.Fprintf(b, "func %s(%s) {\n", byNode[c.act].name, sig)
				sc.stmts(b, c.act.Stmts, new(int))
				b.WriteString("}\n\n")
			})
		}
	})
	fmt.Fprintf(b, "func %sGuardFn(fn uint16, %s) bool {\nswitch fn {\n", f.Prefix, sig)
	for _, grp := range guards {
		fmt.Fprintf(b, "case %s:\nreturn %s(%s)\n", strings.Join(grp.fns, ", "), grp.name, call)
	}
	fmt.Fprintf(b, "}\nreturn true\n}\n\nfunc %sActionFn(fn uint16, %s) {\nswitch fn {\n", f.Prefix, sig)
	for _, grp := range actions {
		fmt.Fprintf(b, "case %s:\n%s(%s)\n", strings.Join(grp.fns, ", "), grp.name, call)
	}
	b.WriteString("}\n}\n\n")
	return s, nil
}

// scope names what IR renders against: the identifier prefix of the
// family whose method bodies these are, and of the globals struct.
type scope struct{ prefix, globals string }

var compareOps = map[core.Op]string{
	core.OpEq: "==", core.OpNe: "!=", core.OpLt: "<", core.OpLe: "<=", core.OpGt: ">", core.OpGe: ">=",
}

// negated maps a comparison to the one that holds exactly when it does
// not, so Not(Eq(a, b)) reads a != b.
var negated = map[core.Op]core.Op{
	core.OpEq: core.OpNe, core.OpNe: core.OpEq, core.OpLt: core.OpGe,
	core.OpGe: core.OpLt, core.OpGt: core.OpLe, core.OpLe: core.OpGt,
}

// expr renders x as Go of type goType(x.Kind): one case per core.Op,
// mirroring core's evaluator.
func (sc scope) expr(x *core.Expr) string {
	switch x.Op {
	case core.OpArg:
		if x.Vector != nil {
			return fmt.Sprintf("%s%s(e, a)", strings.ToLower(x.Vector.Name), upperFirst(x.Name))
		}
		return fmt.Sprintf("e.%s(%q)", kinds[x.Kind].arg, x.Name)
	case core.OpLocal:
		return "m." + field(x)
	case core.OpGlobal:
		return "m.g." + field(x)
	case core.OpParam:
		return "m.p." + x.Name
	case core.OpLit:
		switch v := x.Val.Any().(type) {
		case string:
			return strconv.Quote(v)
		case time.Duration:
			return fmt.Sprintf("time.Duration(%d)", int64(v))
		default:
			return fmt.Sprint(v) // untyped constant: adopts the other operand's type
		}
	case core.OpEq, core.OpNe, core.OpLt, core.OpLe, core.OpGt, core.OpGe:
		l, r := sc.operands(x.Args[0], x.Args[1], "int64")
		return l + " " + compareOps[x.Op] + " " + r
	case core.OpAnd, core.OpOr:
		op := map[core.Op]string{core.OpAnd: " && ", core.OpOr: " || "}[x.Op]
		parts := make([]string, len(x.Args))
		for i, a := range x.Args {
			parts[i] = sc.expr(a)
			if (a.Op == core.OpAnd || a.Op == core.OpOr) && a.Op != x.Op {
				parts[i] = "(" + parts[i] + ")"
			}
		}
		return strings.Join(parts, op)
	case core.OpNot:
		a := x.Args[0]
		switch a.Op {
		case core.OpLocal, core.OpGlobal, core.OpParam:
			return "!" + sc.expr(a)
		case core.OpEq, core.OpNe, core.OpLt, core.OpLe, core.OpGt, core.OpGe:
			l, r := sc.operands(a.Args[0], a.Args[1], "int64")
			return l + " " + compareOps[negated[a.Op]] + " " + r
		}
		return "!(" + sc.expr(a) + ")"
	case core.OpAdd, core.OpSub:
		l, r := sc.operands(x.Args[0], x.Args[1], goType(x.Kind))
		if b := x.Args[1]; b.Op == core.OpAdd || b.Op == core.OpSub {
			r = "(" + r + ")"
		}
		return l + map[core.Op]string{core.OpAdd: " + ", core.OpSub: " - "}[x.Op] + r
	case core.OpSeqLess:
		return fmt.Sprintf("rtp.SeqLess(%s, %s)", sc.as("uint16", x.Args[0]), sc.as("uint16", x.Args[1]))
	case core.OpWindowOK:
		a := x.Args
		return fmt.Sprintf("rtp.WindowOK(%s, %s, %s, %s, %s, %s)",
			sc.as("uint16", a[0]), sc.as("uint16", a[1]), sc.as("uint32", a[2]),
			sc.as("uint32", a[3]), sc.as("uint16", a[4]), sc.as("uint32", a[5]))
	}
	panic(fmt.Sprintf("no emitter for expression op %d", x.Op))
}

// operands renders a binary operator's two sides in one Go type: as
// written when their kinds agree or one is an untyped constant,
// otherwise both converted to wide.
func (sc scope) operands(a, b *core.Expr, wide string) (string, string) {
	if a.Kind == b.Kind || a.Op == core.OpLit || b.Op == core.OpLit {
		return sc.expr(a), sc.expr(b)
	}
	return sc.as(wide, a), sc.as(wide, b)
}

// as renders x converted to Go type typ (a no-op conversion is elided;
// an untyped constant needs none).
func (sc scope) as(typ string, x *core.Expr) string {
	if goType(x.Kind) == typ || (x.Op == core.OpLit && x.Kind != core.KindDuration) {
		return sc.expr(x)
	}
	return typ + "(" + sc.expr(x) + ")"
}

// stmts renders a statement list, one case per core.StmtOp. The
// presence-bit updates and δ appends of a straight-line run are folded
// into one store each, the way a person writes them; windows counts
// WindowAdvance temporaries so two in one function get distinct names.
func (sc scope) stmts(b *bytes.Buffer, list []*core.Stmt, windows *int) {
	var local, global, emits []string
	flush := func() {
		if len(local) > 0 {
			fmt.Fprintf(b, "m.set |= %s\n", strings.Join(local, " | "))
		}
		if len(global) > 0 {
			fmt.Fprintf(b, "m.g.set |= %s\n", strings.Join(global, " | "))
		}
		if len(emits) > 0 {
			fmt.Fprintf(b, "m.emits = append(m.emits, %s)\n", strings.Join(emits, ", "))
		}
		local, global, emits = nil, nil, nil
	}
	// mark notes x's presence bit for the next flush and returns the
	// field to assign.
	mark := func(x *core.Expr) string {
		if x.Op == core.OpGlobal {
			global = append(global, bit(sc.globals, x))
		} else {
			local = append(local, bit(sc.prefix, x))
		}
		return sc.expr(x)
	}
	for _, s := range list {
		switch s.Op {
		case core.StSet:
			fmt.Fprintf(b, "%s = %s\n", mark(s.Dst[0]), sc.as(goType(s.Dst[0].Kind), s.Src[0]))
		case core.StDelete:
			flush()
			fmt.Fprintf(b, "%s = %s\nm.set &^= %s\n", sc.expr(s.Dst[0]), kinds[s.Dst[0].Kind].zero, bit(sc.prefix, s.Dst[0]))
		case core.StEmit:
			emits = append(emits, fmt.Sprintf("core.SyncMsg{Target: %q, Event: %s}", s.Target, deltaVar(s.Event)))
		case core.StIf:
			flush()
			fmt.Fprintf(b, "if %s {\n", sc.expr(s.Cond))
			sc.stmts(b, s.Then, windows)
			if len(s.Else) > 0 {
				b.WriteString("} else {\n")
				sc.stmts(b, s.Else, windows)
			}
			b.WriteString("}\n")
		case core.StWindowAdvance:
			*windows++
			seq, ts := "seq", "ts"
			if *windows > 1 {
				seq, ts = fmt.Sprintf("seq%d", *windows), fmt.Sprintf("ts%d", *windows)
			}
			seqVar, tsVar := s.Dst[0], s.Dst[1]
			fmt.Fprintf(b, "%s, %s := rtp.WindowAdvance(%s, %s, %s, %s)\n", seq, ts,
				sc.as("uint16", seqVar), sc.as("uint16", s.Src[0]), sc.as("uint32", tsVar), sc.as("uint32", s.Src[1]))
			fmt.Fprintf(b, "%s = %s(%s)\n", mark(seqVar), goType(seqVar.Kind), seq)
			if tsVar.Kind != core.KindUint32 {
				ts = goType(tsVar.Kind) + "(" + ts + ")"
			}
			fmt.Fprintf(b, "%s = %s\n", mark(tsVar), ts)
		default:
			panic(fmt.Sprintf("no emitter for statement op %d", s.Op))
		}
	}
	flush()
}
