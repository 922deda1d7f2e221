package main

import (
	"bytes"
	"fmt"
	"go/token"
	"sort"
	"strings"

	"vids/internal/core"
)

// cell is one compiled transition before emission: its table entry
// plus the IR the guard and action bodies are emitted from.
type cell struct {
	to    int
	fn    int
	label string
	pred  *core.Expr
	act   *core.Block
}

// model is one machine's flattened table.
type model struct {
	spec    *core.Spec
	tblVar  string
	states  []core.State
	events  []string
	initial int
	final   []bool
	attack  []bool
	cells   [][][]cell // [state][event][candidate]
}

func buildModel(spec *core.Spec) (*model, error) {
	m := &model{spec: spec, tblVar: "tbl" + camel(spec.Name)}
	m.states = spec.States()
	stateIx := make(map[core.State]int, len(m.states))
	for i, st := range m.states {
		stateIx[st] = i
	}
	if len(m.states) > 255 {
		return nil, fmt.Errorf("%s: %d states overflow the uint8 table index", spec.Name, len(m.states))
	}
	m.initial = stateIx[spec.Initial]

	seen := make(map[string]bool)
	for _, t := range spec.Transitions() {
		if !seen[t.Event] {
			seen[t.Event] = true
			m.events = append(m.events, t.Event)
		}
	}
	sort.Strings(m.events)
	eventIx := make(map[string]int, len(m.events))
	for i, ev := range m.events {
		eventIx[ev] = i
	}

	m.final = make([]bool, len(m.states))
	m.attack = make([]bool, len(m.states))
	for i, st := range m.states {
		m.final[i] = spec.IsFinal(st)
		m.attack[i] = spec.IsAttack(st)
	}

	m.cells = make([][][]cell, len(m.states))
	for i := range m.cells {
		m.cells[i] = make([][]cell, len(m.events))
	}
	// Transitions() yields (sorted from, sorted event, insertion order):
	// appending preserves the interpreter's in-cell candidate order, and
	// numbering in the same walk gives each transition its family-wide
	// dispatch index.
	for fn, t := range spec.Transitions() {
		if (t.Guard != nil) != (t.Pred != nil) || (t.Do != nil) != (t.Act != nil) {
			return nil, fmt.Errorf("%s: transition %q -%s-> %q is authored as a closure; only IR (Spec.When) compiles",
				spec.Name, t.From, t.Event, t.To)
		}
		si, ei := stateIx[t.From], eventIx[t.Event]
		m.cells[si][ei] = append(m.cells[si][ei], cell{
			to: stateIx[t.To], fn: fn, label: t.Label, pred: t.Pred, act: t.Act,
		})
	}
	if n := len(spec.Transitions()); n > 1<<16-1 {
		return nil, fmt.Errorf("%s: %d transitions overflow the uint16 dispatch index", spec.Name, n)
	}
	return m, nil
}

// walk visits every candidate in table order.
func (m *model) walk(visit func(si, ei, ci int, c *cell)) {
	for si := range m.cells {
		for ei := range m.cells[si] {
			for ci := range m.cells[si][ei] {
				visit(si, ei, ci, &m.cells[si][ei][ci])
			}
		}
	}
}

// family is one compiled machine type: the specifications that share
// it, and what the emitter declares for it, collected from the
// representative's IR.
type family struct {
	Name    string // Go type prefix: "SIP" -> SIPMachine
	Prefix  string // identifier prefix: "sip"
	Members []*model
	Vector  *core.Vector // typed input vector, nil if every argument is map-only
	Locals  []*core.Expr // widest first, then by first use
	Params  []*core.Expr // by first use
	Globals bool         // reads or writes g.*
	Emits   bool
	shape   string
}

func (f *family) rep() *model { return f.Members[0] }

// program is everything one generator run emits.
type program struct {
	Models   []*model
	Families []*family
	Vectors  []*core.Vector
	Globals  []*core.Expr // the shared g.* store, by first use
	Deltas   []core.Event // pre-built δ events, by first use
}

// analyze flattens the specs, groups them into families by structural
// identity, and collects the variables, parameters, vectors and δ
// events the emitter declares.
func analyze(specs []*core.Spec, globalsType string) (*program, error) {
	p := &program{}
	for _, spec := range specs {
		m, err := buildModel(spec)
		if err != nil {
			return nil, err
		}
		p.Models = append(p.Models, m)
		name := spec.Family
		if name == "" {
			name = camel(spec.Name)
		}
		prefix := strings.ToLower(name)
		shape, err := shapeOf(m, scope{prefix: prefix, globals: lowerFirst(globalsType)})
		if err != nil {
			return nil, fmt.Errorf("%s: %v", spec.Name, err)
		}
		var fam *family
		for _, f := range p.Families {
			switch {
			case f.shape == shape:
				fam = f
			case f.Name == name:
				return nil, fmt.Errorf("%s and %s both name family %s but differ structurally", f.rep().spec.Name, spec.Name, name)
			}
		}
		if fam == nil {
			fam = &family{Name: name, Prefix: prefix, shape: shape}
			p.Families = append(p.Families, fam)
		}
		fam.Members = append(fam.Members, m)
	}
	for _, f := range p.Families {
		if err := p.collect(f); err != nil {
			return nil, fmt.Errorf("%s: %v", f.rep().spec.Name, err)
		}
	}
	return p, nil
}

// shapeOf renders what a machine's compiled type is made of — states
// and markings, views, and per cell the target plus the Go its guard
// and action compile to — leaving out what twins may differ in: event
// names, labels and parameter values (a parameter renders as its field,
// whatever its value). Two specs with equal shapes share one machine
// type: rtp-caller/rtp-callee, invite-flood/response-flood.
func shapeOf(m *model, sc scope) (shape string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r) // the emitter panics on IR it cannot render
		}
	}()
	var b bytes.Buffer
	fmt.Fprintln(&b, sc.prefix, m.states, m.initial, m.final, m.attack, len(m.events))
	for _, v := range m.spec.Views {
		fmt.Fprintln(&b, "view", v.Name, len(v.Vars))
		for _, x := range v.Vars {
			fmt.Fprintln(&b, sc.expr(x))
		}
	}
	m.walk(func(si, ei, ci int, c *cell) {
		fmt.Fprintln(&b, "cell", si, ei, ci, c.to, c.pred != nil, c.act != nil)
		if c.pred != nil {
			fmt.Fprintln(&b, sc.expr(c.pred))
		}
		if c.act != nil {
			sc.stmts(&b, c.act.Stmts, new(int))
		}
	})
	return b.String(), nil
}

// collect walks the representative's IR once, registering what the
// family's struct, parameter block and helpers must declare.
func (p *program) collect(f *family) error {
	var err error
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf(format, args...)
		}
	}
	// add appends x to the ordered set list unless a node of the same
	// name is there already (then the kinds must agree).
	add := func(list *[]*core.Expr, x *core.Expr) {
		for _, have := range *list {
			if have.Name == x.Name {
				if have.Kind != x.Kind {
					fail("%s is used with two kinds", x.Name)
				}
				return
			}
		}
		*list = append(*list, x)
	}
	var expr func(x *core.Expr)
	expr = func(x *core.Expr) {
		switch x.Op {
		case core.OpArg:
			if x.Vector == nil {
				break
			}
			if f.Vector == nil {
				f.Vector = x.Vector
			} else if f.Vector != x.Vector {
				fail("reads two typed vectors (%s, %s)", f.Vector.Name, x.Vector.Name)
			}
			known := false
			for _, v := range p.Vectors {
				known = known || v == x.Vector
				if v != x.Vector && v.Name == x.Vector.Name {
					fail("two vectors are named %s", v.Name)
				}
			}
			if !known {
				p.Vectors = append(p.Vectors, x.Vector)
			}
		case core.OpLocal, core.OpGlobal:
			want, list := "l.", &f.Locals
			if x.Op == core.OpGlobal {
				want, list, f.Globals = "g.", &p.Globals, true
			}
			if field, ok := strings.CutPrefix(x.Name, want); !ok || !token.IsIdentifier(field) || reservedField[field] {
				fail("variable %q cannot be a struct field (want %s<identifier>)", x.Name, want)
			}
			add(list, x)
		case core.OpParam:
			if !token.IsExported(x.Name) || !token.IsIdentifier(x.Name) {
				fail("parameter %q is not an exported Go identifier", x.Name)
			}
			add(&f.Params, x)
		}
		for _, a := range x.Args {
			expr(a)
		}
	}
	var stmts func(ss []*core.Stmt)
	stmts = func(ss []*core.Stmt) {
		for _, s := range ss {
			for _, x := range s.Dst {
				expr(x)
			}
			for _, x := range s.Src {
				expr(x)
			}
			if s.Op == core.StEmit {
				f.Emits = true
				known := false
				for _, d := range p.Deltas {
					known = known || deltaVar(d) == deltaVar(s.Event)
				}
				if !known {
					p.Deltas = append(p.Deltas, s.Event)
				}
			}
			if s.Cond != nil {
				expr(s.Cond)
			}
			stmts(s.Then)
			stmts(s.Else)
		}
	}
	f.rep().walk(func(_, _, _ int, c *cell) {
		if c.pred != nil {
			expr(c.pred)
		}
		if c.act != nil {
			stmts(c.act.Stmts)
		}
	})
	for _, v := range f.rep().spec.Views {
		for _, x := range v.Vars {
			if x.Op != core.OpLocal {
				fail("view %s lists %s, which is not a local variable", v.Name, x.Name)
			}
			expr(x)
		}
	}
	if len(f.Locals) > 16 {
		fail("%d local variables overflow the 16-bit presence mask", len(f.Locals))
	}
	// Widest fields first keeps the struct free of interior padding;
	// the stable sort leaves equal-sized fields in first-use order.
	sort.SliceStable(f.Locals, func(i, j int) bool {
		return kinds[f.Locals[i].Kind].size > kinds[f.Locals[j].Kind].size
	})
	return err
}

// reservedField lists the machine shell's own field names.
var reservedField = map[string]bool{
	"tbl": true, "state": true, "set": true, "cover": true, "steps": true,
	"g": true, "p": true, "emits": true, "machBase": true,
}

// field is the struct field holding variable x: its key without the
// "l." or "g." scope prefix (collect has checked it is an identifier).
func field(x *core.Expr) string { return x.Name[2:] }

// bit is the presence-bit constant of variable x in a struct whose
// identifiers carry prefix.
func bit(prefix string, x *core.Expr) string { return prefix + "Set" + upperFirst(field(x)) }

// deltaVar names the Go variable holding the pre-built δ event e:
// delta.open{party: callee} -> deltaOpenPartyCallee.
func deltaVar(e core.Event) string {
	keys := make([]string, 0, len(e.Args))
	for k := range e.Args {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	name := e.Name
	for _, k := range keys {
		name += fmt.Sprintf(" %s %v", k, e.Arg(k))
	}
	return lowerFirst(camel(name))
}

// camel turns a spec or event name ("rtp-caller", "delta.open party
// callee") into an exported Go identifier fragment (RtpCaller).
func camel(s string) string {
	var b strings.Builder
	for _, part := range strings.FieldsFunc(s, func(r rune) bool { return !isAlnum(r) }) {
		b.WriteString(upperFirst(part))
	}
	return b.String()
}

// sanitize turns a state or event name into a Go identifier fragment.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		if isAlnum(r) {
			return r
		}
		return '_'
	}, s)
}

func isAlnum(r rune) bool {
	return r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
}

func upperFirst(s string) string { return strings.ToUpper(s[:1]) + s[1:] }
func lowerFirst(s string) string { return strings.ToLower(s[:1]) + s[1:] }
