package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Both closure gates ask the compiler. One `go build` over the module
// packages the noalloc or the nopanic walk reaches, with -S for exactly
// those packages, lists every instruction with the source line it was
// compiled from, under the symbol of the function whose body holds it.
// Every CALL to a runtime allocator or panic is read from there. The
// build runs the toolchain that runs vidslint, offline, through the
// build cache, and discards what it links; an analyzer builds it once.

// runtimeFn names runtime functions the listing's calls are matched
// against: a trailing * names a family (makemap_small, panicIndexU, …);
// what is the finding text.
type runtimeFn struct{ name, what string }

// lookup returns the finding text of a call to runtime.fn in table, or
// "" when no entry names fn.
func lookup(table []runtimeFn, fn string) string {
	for _, r := range table {
		if family, ok := strings.CutSuffix(r.name, "*"); fn == r.name || ok && strings.HasPrefix(fn, family) {
			return fmt.Sprintf("%s (runtime.%s)", r.what, fn)
		}
	}
	return ""
}

// objCall is one runtime call of the listing.
type objCall struct {
	file string // as the listing names it: absolute, or <autogenerated>
	line int
	fn   string // the runtime function
}

// listing is one parsed -S build.
type listing struct {
	pkgs map[string]bool // the packages compiled with -S
	// lines holds, for every file the listing places code in, the
	// runtime allocators and panics called on each line, each once.
	lines map[string]map[int][]string
	// outside holds, by function symbol, the panics whose position is
	// outside the module: stdlib bodies the compiler inlined there.
	outside map[string][]objCall
}

// code returns the runtime calls the listing places in node's file, by
// line. A listing with no code from that file is an error, not a clean
// verdict: the gates fail closed when the listing's file names or
// format stop matching the index.
func (l *listing) code(ix *index, node *funcNode) (map[int][]string, error) {
	name := ix.a.fset.File(node.decl.Pos()).Name()
	if lines := l.lines[name]; lines != nil {
		return lines, nil
	}
	return nil, fmt.Errorf("go build -S of the gated packages listed no code from %s (reached through %s)", name, node.name())
}

// objectCode returns the listing of the module packages the given
// closures reach. An analyzer builds it once, and again only when a
// later call reaches a package the listing lacks.
func (a *analyzer) objectCode(closures ...*closure) (*listing, error) {
	pkgs := make(map[string]bool)
	if a.obj != nil {
		pkgs = maps.Clone(a.obj.pkgs)
	}
	listed := len(pkgs)
	for _, cl := range closures {
		for node := range cl.reached {
			pkgs[node.pkg.path] = true
		}
	}
	if a.obj != nil && len(pkgs) == listed {
		return a.obj, nil
	}
	obj, err := a.compile(pkgs)
	if err == nil {
		a.obj = obj
	}
	return obj, err
}

// compile compiles the given module packages with -S and parses the
// listing. The files of the analyzer's overlay reach the compiler
// through `go build -overlay`, so the listing is of the source the
// index holds.
func (a *analyzer) compile(pkgs map[string]bool) (*listing, error) {
	obj := &listing{pkgs: pkgs, lines: make(map[string]map[int][]string), outside: make(map[string][]objCall)}
	if len(pkgs) == 0 {
		return obj, nil
	}
	targets := make([]string, 0, len(pkgs))
	for p := range pkgs {
		targets = append(targets, p)
	}
	sort.Strings(targets)
	args := []string{"build", "-o", os.DevNull}
	for _, p := range targets {
		args = append(args, "-gcflags="+p+"=-S")
	}
	if len(a.overlay) > 0 {
		dir, err := os.MkdirTemp("", "vidslint-overlay")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		replace := make(map[string]string)
		for file, src := range a.overlay {
			replace[file] = filepath.Join(dir, strconv.Itoa(len(replace))+".go")
			if err := os.WriteFile(replace[file], src, 0o644); err != nil {
				return nil, err
			}
		}
		js, err := json.Marshal(map[string]any{"Replace": replace})
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, "overlay.json"), js, 0o644)
		}
		if err != nil {
			return nil, err
		}
		args = append(args, "-overlay", filepath.Join(dir, "overlay.json"))
	}
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), append(args, targets...)...)
	cmd.Dir = a.moduleRoot
	// The user's GOFLAGS could rename the listing's files (-trimpath)
	// or change what it compiles, so none pass through.
	cmd.Env = append(cmd.Environ(), "GOTOOLCHAIN=local", "GOPROXY=off", "GOFLAGS=")
	// The listing is the compiler's -S output, which the go command
	// prints on stderr beside its own diagnostics.
	out, err := cmd.CombinedOutput()
	listed := strings.Split(string(out), "\n")
	if err != nil {
		var diag []string
		for _, line := range listed {
			if line != "" && !strings.HasPrefix(line, "\t") && !strings.Contains(line, " size=") {
				diag = append(diag, line)
			}
		}
		return nil, fmt.Errorf("go build -S of the gated packages: %v\n%s", err, strings.Join(diag, "\n"))
	}
	// A function's code follows its header line
	//	vids/internal/sipmsg.ParseVia STEXT size=1430 args=0x10 ...
	// and every instruction line carries its source position; a runtime
	// call reads
	//	0x00a0 00160 (/path/file.go:902)	CALL	runtime.newobject(SB)
	// Every file the listing places code in gets an entry, so a file
	// with none is told apart from a file without allocations or panics.
	root := a.moduleRoot + string(filepath.Separator)
	var symbol string
	for _, line := range listed {
		if sym, _, ok := strings.Cut(line, " STEXT "); ok && !strings.HasPrefix(line, "\t") {
			symbol = sym
			continue
		}
		loc, instr, ok := strings.Cut(line, ")\t")
		open, colon := strings.IndexByte(loc, '('), strings.LastIndexByte(loc, ':')
		if !ok || open < 0 || colon < open {
			continue
		}
		n, err := strconv.Atoi(loc[colon+1:])
		if err != nil {
			continue
		}
		file := loc[open+1 : colon]
		if obj.lines[file] == nil {
			obj.lines[file] = make(map[int][]string)
		}
		fn, ok := strings.CutPrefix(instr, "CALL\truntime.")
		fn, _, _ = strings.Cut(fn, "(")
		panics := ok && panicking(fn) != ""
		if ok && (panics || allocation(fn) != "") && !slices.Contains(obj.lines[file][n], fn) {
			obj.lines[file][n] = append(obj.lines[file][n], fn)
		}
		if c := (objCall{file, n, fn}); panics && !strings.HasPrefix(file, root) && !slices.Contains(obj.outside[symbol], c) {
			obj.outside[symbol] = append(obj.outside[symbol], c)
		}
	}
	return obj, nil
}

// symbol returns the function's symbol as the listing names it:
// pkg.F, pkg.T.M or pkg.(*T).M.
func (n *funcNode) symbol() string {
	name := n.decl.Name.Name
	if n.decl.Recv != nil && len(n.decl.Recv.List) == 1 {
		recv := n.decl.Recv.List[0].Type
		typ := recvTypeName(recv)
		if _, ptr := recv.(*ast.StarExpr); ptr {
			typ = "(*" + typ + ")"
		}
		name = typ + "." + name
	}
	return n.pkg.path + "." + name
}
