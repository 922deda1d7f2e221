// Command vidslint is vids' repo-specific static analyzer, built on
// the standard library's go/parser, go/ast and go/types, plus the
// object-code listing of the toolchain that runs it. It loads
// the requested package directories, builds one program index over
// them (index.go: the function table, every call classified once,
// every directive comment in one table) and runs its rule sets over
// that index. Per package, where the rule table in analyzer.go says a
// rule applies:
//
//   - results of (*core.Machine).Step / (*core.System).Deliver /
//     DeliverSync must not be discarded outright — ErrNoTransition is
//     the specification-deviation signal (paper Section 4);
//   - core.Event.Args must not be indexed directly outside
//     internal/core — the typed accessors own the wire-type handling;
//   - a packet Payload must not be converted to a string outside
//     internal/sipmsg — that copies the body once per packet;
//   - every spec builder in internal/ids must declare Final or Attack
//     states and be reachable from the ids.Specs registry, so
//     cmd/fsmdump and internal/speclint actually verify it;
//   - transition guards (the Predicate arguments of Spec.On and
//     OnLabeled) must be side-effect free — no Ctx.Emit, no writes to
//     Vars or Globals — because Step evaluates every guard to prove
//     disjointness and speclint re-runs them under synthetic probes;
//   - simulation-driven packages (internal/ids, internal/engine,
//     internal/ingress) must not call time.Now or time.Sleep: detection
//     time comes from the virtual clock so trace replay reproduces live
//     runs exactly. Deliberate wall-clock sites carry
//     //vidslint:allow wallclock.
//
// Over the whole program:
//
//   - the static call closure of every //vids:noalloc root — the
//     per-packet path — must be free of heap allocations, up to
//     //vids:coldpath callees and justified //vids:alloc-ok waivers:
//     the gate compiles the reached packages with `go build
//     -gcflags=<pkg>=-S` (offline, through the build cache, linking
//     nothing into the tree) and reads every runtime allocator call
//     from the listing (escape.go); it must cover whatever
//     alloc_test.go measures (drift.go);
//   - the static call closure of every //vids:nopanic root — the
//     parsers and dispatchers that consume raw network bytes — must be
//     free of potential runtime panics, up to justified //vids:panic-ok
//     waivers: the same listing (one build serves both gates,
//     object.go) holds every index, slice, conversion, division, shift
//     and type-assertion check and every explicit panic that the
//     compiler's prove pass left; map writes, nil dereferences, make
//     sizes and truncating index conversions are source rules
//     (nopanic.go);
//   - wherever a sync.Mutex, RWMutex or Cond is used, in any package:
//     no lock-order cycle (callees in other packages contribute the
//     locks they take), no blocking operation or callback under a
//     queue lock, no if-guarded Cond.Wait, no goroutine launched under
//     a lock (locks.go);
//   - every directive must still do something: a waiver that excuses
//     nothing, a coldpath no hot path reaches, a lockorder the walk
//     observes for itself, an allow with no wall-clock read beside it
//     are findings themselves.
//
// Usage:
//
//	vidslint ./...          # lint the whole module (the CI gate)
//	vidslint ./internal/ids # lint one package directory
//	vidslint -json ./...    # {findings, waivers} JSON on stdout
//
// The -json document carries each finding's kind and the inventory of
// every suppression — alloc-ok, panic-ok, coldpath, lockorder,
// vidslint:allow — with file, line, scope, function, justification and
// whether it did anything, so CI artifacts expose the complete
// suppression surface for audit. cmd/vidslint/WAIVERS.json is that
// inventory without line numbers, committed: a tier-1 test fails when
// a waiver is added, dropped or reworded without refreshing it
// (`make waivers`).
//
// Exit status: 0 clean, 1 findings, 2 operational error.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	fs := flag.NewFlagSet("vidslint", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array instead of file:line lines")
	_ = fs.Parse(os.Args[1:])
	findings, err := run(fs.Args(), *jsonOut, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vidslint:", err)
		os.Exit(2)
	}
	if findings > 0 {
		os.Exit(1)
	}
}

// jsonFinding is the machine-readable shape of one diagnostic. kind is
// "noalloc" or "nopanic" for the two closure gates, "directive" for
// directive hygiene and "lint" for everything else (the per-package
// rules, the lock gate, drift), so CI artifacts can be filtered.
type jsonFinding struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Msg  string `json:"msg"`
	Kind string `json:"kind"`
}

// jsonWaiver is one entry of the waiver inventory: every suppression
// in the analyzed packages — //vids:alloc-ok, //vids:panic-ok,
// //vids:coldpath, //vids:lockorder and //vidslint:allow — with its
// scope, the function it sits on or in, its justification and whether
// it did anything this run. The inventory makes the suppression
// surface auditable from the CI artifact alone; cmd/vidslint/WAIVERS.json
// is the same list without line numbers, committed and diffed.
type jsonWaiver struct {
	File      string `json:"file"`
	Line      int    `json:"line"`
	Directive string `json:"directive"`
	Reason    string `json:"reason"`
	Used      bool   `json:"used"`
	Scope     string `json:"scope"` // "line", "function" or "declaration"
	Func      string `json:"func,omitempty"`
}

// jsonReport is the -json document: the findings plus the full waiver
// inventory.
type jsonReport struct {
	Findings []jsonFinding `json:"findings"`
	Waivers  []jsonWaiver  `json:"waivers"`
}

func run(patterns []string, jsonOut bool, out io.Writer) (int, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		return 0, err
	}
	root, module, err := findModule(wd)
	if err != nil {
		return 0, err
	}
	a := newAnalyzer(root, module)
	dirs, err := a.expandPatterns(patterns)
	if err != nil {
		return 0, err
	}
	// Load every requested directory first: the program index is built
	// once, over all of them, and every rule set reads it.
	var loaded []*pkgInfo
	for _, dir := range dirs {
		pi, err := a.load(dir)
		if err != nil {
			return 0, err
		}
		if pi != nil {
			loaded = append(loaded, pi)
		}
	}
	all := make([]finding, 0, 8)
	for _, pi := range loaded {
		all = append(all, a.packageFindings(pi)...)
	}
	progFindings, err := a.programFindings()
	if err != nil {
		return len(all), err
	}
	all = append(all, progFindings...)
	if jsonOut {
		report := jsonReport{Findings: make([]jsonFinding, len(all)), Waivers: a.index().inventory()}
		for i, f := range all {
			kind := f.kind
			if kind == "" {
				kind = "lint"
			}
			report.Findings[i] = jsonFinding{File: f.pos.Filename, Line: f.pos.Line, Col: f.pos.Column, Msg: f.msg, Kind: kind}
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return len(all), err
		}
		return len(all), nil
	}
	for _, f := range all {
		fmt.Fprintln(out, f)
	}
	return len(all), nil
}

// findModule walks up from dir to the enclosing go.mod and returns
// the module root directory and module path.
func findModule(dir string) (root, module string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for cur := dir; ; {
		modfile := filepath.Join(cur, "go.mod")
		if _, statErr := os.Stat(modfile); statErr == nil {
			mod, parseErr := modulePath(modfile)
			if parseErr != nil {
				return "", "", parseErr
			}
			return cur, mod, nil
		}
		parent := filepath.Dir(cur)
		if parent == cur {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		cur = parent
	}
}

func modulePath(modfile string) (string, error) {
	f, err := os.Open(modfile)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: no module directive", modfile)
}
