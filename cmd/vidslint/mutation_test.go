package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// loadRepo loads every package of the module into a fresh analyzer,
// reading the files named in overlay from memory instead of disk.
func loadRepo(t *testing.T, overlay map[string][]byte) *analyzer {
	t.Helper()
	a := newTestAnalyzer(t)
	a.overlay = overlay
	dirs, err := a.expandPatterns([]string{filepath.Join(a.moduleRoot, "...")})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		if _, err := a.load(dir); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// mutation is one seeded violation the gates must report.
type mutation struct {
	file   string
	offset int      // byte offset the text is inserted at; -1 appends to the file
	text   string   // stays on the line it is inserted in, so no line number moves
	kind   string   // the finding's kind
	want   []string // substrings of its message
	fn     string   // the function the call path must end at ("" for lock edges)
	found  int
}

// gateMutations seeds one violation at the top of every root of a gate
// and of one deepest function of each root's own closure that has no
// function-level waiver to excuse the site (the root itself at worst:
// no root carries one).
func gateMutations(t *testing.T, ix *index, root, waiver string, edge func(*callSite) bool, m mutation) (muts []*mutation, roots map[string]bool) {
	t.Helper()
	targets := make(map[*funcNode]bool)
	roots = make(map[string]bool)
	for _, r := range ix.roots(root) {
		roots[r.name()] = true
		cl := ix.walk([]*funcNode{r}, edge, nil)
		deepest := r
		depthOf := func(n *funcNode) (d int) {
			for p := cl.parent[n]; p != nil; p = cl.parent[p] {
				d++
			}
			return d
		}
		for n := range cl.reached {
			if n.dirs[waiver] != nil {
				continue
			}
			if depthOf(n) > depthOf(deepest) || depthOf(n) == depthOf(deepest) && n.key < deepest.key {
				deepest = n
			}
		}
		targets[r], targets[deepest] = true, true
	}
	for n := range targets {
		mut := m
		pos := ix.a.fset.Position(n.decl.Body.Lbrace)
		mut.file, mut.offset, mut.fn = pos.Filename, pos.Offset+1, n.name()
		muts = append(muts, &mut)
	}
	t.Logf("//%s: %d roots, %d seeded functions", root, len(roots), len(muts))
	if len(roots) == 0 {
		t.Errorf("no //%s root found", root)
	}
	return muts, roots
}

// TestGatesCatchSeededViolations is the gates' own test: a gate that
// guards everything must itself be checked. Into an in-memory copy of
// the module it seeds an allocation at the top of every //vids:noalloc
// root and of a deepest function of each root's closure, an unguarded
// index the same way for every //vids:nopanic root, and the reverse of
// every lock order the lock gate observes; one analyzer run must then
// report exactly one finding per seed, of the right kind, whose call
// path starts at a root and ends at the seeded function.
func TestGatesCatchSeededViolations(t *testing.T) {
	base := loadRepo(t, nil)
	ix := base.index()

	allocs, hotRoots := gateMutations(t, ix, dirNoalloc, dirAllocOK, staysHot,
		mutation{text: " _ = new(int);", kind: "noalloc", want: []string{"new allocates"}})
	panics, rawRoots := gateMutations(t, ix, dirNopanic, dirPanicOK, everyEdge,
		mutation{text: " var vidsmut []byte; _ = vidsmut[3];", kind: "nopanic", want: []string{"index vidsmut[3] is not dominated by a bounds check"}})
	muts := append(allocs, panics...)

	// A reversed acquisition cannot always be written as code — Go's
	// import graph keeps the callee's package from naming the caller's
	// lock — so the reverse order is declared, the way a callback that
	// took the locks backwards would have to be.
	locks := checkLocks(ix)
	for edge := range locks.observed {
		from, to := edge[0], edge[1]
		muts = append(muts, &mutation{
			file: locks.edges[from][to].Filename, offset: -1,
			text: fmt.Sprintf("\n//vids:lockorder %s -> %s mutation self-test: the reverse of an observed order\n", to, from),
			kind: "", want: []string{"lock-order cycle: ", from, to},
		})
	}
	t.Logf("lock gate: %d observed orders reversed", len(locks.observed))
	if len(locks.observed) == 0 {
		t.Error("the lock gate observes no lock order in the module; fastpath's InstallCall and Forget take a stripe lock under a registry stripe")
	}

	overlay := make(map[string][]byte)
	sort.Slice(muts, func(i, j int) bool { return muts[i].offset > muts[j].offset }) // insert back to front
	for _, m := range muts {
		src, ok := overlay[m.file]
		if !ok {
			var err error
			if src, err = os.ReadFile(m.file); err != nil {
				t.Fatal(err)
			}
		}
		at := m.offset
		if at < 0 {
			at = len(src)
		}
		overlay[m.file] = []byte(string(src[:at]) + m.text + string(src[at:]))
	}

	mutated := loadRepo(t, overlay)
	var fs []finding
	for _, pi := range mutated.sortedPkgs() {
		fs = append(fs, mutated.packageFindings(pi)...)
	}
	prog, err := mutated.programFindings()
	if err != nil {
		t.Fatal(err)
	}
	fs = append(fs, prog...)
next:
	for _, f := range fs {
		path := ""
		if _, rest, ok := strings.Cut(f.msg, " path: "); ok {
			path, _, _ = strings.Cut(rest, "]")
		}
		chain := strings.Split(path, " → ")
		for _, m := range muts {
			if f.kind != m.kind || !containsAll(f.msg, m.want) || m.fn != chain[len(chain)-1] {
				continue
			}
			if m.fn != "" && !hotRoots[chain[0]] && !rawRoots[chain[0]] {
				t.Errorf("call path does not start at a root: %s", f)
			}
			m.found++
			continue next
		}
		t.Errorf("finding matches no seeded violation: %s", f)
	}
	for _, m := range muts {
		if m.found != 1 {
			t.Errorf("seeded %q in %s (%s): reported %d times, want 1", strings.TrimSpace(m.text), m.fn, m.file, m.found)
		}
	}
}

func containsAll(s string, subs []string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}
