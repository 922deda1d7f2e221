package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/*.txt and WAIVERS.json from the analyzer's current output")

// goldenRuns names every analyzer run whose complete output is pinned
// under testdata/golden: each fixture on its own, and the whole module
// (which must stay empty).
var goldenRuns = []struct {
	name string
	dirs []string // relative to testdata/src; nil means the module's ./...
}{
	{"badpkg", []string{"badpkg"}},
	{"impure", []string{"impure"}},
	{"impure2", []string{"impure2"}},
	{"noalloc", []string{"noalloc"}},
	{"nopanic", []string{"nopanic"}},
	{"internal_engine", []string{"internal/engine"}},
	{"internal_timerwheel", []string{"internal/timerwheel"}},
	{"internal_ids", []string{"internal/ids"}},
	{"lockcycle", []string{"lockcycle/a", "lockcycle/b"}},
	{"lockhygiene", []string{"lockhygiene"}},
	{"repo", nil},
}

// report runs the analyzer the way `vidslint -json` does and decodes
// the document, with file names relative to the module root.
func report(t *testing.T, patterns ...string) jsonReport {
	t.Helper()
	root, _, err := findModule(".")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := run(patterns, true, &buf); err != nil {
		t.Fatal(err)
	}
	var rep jsonReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	rel := func(file string) string {
		r, err := filepath.Rel(root, file)
		if err != nil {
			t.Fatal(err)
		}
		return filepath.ToSlash(r)
	}
	for i := range rep.Findings {
		rep.Findings[i].File = rel(rep.Findings[i].File)
	}
	for i := range rep.Waivers {
		rep.Waivers[i].File = rel(rep.Waivers[i].File)
	}
	return rep
}

// The whole-module report, shared by the tests that read it.
var (
	repoRep     jsonReport
	repoRepDone bool
)

func repoReport(t *testing.T) jsonReport {
	t.Helper()
	if !repoRepDone {
		root, _, err := findModule(".")
		if err != nil {
			t.Fatal(err)
		}
		repoRep, repoRepDone = report(t, filepath.Join(root, "...")), true
	}
	return repoRep
}

// compareGolden holds got to the committed file, or rewrites the file
// under -update.
func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (review, then regenerate with -update):\n--- want\n%s--- got\n%s", path, want, got)
	}
}

// TestGolden pins the analyzer's complete output — every position,
// message and kind, as sorted `file:line:col: msg [kind]` lines — over
// each fixture and over the module itself. The substring-count tests
// say which classes fire; this says nothing else changed. Refresh with
// `go test ./cmd/vidslint -update`.
func TestGolden(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			var rep jsonReport
			if g.dirs == nil {
				rep = repoReport(t)
			} else {
				patterns := make([]string, len(g.dirs))
				for i, d := range g.dirs {
					patterns[i] = filepath.Join("testdata", "src", filepath.FromSlash(d))
				}
				rep = report(t, patterns...)
			}
			lines := make([]string, len(rep.Findings))
			for i, f := range rep.Findings {
				lines[i] = fmt.Sprintf("%s:%d:%d: %s [%s]\n", f.File, f.Line, f.Col, f.Msg, f.Kind)
			}
			sort.Strings(lines)
			compareGolden(t, filepath.Join("testdata", "golden", g.name+".txt"), strings.Join(lines, ""))
		})
	}
}

// TestWaiverInventory holds the module's suppression surface to the
// committed WAIVERS.json: every //vids:alloc-ok, //vids:panic-ok,
// //vids:coldpath, //vids:lockorder and //vidslint:allow, keyed by
// file, function, directive and reason — no line numbers, so unrelated
// edits do not churn it. Adding, dropping or rewording a waiver fails
// here until the file is refreshed (`make waivers`) and the diff shows
// up in review.
func TestWaiverInventory(t *testing.T) {
	type entry struct {
		File      string `json:"file"`
		Func      string `json:"func,omitempty"`
		Directive string `json:"directive"`
		Scope     string `json:"scope"`
		Reason    string `json:"reason"`
	}
	entries := []entry{}
	for _, w := range repoReport(t).Waivers {
		entries = append(entries, entry{w.File, w.Func, w.Directive, w.Scope, w.Reason})
	}
	sort.SliceStable(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		if a.Directive != b.Directive {
			return a.Directive < b.Directive
		}
		return a.Reason < b.Reason
	})
	var got bytes.Buffer
	enc := json.NewEncoder(&got)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false) // reasons are prose: keep "->" and "&" readable
	if err := enc.Encode(entries); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "WAIVERS.json", got.String())
}
