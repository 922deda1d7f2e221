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

var update = flag.Bool("update", false, "rewrite testdata/golden/*.txt from the analyzer's current output")

// goldenRuns names every analyzer run whose complete output is pinned
// under testdata/golden: each fixture directory on its own, and the
// whole module (which must stay empty).
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
	{"repo", nil},
}

// goldenOutput runs the analyzer the way the command does and renders
// every finding as `file:line:col: msg [kind]`, files relative to the
// module root, sorted.
func goldenOutput(t *testing.T, patterns []string) string {
	t.Helper()
	root, _, err := findModule(".")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := run(patterns, true, &buf); err != nil {
		t.Fatal(err)
	}
	var report jsonReport
	if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	lines := make([]string, 0, len(report.Findings))
	for _, f := range report.Findings {
		rel, err := filepath.Rel(root, f.File)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("%s:%d:%d: %s [%s]\n", filepath.ToSlash(rel), f.Line, f.Col, f.Msg, f.Kind))
	}
	sort.Strings(lines)
	return strings.Join(lines, "")
}

// TestGolden pins the analyzer's complete output — every position,
// message and kind — over each fixture directory and over the module
// itself. The substring-count tests say which classes fire; this says
// nothing else changed. Refresh with `go test ./cmd/vidslint -update`.
func TestGolden(t *testing.T) {
	root, _, err := findModule(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			patterns := []string{filepath.Join(root, "...")}
			if g.dirs != nil {
				patterns = patterns[:0]
				for _, d := range g.dirs {
					patterns = append(patterns, filepath.Join("testdata", "src", filepath.FromSlash(d)))
				}
			}
			got := goldenOutput(t, patterns)
			path := filepath.Join("testdata", "golden", g.name+".txt")
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
				t.Errorf("output differs from %s (regenerate with -update after reviewing):\n--- want\n%s--- got\n%s", path, want, got)
			}
		})
	}
}
