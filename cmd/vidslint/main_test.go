package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// newTestAnalyzer builds an analyzer rooted at the repo module
// (cmd/vidslint is two levels below the module root).
func newTestAnalyzer(t *testing.T) *analyzer {
	t.Helper()
	root, module, err := findModule(".")
	if err != nil {
		t.Fatal(err)
	}
	if module != "vids" {
		t.Fatalf("module = %q, want vids", module)
	}
	return newAnalyzer(root, module)
}

// analyzeDir loads one package directory and returns the findings of
// the per-package rules; the whole-program rule sets over everything
// loaded so far are programFindings.
func (a *analyzer) analyzeDir(dir string) ([]finding, error) {
	pi, err := a.load(dir)
	if pi == nil {
		return nil, err
	}
	return a.packageFindings(pi), nil
}

func countContaining(fs []finding, substr string) int {
	n := 0
	for _, f := range fs {
		if strings.Contains(f.msg, substr) {
			n++
		}
	}
	return n
}

func TestDroppedErrorAndArgsFixture(t *testing.T) {
	a := newTestAnalyzer(t)
	fs, err := a.analyzeDir(filepath.Join("testdata", "src", "badpkg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Log(f)
	}
	if got := countContaining(fs, "discarded"); got != 4 {
		t.Errorf("dropped-error findings = %d, want 4", got)
	}
	if got := countContaining(fs, "core.Event.Args"); got != 2 {
		t.Errorf("Args-indexing findings = %d, want 2", got)
	}
	if got := countContaining(fs, "Payload copies the body"); got != 2 {
		t.Errorf("payload-string findings = %d, want 2", got)
	}
	if len(fs) != 8 {
		t.Errorf("total findings = %d, want 8", len(fs))
	}
}

func TestSpecRegistryFixture(t *testing.T) {
	a := newTestAnalyzer(t)
	fs, err := a.analyzeDir(filepath.Join("testdata", "src", "internal", "ids"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Log(f)
	}
	if got := countContaining(fs, "neither Final nor Attack"); got != 1 {
		t.Errorf("missing-Final/Attack findings = %d, want 1", got)
	}
	if got := countContaining(fs, "not reachable from the Specs registry"); got != 1 {
		t.Errorf("unregistered-builder findings = %d, want 1", got)
	}
	for _, f := range fs {
		if strings.Contains(f.msg, "helperSpec") || strings.Contains(f.msg, "goodSpec") {
			t.Errorf("well-formed builder flagged: %s", f)
		}
	}
}

func TestGuardPurityFixture(t *testing.T) {
	a := newTestAnalyzer(t)
	fs, err := a.analyzeDir(filepath.Join("testdata", "src", "impure"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Log(f)
	}
	if got := countContaining(fs, "impure guard"); got != 3 {
		t.Errorf("guard-purity findings = %d, want 3", got)
	}
	if got := countContaining(fs, "calls (*core.Ctx).Emit"); got != 1 {
		t.Errorf("emit-in-guard findings = %d, want 1", got)
	}
	if got := countContaining(fs, "mutates machine variables"); got != 1 {
		t.Errorf("mutator-in-guard findings = %d, want 1", got)
	}
	if got := countContaining(fs, "assigns into a core.Vars map"); got != 1 {
		t.Errorf("index-assign-in-guard findings = %d, want 1", got)
	}
	if len(fs) != 3 {
		t.Errorf("total findings = %d, want 3 (PureGuard must not be flagged)", len(fs))
	}
}

func TestWallClockFixture(t *testing.T) {
	a := newTestAnalyzer(t)
	fs, err := a.analyzeDir(filepath.Join("testdata", "src", "internal", "engine"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Log(f)
	}
	if got := countContaining(fs, "virtual-clock determinism"); got != 3 {
		t.Errorf("wall-clock findings = %d, want 3 (annotated sites must not be flagged)", got)
	}
	if len(fs) != 3 {
		t.Errorf("total findings = %d, want 3", len(fs))
	}
}

// TestJSONOutput round-trips the -json mode: run over the badpkg
// fixture, decode the {findings, waivers} document, and check it
// matches the plain findings.
func TestJSONOutput(t *testing.T) {
	var buf bytes.Buffer
	n, err := run([]string{filepath.Join("testdata", "src", "badpkg")}, true, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var report jsonReport
	if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(report.Findings) != n || n != 8 {
		t.Fatalf("json records = %d, run reported %d, want 8", len(report.Findings), n)
	}
	for _, r := range report.Findings {
		if r.File == "" || r.Line <= 0 || r.Msg == "" || r.Kind == "" {
			t.Errorf("incomplete record: %+v", r)
		}
		if !strings.HasSuffix(r.File, ".go") {
			t.Errorf("file field %q is not a .go path", r.File)
		}
	}
	if report.Waivers == nil {
		t.Error("waiver inventory missing: want [] even when no waivers exist")
	}
}

// TestJSONWaiverInventory checks the suppression surface is exported:
// over the real module, the -json document lists the repo's waivers of
// every kind it carries, with non-empty justifications, all used.
func TestJSONWaiverInventory(t *testing.T) {
	report := repoReport(t)
	if len(report.Findings) != 0 {
		t.Errorf("repo findings = %d, want 0", len(report.Findings))
	}
	saw := make(map[string]bool)
	for _, w := range report.Waivers {
		saw[w.Directive] = true
		if w.Reason == "" {
			t.Errorf("%s:%d: waiver with empty reason in inventory", w.File, w.Line)
		}
		if !w.Used {
			t.Errorf("%s:%d: unused waiver %s survived the freshness sweep", w.File, w.Line, w.Directive)
		}
		if w.Scope != scopeLine && w.Scope != scopeFunc {
			t.Errorf("%s:%d: bad scope %q", w.File, w.Line, w.Scope)
		}
	}
	for _, kind := range []string{dirAllocOK, dirPanicOK, dirColdpath, dirWallclock} {
		if !saw["//"+kind] {
			t.Errorf("inventory lists no //%s; the repo carries several", kind)
		}
	}
}

// TestRepoIsClean is the CI acceptance property: the real codebase
// carries zero vidslint findings.
func TestRepoIsClean(t *testing.T) {
	a := newTestAnalyzer(t)
	dirs, err := a.expandPatterns([]string{filepath.Join(a.moduleRoot, "...")})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 10 {
		t.Fatalf("pattern expansion found only %d package dirs: %v", len(dirs), dirs)
	}
	sawIDS := false
	for _, dir := range dirs {
		fs, err := a.analyzeDir(dir)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, f := range fs {
			t.Errorf("%s", f)
		}
		if strings.HasSuffix(filepath.ToSlash(dir), "internal/ids") {
			sawIDS = true
		}
	}
	if !sawIDS {
		t.Error("internal/ids was not analyzed")
	}
}

func TestExpandPatternsSkipsTestdata(t *testing.T) {
	a := newTestAnalyzer(t)
	dirs, err := a.expandPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Fatalf("testdata dir not skipped: %s", d)
		}
	}
}

// TestEscapeGateFixture drives the whole-program allocation gate over
// the seeded noalloc fixture: one finding per violation class, path
// diagnostics from the root, and the directive-freshness sweep.
func TestEscapeGateFixture(t *testing.T) {
	a := newTestAnalyzer(t)
	perPkg, err := a.analyzeDir(filepath.Join("testdata", "src", "noalloc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(perPkg) != 0 {
		t.Errorf("per-package findings = %d, want 0 (all seeded violations are whole-program)", len(perPkg))
	}
	fs, err := a.programFindings()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Log(f)
	}
	want := map[string]int{
		"make allocates":                          1,
		"map assignment may grow":                 1,
		"conversion string([]byte) copies":        1,
		"go statement allocates":                  1,
		"dynamic call through function value":     1,
		"into an interface boxes it":              1,
		"composite literal escapes":               1,
		"stale //vids:alloc-ok on noalloc.Frozen": 1,
		"stale //vids:coldpath":                   2,
		"both //vids:noalloc and //vids:coldpath": 1,
		"needs a non-empty justification":         1,
		"no hot-path allocation finding":          1,
	}
	for substr, n := range want {
		if got := countContaining(fs, substr); got != n {
			t.Errorf("findings containing %q = %d, want %d", substr, got, n)
		}
	}
	if got := countContaining(fs, "noalloc.Hot → noalloc.escape"); got != 1 {
		t.Errorf("call-graph path diagnostics = %d, want 1 (root-to-site path must name the chain)", got)
	}
	if len(fs) != 13 {
		t.Errorf("total findings = %d, want 13", len(fs))
	}
}

// TestEscapeGateExitsNonzero is the CI contract: run() reports the
// seeded escape violations so `make lint` exits 1.
func TestEscapeGateExitsNonzero(t *testing.T) {
	var buf bytes.Buffer
	n, err := run([]string{filepath.Join("testdata", "src", "noalloc")}, false, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 13 {
		t.Errorf("run reported %d findings, want 13\n%s", n, buf.String())
	}
	if !strings.Contains(buf.String(), "hot path:") {
		t.Errorf("plain output lacks a hot-path diagnostic:\n%s", buf.String())
	}
}

// TestLockDisciplineFixture drives the concurrency gate over the
// seeded fixture: lock-order cycle, if-guarded Wait, blocking send,
// callback and goroutine under the queue lock, malformed directive.
// The disciplined ok() shapes must stay clean.
func TestLockDisciplineFixture(t *testing.T) {
	a := newTestAnalyzer(t)
	perPkg, err := a.analyzeDir(filepath.Join("testdata", "src", "internal", "timerwheel"))
	if err != nil {
		t.Fatal(err)
	}
	if len(perPkg) != 0 {
		t.Errorf("per-package findings = %d, want 0 (the lock gate is whole-program)", len(perPkg))
	}
	fs, err := a.programFindings()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Log(f)
	}
	want := map[string]int{
		"lock-order cycle":                          1,
		"outside a for loop":                        1,
		"channel send while holding queue lock":     1,
		"callback invoked while holding queue lock": 1,
		"goroutine launched while holding":          1,
		"//vids:lockorder needs the form":           1,
	}
	for substr, n := range want {
		if got := countContaining(fs, substr); got != n {
			t.Errorf("findings containing %q = %d, want %d", substr, got, n)
		}
	}
	if len(fs) != 6 {
		t.Errorf("total findings = %d, want 6 (ok() must not be flagged)", len(fs))
	}
}

// TestLockGateIsWholeProgram pins the three holes the lock gate and the
// directive readers had while the gate ran on a list of package paths
// with same-package summaries: a lock-order cycle that exists only
// through another package's acquire summary, an if-guarded Wait in a
// package on no list, and lockorder/allow directives nothing checked.
func TestLockGateIsWholeProgram(t *testing.T) {
	a := newTestAnalyzer(t)
	for _, dir := range []string{"lockcycle/a", "lockcycle/b", "lockhygiene"} {
		perPkg, err := a.analyzeDir(filepath.Join("testdata", "src", filepath.FromSlash(dir)))
		if err != nil {
			t.Fatal(err)
		}
		if len(perPkg) != 0 {
			t.Errorf("%s: per-package findings = %d, want 0", dir, len(perPkg))
		}
	}
	fs, err := a.programFindings()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Log(f)
	}
	want := []struct {
		substr, kind string
	}{
		{"lock-order cycle: a.T.mu → b.U.Mu → a.T.mu", ""},
		{"sync.Cond.Wait on lockhygiene.queue.ready outside a for loop", ""},
		{"//vids:lockorder needs the form", "directive"},
		{"stale //vids:lockorder lockhygiene.queue.mu -> lockhygiene.stats.mu", "directive"},
		{"stale //vidslint:allow wallclock", "directive"},
	}
	for _, w := range want {
		n := 0
		for _, f := range fs {
			if strings.Contains(f.msg, w.substr) && f.kind == w.kind {
				n++
			}
		}
		if n != 1 {
			t.Errorf("findings containing %q of kind %q = %d, want 1", w.substr, w.kind, n)
		}
	}
	if len(fs) != len(want) {
		t.Errorf("total findings = %d, want %d", len(fs), len(want))
	}
}

// TestGuardPurityEdgeCases covers the resolution paths the base
// fixture does not: method-value guards, impurity behind a defer, and
// guard closures delegating the write to a same-package helper.
func TestGuardPurityEdgeCases(t *testing.T) {
	a := newTestAnalyzer(t)
	fs, err := a.analyzeDir(filepath.Join("testdata", "src", "impure2"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Log(f)
	}
	if got := countContaining(fs, "mutates machine variables"); got != 2 {
		t.Errorf("mutator findings = %d, want 2 (method value + helper call)", got)
	}
	if got := countContaining(fs, "calls (*core.Ctx).Emit"); got != 1 {
		t.Errorf("deferred-emit findings = %d, want 1", got)
	}
	if len(fs) != 3 {
		t.Errorf("total findings = %d, want 3 (CleanGuards must not be flagged)", len(fs))
	}
}

// TestNopanicGateFixture drives the panic-freedom gate over the
// seeded nopanic fixture: one finding per panic class from the Entry
// root, the positive/negative bounds-dominance table in bounds.go, a
// path diagnostic through helper, and the panic-ok freshness sweep.
// The waived data[9] site and every ok* shape must stay silent.
func TestNopanicGateFixture(t *testing.T) {
	a := newTestAnalyzer(t)
	perPkg, err := a.analyzeDir(filepath.Join("testdata", "src", "nopanic"))
	if err != nil {
		t.Fatal(err)
	}
	if len(perPkg) != 0 {
		t.Errorf("per-package findings = %d, want 0 (all seeded violations are whole-program)", len(perPkg))
	}
	fs, err := a.programFindings()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Log(f)
	}
	want := map[string]int{
		"single-result type assertion":         1,
		"write to nil map":                     1,
		"dereference of nil pointer":           1,
		"integer division/modulo":              2,
		"explicit panic call":                  1,
		"truncating conversion":                1,
		"dynamic call through function value":  1,
		"interface method call":                1,
		"is not on the panic-free allowlist":   1,
		"slice expression":                     1,
		"binary.Uint64 panics on slices":       1,
		"needs a non-empty justification":      1,
		"no nopanic finding on this or the":    1,
		"the function is not reached from any": 1,
		"the function body has no potential":   1,
	}
	for substr, n := range want {
		if got := countContaining(fs, substr); got != n {
			t.Errorf("findings containing %q = %d, want %d", substr, got, n)
		}
	}
	// Unproven bounds sites: data[4] and data[2:] in Entry, b[8] in
	// helper, and the three bad* dominance negatives in bounds.go (the
	// truncating-conversion index reports once, under its own class).
	if got := countContaining(fs, "is not dominated by a bounds check"); got != 6 {
		t.Errorf("bounds findings = %d, want 6 (5 index + 1 slice)", got)
	}
	if got := countContaining(fs, "nopanic.Entry → nopanic.helper"); got != 1 {
		t.Errorf("call-graph path diagnostics = %d, want 1 (root-to-site path must name the chain)", got)
	}
	for _, f := range fs {
		if strings.Contains(f.msg, "data[9]") {
			t.Errorf("waived site flagged despite its //vids:panic-ok: %s", f)
		}
		if strings.Contains(f.msg, "ok") && strings.Contains(f.msg, "bounds.go") {
			t.Errorf("positive dominance case flagged: %s", f)
		}
	}
	if len(fs) != 21 {
		t.Errorf("total findings = %d, want 21", len(fs))
	}
}

// TestRepoProgramClean is the whole-program acceptance property: with
// every module package loaded, the noalloc closure, the lock
// discipline, the directive-freshness sweep and the alloc-ceiling
// drift gate all report zero findings on the real codebase.
func TestRepoProgramClean(t *testing.T) {
	a := newTestAnalyzer(t)
	dirs, err := a.expandPatterns([]string{filepath.Join(a.moduleRoot, "...")})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		if _, err := a.analyzeDir(dir); err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
	}
	fs, err := a.programFindings()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Errorf("%s", f)
	}
}
