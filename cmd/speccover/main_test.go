package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vids/internal/scenario"
	"vids/internal/trace"
)

// computeOnce caches the (expensive) full measurement for the tests
// that only inspect the resulting report.
var cachedReport *Report

func testReport(t *testing.T) Report {
	t.Helper()
	if cachedReport == nil {
		rep, err := computeReport(1, "")
		if err != nil {
			t.Fatalf("computeReport: %v", err)
		}
		cachedReport = &rep
	}
	return *cachedReport
}

// TestFullCoverage is the headline property: every statically
// reachable transition is either fired by the scenario suite, fired
// by a synthesized witness trace, or carries a justified waiver.
func TestFullCoverage(t *testing.T) {
	rep := testReport(t)
	if rep.Summary.Uncovered != 0 {
		for _, r := range rep.Transitions {
			if r.Status == StatusUncovered {
				t.Errorf("uncovered: %s", fmtKey(r.TransitionKey))
			}
		}
	}
	if rep.Summary.GapTraces == 0 {
		t.Error("expected some transitions to be covered by gap traces")
	}
	if rep.Summary.Covered == rep.Summary.GapTraces {
		t.Error("expected some transitions to be covered by scenarios")
	}
}

// TestWaiversFresh: a waiver must justify a transition that nothing
// fires. If a waived transition starts firing at runtime, the waiver
// is stale (buildReport then reports it covered, which this test and
// the baseline gate both catch); every waiver also needs a reason.
func TestWaiversFresh(t *testing.T) {
	rep := testReport(t)
	byKey := make(map[string]Record)
	for _, r := range rep.Transitions {
		byKey[fmtKey(r.TransitionKey)] = r
	}
	for k, reason := range waivers() {
		if reason == "" {
			t.Errorf("waiver %s has no justification", fmtKey(k))
		}
		r, ok := byKey[fmtKey(k)]
		if !ok {
			t.Errorf("waiver %s names a transition not in the spec", fmtKey(k))
			continue
		}
		if r.Status != StatusWaived {
			t.Errorf("waiver %s is stale: transition has status %s (by %s)", fmtKey(k), r.Status, r.By)
		}
	}
}

// TestDeterminism: two independent measurements must serialize to
// identical bytes — the property the committed baseline gate relies on.
func TestDeterminism(t *testing.T) {
	a, err := computeReport(1, "")
	if err != nil {
		t.Fatalf("computeReport: %v", err)
	}
	b, err := computeReport(1, "")
	if err != nil {
		t.Fatalf("computeReport: %v", err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Error("two runs produced different reports")
	}
}

// TestJSONRoundTrip: the -json output must parse back into an
// identical Report.
func TestJSONRoundTrip(t *testing.T) {
	var out, diag bytes.Buffer
	code, err := run("", "", "", true, 1, &out, &diag)
	if err != nil {
		t.Fatalf("run: %v (diag: %s)", err, diag.String())
	}
	if code != 0 {
		t.Fatalf("run exit %d, want 0 (diag: %s)", code, diag.String())
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("parse -json output: %v", err)
	}
	want := testReport(t)
	if !reflect.DeepEqual(rep.Summary, want.Summary) {
		t.Errorf("round-tripped summary %+v != computed %+v", rep.Summary, want.Summary)
	}
	if len(rep.Transitions) != len(want.Transitions) {
		t.Errorf("round-tripped %d transitions, want %d", len(rep.Transitions), len(want.Transitions))
	}
}

// TestBaselineGate: an up-to-date baseline passes; a tampered one
// fails with a drift diagnostic.
func TestBaselineGate(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	if err := writeReport(testReport(t), base); err != nil {
		t.Fatalf("writeReport: %v", err)
	}

	var out, diag bytes.Buffer
	code, err := run(base, "", "", false, 1, &out, &diag)
	if err != nil {
		t.Fatalf("run with clean baseline: %v", err)
	}
	if code != 0 {
		t.Fatalf("clean baseline exit %d, want 0 (diag: %s)", code, diag.String())
	}

	// Tamper: flip one covered transition to uncovered.
	tampered := testReport(t)
	tampered.Transitions = append([]Record(nil), tampered.Transitions...)
	for i, r := range tampered.Transitions {
		if r.Status == StatusScenario {
			r.Status = StatusUncovered
			r.By = ""
			tampered.Transitions[i] = r
			break
		}
	}
	if err := writeReport(tampered, base); err != nil {
		t.Fatalf("writeReport tampered: %v", err)
	}
	diag.Reset()
	code, err = run(base, "", "", false, 1, &out, &diag)
	if err != nil {
		t.Fatalf("run with tampered baseline: %v", err)
	}
	if code != 1 {
		t.Errorf("tampered baseline exit %d, want 1", code)
	}
	if !bytes.Contains(diag.Bytes(), []byte("baseline drift")) {
		t.Errorf("diagnostics missing drift detail: %s", diag.String())
	}
}

// TestCommittedBaselineCurrent: the SPEC_COVERAGE.json at the repo
// root must match a fresh measurement, so spec changes cannot land
// without regenerating (and reviewing) the coverage report.
func TestCommittedBaselineCurrent(t *testing.T) {
	path := filepath.Join("..", "..", "SPEC_COVERAGE.json")
	if _, err := os.Stat(path); err != nil {
		t.Skipf("no committed baseline: %v", err)
	}
	var out, diag bytes.Buffer
	code, err := run(path, "", "", false, 1, &out, &diag)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 {
		t.Errorf("committed SPEC_COVERAGE.json is stale (exit %d):\n%s\nregenerate with: go run ./cmd/speccover -write SPEC_COVERAGE.json", code, diag.String())
	}
}

// TestWrittenTracesReplayable: the -traces artifacts must survive a
// JSONL round trip and, replayed alone into a fresh recorder, fire
// every transition the in-memory gap synthesis attributed to them.
func TestWrittenTracesReplayable(t *testing.T) {
	dir := t.TempDir()
	rep, err := computeReport(1, dir)
	if err != nil {
		t.Fatalf("computeReport: %v", err)
	}
	rec := newRecorder()
	for _, w := range scenario.Witnesses() {
		f, err := os.Open(filepath.Join(dir, w.Name+".jsonl"))
		if err != nil {
			t.Fatalf("trace not written: %v", err)
		}
		entries, err := trace.Read(f)
		f.Close()
		if err != nil {
			t.Fatalf("read %s: %v", w.Name, err)
		}
		if len(entries) != len(w.Script) {
			t.Errorf("%s: wrote %d entries, read %d", w.Name, len(w.Script), len(entries))
		}
		if err := replayEntries(entries, rec, "trace:"+w.Name+".jsonl"); err != nil {
			t.Fatalf("replay %s: %v", w.Name, err)
		}
	}
	for _, r := range rep.Transitions {
		if r.Status != StatusGapTrace {
			continue
		}
		if _, ok := rec.fired[r.TransitionKey]; !ok {
			t.Errorf("written traces did not fire %s (attributed to %s)", fmtKey(r.TransitionKey), r.By)
		}
	}
}
