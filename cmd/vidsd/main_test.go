package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vids/internal/dialog"
	"vids/internal/engine"
	"vids/internal/ids"
	"vids/internal/trace"
)

func writeSynthTrace(t *testing.T, cfg dialog.SynthConfig) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "synth.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriter(f)
	for _, en := range dialog.Synthesize(cfg) {
		if err := w.Record(en.Packet(), en.At()); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTraceRunToCompletion drives the daemon end to end on a synthetic
// attack trace at maximum pace: it must detect, drain, report and
// exit on its own.
func TestTraceRunToCompletion(t *testing.T) {
	path := writeSynthTrace(t, dialog.SynthConfig{Calls: 10, RTPPerCall: 5, Attacks: true})
	report := filepath.Join(t.TempDir(), "alerts.json")

	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-source", "trace", "-trace", path, "-pace", "0",
		"-shards", "3", "-policy", "block", "-report", report,
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "ALERT") {
		t.Errorf("no alerts on stdout:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "vidsd: done:") {
		t.Errorf("no final summary on stderr:\n%s", stderr.String())
	}
	// No -lanes flag (0): one lane per shard.
	if !strings.Contains(stderr.String(), "vidsd: 3 lane(s) -> 3 shard(s)") {
		t.Errorf("default lane count is not one per shard:\n%s", stderr.String())
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "invite-flood") {
		t.Errorf("report missing expected alert types:\n%s", data)
	}
}

// TestEOFDrainFlushesStatsAndReport pins the EOF exit path: when the
// trace source simply runs out (no signal involved), the daemon must
// still announce the drain, print the final statistics line, and
// write the JSON report.
func TestEOFDrainFlushesStatsAndReport(t *testing.T) {
	path := writeSynthTrace(t, dialog.SynthConfig{Calls: 4, RTPPerCall: 3})
	report := filepath.Join(t.TempDir(), "alerts.json")

	var stdout, stderr bytes.Buffer
	// -stats 0 disables the periodic reporter, so any stats line on
	// stderr can only come from the final flush.
	err := run([]string{
		"-source", "trace", "-trace", path, "-pace", "0",
		"-shards", "2", "-stats", "0", "-report", report,
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	out := stderr.String()
	if !strings.Contains(out, "vidsd: source exhausted, draining") {
		t.Errorf("no EOF drain notice:\n%s", out)
	}
	if !strings.Contains(out, "vidsd: ingested=") {
		t.Errorf("final stats line not flushed on EOF:\n%s", out)
	}
	if !strings.Contains(out, "vidsd: done:") {
		t.Errorf("no final summary:\n%s", out)
	}
	if !strings.Contains(out, "vidsd: report written to") {
		t.Errorf("report not announced:\n%s", out)
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatalf("report not written on EOF exit: %v", err)
	}
	var doc struct {
		Alerts []ids.Alert  `json:"alerts"`
		Stats  engine.Stats `json:"stats"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("report is not an alert+stats document: %v\n%s", err, data)
	}
	if doc.Alerts == nil {
		t.Errorf("report has no alerts array:\n%s", data)
	}
	if doc.Stats.Ingested == 0 {
		t.Errorf("report stats empty:\n%s", data)
	}
}

// TestLanesRunToCompletion drives an explicit lane count end to end
// from the daemon: same trace, -lanes 2, shed policy and the widened
// report. The attack trace must still be fully detected.
func TestLanesRunToCompletion(t *testing.T) {
	path := writeSynthTrace(t, dialog.SynthConfig{Calls: 10, RTPPerCall: 5, Attacks: true})
	report := filepath.Join(t.TempDir(), "alerts.json")

	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-source", "trace", "-trace", path, "-pace", "0",
		"-shards", "4", "-lanes", "2", "-policy", "shed",
		"-stats", "0", "-report", report,
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "vidsd: 2 lane(s) -> 4 shard(s)") {
		t.Errorf("lane banner missing:\n%s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "ALERT") {
		t.Errorf("no alerts on stdout:\n%s", stdout.String())
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Alerts []ids.Alert  `json:"alerts"`
		Stats  engine.Stats `json:"stats"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("report: %v\n%s", err, data)
	}
	if !strings.Contains(string(data), "invite-flood") {
		t.Errorf("report missing expected alert types:\n%s", data)
	}
	if doc.Stats.Dropped != 0 {
		t.Errorf("lossless trace replay dropped %d packets", doc.Stats.Dropped)
	}
}

// TestFastpathCountersSurfaced pins the operator-visible fast-path
// accounting: on a benign media-heavy trace the cache must absorb
// packets — with the default lane count as much as with an explicit
// -lanes 1 — the stderr stats line must carry the fp-* counters, and
// the JSON report must record them. The same trace with -fastpath=false
// must absorb nothing — and detect identically.
func TestFastpathCountersSurfaced(t *testing.T) {
	path := writeSynthTrace(t, dialog.SynthConfig{Calls: 4, RTPPerCall: 40})

	type reportDoc struct {
		Alerts []ids.Alert  `json:"alerts"`
		Stats  engine.Stats `json:"stats"`
	}
	// A small queue keeps ingestion within a few packets of the shard
	// worker, so flows reach the armable state (no queued escalations)
	// instead of the whole trace being enqueued before any arm lands.
	runReport := func(extra ...string) (reportDoc, string) {
		t.Helper()
		report := filepath.Join(t.TempDir(), "alerts.json")
		var stdout, stderr bytes.Buffer
		args := append([]string{
			"-source", "trace", "-trace", path, "-pace", "0",
			"-shards", "1", "-queue", "4", "-stats", "0", "-report", report,
		}, extra...)
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("run %v: %v\nstderr: %s", extra, err, stderr.String())
		}
		data, err := os.ReadFile(report)
		if err != nil {
			t.Fatal(err)
		}
		var doc reportDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("report: %v\n%s", err, data)
		}
		return doc, stderr.String()
	}

	off, _ := runReport("-fastpath=false")
	if s := off.Stats; s.FastpathHits+s.FastpathEscalations+s.FastpathInvalidations != 0 {
		t.Errorf("-fastpath=false still armed a flow: %+v", off.Stats)
	}

	for _, extra := range [][]string{
		nil, // default flags: the daemon an operator actually starts
		{"-lanes", "1"},
	} {
		doc, stderr := runReport(extra...)
		if !strings.Contains(stderr, "fp-hits=") || !strings.Contains(stderr, " inline=") {
			t.Errorf("%v: stats line missing fast-path or inline-step counters:\n%s", extra, stderr)
		}
		if doc.Stats.FastpathHits == 0 {
			t.Errorf("%v: benign media-heavy trace absorbed nothing: %+v", extra, doc.Stats)
		}
		if !reflect.DeepEqual(doc.Alerts, off.Alerts) {
			t.Errorf("%v: alerts diverge across -fastpath:\n on: %v\noff: %v", extra, doc.Alerts, off.Alerts)
		}
	}
}

// TestSRTPFlag: header-only mode must run clean end to end and stay
// silent on a benign trace.
func TestSRTPFlag(t *testing.T) {
	path := writeSynthTrace(t, dialog.SynthConfig{Calls: 3, RTPPerCall: 4})
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-source", "trace", "-trace", path, "-pace", "0",
		"-shards", "2", "-lanes", "2", "-srtp", "-stats", "0",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	if strings.Contains(stdout.String(), "ALERT") {
		t.Errorf("benign trace raised alerts in -srtp mode:\n%s", stdout.String())
	}
}

// TestDropPolicyFlag exercises the drop-oldest configuration path.
func TestDropPolicyFlag(t *testing.T) {
	path := writeSynthTrace(t, dialog.SynthConfig{Calls: 2, RTPPerCall: 2})
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-source", "trace", "-trace", path, "-pace", "0",
		"-shards", "1", "-queue", "4", "-policy", "drop", "-stats", "0",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestFlagErrors(t *testing.T) {
	var out bytes.Buffer
	cases := [][]string{
		{"-policy", "bogus"},
		{"-source", "bogus"},
		{"-source", "trace"}, // no -trace file
		{"-nope"},
	}
	for _, args := range cases {
		if err := run(args, &out, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
