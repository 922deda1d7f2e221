package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"vids"
	"vids/internal/dialog"
	"vids/internal/rtp"
	"vids/internal/sipmsg"
	"vids/internal/trace"
)

func TestScenarioAndReplayWorkflow(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "alerts.json")
	if err := run([]string{"-scenario", "media-spam", "-report", report}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", "nope"}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestCleanScenario(t *testing.T) {
	if err := run([]string{"-scenario", "clean"}); err != nil {
		t.Fatal(err)
	}
}

// TestTortureTraceReplay replays the committed RFC-4475-flavored
// torture trace (benign calls + attack scenarios interleaved with
// hostile SIP datagrams and malformed media; see gen_torture.go):
// the replay must complete without panicking, produce the same alert
// multiset on every run, pass the sharded engine's internal alert
// parity check, and account for every datagram in the parse counters.
func TestTortureTraceReplay(t *testing.T) {
	path := filepath.Join("testdata", "torture.jsonl")
	dir := t.TempDir()
	rep1 := filepath.Join(dir, "alerts1.json")
	rep2 := filepath.Join(dir, "alerts2.json")
	if err := run([]string{"-replay", path, "-report", rep1}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-replay", path, "-report", rep2}); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(rep1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(rep2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("alert multiset differs between two replays of the same trace")
	}
	if len(b1) < 10 {
		t.Errorf("alert report suspiciously small (%d bytes); torture trace should trip detectors", len(b1))
	}
	// The sharded path verifies its alert set against the sequential
	// run internally; a divergence fails the command.
	if err := run([]string{"-replay", path, "-shards", "4"}); err != nil {
		t.Fatal(err)
	}
}

// TestTortureTraceCounters re-runs the torture trace through a bare
// IDS and checks the parse counters account for exactly the datagrams
// the wire parsers reject — no packet vanishes uncounted.
func TestTortureTraceCounters(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "torture.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	entries, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}

	var expSIP, expRTP, expErr uint64
	for _, e := range entries {
		switch e.Proto {
		case "SIP":
			if _, err := sipmsg.Parse(e.Data); err != nil {
				expErr++
			} else {
				expSIP++
			}
		case "RTP":
			var p rtp.Packet
			if err := rtp.ParseInto(&p, e.Data); err != nil {
				expErr++
			} else {
				expRTP++
			}
		case "RTCP":
			var p rtp.RTCP
			if err := rtp.ParseRTCPInto(&p, e.Data); err != nil {
				expErr++
			}
		}
	}
	if expErr < 10 {
		t.Fatalf("only %d malformed datagrams in the torture trace; regenerate with gen_torture.go", expErr)
	}

	s := vids.NewSimulator(1)
	d := vids.New(s, vids.DefaultConfig())
	if err := trace.Replay(s, entries, d); err != nil {
		t.Fatal(err)
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	sipN, rtpN, parseErrs, _ := d.Counters()
	if sipN != expSIP || rtpN != expRTP || parseErrs != expErr {
		t.Errorf("counters sip=%d rtp=%d parse-errors=%d, want sip=%d rtp=%d parse-errors=%d",
			sipN, rtpN, parseErrs, expSIP, expRTP, expErr)
	}
}

// TestShardedReplay replays a synthetic attack trace through the
// sharded engine; the command itself asserts the alert set matches
// the single-threaded run.
func TestShardedReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "synth.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriter(f)
	for _, en := range dialog.Synthesize(dialog.SynthConfig{Calls: 12, RTPPerCall: 6, Attacks: true}) {
		if err := w.Record(en.Packet(), en.At()); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	report := filepath.Join(dir, "alerts.json")
	if err := run([]string{"-replay", path, "-shards", "4", "-report", report}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(report); err != nil || fi.Size() == 0 {
		t.Fatalf("report not written: %v", err)
	}
	// The legacy single-threaded path must still work.
	if err := run([]string{"-replay", path}); err != nil {
		t.Fatal(err)
	}
}
