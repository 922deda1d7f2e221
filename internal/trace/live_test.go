package trace_test

import (
	"bytes"
	"testing"
	"time"

	"vids/internal/attack"
	"vids/internal/ids"
	"vids/internal/sim"
	"vids/internal/sipmsg"
	"vids/internal/trace"
	"vids/internal/workload"
)

// TestLiveVsReplayParity captures the vids vantage point during a live
// attack run and verifies a replay reproduces the identical alert
// sequence — the property that makes offline analysis trustworthy.
func TestLiveVsReplayParity(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.UAs = 2
	cfg.WithMedia = true
	cfg.AnswerDelay = time.Second
	tb, err := workload.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	tb.IDS.OnPacket = w.Tap

	if err := tb.Sim.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	rec, err := tb.PlaceCall(0, 0, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Sim.Run(tb.Sim.Now() + 5*time.Second); err != nil {
		t.Fatal(err)
	}
	call := rec.Call()
	atk := attack.New(tb.Sim, tb.Net, workload.AttackerHost)
	info := attack.DialogInfo{
		CallID:     call.ID,
		CallerTag:  call.LocalTag,
		CalleeTag:  call.RemoteTag,
		CallerAOR:  sipmsg.URI{User: workload.UAUser("a", 1), Host: workload.DomainA},
		CalleeAOR:  sipmsg.URI{User: workload.UAUser("b", 1), Host: workload.DomainB},
		CallerHost: workload.UAHost("a", 1),
		CalleeHost: call.RemoteContact.Host,
	}
	if err := atk.ByeDoS(info, true); err != nil {
		t.Fatal(err)
	}
	if err := tb.Sim.Run(tb.Sim.Now() + 10*time.Second); err != nil {
		t.Fatal(err)
	}
	liveAlerts := tb.IDS.Alerts()
	if len(liveAlerts) == 0 {
		t.Fatal("live run detected nothing")
	}

	entries, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s2 := sim.New(99)
	fresh := ids.New(s2, ids.DefaultConfig())
	if err := trace.Replay(s2, entries, fresh); err != nil {
		t.Fatal(err)
	}
	if err := s2.Run(tb.Sim.Now()); err != nil {
		t.Fatal(err)
	}
	replayAlerts := fresh.Alerts()
	if len(replayAlerts) != len(liveAlerts) {
		t.Fatalf("replay alerts = %v, live = %v", replayAlerts, liveAlerts)
	}
	for i := range liveAlerts {
		if replayAlerts[i].Type != liveAlerts[i].Type ||
			replayAlerts[i].CallID != liveAlerts[i].CallID {
			t.Fatalf("alert %d differs: %v vs %v", i, replayAlerts[i], liveAlerts[i])
		}
	}
}
