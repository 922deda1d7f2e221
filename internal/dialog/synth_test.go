package dialog_test

import (
	"reflect"
	"testing"

	"vids/internal/dialog"
	"vids/internal/ids"
	"vids/internal/sim"
	"vids/internal/trace"
)

func alertCounts(t *testing.T, cfg dialog.SynthConfig) map[ids.AlertType]int {
	t.Helper()
	s := sim.New(0)
	d := ids.New(s, ids.DefaultConfig())
	if err := trace.Replay(s, dialog.Synthesize(cfg), d); err != nil {
		t.Fatal(err)
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	counts := map[ids.AlertType]int{}
	for _, a := range d.Alerts() {
		counts[a.Type]++
	}
	return counts
}

// TestAttackInstancesIsolatedFromBenignCalls: the attack instances
// must raise the same alerts whatever benign population surrounds
// them. They once reused benign call numbers 1000 and 1001, so any
// trace with more than a thousand calls let benign traffic tear down,
// reopen or double the spoofed-BYE and RTCP-BYE victims.
func TestAttackInstancesIsolatedFromBenignCalls(t *testing.T) {
	want := alertCounts(t, dialog.SynthConfig{Calls: 900, RTPPerCall: 4, Attacks: true})
	for _, cfg := range []dialog.SynthConfig{
		{Calls: 1500, RTPPerCall: 4, Attacks: true},
		{Calls: 4, RTPPerCall: 4, FirstCall: 999, Attacks: true},
	} {
		if got := alertCounts(t, cfg); !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: alerts by type %v, want %v (as at 900 calls)", cfg, got, want)
		}
	}
}
