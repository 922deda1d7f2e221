package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"vids/internal/dialog"
	"vids/internal/engine"
	"vids/internal/ids"
	"vids/internal/sim"
	"vids/internal/trace"
)

// TestWitnessTracesGolden pins the rendered bytes of each witness
// trace, as `speccover -traces` writes it.
func TestWitnessTracesGolden(t *testing.T) {
	seen := 0
	for _, wt := range Witnesses() {
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		for _, e := range dialog.Render(wt.Script) {
			if err := w.Record(e.Packet(), e.At()); err != nil {
				t.Fatal(err)
			}
		}
		sum := sha256.Sum256(buf.Bytes())
		got := hex.EncodeToString(sum[:])
		if want := witnessGoldens[wt.Name]; got != want {
			t.Errorf("%q: %q, pinned %q", wt.Name, got, want)
		}
		seen++
	}
	if seen != len(witnessGoldens) {
		t.Errorf("%d witness traces, %d pinned", seen, len(witnessGoldens))
	}
}

var witnessGoldens = map[string]string{
	"gap-cancel-legit":   "495487f0c24436b63ba793d76aacb1cacd4f9d3583569608d815a793608868d9",
	"gap-cancel-ringing": "541084e6ab053a3950b0f070676cc7372d1a1a5b8ffbe9f8352a563a673bba7f",
	"gap-cancel-spoofed": "9d35c08b709d2fbd879d9d1bee7447bb5daadff836377545eed1a07df6e7de25",
	"gap-invite-final":   "3582a8370edec8c579ab226d091b2150c4d34a43e1e39824ccab2d0278ec5b11",
	"gap-teardown":       "acd3274356ae05fcaa0b08022696d5fd68fc3490a60a3fe3475321c7b9a66e9c",
	"gap-post-close":     "c9bfaf62928f65aebb32d4212ea2efd4453e7838bca14acf5bb17204bcbd8040",
	"gap-reopen-close":   "ba52b02f6c6f1b7db04942767ee87e5a56d136654fd66aad7bb6d9c554645ed6",
	"gap-codec":          "f9cd01aa0f6d7030f0cedac3b55d459bc6e3dc02cea9bf4a6cad450973a97f1a",
	"gap-spam-absorb":    "3e2d597eccda085392d61a8ef3dcce32a543b896b8ab33a0a8c5ffd1fbb1b4f3",
	"gap-flood":          "43e2004314b9afb4bda127a4b876099e814c24a5c8924e45dcb2fc1eb4d4df74",
	"gap-spoofed-bye":    "de61f8175ddd28e4d5abe909eb3871d5f69256b004eed493e87de03e37f56673",
	"gap-hijack-absorb":  "d108ca0090dc872fdf1409dd574df388d9537f0bbc5cbdb22333d6ff1b097e5f",
	"gap-rtp-spam":       "1b87ddffd2f4e1a9a31738d26b2118e8641885b989a703fcdf391a3c6646a20f",
	"gap-stray-response": "6cb2cad5ee59bac9941cc3cb2e897e0b1d4405fb304e3ea283b119d1bd7757f7",
}

// TestBackendWitnessParity replays every witness trace through both
// EFSM backends and requires the identical alert multiset. The
// witnesses exist precisely because the scenario suite does not reach
// these transitions, so this is the differential test that exercises
// the compiled dispatch tables on the rare corners — legitimate
// CANCELs, reopen/close cycles, spam absorption, stray responses —
// where a miscompiled guard would otherwise hide.
func TestBackendWitnessParity(t *testing.T) {
	for _, wt := range Witnesses() {
		entries := dialog.Render(wt.Script)
		alerts := make(map[ids.Backend][]ids.Alert, 2)
		for _, backend := range []ids.Backend{ids.BackendCompiled, ids.BackendInterpreted} {
			cfg := ids.DefaultConfig()
			cfg.Backend = backend
			s := sim.New(1)
			d := ids.New(s, cfg)
			if err := trace.Replay(s, entries, d); err != nil {
				t.Fatalf("%s/%s: replay: %v", wt.Name, backend, err)
			}
			if err := s.RunAll(); err != nil {
				t.Fatalf("%s/%s: run: %v", wt.Name, backend, err)
			}
			got := d.Alerts()
			engine.SortAlerts(got)
			alerts[backend] = got
		}
		compiled, interpreted := alerts[ids.BackendCompiled], alerts[ids.BackendInterpreted]
		if !reflect.DeepEqual(compiled, interpreted) {
			t.Errorf("%s: alert sets diverge between backends\ncompiled:    %+v\ninterpreted: %+v",
				wt.Name, compiled, interpreted)
		}
	}
}
