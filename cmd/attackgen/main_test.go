package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"testing"
)

func TestAllScenariosRender(t *testing.T) {
	for _, sc := range []string{"bye-dos", "cancel-dos", "invite-flood", "media-spam", "hijack"} {
		if err := run([]string{"-scenario", sc}); err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
	}
	if err := run([]string{"-scenario", "nope"}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestOutputGolden pins the exact bytes attackgen prints per scenario.
func TestOutputGolden(t *testing.T) {
	for sc, want := range outputGoldens {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		stdout := os.Stdout
		os.Stdout = w
		runErr := run([]string{"-scenario", sc})
		os.Stdout = stdout
		w.Close()
		out, err := io.ReadAll(r)
		r.Close()
		if err != nil || runErr != nil {
			t.Fatalf("%s: %v %v", sc, runErr, err)
		}
		sum := sha256.Sum256(out)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%q: %q, pinned %q\n%s", sc, got, want, out)
		}
	}
}

var outputGoldens = map[string]string{
	"bye-dos":      "d50820e62192e12a0b49319a8a5986915c7ff68a73b1acd47e7d98687356e7f8",
	"cancel-dos":   "ac2f501234656134684ef1cb8a2b58991288c419cd4a1d933b1f6a3b4ee8a161",
	"invite-flood": "8a46e497de66e8bd97a4b11a4c7e50ca79e5030590e7b542f23d9f985500dd69",
	"media-spam":   "45deefde7e7e84942ef1ec964adc7e5e229beb3c642f81e63927142c4ea71d79",
	"hijack":       "4d8ac9aa293128a0f7f4b92153562004099232b8f74c9ef056891cfa6c862959",
}
