package ingress

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"vids/internal/dialog"
	"vids/internal/engine"
	"vids/internal/trace"
)

// TestTraceSourceFromFile round-trips a synthetic trace through disk
// and the paced replay path (pace high enough to finish instantly).
func TestTraceSourceFromFile(t *testing.T) {
	entries := dialog.Synthesize(dialog.SynthConfig{Calls: 3, RTPPerCall: 3})
	path := filepath.Join(t.TempDir(), "synth.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriter(f)
	for _, en := range entries {
		if err := w.Record(en.Packet(), en.At()); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	ing := New(Config{Engine: engine.Config{Shards: 2}})
	src := &TraceSource{Path: path, Pace: 10000}
	if err := src.Run(context.Background(), ing); err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if st := ing.Stats(); st.Ingested != uint64(len(entries)) {
		t.Errorf("ingested %d of %d", st.Ingested, len(entries))
	}
}
