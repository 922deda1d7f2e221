package ingress

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"vids/internal/dialog"
	"vids/internal/engine"
	"vids/internal/ids"
	"vids/internal/trace"
)

// replayTwoProducers feeds entries through one tier from two
// goroutines that take turns: entry i is ingested by producer i mod 2,
// and only after entry i-1's Ingest returned. The pipeline sees the
// trace order, so the sequential reference still applies, while every
// shard is fed, and stepped inline, by both producers.
func replayTwoProducers(t *testing.T, entries []trace.Entry, cfg Config) ([]ids.Alert, engine.Stats) {
	t.Helper()
	ing := New(cfg)
	turn := [2]chan int{make(chan int, 1), make(chan int, 1)}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for k := range turn {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := range turn[k] {
				if err := ing.Ingest(entries[i].Packet(), entries[i].At()); err != nil {
					t.Errorf("ingest entry %d: %v", i, err)
				}
				if i+1 == len(entries) {
					close(done)
					continue
				}
				turn[(i+1)%2] <- i + 1
			}
		}(k)
	}
	turn[0] <- 0
	<-done
	close(turn[0])
	close(turn[1])
	wg.Wait()
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	return ing.Alerts(), ing.Stats()
}

// TestInlineParityTwoProducers: on a media-dominated trace every shard
// leaves its first window for inline steps, and the alerts still equal
// the sequential interpreted IDS's exactly, whatever the lane count,
// with two producers stepping the shards they share. With absorption
// off nothing is absorbed, so no shard ever steps inline.
func TestInlineParityTwoProducers(t *testing.T) {
	entries := dialog.Synthesize(dialog.SynthConfig{Calls: 80, RTPPerCall: 100, Attacks: true})
	ref := ids.DefaultConfig()
	ref.Backend = ids.BackendInterpreted
	want := replaySequential(t, entries, ref)
	if len(want) == 0 {
		t.Fatal("sequential replay raised no alerts")
	}
	rows := []struct {
		lanes   int
		disable bool
	}{{1, false}, {2, false}, {4, false}, {2, true}}
	for _, r := range rows {
		row := fmt.Sprintf("lanes=%d fastpath=%v", r.lanes, !r.disable)
		got, st := replayTwoProducers(t, entries, Config{
			Lanes:  r.lanes,
			Engine: engine.Config{Shards: 4, DisableFastpath: r.disable},
		})
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: alerts diverge from sequential: %d vs %d", row, len(got), len(want))
			for i := 0; i < len(want) || i < len(got); i++ {
				var w, g ids.Alert
				if i < len(want) {
					w = want[i]
				}
				if i < len(got) {
					g = got[i]
				}
				if !reflect.DeepEqual(w, g) {
					t.Errorf("  [%d]\n    seq: %+v\n    ing: %+v", i, w, g)
				}
			}
		}
		if sum := st.Processed + st.Absorbed + st.Ignored + st.ParseErrors; sum != uint64(len(entries)) || st.Ingested != sum {
			t.Errorf("%s: accounting mismatch: %+v", row, st)
		}
		for i, sh := range st.Shards {
			switch {
			case r.disable && sh.Inline != 0:
				t.Errorf("%s: shard %d stepped %d packets inline with absorption off", row, i, sh.Inline)
			case !r.disable && sh.Inline == 0:
				t.Errorf("%s: shard %d never stepped inline (hits %d, processed %d)", row, i, sh.FastpathHits, sh.Processed)
			}
		}
	}
}
