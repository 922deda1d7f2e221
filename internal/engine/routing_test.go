package engine_test

import (
	"fmt"
	"reflect"
	"testing"

	"vids/internal/engine"
	"vids/internal/ids"
	"vids/internal/ingress"
	"vids/internal/sim"
	"vids/internal/trace"
)

// The properties here belong to the contract between the lanes and the
// shards (ShardIndexFor*, ExternalFloods, tombstones), so they are
// checked through the front end, at every lane count.
var laneCounts = []int{1, 2, 4}

func replayPipeline(t *testing.T, entries []trace.Entry, lanes, shards int) ([]ids.Alert, engine.Stats) {
	t.Helper()
	ing := ingress.New(ingress.Config{Lanes: lanes, Engine: engine.Config{Shards: shards}})
	for i, en := range entries {
		if err := ing.Ingest(en.Packet(), en.At()); err != nil {
			t.Fatalf("ingest entry %d: %v", i, err)
		}
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	return ing.Alerts(), ing.Stats()
}

// TestShardRoutingInvariant is the routing property test: every
// packet of one call — SIP, RTP in both directions, RTCP, and media
// moved by a mid-call re-INVITE — lands on the same shard. Observed
// black-box: ingest one call into an 8-shard pipeline and require that
// exactly one shard processed anything.
func TestShardRoutingInvariant(t *testing.T) {
	for i := 0; i < 20; i++ {
		entries := engine.RoutingInvariantTrace(i * 31)
		t.Run(fmt.Sprintf("call-%d", i), func(t *testing.T) {
			for _, lanes := range laneCounts {
				_, st := replayPipeline(t, entries, lanes, 8)
				busy := 0
				for _, sh := range st.Shards {
					if sh.Processed > 0 {
						busy++
					}
				}
				if busy != 1 {
					t.Fatalf("lanes=%d: call scattered over %d shards: %+v", lanes, busy, st.Shards)
				}
				if st.Processed != uint64(len(entries)) || st.Ingested != st.Processed {
					t.Fatalf("lanes=%d: processed %d, ingested %d of %d packets",
						lanes, st.Processed, st.Ingested, len(entries))
				}
			}
		})
	}
}

// TestLateHangupParity regresses a divergence found on a real testbed
// capture: a dialog that goes idle past the eviction horizon and only
// then hangs up. Both the shard and the sequential IDS have already
// evicted the monitor (leaving tombstones that swallow the BYE and its
// 200); a front end that had simply forgotten the Call-ID would feed
// the straggler 200 to the reflection detector and raise a deviation
// the sequential path never raises. The lanes tombstone swept calls the
// same way, so the 200 is absorbed silently.
func TestLateHangupParity(t *testing.T) {
	cfg := ids.DefaultConfig()
	entries := engine.LateHangupTrace(cfg)

	s := sim.New(0)
	d := ids.New(s, cfg)
	if err := trace.Replay(s, entries, d); err != nil {
		t.Fatal(err)
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := d.Alerts()
	engine.SortAlerts(want)

	for _, lanes := range laneCounts {
		got, st := replayPipeline(t, entries, lanes, 4)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("lanes=%d: alerts diverge:\npipeline:   %v\nsequential: %v", lanes, got, want)
		}
		if st.Absorbed != 1 {
			t.Errorf("lanes=%d: absorbed = %d, want 1 (the straggler 200-for-BYE)", lanes, st.Absorbed)
		}
		if st.Processed+st.Absorbed+st.Ignored+st.ParseErrors != st.Ingested || st.Ingested != uint64(len(entries)) {
			t.Errorf("lanes=%d: accounting mismatch: %+v", lanes, st)
		}
	}
}
