package ingress

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"vids/internal/dialog"
	"vids/internal/engine"
	"vids/internal/ids"
	"vids/internal/scenario"
	"vids/internal/trace"
)

// replayFlows replays entries like replayIngress and reports how many
// flows the flow table still holds after Close.
func replayFlows(t *testing.T, entries []trace.Entry, cfg Config) uint64 {
	t.Helper()
	ing := New(cfg)
	for i, en := range entries {
		if err := ing.Ingest(en.Packet(), en.At()); err != nil {
			t.Fatalf("ingest entry %d: %v", i, err)
		}
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	return ing.fp.Counters().Flows
}

// TestFlowTableEmptyAfterClose pins the route table's lifetime: a flow
// lives from the SDP that advertises it until the detector evicts the
// call that owns it, and Close runs every eviction, so a drained
// pipeline holds no flow — on benign and attack traffic at every lane
// count, on every coverage witness and on every scenario capture.
func TestFlowTableEmptyAfterClose(t *testing.T) {
	for _, attacks := range []bool{false, true} {
		entries := dialog.Synthesize(dialog.SynthConfig{Calls: 200, RTPPerCall: 10, Attacks: attacks})
		for _, lanes := range []int{1, 2, 4} {
			if n := replayFlows(t, entries, Config{Lanes: lanes, Engine: engine.Config{Shards: 4}}); n != 0 {
				t.Errorf("synthesized attacks=%v lanes=%d: %d flows after Close", attacks, lanes, n)
			}
		}
	}
	for _, w := range scenario.Witnesses() {
		if n := replayFlows(t, dialog.Render(w.Script), Config{Lanes: 2, Engine: engine.Config{Shards: 4}}); n != 0 {
			t.Errorf("witness %s: %d flows after Close", w.Name, n)
		}
	}
	for _, name := range scenario.Names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if n := replayFlows(t, captureScenario(t, name), Config{Lanes: 2, Engine: engine.Config{Shards: 4}}); n != 0 {
				t.Errorf("scenario %s: %d flows after Close", name, n)
			}
		})
	}
}

// TestReusedMediaAddressKeepsRoute: a phone that reuses its media
// ports starts call Y while call X, which advertised the same
// addresses, is still lingering on another shard. The flow table hands
// the destinations to Y; when X's shard later forgets X, Y's routes
// must survive, or Y's media would hash to a shard that has no monitor
// for it and raise unsolicited-rtp alerts the sequential IDS never
// raises. Each packet is fed only after the previous one is disposed
// of, so X's tombstone expiry (run by call Z's INVITE on X's shard)
// deterministically happens before Y's later media is routed.
func TestReusedMediaAddressKeepsRoute(t *testing.T) {
	const shards = 2
	cfg := ids.DefaultConfig()
	cfg.IdleEviction = 20 * time.Second // X closes at 1 s: evicted at 11 s, forgotten by 41 s
	e := engine.New(engine.Config{Shards: shards, IDS: cfg})
	defer e.Close()
	x := dialog.TestbedCall("", 1)
	key := ids.AppendMediaKey(nil, x.Caller.Media.Host, x.Caller.Media.Port)
	// X and Z share the shard the reused destination hashes to; Y is on
	// the other one.
	pick := func(prefix string, want int) string {
		for i := 0; ; i++ {
			if id := fmt.Sprintf("%s%d@ua1.a.example.com", prefix, i); e.ShardIndexFor(id) == want {
				return id
			}
		}
	}
	home := e.ShardIndexForBytes(key)
	x.ID = pick("x", home)
	y, z := dialog.TestbedCall(pick("y", 1-home), 1), dialog.TestbedCall(pick("z", home), 2)

	var s dialog.Script
	x.Establish(&s, 0, 20*time.Millisecond, false)
	x.Talk(&s, 100*time.Millisecond, 40)
	x.Hangup(&s, time.Second, 20*time.Millisecond)
	y.Establish(&s, 3*time.Second, 20*time.Millisecond, false)
	y.Talk(&s, 3100*time.Millisecond, 3000) // 3.1 s .. 63.1 s
	z.Establish(&s, 50*time.Second, 20*time.Millisecond, false)
	sort.SliceStable(s, func(i, j int) bool { return s[i].At < s[j].At })
	entries := dialog.Render(s)

	want := replaySequential(t, entries, cfg)
	for _, lanes := range []int{1, 2} {
		ing := New(Config{Lanes: lanes, Engine: engine.Config{Shards: shards, IDS: cfg}})
		for i, en := range entries {
			if err := ing.Ingest(en.Packet(), en.At()); err != nil {
				t.Fatalf("ingest entry %d: %v", i, err)
			}
			for {
				st := ing.Stats()
				if st.Processed+st.Absorbed+st.Ignored+st.ParseErrors > uint64(i) {
					break
				}
				runtime.Gosched()
			}
		}
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
		if got := ing.Alerts(); !reflect.DeepEqual(want, got) {
			t.Errorf("lanes=%d: pipeline raised %v, sequential %v", lanes, got, want)
		}
	}
}
