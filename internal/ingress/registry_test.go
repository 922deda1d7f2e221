package ingress

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"vids/internal/dialog"
	"vids/internal/engine"
	"vids/internal/fastpath"
	"vids/internal/ids"
	"vids/internal/scenario"
	"vids/internal/sim"
	"vids/internal/trace"
)

// feedInOrder ingests entries one at a time, each only after the
// previous one is disposed of (processed, absorbed, ignored or a parse
// error), so every routing decision sees the detectors caught up with
// the trace.
func feedInOrder(t *testing.T, ing *Ingress, entries []trace.Entry) {
	t.Helper()
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
}

// findCall probes the registry for id.
func findCall(ing *Ingress, id string) *fastpath.Call {
	return ing.fp.Find([]byte(id), fastpath.CallHash([]byte(id)))
}

// shardPick returns a Call-ID with the given prefix that the pipeline
// maps to a shard satisfying ok.
func shardPick(e *engine.Engine, prefix string, ok func(int) bool) string {
	for i := 0; ; i++ {
		if id := fmt.Sprintf("%s%d@ua1.a.example.com", prefix, i); ok(e.ShardIndexFor(id)) {
			return id
		}
	}
}

// TestForgedAnswerCannotHijackRoute: call A is set up at 0 and hung
// up at 1 s, call B talks from 200 ms on another shard, and at 20 s a
// forged 200 for A — evicted by then — advertises B's caller media
// address. The sequential IDS ignores the straggler and raises
// nothing; a pipeline that let the forged answer install a route would
// send B's media to A's shard, where no call owns it, and raise
// unsolicited-rtp. A's shard has seen nothing since 1 s when the lane
// routes the forged answer, so the record is still open there: the
// lane installs, and A's detector, which evicts A on reaching 20 s,
// hands the route back. Packets are fed in order, so that hand-back is
// done before B's next packet is routed.
func TestForgedAnswerCannotHijackRoute(t *testing.T) {
	const shards = 4
	cfg := ids.DefaultConfig()
	e := engine.New(engine.Config{Shards: shards})
	defer e.Close()
	b := dialog.TestbedCall(shardPick(e, "live-b", func(int) bool { return true }), 2)
	home := e.ShardIndexFor(b.ID)
	a := dialog.TestbedCall(shardPick(e, "a", func(s int) bool { return s != home }), 1)

	var s dialog.Script
	a.Establish(&s, 0, 20*time.Millisecond, false)
	a.Hangup(&s, time.Second, 20*time.Millisecond)
	b.Establish(&s, 100*time.Millisecond, 20*time.Millisecond, false)
	b.Talk(&s, 200*time.Millisecond, 1800) // 200 ms .. 36.2 s
	forged := *a
	forged.Callee.Media = b.Caller.Media
	s.Add(20*time.Second, dialog.ProxyB, dialog.ProxyA, forged.OK(true))
	sort.SliceStable(s, func(i, j int) bool { return s[i].At < s[j].At })
	entries := dialog.Render(s)

	want := replaySequential(t, entries, cfg)
	if len(want) != 0 {
		t.Fatalf("sequential IDS raised %v, want nothing", want)
	}
	for _, lanes := range []int{1, 2, 4} {
		ing := New(Config{Lanes: lanes, Engine: engine.Config{Shards: shards, IDS: cfg}})
		feedInOrder(t, ing, entries)
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
		if got := ing.Alerts(); !reflect.DeepEqual(want, got) {
			t.Errorf("lanes=%d: pipeline raised %v, sequential %v", lanes, got, want)
		}
	}
}

// forgedAnswersTrace is 50 calls that are set up and hung up, then 100
// forged 200s for the last of them, gap apart, each advertising a fresh
// media port.
func forgedAnswersTrace(gap time.Duration) []trace.Entry {
	var s dialog.Script
	var last *dialog.Call
	for i := 0; i < 50; i++ {
		last = dialog.TestbedCall(fmt.Sprintf("closed-%d@ua1.a.example.com", i), i)
		at := time.Duration(i) * 100 * time.Millisecond
		last.Establish(&s, at, 20*time.Millisecond, false)
		last.Hangup(&s, at+500*time.Millisecond, 20*time.Millisecond)
	}
	for k := 0; k < 100; k++ {
		forged := *last
		forged.Callee.Media.Port = 40000 + 2*k
		s.Add(6*time.Second+time.Duration(k)*gap, dialog.ProxyB, dialog.ProxyA, forged.OK(true))
	}
	sort.SliceStable(s, func(i, j int) bool { return s[i].At < s[j].At })
	return dialog.Render(s)
}

// TestForgedAnswersLeaveNoFlows: forged answers for a closed call must
// not leave media routes behind, however far apart they come. Spaced
// 10 s apart, the later ones outlast the call's tombstone; a front end
// that kept its own idea of the call alive past the detector's would
// install a flow for each that nothing ever removes.
func TestForgedAnswersLeaveNoFlows(t *testing.T) {
	for _, gap := range []time.Duration{10 * time.Millisecond, 10 * time.Second} {
		for _, lanes := range []int{1, 2} {
			ing := New(Config{Lanes: lanes, Engine: engine.Config{Shards: 4}})
			for i, en := range forgedAnswersTrace(gap) {
				if err := ing.Ingest(en.Packet(), en.At()); err != nil {
					t.Fatalf("ingest entry %d: %v", i, err)
				}
			}
			if err := ing.Close(); err != nil {
				t.Fatal(err)
			}
			if st := ing.fp.Counters(); st.Flows != 0 || st.Calls != 0 {
				t.Errorf("gap %v lanes=%d: %d flows and %d call records after Close, want none", gap, lanes, st.Flows, st.Calls)
			}
		}
	}
}

// replayCalls replays entries and reports how many call records the
// registry still holds after Close.
func replayCalls(t *testing.T, entries []trace.Entry, cfg Config) uint64 {
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
	return ing.fp.Counters().Calls
}

// TestCallRegistryEmptyAfterClose pins the call record's lifetime: a
// record lives from the INVITE that opens it until the detector forgets
// the call, and Close runs every tombstone out, so a drained pipeline
// holds no record — on benign and attack traffic at every lane count,
// on every coverage witness, on every scenario capture, and when a
// full queue drops a call's INVITE before any detector has seen it.
func TestCallRegistryEmptyAfterClose(t *testing.T) {
	for _, attacks := range []bool{false, true} {
		entries := dialog.Synthesize(dialog.SynthConfig{Calls: 200, RTPPerCall: 10, Attacks: attacks})
		for _, lanes := range []int{1, 2, 4} {
			if n := replayCalls(t, entries, Config{Lanes: lanes, Engine: engine.Config{Shards: 4}}); n != 0 {
				t.Errorf("synthesized attacks=%v lanes=%d: %d call records after Close", attacks, lanes, n)
			}
		}
	}
	for _, w := range scenario.Witnesses() {
		if n := replayCalls(t, dialog.Render(w.Script), Config{Lanes: 2, Engine: engine.Config{Shards: 4}}); n != 0 {
			t.Errorf("witness %s: %d call records after Close", w.Name, n)
		}
	}
	for _, name := range scenario.Names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if n := replayCalls(t, captureScenario(t, name), Config{Lanes: 2, Engine: engine.Config{Shards: 4}}); n != 0 {
				t.Errorf("scenario %s: %d call records after Close", name, n)
			}
		})
	}
	for _, policy := range []engine.Policy{engine.DropOldest, engine.Shed} {
		t.Run(policy.String(), func(t *testing.T) { droppedInviteLeavesNoRecord(t, policy) })
	}
}

// droppedInviteLeavesNoRecord stalls a one-slot shard on its first
// packet, queues call Y's INVITE behind it, and makes call Z's INVITE
// evict Y's under policy: Y's record, which no detector adopted, must
// leave the registry on the spot, and the drained pipeline must hold
// no record.
func droppedInviteLeavesNoRecord(t *testing.T, policy engine.Policy) {
	stalled, release := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	ing := New(Config{Lanes: 1, Engine: engine.Config{
		Shards: 1, QueueDepth: 1, Policy: policy,
		OnRetire: func(*sim.Packet) {
			if first.CompareAndSwap(false, true) {
				close(stalled)
				<-release
			}
		},
	}})
	invite := func(id string, at time.Duration) {
		c := dialog.TestbedCall(id, 1)
		var s dialog.Script
		s.Add(at, dialog.ProxyA, dialog.ProxyB, c.Invite(true))
		en := dialog.Render(s)[0]
		if err := ing.Ingest(en.Packet(), en.At()); err != nil {
			t.Fatal(err)
		}
	}
	invite("x@ua1.a.example.com", 0)
	<-stalled
	invite("y@ua1.a.example.com", time.Millisecond)
	if findCall(ing, "y@ua1.a.example.com") == nil {
		t.Fatal("a queued INVITE left no record")
	}
	invite("z@ua1.a.example.com", 2*time.Millisecond)
	if ing.Stats().Dropped != 1 {
		t.Fatalf("dropped %d, want Y's INVITE", ing.Stats().Dropped)
	}
	if findCall(ing, "y@ua1.a.example.com") != nil {
		t.Error("the dropped INVITE's record stayed registered")
	}
	close(release)
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if n := ing.fp.Counters().Calls; n != 0 {
		t.Errorf("%d call records after Close", n)
	}
}
