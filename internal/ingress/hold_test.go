package ingress

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vids/internal/dialog"
	"vids/internal/engine"
	"vids/internal/ids"
	"vids/internal/sim"
	"vids/internal/sipmsg"
	"vids/internal/trace"
)

// parkingRegister scripts a REGISTER with Call-ID callID at at. The
// shard owning callID raises a rogue-register alert on it, which
// parker's OnAlert turns into a parked worker.
func parkingRegister(s *dialog.Script, at time.Duration, callID string) {
	aor := sipmsg.URI{User: "a", Host: "a.example.com"}
	via := sim.Addr{Host: "x.example.net", Port: 5060}
	s.Add(at, via, sim.Addr{Host: "reg.a.example.com", Port: 5060}, dialog.SIP{
		Method: sipmsg.REGISTER, RequestURI: sipmsg.URI{Host: aor.Host}, Via: via,
		Branch: "z9hG4bKpark", CallID: callID, From: aor, FromTag: "p1", To: aor, CSeq: 1,
	})
}

// parker parks the worker that raises the first alert inside OnAlert
// until release; every later alert passes straight through.
type parker struct {
	once    sync.Once
	blocked chan struct{}
	unblock chan struct{}
}

func newParker() *parker {
	return &parker{blocked: make(chan struct{}), unblock: make(chan struct{})}
}

func (p *parker) onAlert(ids.Alert) {
	p.once.Do(func() {
		close(p.blocked)
		<-p.unblock
	})
}

func (p *parker) release() { close(p.unblock) }

// ingestWithin runs Ingest in a goroutine and returns a channel that
// closes when it returns.
func ingestWithin(t *testing.T, ing *Ingress, en trace.Entry) <-chan struct{} {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := ing.Ingest(en.Packet(), en.At()); err != nil {
			t.Error(err)
		}
	}()
	return done
}

// waitDone fails the test unless done closes within a generous bound.
func waitDone(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: Ingest did not return", what)
	}
}

// TestBlockHoldsSecondEscalation pins Block's per-flow wait. With the
// shard worker parked, one escalated packet of an installed flow is
// queued; under Block the flow's second escalation must not be
// enqueued, and its Ingest must not return, until the first packet
// retires. The flow then arms on the second packet, which reaches the
// worker alone, and the third in-profile packet is absorbed. DropOldest
// and Shed serve live capture and never hold a producer back.
func TestBlockHoldsSecondEscalation(t *testing.T) {
	for _, policy := range []engine.Policy{engine.Block, engine.DropOldest, engine.Shed} {
		t.Run(policy.String(), func(t *testing.T) {
			c := dialog.TestbedCall("hold@ua1.a.example.com", 1)
			var s dialog.Script
			c.Establish(&s, 0, 20*time.Millisecond, false)
			parkingRegister(&s, 90*time.Millisecond, "park@example.net")
			for k := 0; k < 3; k++ {
				s = append(s, c.Caller.Stream(c.Callee, 100*time.Millisecond+time.Duration(k)*20*time.Millisecond,
					dialog.G729(c.Caller.SSRC, uint16(k+1))))
			}
			entries := dialog.Render(s)
			setup, register, media := entries[:3], entries[3], entries[4:]

			park := newParker()
			var retired atomic.Uint64
			var firstRetired atomic.Bool
			first := media[0].Packet()
			ing := New(Config{Lanes: 1, Engine: engine.Config{
				Shards: 1, Policy: policy, OnAlert: park.onAlert,
				OnRetire: func(p *sim.Packet) {
					if p == first {
						firstRetired.Store(true)
					}
					retired.Add(1)
				},
			}})
			feed := func(en trace.Entry) {
				t.Helper()
				want := retired.Load() + 1
				waitDone(t, ingestWithin(t, ing, en), "drained feed")
				for retired.Load() < want {
					time.Sleep(time.Millisecond)
				}
			}
			for _, en := range setup {
				feed(en)
			}
			waitDone(t, ingestWithin(t, ing, register), "REGISTER")
			<-park.blocked

			if err := ing.Ingest(first, media[0].At()); err != nil {
				t.Fatal(err)
			}
			second := ingestWithin(t, ing, media[1])
			if policy == engine.Block {
				select {
				case <-second:
					t.Fatal("second escalation returned while the first was still queued")
				case <-time.After(50 * time.Millisecond):
				}
				park.release()
				waitDone(t, second, "held escalation")
				if !firstRetired.Load() {
					t.Fatal("held escalation returned before the first packet retired")
				}
			} else {
				waitDone(t, second, "second escalation with the worker parked")
				park.release()
			}
			for retired.Load() < uint64(len(setup)+3) {
				time.Sleep(time.Millisecond)
			}

			before := ing.Stats().FastpathHits
			feed(media[2])
			if hits := ing.Stats().FastpathHits - before; hits != 1 {
				t.Errorf("third packet: %d fast-path hits, want 1 (the flow armed)", hits)
			}
			if err := ing.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCrossShardReownDoesNotHang: an Install can hand a flow to a call
// on another shard while the flow's escalation still sits in the old
// shard's queue, here behind a parked worker. The next escalation goes
// to the new shard, and Block must not hold it on the packet the old
// shard holds: every Ingest returns, and the alerts are the
// sequential interpreted IDS's.
func TestCrossShardReownDoesNotHang(t *testing.T) {
	const shards = 2
	probe := engine.New(engine.Config{Shards: shards})
	pick := func(prefix string, want int) string {
		for i := 0; ; i++ {
			if id := fmt.Sprintf("%s%d@ua1.a.example.com", prefix, i); probe.ShardIndexFor(id) == want {
				return id
			}
		}
	}
	a, b := dialog.TestbedCall(pick("a", 0), 1), dialog.TestbedCall(pick("b", 1), 1)
	parkID := pick("park", 0)
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}

	// A and B advertise the same media addresses: B's 200 re-owns the
	// callee destination A's caller streams to.
	var s dialog.Script
	a.Establish(&s, 0, 20*time.Millisecond, false)
	parkingRegister(&s, 90*time.Millisecond, parkID)
	s = append(s, a.Caller.Stream(a.Callee, 100*time.Millisecond, dialog.G729(a.Caller.SSRC, 1)))
	b.Establish(&s, 200*time.Millisecond, 20*time.Millisecond, false)
	for k := 0; k < 3; k++ {
		s = append(s, b.Caller.Stream(b.Callee, 300*time.Millisecond+time.Duration(k)*20*time.Millisecond,
			dialog.G729(b.Caller.SSRC, uint16(k+1))))
	}
	entries := dialog.Render(s)
	ref := ids.DefaultConfig()
	ref.Backend = ids.BackendInterpreted
	want := replaySequential(t, entries, ref)

	park := newParker()
	ing := New(Config{Lanes: 2, Engine: engine.Config{Shards: shards, OnAlert: park.onAlert}})
	for i, en := range entries {
		waitDone(t, ingestWithin(t, ing, en), fmt.Sprintf("entry %d", i))
		if i < 3 { // A's setup: let shard 0 build the call before parking it
			for st := ing.Stats(); st.Processed+st.Absorbed+st.Ignored+st.ParseErrors <= uint64(i); st = ing.Stats() {
				time.Sleep(time.Millisecond)
			}
		}
		if i == 3 {
			<-park.blocked
		}
	}
	park.release()
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ing.Alerts(); !reflect.DeepEqual(want, got) {
		t.Errorf("pipeline raised %v, sequential %v", got, want)
	}
}
