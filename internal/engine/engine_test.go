package engine

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vids/internal/dialog"
	"vids/internal/fastpath"
	"vids/internal/ids"
	"vids/internal/rtp"
	"vids/internal/sdp"
	"vids/internal/sim"
	"vids/internal/sipmsg"
)

// These tests drive the tier on its real surface, Enqueue*, the way an
// ingestion lane does: pick the shard, enqueue, then NoteIngested. The
// routing and parity properties that need a front end live in
// routing_test.go and internal/ingress.

// enqueueRaw is one lane-style hand-off to shard idx.
func enqueueRaw(t *testing.T, e *Engine, idx int, pkt *sim.Packet, at time.Duration) {
	t.Helper()
	if err := e.EnqueueRaw(idx, pkt, at); err != nil {
		t.Fatal(err)
	}
	e.NoteIngested()
}

// parkWorker starts a one-shard engine and parks its worker: a REGISTER
// always raises the shard-local rogue-register alert, and the worker
// blocks inside OnAlert until release is called, so everything enqueued
// meanwhile stays in the ring for the policy under test to act on.
func parkWorker(t *testing.T, cfg Config) (e *Engine, release func()) {
	t.Helper()
	blocked := make(chan struct{})
	unblock := make(chan struct{})
	var once sync.Once
	cfg.Shards = 1
	cfg.OnAlert = func(ids.Alert) {
		once.Do(func() {
			close(blocked)
			<-unblock
		})
	}
	e = New(cfg)

	aor := sipmsg.URI{User: "a", Host: "a.example.com"}
	reg := dialog.SIP{Method: sipmsg.REGISTER, RequestURI: sipmsg.URI{Host: aor.Host},
		Via: sim.Addr{Host: "x.example.net", Port: 5060}, Branch: "z9hG4bKpark",
		CallID: "park@example.net", From: aor, FromTag: "p1", To: aor, CSeq: 1}
	enqueueRaw(t, e, 0, &sim.Packet{
		From:  sim.Addr{Host: "x.example.net", Port: 5060},
		To:    sim.Addr{Host: "reg.a.example.com", Port: 5060},
		Proto: sim.ProtoSIP, Payload: reg.Bytes(),
	}, 0)
	<-blocked
	return e, func() { close(unblock) }
}

// senderReport is a media-plane packet that raises nothing.
func senderReport(i int) *sim.Packet {
	return &sim.Packet{
		From:    sim.Addr{Host: "m.example.net", Port: 40001},
		To:      sim.Addr{Host: "n.example.net", Port: 40001},
		Proto:   sim.ProtoRTCP,
		Payload: dialog.RTCP{Type: rtp.RTCPSenderReport, SSRC: uint32(i)}.Bytes(),
	}
}

// TestDropOldestPolicy parks the single shard worker, floods the
// depth-2 queue, and checks the eviction accounting.
func TestDropOldestPolicy(t *testing.T) {
	e, release := parkWorker(t, Config{QueueDepth: 2, Policy: DropOldest})

	// 10 sender reports against a depth-2 queue must evict 8.
	for i := 0; i < 10; i++ {
		enqueueRaw(t, e, 0, senderReport(i), time.Duration(i+1)*time.Millisecond)
	}
	release()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Dropped != 8 {
		t.Errorf("dropped %d, want 8", st.Dropped)
	}
	if st.Processed != 3 { // the REGISTER + the 2 surviving reports
		t.Errorf("processed %d, want 3", st.Processed)
	}
	if st.Processed+st.ParseErrors+st.Dropped != st.Ingested {
		t.Errorf("accounting mismatch: %+v", st)
	}
}

// TestShedPolicyMediaFirst parks the single shard worker, fills the
// depth-4 queue with media, and verifies the shedding tiers with exact
// counters: arriving media is dropped on the floor once the ring is
// full, arriving signaling evicts the oldest queued media, and only a
// ring full of signaling sacrifices its own oldest entry. The retire
// hook must see every enqueued packet exactly once, evicted or not.
func TestShedPolicyMediaFirst(t *testing.T) {
	var retired atomic.Uint64
	e, release := parkWorker(t, Config{
		QueueDepth: 4,
		Policy:     Shed,
		OnRetire:   func(*sim.Packet) { retired.Add(1) },
	})

	// Fill the ring with 4 media packets, then 2 more: the ring is full
	// and the arrivals are media, so tier 1 drops them on the floor.
	for i := 0; i < 6; i++ {
		enqueueRaw(t, e, 0, senderReport(i), time.Duration(i+1)*time.Millisecond)
	}
	// 5 INVITEs against the full ring: the first 4 evict the 4 queued
	// media packets (tier 1), the 5th finds all-signaling and evicts
	// the oldest INVITE (tier 2).
	for i := 0; i < 5; i++ {
		c := dialog.SynthCall(i, "shedsip")
		enqueueRaw(t, e, 0, &sim.Packet{
			From: c.Caller.UA, To: c.Callee.UA,
			Proto: sim.ProtoSIP, Payload: c.Invite(true).Bytes(),
		}, time.Duration(10+i)*time.Millisecond)
	}
	release()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.DroppedMedia != 6 {
		t.Errorf("DroppedMedia = %d, want 6 (2 floor drops + 4 evictions)", st.DroppedMedia)
	}
	if st.DroppedSignaling != 1 {
		t.Errorf("DroppedSignaling = %d, want 1 (all-signaling fallback)", st.DroppedSignaling)
	}
	if st.Dropped != 7 {
		t.Errorf("Dropped = %d, want 7", st.Dropped)
	}
	if st.Processed != 5 { // the REGISTER + the 4 surviving INVITEs
		t.Errorf("processed %d, want 5", st.Processed)
	}
	if st.Processed+st.ParseErrors+st.Dropped != st.Ingested {
		t.Errorf("accounting mismatch: %+v", st)
	}
	if got := retired.Load(); got != st.Ingested {
		t.Errorf("retired %d of %d enqueued packets", got, st.Ingested)
	}
}

// TestConcurrentIngestionStress hammers Enqueue from many goroutines
// while a reader polls Stats — the -race exercise for the ring, the
// worker handoff and the close protocol. Block must lose nothing, and
// a closed engine must refuse further work and tolerate a second Close.
func TestConcurrentIngestionStress(t *testing.T) {
	const producers = 8
	perProducer := dialog.Synthesize(dialog.SynthConfig{Calls: 12, RTPPerCall: 8})
	e := New(Config{Shards: 4, QueueDepth: 64, OnAlert: func(ids.Alert) {}})

	stop := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = e.Stats()
			}
		}
	}()

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, en := range perProducer {
				// Any stable spread will do: detection is not under test
				// here, the queues are.
				if err := e.EnqueueRaw(e.ShardIndexFor(en.ToHost), en.Packet(), en.At()); err != nil {
					t.Error(err)
					return
				}
				e.NoteIngested()
			}
		}()
	}
	wg.Wait()
	close(stop)
	pollWG.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	st := e.Stats()
	want := uint64(producers * len(perProducer))
	if st.Ingested != want {
		t.Errorf("ingested %d, want %d", st.Ingested, want)
	}
	if st.Processed+st.ParseErrors != want {
		t.Errorf("accounting mismatch: %+v", st)
	}
	if st.Dropped != 0 {
		t.Errorf("Block policy dropped %d", st.Dropped)
	}

	if err := e.EnqueueRaw(0, perProducer[0].Packet(), 0); err != ErrClosed {
		t.Errorf("EnqueueRaw after Close: got %v, want ErrClosed", err)
	}
	if err := e.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestStatsThroughput sanity-checks the derived rate.
func TestStatsThroughput(t *testing.T) {
	e := New(Config{Shards: 1})
	for _, en := range dialog.Synthesize(dialog.SynthConfig{Calls: 2, RTPPerCall: 2}) {
		enqueueRaw(t, e, 0, en.Packet(), en.At())
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Processed == 0 || st.PacketsPerSec <= 0 {
		t.Errorf("throughput not derived: %+v", st)
	}
	if st.Elapsed <= 0 {
		t.Errorf("elapsed %v", st.Elapsed)
	}
}

// TestEnqueueMediaReleasesFlowOnce pins the in-flight contract of an
// escalated media packet: the reference its cache consult took is
// dropped exactly once — by the worker when the item was admitted, by
// EnqueueMedia itself when a closed engine refused it. The cache only
// arms a flow whose sole in-flight packet is the arming one, so a probe
// consult plus an arm offer succeeds precisely when every earlier
// reference is back: a leaked one leaves two in flight, a doubly
// released one leaves none.
func TestEnqueueMediaReleasesFlowOnce(t *testing.T) {
	e := New(Config{Shards: 1})
	fp := e.Fastpath()
	dst := sim.Addr{Host: "n.example.net"}
	escalate := func(port int) ([]byte, fastpath.Consult) {
		t.Helper()
		key := ids.AppendMediaKey(nil, dst.Host, port)
		var res fastpath.Consult
		fp.ConsultKey(key, sdp.PayloadG729, 7, 1, 160, 0, &res)
		if res.Flow == nil || res.Verdict == fastpath.Hit {
			t.Fatalf("port %d: consult did not escalate: %+v", port, res)
		}
		return key, res
	}
	enqueue := func(port int) error {
		_, res := escalate(port)
		return e.EnqueueMedia(0, &sim.Packet{
			From:  sim.Addr{Host: "m.example.net", Port: 30000},
			To:    sim.Addr{Host: dst.Host, Port: port},
			Proto: sim.ProtoRTP, Payload: dialog.G729(7, 1).Bytes(),
		}, 0, res.Flow, res.Epoch, res.Snap, res.HasSnap)
	}
	settled := func(port int) bool {
		key, res := escalate(port)
		defer res.Flow.Release()
		return fp.Update(key, res.Epoch, sdp.PayloadG729, fastpath.Snapshot{})
	}

	// No call owns either destination on the shard, so the worker sees
	// unsolicited media and never offers an arm of its own.
	const admitted, refused = 40000, 40002
	for _, port := range []int{admitted, refused} {
		fp.Install(ids.AppendMediaKey(nil, dst.Host, port), "flow@example.net", 0)
	}

	if err := enqueue(admitted); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := enqueue(refused); err != ErrClosed {
		t.Fatalf("EnqueueMedia after Close: got %v, want ErrClosed", err)
	}
	if !settled(admitted) {
		t.Error("admitted item: worker did not release the flow exactly once")
	}
	if !settled(refused) {
		t.Error("refused item: EnqueueMedia did not release the flow exactly once")
	}
}
