package engine

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vids/internal/dialog"
	"vids/internal/fastpath"
	"vids/internal/ids"
	"vids/internal/sdp"
	"vids/internal/sim"
	"vids/internal/sipmsg"
)

// These tests pin Block's path selection (selectInline) on the
// engine's own surface. NoteFastpathHit stands in for the ingress
// tier's absorbed packets, so a test decides exactly how much of a
// shard's traffic the fast path took.

// register is a REGISTER with Call-ID callID: the shard raises a
// rogue-register alert on it, whichever goroutine steps it.
func register(callID string) *sim.Packet {
	aor := sipmsg.URI{User: "a", Host: "a.example.com"}
	via := sim.Addr{Host: "x.example.net", Port: 5060}
	reg := dialog.SIP{Method: sipmsg.REGISTER, RequestURI: sipmsg.URI{Host: aor.Host},
		Via: via, Branch: "z9hG4bK" + callID, CallID: callID,
		From: aor, FromTag: "p1", To: aor, CSeq: 1}
	return &sim.Packet{From: via, To: sim.Addr{Host: "reg.a.example.com", Port: 5060},
		Proto: sim.ProtoSIP, Payload: reg.Bytes()}
}

// invite is call i's initial INVITE.
func invite(i int) *sim.Packet {
	c := dialog.SynthCall(i, "inline")
	return &sim.Packet{From: c.Caller.UA, To: c.Callee.UA,
		Proto: sim.ProtoSIP, Payload: c.Invite(true).Bytes()}
}

// gates parks the goroutine delivering the k-th alert (k < len) until
// open(k); later alerts pass straight through.
type gates struct {
	n       atomic.Int32
	blocked []chan struct{}
	unblock []chan struct{}
}

func newGates(k int) *gates {
	g := &gates{}
	for i := 0; i < k; i++ {
		g.blocked = append(g.blocked, make(chan struct{}))
		g.unblock = append(g.unblock, make(chan struct{}))
	}
	return g
}

func (g *gates) onAlert(ids.Alert) {
	if k := int(g.n.Add(1)) - 1; k < len(g.blocked) {
		close(g.blocked[k])
		<-g.unblock[k]
	}
}

func (g *gates) wait(t *testing.T, k int) {
	t.Helper()
	select {
	case <-g.blocked[k]:
	case <-time.After(10 * time.Second):
		t.Fatalf("alert %d was never delivered", k)
	}
}

func (g *gates) open(k int) { close(g.unblock[k]) }

// retireLog records the order in which the engine retires packets.
type retireLog struct {
	mu   sync.Mutex
	pkts []*sim.Packet
}

func (l *retireLog) retire(p *sim.Packet) {
	l.mu.Lock()
	l.pkts = append(l.pkts, p)
	l.mu.Unlock()
}

func (l *retireLog) has(p *sim.Packet) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, q := range l.pkts {
		if q == p {
			return true
		}
	}
	return false
}

// waitIdle waits until shard 0's ring is empty and no batch or inline
// step is in progress: the state in which selectInline may step.
func waitIdle(t *testing.T, e *Engine) {
	t.Helper()
	sh := e.shards[0]
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
		sh.mu.Lock()
		idle := sh.n == 0 && !sh.busy
		sh.mu.Unlock()
		if idle {
			return
		}
	}
	t.Fatal("shard never went idle")
}

// enqueueWithin runs EnqueueRaw on its own goroutine and fails the test
// unless it returns within a generous bound.
func enqueueWithin(t *testing.T, e *Engine, pkt *sim.Packet, at time.Duration, what string) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- e.EnqueueRaw(0, pkt, at) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: EnqueueRaw did not return", what)
	}
}

// mediaDominated hands shard 0 one window of sender reports with two
// absorbed packets noted per report, each after the worker went idle,
// so the window closes on a fast-path share of two thirds.
func mediaDominated(t *testing.T, e *Engine) {
	t.Helper()
	for i := 0; i < inlineWindow; i++ {
		e.NoteFastpathHit(0)
		e.NoteFastpathHit(0)
		waitIdle(t, e)
		enqueueRaw(t, e, 0, senderReport(i), time.Duration(i+1)*time.Millisecond)
	}
	waitIdle(t, e)
}

// TestInlineOnMediaDominatedShard: once a window closes with the fast
// path absorbing most of the shard's traffic, an idle shard's SIP and
// escalated media are stepped by the producer. The packet is retired
// before Enqueue returns, and ShardStats.Inline counts the steps. A
// shard starts on the worker path, so the first window ran there.
func TestInlineOnMediaDominatedShard(t *testing.T) {
	var log retireLog
	e := New(Config{Shards: 1, OnRetire: log.retire})
	mediaDominated(t, e)
	if n := e.Stats().Shards[0].Inline; n != 1 {
		t.Fatalf("Inline = %d after the first window, want 1 (only its closing item)", n)
	}

	sip := invite(1)
	if err := e.EnqueueRaw(0, sip, time.Second); err != nil {
		t.Fatal(err)
	}
	if !log.has(sip) {
		t.Error("SIP: not retired before EnqueueRaw returned")
	}

	fp := e.Fastpath()
	key := ids.AppendMediaKey(nil, "n.example.net", 40000)
	fp.Install(key, "flow@example.net", 0)
	var res fastpath.Consult
	fp.ConsultKey(key, sdp.PayloadG729, 7, 1, 160, 0, &res)
	if res.Flow == nil || res.Verdict == fastpath.Hit {
		t.Fatalf("consult did not escalate: %+v", res)
	}
	rtpPkt := &sim.Packet{
		From:  sim.Addr{Host: "m.example.net", Port: 30000},
		To:    sim.Addr{Host: "n.example.net", Port: 40000},
		Proto: sim.ProtoRTP, Payload: dialog.G729(7, 1).Bytes(),
	}
	if err := e.EnqueueMedia(0, rtpPkt, time.Second+time.Millisecond, res.Flow, res.Epoch, res.Snap, res.HasSnap); err != nil {
		t.Fatal(err)
	}
	if !log.has(rtpPkt) {
		t.Error("escalated RTP: not retired before EnqueueMedia returned")
	}
	if n := e.Stats().Shards[0].Inline; n != 3 {
		t.Errorf("Inline = %d, want 3", n)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSignalingShardStaysOnWorker: a shard the fast path never relieves
// keeps its worker however idle it is when an item arrives. The stream
// ends with a REGISTER whose alert parks whoever steps it; the
// producer's Enqueue must return while the parked goroutine is the
// worker.
func TestSignalingShardStaysOnWorker(t *testing.T) {
	g := newGates(1)
	e := New(Config{Shards: 1, OnAlert: g.onAlert})
	for i := 0; i < 3*inlineWindow; i++ {
		waitIdle(t, e)
		enqueueRaw(t, e, 0, invite(i), time.Duration(i+1)*time.Millisecond)
	}
	waitIdle(t, e)
	enqueueWithin(t, e, register("park@example.net"), time.Second, "parking REGISTER")
	g.wait(t, 0)
	g.open(0)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if n := e.Stats().Shards[0].Inline; n != 0 {
		t.Errorf("Inline = %d on a signaling-only shard, want 0", n)
	}
}

// TestAlertingShardStaysOnWorker: a window that raised an alert keeps
// the shard on its worker however much of its traffic the fast path
// absorbed, and the next quiet window returns it to inline steps.
func TestAlertingShardStaysOnWorker(t *testing.T) {
	e := New(Config{Shards: 1})
	inline := func() uint64 { return e.Stats().Shards[0].Inline }
	for i := 0; i < inlineWindow; i++ {
		e.NoteFastpathHit(0)
		e.NoteFastpathHit(0)
		waitIdle(t, e)
		pkt := senderReport(i)
		if i == inlineWindow/2 {
			pkt = register("attack@example.net")
		}
		enqueueRaw(t, e, 0, pkt, time.Duration(i+1)*time.Millisecond)
	}
	waitIdle(t, e)
	enqueueRaw(t, e, 0, invite(1), time.Second)
	if n := inline(); n != 0 {
		t.Fatalf("Inline = %d after a window that raised an alert, want 0", n)
	}
	mediaDominated(t, e)
	if n := inline(); n == 0 {
		t.Error("a quiet media-dominated window did not return the shard to inline steps")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLiveCapturePoliciesNeverInline: DropOldest and Shed serve live
// capture and keep their queue, so shedding stays defined, even on a
// shard whose traffic the fast path mostly absorbs.
func TestLiveCapturePoliciesNeverInline(t *testing.T) {
	for _, p := range []Policy{DropOldest, Shed} {
		t.Run(p.String(), func(t *testing.T) {
			e := New(Config{Shards: 1, Policy: p})
			for round := 0; round < 3; round++ {
				mediaDominated(t, e)
			}
			enqueueRaw(t, e, 0, invite(1), time.Second)
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if n := e.Stats().Shards[0].Inline; n != 0 {
				t.Errorf("Inline = %d, want 0", n)
			}
		})
	}
}

// TestInlineNeverOvertakes pins the busy ordering on an inline shard.
// While a producer's inline step is in progress, the items that arrive
// queue and their Enqueue returns, and the worker leaves them alone
// until the step ends; while the worker holds them in a detached batch,
// the next item queues behind them rather than being stepped.
// Retirement is the enqueue order throughout.
func TestInlineNeverOvertakes(t *testing.T) {
	g := newGates(2)
	var log retireLog
	e := New(Config{Shards: 1, OnAlert: g.onAlert, OnRetire: log.retire})
	mediaDominated(t, e)
	// The next window closes inline too, whatever lands in it.
	for i := 0; i < 2*inlineWindow; i++ {
		e.NoteFastpathHit(0)
	}
	inline := func() uint64 { return e.Stats().Shards[0].Inline }
	base := inline()

	a, b, c, x := register("a@example.net"), senderReport(98), register("c@example.net"), senderReport(99)
	stepped := make(chan error, 1)
	go func() { stepped <- e.EnqueueRaw(0, a, time.Second) }()
	g.wait(t, 0) // the producer of a is parked inside its inline step
	if got := inline(); got != base+1 {
		t.Fatalf("a: Inline = %d, want %d", got, base+1)
	}

	// b raises nothing, so a worker that ignored busy would retire it
	// at once.
	enqueueWithin(t, e, b, time.Second+time.Millisecond, "b behind an inline step")
	enqueueWithin(t, e, c, time.Second+2*time.Millisecond, "c behind an inline step")
	time.Sleep(50 * time.Millisecond)
	if log.has(b) || inline() != base+1 {
		t.Fatal("b was stepped while an inline step was in progress")
	}

	g.open(0)
	if err := <-stepped; err != nil {
		t.Fatal(err)
	}
	g.wait(t, 1) // the worker is parked on c, in its detached batch

	enqueueWithin(t, e, x, time.Second+3*time.Millisecond, "x behind a detached batch")
	if log.has(x) || inline() != base+1 {
		t.Fatal("x was stepped while the worker held a detached batch")
	}

	g.open(1)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	tail := log.pkts[len(log.pkts)-4:]
	if tail[0] != a || tail[1] != b || tail[2] != c || tail[3] != x {
		t.Errorf("retire order broke FIFO: got %v, want a, b, c, x", tail)
	}
}
