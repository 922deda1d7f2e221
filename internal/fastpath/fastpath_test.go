package fastpath

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testConfig() Config {
	return Config{
		SeqGap:      50,
		TSGap:       8000,
		RateWindow:  time.Second,
		RatePackets: 100,
	}
}

// lookup consults c for one RTP packet the way the ingress does and
// returns the bundle.
func lookup(c *Cache, key []byte, pt uint8, ssrc uint32, seq uint16, ts uint32, at time.Duration) Consult {
	var res Consult
	c.ConsultKey(key, pt, ssrc, seq, ts, at, &res)
	return res
}

func arm(t *testing.T, c *Cache, key []byte, callID string) *Flow {
	t.Helper()
	f := c.Install(key, callID, 0)
	// First packet escalates (never armed) ...
	res := lookup(c, key, 0, 1, 100, 1600, 0)
	if res.Verdict != Miss || res.Flow == nil {
		t.Fatalf("first lookup = %v, want Miss with flow", res.Verdict)
	}
	// ... and the worker arms from machine state.
	if !c.Update(key, res.Epoch, 0, Snapshot{Gen: 1, SSRC: 1, Seq: 100, TS: 1600, WinStart: 0, WinCount: 1}) {
		t.Fatal("arm refused")
	}
	res.Flow.Release()
	return f
}

func TestLookupHitAbsorbsInProfile(t *testing.T) {
	c := New(testConfig())
	key := []byte("m|10.0.0.2|20000")
	f := arm(t, c, key, "call-1")

	for i := 1; i <= 10; i++ {
		if v := lookup(c, key, 0, 1, uint16(100+i), uint32(1600+160*i), time.Duration(i)*20*time.Millisecond).Verdict; v != Hit {
			t.Fatalf("packet %d: verdict %v, want Hit", i, v)
		}
	}
	st := c.Counters()
	if st.Hits != 10 || st.Escalations != 0 {
		t.Fatalf("counters = %+v, want 10 hits", st)
	}
	if seen := c.LastSeen(f); seen != 200*time.Millisecond {
		t.Fatalf("LastSeen = %v", seen)
	}
}

func TestLookupEscalatesAnomalies(t *testing.T) {
	cases := []struct {
		name string
		pt   uint8
		ssrc uint32
		seq  uint16
		ts   uint32
	}{
		{"payload", 9, 1, 101, 1760},
		{"ssrc", 0, 2, 101, 1760},
		{"seq jump", 0, 1, 151, 1760},
		{"ts jump", 0, 1, 101, 99999},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(testConfig())
			key := []byte("m|10.0.0.2|20000")
			arm(t, c, key, "call-1")
			res := lookup(c, key, tc.pt, tc.ssrc, tc.seq, tc.ts, 20*time.Millisecond)
			if res.Verdict != Escalate || !res.HasSnap {
				t.Fatalf("verdict = %v hasSnap=%v, want Escalate with snapshot", res.Verdict, res.HasSnap)
			}
			if snap := res.Snap; snap.Seq != 100 || snap.WinCount != 1 || snap.Gen != 1 {
				t.Fatalf("snapshot = %+v, want pre-escalation window", snap)
			}
			res.Flow.Release()
			// Disarmed now: the next packet misses without a snapshot
			// (the escalated packet carried it).
			res = lookup(c, key, 0, 1, 102, 1920, 40*time.Millisecond)
			if res.Verdict != Miss || res.HasSnap {
				t.Fatalf("post-escalation lookup = %v hasSnap=%v, want plain Miss", res.Verdict, res.HasSnap)
			}
			res.Flow.Release()
		})
	}
}

func TestLookupEscalatesRateFlood(t *testing.T) {
	cfg := testConfig()
	cfg.RatePackets = 5
	c := New(cfg)
	key := []byte("m|10.0.0.2|20000")
	arm(t, c, key, "call-1") // winCount = 1
	for i := 1; i <= 4; i++ {
		if v := lookup(c, key, 0, 1, uint16(100+i), uint32(1600+160*i), time.Millisecond*time.Duration(i)).Verdict; v != Hit {
			t.Fatalf("packet %d: verdict %v, want Hit", i, v)
		}
	}
	res := lookup(c, key, 0, 1, 105, 2400, 5*time.Millisecond)
	if res.Verdict != Escalate || !res.HasSnap || res.Snap.WinCount != 5 {
		t.Fatalf("flood lookup = %v hasSnap=%v snap=%+v, want Escalate at winCount 5", res.Verdict, res.HasSnap, res.Snap)
	}
	res.Flow.Release()
}

func TestRateWindowRollsOver(t *testing.T) {
	cfg := testConfig()
	cfg.RatePackets = 5
	c := New(cfg)
	key := []byte("m|10.0.0.2|20000")
	arm(t, c, key, "call-1")
	for i := 1; i <= 40; i++ {
		// 4 packets per window: always under budget as windows roll.
		at := time.Duration(i) * 300 * time.Millisecond
		if v := lookup(c, key, 0, 1, uint16(100+i), uint32(1600+160*i), at).Verdict; v != Hit {
			t.Fatalf("packet %d: verdict %v, want Hit", i, v)
		}
	}
}

func TestDisarmCallStopsAbsorption(t *testing.T) {
	c := New(testConfig())
	key := []byte("m|10.0.0.2|20000")
	arm(t, c, key, "call-1")

	c.DisarmCall([]byte("call-1"))

	res := lookup(c, key, 0, 1, 101, 1760, 20*time.Millisecond)
	if res.Verdict != Miss || !res.HasSnap {
		t.Fatalf("post-BYE lookup = %v hasSnap=%v, want Miss carrying resync snapshot", res.Verdict, res.HasSnap)
	}
	if res.Snap.Seq != 100 {
		t.Fatalf("snapshot seq = %d, want 100", res.Snap.Seq)
	}
	res.Flow.Release()
	if st := c.Counters(); st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}
}

func TestStaleArmRejectedAfterInvalidation(t *testing.T) {
	c := New(testConfig())
	key := []byte("m|10.0.0.2|20000")
	c.Install(key, "call-1", 0)
	res := lookup(c, key, 0, 1, 100, 1600, 0)
	if res.Verdict != Miss {
		t.Fatal("expected Miss")
	}
	// A BYE lands at ingress before the worker processes the packet.
	c.DisarmCall([]byte("call-1"))
	if c.Update(key, res.Epoch, 0, Snapshot{Gen: 1, SSRC: 1, Seq: 100, TS: 1600}) {
		t.Fatal("stale arm accepted after invalidation")
	}
	res.Flow.Release()
}

func TestArmRefusedWithQueuedPackets(t *testing.T) {
	c := New(testConfig())
	key := []byte("m|10.0.0.2|20000")
	c.Install(key, "call-1", 0)
	first := lookup(c, key, 0, 1, 100, 1600, 0)
	second := lookup(c, key, 0, 1, 101, 1760, time.Millisecond)
	if first.Flow != second.Flow {
		t.Fatal("expected one flow entry")
	}
	// Worker processes the first packet while the second still queues:
	// arming now would let the mirror miss the queued packet.
	if c.Update(key, first.Epoch, 0, Snapshot{Gen: 1, SSRC: 1, Seq: 100, TS: 1600}) {
		t.Fatal("arm accepted with a queued slow-path packet in flight")
	}
	first.Flow.Release()
	if !c.Update(key, first.Epoch, 0, Snapshot{Gen: 1, SSRC: 1, Seq: 101, TS: 1760}) {
		t.Fatal("arm refused for the last in-flight packet")
	}
	second.Flow.Release()
}

func TestInstallRenegotiationInvalidates(t *testing.T) {
	c := New(testConfig())
	key := []byte("m|10.0.0.2|20000")
	arm(t, c, key, "call-1")
	// Re-advertised destination (SDP renegotiation): must invalidate.
	c.Install(key, "call-1", 0)
	res := lookup(c, key, 0, 1, 101, 1760, 20*time.Millisecond)
	if res.Verdict != Miss || !res.HasSnap {
		t.Fatalf("post-renegotiation lookup = %v, want Miss with snapshot", res.Verdict)
	}
	res.Flow.Release()
}

func TestInstallReassignsCallOwnership(t *testing.T) {
	c := New(testConfig())
	key := []byte("m|10.0.0.2|20000")
	arm(t, c, key, "call-1")
	c.Install(key, "call-2", 3)
	// The old call no longer owns the flow ...
	c.DisarmCall([]byte("call-1"))
	// ... the new one does, and routes it: re-arm under the new epoch
	// and check that call-2's signaling disarms it.
	res := lookup(c, key, 0, 1, 101, 1760, 20*time.Millisecond)
	if res.Verdict != Miss || res.ShardIdx != 3 {
		t.Fatalf("lookup = %v shard %d, want Miss routed to shard 3", res.Verdict, res.ShardIdx)
	}
	if !c.Update(key, res.Epoch, 0, Snapshot{Gen: 2, SSRC: 1, Seq: 101, TS: 1760, WinCount: 1}) {
		t.Fatal("re-arm refused")
	}
	res.Flow.Release()
	c.DisarmCall([]byte("call-2"))
	if res := lookup(c, key, 0, 1, 102, 1920, 40*time.Millisecond); res.Verdict != Miss {
		t.Fatalf("lookup after new-owner disarm = %v, want Miss", res.Verdict)
	} else {
		res.Flow.Release()
	}
	// Evicting the old owner leaves the route the new one installed.
	c.Remove("call-1")
	if res := lookup(c, key, 0, 1, 103, 2080, 60*time.Millisecond); res.Flow == nil || res.ShardIdx != 3 {
		t.Fatalf("old owner's eviction removed call-2's flow: %+v", res)
	} else {
		res.Flow.Release()
	}
}

func TestRemoveDeletesFlow(t *testing.T) {
	c := New(testConfig())
	key := []byte("m|10.0.0.2|20000")
	other := []byte("m|10.0.0.3|20000")
	arm(t, c, key, "call-1")
	c.Install(other, "call-1", 0)
	if n := c.Counters().Flows; n != 2 {
		t.Fatalf("flows = %d after two installs, want 2", n)
	}
	c.Remove("call-1")
	if f := c.Lookup(key); f != nil {
		t.Fatal("flow survived Remove")
	}
	if res := lookup(c, key, 0, 1, 101, 1760, 0); res.Verdict != Miss || res.Flow != nil || res.ShardIdx != -1 {
		t.Fatalf("lookup after Remove = %+v, want entry-less, unrouted Miss", res)
	}
	if n := c.Counters().Flows; n != 0 {
		t.Fatalf("flows = %d after Remove, want 0", n)
	}
	// The call index is cleaned too: DisarmCall finds nothing to count.
	before := c.Counters().Invalidations
	c.DisarmCall([]byte("call-1"))
	if got := c.Counters().Invalidations; got != before {
		t.Fatalf("DisarmCall after Remove bumped invalidations %d -> %d", before, got)
	}
}

func TestReorderedPacketDoesNotRewindWindow(t *testing.T) {
	c := New(testConfig())
	key := []byte("m|10.0.0.2|20000")
	c.Install(key, "call-1", 0)
	res := lookup(c, key, 0, 1, 65533, 1600, 0)
	if !c.Update(key, res.Epoch, 0, Snapshot{Gen: 1, SSRC: 1, Seq: 65533, TS: 1600, WinCount: 1}) {
		t.Fatal("arm refused")
	}
	res.Flow.Release()
	// In-order across the wrap with one late straggler.
	seqs := []uint16{65534, 0, 65535, 1, 2}
	for i, s := range seqs {
		if v := lookup(c, key, 0, 1, s, uint32(1600+160*(i+1)), time.Duration(i+1)*20*time.Millisecond).Verdict; v != Hit {
			t.Fatalf("seq %d: verdict %v, want Hit", s, v)
		}
	}
}

// TestRouteDisarmsOnBye pins the probe RTCP takes: it routes by the
// flow without pinning it or counting an outcome, answers -1 for a key
// no SDP advertised, and an RTCP BYE stops absorption.
func TestRouteDisarmsOnBye(t *testing.T) {
	c := New(testConfig())
	key := []byte("m|10.0.0.2|20000")
	arm(t, c, key, "call-1")
	c.Install([]byte("m|10.0.0.2|20002"), "call-2", 5)
	before := c.Counters()

	var res Consult
	c.Route([]byte("m|10.0.0.9|1"), false, &res)
	if res.Verdict != Miss || res.Flow != nil || res.ShardIdx != -1 {
		t.Fatalf("route to an unadvertised key = %+v, want unrouted Miss", res)
	}
	c.Route([]byte("m|10.0.0.2|20002"), false, &res)
	if res.Flow != nil || res.ShardIdx != 5 {
		t.Fatalf("route = %+v, want shard 5 and no pinned flow", res)
	}
	c.Route(key, false, &res)
	if v := lookup(c, key, 0, 1, 101, 1760, 20*time.Millisecond).Verdict; v != Hit {
		t.Fatalf("a sender report disarmed the flow: verdict %v", v)
	}
	if st := c.Counters(); st.Misses != before.Misses || st.Invalidations != before.Invalidations {
		t.Fatalf("route probes counted outcomes: %+v -> %+v", before, st)
	}

	c.Route(key, true, &res)
	res = lookup(c, key, 0, 1, 102, 1920, 60*time.Millisecond)
	if res.Verdict != Miss || !res.HasSnap {
		t.Fatalf("after RTCP BYE: %v hasSnap=%v, want Miss carrying resync snapshot", res.Verdict, res.HasSnap)
	}
	res.Flow.Release()
}

// TestCallRecordLifecycle walks one record through the registry: an
// INVITE opens it, its detector adopts it, installs land in it while it
// is open, closing it disarms its flows and refuses further installs
// while its flows keep routing, an INVITE reopens it, and only a closed
// record is forgotten — with its flows.
func TestCallRecordLifecycle(t *testing.T) {
	c := New(testConfig())
	key := []byte("m|10.0.0.2|20000")
	call, opened := c.Open([]byte("call-1"), fnv32a("call-1"), 2)
	if !opened || call.shard != 2 || c.Find([]byte("call-1"), fnv32a("call-1")) != call {
		t.Fatalf("Open = %p opened=%v shard %d; Find = %p", call, opened, call.shard, c.Find([]byte("call-1"), fnv32a("call-1")))
	}
	if again, opened := c.Open([]byte("call-1"), fnv32a("call-1"), 2); again != call || opened {
		t.Fatal("a retransmitted INVITE opened a second record")
	}
	if c.Adopt(call) != call {
		t.Fatal("Adopt returned another record")
	}
	f := c.InstallCall(key, call)
	if f == nil {
		t.Fatal("install into a live record refused")
	}
	res := lookup(c, key, 0, 1, 100, 1600, 0)
	if !c.Update(key, res.Epoch, 0, Snapshot{SSRC: 1, Seq: 100, TS: 1600, WinCount: 1}) {
		t.Fatal("arm refused")
	}
	res.Flow.Release()

	c.Close(call)
	if res := lookup(c, key, 0, 1, 101, 1760, 20*time.Millisecond); res.Verdict != Miss || res.ShardIdx != 2 {
		t.Fatalf("closed call's flow: %+v, want a Miss still routed to shard 2", res)
	} else {
		res.Flow.Release()
	}
	if c.InstallCall([]byte("m|10.0.0.2|20002"), call) != nil {
		t.Fatal("install into a closed record accepted")
	}
	c.Abandon(call)
	if c.Find([]byte("call-1"), fnv32a("call-1")) != call {
		t.Fatal("Abandon took out a record a detector adopted")
	}

	// A new INVITE on the Call-ID reopens the record; the tombstone's
	// expiry must then leave it to the detector that will adopt it.
	if _, opened := c.Open([]byte("call-1"), fnv32a("call-1"), 2); !opened {
		t.Fatal("an INVITE on a closed record did not reopen it")
	}
	c.Forget(call)
	if c.Find([]byte("call-1"), fnv32a("call-1")) != call {
		t.Fatal("Forget removed a reopened record")
	}
	c.Adopt(call)
	c.Close(call)
	c.Forget(call)
	if st := c.Counters(); st.Calls != 0 || st.Flows != 0 || c.Find([]byte("call-1"), fnv32a("call-1")) != nil {
		t.Fatalf("after Forget: %+v, want no record and no flow", st)
	}
	if c.InstallCall(key, call) != nil {
		t.Fatal("install into a forgotten record accepted")
	}
}

// TestAbandonTakesOutUnadoptedRecord: a record whose opening INVITE no
// detector will see leaves the registry with its flows; one a detector
// adopted stays.
func TestAbandonTakesOutUnadoptedRecord(t *testing.T) {
	c := New(testConfig())
	call, _ := c.Open([]byte("dropped"), fnv32a("dropped"), 0)
	c.InstallCall([]byte("m|10.0.0.2|20000"), call)
	c.Abandon(call)
	if st := c.Counters(); st.Calls != 0 || st.Flows != 0 {
		t.Fatalf("after Abandon: %+v, want no record and no flow", st)
	}
	// A retransmission queued behind the dropped INVITE reaches the
	// detector, which re-inserts the record.
	if c.Adopt(call) != call || c.Find([]byte("dropped"), fnv32a("dropped")) != call {
		t.Fatal("Adopt did not re-insert the abandoned record")
	}
}

// TestRevertRestoresRoute: a datagram of a call its detector no longer
// knows must not move a route. The flow Install took from another call
// goes back to it, a flow Install created goes away, and a confirmed
// change stays.
func TestRevertRestoresRoute(t *testing.T) {
	c := New(testConfig())
	key := []byte("m|10.0.0.2|20000")
	live, _ := c.Open([]byte("live"), fnv32a("live"), 1)
	c.Adopt(live)
	f := c.InstallCall(key, live)
	c.Confirm(f, live)
	dead, _ := c.Open([]byte("dead"), fnv32a("dead"), 3)
	c.Adopt(dead)

	if g := c.InstallCall(key, dead); g != f {
		t.Fatal("re-advertised destination got a second flow")
	}
	if res := lookup(c, key, 0, 1, 100, 1600, 0); res.ShardIdx != 3 {
		t.Fatalf("installed route: shard %d, want 3", res.ShardIdx)
	} else {
		res.Flow.Release()
	}
	c.Revert(f, dead)
	if res := lookup(c, key, 0, 1, 101, 1760, 0); res.ShardIdx != 1 {
		t.Fatalf("reverted route: shard %d, want the previous owner's 1", res.ShardIdx)
	} else {
		res.Flow.Release()
	}
	c.Revert(f, dead) // judged already: nothing left to undo
	if res := lookup(c, key, 0, 1, 102, 1920, 0); res.ShardIdx != 1 {
		t.Fatalf("second revert moved the route to shard %d", res.ShardIdx)
	} else {
		res.Flow.Release()
	}

	fresh := c.InstallCall([]byte("m|10.0.0.9|4000"), dead)
	c.Revert(fresh, dead)
	if n := c.Counters().Flows; n != 1 {
		t.Fatalf("flows = %d after reverting a created flow, want 1", n)
	}

	// A confirmed change is final; once its previous owner is forgotten
	// an unconfirmed one unlinks instead.
	c.InstallCall(key, dead)
	c.Confirm(f, dead)
	c.Revert(f, dead)
	if res := lookup(c, key, 0, 1, 103, 2080, 0); res.ShardIdx != 3 {
		t.Fatalf("confirmed route reverted to shard %d", res.ShardIdx)
	} else {
		res.Flow.Release()
	}
	c.InstallCall(key, live)
	c.Close(dead)
	c.Forget(dead)
	c.Revert(f, live)
	if n := c.Counters().Flows; n != 0 {
		t.Fatalf("flows = %d after reverting to a forgotten owner, want 0", n)
	}
}

// TestConcurrentInstallsKeepOneOwner races installs of one destination
// for different calls, as lanes without a shared lock do: afterwards the
// flow belongs to exactly one call, that call's Remove deletes it,
// every other call's Remove leaves the table untouched, and the
// registry ends empty.
func TestConcurrentInstallsKeepOneOwner(t *testing.T) {
	c := New(testConfig())
	key := []byte("m|10.0.0.2|20000")
	const calls = 8
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				c.Install(key, fmt.Sprintf("call-%d", i), i)
			}
		}(i)
	}
	wg.Wait()
	owner := lookup(c, key, 0, 1, 1, 1, 0)
	owner.Flow.Release()
	for i := 0; i < calls; i++ {
		if i == owner.ShardIdx {
			continue
		}
		c.Remove(fmt.Sprintf("call-%d", i))
	}
	if n := c.Counters().Flows; n != 1 {
		t.Fatalf("non-owners' eviction left %d flows, want 1", n)
	}
	c.Remove(fmt.Sprintf("call-%d", owner.ShardIdx))
	if n := c.Counters().Flows; n != 0 {
		t.Fatalf("owner's eviction left %d flows, want 0", n)
	}
	if n := c.Counters().Calls; n != 0 {
		t.Fatalf("call registry holds %d records after every Remove", n)
	}
}

// TestLookupHitAllocsZero pins the tentpole's 0 allocs/op contract:
// the absorb path — predicate check, window advance, rate accounting,
// counter bump — must not allocate. The benchmark reports the same
// number; this test makes it a hard gate wherever `go test` runs.
func TestLookupHitAllocsZero(t *testing.T) {
	c := New(testConfig())
	key := []byte("m|10.0.0.2|20000")
	arm(t, c, key, "call-1")

	seq, ts, at := uint16(100), uint32(1600), time.Duration(0)
	var res Consult
	allocs := testing.AllocsPerRun(500, func() {
		seq++
		ts += 160
		at += 20 * time.Millisecond
		if c.ConsultKey(key, 0, 1, seq, ts, at, &res); res.Verdict != Hit {
			t.Fatalf("verdict %v, want Hit", res.Verdict)
		}
	})
	if allocs != 0 {
		t.Fatalf("fast-path hit allocated %.1f per op, want 0", allocs)
	}
}

// TestDisarmCallAllocsZero: the per-SIP-datagram invalidation sweep
// runs on the signaling ingestion path and must not allocate either.
func TestDisarmCallAllocsZero(t *testing.T) {
	c := New(testConfig())
	key := []byte("m|10.0.0.2|20000")
	arm(t, c, key, "call-1")
	callID := []byte("call-1")
	allocs := testing.AllocsPerRun(500, func() {
		c.DisarmCall(callID)
	})
	if allocs != 0 {
		t.Fatalf("DisarmCall allocated %.1f per op, want 0", allocs)
	}
}

// TestFrontSlotChecksIdentity: a destination whose seeded hash lands
// in an armed flow's stripe and front slot must not borrow the armed
// flow's entry. Brute-forced with the cache's own seed, the colliding
// destination is an unrouted Miss while nothing is installed there,
// and routes to its own shard once something is; the armed flow keeps
// absorbing throughout.
func TestFrontSlotChecksIdentity(t *testing.T) {
	c := New(testConfig())
	const host, port = "10.0.0.2", 20000
	key := []byte(fmt.Sprintf("%s:%d", host, port))
	arm(t, c, key, "call-1")
	armed := hashAddr(c.seed, host, port)
	st := c.stripeFor(armed)

	var other string
	for i := 0; i < 1<<22 && other == ""; i++ {
		h := fmt.Sprintf("10.%d.%d.%d", i>>16&255, i>>8&255, i&255)
		if hh := hashAddr(c.seed, h, port); h != host && c.stripeFor(hh) == st && st.slot(hh) == st.slot(armed) {
			other = h
		}
	}
	if other == "" {
		t.Fatal("no colliding destination found")
	}
	otherKey := []byte(fmt.Sprintf("%s:%d", other, port))

	seq, ts, at := uint16(100), uint32(1600), time.Duration(0)
	next := func() {
		seq++
		ts += 160
		at += 20 * time.Millisecond
	}
	var res Consult
	for i := 0; i < 3; i++ {
		next()
		c.ConsultAddr(other, port, 0, 1, seq, ts, at, &res)
		if res.Verdict != Miss || res.Flow != nil || res.ShardIdx != -1 {
			t.Fatalf("ConsultAddr(%s) = %+v, want an unrouted Miss", other, res)
		}
		c.ConsultKey(otherKey, 0, 1, seq, ts, at, &res)
		if res.Verdict != Miss || res.Flow != nil || res.ShardIdx != -1 {
			t.Fatalf("ConsultKey(%s) = %+v, want an unrouted Miss", otherKey, res)
		}
		c.RouteAddr(other, port, false, &res)
		if res.ShardIdx != -1 {
			t.Fatalf("RouteAddr(%s) routed to shard %d, want -1", other, res.ShardIdx)
		}
		if c.ConsultAddr(host, port, 0, 1, seq, ts, at, &res); res.Verdict != Hit {
			t.Fatalf("armed flow: verdict %v, want Hit", res.Verdict)
		}
	}

	c.Install(otherKey, "call-2", 5)
	for i := 0; i < 3; i++ {
		next()
		c.ConsultAddr(other, port, 0, 1, seq, ts, at, &res)
		if res.Verdict != Miss || res.Flow == nil || res.ShardIdx != 5 {
			t.Fatalf("installed collider: %+v, want a Miss routed to shard 5", res)
		}
		res.Flow.Release()
		if c.ConsultAddr(host, port, 0, 1, seq, ts, at, &res); res.Verdict != Hit || res.ShardIdx != 0 {
			t.Fatalf("armed flow beside its collider: %+v, want a Hit on shard 0", res)
		}
	}
	c.Remove("call-2")
	if c.ConsultAddr(other, port, 0, 1, seq, ts, at, &res); res.ShardIdx != -1 {
		t.Fatalf("removed collider still routes to shard %d", res.ShardIdx)
	}
	if n := c.Counters().Flows; n != 1 {
		t.Fatalf("flows = %d, want the armed one", n)
	}
}

// TestKeyFormsAgree: a rendered "host:port" key and the destination it
// renders reach the same entry — the text forms split back into the
// (host, port) the address forms take and hash alike — while text that
// ids.AppendMediaKey would never render is all host.
func TestKeyFormsAgree(t *testing.T) {
	c := New(testConfig())
	for _, d := range []struct {
		host string
		port int
	}{
		{"10.0.0.2", 20000}, {"ua2.b.example.com", 30002}, {"::1", 4000},
		{"h", 0}, {"h", -1}, {"", 7}, {"exactly8", 65535}, {"a-host-name-longer-than-sixteen", 1},
	} {
		key := fmt.Sprintf("%s:%d", d.host, d.port)
		if h, p := splitKeyBytes([]byte(key)); string(h) != d.host || p != d.port {
			t.Errorf("splitKeyBytes(%q) = %q, %d", key, h, p)
		}
		if a, b := hashAddr(c.seed, d.host, d.port), hashAddrBytes(c.seed, []byte(d.host), d.port); a != b {
			t.Errorf("%q: hashAddr %x, hashAddrBytes %x", key, a, b)
		}
	}
	for _, key := range []string{"m|10.0.0.2|20000", "h:", "h:007", "h:-0", "h:+5", "h:5x", "h:-", "h:1234567890123456789"} {
		if h, p := splitKeyBytes([]byte(key)); string(h) != key || p != noPort {
			t.Errorf("splitKeyBytes(%q) = %q, %d, want the whole key and noPort", key, h, p)
		}
	}
	if a, b := hashAddr(c.seed, "10.0.0.2", 20000), hashAddr(New(testConfig()).seed, "10.0.0.2", 20000); a == b {
		t.Errorf("two caches hash a destination alike (%x): the hash is not seeded", a)
	}
}

// TestHoldAdmitsOneHolder races producers for two shards on one flow:
// at most one packet holds the flow at a time, and every hold is let
// go.
func TestHoldAdmitsOneHolder(t *testing.T) {
	var f Flow
	var holders atomic.Int32
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if _, held := f.Hold(shard); held {
					if n := holders.Add(1); n != 1 {
						t.Errorf("%d packets hold the flow", n)
					}
					holders.Add(-1)
					f.Unhold()
				}
			}
		}(p % 2)
	}
	wg.Wait()
	if h := f.holder.Load(); h != 0 {
		t.Fatalf("holder = %d after every hold was let go", h)
	}
}
