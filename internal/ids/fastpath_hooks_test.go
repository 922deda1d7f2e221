package ids

import (
	"testing"
	"time"

	"vids/internal/fastpath"
	"vids/internal/rtp"
	"vids/internal/sim"
	"vids/internal/sipmsg"
)

// flowHarness wires a detector to a real flow table the way an engine
// shard is wired: the table routes and absorbs the call's media, and
// what it does not absorb reaches the detector through ProcessMedia.
type flowHarness struct {
	*harness
	fp *fastpath.Cache
	// callee and caller are the flows installed at calleeKey and
	// callerKey: the handles Install returned.
	callee, caller *fastpath.Flow
	last           fastpath.Consult // the consult of the latest media packet
}

var (
	calleeKey = []byte(mediaKeyOf(calleeHost, calleeRTPPort)) // the caller's stream lands here
	callerKey = []byte(mediaKeyOf(callerHost, callerRTPPort)) // the callee's stream lands here
)

func mediaKeyOf(host string, port int) string {
	return string(appendMediaKey(nil, host, port))
}

// newFlowHarness builds the detector and its table, and installs the
// canonical call's two media destinations as the ingress does when
// their SDP crosses it.
func newFlowHarness(t *testing.T, mutate func(*Config)) *flowHarness {
	h := newHarness(t, mutate)
	cfg := h.ids.Config()
	fp := fastpath.New(fastpath.Config{
		SeqGap: cfg.RTP.SeqGap, TSGap: cfg.RTP.TSGap,
		RateWindow: cfg.RTP.RateWindow, RatePackets: cfg.RTP.RatePackets,
	})
	h.ids.Flows = fp
	return &flowHarness{harness: h, fp: fp,
		callee: fp.Install(calleeKey, callID, 0), caller: fp.Install(callerKey, callID, 0)}
}

// media disposes of one RTP packet as the pipeline does: the table
// consults it, and a packet it does not absorb goes to the detector
// with the consult's flow, epoch and snapshot, after which the flow is
// released as the shard worker releases it. It returns the verdict and
// keeps the consult in f.last.
func (f *flowHarness) media(pkt *sim.Packet) fastpath.Verdict {
	raw := pkt.Payload.([]byte)
	ssrc, pt, seq, ts, _ := rtp.ExtractLite(raw)
	res := &f.last
	f.fp.ConsultKey(appendMediaKey(nil, pkt.To.Host, pkt.To.Port), pt, ssrc, seq, ts, f.sim.Now(), res)
	if res.Verdict == fastpath.Hit {
		return res.Verdict
	}
	var snap *fastpath.Snapshot
	if res.HasSnap {
		snap = &res.Snap
	}
	f.ids.ProcessMedia(pkt, res.Flow, res.Epoch, snap)
	if res.Flow != nil {
		res.Flow.Release()
	}
	return res.Verdict
}

// probe consults the table for a packet the detector never sees, so a
// test can read what the table mirrors: its verdict, epoch and, on an
// escalation, the mirrored window.
func (f *flowHarness) probe(key []byte, pt uint8, ssrc uint32, seq uint16, ts uint32) fastpath.Consult {
	var res fastpath.Consult
	f.fp.ConsultKey(key, pt, ssrc, seq, ts, f.sim.Now(), &res)
	if res.Flow != nil {
		res.Flow.Release()
	}
	return res
}

// testArmHooks drives a clean call on the given backend: the detector
// must arm the flow its first in-profile packet belongs to, with the
// machine's window, and disarm every flow of the call on every
// signaling event of the call.
func testArmHooks(t *testing.T, backend Backend) {
	f := newFlowHarness(t, func(c *Config) { c.Backend = backend })
	establishCall(t, f.harness)

	if v := f.media(callerMediaPkt(100, 1000, 0xAAAA)); v != fastpath.Miss {
		t.Fatalf("first packet of an unarmed flow: verdict %v, want miss", v)
	}
	// Armed at the packet's destination with G.729 and the machine's
	// window: a consult with another payload type escalates, carrying
	// exactly that window.
	c := f.probe(calleeKey, 0, 0xAAAA, 101, 1160)
	if c.Verdict != fastpath.Escalate || !c.HasSnap {
		t.Fatalf("PCMU packet against the armed flow: verdict %v, snapshot %v; want an escalation with snapshot", c.Verdict, c.HasSnap)
	}
	if c.Snap.SSRC != 0xAAAA || c.Snap.Seq != 100 || c.Snap.TS != 1000 || c.Snap.WinCount != 1 {
		t.Errorf("armed window %+v, want ssrc=0xAAAA seq=100 ts=1000 count=1", c.Snap)
	}
	// The other direction's flow saw no packet and stays unarmed.
	if c := f.probe(callerKey, 18, 0xBBBB, 500, 9000); c.Verdict != fastpath.Miss {
		t.Errorf("flow of the silent direction: verdict %v, want miss", c.Verdict)
	}

	// The escalation disarmed the flow; the next clean packet re-arms it
	// with the advanced window, and the one after is absorbed.
	if v := f.media(callerMediaPkt(101, 1160, 0xAAAA)); v != fastpath.Miss {
		t.Fatalf("packet after the escalation: verdict %v, want miss", v)
	}
	if v := f.media(callerMediaPkt(102, 1320, 0xAAAA)); v != fastpath.Hit {
		t.Fatalf("in-profile packet after the re-arm: verdict %v, want hit", v)
	}
	if v := f.media(calleeMediaPkt(500, 9000, 0xBBBB)); v != fastpath.Miss {
		t.Fatalf("first packet of the callee's stream: verdict %v, want miss", v)
	}
	if v := f.media(calleeMediaPkt(501, 9160, 0xBBBB)); v != fastpath.Hit {
		t.Fatalf("second packet of the callee's stream: verdict %v, want hit", v)
	}
	if hits := f.fp.Counters().Hits; hits != 2 {
		t.Errorf("hits = %d, want 2", hits)
	}

	// An anomalous packet (wrong SSRC) deviates and must not arm. It
	// reaches the detector with a live epoch — the flow is invalidated
	// first, as a signaling event of the call invalidates it — so an arm
	// attempt would be accepted: only the detector's own judgement keeps
	// the flow disarmed.
	f.fp.Disarm(f.callee)
	alerts := len(f.ids.Alerts())
	if v := f.media(callerMediaPkt(103, 1480, 0xDEAD)); v != fastpath.Miss {
		t.Fatalf("wrong-SSRC packet on a disarmed flow: verdict %v, want miss", v)
	}
	if got := f.ids.Alerts(); len(got) == alerts {
		t.Errorf("wrong-SSRC packet raised no alert")
	}
	if c := f.probe(calleeKey, 18, 0xAAAA, 104, 1640); c.Verdict != fastpath.Miss {
		t.Errorf("flow after the wrong-SSRC packet: verdict %v, want miss (the anomaly armed it)", c.Verdict)
	}

	// Every signaling event of the call disarms both of its flows
	// before it is acked: the armed one (the callee's stream) counts an
	// invalidation, and each flow's epoch moves past any arm offer made
	// before the event.
	epochs := func() (uint64, uint64) {
		return f.probe(calleeKey, 18, 0xAAAA, 104, 1640).Epoch, f.probe(callerKey, 18, 0xBBBB, 502, 9320).Epoch
	}
	before := f.fp.Counters().Invalidations
	e1, e2 := epochs()
	bye := mkInDialog(sipmsg.BYE, true, 2)
	f.ids.Process(sipPacket(bye, sim.Addr{Host: callerHost, Port: 5060}, sim.Addr{Host: calleeHost, Port: 5060}))
	if n := f.fp.Counters().Invalidations - before; n != 1 {
		t.Errorf("BYE invalidated %d armed flows, want 1", n)
	}
	for _, key := range [][]byte{calleeKey, callerKey} {
		if c := f.probe(key, 18, 0, 0, 0); c.Verdict != fastpath.Miss {
			t.Errorf("%s after BYE: verdict %v, want miss", key, c.Verdict)
		}
	}
	b1, b2 := epochs()
	if b1 <= e1 || b2 <= e2 {
		t.Errorf("BYE left an epoch in place: callee %d -> %d, caller %d -> %d", e1, b1, e2, b2)
	}
	f.ids.Process(sipPacket(mkResponse(bye, 200, false), sim.Addr{Host: calleeHost, Port: 5060}, sim.Addr{Host: callerHost, Port: 5060}))
	if a1, a2 := epochs(); a1 <= b1 || a2 <= b2 {
		t.Errorf("200 to BYE left an epoch in place: callee %d -> %d, caller %d -> %d", b1, a1, b2, a2)
	}
}

func TestFastpathArmHooksCompiled(t *testing.T)    { testArmHooks(t, BackendCompiled) }
func TestFastpathArmHooksInterpreted(t *testing.T) { testArmHooks(t, BackendInterpreted) }

// TestFastpathSRTPNeverArms: header-only (SRTP-degraded) mode must
// escalate everything — the table cannot validate payloads it cannot
// see, so the detector must not publish window state at all.
func TestFastpathSRTPNeverArms(t *testing.T) {
	for _, backend := range []Backend{BackendCompiled, BackendInterpreted} {
		f := newFlowHarness(t, func(c *Config) { c.Backend = backend; c.MediaHeaderOnly = true })
		establishCall(t, f.harness)
		for i := 0; i < 5; i++ {
			if v := f.media(callerMediaPkt(uint16(100+i), uint32(1000+160*i), 0xAAAA)); v != fastpath.Miss {
				t.Fatalf("backend %v: SRTP-degraded packet %d: verdict %v, want miss", backend, i, v)
			}
		}
		if hits := f.fp.Counters().Hits; hits != 0 {
			t.Fatalf("backend %v: SRTP-degraded mode absorbed %d packets", backend, hits)
		}
	}
}

// TestIdleSweepConsultsFastpathActivity pins the absorption blind
// spot: a call whose media is wholly absorbed never refreshes the
// monitor's LastActivity, and only the table knows the flow is alive.
// The sweep must fold the table's last-seen time in before judging the
// call idle — and resume evicting once absorption goes quiet too, then
// remove exactly the forgotten call's flows when its tombstone expires.
func TestIdleSweepConsultsFastpathActivity(t *testing.T) {
	for _, backend := range []Backend{BackendCompiled, BackendInterpreted} {
		f := newFlowHarness(t, func(c *Config) { c.Backend = backend; c.IdleEviction = time.Minute })
		other := []byte(mediaKeyOf("ua9.b.example.com", 40000))
		f.fp.Install(other, "call-9@ua9.b.example.com", 0)
		establishCall(t, f.harness)

		// The table absorbs one packet a second until t=90s; the monitor
		// sees only the packet that arms the flow.
		for i := 0; i <= 90; i++ {
			pkt := callerMediaPkt(uint16(100+i), uint32(1000+160*i), 0xAAAA)
			f.at(time.Duration(i)*time.Second, func() { f.media(pkt) })
		}
		f.run(t, 2*time.Minute)
		if hits := f.fp.Counters().Hits; hits != 90 {
			t.Fatalf("backend %v: hits = %d, want 90", backend, hits)
		}
		if f.ids.ActiveCalls() != 1 {
			t.Fatalf("backend %v: sweep evicted a call whose media the table was absorbing", backend)
		}

		// Absorption stops: idle eviction resumes and disarms both of
		// the call's flows — the armed one counts an invalidation, and
		// each flow's epoch moves — while they keep routing its
		// stragglers until the tombstone expires.
		e1 := f.last.Epoch // the caller flow's epoch at its last absorbed packet
		e2 := f.probe(callerKey, 18, 0xBBBB, 500, 9000).Epoch
		before := f.fp.Counters().Invalidations
		f.run(t, 4*time.Minute)
		if f.ids.ActiveCalls() != 0 {
			t.Fatalf("backend %v: sweep never reclaimed the call after absorption went quiet", backend)
		}
		if n := f.fp.Counters().Invalidations - before; n != 1 {
			t.Errorf("backend %v: eviction disarmed %d armed flows, want 1", backend, n)
		}
		c1 := f.probe(calleeKey, 18, 0xAAAA, 191, 1000+160*91)
		c2 := f.probe(callerKey, 18, 0xBBBB, 500, 9000)
		if c1.Verdict != fastpath.Miss || c2.Verdict != fastpath.Miss {
			t.Errorf("backend %v: after eviction: verdicts %v, %v; want both miss", backend, c1.Verdict, c2.Verdict)
		}
		if c1.Epoch <= e1 || c2.Epoch <= e2 {
			t.Errorf("backend %v: eviction left an epoch in place: callee %d -> %d, caller %d -> %d", backend, e1, c1.Epoch, e2, c2.Epoch)
		}
		if c1.ShardIdx < 0 || c2.ShardIdx < 0 {
			t.Errorf("backend %v: eviction removed the call's flows before its tombstone expired", backend)
		}

		// Once the tombstone expires the call's flows leave the table,
		// and the other call's flow stays.
		f.run(t, 10*time.Minute)
		if st := f.fp.Counters(); st.Flows != 1 {
			t.Errorf("backend %v: %d flows left after the tombstone expired, want 1 (the other call's)", backend, st.Flows)
		}
		if c := f.probe(other, 18, 0, 0, 0); c.ShardIdx < 0 {
			t.Errorf("backend %v: tombstone expiry removed another call's flow", backend)
		}
		for _, key := range [][]byte{calleeKey, callerKey} {
			if c := f.probe(key, 18, 0, 0, 0); c.ShardIdx >= 0 {
				t.Errorf("backend %v: the forgotten call's flow %s still routes", backend, key)
			}
		}
	}
}

// TestResyncMediaAppliesSnapshot: the window the table absorbed on the
// machine's behalf must land in the owning machine's variables before
// it judges the next escalated packet — and be dropped when the monitor
// generation says the call was recycled since the snapshot was taken.
func TestResyncMediaAppliesSnapshot(t *testing.T) {
	for _, backend := range []Backend{BackendCompiled, BackendInterpreted} {
		f := newFlowHarness(t, func(c *Config) { c.Backend = backend })
		establishCall(t, f.harness)
		if v := f.media(callerMediaPkt(100, 1000, 0xAAAA)); v != fastpath.Miss {
			t.Fatalf("backend %v: first packet: verdict %v, want miss", backend, v)
		}
		// The table absorbs seq 101..160: to the machine, whose own
		// last-seen seq is 100, seq 161 would be a 61-packet jump, past
		// the spam thresholds.
		for i := 1; i <= 60; i++ {
			if v := f.media(callerMediaPkt(uint16(100+i), uint32(1000+160*i), 0xAAAA)); v != fastpath.Hit {
				t.Fatalf("backend %v: packet %d: verdict %v, want hit", backend, 100+i, v)
			}
		}
		// A signaling event disarms the flow, so the next packet
		// escalates carrying the absorbed window.
		f.fp.DisarmCall([]byte(callID))
		if v := f.media(callerMediaPkt(161, 1000+160*61, 0xAAAA)); v != fastpath.Miss {
			t.Fatalf("backend %v: packet after the disarm: verdict %v, want miss", backend, v)
		}
		if n := len(f.ids.Alerts()); n != 0 {
			t.Fatalf("backend %v: resynced machine flagged an in-profile packet: %+v", backend, f.ids.Alerts())
		}

		// A stale-generation snapshot must be ignored: it rewinds to a
		// far past window, so if it applied the next packet would
		// deviate.
		mon, _ := f.ids.Monitor(callID)
		f.ids.ProcessMedia(callerMediaPkt(162, 1000+160*62, 0xAAAA), nil, 0, &fastpath.Snapshot{
			Gen: mon.gen + 1, SSRC: 0xBBBB, Seq: 9, TS: 16,
		})
		if n := len(f.ids.Alerts()); n != 0 {
			t.Fatalf("backend %v: stale-gen snapshot was applied: %+v", backend, f.ids.Alerts())
		}
	}
}
