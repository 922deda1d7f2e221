package ids

import (
	"testing"
	"time"

	"vids/internal/fastpath"
	"vids/internal/sim"
	"vids/internal/sipmsg"
)

// view feeds m to the detector the way a shard does: serialized, scanned
// once, and handed over with the flow the lane installed for its SDP.
func (f *flowHarness) view(t *testing.T, m *sipmsg.Message, from, to string, flow *fastpath.Flow) {
	t.Helper()
	pkt := sipPacket(m, sim.Addr{Host: from, Port: 5060}, sim.Addr{Host: to, Port: 5060})
	var v sipmsg.View
	if sipmsg.Scan(pkt.Payload.([]byte), &v) != sipmsg.ScanOK {
		t.Fatalf("scan did not commit to %s", m.Summary())
	}
	f.ids.ProcessSIPView(&v, pkt, flow, nil)
}

// establishViewed drives the canonical setup through ProcessSIPView,
// each SDP message with the handle of the flow it advertises, and arms
// the callee flow (the caller's stream) with one clean packet.
func establishViewed(t *testing.T, f *flowHarness) {
	t.Helper()
	inv := mkInvite()
	f.view(t, inv, proxyA, proxyB, f.caller)
	f.view(t, inv, proxyA, proxyB, f.caller) // a retransmission
	f.view(t, mkResponse(inv, 180, false), proxyB, proxyA, nil)
	f.view(t, mkResponse(inv, 200, true), proxyB, proxyA, f.callee)
	f.view(t, mkInDialog(sipmsg.ACK, true, 1), callerHost, calleeHost, nil)
	if v := f.media(callerMediaPkt(100, 1000, 0xAAAA)); v != fastpath.Miss {
		t.Fatalf("first packet of an unarmed flow: verdict %v, want miss", v)
	}
	if v := f.media(callerMediaPkt(101, 1160, 0xAAAA)); v != fastpath.Hit {
		t.Fatalf("second packet: verdict %v, want hit (the flow did not arm)", v)
	}
}

// TestSignalingDisarmsTheHandledFlow: a signaling event of a call
// disarms the flows the lane's handles name, and only those. When the
// table has forgotten the call and another call has installed a fresh
// flow at the same destination, the call's handle still names the
// record it was given, so its signaling leaves the other call's live
// flow alone (looking its key up would have disarmed that flow).
func TestSignalingDisarmsTheHandledFlow(t *testing.T) {
	f := newFlowHarness(t, nil)
	establishViewed(t, f)

	before := f.fp.Counters().Invalidations
	e1 := f.probe(calleeKey, 18, 0xAAAA, 102, 1320).Epoch
	e2 := f.probe(callerKey, 18, 0xBBBB, 500, 9000).Epoch
	f.view(t, mkInDialog(sipmsg.INVITE, true, 2), callerHost, calleeHost, nil)
	if n := f.fp.Counters().Invalidations - before; n != 1 {
		t.Errorf("re-INVITE invalidated %d armed flows, want 1", n)
	}
	c1, c2 := f.probe(calleeKey, 18, 0xAAAA, 103, 1480), f.probe(callerKey, 18, 0xBBBB, 501, 9160)
	if c1.Verdict != fastpath.Miss || c1.Epoch <= e1 || c2.Epoch <= e2 {
		t.Errorf("after the re-INVITE: callee flow %v at epoch %d -> %d, caller flow epoch %d -> %d; want a miss and both epochs moved",
			c1.Verdict, e1, c1.Epoch, e2, c2.Epoch)
	}

	f.fp.Remove(callID)
	other := f.fp.Install(calleeKey, "call-2@ua9.a.example.com", 0)
	if other == f.callee {
		t.Fatal("Install reused a removed record")
	}
	e := f.probe(calleeKey, 18, 0, 0, 0).Epoch
	f.view(t, mkInDialog(sipmsg.BYE, true, 3), callerHost, calleeHost, nil)
	if got := f.probe(calleeKey, 18, 0, 0, 0).Epoch; got != e {
		t.Errorf("the call's BYE moved the epoch of another call's flow at its old destination: %d -> %d", e, got)
	}
}

// TestScanBailSDPFlowDisarmed: an INVITE the lane's scanner bails on
// reaches the detector parsed and without a handle (the engine's cold
// path). Its flow must still be disarmed by the call's later signaling.
func TestScanBailSDPFlowDisarmed(t *testing.T) {
	f := newFlowHarness(t, nil)
	inv := mkInvite()
	inv.From.Display = "Alíce" // the scanner bails on non-ASCII bytes in a name-addr
	pkt := sipPacket(inv, sim.Addr{Host: proxyA, Port: 5060}, sim.Addr{Host: proxyB, Port: 5060})
	raw := pkt.Payload.([]byte)
	var v sipmsg.View
	if res := sipmsg.Scan(raw, &v); res != sipmsg.ScanBail {
		t.Fatalf("scan answered %v, want a bail", res)
	}
	m, err := sipmsg.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	f.ids.ProcessSIP(m, pkt)
	// The answer is scanned: its From carries no display name.
	f.view(t, mkResponse(mkInvite(), 200, true), proxyB, proxyA, f.callee)
	f.view(t, mkInDialog(sipmsg.ACK, true, 1), callerHost, calleeHost, nil)

	// Arm the flow the bailed INVITE advertised (the callee's stream).
	if v := f.media(calleeMediaPkt(500, 9000, 0xBBBB)); v != fastpath.Miss {
		t.Fatalf("first packet: verdict %v, want miss", v)
	}
	if v := f.media(calleeMediaPkt(501, 9160, 0xBBBB)); v != fastpath.Hit {
		t.Fatalf("second packet: verdict %v, want hit (the flow did not arm)", v)
	}
	f.view(t, mkInDialog(sipmsg.BYE, false, 2), calleeHost, callerHost, nil)
	if c := f.probe(callerKey, 18, 0xBBBB, 502, 9320); c.Verdict != fastpath.Miss {
		t.Errorf("the BYE left the bailed INVITE's flow armed: verdict %v", c.Verdict)
	}
}

// TestRecycledMonitorHoldsNoHandle: eviction returns a monitor to the
// pool holding no flow handle and no dialog string, so the next call it
// hosts can neither disarm the previous call's flows nor read its
// slots.
func TestRecycledMonitorHoldsNoHandle(t *testing.T) {
	f := newFlowHarness(t, func(c *Config) { c.CloseLinger = 10 * time.Millisecond })
	establishViewed(t, f)
	mon, _ := f.ids.Monitor(callID)
	if len(mon.flows) != 2 || mon.flows[0] != f.caller || mon.flows[1] != f.callee {
		t.Fatalf("monitor holds %v, want the caller then the callee flow (the retransmitted INVITE adds none)", mon.flows)
	}
	bye := mkInDialog(sipmsg.BYE, true, 2)
	f.view(t, bye, callerHost, calleeHost, nil)
	f.view(t, mkResponse(bye, 200, false), calleeHost, callerHost, nil)
	f.run(t, time.Second)
	if f.ids.ActiveCalls() != 0 {
		t.Fatal("the closed call was not evicted")
	}
	if len(mon.flows) != 0 || len(mon.mediaKeys) != 0 {
		t.Errorf("recycled monitor holds %d flows and %d media keys", len(mon.flows), len(mon.mediaKeys))
	}
	for i, fl := range mon.flows[:cap(mon.flows)] {
		if fl != nil {
			t.Errorf("recycled monitor keeps handle %d in its backing array", i)
		}
	}
	if mon.slots != (dialogSlots{}) {
		t.Errorf("recycled monitor keeps dialog strings %+v", mon.slots)
	}
}
