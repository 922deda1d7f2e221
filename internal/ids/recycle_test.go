package ids

import (
	"fmt"
	"testing"
	"time"

	"vids/internal/sim"
	"vids/internal/sipmsg"
)

// These tests pin the monitor-pool recycling contract: an evicted
// call's record may be handed to a later call (even one reusing the
// same Call-ID), and nothing — machine state, alert dedup, armed
// timers, media index entries — may leak across the generation
// boundary.

func TestRecycledMonitorStartsPristine(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.CloseLinger = 10 * time.Millisecond })
	establishCall(t, h)
	mon1, _ := h.ids.Monitor(callID)

	// A CANCEL after establishment is a deviation; raising it marks the
	// per-call dedup set.
	cancel := mkInDialog(sipmsg.CANCEL, true, 1)
	h.ids.Process(sipPacket(cancel, sim.Addr{Host: callerHost, Port: 5060}, sim.Addr{Host: calleeHost, Port: 5060}))
	if n := len(h.ids.AlertsOfType(AlertDeviation)); n != 1 {
		t.Fatalf("call 1 deviations = %d, want 1", n)
	}

	// Clean teardown; the BYE arms timer T, then eviction (10 ms) lands
	// before timer T's grace (100 ms) — recycling must cancel it.
	bye := mkInDialog(sipmsg.BYE, true, 2)
	h.ids.Process(sipPacket(bye, sim.Addr{Host: callerHost, Port: 5060}, sim.Addr{Host: calleeHost, Port: 5060}))
	okr := sipmsg.NewResponse(bye, sipmsg.StatusOK)
	h.ids.Process(sipPacket(okr, sim.Addr{Host: calleeHost, Port: 5060}, sim.Addr{Host: callerHost, Port: 5060}))
	h.run(t, time.Second)
	if h.ids.ActiveCalls() != 0 {
		t.Fatal("call 1 not evicted")
	}
	if len(h.ids.monPool) != 1 {
		t.Fatalf("pool holds %d monitors, want 1", len(h.ids.monPool))
	}

	// The same Call-ID calls again. The pooled record must be reused
	// and behave exactly like a fresh one: establishment succeeds with
	// no deviation (stale SIP state would reject the INVITE), and the
	// stale timer T never fires into the new call's machines.
	establishCall(t, h)
	mon2, _ := h.ids.Monitor(callID)
	if mon2 != mon1 {
		t.Fatal("pooled monitor was not reused")
	}
	if mon2.RTPCaller.State() != RTPOpen || mon2.RTPCallee.State() != RTPOpen {
		t.Fatalf("recycled RTP machines = %v/%v", mon2.RTPCaller.State(), mon2.RTPCallee.State())
	}
	if n := len(h.ids.AlertsOfType(AlertDeviation)); n != 1 {
		t.Fatalf("re-establishment raised deviations: %v", h.ids.Alerts())
	}

	// The same deviation on the new call must alert again: a leaked
	// dedup set would swallow it.
	h.ids.Process(sipPacket(mkInDialog(sipmsg.CANCEL, true, 1),
		sim.Addr{Host: callerHost, Port: 5060}, sim.Addr{Host: calleeHost, Port: 5060}))
	if n := len(h.ids.AlertsOfType(AlertDeviation)); n != 2 {
		t.Fatalf("call 2 deviations = %d, want 2 (dedup leaked across recycle)", n)
	}

	bye2 := mkInDialog(sipmsg.BYE, true, 2)
	h.ids.Process(sipPacket(bye2, sim.Addr{Host: callerHost, Port: 5060}, sim.Addr{Host: calleeHost, Port: 5060}))
	h.ids.Process(sipPacket(sipmsg.NewResponse(bye2, sipmsg.StatusOK),
		sim.Addr{Host: calleeHost, Port: 5060}, sim.Addr{Host: callerHost, Port: 5060}))
	h.run(t, h.sim.Now()+time.Second)
	if h.ids.ActiveCalls() != 0 || h.ids.Evicted() != 2 {
		t.Fatalf("active = %d, evicted = %d", h.ids.ActiveCalls(), h.ids.Evicted())
	}
	if n := len(h.ids.Alerts()); n != 2 {
		t.Fatalf("total alerts = %d, want exactly the two CANCEL deviations: %v", n, h.ids.Alerts())
	}
}

func TestStaleRTCPGraceSuppressedAcrossRecycle(t *testing.T) {
	// An RTCP BYE arms the 2 s grace timer; the call is then
	// idle-evicted and its monitor rehosted for a new call with the
	// same Call-ID before the deadline. The stale grace expiry must not
	// flag the (established, healthy) second call.
	h := newHarness(t, func(c *Config) { c.IdleEviction = 200 * time.Millisecond })
	establishCall(t, h)
	h.ids.Process(rtcpByePkt(0xAAAA,
		sim.Addr{Host: callerHost, Port: callerRTPPort + 1},
		sim.Addr{Host: calleeHost, Port: calleeRTPPort + 1}))

	h.run(t, 600*time.Millisecond)
	if h.ids.ActiveCalls() != 0 {
		t.Fatal("idle call not swept")
	}

	establishCall(t, h) // t = 600 ms: same Call-ID, pooled record
	h.run(t, 3*time.Second)
	if alerts := h.ids.Alerts(); len(alerts) != 0 {
		t.Fatalf("stale grace timer leaked into recycled call: %v", alerts)
	}
}

func TestTombstoneTTLUnderChurn(t *testing.T) {
	// Sequential churn through one pooled record: every eviction plants
	// a tombstone that must absorb that call's stragglers, and sweeps
	// must expire tombstones after the TTL so the map stays bounded.
	const calls = 300
	h := newHarness(t, func(c *Config) {
		c.CloseLinger = 5 * time.Millisecond
		c.IdleEviction = 500 * time.Millisecond
	})
	for i := 0; i < calls; i++ {
		id := fmt.Sprintf("churn-%d@%s", i, callerHost)
		base := time.Duration(i) * 100 * time.Millisecond
		h.at(base, func() {
			inv := mkInvite()
			inv.CallID = id
			h.ids.Process(sipPacket(inv, sim.Addr{Host: proxyA, Port: 5060}, sim.Addr{Host: proxyB, Port: 5060}))
			h.ids.Process(sipPacket(mkResponse(inv, 200, true),
				sim.Addr{Host: proxyB, Port: 5060}, sim.Addr{Host: proxyA, Port: 5060}))
			ack := mkInDialog(sipmsg.ACK, true, 1)
			ack.CallID = id
			h.ids.Process(sipPacket(ack, sim.Addr{Host: callerHost, Port: 5060}, sim.Addr{Host: calleeHost, Port: 5060}))
			bye := mkInDialog(sipmsg.BYE, true, 2)
			bye.CallID = id
			h.ids.Process(sipPacket(bye, sim.Addr{Host: callerHost, Port: 5060}, sim.Addr{Host: calleeHost, Port: 5060}))
			h.ids.Process(sipPacket(sipmsg.NewResponse(bye, sipmsg.StatusOK),
				sim.Addr{Host: calleeHost, Port: 5060}, sim.Addr{Host: callerHost, Port: 5060}))
		})
		// 20 ms later the monitor is evicted (5 ms linger); the
		// retransmitted 200 must die on the fresh tombstone.
		h.at(base+20*time.Millisecond, func() {
			bye := mkInDialog(sipmsg.BYE, true, 2)
			bye.CallID = id
			h.ids.Process(sipPacket(sipmsg.NewResponse(bye, sipmsg.StatusOK),
				sim.Addr{Host: calleeHost, Port: 5060}, sim.Addr{Host: callerHost, Port: 5060}))
		})
	}
	h.run(t, calls*100*time.Millisecond+5*time.Second)

	if alerts := h.ids.Alerts(); len(alerts) != 0 {
		t.Fatalf("benign churn raised alerts: %v", alerts[:min(len(alerts), 5)])
	}
	if h.ids.ActiveCalls() != 0 || h.ids.Evicted() != calls {
		t.Fatalf("active = %d, evicted = %d", h.ids.ActiveCalls(), h.ids.Evicted())
	}
	// Sequential churn needs exactly one record; a growing pool would
	// mean recycling misses.
	if len(h.ids.monPool) > 2 {
		t.Fatalf("pool grew to %d monitors under sequential churn", len(h.ids.monPool))
	}
	// All tombstones have outlived the TTL by now and must be gone...
	if n := len(h.ids.tombstones); n != 0 {
		t.Fatalf("%d tombstones survived past the TTL", n)
	}
	// ...so a very late straggler is once again an unknown-call event.
	bye := mkInDialog(sipmsg.BYE, true, 2)
	bye.CallID = fmt.Sprintf("churn-%d@%s", 0, callerHost)
	h.ids.Process(sipPacket(sipmsg.NewResponse(bye, sipmsg.StatusOK),
		sim.Addr{Host: calleeHost, Port: 5060}, sim.Addr{Host: callerHost, Port: 5060}))
	if n := len(h.ids.AlertsOfType(AlertDeviation)); n != 1 {
		t.Fatalf("expired tombstone should no longer absorb stragglers: %v", h.ids.Alerts())
	}
}

// TestFloodWatchFreesExpiredDestinations pins the bank's memory bound
// under an INVITE scan and a reflection spray over ever-new
// destinations: a destination holds state only while its T1 window is
// open, so after every window both tables are empty again, the free
// list holds one window's worth of records however many windows pass,
// and a busy destination's next window reuses one of them.
func TestFloodWatchFreesExpiredDestinations(t *testing.T) {
	for _, backend := range []Backend{BackendCompiled, BackendInterpreted} {
		t.Run(backend.String(), func(t *testing.T) {
			s := sim.New(1)
			cfg := DefaultConfig()
			cfg.Backend = backend
			fw := NewFloodWatch(s, cfg, func(Alert) {})
			expire := func() {
				if err := s.RunUntil(s.Now() + cfg.FloodT1 + time.Millisecond); err != nil {
					t.Fatal(err)
				}
			}
			const perWindow, windows = 10_000, 5
			for w := 0; w < windows; w++ {
				for i := 0; i < perWindow; i++ {
					n := w*perWindow + i
					fw.FeedInvite(fmt.Sprintf("user%d@victim.example", n), "scanner.example", s.Now())
					fw.FeedStrayResponse(nil, fmt.Sprintf("host%d.victim.example", n), "reflector.example", s.Now())
				}
				if len(fw.floods) != perWindow || len(fw.respFloods) != perWindow {
					t.Fatalf("window %d open: %d INVITE and %d response entries, want %d each", w, len(fw.floods), len(fw.respFloods), perWindow)
				}
				expire()
				if len(fw.floods) != 0 || len(fw.respFloods) != 0 {
					t.Fatalf("window %d expired: %d INVITE and %d response entries still resident", w, len(fw.floods), len(fw.respFloods))
				}
			}
			if len(fw.freeFloods) != perWindow || len(fw.freeRespFloods) != perWindow {
				t.Fatalf("free lists hold %d and %d records after %d windows of %d destinations, want %d each",
					len(fw.freeFloods), len(fw.freeRespFloods), windows, perWindow, perWindow)
			}
			for _, e := range fw.freeFloods {
				if e.dest != "" || len(e.srcs) != 0 || e.m.State() != FloodInit || len(e.m.Vars()) != 0 {
					t.Fatalf("parked record not pristine: dest=%q srcs=%v state=%s vars=%v", e.dest, e.srcs, e.m.State(), e.m.Vars())
				}
			}
			// A busy destination's next window takes a parked record — the
			// machine, the timer and the source map's buckets — instead
			// of allocating.
			fw.FeedInvite("busy@victim.example", "caller.example", s.Now())
			first := fw.floods["busy@victim.example"]
			expire()
			fw.FeedInvite("busy@victim.example", "caller.example", s.Now())
			if again := fw.floods["busy@victim.example"]; again != first || len(fw.freeFloods) != perWindow-1 {
				t.Errorf("reopened window built a new record (%p, was %p; %d parked)", again, first, len(fw.freeFloods))
			}
		})
	}
}
