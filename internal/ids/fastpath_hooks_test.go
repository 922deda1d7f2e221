package ids

import (
	"testing"
	"time"

	"vids/internal/fastpath"
	"vids/internal/sim"
	"vids/internal/sipmsg"
)

// fpRecorder is a MediaFastpath stub that records every hook call.
type fpRecorder struct {
	arms        []fpArm
	invalidated []string
	removed     []string
	activity    map[string]time.Duration
}

type fpArm struct {
	key     string
	payload uint8
	snap    fastpath.Snapshot
}

func (r *fpRecorder) hooks() MediaFastpath {
	return MediaFastpath{
		Arm: func(key []byte, payload uint8, snap fastpath.Snapshot) {
			r.arms = append(r.arms, fpArm{key: string(key), payload: payload, snap: snap})
		},
		Invalidate: func(key string) { r.invalidated = append(r.invalidated, key) },
		Remove:     func(callID string) { r.removed = append(r.removed, callID) },
		Activity: func(key string) (time.Duration, bool) {
			d, ok := r.activity[key]
			return d, ok
		},
	}
}

func mediaKeyOf(host string, port int) string {
	return string(appendMediaKey(nil, host, port))
}

// testArmHooks drives a clean call on the given backend and checks the
// detector publishes the machine's window state on the steady-state
// self-loop and disarms on every signaling event for the call.
func testArmHooks(t *testing.T, backend Backend) {
	h := newHarness(t, func(c *Config) { c.Backend = backend })
	rec := &fpRecorder{}
	h.ids.SetMediaFastpath(rec.hooks())
	establishCall(t, h)

	h.ids.Process(callerMediaPkt(100, 1000, 0xAAAA))
	if len(rec.arms) != 1 {
		t.Fatalf("arms after first in-profile packet = %d, want 1", len(rec.arms))
	}
	arm := rec.arms[0]
	if arm.key != mediaKeyOf(calleeHost, calleeRTPPort) {
		t.Errorf("armed key %q, want %q", arm.key, mediaKeyOf(calleeHost, calleeRTPPort))
	}
	if arm.payload != 18 {
		t.Errorf("armed payload %d, want 18 (G.729)", arm.payload)
	}
	if arm.snap.SSRC != 0xAAAA || arm.snap.Seq != 100 || arm.snap.TS != 1000 {
		t.Errorf("armed snapshot %+v, want ssrc=0xAAAA seq=100 ts=1000", arm.snap)
	}

	// The next in-profile packet re-arms with the advanced window.
	h.ids.Process(callerMediaPkt(101, 1160, 0xAAAA))
	if len(rec.arms) != 2 {
		t.Fatalf("arms after second packet = %d, want 2", len(rec.arms))
	}
	if got := rec.arms[1].snap; got.Seq != 101 || got.TS != 1160 {
		t.Errorf("re-armed snapshot %+v, want seq=101 ts=1160", got)
	}

	// An anomalous packet (wrong SSRC) deviates: no arm for it.
	h.ids.Process(callerMediaPkt(102, 1320, 0xDEAD))
	if len(rec.arms) != 2 {
		t.Errorf("anomalous packet armed the cache: %+v", rec.arms[len(rec.arms)-1])
	}

	// The BYE must invalidate every media key the call owns before the
	// signaling event is acked.
	rec.invalidated = nil
	bye := mkInDialog(sipmsg.BYE, true, 2)
	h.ids.Process(sipPacket(bye, sim.Addr{Host: callerHost, Port: 5060}, sim.Addr{Host: calleeHost, Port: 5060}))
	want := map[string]bool{
		mediaKeyOf(calleeHost, calleeRTPPort): false,
		mediaKeyOf(callerHost, callerRTPPort): false,
	}
	for _, key := range rec.invalidated {
		if _, ok := want[key]; ok {
			want[key] = true
		}
	}
	for key, seen := range want {
		if !seen {
			t.Errorf("BYE did not invalidate %q (invalidated: %v)", key, rec.invalidated)
		}
	}
}

func TestFastpathArmHooksCompiled(t *testing.T)    { testArmHooks(t, BackendCompiled) }
func TestFastpathArmHooksInterpreted(t *testing.T) { testArmHooks(t, BackendInterpreted) }

// TestFastpathSRTPNeverArms: header-only (SRTP-degraded) mode must
// escalate everything — the cache cannot validate payloads it cannot
// see, so the detector must not publish window state at all.
func TestFastpathSRTPNeverArms(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.MediaHeaderOnly = true })
	rec := &fpRecorder{}
	h.ids.SetMediaFastpath(rec.hooks())
	establishCall(t, h)
	for i := 0; i < 5; i++ {
		h.ids.Process(callerMediaPkt(uint16(100+i), uint32(1000+160*i), 0xAAAA))
	}
	if len(rec.arms) != 0 {
		t.Fatalf("SRTP-degraded mode armed the cache %d times", len(rec.arms))
	}
}

// TestIdleSweepConsultsFastpathActivity pins the absorption blind
// spot: a call whose media is wholly absorbed never refreshes the
// monitor's LastActivity, and only the cache knows the flow is alive.
// The sweep must fold the cache's last-seen time in before judging the
// call idle — and resume evicting once absorption goes quiet too.
func TestIdleSweepConsultsFastpathActivity(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.IdleEviction = time.Minute })
	rec := &fpRecorder{activity: map[string]time.Duration{}}
	h.ids.SetMediaFastpath(rec.hooks())
	establishCall(t, h)

	// The cache keeps absorbing until t=90s; the monitor itself sees
	// nothing after setup.
	rec.activity[mediaKeyOf(calleeHost, calleeRTPPort)] = 90 * time.Second
	h.run(t, 2*time.Minute)
	if h.ids.ActiveCalls() != 1 {
		t.Fatal("sweep evicted a call whose media the cache was absorbing")
	}

	// Absorption stops (activity stays at 90s): idle eviction resumes
	// and disarms the call's flows; once the tombstone expires, they are
	// removed from the cache, once.
	rec.invalidated = nil
	h.run(t, 10*time.Minute)
	if h.ids.ActiveCalls() != 0 {
		t.Fatal("sweep never reclaimed the call after absorption went quiet")
	}
	invalidated := map[string]bool{}
	for _, key := range rec.invalidated {
		invalidated[key] = true
	}
	if !invalidated[mediaKeyOf(calleeHost, calleeRTPPort)] || !invalidated[mediaKeyOf(callerHost, callerRTPPort)] {
		t.Errorf("eviction did not disarm the call's flows (invalidated: %v)", rec.invalidated)
	}
	if len(rec.removed) != 1 || rec.removed[0] != callID {
		t.Errorf("tombstone expiry removed flows of %v, want those of %q only", rec.removed, callID)
	}
}

// TestResyncMediaAppliesSnapshot: a resync snapshot must land in the
// owning machine's window variables — and be dropped when the monitor
// generation says the call was recycled since the snapshot was taken.
func TestResyncMediaAppliesSnapshot(t *testing.T) {
	for _, backend := range []Backend{BackendCompiled, BackendInterpreted} {
		h := newHarness(t, func(c *Config) { c.Backend = backend })
		rec := &fpRecorder{}
		h.ids.SetMediaFastpath(rec.hooks())
		establishCall(t, h)
		h.ids.Process(callerMediaPkt(100, 1000, 0xAAAA))
		if len(rec.arms) != 1 {
			t.Fatalf("backend %v: no arm", backend)
		}
		gen := rec.arms[0].snap.Gen

		// Apply an absorbed-window snapshot and verify the machine
		// continues from it: seq 150 is in-profile relative to the
		// snapshot (gap 1) but a 50-packet jump from the machine's own
		// last-seen seq 100 — only an applied resync keeps it clean.
		h.ids.ResyncMedia(calleeHost, calleeRTPPort, fastpath.Snapshot{
			Gen: gen, SSRC: 0xAAAA, Seq: 149, TS: 8840,
			WinStart: 0, WinCount: 1,
		})
		h.ids.Process(callerMediaPkt(150, 9000, 0xAAAA))
		if n := len(h.ids.Alerts()); n != 0 {
			t.Fatalf("backend %v: resynced machine flagged an in-profile packet: %+v", backend, h.ids.Alerts())
		}

		// A stale-generation snapshot must be ignored: rewind to a far
		// past window; if it applied, the next packet would deviate.
		h.ids.ResyncMedia(calleeHost, calleeRTPPort, fastpath.Snapshot{
			Gen: gen + 1, SSRC: 0xBBBB, Seq: 9, TS: 16,
		})
		h.ids.Process(callerMediaPkt(151, 9160, 0xAAAA))
		if n := len(h.ids.Alerts()); n != 0 {
			t.Fatalf("backend %v: stale-gen snapshot was applied: %+v", backend, h.ids.Alerts())
		}
	}
}
