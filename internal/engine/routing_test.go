package engine_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"
	"time"

	"vids/internal/dialog"
	"vids/internal/engine"
	"vids/internal/ids"
	"vids/internal/ingress"
	"vids/internal/rtp"
	"vids/internal/sim"
	"vids/internal/trace"
)

// The properties here belong to the contract between the lanes and the
// shards (ShardIndexFor*, ExternalFloods, tombstones), so they are
// checked through the front end, at every lane count.
var laneCounts = []int{1, 2, 4}

func replayPipeline(t *testing.T, entries []trace.Entry, lanes, shards int) ([]ids.Alert, engine.Stats) {
	t.Helper()
	ing := ingress.New(ingress.Config{Lanes: lanes, Engine: engine.Config{Shards: shards}})
	for i, en := range entries {
		if err := ing.Ingest(en.Packet(), en.At()); err != nil {
			t.Fatalf("ingest entry %d: %v", i, err)
		}
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	return ing.Alerts(), ing.Stats()
}

// routingInvariantTrace is one benign call i whose media moves
// mid-call: a re-INVITE renegotiates the caller's port, then RTP lands
// on the new port and RTCP beside it.
func routingInvariantTrace(i int) []trace.Entry {
	c := dialog.SynthCall(i, "synth")
	var s dialog.Script
	c.Converse(&s, 0, 5, false)
	c.Caller.Media.Port += 1000
	reinv := c.Invite(true)
	reinv.ToTag = c.Callee.Tag // in-dialog: To carries the callee's tag
	reinv.CSeq = 3
	s.Add(300*time.Millisecond, c.Caller.UA, c.Callee.UA, reinv)
	rok := reinv.Response(200)
	rok.SDP = c.OK(true).SDP
	s.Add(320*time.Millisecond, c.Callee.UA, c.Caller.UA, rok)
	s = append(s, c.Callee.Stream(c.Caller, 340*time.Millisecond, dialog.G729(c.Callee.SSRC, 6)),
		c.Callee.Stream(c.Caller, 341*time.Millisecond, dialog.RTCP{Type: rtp.RTCPSenderReport, SSRC: c.Callee.SSRC}))
	return dialog.Render(s)
}

// lateHangupTrace is a dialog that goes idle past the eviction horizon
// and only then hangs up: silence until the sweeps (which run every
// half retention period) have provably fired on the shards and the
// lanes, then BYE and its 200.
func lateHangupTrace(cfg ids.Config) []trace.Entry {
	c := dialog.SynthCall(0, "late")
	var s dialog.Script
	c.Establish(&s, 0, 20*time.Millisecond, false)
	c.Hangup(&s, 2*(cfg.IdleEviction+cfg.CloseLinger)+time.Minute, 20*time.Millisecond)
	return dialog.Render(s)
}

// TestRoutingTracesGolden pins the rendered bytes of both traces: the
// routing and late-hangup properties are only as strong as the
// packets they replay.
func TestRoutingTracesGolden(t *testing.T) {
	got := map[string][]trace.Entry{"late-hangup": lateHangupTrace(ids.DefaultConfig())}
	for i := 0; i < 20; i++ {
		got[fmt.Sprintf("routing-%d", i*31)] = routingInvariantTrace(i * 31)
	}
	for name, entries := range got {
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		for _, e := range entries {
			if err := w.Record(e.Packet(), e.At()); err != nil {
				t.Fatal(err)
			}
		}
		sum := sha256.Sum256(buf.Bytes())
		if hex.EncodeToString(sum[:]) != routingGoldens[name] {
			t.Errorf("%s: sha256 %x, pinned %s", name, sum, routingGoldens[name])
		}
	}
	if len(got) != len(routingGoldens) {
		t.Errorf("%d traces, %d pinned", len(got), len(routingGoldens))
	}
}

var routingGoldens = map[string]string{
	"late-hangup": "43119625356b116c077b34e359fa65dbfb77789f74e7071efdd4e72bb8ebd594",
	"routing-0":   "c19c244e40242253aa38c21f2e69b75a3ad383f6a91d9fbb62b5cc052738473a",
	"routing-124": "40160686ffbf1dca38a5b31144e7451a2d248099dc41d6cb87de5ae10c4fdb5f",
	"routing-155": "55bcd24ccd6416df3c8a06dafe97c3407a6c20e0eaaec4a05e58ab3fbb316481",
	"routing-186": "fe2be74e6cf6d523f9d9286002036e13dbf0715c05f4a484c7415abaa24dd484",
	"routing-217": "9160b7e7496df328a32b2e49b8a365dff9298ad6d1f7c7b874bb30d2b9e15c94",
	"routing-248": "34c5fc0c6f08b61145678f8abc12fb3ac2f1b9928b061f53c06b43af528c6f47",
	"routing-279": "3afb0da59a8d158978679e9653ff6647ab042315910556064226bb9f0004e096",
	"routing-31":  "de64f30816b0a7b9c22c0c8993a80a0894fce37e1a057907176aea3f1696a062",
	"routing-310": "5535e4ce7e084b310d9d3ffa10974048ba34d9c4e8f4ff53891e1fa5044ea6d2",
	"routing-341": "828bccdf91b3056efb0f2168660e43d1c55c87ab71a9c59252529e2baffcc00d",
	"routing-372": "8fe057f7d1e9fe8180fc3e954a6b4c561585dc6cf6f2d92eb15b122a67286a85",
	"routing-403": "63acbf5530257c1e3a9a6fd2ee54d2627c3e33dae5480958e8af052353a457ee",
	"routing-434": "23fd1ff5b325d6629161f5b7a47c97112a4ac88447003fdcdf42afae9bcec48c",
	"routing-465": "bacabffcc0116c9cd13bccd979ff54566a84d4aa83846245bcbfef389d77a0d1",
	"routing-496": "9c9e1e71335b8eb52791a4a0593380b0b2e54704ac02b0354677feee016f2d82",
	"routing-527": "a6dca24f7b48d8a0a3cc5344ca708b14016e0f6d23d44307972e07ebe5ca92a6",
	"routing-558": "04c24d1b39d2e8508f7e93f4106fe951e085aeb09f099f5815ddde0cc3f50f89",
	"routing-589": "b371fcd28336418891f6ef6920d25ae0a530a334563eed8215ad11f89fb1f6ed",
	"routing-62":  "b27d0ff29ff57c5c7ae468622e9c387408032fb92442227f4ef02ec8d30f0418",
	"routing-93":  "5f6114c31c97b04bcdae2e0383a358fcf1bad1a0f6f3b67d5058fbfa701f9f75",
}

// TestShardRoutingInvariant is the routing property test: every
// packet of one call — SIP, RTP in both directions, RTCP, and media
// moved by a mid-call re-INVITE — lands on the same shard. Observed
// black-box: ingest one call into an 8-shard pipeline and require that
// exactly one shard processed anything.
func TestShardRoutingInvariant(t *testing.T) {
	for i := 0; i < 20; i++ {
		entries := routingInvariantTrace(i * 31)
		t.Run(fmt.Sprintf("call-%d", i), func(t *testing.T) {
			for _, lanes := range laneCounts {
				_, st := replayPipeline(t, entries, lanes, 8)
				busy := 0
				for _, sh := range st.Shards {
					if sh.Processed > 0 {
						busy++
					}
				}
				if busy != 1 {
					t.Fatalf("lanes=%d: call scattered over %d shards: %+v", lanes, busy, st.Shards)
				}
				if st.Processed != uint64(len(entries)) || st.Ingested != st.Processed {
					t.Fatalf("lanes=%d: processed %d, ingested %d of %d packets",
						lanes, st.Processed, st.Ingested, len(entries))
				}
			}
		})
	}
}

// TestLateHangupParity regresses a divergence found on a real testbed
// capture: a dialog that goes idle past the eviction horizon and only
// then hangs up. Both the shard and the sequential IDS have already
// evicted the monitor (leaving tombstones that swallow the BYE and its
// 200); a front end that had simply forgotten the Call-ID would feed
// the straggler 200 to the reflection detector and raise a deviation
// the sequential path never raises. The call registry keeps an evicted
// call's record, closed, for as long as the detector keeps its
// tombstone, so the 200 is absorbed silently: at the lane, or at the
// shard on the lane's behalf when the lane routed it before the shard
// had evicted the call.
func TestLateHangupParity(t *testing.T) {
	cfg := ids.DefaultConfig()
	entries := lateHangupTrace(cfg)

	s := sim.New(0)
	d := ids.New(s, cfg)
	if err := trace.Replay(s, entries, d); err != nil {
		t.Fatal(err)
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := d.Alerts()
	engine.SortAlerts(want)

	for _, lanes := range laneCounts {
		got, st := replayPipeline(t, entries, lanes, 4)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("lanes=%d: alerts diverge:\npipeline:   %v\nsequential: %v", lanes, got, want)
		}
		if st.Absorbed != 1 {
			t.Errorf("lanes=%d: absorbed = %d, want 1 (the straggler 200-for-BYE)", lanes, st.Absorbed)
		}
		if st.Processed+st.Absorbed+st.Ignored+st.ParseErrors != st.Ingested || st.Ingested != uint64(len(entries)) {
			t.Errorf("lanes=%d: accounting mismatch: %+v", lanes, st)
		}
	}
}
