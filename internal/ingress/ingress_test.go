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
	"vids/internal/rtp"
	"vids/internal/sim"
	"vids/internal/sipmsg"
	"vids/internal/trace"
)

// replaySequential runs a trace through the plain single-threaded IDS
// — the ground truth the tier must reproduce.
func replaySequential(t *testing.T, entries []trace.Entry, cfg ids.Config) []ids.Alert {
	t.Helper()
	s := sim.New(0)
	d := ids.New(s, cfg)
	if err := trace.Replay(s, entries, d); err != nil {
		t.Fatal(err)
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	alerts := d.Alerts()
	engine.SortAlerts(alerts)
	return alerts
}

// replayIngress feeds a trace through the lane path one packet at a
// time, the way a single listener goroutine would.
func replayIngress(t *testing.T, entries []trace.Entry, cfg Config) ([]ids.Alert, engine.Stats) {
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
	return ing.Alerts(), ing.Stats()
}

// TestIngressParityWithSequential is the pipeline's acceptance check:
// the lane path — one scan per datagram, per-lane flood windows,
// view-fed shards — must yield the exact alert multiset of the
// sequential IDS (same types, same virtual timestamps, same details)
// for a trace that exercises every detector family, whatever the lane
// and shard counts.
func TestIngressParityWithSequential(t *testing.T) {
	entries := dialog.Synthesize(dialog.SynthConfig{Calls: 40, RTPPerCall: 10, Attacks: true})
	if len(entries) < 1000 {
		t.Fatalf("suspiciously small trace: %d entries", len(entries))
	}
	want := replaySequential(t, entries, ids.DefaultConfig())
	if len(want) == 0 {
		t.Fatal("sequential replay raised no alerts; trace is not exercising the detectors")
	}

	// The trace must exercise every detector family for parity to mean
	// anything.
	byType := make(map[ids.AlertType]int)
	for _, a := range want {
		byType[a.Type]++
	}
	for _, typ := range []ids.AlertType{
		ids.AlertInviteFlood, ids.AlertDRDoS, ids.AlertByeDoS, ids.AlertTollFraud,
		ids.AlertRTCPBye, ids.AlertUnsolicitedRTP, ids.AlertMediaSpam,
		ids.AlertRogueRegister, ids.AlertDeviation,
	} {
		if byType[typ] == 0 {
			t.Errorf("trace raised no %s alert", typ)
		}
	}

	// The alert stream must depend on neither count. Lanes are
	// normalized to a divisor of the shard count, so the odd rows also
	// cover the clamped layouts.
	for _, shards := range []int{1, 2, 3, 4, 8} {
		for _, lanes := range []int{1, 2, 4} {
			row := fmt.Sprintf("shards=%d lanes=%d", shards, lanes)
			got, st := replayIngress(t, entries, Config{
				Lanes:  lanes,
				Engine: engine.Config{Shards: shards},
			})
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s: alert streams diverge: sequential %d alerts, ingress %d",
					row, len(want), len(got))
				for i := 0; i < max(len(want), len(got)) && i < 40; i++ {
					var w, g ids.Alert
					if i < len(want) {
						w = want[i]
					}
					if i < len(got) {
						g = got[i]
					}
					if !reflect.DeepEqual(w, g) {
						t.Errorf("  [%d]\n    seq: %+v\n    ing: %+v", i, w, g)
					}
				}
			}
			if st.Dropped != 0 {
				t.Errorf("%s: Block policy dropped %d packets", row, st.Dropped)
			}
			if st.Processed+st.Absorbed+st.Ignored+st.ParseErrors != uint64(len(entries)) {
				t.Errorf("%s: accounting mismatch: processed %d + absorbed %d + ignored %d + parse errors %d != %d entries",
					row, st.Processed, st.Absorbed, st.Ignored, st.ParseErrors, len(entries))
			}
			if st.Ingested != uint64(len(entries)) {
				t.Errorf("%s: ingested %d of %d entries", row, st.Ingested, len(entries))
			}
		}
	}
}

// TestLaneNormalization: the lane count must always divide the shard
// count, rounding the request down to the nearest divisor.
func TestLaneNormalization(t *testing.T) {
	cases := []struct {
		shards, lanes, want int
	}{
		{4, 0, 4}, // default: one lane per shard
		{4, 4, 4}, // exact
		{4, 3, 2}, // 3 does not divide 4 -> largest divisor below
		{4, 9, 4}, // clamped to the shard count
		{6, 5, 3}, // divisors of 6: 1, 2, 3, 6
		{8, 7, 4}, // divisors of 8: 1, 2, 4, 8
		{1, 4, 1}, // single shard forces a single lane
		{5, 2, 1}, // prime shard counts only split 1 or all
	}
	for _, tc := range cases {
		ing := New(Config{Lanes: tc.lanes, Engine: engine.Config{Shards: tc.shards}})
		if got := ing.Lanes(); got != tc.want {
			t.Errorf("shards=%d lanes=%d: normalized to %d, want %d",
				tc.shards, tc.lanes, got, tc.want)
		}
		if err := ing.Close(); err != nil {
			t.Errorf("shards=%d lanes=%d: close: %v", tc.shards, tc.lanes, err)
		}
	}
}

// TestIngressConcurrentProducers hammers Ingest from several
// goroutines, each replaying a disjoint slice of the dialog space the
// way independent listeners would, while a reader polls Stats. A clean
// workload must stay clean — no alerts, no drops, every packet
// accounted for — and a closed tier must refuse further packets and
// tolerate a second Close. Run under -race this is also the pipeline's
// lock-discipline check.
func TestIngressConcurrentProducers(t *testing.T) {
	const producers = 4
	const callsEach = 24

	traces := make([][]trace.Entry, producers)
	total := 0
	for i := range traces {
		traces[i] = dialog.Synthesize(dialog.SynthConfig{
			Calls: callsEach, RTPPerCall: 8, FirstCall: i * callsEach,
		})
		total += len(traces[i])
	}

	ing := New(Config{Lanes: 4, Engine: engine.Config{Shards: 4, QueueDepth: 64}})
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
				_ = ing.Stats()
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, producers)
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func(entries []trace.Entry) {
			defer wg.Done()
			for _, en := range entries {
				if err := ing.Ingest(en.Packet(), en.At()); err != nil {
					errs <- err
					return
				}
			}
		}(traces[i])
	}
	wg.Wait()
	close(stop)
	<-polled
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ing.Ingest(traces[0][0].Packet(), 0); err != engine.ErrClosed {
		t.Errorf("Ingest after Close: got %v, want ErrClosed", err)
	}
	if err := ing.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}

	if alerts := ing.Alerts(); len(alerts) != 0 {
		t.Errorf("clean concurrent workload raised %d alerts; first: %+v", len(alerts), alerts[0])
	}
	st := ing.Stats()
	if st.Ingested != uint64(total) {
		t.Errorf("ingested %d of %d packets", st.Ingested, total)
	}
	if st.Dropped != 0 {
		t.Errorf("dropped %d packets under Block policy", st.Dropped)
	}
	if st.Processed+st.Absorbed+st.Ignored+st.ParseErrors != uint64(total) {
		t.Errorf("accounting mismatch: %+v", st)
	}
}

// shedInvite builds a minimal well-formed initial INVITE for dialog i.
func shedInvite(i int) *sipmsg.Message {
	host := fmt.Sprintf("ua%d.a.example.com", i)
	inv := sipmsg.NewRequest(sipmsg.INVITE, sipmsg.URI{
		User: fmt.Sprintf("bob%d", i), Host: "b.example.com",
	})
	inv.Via = []sipmsg.Via{{Transport: "UDP", Host: host, Port: 5060,
		Params: map[string]string{"branch": fmt.Sprintf("z9hG4bKshed%d", i)}}}
	inv.From = sipmsg.NameAddr{URI: sipmsg.URI{
		User: fmt.Sprintf("alice%d", i), Host: "a.example.com",
	}}.WithTag(fmt.Sprintf("st%d", i))
	inv.To = sipmsg.NameAddr{URI: sipmsg.URI{
		User: fmt.Sprintf("bob%d", i), Host: "b.example.com",
	}}
	inv.CallID = fmt.Sprintf("ingshed-%d@a.example.com", i)
	inv.CSeq = sipmsg.CSeq{Seq: 1, Method: sipmsg.INVITE}
	return inv
}

// TestIngressShedsMediaBeforeSignaling floods a deliberately tiny tier
// — one shard, its worker parked inside an alert callback — and
// asserts the overload tiers: a full ring sheds arriving media on the
// floor, and arriving signaling evicts queued media before any
// signaling packet is lost. The surviving signaling must still be
// detected on.
func TestIngressShedsMediaBeforeSignaling(t *testing.T) {
	blocked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	var retired atomic.Uint64
	ing := New(Config{
		Lanes: 1,
		Engine: engine.Config{
			Shards:     1,
			QueueDepth: 8,
			Policy:     engine.Shed,
			OnAlert: func(ids.Alert) {
				once.Do(func() {
					close(blocked)
					<-release
				})
			},
			OnRetire: func(*sim.Packet) { retired.Add(1) },
		},
	})

	// A REGISTER always raises the rogue-register alert: the shard
	// worker parses it, alerts, and parks inside OnAlert.
	reg := sipmsg.NewRequest(sipmsg.REGISTER, sipmsg.URI{Host: "a.example.com"})
	reg.Via = []sipmsg.Via{{Transport: "UDP", Host: "x.example.net", Port: 5060,
		Params: map[string]string{"branch": "z9hG4bKingshed"}}}
	reg.From = sipmsg.NameAddr{URI: sipmsg.URI{User: "a", Host: "a.example.com"}}.WithTag("s1")
	reg.To = sipmsg.NameAddr{URI: sipmsg.URI{User: "a", Host: "a.example.com"}}
	reg.CallID = "ingshed@example.net"
	reg.CSeq = sipmsg.CSeq{Seq: 1, Method: sipmsg.REGISTER}
	regPkt := &sim.Packet{
		From:  sim.Addr{Host: "x.example.net", Port: 5060},
		To:    sim.Addr{Host: "reg.a.example.com", Port: 5060},
		Proto: sim.ProtoSIP, Payload: reg.Bytes(),
	}
	if err := ing.Ingest(regPkt, 0); err != nil {
		t.Fatal(err)
	}
	<-blocked

	// 20 RTCP sender reports toward an unadvertised destination: 8 fill
	// the ring, 12 are floor-dropped (tier 1). Sender reports raise no
	// alerts, so the survivors cannot perturb the alert assertions.
	rtcpPayload := func(i int) []byte {
		raw, err := (&rtp.RTCP{Type: rtp.RTCPSenderReport, SSRC: uint32(i)}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	for i := 0; i < 20; i++ {
		pkt := &sim.Packet{
			From:    sim.Addr{Host: "m.example.net", Port: 40001},
			To:      sim.Addr{Host: "n.example.net", Port: 40001},
			Proto:   sim.ProtoRTCP,
			Payload: rtcpPayload(i),
		}
		if err := ing.Ingest(pkt, time.Duration(i+1)*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	// 5 INVITEs against the full ring: each evicts one queued media
	// packet (tier 2); with 8 media queued, no signaling is ever lost.
	for i := 0; i < 5; i++ {
		inv := shedInvite(i)
		pkt := &sim.Packet{
			From:  sim.Addr{Host: fmt.Sprintf("ua%d.a.example.com", i), Port: 5060},
			To:    sim.Addr{Host: "proxy.b.example.com", Port: 5060},
			Proto: sim.ProtoSIP, Payload: inv.Bytes(),
		}
		if err := ing.Ingest(pkt, time.Duration(30+i)*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}

	st := ing.Stats()
	if st.DroppedMedia != 17 {
		t.Errorf("DroppedMedia = %d, want 17 (12 floor drops + 5 evictions)", st.DroppedMedia)
	}
	if st.DroppedSignaling != 0 {
		t.Errorf("DroppedSignaling = %d, want 0 — signaling must outlive media", st.DroppedSignaling)
	}
	if st.Processed != 9 { // REGISTER + 3 surviving reports + 5 INVITEs
		t.Errorf("Processed = %d, want 9", st.Processed)
	}
	if st.Processed+st.Absorbed+st.Ignored+st.ParseErrors+st.Dropped != st.Ingested {
		t.Errorf("accounting mismatch: %+v", st)
	}
	if got := retired.Load(); got != st.Ingested {
		t.Errorf("retired %d of %d ingested packets", got, st.Ingested)
	}

	// The surviving signaling still went through detection: exactly the
	// rogue REGISTER alert, despite the flood.
	var rogue int
	for _, a := range ing.Alerts() {
		if a.Type == ids.AlertRogueRegister {
			rogue++
		}
	}
	if rogue != 1 {
		t.Errorf("rogue-register alerts = %d, want 1 — shedding must not mute surviving signaling", rogue)
	}
}

// TestIngressHeaderOnlyMediaParity: the SRTP-degraded mode must leave
// the signaling detectors and the header-driven media detectors
// untouched — the alert multiset may only lose RTCP-payload alerts
// (forged RTCP BYE rides encrypted SRTCP).
func TestIngressHeaderOnlyMediaParity(t *testing.T) {
	entries := dialog.Synthesize(dialog.SynthConfig{Calls: 20, RTPPerCall: 10, Attacks: true})
	idsCfg := ids.DefaultConfig()
	idsCfg.MediaHeaderOnly = true
	want := replaySequential(t, entries, idsCfg)
	if len(want) == 0 {
		t.Fatal("header-only sequential replay raised no alerts")
	}
	for _, a := range want {
		if a.Type == ids.AlertRTCPBye {
			t.Fatalf("header-only mode should not see RTCP payloads, got %+v", a)
		}
	}

	got, _ := replayIngress(t, entries, Config{
		Lanes:  2,
		Engine: engine.Config{Shards: 4, IDS: idsCfg},
	})
	if !reflect.DeepEqual(want, got) {
		t.Errorf("header-only parity broken: sequential %d alerts, ingress %d", len(want), len(got))
	}
}
