package vids_test

import (
	"encoding/binary"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"vids/internal/core"
	"vids/internal/dialog"
	"vids/internal/engine"
	"vids/internal/fastpath"
	"vids/internal/ids"
	"vids/internal/idsgen"
	"vids/internal/ingress"
	"vids/internal/rtp"
	"vids/internal/sdp"
	"vids/internal/sim"
	"vids/internal/sipmsg"
)

// Allocation ceilings for the packet hot path. These are regression
// budgets, not targets: they hold the measured post-optimization
// counts (with a little headroom where the runtime gives no exact
// guarantee) so an accidental per-packet allocation fails tier-1
// tests instead of silently eroding throughput.
const (
	// maxSIPParseAllocs bounds sipmsg.Parse on a realistic INVITE
	// with SDP: one allocation per retained header value plus the
	// header slices. The seed parser took 33.
	maxSIPParseAllocs = 16
	// maxIDSProcessRTPAllocs bounds the full IDS path for one RTP
	// packet on an established call in steady state. The seed path
	// took 12 (excluding packet marshaling).
	maxIDSProcessRTPAllocs = 2
	// maxIDSProcessRTPInterpretedAllocs pins the same path on the
	// interpreted reference: the IR evaluator walks four guards and the
	// window-advance action per packet over map-backed variables, and
	// must do it without allocating — the end-to-end benchmark's set-up
	// runs its verification prefix through this path. Zero, exactly.
	maxIDSProcessRTPInterpretedAllocs = 0
	// maxIDSProcessSIPAllocs bounds the full IDS path for one SIP
	// packet: parse, classify, typed event, machine step. Parsing
	// itself owns most of the budget (see maxSIPParseAllocs); the
	// detection layer on top is nearly allocation-free once URIs,
	// media keys and alert strings are interned or built lazily. The
	// pre-pooling path took 46.
	maxIDSProcessSIPAllocs = 20
	// maxCallChurnAllocs bounds one full INVITE→BYE dialog plus its
	// timer drain in steady state, after the monitor pool, intern
	// table and timer wheel are warm. Measured at 0; the headroom
	// covers incidental map rehashing.
	maxCallChurnAllocs = 4
	// maxIDSProcessSIPCompiledAllocs bounds the detection layer alone
	// on the specgen-compiled backend: ProcessSIP on a pre-parsed
	// INVITE — classify, fact-base lookup, typed event, compiled
	// machine step — with the parser's share factored out. Measured
	// at 0 in steady state; the budget leaves room for incidental
	// map rehashing while staying far below the interpreted seed's
	// 18 (16 of which were the parse).
	maxIDSProcessSIPCompiledAllocs = 9
	// maxEFSMStepCompiledAllocs pins the compiled transition itself:
	// dense-table lookup, devirtualized guard, struct-field action.
	// Zero, exactly — the //vids:noalloc gate in cmd/vidslint proves
	// it statically and this budget proves it dynamically.
	maxEFSMStepCompiledAllocs = 0
	// maxFastpathConsultAllocs pins the media fast-path hit: key render
	// into a stack buffer, stripe hash, hot-slot probe, predicate check,
	// window advance. Zero, exactly — an allocation here is paid by
	// ~90% of all packets in a media-heavy mix.
	maxFastpathConsultAllocs = 0
	// maxSIPScanAllocs pins the packet path's SIP scanner: it answers
	// with offsets into the datagram and copies nothing. Zero, exactly.
	maxSIPScanAllocs = 0
	// maxIDSProcessSIPViewAllocs bounds one whole dialog — six scanned
	// datagrams fed to the compiled detector through ProcessSIPView,
	// plus the timer drain — in steady state. The only allocation the
	// view-fed path owns is the intern table's first sight of a string,
	// and a recurring dialog has none left; the headroom is
	// maxCallChurnAllocs' (incidental map rehashing).
	maxIDSProcessSIPViewAllocs = 4
	// maxIDSProcessSIPViewFlowsAllocs pins a shard's signaling step on a
	// known call with the flow table set: one call-table probe, the
	// dialog's strings from the monitor's slots, and a disarm per flow
	// through the handles the lane's Install returned. Zero, exactly.
	maxIDSProcessSIPViewFlowsAllocs = 0
	// maxIngestMediaAllocs pins one media packet through the pipeline —
	// flow-table probe, then absorption or the shard's machine step —
	// for every kind of media packet. Zero, exactly: media is most of
	// the traffic.
	maxIngestMediaAllocs = 0
	// maxIngestSIPAllocs pins one in-dialog SIP datagram of a known
	// call through the pipeline: the scan, the one call-registry probe,
	// the disarm through the record's flow handles, and the shard's
	// machine step. Zero, exactly.
	maxIngestSIPAllocs = 0
)

// TestAllocBudgetSIPParse holds the parser to its allocation budget.
func TestAllocBudgetSIPParse(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	raw := benchInvite().Bytes()
	avg := testing.AllocsPerRun(200, func() {
		if _, err := sipmsg.Parse(raw); err != nil {
			t.Fatal(err)
		}
	})
	if avg > maxSIPParseAllocs {
		t.Errorf("sipmsg.Parse allocates %.1f/op, budget %d", avg, maxSIPParseAllocs)
	}
}

// TestAllocBudgetIDSProcessRTP holds the whole per-RTP-packet
// detection path — classify, typed event, media-key probe, machine
// step — to its allocation budget.
func TestAllocBudgetIDSProcessRTP(t *testing.T) {
	allocBudgetProcessRTP(t, ids.BackendCompiled, maxIDSProcessRTPAllocs)
}

// TestAllocBudgetIDSProcessRTPInterpreted holds the interpreted
// reference — the IR evaluator — to zero allocations on the same
// steady-state stream.
func TestAllocBudgetIDSProcessRTPInterpreted(t *testing.T) {
	allocBudgetProcessRTP(t, ids.BackendInterpreted, maxIDSProcessRTPInterpretedAllocs)
}

func allocBudgetProcessRTP(t *testing.T, backend ids.Backend, budget float64) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	s := sim.New(1)
	cfg := ids.DefaultConfig()
	cfg.Backend = backend
	// All runs land on one virtual instant, so disarm the rate window:
	// this test measures the steady-state path, not the flood
	// transition.
	cfg.RTP.RatePackets = 1 << 30
	d := ids.New(s, cfg)

	// Establish one call so the stream has a live machine (same setup
	// as BenchmarkIDSProcessRTP).
	inv := benchInvite()
	pa := sim.Addr{Host: "proxy.a.example.com", Port: 5060}
	pb := sim.Addr{Host: "proxy.b.example.com", Port: 5060}
	d.Process(&sim.Packet{From: pa, To: pb, Proto: sim.ProtoSIP, Size: 500, Payload: inv.Bytes()})
	ok := sipmsg.NewResponse(inv, sipmsg.StatusOK)
	ok.To = ok.To.WithTag("t2")
	okContact := sipmsg.NameAddr{URI: sipmsg.URI{User: "bob", Host: "ua2.b.example.com"}}
	ok.Contact = &okContact
	ok.ContentType = "application/sdp"
	ok.Body = sdp.New("bob", "ua2.b.example.com", 30000, sdp.PayloadG729).Marshal()
	d.Process(&sim.Packet{From: pb, To: pa, Proto: sim.ProtoSIP, Size: 500, Payload: ok.Bytes()})

	p := &rtp.Packet{PayloadType: 18, SSRC: 42, Payload: make([]byte, 20)}
	raw, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	pkt := &sim.Packet{
		From:  sim.Addr{Host: "ua1.a.example.com", Port: 20000},
		To:    sim.Addr{Host: "ua2.b.example.com", Port: 30000},
		Proto: sim.ProtoRTP, Size: len(raw), Payload: raw,
	}
	seq := uint16(0)
	avg := testing.AllocsPerRun(200, func() {
		seq++
		binary.BigEndian.PutUint16(raw[2:], seq)
		binary.BigEndian.PutUint32(raw[4:], uint32(seq)*160)
		d.Process(pkt)
	})
	if avg > budget {
		t.Errorf("%v ids.Process(RTP) allocates %.1f/op, budget %.0f", backend, avg, budget)
	}
	if n := len(d.Alerts()); n != 0 {
		t.Fatalf("steady-state stream raised %d alerts", n)
	}
}

// TestAllocBudgetIDSProcessSIP holds the whole per-SIP-packet
// detection path to its allocation budget (the setup mirrors
// BenchmarkIDSProcessSIP).
func TestAllocBudgetIDSProcessSIP(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	s := sim.New(1)
	d := ids.New(s, ids.DefaultConfig())
	raw := benchInvite().Bytes()
	from := sim.Addr{Host: "proxy.a.example.com", Port: 5060}
	to := sim.Addr{Host: "proxy.b.example.com", Port: 5060}
	avg := testing.AllocsPerRun(200, func() {
		d.Process(&sim.Packet{From: from, To: to, Proto: sim.ProtoSIP, Size: len(raw), Payload: raw})
	})
	if avg > maxIDSProcessSIPAllocs {
		t.Errorf("ids.Process(SIP) allocates %.1f/op, budget %d", avg, maxIDSProcessSIPAllocs)
	}
}

// TestAllocBudgetIDSProcessSIPCompiled holds the compiled-backend
// per-SIP-packet detection layer to its allocation budget. The setup
// mirrors BenchmarkIDSProcessSIPCompiled: one INVITE parsed once,
// then re-delivered as a retransmission of the same dialog, so the
// measurement isolates ProcessSIP from the parser.
func TestAllocBudgetIDSProcessSIPCompiled(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	s := sim.New(1)
	cfg := ids.DefaultConfig()
	cfg.Backend = ids.BackendCompiled
	// Retransmissions land on one frozen virtual instant; disarm the
	// windowed flood counter so the benign path is what gets measured.
	cfg.FloodN = 1 << 40
	d := ids.New(s, cfg)
	inv := benchInvite()
	from := sim.Addr{Host: "proxy.a.example.com", Port: 5060}
	to := sim.Addr{Host: "proxy.b.example.com", Port: 5060}
	pkt := &sim.Packet{From: from, To: to, Proto: sim.ProtoSIP, Size: 500}
	d.ProcessSIP(inv, pkt) // create the monitor outside the measured runs
	avg := testing.AllocsPerRun(200, func() {
		d.ProcessSIP(inv, pkt)
	})
	if avg > maxIDSProcessSIPCompiledAllocs {
		t.Errorf("compiled ids.ProcessSIP allocates %.1f/op, budget %d", avg, maxIDSProcessSIPCompiledAllocs)
	}
	if n := len(d.Alerts()); n != 0 {
		t.Fatalf("retransmitted INVITE raised %d alerts", n)
	}
}

// TestAllocBudgetEFSMStepCompiled holds one compiled transition to
// exactly zero allocations: the invite-flood counter spinning on its
// guarded counting self-loop with a typed argument vector, the same
// step BenchmarkEFSMStepCompiled times.
func TestAllocBudgetEFSMStepCompiled(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	m := idsgen.NewFloodMachine(idsgen.FloodInvite, 1<<40)
	args := idsgen.FloodArgs{Dest: "bob@b.example.com", Src: "attacker.example.net"}
	ev := core.Event{Name: ids.EvInvite, Typed: &args}
	if _, err := m.Step(ev); err != nil { // INIT -> counting: arm the self-loop
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := m.Step(ev); err != nil {
			t.Fatal(err)
		}
	})
	if avg > maxEFSMStepCompiledAllocs {
		t.Errorf("compiled Step allocates %.1f/op, budget %d", avg, maxEFSMStepCompiledAllocs)
	}
}

// TestAllocBudgetCoverageHook holds the per-RTP-packet path to the
// same allocation budget with a step tap installed, the hook the
// spec-coverage tooling records through: handing each StepResult to
// ids.IDS.OnStep costs a func call, not an allocation. (The nil-tap
// case — production — is covered by the other budgets in this file.)
func TestAllocBudgetCoverageHook(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	s := sim.New(1)
	cfg := ids.DefaultConfig()
	cfg.RTP.RatePackets = 1 << 30
	d := ids.New(s, cfg)
	fired := 0
	d.OnStep = func(core.StepResult) { fired++ }

	inv := benchInvite()
	pa := sim.Addr{Host: "proxy.a.example.com", Port: 5060}
	pb := sim.Addr{Host: "proxy.b.example.com", Port: 5060}
	d.Process(&sim.Packet{From: pa, To: pb, Proto: sim.ProtoSIP, Size: 500, Payload: inv.Bytes()})
	ok := sipmsg.NewResponse(inv, sipmsg.StatusOK)
	ok.To = ok.To.WithTag("t2")
	okContact := sipmsg.NameAddr{URI: sipmsg.URI{User: "bob", Host: "ua2.b.example.com"}}
	ok.Contact = &okContact
	ok.ContentType = "application/sdp"
	ok.Body = sdp.New("bob", "ua2.b.example.com", 30000, sdp.PayloadG729).Marshal()
	d.Process(&sim.Packet{From: pb, To: pa, Proto: sim.ProtoSIP, Size: 500, Payload: ok.Bytes()})

	p := &rtp.Packet{PayloadType: 18, SSRC: 42, Payload: make([]byte, 20)}
	raw, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	pkt := &sim.Packet{
		From:  sim.Addr{Host: "ua1.a.example.com", Port: 20000},
		To:    sim.Addr{Host: "ua2.b.example.com", Port: 30000},
		Proto: sim.ProtoRTP, Size: len(raw), Payload: raw,
	}
	seq := uint16(0)
	before := fired
	avg := testing.AllocsPerRun(200, func() {
		seq++
		binary.BigEndian.PutUint16(raw[2:], seq)
		binary.BigEndian.PutUint32(raw[4:], uint32(seq)*160)
		d.Process(pkt)
	})
	if avg > maxIDSProcessRTPAllocs {
		t.Errorf("ids.Process(RTP) with a step tap allocates %.1f/op, budget %d", avg, maxIDSProcessRTPAllocs)
	}
	if fired <= before {
		t.Fatalf("step tap saw no transitions (fired=%d)", fired)
	}
}

// TestAllocBudgetCallChurn holds the whole call lifecycle — monitor
// creation, establishment, teardown, timer drain, eviction, recycling
// — to its steady-state allocation budget (the dialog mirrors
// BenchmarkCallChurn).
func TestAllocBudgetCallChurn(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	s := sim.New(1)
	cfg := ids.DefaultConfig()
	d := ids.New(s, cfg)
	dialogs := make([][]churnStep, 8)
	for i := range dialogs {
		dialogs[i] = churnDialog(i)
	}
	settle := cfg.ByeGraceT + cfg.CloseLinger + time.Second
	i := 0
	run := func() {
		for _, step := range dialogs[i%len(dialogs)] {
			d.ProcessSIP(step.m, step.pkt)
		}
		if err := s.Run(s.Now() + settle); err != nil {
			t.Fatal(err)
		}
		i++
	}
	// Warm up the monitor pool, intern table, flood windows and the
	// simulator's event free list before measuring.
	for j := 0; j < 32; j++ {
		run()
	}
	avg := testing.AllocsPerRun(100, run)
	if avg > maxCallChurnAllocs {
		t.Errorf("call churn allocates %.1f/dialog, budget %d", avg, maxCallChurnAllocs)
	}
	if n := len(d.Alerts()); n != 0 {
		t.Fatalf("benign churn raised %d alerts", n)
	}
}

// TestAllocBudgetSIPScan holds the scanner to zero allocations on the
// INVITE TestAllocBudgetSIPParse parses.
func TestAllocBudgetSIPScan(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	raw := benchInvite().Bytes()
	var v sipmsg.View
	avg := testing.AllocsPerRun(200, func() {
		if sipmsg.Scan(raw, &v) != sipmsg.ScanOK {
			t.Fatal("scan did not commit to the bench INVITE")
		}
	})
	if avg > maxSIPScanAllocs {
		t.Errorf("sipmsg.Scan allocates %.1f/op, budget %d", avg, maxSIPScanAllocs)
	}
}

// TestAllocBudgetIDSProcessSIPView holds the pipeline's signaling path
// — scan each datagram once, feed the compiled detector from the view
// — to its steady-state budget over whole dialogs (the churn dialogs
// of TestAllocBudgetCallChurn, serialized to the wire).
func TestAllocBudgetIDSProcessSIPView(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	s := sim.New(1)
	cfg := ids.DefaultConfig()
	d := ids.New(s, cfg)
	dialogs := make([][]*sim.Packet, 8)
	for i := range dialogs {
		for _, step := range churnDialog(i) {
			pkt := *step.pkt
			pkt.Payload = step.m.Bytes()
			dialogs[i] = append(dialogs[i], &pkt)
		}
	}
	settle := cfg.ByeGraceT + cfg.CloseLinger + time.Second
	i := 0
	var v sipmsg.View
	run := func() {
		for _, pkt := range dialogs[i%len(dialogs)] {
			if sipmsg.Scan(pkt.Payload.([]byte), &v) != sipmsg.ScanOK {
				t.Fatal("scan did not commit to a serialized dialog message")
			}
			d.ProcessSIPView(&v, pkt, nil, nil)
		}
		if err := s.Run(s.Now() + settle); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for j := 0; j < 32; j++ {
		run()
	}
	avg := testing.AllocsPerRun(100, run)
	if avg > maxIDSProcessSIPViewAllocs {
		t.Errorf("view-fed dialog allocates %.1f, budget %d", avg, maxIDSProcessSIPViewAllocs)
	}
	if n := len(d.Alerts()); n != 0 {
		t.Fatalf("benign churn raised %d alerts: %+v", n, d.Alerts())
	}
	if d.Evicted() < 100 {
		t.Fatalf("only %d monitors recycled; the dialogs are not completing", d.Evicted())
	}
}

// TestAllocBudgetIDSProcessSIPViewFlows holds a shard's signaling step
// on a known call with IDS.Flows set — the retransmitted ACK of
// BenchmarkIDSProcessSIPViewFlows — to zero allocations.
func TestAllocBudgetIDSProcessSIPViewFlows(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	d, v, pkt := flowShardACK(t)
	avg := testing.AllocsPerRun(200, func() { d.ProcessSIPView(v, pkt, nil, nil) })
	if avg > maxIDSProcessSIPViewFlowsAllocs {
		t.Errorf("known-call signaling step allocates %.1f, budget %d", avg, maxIDSProcessSIPViewFlowsAllocs)
	}
	if n := len(d.Alerts()); n != 0 {
		t.Fatalf("retransmitted ACK raised %d alerts", n)
	}
}

// TestAllocBudgetFastpathConsult holds the fast-path hit to zero
// allocations in both forms: the ingress lanes' consult by the
// packet's destination, and the text-key consult over a media key
// rendered into a stack buffer, both through the out-param API.
func TestAllocBudgetFastpathConsult(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	c := fastpath.New(fastpath.Config{
		SeqGap:      50,
		TSGap:       8000,
		RateWindow:  time.Second,
		RatePackets: 1 << 30, // never trip the flood predicate here
	})
	host, port := "media.a.example.com", 30000
	var kb [96]byte
	key := ids.AppendMediaKey(kb[:0], host, port)
	c.Install(key, "alloc-budget-call", 0)
	// Arm the way a shard worker would: first consult escalates with
	// the flow pinned, then Update publishes the machine snapshot.
	var res fastpath.Consult
	c.ConsultKey(key, 18, 42, 100, 1600, 0, &res)
	if res.Verdict != fastpath.Miss || res.Flow == nil {
		t.Fatalf("priming consult = %v, want Miss with flow", res.Verdict)
	}
	if !c.Update(key, res.Epoch, 18, fastpath.Snapshot{Gen: 1, SSRC: 42, Seq: 100, TS: 1600, WinCount: 1}) {
		t.Fatal("arm refused")
	}
	res.Flow.Release()

	seq, ts, at := uint16(100), uint32(1600), time.Duration(0)
	avg := testing.AllocsPerRun(200, func() {
		seq++
		ts += 160
		at += 20 * time.Millisecond
		if c.ConsultAddr(host, port, 18, 42, seq, ts, at, &res); res.Verdict != fastpath.Hit {
			t.Fatalf("consult = %v at seq %d, want Hit", res.Verdict, seq)
		}
		seq++
		ts += 160
		at += 20 * time.Millisecond
		var buf [96]byte
		c.ConsultKey(ids.AppendMediaKey(buf[:0], host, port), 18, 42, seq, ts, at, &res)
		if res.Verdict != fastpath.Hit {
			t.Fatalf("text-key consult = %v at seq %d, want Hit", res.Verdict, seq)
		}
	})
	if avg > maxFastpathConsultAllocs {
		t.Errorf("fastpath consult allocates %.1f/packet pair, budget %d", avg, maxFastpathConsultAllocs)
	}
}

// TestAllocBudgetIngestMedia holds Ingress.Ingest to zero allocations
// for each kind of media packet on an established call: an RTP packet
// the fast path absorbs, one it escalates (the same stream with
// absorption off: the flow routes it and pins it, and the shard's
// machine steps on it), and an RTCP report, which the flow routes
// without consulting. Every packet is waited out through the retire
// hook, so the shard's share of the work is measured with it.
func TestAllocBudgetIngestMedia(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	for _, tc := range []struct {
		name    string
		disable bool
		proto   sim.Proto
	}{
		{"absorbed RTP", false, sim.ProtoRTP},
		{"escalated RTP", true, sim.ProtoRTP},
		{"RTCP", false, sim.ProtoRTCP},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var retired atomic.Uint64
			ing := ingress.New(ingress.Config{Lanes: 1, Engine: engine.Config{
				Shards: 1, DisableFastpath: tc.disable,
				OnRetire: func(*sim.Packet) { retired.Add(1) },
			}})
			defer ing.Close()
			feed := func(pkt *sim.Packet, at time.Duration) {
				want := retired.Load() + 1
				if err := ing.Ingest(pkt, at); err != nil {
					t.Fatal(err)
				}
				for retired.Load() < want {
					runtime.Gosched()
				}
			}

			// Establish a call and let its media arm, then replay the
			// caller's last packet of the wanted kind, advanced in place.
			var s dialog.Script
			dialog.SynthCall(0, "alloc").Converse(&s, 0, 20, false)
			var pkt *sim.Packet
			var at time.Duration
			for _, en := range dialog.Render(s) {
				feed(en.Packet(), en.At())
				if p := en.Packet(); p.Proto == tc.proto && p.From.Host == s[0].From.Host {
					pkt, at = p, en.At()
				}
			}
			if st := ing.Stats(); (st.FastpathHits == 0) != tc.disable {
				t.Fatalf("fast path hits = %d with absorption disabled=%v", st.FastpathHits, tc.disable)
			}
			raw := pkt.Payload.([]byte)
			before := ing.Stats()
			avg := testing.AllocsPerRun(200, func() {
				at += 20 * time.Millisecond
				if tc.proto == sim.ProtoRTP {
					binary.BigEndian.PutUint16(raw[2:], binary.BigEndian.Uint16(raw[2:])+1)
					binary.BigEndian.PutUint32(raw[4:], binary.BigEndian.Uint32(raw[4:])+160)
				}
				feed(pkt, at)
			})
			if avg > maxIngestMediaAllocs {
				t.Errorf("Ingest(%s) allocates %.1f/packet, budget %d", tc.name, avg, maxIngestMediaAllocs)
			}
			// The packets took the path the row names: absorbed, consulted
			// and escalated, or routed without a consult.
			after := ing.Stats()
			hits := after.FastpathHits - before.FastpathHits
			misses := after.FastpathMisses - before.FastpathMisses
			absorbed, escalated := tc.proto == sim.ProtoRTP && !tc.disable, tc.proto == sim.ProtoRTP && tc.disable
			if (hits > 0) != absorbed || (misses > 0) != escalated {
				t.Errorf("%s: %d hits, %d misses", tc.name, hits, misses)
			}
		})
	}
}

// TestAllocBudgetIngestSIP holds Ingress.Ingest to zero allocations for
// an established call's retransmitted ACK, shard step included: the
// datagram is waited out through the retire hook.
func TestAllocBudgetIngestSIP(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	var retired atomic.Uint64
	ing := ingress.New(ingress.Config{Lanes: 1, Engine: engine.Config{
		Shards: 1, OnRetire: func(*sim.Packet) { retired.Add(1) },
	}})
	defer ing.Close()
	feed := func(pkt *sim.Packet, at time.Duration) {
		want := retired.Load() + 1
		if err := ing.Ingest(pkt, at); err != nil {
			t.Fatal(err)
		}
		for retired.Load() < want {
			runtime.Gosched()
		}
	}

	var s dialog.Script
	dialog.SynthCall(0, "alloc").Converse(&s, 0, 20, false)
	var ack *sim.Packet
	var at time.Duration
	for _, en := range dialog.Render(s) {
		p := en.Packet()
		feed(p, en.At())
		if raw, ok := p.Payload.([]byte); ok && p.Proto == sim.ProtoSIP && string(raw[:4]) == "ACK " {
			ack, at = p, en.At()
		}
	}
	if ack == nil {
		t.Fatal("the dialog has no ACK")
	}
	before := ing.Stats()
	avg := testing.AllocsPerRun(200, func() {
		at += 20 * time.Millisecond
		feed(ack, at)
	})
	if avg > maxIngestSIPAllocs {
		t.Errorf("Ingest(retransmitted ACK) allocates %.1f/datagram, budget %d", avg, maxIngestSIPAllocs)
	}
	if after := ing.Stats(); after.Processed-before.Processed != 201 || after.Absorbed != before.Absorbed {
		t.Errorf("the ACKs did not all reach the call's machines: processed %d -> %d, absorbed %d -> %d",
			before.Processed, after.Processed, before.Absorbed, after.Absorbed)
	}
}
