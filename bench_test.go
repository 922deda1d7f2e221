package vids_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"vids"
	"vids/internal/attack"
	"vids/internal/core"
	"vids/internal/dialog"
	"vids/internal/engine"
	"vids/internal/fastpath"
	"vids/internal/ids"
	"vids/internal/idsgen"
	"vids/internal/ingress"
	"vids/internal/media"
	"vids/internal/rtp"
	"vids/internal/sdp"
	"vids/internal/sim"
	"vids/internal/sipmsg"
	"vids/internal/timerwheel"
	"vids/internal/trace"
	"vids/internal/workload"
)

// benchOpts keeps per-iteration experiment runs small enough to
// benchmark while exercising the full pipeline. The cmd/experiments
// binary runs the paper-scale versions.
func benchOpts() vids.ExperimentOptions {
	return vids.ExperimentOptions{
		Seed:             9,
		UAs:              4,
		Duration:         2 * time.Minute,
		MeanCallInterval: 40 * time.Second,
		MeanCallDuration: 15 * time.Second,
	}
}

// BenchmarkFig8Workload regenerates the Figure 8 arrival/duration
// workload (experiment E1).
func BenchmarkFig8Workload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := vids.Fig8(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if res.Placed == 0 {
			b.Fatal("no calls placed")
		}
	}
}

// BenchmarkFig9CallSetup regenerates the Figure 9 setup-delay
// comparison (experiment E2) and reports the measured vids overhead.
func BenchmarkFig9CallSetup(b *testing.B) {
	var overhead time.Duration
	for i := 0; i < b.N; i++ {
		res, err := vids.Fig9(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		overhead = res.AvgOverhead
	}
	b.ReportMetric(float64(overhead)/float64(time.Millisecond), "setup-overhead-ms")
}

// BenchmarkFig10RTPQoS regenerates the Figure 10 RTP QoS comparison
// (experiment E3).
func BenchmarkFig10RTPQoS(b *testing.B) {
	opts := benchOpts()
	opts.Duration = time.Minute
	var overhead time.Duration
	for i := 0; i < b.N; i++ {
		res, err := vids.Fig10(opts)
		if err != nil {
			b.Fatal(err)
		}
		overhead = res.DelayOverhead
	}
	b.ReportMetric(float64(overhead)/float64(time.Millisecond), "rtp-overhead-ms")
}

// BenchmarkCPUOverhead regenerates the Section 7.3 CPU measurement
// (experiment E4).
func BenchmarkCPUOverhead(b *testing.B) {
	opts := benchOpts()
	opts.Duration = time.Minute
	var perPacket time.Duration
	for i := 0; i < b.N; i++ {
		res, err := vids.CPUOverhead(opts)
		if err != nil {
			b.Fatal(err)
		}
		perPacket = res.PerPacket
	}
	b.ReportMetric(float64(perPacket.Nanoseconds()), "vids-ns/packet")
}

// BenchmarkPerCallMemory regenerates the Section 7.3 memory
// accounting (experiment E5).
func BenchmarkPerCallMemory(b *testing.B) {
	var perCall int
	for i := 0; i < b.N; i++ {
		res, err := vids.Memory(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		perCall = res.PerCallBytes
	}
	b.ReportMetric(float64(perCall), "bytes/call")
}

// BenchmarkDetectionAccuracy regenerates the Section 7.5 accuracy
// table (experiment E6).
func BenchmarkDetectionAccuracy(b *testing.B) {
	opts := benchOpts()
	opts.Duration = time.Minute
	var rate float64
	for i := 0; i < b.N; i++ {
		res, err := vids.Accuracy(opts)
		if err != nil {
			b.Fatal(err)
		}
		rate = res.DetectionRate()
	}
	b.ReportMetric(rate*100, "detection-%")
}

// BenchmarkDetectionSensitivity regenerates the Section 7.5 timer
// sweeps (experiment E7).
func BenchmarkDetectionSensitivity(b *testing.B) {
	opts := benchOpts()
	opts.Duration = time.Minute
	for i := 0; i < b.N; i++ {
		if _, err := vids.Sensitivity(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrossProtocolAblation runs experiment A1.
func BenchmarkCrossProtocolAblation(b *testing.B) {
	opts := benchOpts()
	opts.Duration = time.Minute
	for i := 0; i < b.N; i++ {
		res, err := vids.Ablation(opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.DetectedWithSync || res.DetectedWithoutSync {
			b.Fatal("ablation outcome wrong")
		}
	}
}

// ---------------------------------------------------------------------------
// Packet-path micro-benchmarks: the hot spots of the inline IDS.
// ---------------------------------------------------------------------------

func benchInvite() *sipmsg.Message {
	inv := sipmsg.NewRequest(sipmsg.INVITE, sipmsg.URI{User: "bob", Host: "b.example.com"})
	inv.Via = []sipmsg.Via{{Transport: "UDP", Host: "proxy.a.example.com", Port: 5060,
		Params: map[string]string{"branch": "z9hG4bKbench"}}}
	inv.From = sipmsg.NameAddr{URI: sipmsg.URI{User: "alice", Host: "a.example.com"}}.WithTag("t1")
	inv.To = sipmsg.NameAddr{URI: sipmsg.URI{User: "bob", Host: "b.example.com"}}
	inv.CallID = "bench@a.example.com"
	inv.CSeq = sipmsg.CSeq{Seq: 1, Method: sipmsg.INVITE}
	contact := sipmsg.NameAddr{URI: sipmsg.URI{User: "alice", Host: "ua1.a.example.com"}}
	inv.Contact = &contact
	inv.ContentType = "application/sdp"
	inv.Body = sdp.New("alice", "ua1.a.example.com", 20000, sdp.PayloadG729).Marshal()
	return inv
}

// BenchmarkSIPParse measures the wire-format parser (every packet
// crossing vids goes through it).
func BenchmarkSIPParse(b *testing.B) {
	raw := benchInvite().Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sipmsg.Parse(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSIPSerialize measures message serialization.
func BenchmarkSIPSerialize(b *testing.B) {
	m := benchInvite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Bytes()
	}
}

// BenchmarkRTPParse measures RTP header decoding.
func BenchmarkRTPParse(b *testing.B) {
	p := &rtp.Packet{PayloadType: 18, Sequence: 7, Timestamp: 1120, SSRC: 42,
		Payload: make([]byte, 20)}
	raw, err := p.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rtp.Parse(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIDSProcessSIP measures the full per-SIP-packet IDS path:
// parse, classify, machine step.
func BenchmarkIDSProcessSIP(b *testing.B) {
	s := sim.New(1)
	d := ids.New(s, ids.DefaultConfig())
	raw := benchInvite().Bytes()
	from := sim.Addr{Host: "proxy.a.example.com", Port: 5060}
	to := sim.Addr{Host: "proxy.b.example.com", Port: 5060}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Process(&sim.Packet{From: from, To: to, Proto: sim.ProtoSIP, Size: len(raw), Payload: raw})
	}
}

// BenchmarkIDSProcessSIPCompiled measures the per-SIP-packet detection
// path on the specgen-compiled backend with the parser factored out:
// the INVITE is parsed once and each iteration runs ProcessSIP —
// classification, fact-base lookup, compiled machine step — as a
// retransmission of the same dialog. BenchmarkIDSProcessSIP times the
// same path including the parse (16 of its 18 baseline allocations);
// this variant isolates what the compiled dispatch is responsible
// for, and alloc_test.go pins its single-digit budget.
func BenchmarkIDSProcessSIPCompiled(b *testing.B) {
	benchProcessSIP(b, ids.BackendCompiled)
}

// BenchmarkIDSProcessSIPInterpreted is the same retransmitted INVITE
// on the interpreted reference — the IR evaluator over map-backed
// variables. The end-to-end benchmark's set-up pushes its verification
// prefix through this path, so its cost is pinned beside the compiled
// one.
func BenchmarkIDSProcessSIPInterpreted(b *testing.B) {
	benchProcessSIP(b, ids.BackendInterpreted)
}

func benchProcessSIP(b *testing.B, backend ids.Backend) {
	s := sim.New(1)
	cfg := ids.DefaultConfig()
	cfg.Backend = backend
	// Every iteration re-sends the same INVITE with virtual time frozen,
	// which the windowed flood counter would (correctly) flag; raise the
	// threshold so the benchmark measures the benign path.
	cfg.FloodN = 1 << 40
	d := ids.New(s, cfg)
	inv := benchInvite()
	from := sim.Addr{Host: "proxy.a.example.com", Port: 5060}
	to := sim.Addr{Host: "proxy.b.example.com", Port: 5060}
	pkt := &sim.Packet{From: from, To: to, Proto: sim.ProtoSIP, Size: 500}
	d.ProcessSIP(inv, pkt) // create the monitor outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ProcessSIP(inv, pkt)
	}
	b.StopTimer()
	if n := len(d.Alerts()); n != 0 {
		b.Fatalf("retransmitted INVITE raised %d alerts", n)
	}
}

// BenchmarkSIPScan measures the packet path's one SIP scanner on the
// datagram BenchmarkSIPParse parses: same bytes, same verdict, no
// Message.
func BenchmarkSIPScan(b *testing.B) {
	raw := benchInvite().Bytes()
	var v sipmsg.View
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sipmsg.Scan(raw, &v) != sipmsg.ScanOK {
			b.Fatal("scan did not commit to the bench INVITE")
		}
	}
}

// BenchmarkSIPScanResponse measures the scanner on a bodiless
// datagram, the shape of most signaling: the 180 Ringing the callee
// answers the bench INVITE with.
func BenchmarkSIPScanResponse(b *testing.B) {
	ringing := sipmsg.NewResponse(benchInvite(), sipmsg.StatusRinging)
	ringing.To = ringing.To.WithTag("t2")
	raw := ringing.Bytes()
	var v sipmsg.View
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sipmsg.Scan(raw, &v) != sipmsg.ScanOK {
			b.Fatal("scan did not commit to the 180 Ringing")
		}
	}
}

// BenchmarkIDSProcessSIPView measures what a shard does per signaling
// datagram in the pipeline: ProcessSIPView on the lane's scan — intern
// the strings the machines keep, fact-base lookup, compiled machine
// step — as a retransmission of one dialog's INVITE. It is
// BenchmarkIDSProcessSIPCompiled with the view filler in place of the
// parsed message, and BenchmarkIDSProcessSIP without the parse.
func BenchmarkIDSProcessSIPView(b *testing.B) {
	s := sim.New(1)
	cfg := ids.DefaultConfig()
	cfg.FloodN = 1 << 40 // frozen virtual time: see BenchmarkIDSProcessSIPCompiled
	d := ids.New(s, cfg)
	raw := benchInvite().Bytes()
	var v sipmsg.View
	if sipmsg.Scan(raw, &v) != sipmsg.ScanOK {
		b.Fatal("scan did not commit to the bench INVITE")
	}
	pkt := &sim.Packet{
		From: sim.Addr{Host: "proxy.a.example.com", Port: 5060}, To: sim.Addr{Host: "proxy.b.example.com", Port: 5060},
		Proto: sim.ProtoSIP, Size: len(raw), Payload: raw,
	}
	d.ProcessSIPView(&v, pkt, nil, nil) // create the monitor outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ProcessSIPView(&v, pkt, nil, nil)
	}
	b.StopTimer()
	if n := len(d.Alerts()); n != 0 {
		b.Fatalf("retransmitted INVITE raised %d alerts", n)
	}
}

// BenchmarkIDSProcessSIPViewFlows is BenchmarkIDSProcessSIPView on a
// shard's detector: the flow table is set, holding the dialog's two
// SDP flows as the ingress lane installs them, and the timed step is a
// known call's in-dialog request (the caller's ACK, retransmitted),
// which disarms both of the call's flows before it is acked. It pins
// what a signaling step pays for the flow table and for resolving a
// call the detector already holds.
func BenchmarkIDSProcessSIPViewFlows(b *testing.B) {
	d, v, pkt := flowShardACK(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ProcessSIPView(v, pkt, nil, nil)
	}
	b.StopTimer()
	if n := len(d.Alerts()); n != 0 {
		b.Fatalf("retransmitted ACK raised %d alerts", n)
	}
}

// flowShardACK builds a shard's detector in miniature — compiled, with
// the engine's ExternalFloods and a flow table — and takes the bench
// dialog's INVITE and 200 through ProcessSIPView, each with the handle
// of the flow the lane's Install returned for its SDP. It returns the
// detector and the caller's ACK, scanned, ready to be fed as often as
// a caller needs.
func flowShardACK(tb testing.TB) (*ids.IDS, *sipmsg.View, *sim.Packet) {
	tb.Helper()
	cfg := ids.DefaultConfig()
	cfg.ExternalFloods = true
	d := ids.New(sim.New(1), cfg)
	fp := fastpath.New(fastpath.Config{SeqGap: 50, TSGap: 8000, RateWindow: time.Second, RatePackets: 100})
	d.Flows = fp
	proxyA := sim.Addr{Host: "proxy.a.example.com", Port: 5060}
	proxyB := sim.Addr{Host: "proxy.b.example.com", Port: 5060}
	scan := func(m *sipmsg.Message, from, to sim.Addr) (*sipmsg.View, *sim.Packet) {
		raw := m.Bytes()
		v := new(sipmsg.View)
		if sipmsg.Scan(raw, v) != sipmsg.ScanOK {
			tb.Fatalf("scan did not commit to %s", m.Summary())
		}
		return v, &sim.Packet{From: from, To: to, Proto: sim.ProtoSIP, Size: len(raw), Payload: raw}
	}
	feed := func(m *sipmsg.Message, from, to sim.Addr) {
		v, pkt := scan(m, from, to)
		raw := pkt.Payload.([]byte)
		var f *fastpath.Flow
		if v.SDPAddr.Len > 0 {
			f = fp.Install(ids.AppendMediaKey(nil, string(v.SDPAddr.Of(raw)), int(v.SDPPort)), string(v.CallID.Of(raw)), 0)
		}
		d.ProcessSIPView(v, pkt, f, nil)
	}
	inv := benchInvite()
	feed(inv, proxyA, proxyB)
	ok := sipmsg.NewResponse(inv, sipmsg.StatusOK)
	ok.To = ok.To.WithTag("t2")
	contact := sipmsg.NameAddr{URI: sipmsg.URI{User: "bob", Host: "ua2.b.example.com"}}
	ok.Contact = &contact
	ok.ContentType = "application/sdp"
	ok.Body = sdp.New("bob", "ua2.b.example.com", 30000, sdp.PayloadG729).Marshal()
	feed(ok, proxyB, proxyA)
	if n := fp.Counters().Flows; n != 2 {
		tb.Fatalf("flow table holds %d flows, want the dialog's 2", n)
	}
	ack := sipmsg.NewRequest(sipmsg.ACK, contact.URI)
	ack.Via = []sipmsg.Via{{Transport: "UDP", Host: "ua1.a.example.com", Port: 5060,
		Params: map[string]string{"branch": "z9hG4bKbenchack"}}}
	ack.From, ack.To, ack.CallID = inv.From, ok.To, inv.CallID
	ack.CSeq = sipmsg.CSeq{Seq: 1, Method: sipmsg.ACK}
	v, pkt := scan(ack, sim.Addr{Host: "ua1.a.example.com", Port: 5060}, sim.Addr{Host: "ua2.b.example.com", Port: 5060})
	d.ProcessSIPView(v, pkt, nil, nil)
	return d, v, pkt
}

// BenchmarkWheelNextLoaded measures the timer wheel's wake-up estimate
// with 50 K timers parked in one coarse bucket — the shape the shards'
// close-linger timers take under call churn, and the call wheelClock
// makes after every expiry batch. It must not depend on the load.
func BenchmarkWheelNextLoaded(b *testing.B) {
	w := timerwheel.New(func(*timerwheel.Timer) {})
	tms := make([]timerwheel.Timer, 50000)
	for i := range tms {
		w.Arm(&tms[i], 10*time.Second+time.Duration(i)*100*time.Nanosecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sum time.Duration
	for i := 0; i < b.N; i++ {
		at, _ := w.Next()
		sum += at
	}
	b.StopTimer()
	if sum <= 0 {
		b.Fatal("Next found no timer")
	}
}

// BenchmarkIDSProcessRTP measures the full per-RTP-packet IDS path on
// an established call's stream.
func BenchmarkIDSProcessRTP(b *testing.B) {
	benchProcessRTP(b, ids.BackendCompiled)
}

// BenchmarkIDSProcessRTPInterpreted is the same stream on the
// interpreted reference: four IR guards evaluated per packet (the
// RTP_RCVD cell) plus the window-advance action.
func BenchmarkIDSProcessRTPInterpreted(b *testing.B) {
	benchProcessRTP(b, ids.BackendInterpreted)
}

func benchProcessRTP(b *testing.B, backend ids.Backend) {
	s := sim.New(1)
	cfg := ids.DefaultConfig()
	cfg.Backend = backend
	d := ids.New(s, cfg)
	// Establish one call so the stream has a live machine.
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

	mfrom := sim.Addr{Host: "ua1.a.example.com", Port: 20000}
	mto := sim.Addr{Host: "ua2.b.example.com", Port: 30000}
	// Marshal once outside the measured loop — the benchmark times the
	// IDS, not the packet encoder — and patch the sequence/timestamp
	// words in place each iteration so the stream stays in order.
	p := &rtp.Packet{PayloadType: 18, SSRC: 42, Payload: make([]byte, 20)}
	raw, err := p.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	pkt := &sim.Packet{From: mfrom, To: mto, Proto: sim.ProtoRTP, Size: len(raw), Payload: raw}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint16(raw[2:], uint16(i))
		binary.BigEndian.PutUint32(raw[4:], uint32(i)*160)
		d.Process(pkt)
	}
}

// churnStep is one pre-parsed message of a churn dialog with its
// addressed carrier packet (ProcessSIP never re-parses the payload).
type churnStep struct {
	m   *sipmsg.Message
	pkt *sim.Packet
}

// churnDialog builds the complete benign dialog of call slot i —
// INVITE, 180, 200 (SDP answer), ACK, BYE, 200 — pre-parsed, so the
// churn benchmark measures monitor lifecycle cost, not the parser.
func churnDialog(i int) []churnStep {
	c := dialog.TestbedCall(fmt.Sprintf("churn-%d@ua1.a.example.com", i), i)
	var s dialog.Script
	c.Establish(&s, 0, 0, true)
	c.Hangup(&s, 0, 0)
	steps := make([]churnStep, len(s))
	for k, st := range s {
		m := st.Msg.(dialog.SIP)
		steps[k] = churnStep{m.Message(),
			&sim.Packet{From: st.From, To: st.To, Proto: sim.ProtoSIP, Size: len(m.Bytes())}}
	}
	return steps
}

// BenchmarkCallChurn measures the full monitor lifecycle — create on
// INVITE, establish, tear down on BYE, linger, evict, recycle — for
// one complete dialog per iteration. With pooled monitors, wheel
// timers and interned keys the steady state allocates (almost)
// nothing: the budget in alloc_test.go pins it.
func BenchmarkCallChurn(b *testing.B) {
	const slots = 64
	s := sim.New(1)
	cfg := ids.DefaultConfig()
	d := ids.New(s, cfg)
	dialogs := make([][]churnStep, slots)
	for i := range dialogs {
		dialogs[i] = churnDialog(i)
	}
	// After the BYE the RTP machines wait out Figure 5's timer T and
	// the monitor lingers CloseLinger before eviction; advance virtual
	// time past both so every iteration recycles its monitor.
	settle := cfg.ByeGraceT + cfg.CloseLinger + time.Second
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, step := range dialogs[i%slots] {
			d.ProcessSIP(step.m, step.pkt)
		}
		if err := s.Run(s.Now() + settle); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if n := len(d.Alerts()); n != 0 {
		b.Fatalf("benign churn raised %d alerts", n)
	}
	if d.ActiveCalls() != 0 {
		b.Fatalf("%d monitors still resident", d.ActiveCalls())
	}
}

// BenchmarkEFSMStep measures one guarded machine transition.
func BenchmarkEFSMStep(b *testing.B) {
	spec := core.NewSpec("bench", "A")
	spec.On("A", "e", func(c *core.Ctx) bool {
		return c.Event.IntArg("x") >= 0
	}, func(c *core.Ctx) {
		c.Vars.SetInt("l.count", c.Vars.GetInt("l.count")+1)
	}, "A")
	m := core.NewMachine(spec, nil)
	ev := core.Event{Name: "e", Args: map[string]any{"x": 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Step(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEFSMStepCompiled measures one guarded transition through
// the specgen-compiled dispatch — dense table lookup, devirtualized
// guard, inlined action on struct-field locals — the compiled
// counterpart of BenchmarkEFSMStep's interpreted walk. The machine is
// the invite-flood counter spinning on its counting self-loop with a
// typed argument vector, threshold set high enough that b.N
// iterations never trip it.
func BenchmarkEFSMStepCompiled(b *testing.B) {
	m := idsgen.NewFloodMachine(idsgen.FloodInvite, 1<<40)
	args := idsgen.FloodArgs{Dest: "bob@b.example.com", Src: "attacker.example.net"}
	ev := core.Event{Name: ids.EvInvite, Typed: &args}
	if _, err := m.Step(ev); err != nil { // INIT -> counting: arm the self-loop
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	// Reuse one result variable: a fresh temporary per iteration would
	// add a per-call zeroing of the 14-word StepResult that no real
	// caller pays (the delivery path appends into a reused buffer).
	var res core.StepResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = m.Step(ev)
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = res
}

// BenchmarkSimulatorEvents measures raw event scheduling throughput.
func BenchmarkSimulatorEvents(b *testing.B) {
	s := sim.New(1)
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(time.Duration(i)*time.Microsecond, func() { n++ })
	}
	if err := s.RunAll(); err != nil {
		b.Fatal(err)
	}
	if n != b.N {
		b.Fatalf("ran %d of %d events", n, b.N)
	}
}

// BenchmarkTestbedCall measures one full end-to-end call (setup,
// media start, teardown) through the simulated enterprise network
// with vids inline.
func BenchmarkTestbedCall(b *testing.B) {
	cfg := workload.DefaultConfig()
	cfg.UAs = 2
	cfg.WithMedia = false
	tb, err := workload.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := tb.Sim.Run(time.Second); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := tb.PlaceCall(0, 0, time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if err := tb.Sim.Run(tb.Sim.Now() + 30*time.Second); err != nil {
			b.Fatal(err)
		}
		if !rec.Established {
			b.Fatal("call failed")
		}
	}
}

// BenchmarkAttackDetectionLatency measures the end-to-end cost of the
// flagship detection: spoofed BYE -> cross-protocol alert.
func BenchmarkAttackDetectionLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := workload.DefaultConfig()
		cfg.UAs = 2
		cfg.WithMedia = true
		cfg.AnswerDelay = time.Second
		tb, err := workload.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sniff := attack.NewSniffer()
		tb.Net.Tap(sniff.Tap)
		if err := tb.Sim.Run(time.Second); err != nil {
			b.Fatal(err)
		}
		rec, err := tb.PlaceCall(0, 0, time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		if err := tb.Sim.Run(tb.Sim.Now() + 5*time.Second); err != nil {
			b.Fatal(err)
		}
		call := rec.Call()
		info := attack.DialogInfo{
			CallID:     call.ID,
			CallerTag:  call.LocalTag,
			CalleeTag:  call.RemoteTag,
			CallerAOR:  sipmsg.URI{User: workload.UAUser("a", 1), Host: workload.DomainA},
			CalleeAOR:  sipmsg.URI{User: workload.UAUser("b", 1), Host: workload.DomainB},
			CallerHost: workload.UAHost("a", 1),
			CalleeHost: call.RemoteContact.Host,
		}
		atk := attack.New(tb.Sim, tb.Net, workload.AttackerHost)
		if err := atk.ByeDoS(info, true); err != nil {
			b.Fatal(err)
		}
		if err := tb.Sim.Run(tb.Sim.Now() + 5*time.Second); err != nil {
			b.Fatal(err)
		}
		detected := false
		for _, a := range tb.IDS.Alerts() {
			if a.Type == ids.AlertTollFraud || a.Type == ids.AlertByeDoS {
				detected = true
			}
		}
		if !detected {
			b.Fatal("attack undetected")
		}
	}
}

// BenchmarkAuthExperiment runs experiment E8 (authentication
// sufficiency).
func BenchmarkAuthExperiment(b *testing.B) {
	opts := benchOpts()
	opts.Duration = time.Minute
	for i := 0; i < b.N; i++ {
		res, err := vids.Auth(opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.NoAuthDoSSucceeded || res.AuthDoSSucceeded {
			b.Fatal("auth experiment outcome wrong")
		}
	}
}

// BenchmarkTraceReplay measures offline trace analysis throughput:
// packets per second through a fresh IDS.
func BenchmarkTraceReplay(b *testing.B) {
	// Capture once.
	cfg := workload.DefaultConfig()
	cfg.UAs = 3
	cfg.WithMedia = true
	tb, err := workload.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	tb.IDS.OnPacket = w.Tap
	tb.GenerateCalls(time.Minute)
	if err := tb.Sim.Run(2 * time.Minute); err != nil {
		b.Fatal(err)
	}
	entries, err := trace.Read(&buf)
	if err != nil {
		b.Fatal(err)
	}
	if len(entries) == 0 {
		b.Fatal("empty capture")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sim.New(int64(i) + 1)
		d := ids.New(s, ids.DefaultConfig())
		if err := trace.Replay(s, entries, d); err != nil {
			b.Fatal(err)
		}
		if err := s.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(entries)), "packets/replay")
}

// BenchmarkEngineThroughput measures the online detection pipeline
// end to end through the multi-lane ingestion tier (internal/ingress):
// a synthetic benign-call workload, partitioned into disjoint dialog
// ranges, fed by one producer goroutine per lane — the deployment
// shape of K SO_REUSEPORT listeners — then routed, analyzed and
// drained. Sub-benchmarks sweep the shard count with lanes scaled
// alongside; on a multi-core runner throughput scales with shards
// because no lock spans the tier (each datagram is scanned once before
// any lane lock, flood windows are striped over the lanes). The
// reported "cores" metric lets downstream tooling
// (cmd/benchjson -scaling) skip the scaling assertion on boxes with
// too few cores to show it.
func BenchmarkEngineThroughput(b *testing.B) {
	const totalCalls = 192 // divisible by every lane count below
	type partition struct {
		pkts []*sim.Packet
		ats  []time.Duration
	}
	for _, shards := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			lanes := shards
			parts := make([]partition, lanes)
			total := 0
			for i := range parts {
				entries := dialog.Synthesize(dialog.SynthConfig{
					Calls: totalCalls / lanes, RTPPerCall: 40,
					FirstCall: i * (totalCalls / lanes),
				})
				p := partition{
					pkts: make([]*sim.Packet, len(entries)),
					ats:  make([]time.Duration, len(entries)),
				}
				for j, en := range entries {
					p.pkts[j] = en.Packet()
					p.ats[j] = en.At()
				}
				parts[i] = p
				total += len(entries)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ing := ingress.New(ingress.Config{
					Lanes:  lanes,
					Engine: engine.Config{Shards: shards},
				})
				errc := make(chan error, lanes)
				var wg sync.WaitGroup
				for _, p := range parts {
					wg.Add(1)
					go func(p partition) {
						defer wg.Done()
						for j := range p.pkts {
							if err := ing.Ingest(p.pkts[j], p.ats[j]); err != nil {
								errc <- err
								return
							}
						}
					}(p)
				}
				wg.Wait()
				close(errc)
				for err := range errc {
					b.Fatal(err)
				}
				if err := ing.Close(); err != nil {
					b.Fatal(err)
				}
				if st := ing.Stats(); st.Processed == 0 {
					b.Fatal("nothing processed")
				}
			}
			b.ReportMetric(float64(total*b.N)/b.Elapsed().Seconds(), "pkts/sec")
			b.ReportMetric(float64(runtime.NumCPU()), "cores")
		})
	}
}

// BenchmarkFastpathLookup measures one armed-flow validation hit —
// the per-packet price the ingress lanes pay to absorb in-profile
// media instead of enqueueing it, consulted the way they consult: by
// the packet's destination, with no key rendered. This is the cost
// every absorbed RTP packet pays, so it sits in the hot-path suite
// with the parsers: its allocs/op is pinned at zero in
// BENCH_hotpath.json and any allocation is a gated regression.
func BenchmarkFastpathLookup(b *testing.B) {
	c := fastpath.New(fastpath.Config{
		SeqGap: 50, TSGap: 8000,
		RateWindow: time.Second, RatePackets: 1 << 30,
	})
	host, port := "ua2.b.example.com", 30000
	key := ids.AppendMediaKey(nil, host, port)
	c.Install(key, "bench-call", 0)
	var res fastpath.Consult
	c.ConsultKey(key, 18, 42, 0, 0, 0, &res)
	if res.Verdict != fastpath.Miss || res.Flow == nil {
		b.Fatalf("priming consult = %v, want Miss with flow", res.Verdict)
	}
	if !c.Update(key, res.Epoch, 18, fastpath.Snapshot{Gen: 1, SSRC: 42, WinCount: 1}) {
		b.Fatal("arm refused")
	}
	res.Flow.Release()
	b.ReportAllocs()
	b.ResetTimer()
	seq, ts := uint16(0), uint32(0)
	for i := 0; i < b.N; i++ {
		seq++
		ts += 160
		c.ConsultAddr(host, port, 18, 42, seq, ts, time.Duration(i)*20*time.Millisecond, &res)
		if res.Verdict != fastpath.Hit {
			b.Fatalf("packet %d: verdict %v, want Hit", i, res.Verdict)
		}
	}
}

// mediaPart splits one lane's synthetic trace by pipeline role:
// setup is the dialog establishment (INVITE/200/ACK) plus each media
// flow's first packet — everything a flow needs to reach the armed
// state; blast is the steady-state media stream (plus its RTCP); tail
// is the BYE and its 200. Indices into pkts/ats preserve arrival
// order within each class.
type mediaPart struct {
	setup []int
	blast []int
	tail  []int
	pkts  []*sim.Packet
	ats   []time.Duration
}

func splitMediaPart(entries []trace.Entry) mediaPart {
	p := mediaPart{
		pkts: make([]*sim.Packet, len(entries)),
		ats:  make([]time.Duration, len(entries)),
	}
	firstMedia := make(map[sim.Addr]bool)
	for i, en := range entries {
		p.pkts[i] = en.Packet()
		p.ats[i] = en.At()
		switch p.pkts[i].Proto {
		case sim.ProtoSIP:
			if bytes.HasPrefix(en.Data, []byte("BYE ")) ||
				bytes.Contains(en.Data, []byte("CSeq: 2 BYE")) {
				p.tail = append(p.tail, i)
			} else {
				p.setup = append(p.setup, i)
			}
		case sim.ProtoRTP:
			to := sim.Addr{Host: en.ToHost, Port: en.ToPort}
			if !firstMedia[to] {
				firstMedia[to] = true
				p.setup = append(p.setup, i)
			} else {
				p.blast = append(p.blast, i)
			}
		default:
			p.blast = append(p.blast, i)
		}
	}
	return p
}

// BenchmarkEngineThroughputMedia measures the pipeline on the paper's
// dominant traffic shape: ~91% RTP (30 media packets per direction
// per dialog against 5 signaling messages and one RTCP report).
// Sub-benchmarks toggle the ingress-side validation cache
// (internal/fastpath) against the full slow path and sweep shard
// counts; fastpath=off is the control that prices absorption, and
// shards=4/shards=1 under fastpath=on feeds the -scaling floor. Each
// iteration establishes the dialogs and arms the flows untimed — the
// steady state a long-lived call spends its life in — then times the
// media blast, the hangups and the drain.
func BenchmarkEngineThroughputMedia(b *testing.B) {
	const totalCalls = 96 // divisible by every lane count below
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"fastpath=on", false}, {"fastpath=off", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for _, shards := range []int{1, 4} {
				b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
					benchMediaThroughput(b, totalCalls, shards, mode.disable)
				})
			}
		})
	}
}

func benchMediaThroughput(b *testing.B, totalCalls, shards int, disable bool) {
	lanes := shards
	parts := make([]mediaPart, lanes)
	blastTotal := 0
	for i := range parts {
		entries := dialog.Synthesize(dialog.SynthConfig{
			Calls: totalCalls / lanes, RTPPerCall: 30,
			FirstCall: i * (totalCalls / lanes),
		})
		parts[i] = splitMediaPart(entries)
		blastTotal += len(parts[i].blast)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		ing := ingress.New(ingress.Config{
			Lanes:  lanes,
			Engine: engine.Config{Shards: shards, DisableFastpath: disable},
		})
		// Arming needs the shard worker caught up when the flow's first
		// packet is processed, so the setup feed is drain-paced: each
		// packet is fully accounted before the next goes in.
		fed := uint64(0)
		accounted := func() uint64 {
			st := ing.Stats()
			return st.Processed + st.Absorbed + st.Ignored + st.ParseErrors
		}
		for _, p := range parts {
			for _, j := range p.setup {
				if err := ing.Ingest(p.pkts[j], p.ats[j]); err != nil {
					b.Fatal(err)
				}
				fed++
				for accounted() < fed {
					runtime.Gosched()
				}
			}
		}
		// The timed region is the media blast alone: ingest plus full
		// drain, so the slow-path control pays for emptying its shard
		// queues, not just for enqueueing. Collect the setup's garbage
		// first — on small boxes the GC debt of dialog establishment
		// otherwise comes due mid-blast.
		runtime.GC()
		b.StartTimer()

		errc := make(chan error, lanes)
		var wg sync.WaitGroup
		for _, p := range parts {
			wg.Add(1)
			go func(p mediaPart) {
				defer wg.Done()
				for _, j := range p.blast {
					if err := ing.Ingest(p.pkts[j], p.ats[j]); err != nil {
						errc <- err
						return
					}
				}
			}(p)
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			b.Fatal(err)
		}
		fed += uint64(blastTotal)
		for accounted() < fed {
			runtime.Gosched()
		}
		b.StopTimer()

		for _, p := range parts {
			for _, j := range p.tail {
				if err := ing.Ingest(p.pkts[j], p.ats[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := ing.Close(); err != nil {
			b.Fatal(err)
		}
		st := ing.Stats()
		if st.Processed == 0 {
			b.Fatal("nothing processed")
		}
		if disable && st.FastpathHits != 0 {
			b.Fatalf("disabled cache absorbed packets: %+v", st)
		}
		if !disable && st.FastpathHits == 0 {
			b.Fatalf("cache never absorbed the media blast: %+v", st)
		}
		if alerts := ing.Alerts(); len(alerts) != 0 {
			b.Fatalf("benign media workload raised %d alerts, first %+v", len(alerts), alerts[0])
		}
	}
	b.ReportMetric(float64(blastTotal)*float64(b.N)/b.Elapsed().Seconds(), "pkts/sec")
	b.ReportMetric(float64(runtime.NumCPU()), "cores")
}

// BenchmarkRTCPParse measures RTCP decoding.
func BenchmarkRTCPParse(b *testing.B) {
	p := &rtp.RTCP{Type: rtp.RTCPSenderReport, SSRC: 1, PacketCount: 100,
		Reports: []rtp.ReceptionReport{{SSRC: 2, HighestSeq: 500}}}
	raw, err := p.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rtp.ParseRTCP(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMOS measures the E-model computation.
func BenchmarkMOS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = media.MOS(time.Duration(i%200)*time.Millisecond, float64(i%10)/100)
	}
}

// BenchmarkPreventionExperiment runs experiment E9 (availability
// under flood, detection vs. prevention).
func BenchmarkPreventionExperiment(b *testing.B) {
	opts := benchOpts()
	opts.Duration = time.Minute
	var gain float64
	for i := 0; i < b.N; i++ {
		res, err := vids.Prevention(opts)
		if err != nil {
			b.Fatal(err)
		}
		gain = res.AvailabilityPrevention() - res.AvailabilityDetectOnly()
	}
	b.ReportMetric(gain*100, "availability-gain-%")
}
