package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"testing"
	"time"

	"vids/internal/bufpool"
	"vids/internal/core"
	"vids/internal/fastpath"
	"vids/internal/ids"
	"vids/internal/idsgen"
	"vids/internal/intern"
	"vids/internal/rtp"
	"vids/internal/sdp"
	"vids/internal/sim"
	"vids/internal/sipmsg"
	"vids/internal/timerwheel"
)

// sink keeps the timed calls' results alive so they are not optimized away.
var sink int

// inputs is the workload's own material for the isolated layer timings,
// drawn from the captured verify prefix.
type inputs struct {
	pkts   []*sim.Packet
	ats    []time.Duration
	parsed []*sipmsg.Message // per packet; nil unless well-formed SIP
	sip    [][]byte
	rtp    [][]byte
	rtcp   [][]byte
	bodies [][]byte
	callID [][]byte
	flows  [][]byte // media keys of the RTP destinations
	dialog []int    // packet indices of one complete benign dialog
}

func gather(c *captured) *inputs {
	in := &inputs{}
	seenFlow := map[string]bool{}
	dialogs := map[string][]int{}
	for i, e := range c.entries {
		pkt := e.Packet()
		in.pkts = append(in.pkts, pkt)
		in.ats = append(in.ats, e.At())
		in.parsed = append(in.parsed, nil)
		switch pkt.Proto {
		case sim.ProtoSIP:
			m, err := sipmsg.Parse(e.Data)
			if err != nil {
				continue
			}
			in.parsed[i] = m
			if len(in.sip) < 512 {
				in.sip = append(in.sip, e.Data)
				in.callID = append(in.callID, []byte(m.CallID))
				if len(m.Body) > 0 {
					in.bodies = append(in.bodies, m.Body)
				}
			}
			if c.class[i] < 0 && in.dialog == nil {
				d := append(dialogs[m.CallID], i)
				dialogs[m.CallID] = d
				if len(d) == 6 {
					in.dialog = d
				}
			}
		case sim.ProtoRTP:
			if len(in.rtp) < 512 {
				in.rtp = append(in.rtp, e.Data)
			}
			key := string(ids.AppendMediaKey(nil, e.ToHost, e.ToPort))
			if !seenFlow[key] && len(in.flows) < 2*residentCalls {
				seenFlow[key] = true
				in.flows = append(in.flows, []byte(key))
			}
		case sim.ProtoRTCP:
			if len(in.rtcp) < 512 {
				in.rtcp = append(in.rtcp, e.Data)
			}
		}
	}
	return in
}

// sequential runs the prefix through one single-threaded compiled IDS,
// as `vids -replay` without shards does. With each set it times every
// Process (or, with preparsed, ProcessSIP) call and returns the mean ns
// per SIP and per RTP packet; without, it returns the packets per second
// of the whole pass.
func sequential(in *inputs, each, preparsed bool, clockCost float64) (sipNs, rtpNs, pps float64) {
	s := sim.New(0)
	d := ids.New(s, ids.DefaultConfig())
	var sipSum, rtpSum time.Duration
	var nSIP, nRTP int
	t0 := time.Now()
	for i, pkt := range in.pkts {
		_ = s.RunUntil(in.ats[i])
		if !each {
			d.Process(pkt)
			continue
		}
		start := time.Now()
		if m := in.parsed[i]; preparsed && m != nil {
			d.ProcessSIP(m, pkt)
		} else {
			d.Process(pkt)
		}
		dt := time.Since(start)
		switch {
		case in.parsed[i] != nil:
			sipSum += dt
			nSIP++
		case pkt.Proto == sim.ProtoRTP:
			rtpSum += dt
			nRTP++
		}
	}
	elapsed := time.Since(t0)
	per := func(sum time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(sum)/float64(n) - clockCost
	}
	return per(sipSum, nSIP), per(rtpSum, nRTP), float64(len(in.pkts)) / elapsed.Seconds()
}

// layerMetrics fills m with the per-layer numbers: counters the program
// keeps, read at the phase boundaries, and wall time of calls into each
// module's public functions on the workload's own packets.
func layerMetrics(m metrics, w *workload, pr *prepared, rp replayResult, pc, tr pacedResult, repeats int, budget time.Duration, seed int64) {
	in := gather(pr.cap)
	slice := budget / 20
	timed := func(name string, n int, op func()) float64 {
		if n == 0 {
			m.set(name, 0, "ns", 0)
			return 0
		}
		ns, batches := timeOp(slice, op)
		m.set(name, ns, "ns", batches)
		return ns
	}
	// A timed interval holds one clock read's worth of overhead.
	epoch := time.Now()
	clockCost, _ := timeOp(slice, func() { sink += int(time.Since(epoch)) })

	// ingress and engine: the traced pass's spans.
	var sipNs, hitNs, escNs, wait []int64
	for i := range tr.rec.spans[:tr.rec.nSpans] {
		s := &tr.rec.spans[i]
		ingest1 := s.ingest1.Load()
		d := ingest1 - s.ingest0 - int64(clockCost)
		switch {
		case s.k < kRTP:
			sipNs = append(sipNs, d)
		case s.k == kRTP && s.inside:
			// Retired inside Ingest: the interval also holds the retire
			// hook's clock read, which an unwatched packet does not pay.
			hitNs = append(hitNs, d-int64(clockCost))
		default:
			escNs = append(escNs, d)
		}
		if !s.inside && s.retire != 0 {
			wait = append(wait, s.retire-ingest1)
		}
	}
	med := func(name, unit string, xs []int64, scale float64) float64 {
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		v := quantile(xs, 0.5) / scale
		m.set(name, v, unit, len(xs))
		return v
	}
	ingSIP := med("ingress.ingest_ns_sip", "ns", sipNs, 1)
	ingHit := med("ingress.ingest_ns_media_hit", "ns", hitNs, 1)
	ingEsc := med("ingress.ingest_ns_media_escalated", "ns", escNs, 1)
	m.set("ingress.absorbed_stray", float64(tr.end.st.Absorbed-tr.base.st.Absorbed), "count", 1)
	med("engine.enqueue_to_retire_us_p50", "us", wait, 1e3)
	wpct := tailPct(len(wait))
	m["engine.enqueue_to_retire_us_p99"] = metric{Value: quantile(wait, wpct) / 1e3, Unit: "us", Samples: len(wait), Pct: wpct * 100}
	if tr.depthPolls > 0 {
		m.set("engine.queue_depth_mean", float64(tr.depthSum)/float64(tr.depthPolls), "count", tr.depthPolls)
	} else {
		m.set("engine.queue_depth_mean", 0, "count", 0)
	}
	m.set("engine.queue_depth_max", float64(tr.depthMax), "count", tr.depthPolls)
	m.set("engine.dropped", float64(tr.end.st.Dropped), "count", 1)
	a := pc.rec.alerts.sorted()
	apct := tailPct(len(a))
	m.set("engine.alert_p50_us", quantile(a, 0.5)/1e3, "us", len(a))
	m["engine.alert_p99_us"] = metric{Value: quantile(a, apct) / 1e3, Unit: "us", Samples: len(a), Pct: apct * 100}
	m.set("ids.alerts", float64(pc.end.st.Alerts-pc.base.st.Alerts), "count", 1)
	m.set("ids.alert_repeats", float64(repeats), "count", 1)

	// fastpath: the regime difference between closed and open loop, and
	// the isolated consult and arm costs over the workload's flow set.
	m.set("fastpath.hit_share_replay", hitShare(rp.base, rp.end), "ratio", int(rp.end.rtp()-rp.base.rtp()))
	m.set("fastpath.hit_share_paced", hitShare(pc.base, pc.end), "ratio", int(pc.end.rtp()-pc.base.rtp()))
	m.set("fastpath.misses", float64(pc.end.st.FastpathMisses-pc.base.st.FastpathMisses), "count", 1)
	m.set("fastpath.escalations", float64(pc.end.st.FastpathEscalations-pc.base.st.FastpathEscalations), "count", 1)
	m.set("fastpath.invalidations", float64(pc.end.st.FastpathInvalidations-pc.base.st.FastpathInvalidations), "count", 1)
	thr := ids.DefaultConfig().RTP
	cache := fastpath.New(fastpath.Config{SeqGap: thr.SeqGap, TSGap: thr.TSGap, RateWindow: thr.RateWindow, RatePackets: thr.RatePackets})
	arm := func(key []byte) {
		cache.Install(key, string(key), 0) // each flow its own owner, as distinct calls have
		var res fastpath.Consult
		cache.ConsultKey(key, sdp.PayloadG729, 42, 0, 0, 0, &res)
		cache.Update(key, res.Epoch, sdp.PayloadG729, fastpath.Snapshot{SSRC: 42})
		if res.Flow != nil {
			res.Flow.Release()
		}
	}
	for _, key := range in.flows {
		arm(key)
	}
	var res fastpath.Consult
	i, round := 0, uint32(0)
	timed("fastpath.consult_ns", len(in.flows), func() {
		if i == 0 {
			round++
		}
		cache.ConsultKey(in.flows[i], sdp.PayloadG729, 42, uint16(round), round*160, time.Duration(round)*20*ms, &res)
		i = (i + 1) % len(in.flows)
	})
	cycle := []byte("ua999999.a.example.com:9")
	timed("fastpath.arm_cycle_ns", 1, func() {
		arm(cycle)
		cache.DisarmCall(cycle)
		cache.Remove(string(cycle))
	})

	// The parsers, on the workload's own datagrams.
	i = 0
	timed("sipmsg.parse_ns", len(in.sip), func() {
		if msg, err := sipmsg.Parse(in.sip[i%len(in.sip)]); err == nil {
			sink += msg.StatusCode
		}
		i++
	})
	if len(in.sip) > 0 {
		m.set("sipmsg.parse_allocs", testing.AllocsPerRun(len(in.sip), func() {
			_, _ = sipmsg.Parse(in.sip[i%len(in.sip)])
			i++
		}), "count", len(in.sip))
	} else {
		m.set("sipmsg.parse_allocs", 0, "count", 0)
	}
	liteNs := timed("rtp.extract_lite_ns", len(in.rtp), func() {
		ssrc, _, _, _, _ := rtp.ExtractLite(in.rtp[i%len(in.rtp)])
		sink += int(ssrc)
		i++
	})
	var rp1 rtp.Packet
	timed("rtp.parse_ns", len(in.rtp), func() {
		_ = rtp.ParseInto(&rp1, in.rtp[i%len(in.rtp)])
		i++
	})
	var rc rtp.RTCP
	rtcpNs := timed("rtp.rtcp_parse_ns", len(in.rtcp), func() {
		_ = rtp.ParseRTCPInto(&rc, in.rtcp[i%len(in.rtcp)])
		i++
	})
	timed("sdp.media_dest_ns", len(in.bodies), func() {
		_, port, _, _ := sdp.MediaDest(in.bodies[i%len(in.bodies)])
		sink += port
		i++
	})

	// ids: the detector alone, single-threaded, over the same prefix.
	procSIP, procRTP, _ := sequential(in, true, false, clockCost)
	preSIP, _, _ := sequential(in, true, true, clockCost)
	var seq []float64
	for r := 0; r < 3; r++ {
		_, _, pps := sequential(in, false, false, 0)
		seq = append(seq, pps)
	}
	nSIP := in.count(func(i int) bool { return in.parsed[i] != nil })
	m.set("ids.process_sip_ns", procSIP, "ns", nSIP)
	m.set("ids.process_sip_preparsed_ns", preSIP, "ns", nSIP)
	m.set("ids.process_rtp_ns", procRTP, "ns", in.count(func(i int) bool { return in.pkts[i].Proto == sim.ProtoRTP }))
	m.set("ids.sequential_pps", median(seq), "1/s", len(seq))
	{
		cfg := ids.DefaultConfig()
		s := sim.New(1)
		d := ids.New(s, cfg)
		settle := cfg.ByeGraceT + cfg.CloseLinger + time.Second
		timed("ids.call_lifecycle_ns", len(in.dialog), func() {
			for _, k := range in.dialog {
				d.ProcessSIP(in.parsed[k], in.pkts[k])
			}
			_ = s.Run(s.Now() + settle)
		})
	}

	// One compiled and one interpreted transition, as `make bench` does.
	{
		fm := idsgen.NewFloodMachine(idsgen.FloodInvite, 1<<40)
		args := idsgen.FloodArgs{Dest: "bob@b.example.com", Src: "attacker.example.net"}
		ev := core.Event{Name: ids.EvInvite, Typed: &args}
		_, _ = fm.Step(ev)
		timed("idsgen.step_ns", 1, func() {
			r, _ := fm.Step(ev)
			sink += len(r.Label)
		})
		spec := core.NewSpec("bench", "A")
		spec.On("A", "e", func(c *core.Ctx) bool { return c.Event.IntArg("x") >= 0 },
			func(c *core.Ctx) { c.Vars.SetInt("l.count", c.Vars.GetInt("l.count")+1) }, "A")
		im := core.NewMachine(spec, nil)
		iev := core.Event{Name: "e", Args: map[string]any{"x": 1}}
		timed("core.step_ns", 1, func() {
			r, _ := im.Step(iev)
			sink += len(r.Label)
		})
	}

	// The shared plumbing under the monitor lifecycle and the receive path.
	{
		wh := timerwheel.New(func(*timerwheel.Timer) {})
		var t timerwheel.Timer
		timed("timerwheel.arm_cancel_ns", 1, func() {
			wh.Arm(&t, wh.Now()+250*ms)
			wh.Cancel(&t)
		})
		now := time.Duration(0)
		timed("timerwheel.advance_ns", 1, func() {
			wh.Arm(&t, now+10*ms)
			now += 20 * ms
			wh.Advance(now)
		})
		tbl := intern.New(4096)
		timed("intern.lookup_ns", len(in.callID), func() {
			sink += len(tbl.Bytes(in.callID[i%len(in.callID)]))
			i++
		})
		pool := bufpool.New(bufferSize)
		timed("bufpool.get_put_ns", 1, func() { pool.Put(pool.Get()) })
	}
	if gets := pc.end.gets - pc.base.gets; gets > 0 {
		m.set("bufpool.miss_share", float64(pc.end.misses-pc.base.misses)/float64(gets), "ratio", int(gets))
	} else {
		m.set("bufpool.miss_share", 0, "ratio", 0)
	}

	// mem: what the replay phase allocated and what it kept.
	pkts := float64(rp.end.accounted - rp.base.accounted)
	m.set("mem.allocs_per_pkt", float64(rp.mem1.Mallocs-rp.mem0.Mallocs)/pkts, "count", int(pkts))
	m.set("mem.bytes_per_pkt", float64(rp.mem1.TotalAlloc-rp.mem0.TotalAlloc)/pkts, "B", int(pkts))
	m.set("mem.gc_cycles", float64(rp.mem1.NumGC-rp.mem0.NumGC), "count", 1)
	m.set("mem.gc_pause_total_ms", float64(rp.mem1.PauseTotalNs-rp.mem0.PauseTotalNs)/1e6, "ms", int(rp.mem1.NumGC-rp.mem0.NumGC))
	m.set("mem.heap_growth_bytes", float64(rp.heap-rp.heap0), "B", 1)
	m.set("mem.heap_bytes_per_call", pr.heapPerCall, "B", w.resident)

	// gen: the generator alone, against a sink that retires at once.
	genNs := generatorCost(w, pr, seed, slice*4)
	m.set("gen.ns_per_pkt", genNs, "ns", 1)
	m.set("gen.late_share", lateShare(pc), "ratio", pc.batches)
	m.set("gen.max_lag_us", float64(pc.maxLag)/1e3, "us", pc.late)
	m.set("gen.stolen_share", float64(pc.stolen)/float64(pc.end.t-pc.base.t), "ratio", 1)

	// trace: what the span recording itself cost the packets it watched.
	u50, u99, upct, un := sojournOf(pc.rec)
	t50, _, _, tn := sojournOf(tr.rec)
	if u50 > 0 {
		m.set("trace.overhead_share", t50/u50-1, "ratio", tn)
	} else {
		m.set("trace.overhead_share", 0, "ratio", 0)
	}
	m.set("trace.spans", float64(tr.rec.nSpans+len(tr.rec.alertSpans)), "count", 1)
	m["engine.sojourn_p99_us"] = metric{Value: u99, Unit: "us", Samples: un, Pct: upct * 100}

	// budget: the isolated per-class costs, weighted by the paced phase's
	// class counts, against the CPU that phase spent outside the
	// producer's spin. The Ingest times are taken at the paced rate, where
	// Ingest never waits for queue room, so they are held against the
	// paced phase's CPU and not the closed loop's.
	rtpN := float64(pc.end.rtp() - pc.base.rtp())
	hits := float64(pc.end.st.FastpathHits - pc.base.st.FastpathHits)
	sipN := float64(pc.end.sip() - pc.base.sip())
	rtcpN := float64(pc.end.emitted[kSR] + pc.end.emitted[kRTCPBye] - pc.base.emitted[kSR] - pc.base.emitted[kRTCPBye])
	if hitNs == nil {
		ingHit = liteNs // no hit observed: the class is empty anyway
	}
	sum := sipN*(ingSIP+procSIP) + hits*ingHit + (rtpN-hits)*(ingEsc+procRTP) + rtcpN*(ingEsc+rtcpNs)
	total := sipN + rtpN + rtcpN
	perPkt := sum / total
	m.set("budget.sum_ns_per_pkt", perPkt, "ns", int(total))
	pacedCPU := float64(pc.end.cpu-pc.base.cpu-pc.spin) / float64(pc.end.accounted-pc.base.accounted)
	m.set("budget.paced_cpu_ns_per_pkt", pacedCPU, "ns", int(pc.end.accounted-pc.base.accounted))
	coverage := perPkt / (pacedCPU - genNs)
	m.set("budget.coverage", coverage, "ratio", int(total))
	if coverage < 0.9 || coverage > 1.1 {
		m.mark("budget.coverage", "outside 0.9-1.1")
	}

	if ls := lateShare(pc); ls > lateLimit {
		why := fmt.Sprintf("gen.late_share %.3f > %g", ls, lateLimit)
		for _, name := range []string{"engine.sojourn_p99_us", "engine.alert_p50_us", "engine.alert_p99_us"} {
			m.mark(name, why)
		}
	}
}

func (in *inputs) count(pred func(int) bool) int {
	n := 0
	for i := range in.pkts {
		if pred(i) {
			n++
		}
	}
	return n
}

// generatorCost times next+stamp against a sink that returns the buffer
// and the slot at once, on a fresh generator of the same seed.
func generatorCost(w *workload, pr *prepared, seed int64, budget time.Duration) float64 {
	pool := bufpool.New(bufferSize)
	g := newGen(w, pr.wire, seed, pool)
	g.expects = *pr.expects
	one := func() {
		idx, at, _ := g.next()
		g.stamp(idx, at, 1, true)
		if raw, ok := g.pkts[idx].Payload.([]byte); ok {
			pool.Put(raw)
		}
		g.release(&g.pkts[idx])
	}
	for i := 0; i < 100_000; i++ {
		one()
	}
	ns, _ := timeOp(budget, one)
	return ns
}

// writeSpans writes the traced pass as JSON lines: per watched packet a
// root span `pkt` (due -> retire) with children `ingress.ingest` (Ingest
// call -> return) and `engine.shard` (return -> retire; absent when the
// packet was retired inside Ingest), and per alert a span `alert`
// (trigger packet due -> OnAlert). Spans of one packet share its id; a
// span's self time is its duration minus its children's.
func writeSpans(out io.Writer, workload string, rec *recorder) error {
	type line struct {
		Workload string `json:"workload"`
		ID       uint64 `json:"id"`
		Name     string `json:"name"`
		Parent   string `json:"parent,omitempty"`
		Kind     string `json:"kind,omitempty"`
		Start    int64  `json:"start_ns"`
		End      int64  `json:"end_ns"`
		Self     int64  `json:"self_ns"`
	}
	enc := json.NewEncoder(out)
	for i := range rec.spans[:rec.nSpans] {
		s := &rec.spans[i]
		if s.retire == 0 {
			continue
		}
		kindName := fmt.Sprintf("kind-%d", s.k)
		if int(s.k) < len(kindNames) {
			kindName = kindNames[s.k]
		}
		ingest1 := s.ingest1.Load()
		children := ingest1 - s.ingest0
		lines := []line{{Name: "ingress.ingest", Parent: "pkt", Start: s.ingest0, End: ingest1, Self: ingest1 - s.ingest0}}
		if !s.inside {
			children += s.retire - ingest1
			lines = append(lines, line{Name: "engine.shard", Parent: "pkt", Start: ingest1, End: s.retire, Self: s.retire - ingest1})
		}
		root := line{Name: "pkt", Start: s.due, End: s.retire, Self: s.retire - s.due - children}
		for _, l := range append([]line{root}, lines...) {
			l.Workload, l.ID, l.Kind = workload, s.id, kindName
			if err := enc.Encode(l); err != nil {
				return err
			}
		}
	}
	for i, a := range rec.alertSpans {
		if err := enc.Encode(line{Workload: workload, ID: uint64(i), Name: "alert", Kind: string(a.typ),
			Start: a.due, End: a.end, Self: a.end - a.due}); err != nil {
			return err
		}
	}
	return nil
}

var kindNames = [nKinds]string{"INVITE", "180", "200-INVITE", "ACK", "BYE", "200-BYE", "REGISTER", "200-REGISTER", "malformed", "RTP", "RTCP-SR", "RTCP-BYE"}
