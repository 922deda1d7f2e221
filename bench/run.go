package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"vids/internal/engine"
	"vids/internal/ids"
	"vids/internal/ingress"
	"vids/internal/sim"
)

// workload is one seeded traffic mix and the rate its open-loop phase
// offers it at.
type workload struct {
	name string
	why  string
	rate float64 // paced phase: packets per wall second
	// sample: one packet in this many carries its due time, so every
	// workload collects on the order of 10^4 sojourn samples a second.
	sample    int
	arrival   time.Duration // virtual spacing of call starts
	poisson   bool          // exponential spacing and holds, not fixed
	meanPairs int           // mean RTP pairs per call; 0 = signaling only
	hold      time.Duration // virtual gap between a call's last packet and its BYE
	resident  int           // calls set up once that then stream until the end
	srEvery   int32         // RTP iterations between a flow's sender reports
	attacks   bool
}

// The paced rates sit at 25-40 % of what the closed-loop replay phase
// sustains on the two-core reference machine (bench/README.md), so the
// open loop runs below half utilisation and the queue stays short.
var workloads = []workload{
	{name: "sip_churn", rate: 40_000, sample: 4, arrival: 5 * ms, hold: 2 * time.Second, srEvery: 1,
		why: "signaling only: every packet pays lite-extract, handoff, full parse, EFSM steps and monitor lifecycle; the fast path does nothing"},
	{name: "media_steady", rate: 1_000_000, sample: 16, arrival: 5 * ms, meanPairs: 1, resident: 512, hold: 20 * ms, srEvery: 250,
		why: "512 armed calls of in-profile RTP, 99 % or more absorbed at ingress: extract-lite, consult and the buffer pool are the whole cost and the shard idles"},
	{name: "call_mix", rate: 200_000, sample: 16, arrival: 5 * ms, poisson: true, meanPairs: 50, hold: 20 * ms, srEvery: 80,
		why: "enterprise shape, ~93 % RTP with Poisson arrivals: flows arm and disarm per call beside the per-packet consult, producer and shard both busy"},
	{name: "attack_mix", rate: 150_000, sample: 16, arrival: 5 * ms, poisson: true, meanPairs: 50, hold: 20 * ms, srEvery: 80, attacks: true,
		why: "call_mix background plus 20 % seeded attack instances of every class and 1 % malformed SIP: the only mix where alerts fire"},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

const (
	batchSize     = 16 // the recvmmsg vector width in internal/ingress/batch_linux.go
	residentCalls = 512
	traceEvery    = 16 // the traced pass records spans for one packet in this many
	stolenGap     = 50 * time.Microsecond
	lateLimit     = 0.01 // share of batches offered late beyond which latencies are marked
)

// pipeline is the program under test as vidsd runs it, pinned: one
// producer goroutine, one lane, one shard, compiled backend, fast path
// on, Block policy. The benchmark touches it only through Ingest, Close,
// Stats, Alerts, Buffers and the two engine hooks.
type pipeline struct {
	timing
	w     *workload
	g     *gen
	ing   *ingress.Ingress
	epoch time.Time
	rec   *recorder // the running paced phase; nil outside one
	learn bool      // verify phase: alerts are compared afterwards, not booked

	offered  uint64
	refused  uint64
	matched  int
	repeats  int         // alerts an instance raised again, as the reference does when a sweep forgets its stream
	spurious []ids.Alert // first few, for the failure message
	nSpur    int
	spanOf   [maxPackets]int32
}

// timing is the length of a phase's discarded warm-up and of each of its
// measurement windows. The closed loop's windows are short and many, for
// the trimmed mean over them; the open loop's are long enough to hold a
// p99 each.
type timing struct {
	warmup, replayWindow, pacedWindow time.Duration
}

func newPipeline(w *workload, wr *wire, seed int64, tm timing, expects *[nClasses][]expect) *pipeline {
	p := &pipeline{timing: tm, w: w, epoch: time.Now(), learn: expects == nil}
	p.ing = ingress.New(ingress.Config{
		Lanes:      1,
		BufferSize: bufferSize,
		Engine: engine.Config{
			Shards:   1,
			Policy:   engine.Block,
			IDS:      ids.DefaultConfig(),
			OnAlert:  p.onAlert,
			OnRetire: p.onRetire,
		},
	})
	p.g = newGen(w, wr, seed, p.ing.Buffers())
	if expects != nil {
		p.g.expects = *expects
	}
	return p
}

// clock is wall nanoseconds since the pipeline was built; never 0.
func (p *pipeline) clock() int64 { return int64(time.Since(p.epoch)) + 1 }

func (p *pipeline) onRetire(pkt *sim.Packet) {
	if due := dueOf(pkt); due != 0 {
		if r := p.rec; r != nil {
			// Look before reading the clock: a packet seen outside
			// Ingest then has a retire time after Ingest's return.
			var s *span
			if r.spans != nil {
				s = &r.spans[p.spanOf[int64(pkt.SentAt)&idxMask]]
				s.inside = s.ingest1.Load() == 0
			}
			now := p.clock()
			r.sojourn(due, now)
			if s != nil {
				s.retire = now
			}
		}
	}
	p.g.release(pkt)
}

// onAlert runs serialized by the engine, on the shard worker or inside
// Ingest.
func (p *pipeline) onAlert(a ids.Alert) {
	now := p.clock()
	if p.learn {
		return
	}
	var due int64
	verdict := spurious
	if p.w.attacks {
		due, verdict = p.g.match(a)
	}
	switch verdict {
	case repeated:
		p.repeats++
		return
	case spurious:
		p.nSpur++
		if len(p.spurious) < 5 {
			p.spurious = append(p.spurious, a)
		}
		return
	}
	p.matched++
	if r := p.rec; r != nil && due >= r.start {
		r.alerts.add(now - due)
		if r.spans != nil {
			r.alertSpan(due, now, a.Type)
		}
	}
}

// send offers the stream's next packet. due is the wall time the packet
// was scheduled for (0 in closed-loop phases); timed says whether the
// packet itself carries it for the sojourn measurement.
func (p *pipeline) send(due int64, timed bool) bool {
	idx, at, ok := p.g.next()
	if ok {
		p.g.stamp(idx, at, due, timed)
		p.offer(idx, at)
	}
	return ok
}

func (p *pipeline) offer(idx int32, at time.Duration) {
	p.offered++
	if err := p.ing.Ingest(&p.g.pkts[idx], at); err != nil {
		// The tier refused the packet and left the buffer with us.
		p.refused++
		if raw, ok := p.g.pkts[idx].Payload.([]byte); ok {
			p.ing.Buffers().Put(raw)
		}
		p.g.release(&p.g.pkts[idx])
	}
}

// quiesce waits until every offered packet has been retired.
func (p *pipeline) quiesce() {
	for p.g.inFlight() > 0 {
		runtime.Gosched()
	}
}

// feedDrained offers packets a batch at a time, waiting each batch out,
// until done reports true: every flow sees its packets one at a time, so
// the arm handshake succeeds on the first clean packet.
func (p *pipeline) feedDrained(done func() bool) {
	for !done() {
		for i := 0; i < batchSize; i++ {
			if !p.send(0, false) {
				p.quiesce()
				return
			}
		}
		p.quiesce()
	}
}

// prefill brings a resident-call workload to steady state: every call
// set up and ten more RTP iterations behind it.
func (p *pipeline) prefill() {
	if p.w.resident == 0 {
		return
	}
	p.feedDrained(func() bool { return p.g.started == p.w.resident })
	target := p.g.emitted[kRTP] + uint64(20*p.w.resident)
	p.feedDrained(func() bool { return p.g.emitted[kRTP] >= target })
}

// census is one reading of the program's own counters.
type census struct {
	t         int64
	cpu       int64
	accounted uint64
	st        engine.Stats
	emitted   [nKinds]uint64
	gets      uint64
	misses    uint64
}

func (p *pipeline) census() census {
	st := p.ing.Stats()
	gets, misses, _ := p.ing.Buffers().Stats()
	return census{
		t: p.clock(), cpu: cpuNanos(), st: st,
		accounted: st.Processed + st.Absorbed + st.Ignored + st.ParseErrors + st.Dropped,
		emitted:   p.g.emitted, gets: gets, misses: misses,
	}
}

func (c census) rtp() uint64 { return c.emitted[kRTP] }

func (c census) sip() uint64 {
	var n uint64
	for k := kInvite; k < kRTP; k++ {
		n += c.emitted[k]
	}
	return n
}

func hitShare(a, b census) float64 {
	if b.rtp() == a.rtp() {
		return 0
	}
	return float64(b.st.FastpathHits-a.st.FastpathHits) / float64(b.rtp()-a.rtp())
}

// replayResult is what the closed-loop phase measured.
type replayResult struct {
	pps, cpu    []float64 // per window
	base, end   census
	mem0, mem1  runtime.MemStats
	heap0, heap int64 // after-GC heap at the end of warm-up and of the phase
}

// replay offers packets back to back, as vids -replay and vidsd -pace 0
// do, for a warm-up and then n windows.
func (p *pipeline) replay(n int) replayResult {
	var r replayResult
	measureFrom := p.clock() + int64(p.warmup)
	var win census
	var winEnd int64
	for started := false; ; {
		for i := 0; i < batchSize; i++ {
			p.send(0, false)
		}
		now := p.clock()
		switch {
		case !started && now >= measureFrom:
			started = true
			r.heap0 = int64(heapAfterGC())
			runtime.ReadMemStats(&r.mem0)
			r.base = p.census()
			win, winEnd = r.base, r.base.t+int64(p.replayWindow)
		case started && now >= winEnd:
			c := p.census()
			pkts := float64(c.accounted - win.accounted)
			r.pps = append(r.pps, pkts/float64(c.t-win.t)*1e9)
			r.cpu = append(r.cpu, float64(c.cpu-win.cpu)/pkts)
			win, winEnd = c, winEnd+int64(p.replayWindow)
		}
		if len(r.pps) == n {
			break
		}
	}
	r.end = win
	runtime.ReadMemStats(&r.mem1)
	p.quiesce()
	r.heap = int64(heapAfterGC())
	return r
}

// span is the traced record of one packet: due -> Ingest call -> Ingest
// return -> retire. The retire hook writes retire and inside: whether,
// when it ran, the producer had not yet seen Ingest return.
type span struct {
	id      uint64
	k       kind
	due     int64
	ingest0 int64
	ingest1 atomic.Int64
	retire  int64
	inside  bool
}

type alertSpan struct {
	typ      ids.AlertType
	due, end int64
}

// recorder collects what a paced phase measures.
type recorder struct {
	start  int64     // wall time the first measured window opens
	window int64     // length of one window
	win    []*series // sojourn samples per window
	alerts *series   // wire-to-alert latencies of the whole phase

	spans      []span // traced pass only
	nSpans     int
	alertSpans []alertSpan
}

func (r *recorder) sojourn(due, now int64) {
	if i := (due - r.start) / r.window; due >= r.start && int(i) < len(r.win) {
		r.win[i].add(now - due)
	}
}

func (r *recorder) alertSpan(due, now int64, typ ids.AlertType) {
	if len(r.alertSpans) < cap(r.alertSpans) {
		r.alertSpans = append(r.alertSpans, alertSpan{typ: typ, due: due, end: now})
	}
}

// pacedResult is what the open-loop phase measured.
type pacedResult struct {
	rec        *recorder
	base, end  census
	batches    int
	late       int
	maxLag     int64
	spin       int64 // ns the producer spent waiting for due times
	stolen     int64 // ns of that it visibly lost its CPU
	depthSum   int64
	depthMax   int
	depthPolls int
}

// paced offers batches of batchSize packets on a fixed schedule at the
// workload's rate: the producer spins to each batch's due time, every
// packet of the batch is timed from that due time rather than from when
// it was sent, and a batch that starts more than one batch interval
// behind schedule counts as late.
func (p *pipeline) paced(n int, traced bool) pacedResult {
	interval := float64(batchSize) / p.w.rate * 1e9
	perWindow := int(p.w.rate*p.pacedWindow.Seconds()/float64(p.w.sample)*1.5) + 1024
	rec := &recorder{alerts: newSeries(1 << 16), window: int64(p.pacedWindow)}
	for i := 0; i < n; i++ {
		rec.win = append(rec.win, newSeries(perWindow))
	}
	every := p.w.sample
	if traced {
		every = traceEvery
		rec.spans = make([]span, int(p.w.rate*p.pacedWindow.Seconds()/traceEvery*1.2)*n+1024)
		rec.alertSpans = make([]alertSpan, 0, 1<<16)
	}
	pollEvery := int(p.w.rate/batchSize/2000) + 1

	res := pacedResult{rec: rec}
	t0 := p.clock() + int64(ms)
	rec.start = t0 + int64(p.warmup)
	end := rec.start + int64(n)*int64(p.pacedWindow)
	p.rec = rec
	var sent uint64
	for k, started := 0, false; ; k++ {
		due := t0 + int64(float64(k)*interval)
		if due >= end {
			break
		}
		measured := due >= rec.start
		if measured && !started {
			started = true
			res.base = p.census()
		}
		now := p.clock()
		for now < due {
			// Two clock reads in a row are tens of nanoseconds apart
			// unless the producer lost its CPU in between.
			next := p.clock()
			if measured {
				if next-now > int64(stolenGap) {
					res.stolen += next - now
				} else {
					res.spin += next - now
				}
			}
			now = next
		}
		if measured {
			res.batches++
			if lag := now - due; lag > int64(interval) {
				res.late++
				if lag > res.maxLag {
					res.maxLag = lag
				}
			}
			if traced && k%pollEvery == 0 {
				d := p.ing.Stats().Shards[0].Depth
				res.depthSum += int64(d)
				res.depthPolls++
				if d > res.depthMax {
					res.depthMax = d
				}
			}
		}
		for i := 0; i < batchSize; i++ {
			timed := measured && i%every == k%every
			if !(traced && timed) || rec.nSpans == len(rec.spans) {
				p.send(due, timed)
				continue
			}
			idx, at, _ := p.g.next()
			p.g.stamp(idx, at, due, true)
			s := &rec.spans[rec.nSpans]
			p.spanOf[idx] = int32(rec.nSpans)
			rec.nSpans++
			s.id, s.k, s.due = sent+uint64(i), p.g.lastKind, due
			s.ingest0 = p.clock()
			p.offer(idx, at)
			s.ingest1.Store(p.clock())
		}
		sent += batchSize
	}
	p.quiesce()
	res.end = p.census()
	p.rec = nil
	return res
}

// finish lets the live calls hang up, closes the pipeline and returns
// the final census with the number of operations that failed.
func (p *pipeline) finish() (st engine.Stats, failed uint64, why []string) {
	p.g.drain()
	for p.send(0, false) {
	}
	p.quiesce()
	if err := p.ing.Close(); err != nil {
		why = append(why, fmt.Sprintf("close: %v", err))
		failed++
	}
	st = p.ing.Stats()
	fail := func(n uint64, format string, args ...any) {
		if n != 0 {
			failed += n
			why = append(why, fmt.Sprintf(format, args...))
		}
	}
	absDiff := func(a, b uint64) uint64 {
		if a > b {
			return a - b
		}
		return b - a
	}
	accounted := st.Processed + st.Dropped + st.Absorbed + st.Ignored + st.ParseErrors
	fail(p.refused, "%d packets refused by Ingest", p.refused)
	fail(absDiff(st.Ingested, p.offered-p.refused), "offered %d packets, ingested %d", p.offered-p.refused, st.Ingested)
	fail(absDiff(st.Ingested, accounted), "ingested %d != processed %d + dropped %d + absorbed %d + ignored %d + parse errors %d",
		st.Ingested, st.Processed, st.Dropped, st.Absorbed, st.Ignored, st.ParseErrors)
	fail(st.Dropped, "%d packets dropped under the Block policy", st.Dropped)
	fail(absDiff(st.ParseErrors, p.g.emitted[kMalformed]), "%d parse errors for %d malformed datagrams injected", st.ParseErrors, p.g.emitted[kMalformed])
	if !p.learn {
		missed := uint64(p.g.expected - p.matched)
		fail(missed, "%d of %d expected alerts missed", missed, p.g.expected)
		fail(uint64(p.nSpur), "%d spurious alerts, first: %v", p.nSpur, p.spurious)
	}
	return st, failed, why
}
