// Package engine is the shard tier of the online vids pipeline: N
// concurrent detection workers wrapping the per-call machinery of
// internal/ids, fed by the ingestion lanes of internal/ingress.
//
// The paper argues vids scales because per-call EFSM pairs are
// independent (Section 7.3): one call's SIP machine, its two RTP
// machines and the δ channels between them never touch another call's
// state. The engine exploits exactly that independence. It owns N
// shards, each with its own ids.IDS fact base on its own virtual
// clock behind a bounded ring with a backpressure policy (Block,
// DropOldest, Shed). The tier in front decides which shard owns a
// packet — SIP by FNV hash of the Call-ID (ShardIndexFor*), media
// through the flow table the engine builds for it (Fastpath) — and
// hands it over with EnqueueSIP, EnqueueMedia or EnqueueRaw. Both
// machines of a call and their δ channels therefore always live on one
// shard, and a shard analyzes its packets without taking any
// cross-shard lock.
//
// Who steps a shard's detector depends on its traffic. Each shard has
// a worker goroutine that drains its ring, and on a signaling-heavy
// shard the worker does every step, so the producer and the detector
// run on two cores. But on RTP-dominated traffic, the kind §7.3 costs
// the inline IDS on, the flow table absorbs most packets at ingress
// and the shard sees a trickle: waking a parked worker for each item
// would cost more than the step. Under Block, a shard whose traffic
// the fast path mostly absorbs, and which is not raising alerts, is
// therefore stepped by the producer itself, on the Enqueue* (and so
// the ingress Ingest) caller's goroutine, whenever nothing is queued
// or running ahead of the item (see Block). Either way one goroutine
// at a time steps a detector, in the order the items reached the shard.
//
// The engine routes nothing itself and holds no cross-call detector.
// The per-destination INVITE flood (Figure 4) and the DRDoS
// response-reflection counter deliberately spread over many Call-IDs,
// so they run on the ingestion lanes, and every shard is configured
// with ExternalFloods so its local copies stay silent. What the engine
// keeps beside the workers is the flow table and its call registry,
// whose flows and call records each worker's detector arms, disarms,
// closes and forgets (ids.IDS.Flows), and the shared
// alert-and-census plane: the lanes report their alerts through
// RecordAlert and their dispositions through the Note* counters, so
// Alerts and Stats cover the whole pipeline. Engine.mu guards only the
// log of lane-raised alerts.
package engine

import (
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vids/internal/fastpath"
	"vids/internal/ids"
	"vids/internal/sim"
	"vids/internal/sipmsg"
)

// Policy selects the backpressure behavior when a shard's queue is
// full.
type Policy int

const (
	// Block makes the producer wait for queue space: lossless, the
	// right policy for trace replay where input pacing is elastic. It
	// also holds a producer back per media flow: an escalated RTP packet
	// whose flow already has an escalated packet queued on the same
	// shard waits until that packet retires. A flow's escalations then
	// reach the worker one at a time, and the flow arms on one of them:
	// under every policy the detector arms a flow only from an escalated
	// packet that is alone in flight (Flow.Alone), so a producer far
	// ahead of the worker would otherwise keep two packets of most flows
	// queued and leave them unarmed. The wait never touches SIP,
	// unrouted media or a packet another shard holds, and it is off while
	// DisableFastpath is set: with no arming it would buy nothing.
	//
	// Block also lets a producer step an item itself instead of waking
	// the worker. The engine weighs each shard over windows of
	// inlineWindow handed items: while the fast path absorbed more
	// packets on the shard's behalf in the last window than were handed
	// to it and the window raised no alert, an item that finds the ring
	// empty and no batch or other inline step running is stepped to
	// completion on the producer (clock advance, detector, flow
	// release, OnRetire) before Enqueue* returns. A shard starts on the
	// worker path; signaling-dominated shards and shards raising alerts
	// stay there and keep the second core, and DisableFastpath (which
	// absorbs nothing) never steps inline. ShardStats.Inline counts the
	// inline steps.
	Block Policy = iota
	// DropOldest evicts the oldest queued packet to admit the newest,
	// counting the eviction in the shard's drop counter: the right
	// policy for live capture, where blocking the reader loses packets
	// in the kernel instead — invisibly.
	DropOldest
	// Shed is tiered overload shedding for live capture under attack:
	// when a shard queue fills, media is sacrificed before signaling.
	// An arriving RTP/RTCP packet is dropped on the floor; an arriving
	// SIP packet evicts the oldest queued media packet instead (falling
	// back to the oldest signaling packet only when the whole ring is
	// signaling). A media flood therefore cannot starve the SIP stream
	// the detectors need most — losing an RTP packet costs a little
	// media-plane sensitivity, losing an INVITE or BYE loses call state
	// the monitors never recover.
	Shed
)

func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case DropOldest:
		return "drop-oldest"
	case Shed:
		return "shed-media-first"
	default:
		return "policy(?)"
	}
}

// Config parameterizes an Engine.
type Config struct {
	// Shards is the number of detection workers. Zero or negative
	// means GOMAXPROCS.
	Shards int
	// QueueDepth bounds each shard's pending-packet queue. Zero or
	// negative means 1024.
	QueueDepth int
	// Policy selects what Enqueue* does when a shard queue is full.
	Policy Policy
	// IDS configures each shard's detector instance. The zero value
	// means ids.DefaultConfig(). ExternalFloods is forced on: the
	// cross-call flood windows run on the ingestion lanes.
	IDS ids.Config
	// DisableFastpath turns off absorption (the -fastpath=false escape
	// hatch): the flow table is still built and still routes every media
	// packet, but the shards never arm a flow, so every RTP packet takes
	// the full shard path. The zero value keeps absorption on.
	DisableFastpath bool
	// OnAlert, when set, observes every alert as it is raised. The
	// engine serializes the calls (alerts originate on shard workers,
	// on producers stepping a shard inline under Block, and on
	// ingestion lanes, but never overlap), so an unsynchronized writer
	// is fine. It may therefore run on any goroutine, the Ingest
	// caller's included, and must not call back into the pipeline's
	// Ingest or Close.
	OnAlert func(ids.Alert)
	// OnRetire, when set, observes every enqueued packet exactly once
	// after the engine is finished with it — analyzed by a shard,
	// counted there as a parse error, or evicted under DropOldest/Shed.
	// (The ingress tier chains the same hook for the packets it disposes
	// of itself.) Live sources use it to return receive buffers to a
	// bufpool free list. It may run on any goroutine — a shard worker,
	// or the Ingest caller's own when Block steps the packet inline, in
	// which case it fires before that Ingest returns — is never invoked
	// under an engine lock, and must not call back into Ingest or Close.
	OnRetire func(*sim.Packet)
}

// ErrClosed is returned by Enqueue* after Close has begun.
var ErrClosed = errors.New("engine: closed")

// item is one unit of shard work: a packet, its capture timestamp,
// and — for SIP the ingress lane routed — that lane's scan when it has
// one (by value: a View is a handful of offsets into the packet's own
// buffer), the flow the lane installed for its SDP, which the detector
// keeps as the call's handle on it (no reference is pinned), and the
// call's registry record. Media escalated
// by the fast-path cache additionally carries its flow's in-flight
// reference, the epoch its arm offer must match, and — for the first
// packet after a stretch of absorption — the resync snapshot the
// worker applies before delivery.
type item struct {
	pkt *sim.Packet
	at  time.Duration

	view    sipmsg.View
	hasView bool
	sdpFlow *fastpath.Flow
	call    *fastpath.Call
	// opens marks the INVITE that opened call at ingress: dropping it
	// unadopted abandons the record.
	opens bool

	fpFlow    *fastpath.Flow
	fpEpoch   uint64
	fpSnap    fastpath.Snapshot
	fpHasSnap bool
	// fpHeld marks the item holding its flow on this shard (see
	// Block): the worker lets go of the flow when it retires the item.
	fpHeld bool
}

// shard is one detector: a bounded ring of pending items feeding an
// ids.IDS on its own virtual clock, stepped by one goroutine at a
// time — the shard's worker, or under Block a producer stepping inline.
//
// The lane→worker handoff is batched: producers append single items
// to the ring under the shard mutex, but the worker detaches the
// whole backlog in one critical section and analyzes it outside the
// lock, so a busy shard pays one synchronization round-trip per batch
// rather than one channel send/receive per packet. FIFO order is the
// ring order, which is the mutex acquisition order — exactly the
// ordering the old per-item channel gave — so the sequential-parity
// guarantee is untouched. An inline step keeps that order: a producer
// claims busy under the mutex only when the ring is empty and nothing
// is being stepped, so no queued or detached item is behind it, and
// every item that arrives during the step queues behind it for the
// worker.
type shard struct {
	idx  int
	sim  *sim.Simulator
	ids  *ids.IDS
	done chan struct{}
	// absorb is absorption on (DisableFastpath unset): the worker hands
	// each escalated packet's flow to the detector, which may arm it,
	// and Block holds a producer back per flow.
	absorb bool

	// parseErrs aliases the engine's parse-error counter: raw SIP
	// handed over by the ingress tier is parsed here on the worker,
	// and a failure is pipeline accounting, not shard accounting.
	// absorbed aliases the engine's absorbed counter the same way: a
	// response a lane handed on with its call's record, which the
	// detector then consumed without reaching a machine (the call closed
	// before the shard got to the response), is absorbed, as the lane
	// would have counted it had the shard been caught up.
	parseErrs *atomic.Uint64
	absorbed  *atomic.Uint64
	// retire is Config.OnRetire (nil when unset), invoked outside the
	// queue lock for every packet this shard consumes or evicts.
	retire func(*sim.Packet)

	mu      sync.Mutex
	ready   *sync.Cond // work arrived, a step finished, or closing
	space   *sync.Cond // ring slots freed (Block producers wait here)
	retired *sync.Cond // held flows let go (Block's per-flow waiters wait here)
	waiting int        // producers waiting on retired
	buf     []item     // ring storage, len == QueueDepth
	head    int        // index of the oldest queued item
	n       int        // queued count
	closing bool
	batch   []item // worker-owned detach buffer, reused every pickup
	// busy is set while the worker runs a detached batch or a producer
	// runs an inline step: the detector has exactly one stepper.
	busy bool
	// inline, handed, hitsMark and alertMark are Block's path
	// selection: handed counts the items handed to the shard in the
	// current window of inlineWindow, hitsMark and alertMark are fpHits
	// and alerts when it opened, and inline is the verdict of the last
	// closed window.
	inline    bool
	handed    int
	hitsMark  uint64
	alertMark uint64

	queued     atomic.Int64 // mirrors n for lock-free Stats
	processed  atomic.Uint64
	dropped    atomic.Uint64
	shedMedia  atomic.Uint64 // Shed evictions that hit media
	shedSignal atomic.Uint64 // Shed evictions that had to hit signaling
	fpHits     atomic.Uint64 // packets the fast path absorbed on this shard's behalf
	inlined    atomic.Uint64 // items a producer stepped itself
	alerts     atomic.Uint64
}

// inlineWindow is the number of items handed to a shard over which
// Block weighs its two paths. It spans several calls' setup bursts (a
// handful of SIP messages and the escalations that arm their flows
// each), so call churn alone does not flip a media shard back to the
// worker, and a shard still turns to the worker within 64 packets of a
// signaling storm starting.
const inlineWindow = 64

// Engine is the shard tier of the online detection pipeline. Create
// instances with New; the zero value is not usable.
type Engine struct {
	cfg    Config
	shards []*shard

	// fp is the media flow table the ingress tier routes and validates
	// RTP against before shard enqueue.
	fp *fastpath.Cache

	// mu guards fwAlerts, the log of alerts the ingestion lanes raised
	// (RecordAlert); shard alerts live in each worker's own fact base.
	mu       sync.Mutex
	fwAlerts []ids.Alert

	ingested    atomic.Uint64
	parseErrors atomic.Uint64
	absorbed    atomic.Uint64 // responses the ingress tier consumed, at a lane or on its behalf at a shard
	ignored     atomic.Uint64 // non-VoIP packets
	alertCount  atomic.Uint64

	closed   atomic.Bool
	ingestWG sync.WaitGroup // in-flight Enqueue* calls, so Close never races a queue send
	start    time.Time

	// cbMu serializes cfg.OnAlert delivery across shard workers and
	// the ingestion lanes. Never held together with mu.
	cbMu sync.Mutex
}

// New creates an engine and starts its shard workers. The caller must
// Close it to drain the queues and release the workers.
func New(cfg Config) *Engine {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.IDS == (ids.Config{}) {
		cfg.IDS = ids.DefaultConfig()
	}
	cfg.IDS.ExternalFloods = true

	e := &Engine{
		cfg:   cfg,
		start: time.Now(), //vidslint:allow wallclock — uptime display only
		fp: fastpath.New(fastpath.Config{
			SeqGap:      cfg.IDS.RTP.SeqGap,
			TSGap:       cfg.IDS.RTP.TSGap,
			RateWindow:  cfg.IDS.RTP.RateWindow,
			RatePackets: cfg.IDS.RTP.RatePackets,
		}),
	}
	e.shards = make([]*shard, cfg.Shards)
	for i := range e.shards {
		s := sim.New(int64(i) + 1)
		sh := &shard{
			idx:       i,
			absorb:    !cfg.DisableFastpath,
			sim:       s,
			ids:       ids.New(s, cfg.IDS),
			done:      make(chan struct{}),
			parseErrs: &e.parseErrors,
			absorbed:  &e.absorbed,
			retire:    cfg.OnRetire,
			buf:       make([]item, cfg.QueueDepth),
			batch:     make([]item, 0, cfg.QueueDepth),
		}
		sh.ready = sync.NewCond(&sh.mu)
		sh.space = sync.NewCond(&sh.mu)
		sh.retired = sync.NewCond(&sh.mu)
		sh.ids.OnAlert = func(a ids.Alert) {
			sh.alerts.Add(1)
			e.alertCount.Add(1)
			e.deliver(a)
		}
		sh.ids.Flows = e.fp
		e.shards[i] = sh
		go sh.run()
	}
	return e
}

// Fastpath exposes the media flow table to the ingress tier. It is
// never nil: with DisableFastpath set it routes without absorbing.
func (e *Engine) Fastpath() *fastpath.Cache { return e.fp }

// deliver hands an alert to the user's OnAlert callback, serializing
// across the shard workers and the ingestion lanes so the callback
// never runs concurrently with itself.
func (e *Engine) deliver(a ids.Alert) {
	if e.cfg.OnAlert == nil {
		return
	}
	e.cbMu.Lock()
	defer e.cbMu.Unlock()
	e.cfg.OnAlert(a)
}

// run is the shard worker loop: detach the whole pending backlog in
// one critical section, then step each item outside the lock, in ring
// order. The worker waits while a producer runs an inline step, and a
// batch that let go of held flows wakes Block's per-flow waiters at
// the next pickup. When the shard closes, the worker drains what
// remains and runs the outstanding timers to completion so
// grace-window alerts (Figure 5 timer T, the RTCP BYE window) still
// fire.
func (sh *shard) run() {
	defer close(sh.done)
	detached, unheld := false, false
	for {
		sh.mu.Lock()
		if detached {
			sh.busy = false
		}
		if unheld && sh.waiting > 0 {
			sh.retired.Broadcast()
		}
		detached, unheld = false, false
		for (sh.n == 0 || sh.busy) && !sh.closing {
			sh.ready.Wait()
		}
		if sh.n == 0 {
			sh.mu.Unlock()
			break
		}
		batch := sh.batch[:0]
		for sh.n > 0 {
			batch = append(batch, sh.buf[sh.head])
			sh.buf[sh.head] = item{} // drop packet references
			sh.head = (sh.head + 1) % len(sh.buf)
			sh.n--
		}
		sh.busy, detached = true, true
		sh.queued.Store(0)
		sh.space.Broadcast()
		sh.mu.Unlock()

		for i := range batch {
			if sh.step(&batch[i]) {
				unheld = true
			}
		}
		sh.batch = batch[:0]
	}
	_ = sh.sim.RunAll()
}

// step analyzes one item and retires it: advance the shard clock to
// the packet's capture time (firing due timers first, exactly as a
// sequential replay would), run the detector, drop the flow reference
// and hand the packet to the retire hook. The worker and an inline
// producer share it; busy guarantees one of them at a time. It reports
// whether the item let go of a held flow.
func (sh *shard) step(it *item) (unheld bool) {
	_ = sh.sim.RunUntil(it.at)
	switch {
	case it.hasView:
		// Ingress path: the lane scanned the datagram once and the
		// detector reads that scan; nothing is parsed here.
		sh.countSIP(it, sh.ids.ProcessSIPView(&it.view, it.pkt, it.sdpFlow, it.call))
	case it.pkt.Proto == sim.ProtoSIP:
		// A datagram the lane's scanner would not commit to (it parsed
		// cleanly there, on the cold path) or one handed to EnqueueRaw
		// directly: the full parser reads it.
		if raw, ok := it.pkt.Payload.([]byte); ok {
			if m, err := sipmsg.Parse(raw); err == nil {
				sh.countSIP(it, sh.ids.ProcessSIPRouted(m, it.pkt, it.sdpFlow, it.call))
			} else {
				sh.parseErrs.Add(1)
			}
		} else {
			sh.parseErrs.Add(1)
		}
	default:
		flow := it.fpFlow
		if !sh.absorb {
			flow = nil // no arming context: nothing arms
		}
		// The first packet after a stretch of absorption carries the
		// window the table absorbed on the machine's behalf.
		var snap *fastpath.Snapshot
		if it.fpHasSnap {
			snap = &it.fpSnap
		}
		sh.ids.ProcessMedia(it.pkt, flow, it.fpEpoch, snap)
		sh.processed.Add(1)
	}
	if it.fpFlow != nil {
		if it.fpHeld {
			it.fpFlow.Unhold()
			unheld = true
		}
		it.fpFlow.Release()
	}
	sh.retirePkt(it.pkt)
	*it = item{}
	return unheld
}

// countSIP accounts one SIP datagram the detector took: processed, or
// absorbed when a lane routed it on its call's record and it was a
// response no machine saw.
func (sh *shard) countSIP(it *item, absorbed bool) {
	if absorbed && it.call != nil {
		sh.absorbed.Add(1)
	} else {
		sh.processed.Add(1)
	}
}

// retirePkt hands a packet the shard is finished with to the retire
// hook, outside the queue lock.
func (sh *shard) retirePkt(pkt *sim.Packet) {
	if sh.retire != nil {
		sh.retire(pkt) //vids:alloc-ok retire hook recycles pooled receive buffers; nil in replay
	}
}

// selectInline counts one item handed to the shard under Block and
// reports whether its producer steps it on the spot. Every
// inlineWindow items the window closes: the shard runs inline while
// the fast path absorbed more packets on its behalf in the last window
// than were handed to it, so the detector sees fewer than half of the
// shard's packets and the worker would mostly be woken for one item,
// and while the last window raised no alert. A shard raising alerts is
// analyzing an attack: its steps render alerts and run OnAlert, and
// like a signaling storm it keeps the worker and so a second core.
// Even inline, the producer steps only an item nothing is ahead of:
// the ring is empty and no batch or other inline step is running. A
// signaling-heavy shard, or one under DisableFastpath (which never
// absorbs), stays on the worker. Caller holds sh.mu.
func (sh *shard) selectInline() bool {
	sh.handed++
	if sh.handed == inlineWindow {
		hits, alerts := sh.fpHits.Load(), sh.alerts.Load()
		sh.inline = hits-sh.hitsMark > inlineWindow && alerts == sh.alertMark
		sh.hitsMark, sh.alertMark, sh.handed = hits, alerts, 0
	}
	return sh.inline && sh.n == 0 && !sh.busy
}

// stepInline runs one item on the producer, holding busy instead of
// the lock, and then hands the shard back to the worker if items
// queued up behind the step. An inline item takes no per-flow hold:
// it retires before its producer consults the flow again.
func (sh *shard) stepInline(it *item) {
	sh.inlined.Add(1)
	sh.step(it)
	sh.mu.Lock()
	sh.busy = false
	if sh.n > 0 {
		sh.ready.Signal()
	}
	sh.mu.Unlock()
}

// enqueue hands one item to the shard. Under Block a producer may step
// the item itself (selectInline); otherwise it is appended to the
// ring, applying the backpressure policy when the ring is full: Block
// waits for the worker to detach a batch; DropOldest advances the ring
// head past the oldest queued item, counting the eviction; Shed
// sacrifices media before signaling (see the Policy docs). Under Block
// with absorption on, an escalated media packet also waits while this
// shard holds its flow.
// Items the worker has already detached are beyond eviction — the
// same property the old channel had once a packet was received.
// Victims are retired outside the queue lock: the retire hook is user
// code and must never run while producers are parked on the condition
// variable.
func (sh *shard) enqueue(it item, p Policy) {
	var victim *sim.Packet
	var abandon *fastpath.Call // the record an evicted INVITE opened
	admitted := true
	sh.mu.Lock()
	switch p {
	case Block:
		if sh.selectInline() {
			sh.busy = true
			sh.mu.Unlock()
			sh.stepInline(&it)
			return
		}
		for {
			if sh.n == len(sh.buf) {
				sh.space.Wait()
				continue
			}
			if it.fpFlow == nil || !sh.absorb {
				break
			}
			admit, held := it.fpFlow.Hold(sh.idx)
			if admit {
				it.fpHeld = held
				break
			}
			sh.waiting++
			sh.retired.Wait()
			sh.waiting--
		}
	case DropOldest:
		for sh.n == len(sh.buf) {
			victim, abandon = sh.buf[sh.head].pkt, sh.buf[sh.head].opened()
			if f := sh.buf[sh.head].fpFlow; f != nil {
				f.Release()
			}
			sh.buf[sh.head] = item{}
			sh.head = (sh.head + 1) % len(sh.buf)
			sh.n--
			sh.dropped.Add(1)
			sh.queued.Add(-1)
		}
	case Shed:
		if sh.n == len(sh.buf) {
			if isMedia(it.pkt) {
				// Tier 1: an arriving media packet yields to whatever
				// is already queued.
				admitted = false
				sh.dropped.Add(1)
				sh.shedMedia.Add(1)
				if it.fpFlow != nil {
					it.fpFlow.Release()
				}
			} else {
				victim, abandon = sh.evictForSignaling()
			}
		}
	}
	if admitted {
		sh.buf[(sh.head+sh.n)%len(sh.buf)] = it
		sh.n++
		sh.queued.Add(1)
		if sh.n == 1 {
			sh.ready.Signal()
		}
	}
	sh.mu.Unlock()
	if abandon != nil {
		// Outside the queue lock, like the retire: unless a detector has
		// adopted the record meanwhile, it leaves the registry.
		sh.ids.Flows.Abandon(abandon)
	}
	if victim != nil {
		sh.retirePkt(victim)
	}
	if !admitted {
		sh.retirePkt(it.pkt)
	}
}

// opened is the call record the item's INVITE opened at ingress, nil
// for any other item.
func (it *item) opened() *fastpath.Call {
	if it.opens {
		return it.call
	}
	return nil
}

// evictForSignaling makes room for an arriving SIP packet under Shed:
// the oldest queued media packet goes first, and only a ring full of
// signaling sacrifices its own oldest entry. Caller holds sh.mu; the
// evicted packet, and the record it opened if any, are returned for
// disposal outside the lock.
func (sh *shard) evictForSignaling() (*sim.Packet, *fastpath.Call) {
	n := len(sh.buf)
	at := -1
	for j := 0; j < sh.n; j++ {
		if isMedia(sh.buf[(sh.head+j)%n].pkt) {
			at = j
			break
		}
	}
	if at < 0 {
		// Tier 2: all signaling — the oldest entry is the least
		// valuable (its dialog state is most likely already built).
		victim, opened := sh.buf[sh.head].pkt, sh.buf[sh.head].opened()
		sh.buf[sh.head] = item{}
		sh.head = (sh.head + 1) % n
		sh.n--
		sh.dropped.Add(1)
		sh.shedSignal.Add(1)
		sh.queued.Add(-1)
		return victim, opened
	}
	victim := sh.buf[(sh.head+at)%n].pkt
	if f := sh.buf[(sh.head+at)%n].fpFlow; f != nil {
		f.Release()
	}
	// Close the gap toward the tail, preserving FIFO order of the
	// survivors.
	for j := at; j < sh.n-1; j++ {
		sh.buf[(sh.head+j)%n] = sh.buf[(sh.head+j+1)%n]
	}
	sh.buf[(sh.head+sh.n-1)%n] = item{}
	sh.n--
	sh.dropped.Add(1)
	sh.shedMedia.Add(1)
	sh.queued.Add(-1)
	return victim, nil // media: it opened nothing
}

// isMedia reports whether pkt rides the media plane (RTP or RTCP) —
// the shedding tiers' discriminator.
func isMedia(pkt *sim.Packet) bool {
	return pkt.Proto == sim.ProtoRTP || pkt.Proto == sim.ProtoRTCP
}

// shut marks the shard closing and wakes the worker so it drains the
// backlog and exits. Close has already waited out in-flight Enqueue*
// calls, so no producer can be blocked in enqueue at this point.
func (sh *shard) shut() {
	sh.mu.Lock()
	sh.closing = true
	sh.ready.Signal()
	sh.mu.Unlock()
}

// fnv32a is FNV-1a over the key string, inlined to keep the hot path
// allocation-free.
func fnv32a(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

// ShardIndexFor is the Call-ID → shard mapping. The ingress tier routes
// on its own scan of the datagram and uses it to land every packet of a
// call on the one worker that owns the call's machines.
func (e *Engine) ShardIndexFor(callID string) int {
	return int(fnv32a(callID) % uint32(len(e.shards)))
}

// ShardIndexForBytes is ShardIndexFor over a key still sitting in a
// receive buffer, so the per-packet route never materializes a string:
// the same FNV-1a, fastpath.CallHash.
func (e *Engine) ShardIndexForBytes(key []byte) int {
	return e.ShardIndexForHash(fastpath.CallHash(key))
}

// ShardIndexForHash is ShardIndexForBytes for a key whose FNV-1a hash
// (fastpath.CallHash) the caller has already computed.
func (e *Engine) ShardIndexForHash(h uint32) int {
	return int(h % uint32(len(e.shards)))
}

// EnqueueRaw hands a packet to shard idx: the ingress tier has already
// made the routing decision and fed the cross-call detectors on its
// lanes. A raw SIP payload handed over this way is parsed in full on
// the shard worker; the lanes use it only for the datagrams their
// scanner bails on (see EnqueueSIP for the rest). at is the packet's
// capture timestamp on the trace clock; callers own per-call packet
// ordering. Safe for concurrent use; returns ErrClosed once Close has
// begun, in which case the caller keeps the packet.
func (e *Engine) EnqueueRaw(idx int, pkt *sim.Packet, at time.Duration) error {
	return e.enqueue(idx, item{pkt: pkt, at: at})
}

// EnqueueSIP is EnqueueRaw for a SIP datagram the ingress lane routed.
// v, the sipmsg.Scan of pkt's payload (which answered ScanOK), rides
// to the worker by value and feeds the detector directly, so the
// datagram is read once in the whole pipeline; a nil v (the scanner
// did not commit to the datagram) has the worker parse it. f is the
// flow the lane installed for the datagram's SDP (nil when it
// advertises none); the detector holds the call's flows by these
// handles. call is the Call-ID's registry record (nil when there is
// none), and opens marks the INVITE that opened it: if the item is
// dropped before a detector adopts the record, the record is abandoned.
func (e *Engine) EnqueueSIP(idx int, pkt *sim.Packet, at time.Duration, v *sipmsg.View, f *fastpath.Flow, call *fastpath.Call, opens bool) error {
	it := item{pkt: pkt, at: at, sdpFlow: f, call: call, opens: opens}
	if v != nil {
		it.view, it.hasView = *v, true
	}
	return e.enqueue(idx, it)
}

// EnqueueMedia is EnqueueRaw for an RTP packet the fast-path cache
// declined to absorb: the flow's in-flight reference rides to the
// worker (which Releases it after analysis), epoch gates the arm offer
// the worker may make, and snap — when hasSnap — is applied to the
// machine before this packet is delivered. On ErrClosed the flow is
// released here, since no worker will see the item.
func (e *Engine) EnqueueMedia(idx int, pkt *sim.Packet, at time.Duration, f *fastpath.Flow, epoch uint64, snap fastpath.Snapshot, hasSnap bool) error {
	return e.enqueue(idx, item{pkt: pkt, at: at, fpFlow: f, fpEpoch: epoch, fpSnap: snap, fpHasSnap: hasSnap})
}

// enqueue admits one item to shard idx unless the engine is closing.
// Close sets closed before waiting on the group, so passing the second
// check means the queues stay open for the whole call.
func (e *Engine) enqueue(idx int, it item) error {
	if e.closed.Load() {
		return e.refuse(&it)
	}
	e.ingestWG.Add(1)
	defer e.ingestWG.Done()
	if e.closed.Load() {
		return e.refuse(&it)
	}
	e.shards[idx].enqueue(it, e.cfg.Policy)
	return nil
}

// refuse turns away an item no worker will see, dropping the in-flight
// flow reference it carries — every reference the cache hands out is
// released exactly once: by the worker, by an eviction, or here — and
// abandoning the call record its INVITE opened.
func (e *Engine) refuse(it *item) error {
	if it.fpFlow != nil {
		it.fpFlow.Release()
	}
	if it.opens {
		e.fp.Abandon(it.call)
	}
	return ErrClosed
}

// NoteFastpathHit accounts one packet the cache absorbed on shard
// idx's behalf. Only the dedicated hit counter is written here; the
// shard's Processed and the pipeline's Ingested fold the hit count in
// at Stats read time, so the absorb path pays one atomic add instead
// of three while the aggregates still see every absorbed packet.
//
//vids:noalloc one atomic add per absorbed packet
func (e *Engine) NoteFastpathHit(idx int) {
	e.shards[idx].fpHits.Add(1)
}

// RecordAlert merges an alert raised on an ingestion lane (its
// FloodWatch) into the pipeline's alert log, the alert counter, and
// the serialized OnAlert stream.
func (e *Engine) RecordAlert(a ids.Alert) {
	e.mu.Lock()
	e.fwAlerts = append(e.fwAlerts, a)
	e.mu.Unlock()
	e.alertCount.Add(1)
	e.deliver(a)
}

// NoteIngested, NoteParseError, NoteAbsorbed and NoteIgnored let the
// ingress tier account for packets it accepts or disposes of before
// they reach a shard, so Stats stays a complete census of the
// pipeline.
func (e *Engine) NoteIngested() { e.ingested.Add(1) }

// NoteParseError counts a datagram the ingress tier found malformed
// (rejected by the scanner, or by the full parser on the cold path).
func (e *Engine) NoteParseError() { e.parseErrors.Add(1) }

// NoteAbsorbed counts a response consumed at the ingress tier without
// reaching a shard.
func (e *Engine) NoteAbsorbed() { e.absorbed.Add(1) }

// NoteIgnored counts a non-VoIP packet dropped at the ingress tier.
func (e *Engine) NoteIgnored() { e.ignored.Add(1) }

// Close drains the tier: it waits for in-flight Enqueue* calls, marks
// every shard closing, and waits for the workers to finish the backlog
// and run their remaining timers. Close is idempotent; after the first
// call Enqueue* returns ErrClosed.
func (e *Engine) Close() error {
	if e.closed.CompareAndSwap(false, true) {
		e.ingestWG.Wait()
		for _, sh := range e.shards {
			sh.shut()
		}
	}
	for _, sh := range e.shards {
		<-sh.done
	}
	return nil
}

// Alerts merges every shard's alert log with the lane-raised alerts into
// one stream ordered by virtual time (ties broken on the alert fields
// so the order is deterministic). Call it after Close; while shards
// are still running it would race their fact bases.
func (e *Engine) Alerts() []ids.Alert {
	var out []ids.Alert
	e.mu.Lock()
	out = append(out, e.fwAlerts...)
	e.mu.Unlock()
	for _, sh := range e.shards {
		out = append(out, sh.ids.Alerts()...)
	}
	SortAlerts(out)
	return out
}

// SortAlerts orders alerts by virtual time, breaking ties on the
// alert fields so equal-time alerts from different shards land in a
// deterministic order.
func SortAlerts(alerts []ids.Alert) {
	sort.Slice(alerts, func(i, j int) bool {
		a, b := alerts[i], alerts[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		if a.CallID != b.CallID {
			return a.CallID < b.CallID
		}
		if a.Source != b.Source {
			return a.Source < b.Source
		}
		if a.Target != b.Target {
			return a.Target < b.Target
		}
		return a.Detail < b.Detail
	})
}

// ShardStats is one worker's counters.
type ShardStats struct {
	Depth     int    // packets waiting in the queue
	Processed uint64 // packets analyzed
	Dropped   uint64 // packets evicted under DropOldest or Shed
	ShedMedia uint64 // Shed evictions that hit the media plane
	// ShedSignaling counts Shed evictions that had to hit signaling
	// because the whole ring was SIP — the tier the policy defends.
	ShedSignaling uint64
	// FastpathHits counts packets the validation cache absorbed on this
	// shard's behalf (included in Processed).
	FastpathHits uint64
	// Inline counts the packets a producer stepped on its own goroutine
	// instead of handing them to the worker (included in Processed and
	// ParseErrors; see Block).
	Inline uint64
	Alerts uint64 // alerts this shard raised
}

// Stats is a point-in-time snapshot of the pipeline.
type Stats struct {
	Shards       []ShardStats
	Ingested     uint64 // packets the ingress tier accepted, fast-path hits included
	Processed    uint64 // sum of shard Processed
	Dropped      uint64 // sum of shard Dropped
	Inline       uint64 // sum of shard Inline
	DroppedMedia uint64 // Shed evictions that hit media, summed
	// DroppedSignaling is the shed count the operator watches: while
	// it stays zero, overload has cost only media-plane sensitivity.
	DroppedSignaling uint64
	Alerts           uint64 // shard alerts + lane (flood) alerts
	ParseErrors      uint64 // SIP payloads that failed to parse (lane or shard)
	Absorbed         uint64 // responses the ingress tier consumed without reaching a machine, at a lane or on its behalf at a shard
	Ignored          uint64 // non-VoIP packets

	// Fast-path cache outcomes. Hits are in-profile packets absorbed
	// before shard enqueue (also counted in Processed; zero when
	// DisableFastpath is set); Misses took the slow path with no armed
	// entry; Escalations are armed-entry predicate failures; and
	// Invalidations count armed entries flipped by signaling, RTCP, or
	// monitor eviction.
	FastpathHits          uint64
	FastpathMisses        uint64
	FastpathEscalations   uint64
	FastpathInvalidations uint64

	Elapsed       time.Duration // wall time since New
	PacketsPerSec float64       // Processed / Elapsed
}

// Stats snapshots the pipeline counters. It reads only atomics, so it
// is safe to call at any time from any goroutine — including from an
// OnAlert callback.
func (e *Engine) Stats() Stats {
	st := Stats{
		Shards:      make([]ShardStats, len(e.shards)),
		Ingested:    e.ingested.Load(),
		Alerts:      e.alertCount.Load(),
		ParseErrors: e.parseErrors.Load(),
		Absorbed:    e.absorbed.Load(),
		Ignored:     e.ignored.Load(),
		Elapsed:     time.Since(e.start),
	}
	fs := e.fp.Counters()
	st.FastpathHits = fs.Hits
	st.FastpathMisses = fs.Misses
	st.FastpathEscalations = fs.Escalations
	st.FastpathInvalidations = fs.Invalidations
	for i, sh := range e.shards {
		// Absorbed packets are accounted once, in fpHits; the shard's
		// Processed and the pipeline's Ingested include them by
		// derivation here, not by per-hit atomics on the absorb path.
		hits := sh.fpHits.Load()
		s := ShardStats{
			Depth:         int(sh.queued.Load()),
			Processed:     sh.processed.Load() + hits,
			Dropped:       sh.dropped.Load(),
			ShedMedia:     sh.shedMedia.Load(),
			ShedSignaling: sh.shedSignal.Load(),
			FastpathHits:  hits,
			Inline:        sh.inlined.Load(),
			Alerts:        sh.alerts.Load(),
		}
		st.Shards[i] = s
		st.Ingested += hits
		st.Processed += s.Processed
		st.Dropped += s.Dropped
		st.Inline += s.Inline
		st.DroppedMedia += s.ShedMedia
		st.DroppedSignaling += s.ShedSignaling
	}
	if secs := st.Elapsed.Seconds(); secs > 0 {
		st.PacketsPerSec = float64(st.Processed) / secs
	}
	return st
}

// Shards reports the worker count.
func (e *Engine) Shards() int { return len(e.shards) }
