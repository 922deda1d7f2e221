// Package ingress is the pipeline's one front end, between packet
// sources and the detection engine: listener goroutines call Ingest
// concurrently, and each datagram is scanned, routed to the shard that
// owns its call, and handed straight to that shard's queue. Every
// binary, test and experiment enters here.
//
// The tier keeps no per-call state. A SIP datagram finds its call with
// one probe of the call registry that the engine's flow table carries
// (internal/fastpath): an INVITE opens the Call-ID's record, every other
// datagram finds it or learns there is none. The detector that owns the
// call decides how long the record lives. Media is routed by the same
// flow table, one stripe lock per packet.
//
// What remains in the tier is the cross-call flood accounting, striped
// over M lanes. A lane is a lock stripe, not a goroutine: an initial
// INVITE takes the lane its destination hashes to, a stray response the
// lane of the host it targets, and the work under the lock is a clock
// advance and a window update. One lane (Lanes: 1) is the fully
// serialized case. No lock spans the tier.
//
// Every SIP datagram is read exactly once, before any lane lock:
// sipmsg.Scan walks it without allocating and answers with a View —
// offsets into the receive buffer for the fields the lane routes on
// and the detector's machines read. The lane routes on the View and
// hands it to the owning shard by value with the packet; the shard
// feeds the detector from it and never parses. A datagram the scanner
// rejects is counted as a parse error and retired right here, so it
// can never leave a trace in the call registry or the flow table that
// the detector would not know about; one it does not commit to (folded
// headers, non-ASCII bytes, …) takes the cold path through the full
// parser, on the lane and again on the shard.
//
// Cross-call detection stays exact under the partitioning because the
// flood detectors are per-destination: every INVITE toward one AOR
// hashes to the same lane, so that lane's FloodWatch sees the
// destination's whole stream, exactly as the sequential detector's
// does. Lane alerts merge into the engine's alert plane via
// RecordAlert.
package ingress

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vids/internal/bufpool"
	"vids/internal/engine"
	"vids/internal/fastpath"
	"vids/internal/ids"
	"vids/internal/intern"
	"vids/internal/rtp"
	"vids/internal/sdp"
	"vids/internal/sim"
	"vids/internal/sipmsg"
)

// laneTableCap bounds each lane's string-intern table: enough for the
// flood destinations of a large live population without growing
// without bound.
const laneTableCap = 4096

// Config parameterizes an Ingress.
type Config struct {
	// Lanes is the number of flood-window stripes. Zero or negative
	// means one lane per shard. The count is normalized down to the
	// largest divisor of the shard count.
	Lanes int
	// BufferSize is the receive-buffer capacity handed to the free
	// list. Zero means bufpool.DefaultSize.
	BufferSize int
	// Engine configures the wrapped detection engine. OnRetire is
	// chained: the ingress installs the pool recycler first and then
	// calls any hook set here.
	Engine engine.Config
}

// lane is one flood-window stripe of the ingestion tier. All fields
// after mu are guarded by it. Lane locks never nest with each other or
// with any other lock: everything engine-facing (Enqueue*, RecordAlert,
// Note*) and every flow-table call happens after the lane lock is
// released.
type lane struct {
	mu      sync.Mutex
	clock   *sim.Simulator  // per-lane virtual clock for the flood windows
	fw      *ids.FloodWatch // per-destination detectors for keys hashed here
	pending []ids.Alert     // alerts raised under mu, drained outside it
	keyBuf  []byte          // reusable key scratch
	strings *intern.Table
}

// Ingress is the multi-lane ingestion tier. Create instances with New;
// the zero value is not usable. Close drains the lanes and the wrapped
// engine.
type Ingress struct {
	e      *engine.Engine
	fp     *fastpath.Cache // the engine's flow table: every media route and call record
	lanes  []*lane
	pool   *bufpool.Pool
	retire func(*sim.Packet) // the chained retire hook, for lane-side disposal

	// closed is set by Close before the lane clocks run out: a drained
	// lane's clock sits at the end of time, so nothing may feed it again.
	closed atomic.Bool
}

// New builds the tier: the buffer pool, the wrapped engine (with the
// pool recycler chained into OnRetire), and the lanes. The engine's
// IDS config is normalized here so the lane FloodWatch instances run
// the same thresholds the shards do.
func New(cfg Config) *Ingress {
	if cfg.Engine.Shards <= 0 {
		cfg.Engine.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Engine.IDS == (ids.Config{}) {
		cfg.Engine.IDS = ids.DefaultConfig()
	}
	lanes := cfg.Lanes
	if lanes <= 0 || lanes > cfg.Engine.Shards {
		lanes = cfg.Engine.Shards
	}
	for cfg.Engine.Shards%lanes != 0 {
		lanes-- // largest divisor ≤ requested: lanes partition shards evenly
	}

	pool := bufpool.New(cfg.BufferSize)
	user := cfg.Engine.OnRetire
	cfg.Engine.OnRetire = func(pkt *sim.Packet) {
		if raw, ok := pkt.Payload.([]byte); ok {
			pool.Put(raw) // foreign (trace/synthetic) payloads are dropped by the pool
		}
		if user != nil {
			user(pkt)
		}
	}

	ing := &Ingress{
		e:      engine.New(cfg.Engine),
		lanes:  make([]*lane, lanes),
		pool:   pool,
		retire: cfg.Engine.OnRetire,
	}
	ing.fp = ing.e.Fastpath()
	idsCfg := cfg.Engine.IDS
	idsCfg.ExternalFloods = true // as on the shards: the lanes own the windows
	for i := range ing.lanes {
		l := &lane{
			clock:   sim.New(int64(1000 + i)),
			strings: intern.New(laneTableCap),
		}
		l.fw = ids.NewFloodWatch(l.clock, idsCfg, func(a ids.Alert) {
			// Runs under l.mu (feeds and clock timers execute only
			// there); the alert is delivered to the engine after unlock.
			l.pending = append(l.pending, a)
		})
		ing.lanes[i] = l
	}
	return ing
}

// Engine exposes the wrapped shard tier (shard count, per-shard
// stats).
func (ing *Ingress) Engine() *engine.Engine { return ing.e }

// Buffers exposes the receive-buffer free list for listeners to draw
// from.
func (ing *Ingress) Buffers() *bufpool.Pool { return ing.pool }

// Lanes reports the normalized lane count.
func (ing *Ingress) Lanes() int { return len(ing.lanes) }

// Stats snapshots the wrapped engine's counters (lane dispositions are
// folded into them via the engine's Note hooks).
func (ing *Ingress) Stats() engine.Stats { return ing.e.Stats() }

// Alerts merges lane and shard alerts. Call after Close.
func (ing *Ingress) Alerts() []ids.Alert { return ing.e.Alerts() }

// Ingest routes one captured packet into the tier; at is its capture
// timestamp on the trace clock. On error (engine.ErrClosed once Close
// has begun) the caller keeps ownership of the payload buffer; on
// success the tier owns it and the retire hook will recycle it exactly
// once. Parse failures are counted, not returned: garbage on the wire
// is an observation, not an ingest error. Safe for concurrent use;
// per-call packet ordering is the caller's (per-listener)
// responsibility.
//
//vids:noalloc the per-datagram entry point: protocol dispatch into the SIP and media paths
func (ing *Ingress) Ingest(pkt *sim.Packet, at time.Duration) error {
	if ing.closed.Load() {
		return engine.ErrClosed
	}
	switch pkt.Proto {
	case sim.ProtoSIP:
		return ing.ingestSIP(pkt, at)
	case sim.ProtoRTP:
		return ing.ingestMedia(pkt, pkt.To.Host, pkt.To.Port, at)
	case sim.ProtoRTCP:
		// RTCP rides the media port + 1 (RFC 3550), same keying the
		// shard-side handler assumes.
		return ing.ingestMedia(pkt, pkt.To.Host, pkt.To.Port-1, at)
	default:
		ing.e.NoteIngested()
		ing.e.NoteIgnored()
		ing.retirePkt(pkt)
		return nil
	}
}

func (ing *Ingress) retirePkt(pkt *sim.Packet) {
	if ing.retire != nil {
		ing.retire(pkt) //vids:alloc-ok retire hook recycles pooled receive buffers; nil in replay
	}
}

// laneForDest stripes flood destinations (user@host AORs for INVITE
// windows, plain hosts for reflection windows) over lanes.
func (ing *Ingress) laneForDest(user, host []byte) *lane {
	h := fnvBytes(fnvOffset, user)
	h = fnvByte(h, '@')
	h = fnvBytes(h, host)
	return ing.lanes[int(h%uint32(len(ing.lanes)))]
}

func (ing *Ingress) laneForHost(host string) *lane {
	return ing.lanes[int(fnvString(host)%uint32(len(ing.lanes)))]
}

const (
	fnvOffset = 2166136261
	fnvPrime  = 16777619
)

func fnvBytes(h uint32, b []byte) uint32 {
	for i := 0; i < len(b); i++ {
		h ^= uint32(b[i])
		h *= fnvPrime
	}
	return h
}

func fnvByte(h uint32, c byte) uint32 {
	h ^= uint32(c)
	h *= fnvPrime
	return h
}

func fnvString(s string) uint32 {
	h := uint32(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= fnvPrime
	}
	return h
}

// sipRoute is what a lane needs to know about one well-formed SIP
// datagram to route it: filled from the scan on the forwarding path,
// from the full parse on the cold one. The byte slices alias the
// receive buffer (or, on the cold path, throwaway copies).
type sipRoute struct {
	method   sipmsg.Method // "" for a response
	cseq     sipmsg.Method
	status   int
	toTag    bool
	callID   []byte
	ruriUser []byte
	ruriHost []byte
	sdpAddr  []byte // empty when the body advertises no media destination
	sdpPort  int
	// view is the scan the shard feeds its detector from; nil makes the
	// shard parse the datagram itself.
	view *sipmsg.View
}

// ingestSIP is the signaling lane path: scan the datagram once, then
// route on the scan. A datagram the scanner rejects ends here; one it
// does not commit to falls back to the full parser (cold path).
//
//vids:noalloc the per-datagram signaling path; alert/absorb/install branches are cold
func (ing *Ingress) ingestSIP(pkt *sim.Packet, at time.Duration) error {
	raw, ok := pkt.Payload.([]byte)
	if !ok {
		return ing.discardSIP(pkt)
	}
	var v sipmsg.View
	switch sipmsg.Scan(raw, &v) {
	case sipmsg.ScanReject:
		return ing.discardSIP(pkt)
	case sipmsg.ScanBail:
		return ing.ingestSIPSlow(pkt, raw, at)
	}
	r := sipRoute{
		method:   v.Method.Method(),
		cseq:     v.CSeqMethod.Method(),
		status:   int(v.Status),
		toTag:    v.ToTag.Len > 0,
		callID:   v.CallID.Of(raw),
		ruriUser: v.RequestURI.User.Of(raw),
		ruriHost: v.RequestURI.Host.Of(raw),
		sdpAddr:  v.SDPAddr.Of(raw),
		sdpPort:  int(v.SDPPort),
		view:     &v,
	}
	return ing.routeSIP(pkt, raw, at, &r)
}

// discardSIP retires a datagram that is not a SIP message: counted, and
// gone before it can touch a lane table, the fast-path cache or a
// shard.
func (ing *Ingress) discardSIP(pkt *sim.Packet) error {
	ing.e.NoteIngested()
	ing.e.NoteParseError()
	ing.retirePkt(pkt)
	return nil
}

// ingestSIPSlow is the fallback for datagrams the scanner does not
// commit to: a full parse, then the same routing decisions. Parse
// failures are counted and retired here, so the shard only ever
// re-parses messages known to be well-formed.
//
//vids:coldpath the scanner covers the protocol's serialized shapes; this path is for the torture cases
func (ing *Ingress) ingestSIPSlow(pkt *sim.Packet, raw []byte, at time.Duration) error {
	m, err := sipmsg.Parse(raw)
	if err != nil {
		return ing.discardSIP(pkt)
	}
	r := sipRoute{
		method:   m.Method,
		cseq:     m.CSeq.Method,
		status:   m.StatusCode,
		toTag:    m.To.Tag() != "",
		callID:   []byte(m.CallID),
		ruriUser: []byte(m.RequestURI.User),
		ruriHost: []byte(m.RequestURI.Host),
	}
	if addr, port, _, ok := sdp.MediaDest(m.Body); ok {
		r.sdpAddr, r.sdpPort = addr, port
	}
	return ing.routeSIP(pkt, raw, at, &r)
}

// routeSIP makes the tier's decisions for one well-formed SIP
// datagram: feed the flood window for initial INVITEs, open or find the
// call's registry record, absorb stray responses, install media flows
// from SDP, disarm the call's fast-path flows, and hand the packet to
// the owning shard with the record and the installed flow.
func (ing *Ingress) routeSIP(pkt *sim.Packet, raw []byte, at time.Duration, r *sipRoute) error {
	isInvite := r.method == sipmsg.INVITE
	if isInvite && !r.toTag {
		// Initial INVITE: feed the per-destination Figure 4 window on
		// the destination's lane.
		ing.feedInvite(r.ruriUser, r.ruriHost, pkt.From.Host, at)
	}
	h := fastpath.CallHash(r.callID)
	shardIdx := ing.e.ShardIndexForHash(h)
	var call *fastpath.Call
	opens := false
	if isInvite {
		call, opens = ing.fp.Open(r.callID, h, shardIdx)
	} else if call = ing.fp.Find(r.callID, h); r.method == "" && (call == nil || call.Closed()) {
		// A response for a call that has no record — it never existed,
		// or its detector has forgotten it — or a closed one, whose
		// detector has evicted it and keeps its tombstone: absorbed here,
		// the shards never see it — as in the sequential detector, where
		// such packets die in handleSIP without touching any machine. A
		// closed call's stragglers and the registrar's answer to a
		// REGISTER (the request already raised its own alert) are
		// swallowed silently; everything else is a stray and counts
		// toward the DRDoS reflection window.
		return ing.absorbStray(pkt, raw, call != nil || r.cseq == sipmsg.REGISTER, at)
	}

	var flow *fastpath.Flow
	if call != nil {
		// Mirror ids.indexMedia: the INVITE's SDP names where the callee's
		// stream will land, the 2xx answer's where the caller's will.
		if len(r.sdpAddr) > 0 && (isInvite || (r.method == "" &&
			r.status >= 200 && r.status < 300 && r.cseq == sipmsg.INVITE)) {
			// Register (or, on SDP renegotiation, invalidate and re-own)
			// the flow: from here on it routes the destination's media to
			// this call's shard, and the call's detector holds it by this
			// handle. A closed record takes no flow.
			var kb [96]byte
			flow = ing.fp.InstallCall(appendMediaKey(kb[:0], r.sdpAddr, r.sdpPort), call)
		}
		// Signaling can change what this call's RTP means (BYE, CANCEL,
		// renegotiation): disarm its flows before the event is enqueued,
		// so an RTP packet racing this datagram can no longer be absorbed
		// against pre-transition state.
		ing.fp.DisarmFlows(call)
	}
	if err := ing.e.EnqueueSIP(shardIdx, pkt, at, r.view, flow, call, opens); err != nil {
		return err
	}
	ing.e.NoteIngested()
	return nil
}

// appendMediaKey renders the media key ids.AppendMediaKey renders, from
// a host still in the receive buffer.
func appendMediaKey(b, host []byte, port int) []byte {
	b = append(b, host...)
	b = append(b, ':')
	return strconv.AppendInt(b, int64(port), 10)
}

// feedInvite renders user@host into the destination lane's scratch,
// interns it, and feeds that lane's INVITE-flood window.
func (ing *Ingress) feedInvite(user, host []byte, src string, at time.Duration) {
	l := ing.laneForDest(user, host)
	l.mu.Lock()
	_ = l.clock.RunUntil(at)
	l.keyBuf = append(l.keyBuf[:0], user...)
	l.keyBuf = append(l.keyBuf, '@')
	l.keyBuf = append(l.keyBuf, host...)
	l.fw.FeedInvite(l.strings.Bytes(l.keyBuf), src, l.clock.Now())
	alerts := l.takePending()
	l.mu.Unlock()
	ing.drain(alerts)
}

// absorbStray retires a response for an unknown call at the lane,
// feeding the destination host's reflection window unless the response
// is silent (a tombstoned call's straggler, a registrar's answer). raw
// is known to parse: the window's first stray is reported with the
// message's own summary.
//
//vids:coldpath stray responses never reach a shard; volume is bounded by the reflection window
func (ing *Ingress) absorbStray(pkt *sim.Packet, raw []byte, silent bool, at time.Duration) error {
	if !silent {
		l := ing.laneForHost(pkt.To.Host)
		l.mu.Lock()
		_ = l.clock.RunUntil(at)
		l.fw.FeedStrayResponse(raw, pkt.To.Host, pkt.From.Host, l.clock.Now())
		alerts := l.takePending()
		l.mu.Unlock()
		ing.drain(alerts)
	}
	ing.e.NoteIngested()
	ing.e.NoteAbsorbed()
	ing.retirePkt(pkt)
	return nil
}

// ingestMedia is the media hot path: one flow-table probe by the
// packet's destination, one stripe lock, no lane lock. An RTP packet is
// consulted against its flow, and an in-profile packet is absorbed
// right there: one hit-counter add, buffer back to the pool, done.
// RTCP, and RTP whose header the lite extractor cannot read, only ask
// the table for the route (an RTCP BYE disarms the flow on the way).
// Everything not absorbed goes to the owning call's shard; a
// destination no SDP advertised hashes by its media key, so an
// unsolicited stream still lands all its packets on one shard's spam
// monitor.
//
//vids:noalloc the per-datagram media path
func (ing *Ingress) ingestMedia(pkt *sim.Packet, host string, port int, at time.Duration) error {
	raw, _ := pkt.Payload.([]byte) // nil for a structured payload: routed, never consulted
	var res fastpath.Consult
	if ssrc, pt, seq, ts, ok := rtp.ExtractLite(raw); ok && pkt.Proto == sim.ProtoRTP {
		ing.fp.ConsultAddr(host, port, pt, ssrc, seq, ts, at, &res)
	} else {
		ing.fp.RouteAddr(host, port, pkt.Proto == sim.ProtoRTCP && len(raw) >= 2 && raw[1] == rtp.RTCPBye, &res)
	}
	if res.Verdict == fastpath.Hit {
		ing.e.NoteFastpathHit(res.ShardIdx)
		ing.retirePkt(pkt)
		return nil
	}

	shardIdx := res.ShardIdx
	if shardIdx < 0 {
		var kb [96]byte // media keys are "host:port"; hosts are DNS labels, never near 96 bytes
		shardIdx = ing.e.ShardIndexForBytes(ids.AppendMediaKey(kb[:0], host, port))
	}
	var err error
	if res.Flow != nil {
		err = ing.e.EnqueueMedia(shardIdx, pkt, at, res.Flow, res.Epoch, res.Snap, res.HasSnap)
	} else {
		err = ing.e.EnqueueRaw(shardIdx, pkt, at)
	}
	if err != nil {
		return err
	}
	ing.e.NoteIngested()
	return nil
}

// takePending detaches the lane's raised-alert backlog. Caller holds
// l.mu; the returned slice is delivered via drain after unlock. The
// common case is empty and free; the alert case hands the whole slice
// over and lets the next raise start a fresh one.
func (l *lane) takePending() []ids.Alert {
	if len(l.pending) == 0 {
		return nil
	}
	out := l.pending
	l.pending = nil
	return out
}

// drain merges lane-raised alerts into the engine's alert plane.
//
//vids:coldpath alerts are detections, not traffic; the common-case call carries a nil slice
func (ing *Ingress) drain(alerts []ids.Alert) {
	for _, a := range alerts {
		ing.e.RecordAlert(a)
	}
}

// Close drains the tier: every lane's clock runs to completion (open
// flood windows expire), lane alerts merge, and the
// wrapped engine is closed — which drains the shard queues and their
// timers. Callers must stop feeding Ingest first (listeners stop on
// ctx cancellation before their Run returns); afterwards Ingest reports
// engine.ErrClosed. Close is idempotent.
func (ing *Ingress) Close() error {
	if !ing.closed.CompareAndSwap(false, true) {
		return ing.e.Close()
	}
	var firstErr error
	for _, l := range ing.lanes {
		l.mu.Lock()
		err := l.clock.RunAll()
		alerts := l.takePending()
		l.mu.Unlock()
		ing.drain(alerts)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := ing.e.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
