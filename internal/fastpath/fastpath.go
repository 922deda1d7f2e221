// Package fastpath is the ingress tier's media flow table and the
// pipeline's one call registry. The flow table is both the one route
// index — advertised media destination → owning call and that call's
// shard, consulted for every RTP and RTCP packet — and the per-flow RTP
// validation cache that absorbs in-profile packets before shard
// enqueue. The registry holds one record per Call-ID (Call): the
// Call-ID, interned once, the owning shard, an open/closed state and
// the handles of the flows the call owns. Ingress opens a record on an
// INVITE, finds it with one probe for every other SIP datagram, installs
// a flow for each destination an SDP body advertises into an open
// record, and hands the record and the *Flow Install returns to the
// owning call's detector. The detector owns the record's lifetime: it
// adopts the record when it creates the call's monitor, closes it when
// it evicts the call, and forgets it — and with it the call's flows —
// when the call's tombstone expires. A response whose Call-ID has no
// record is a stray: the call never existed, or its detector has
// forgotten it.
//
// The validation observation (paper
// Section 3.2, and the SecSip/stateful-firewall line of related work)
// is that every RTP-triggered alert is a *predicate violation*: an
// in-profile packet — negotiated payload type, established SSRC,
// sequence/timestamp advance within the spam window, rate inside the
// flood budget — can only fire the RTP_RCVD self-loop bookkeeping
// edge. The cache verifies exactly those predicates against mirrored
// machine state and absorbs the packet; anything else (unknown flow,
// disarmed entry, any predicate miss, SRTP-degraded traffic) escalates
// to the unmodified slow path. Alert behavior is therefore equivalent
// by construction, provided the mirrored state stays consistent — the
// invalidation and resync protocol below (see DESIGN.md §10).
//
// Consistency protocol. A flow entry is "armed" only while the shard
// worker has proven the monitored machine sits in RTP_RCVD with known
// window variables. Three counters keep the mirror honest:
//
//   - epoch: bumped by every invalidation (signaling for the owning
//     call at ingress, an RTCP BYE toward the flow, worker-side monitor
//     transitions, SDP re-install). An arm request carries the epoch
//     its packet was enqueued under and is rejected if the entry has
//     since been invalidated — a stale arm cannot resurrect a flow a
//     BYE already disarmed.
//   - inflight: the number of escalated packets of this flow between
//     the consult that escalated them and the worker that retires them.
//     Arming is refused unless the arming packet is the only one in
//     flight, so machine variables can never lag behind queued
//     slow-path packets when absorption starts. The engine's Block
//     policy keeps it there: a producer does not queue a second
//     escalation of a flow on the shard already holding one (Hold),
//     so a producer far ahead of the worker does not keep the flow
//     unarmed.
//   - gen: the owning CallMonitor's recycle generation, captured at
//     arm time and checked before a resync snapshot is applied, tying
//     cache lifetime to the PR-4 monitor recycle machinery.
//
// When an armed flow is invalidated or a predicate fails, the first
// escalated packet carries a snapshot of the absorbed window state;
// the worker applies it to the machine before delivering that packet,
// so the machine sees exactly the variable evolution it would have
// computed had it processed every absorbed packet itself.
//
// The table is keyed by destination (host, port). The ingress consults
// it with the packet's own address (ConsultAddr, RouteAddr), so the
// per-packet path renders no key; the detector reaches a call's flows
// by handle. The text-key entry points take the "host:port" form
// ids.AppendMediaKey renders and split it at its last ':' to reach the
// same entry.
package fastpath

import (
	"bytes"
	"math"
	"math/bits"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"vids/internal/metrics"
	"vids/internal/rtp"
)

// Config carries the mirrored detector thresholds (ids.RTPThresholds).
// Zero thresholds are safe: the window predicate then rejects every
// advancing packet and traffic simply escalates.
type Config struct {
	SeqGap      uint16
	TSGap       uint32
	RateWindow  time.Duration
	RatePackets int
}

// stripeCount is the lock-stripe count, a power of two for mask
// indexing.
const stripeCount = 64

// Snapshot is the mirrored window state handed between the cache and
// the shard worker: machine→cache at arm time, cache→machine on the
// first escalation after absorption (resync).
type Snapshot struct {
	Gen      uint32 // owning monitor's recycle generation at arm time
	SSRC     uint32
	Seq      uint16
	TS       uint32
	WinStart time.Duration
	WinCount int
}

// Verdict is the outcome of a consult.
type Verdict uint8

const (
	// Miss: no armed entry for the flow (unknown destination, never
	// armed, or invalidated). Escalate to the slow path; no anomaly
	// implied.
	Miss Verdict = iota
	// Hit: the packet is in-profile and was absorbed; do not enqueue.
	Hit
	// Escalate: an armed entry's predicate failed — seq/rate/payload/
	// SSRC anomaly. The entry was disarmed and the packet (carrying
	// the resync snapshot) must take the slow path, where the machine
	// will fire the matching attack transition.
	Escalate
)

// Flow is one cached media flow. The window fields are guarded by the
// owning stripe's mutex; state/needSync/inflight are atomics so
// invalidation paths (per-SIP-datagram DisarmFlows) never take stripe
// locks.
type Flow struct {
	// state packs the invalidation epoch and the armed bit:
	// epoch<<1 | armed. Install starts it at 1<<1 (epoch 1, disarmed)
	// so the zero epoch never matches a real entry.
	state    atomic.Uint64
	needSync atomic.Bool
	inflight atomic.Int64
	// holder is 1 + the index of the shard whose queue holds this
	// flow's one held escalation (Hold), or 0 when none does.
	holder atomic.Int32

	// The destination, and its hash under the cache's seed. Fixed at
	// Install.
	host string
	port int
	hash uint64
	// next links the flows whose destinations share a hash, guarded by
	// the owning stripe's mutex.
	next *Flow

	// shardIdx is the owning call's shard, where every packet of the
	// flow goes. Guarded by the stripe mutex, and written only with the
	// new owner's registry stripe held as well.
	shardIdx int

	// Guarded by the owning stripe's mutex.
	gen      uint32
	payload  uint8
	ssrc     uint32
	seq      uint16
	ts       uint32
	winStart time.Duration
	winCount int
	lastSeen time.Duration

	// The ownership fields, which no consult reads. owner is the call
	// record the flow routes to, nil once the flow is unlinked; it is
	// written with shardIdx, and DisarmFlows reads it without a lock.
	// claim is the call an ownership change Install made is claimed for
	// — the new owner, whose detector has not yet judged the datagram
	// that advertised the flow — or nil: Confirm clears it, Revert
	// undoes the change. Set under the stripe mutex, cleared by Confirm
	// with one compare-and-swap. prev is the owner Install took the flow
	// from, nil when Install created the flow; it is meaningful only
	// while claim is set and is guarded by the stripe mutex.
	owner atomic.Pointer[Call]
	claim atomic.Pointer[Call]
	prev  *Call
}

// Release decrements the in-flight escalation count; the engine calls
// it once per escalated packet when the shard worker finishes with it
// (or when an overloaded queue drops it).
//
//vids:noalloc single atomic add per retired escalated packet
func (f *Flow) Release() { f.inflight.Add(-1) }

// Alone reports whether exactly one escalated packet of the flow is in
// flight — the condition Update arms under, so a worker processing
// that packet can tell beforehand whether an arm could succeed.
//
//vids:noalloc single atomic load per escalated packet
func (f *Flow) Alone() bool { return f.inflight.Load() == 1 }

// Hold claims the flow for a packet about to be queued on shard, the
// engine's per-flow backpressure under its Block policy. admit is
// false while shard's queue already holds an escalation of the flow:
// the producer waits for the worker to Unhold it, then retries. When
// another shard holds the flow (an Install re-owned it while its
// escalation was queued), admit is true and held false: a producer
// never waits on a packet another shard holds. Otherwise the packet
// takes the hold, and the worker Unholds it when the packet retires.
//
//vids:noalloc atomics only, per escalated packet under Block
func (f *Flow) Hold(shard int) (admit, held bool) {
	me := int32(shard) + 1
	for {
		switch h := f.holder.Load(); {
		case h == me:
			return false, false
		case h != 0:
			return true, false
		case f.holder.CompareAndSwap(0, me):
			return true, true
		}
	}
}

// Unhold releases the hold a packet took in Hold; the engine calls it
// when that packet retires.
//
//vids:noalloc single atomic store per retired held packet
func (f *Flow) Unhold() { f.holder.Store(0) }

func (f *Flow) snapshotLocked() Snapshot {
	return Snapshot{
		Gen:      f.gen,
		SSRC:     f.ssrc,
		Seq:      f.seq,
		TS:       f.ts,
		WinStart: f.winStart,
		WinCount: f.winCount,
	}
}

// frontSlots is the per-stripe direct-mapped front table size. A slot
// remembers the last flow probed for its hash bucket so steady-state
// consults skip the map; Install and Remove fix the slots under the
// stripe lock, and a probe checks the destination's identity before it
// trusts a slot. With 64 stripes × 256 slots, about 94 % of 1 024
// armed flows have a slot to themselves.
const frontSlots = 256

type stripe struct {
	mu sync.Mutex
	// Outcome tallies, guarded by mu: every consult already holds the
	// stripe lock when the outcome is known, so these are plain adds,
	// not atomics. Counters sums them across stripes.
	hits        uint64
	misses      uint64
	escalations uint64
	// flows maps a destination hash to the flows with that hash,
	// chained through Flow.next; size counts them.
	flows map[uint64]*Flow
	size  int
	front [frontSlots]*Flow
	// pad keeps the next stripe's mutex off the last slots' cache line.
	_ [64]byte
}

// slot is the front slot for a hash: the low bits chose the stripe, so
// the slot uses high bits to stay independent of it.
func (st *stripe) slot(h uint64) **Flow { return &st.front[(h>>32)&(frontSlots-1)] }

// findLocked returns the flow at (host, port), whose hash is h, or nil
// when none is installed there, keeping st's front slot pointed at what
// it found. Caller holds st.mu.
func (st *stripe) findLocked(host string, port int, h uint64) *Flow {
	slot := st.slot(h)
	if f := *slot; f != nil && f.hash == h && f.port == port && f.host == host {
		return f
	}
	for f := st.flows[h]; f != nil; f = f.next {
		if f.port == port && f.host == host {
			*slot = f
			return f
		}
	}
	return nil
}

// findBytesLocked is findLocked for a host still in a key buffer.
func (st *stripe) findBytesLocked(host []byte, port int, h uint64) *Flow {
	slot := st.slot(h)
	if f := *slot; f != nil && f.hash == h && f.port == port && f.host == string(host) {
		return f
	}
	for f := st.flows[h]; f != nil; f = f.next {
		if f.port == port && f.host == string(host) {
			*slot = f
			return f
		}
	}
	return nil
}

// Stats are the cache's lifetime counters, plus the table's size.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Escalations   uint64
	Invalidations uint64
	// Flows is a gauge, not a count: the flows installed right now.
	Flows uint64
	// Calls is a gauge too: the call records registered right now.
	Calls uint64
}

// Cache is the lock-striped flow table and call registry.
//
// Lock ordering: no caller holds a lock of its own across a call into
// this package, and no lock of this package is held across a call out
// of it. A path that changes a flow's owner or unlinks a flow holds a
// registry stripe (callStripe.mu) — the new owner's, or the forgotten
// call's — and then the flow's stripe mutex, so a call's state and its
// flows change together; no path holds two registry stripes, and none
// takes a stripe mutex and then a registry stripe. vidslint's lock gate
// observes that order and rejects any cycle with it.
type Cache struct {
	cfg     Config
	stripes [stripeCount]stripe
	// seed keys the destination hash, so no one outside the process can
	// pick destinations that crowd one stripe or one front slot.
	seed uint64

	// invalidations stays an atomic counter: disarm paths (DisarmFlows,
	// the detector's Disarm, Close and Forget) run without the stripe
	// lock.
	invalidations metrics.Counter

	// reg is the call registry, striped by the Call-ID's FNV-1a hash —
	// the hash the engine maps a Call-ID to its shard with, so for a
	// power-of-two shard count up to stripeCount every record in a
	// stripe belongs to one shard.
	reg [stripeCount]callStripe
}

// New builds a cache for the given thresholds.
func New(cfg Config) *Cache {
	c := &Cache{cfg: cfg, seed: rand.Uint64()}
	for i := range c.stripes {
		c.stripes[i].flows = make(map[uint64]*Flow)
		c.reg[i].calls = make(map[string]*Call)
	}
	return c
}

// Multipliers of the destination hash: odd 64-bit constants with
// well-spread bits (from wyhash).
const (
	mulA = 0xa0761d6478bd642f
	mulB = 0xe7037ed1a0b428db
)

// mix folds v into the running hash h: the 128-bit product of h^v and
// an odd constant, its halves xored. Every bit of h^v reaches the high
// half, and the running hash starts from the secret seed, so the state
// after any prefix stays unknown outside the process.
func mix(h, v uint64) uint64 {
	hi, lo := bits.Mul64(h^v, mulA)
	return hi ^ lo
}

// hashAddr is the seeded hash of a destination: the host eight bytes
// at a time, then its tail with its length, then the port.
//
//vids:noalloc per-packet destination hash
func hashAddr(seed uint64, host string, port int) uint64 {
	h := seed
	for len(host) >= 8 {
		h = mix(h, uint64(host[0])|uint64(host[1])<<8|uint64(host[2])<<16|uint64(host[3])<<24|
			uint64(host[4])<<32|uint64(host[5])<<40|uint64(host[6])<<48|uint64(host[7])<<56)
		host = host[8:]
	}
	tail := uint64(len(host))
	for i := 0; i < len(host); i++ {
		tail = tail<<8 | uint64(host[i])
	}
	return mix(mix(h, tail), uint64(port)*mulB)
}

// hashAddrBytes is hashAddr for a host still in a key buffer; it
// computes the same hash.
func hashAddrBytes(seed uint64, host []byte, port int) uint64 {
	h := seed
	for len(host) >= 8 {
		h = mix(h, uint64(host[0])|uint64(host[1])<<8|uint64(host[2])<<16|uint64(host[3])<<24|
			uint64(host[4])<<32|uint64(host[5])<<40|uint64(host[6])<<48|uint64(host[7])<<56)
		host = host[8:]
	}
	tail := uint64(len(host))
	for i := 0; i < len(host); i++ {
		tail = tail<<8 | uint64(host[i])
	}
	return mix(mix(h, tail), uint64(port)*mulB)
}

// noPort is the port of a text key with no canonical decimal port
// after its last ':'. Such a key is all host, so every text still names
// exactly one destination, and no packet's port is ever noPort.
const noPort = math.MinInt

// splitKeyBytes splits a media key at its last ':' into the
// destination it names: ids.AppendMediaKey renders (host, port) as
// "host:port".
func splitKeyBytes(key []byte) (host []byte, port int) {
	if i := bytes.LastIndexByte(key, ':'); i >= 0 && i < len(key) {
		var p portText
		for _, c := range key[i+1:] {
			p.add(c)
		}
		if port, ok := p.value(); ok {
			return key[:i], port
		}
	}
	return key, noPort
}

// portText reads a port from its text a byte at a time. It accepts
// the canonical decimal form strconv.AppendInt writes: an optional
// '-', then digits with no leading zero (a lone "0" aside), at most 18
// of them so the value cannot overflow.
type portText struct {
	port, digits, n int
	neg, bad        bool
}

func (p *portText) add(c byte) {
	switch {
	case c == '-' && p.n == 0:
		p.neg = true
	case c < '0' || c > '9', p.digits == 1 && p.port == 0, c == '0' && p.digits == 0 && p.neg:
		p.bad = true
	default:
		p.port = p.port*10 + int(c-'0')
		p.digits++
	}
	p.n++
}

func (p *portText) value() (int, bool) {
	if p.bad || p.digits == 0 || p.digits > 18 {
		return 0, false
	}
	if p.neg {
		return -p.port, true
	}
	return p.port, true
}

// stripeFor picks the stripe for a destination hash.
func (c *Cache) stripeFor(h uint64) *stripe {
	return &c.stripes[h&(stripeCount-1)]
}

// stripeAddr hashes a destination and picks its stripe.
func (c *Cache) stripeAddr(host string, port int) (*stripe, uint64) {
	h := hashAddr(c.seed, host, port)
	return c.stripeFor(h), h
}

// stripeAddrBytes is stripeAddr for a host still in a key buffer.
func (c *Cache) stripeAddrBytes(host []byte, port int) (*stripe, uint64) {
	h := hashAddrBytes(c.seed, host, port)
	return c.stripeFor(h), h
}

// Consult bundles everything the ingress tier needs to dispose of one
// media packet from a single cache probe: the verdict, the slow-path
// enqueue arguments and the owning call's shard.
type Consult struct {
	Verdict Verdict
	// Flow is non-nil whenever a consult found an entry for the
	// destination and did not absorb the packet; its in-flight count
	// was then incremented and the engine must Release it exactly once.
	Flow    *Flow
	Epoch   uint64
	Snap    Snapshot
	HasSnap bool
	// ShardIdx is the owning call's shard, mirrored at install time, or
	// -1 when no flow is installed at the destination.
	ShardIdx int
}

// ConsultAddr consults the cache for one RTP packet to host:port,
// writing the ingress-facing bundle into res — shard routing rides
// along, so a packet's whole disposition costs one stripe lock and no
// second table probe. On Hit the packet was
// absorbed: flow state advanced, nothing to enqueue. On Miss/Escalate
// the caller enqueues the packet to res.ShardIdx carrying (Flow, Epoch,
// Snap, HasSnap), or, when no flow is installed, routes it by its own
// destination. Every field except Snap is overwritten; Snap is
// meaningful only when HasSnap is set.
//
//vids:noalloc the fast-path hit root: one stripe lock per RTP packet
//vids:nopanic per-packet consult keyed by attacker-controlled header fields
func (c *Cache) ConsultAddr(host string, port int, pt uint8, ssrc uint32, seq uint16, ts uint32, at time.Duration, res *Consult) {
	st, h := c.stripeAddr(host, port)
	st.mu.Lock()
	c.consultLocked(st, st.findLocked(host, port, h), pt, ssrc, seq, ts, at, res)
}

// ConsultKey is ConsultAddr for the destination a media key names.
//
//vids:noalloc the fast-path hit root over a rendered media key
//vids:nopanic per-packet consult keyed by attacker-controlled header fields
func (c *Cache) ConsultKey(key []byte, pt uint8, ssrc uint32, seq uint16, ts uint32, at time.Duration, res *Consult) {
	host, port := splitKeyBytes(key)
	st, h := c.stripeAddrBytes(host, port)
	st.mu.Lock()
	c.consultLocked(st, st.findBytesLocked(host, port, h), pt, ssrc, seq, ts, at, res)
}

// RouteAddr is the probe for the media the cache does not validate —
// RTCP, and RTP whose header the lite extractor cannot read — sent to
// host:port. It writes the flow's shard into res (Verdict Miss, no
// Flow: nothing is pinned and no outcome is counted).
// bye disarms the flow on the way: an RTCP BYE starts the media-plane
// teardown clock on the worker, and absorption must stop before the
// worker gets there.
//
//vids:noalloc per-datagram route probe on the ingestion path
//vids:nopanic per-datagram probe keyed by attacker-controlled bytes
func (c *Cache) RouteAddr(host string, port int, bye bool, res *Consult) {
	st, h := c.stripeAddr(host, port)
	st.mu.Lock()
	c.routeFound(st, st.findLocked(host, port, h), bye, res)
}

// Route is RouteAddr for the destination a media key names.
//
//vids:noalloc per-datagram route probe over a rendered media key
//vids:nopanic per-datagram probe keyed by attacker-controlled bytes
func (c *Cache) Route(key []byte, bye bool, res *Consult) {
	host, port := splitKeyBytes(key)
	st, h := c.stripeAddrBytes(host, port)
	st.mu.Lock()
	c.routeFound(st, st.findBytesLocked(host, port, h), bye, res)
}

// routeFound answers a route probe that found f (nil: nothing is
// installed at the destination). Entered with st.mu held; it unlocks
// st.mu on every path.
func (c *Cache) routeFound(st *stripe, f *Flow, bye bool, res *Consult) {
	if f == nil {
		st.mu.Unlock()
		res.unrouted()
		return
	}
	res.ShardIdx = f.shardIdx
	st.mu.Unlock()
	res.Verdict, res.Flow, res.Epoch, res.HasSnap = Miss, nil, 0, false
	if bye {
		c.disarmFlow(f, true)
	}
}

// unrouted is the answer for a key no flow is installed at.
func (res *Consult) unrouted() {
	res.Verdict, res.Flow, res.Epoch = Miss, nil, 0
	res.HasSnap, res.ShardIdx = false, -1
}

// consultLocked evaluates the fast-path predicate for f (nil: nothing
// is installed at the destination) with st.mu held; it unlocks st.mu on
// every path.
//
//vids:noalloc predicate body of the consults, entered with the stripe lock held
func (c *Cache) consultLocked(st *stripe, f *Flow, pt uint8, ssrc uint32, seq uint16, ts uint32, at time.Duration, res *Consult) {
	if f == nil {
		st.misses++
		st.mu.Unlock()
		res.unrouted()
		return
	}
	res.ShardIdx, res.HasSnap = f.shardIdx, false
	state := f.state.Load()
	res.Epoch = state >> 1
	if state&1 == 0 {
		// Disarmed: escalate. The first packet after an invalidation
		// of an armed flow carries the resync snapshot.
		if f.needSync.CompareAndSwap(true, false) {
			res.Snap = f.snapshotLocked()
			res.HasSnap = true
		}
		f.inflight.Add(1)
		st.misses++
		st.mu.Unlock()
		res.Verdict, res.Flow = Miss, f
		return
	}
	// Armed: evaluate exactly the RTP_RCVD self-loop guard
	// (payloadOK && sameSSRC && gapOK && rateOK) against the mirror.
	if pt != f.payload || ssrc != f.ssrc ||
		!rtp.WindowOK(f.seq, seq, f.ts, ts, c.cfg.SeqGap, c.cfg.TSGap) {
		res.Snap = f.snapshotLocked()
		res.HasSnap = true
		c.disarmFlow(f, false) // the escalated packet itself carries the snapshot
		f.inflight.Add(1)
		st.escalations++
		st.mu.Unlock()
		res.Verdict, res.Flow = Escalate, f
		return
	}
	// rateOK guard + self-loop action, fused: roll the window, count
	// the packet, or flag the flood.
	if at-f.winStart > c.cfg.RateWindow {
		f.winStart = at
		f.winCount = 1
	} else if f.winCount < c.cfg.RatePackets {
		f.winCount++
	} else {
		res.Snap = f.snapshotLocked()
		res.HasSnap = true
		c.disarmFlow(f, false)
		f.inflight.Add(1)
		st.escalations++
		st.mu.Unlock()
		res.Verdict, res.Flow = Escalate, f
		return
	}
	f.seq, f.ts = rtp.WindowAdvance(f.seq, seq, f.ts, ts)
	f.lastSeen = at
	st.hits++
	st.mu.Unlock()
	res.Verdict, res.Flow = Hit, nil
}

// Update arms (or refreshes) a flow from the shard worker after a
// clean steady-state packet: the monitored machine is in RTP_RCVD and
// snap holds its window variables. The arm is refused unless the
// entry still exists, its epoch matches the epoch the packet was
// enqueued under (no invalidation since), and the arming packet is
// the only one of this flow in flight (no queued slow-path packets
// the mirror would miss).
//
//vids:noalloc the fast-path arm root, called per clean steady-state packet from the shard worker
//vids:nopanic runs on the shard worker against attacker-driven flow state
func (c *Cache) Update(key []byte, epoch uint64, payload uint8, snap Snapshot) bool {
	host, port := splitKeyBytes(key)
	st, h := c.stripeAddrBytes(host, port)
	st.mu.Lock()
	f := st.findBytesLocked(host, port, h)
	if f == nil {
		st.mu.Unlock()
		return false
	}
	for {
		old := f.state.Load()
		if old>>1 != epoch || old&1 == 1 || f.inflight.Load() != 1 {
			st.mu.Unlock()
			return false
		}
		f.gen = snap.Gen
		f.payload = payload
		f.ssrc = snap.SSRC
		f.seq = snap.Seq
		f.ts = snap.TS
		f.winStart = snap.WinStart
		f.winCount = snap.WinCount
		if f.state.CompareAndSwap(old, old|1) {
			f.needSync.Store(false)
			st.mu.Unlock()
			return true
		}
		// A concurrent invalidation bumped the epoch; the next load
		// sees the mismatch and refuses the arm.
	}
}

// disarmFlow bumps the epoch and clears the armed bit. markSync
// requests a resync snapshot on the next escalated packet (external
// invalidations); predicate escalations carry the snapshot themselves.
//
//vids:noalloc atomics-only invalidation, shared by every disarm path
func (c *Cache) disarmFlow(f *Flow, markSync bool) {
	for {
		old := f.state.Load()
		if f.state.CompareAndSwap(old, (old>>1+1)<<1) {
			if old&1 == 1 {
				c.invalidations.Inc()
				if markSync {
					f.needSync.Store(true)
				}
			}
			return
		}
	}
}

// Install registers an advertised media destination for callID on
// shardIdx: Open followed by InstallCall. Ingress routes through Open,
// Find and InstallCall; Install is the entry point for a caller with no
// datagram in hand.
func (c *Cache) Install(key []byte, callID string, shardIdx int) *Flow {
	call, _ := c.Open([]byte(callID), fnv32a(callID), shardIdx)
	return c.InstallCall(key, call)
}

// InstallCall registers an advertised media destination for call,
// creating a disarmed entry (or invalidating the existing one — an SDP
// renegotiation changes what in-profile means — and handing it to call
// if another call owned it). It installs nothing and returns nil when
// call is closed or gone: its detector has evicted it, and a datagram
// for it must not move a route. The returned record is stable for the
// entry's lifetime.
//
// A new flow or one taken from another call is claimed for the
// datagram that advertised it until call's detector judges that
// datagram: Confirm keeps the change, Revert undoes it.
func (c *Cache) InstallCall(key []byte, call *Call) *Flow {
	host, port := splitKeyBytes(key)
	st, h := c.stripeAddrBytes(host, port)
	cs := call.stripe
	cs.mu.Lock()
	if s := call.state.Load(); s != callOpen && s != callLive {
		cs.mu.Unlock()
		return nil
	}
	st.mu.Lock()
	f := st.findBytesLocked(host, port, h)
	fresh := f == nil
	if fresh {
		hs := string(host)                                          //vids:alloc-ok interns the host once per flow lifetime
		f = &Flow{host: hs, port: port, hash: h, next: st.flows[h]} //vids:alloc-ok one flow record per advertised destination, allocated per SDP observation
		f.state.Store(1 << 1)
		st.flows[h] = f //vids:alloc-ok per-SDP-observation insert
		st.size++
		*st.slot(h) = f
	}
	prev := f.owner.Load()
	if prev != call {
		f.owner.Store(call)
		f.shardIdx = call.shard
		f.prev = prev
		f.claim.Store(call)
	}
	st.mu.Unlock()
	if !fresh {
		c.disarmFlow(f, true)
	}
	if prev != call {
		call.hold(f)
	}
	cs.mu.Unlock()
	return f
}

// Disarm invalidates f: it clears the armed bit and bumps the epoch,
// with atomics only. The shard's detector calls it, through the handle
// Install returned for the call's SDP, for each flow of a call on every
// signaling event of the call.
//
//vids:noalloc atomics-only invalidation, per flow per signaling event
//vids:nopanic per-flow invalidation on the detector's signaling path
func (c *Cache) Disarm(f *Flow) { c.disarmFlow(f, true) }

// Lookup returns the flow installed at key, or nil. The detector calls
// it once for an SDP datagram that reached it without the handle
// Install returned, never per event.
func (c *Cache) Lookup(key []byte) *Flow {
	host, port := splitKeyBytes(key)
	st, h := c.stripeAddrBytes(host, port)
	st.mu.Lock()
	f := st.findBytesLocked(host, port, h)
	st.mu.Unlock()
	return f
}

// Confirm keeps the ownership change Install made for call's datagram:
// call's detector accepted the datagram's SDP. It takes no lock: one
// compare-and-swap clears the claim if it is still call's.
//
//vids:noalloc one atomic compare-and-swap per SDP datagram a detector accepts
func (c *Cache) Confirm(f *Flow, call *Call) {
	f.claim.CompareAndSwap(call, nil)
}

// Revert undoes the ownership change Install made for call's datagram,
// which call's detector did not accept (it had evicted the call by the
// time the datagram arrived, though the record was still open when the
// lane installed): a flow Install created is unlinked, and one it took
// from another call goes back to that call, or is unlinked if that
// call has been forgotten since. Nothing changes if the flow has moved
// on or its change was already judged.
func (c *Cache) Revert(f *Flow, call *Call) {
	st := c.stripeFor(f.hash)
	st.mu.Lock()
	if f.claim.Load() != call || f.owner.Load() != call {
		st.mu.Unlock()
		return
	}
	prev := f.prev
	if prev == nil {
		st.unlinkLocked(f)
		st.mu.Unlock()
		c.disarmFlow(f, false)
		return
	}
	st.mu.Unlock()
	// Handing f back to prev is an ownership change: prev's registry
	// stripe first, so prev cannot be forgotten halfway through.
	cs := prev.stripe
	cs.mu.Lock()
	st.mu.Lock()
	if f.claim.Load() == call && f.owner.Load() == call && f.prev == prev {
		if prev.state.Load() == callGone {
			st.unlinkLocked(f)
		} else {
			f.owner.Store(prev)
			f.shardIdx = prev.shard
			f.claim.Store(nil)
			f.prev = nil
		}
	}
	st.mu.Unlock()
	cs.mu.Unlock()
	c.disarmFlow(f, true)
}

// unlinkLocked takes f out of the stripe's chain for its hash and out
// of the front table, and drops its owner and claim. Caller holds
// st.mu.
func (st *stripe) unlinkLocked(f *Flow) {
	if slot := st.slot(f.hash); *slot == f {
		*slot = nil
	}
	if st.flows[f.hash] == f {
		if f.next == nil {
			delete(st.flows, f.hash)
		} else {
			st.flows[f.hash] = f.next //vids:alloc-ok overwrites a key already present, which never grows the map
		}
	} else {
		for g := st.flows[f.hash]; g != nil; g = g.next {
			if g.next == f {
				g.next = f.next
				break
			}
		}
	}
	f.next = nil
	f.owner.Store(nil)
	f.claim.Store(nil)
	f.prev = nil
	st.size--
}

// Call is one call's record in the registry. The record outlives the
// call's monitor: it stays registered, closed, for as long as the
// detector keeps the call's tombstone, so the call's stragglers still
// reach its shard.
type Call struct {
	// ID is the Call-ID, interned once when the record is created.
	ID     string
	shard  int
	stripe *callStripe // the registry stripe the record lives in
	// state is one of the call* states. Open, Forget, Abandon and the
	// slow path of Adopt change it under the record's registry stripe;
	// the detector's own transitions — Adopt's open → live and Close —
	// are single atomic operations.
	state atomic.Uint32
	// held and more list the flows the call has owned: the first two
	// inline, any further ones in a slice copied on write. They are
	// written under the registry stripe and read without a lock by
	// DisarmFlows. A flow another call took since stays listed; every
	// reader checks owner.
	held [2]atomic.Pointer[Flow]
	more atomic.Pointer[[]*Flow]
}

// The states of a Call.
const (
	// callOpen: an INVITE opened the record at ingress and no detector
	// has adopted it yet.
	callOpen uint32 = iota + 1
	// callLive: the call's monitor holds the record.
	callLive
	// callClosed: the detector evicted the call and keeps its
	// tombstone. Nothing installs into a closed record.
	callClosed
	// callGone: the record has left the registry.
	callGone
)

// Closed reports whether the call's detector has evicted it and keeps
// its tombstone.
//
//vids:noalloc one atomic load per response on a known call
func (call *Call) Closed() bool { return call.state.Load() == callClosed }

// hold lists f among the call's flows. Caller holds the call's registry
// stripe.
func (call *Call) hold(f *Flow) {
	if call.listed(f) {
		return // listed since the call last owned it
	}
	for i := range call.held {
		if call.held[i].Load() == nil {
			call.held[i].Store(f)
			return
		}
	}
	var prev []*Flow
	if p := call.more.Load(); p != nil {
		prev = *p
	}
	list := make([]*Flow, len(prev), len(prev)+1) //vids:alloc-ok copy-on-write past a call's first two flows, per SDP observation: the published slice header and its array are new
	copy(list, prev)
	list = append(list, f)
	call.more.Store(&list)
}

// listed reports whether f is among the call's flows.
func (call *Call) listed(f *Flow) bool {
	for i := range call.held {
		if call.held[i].Load() == f {
			return true
		}
	}
	if p := call.more.Load(); p != nil {
		for _, g := range *p {
			if g == f {
				return true
			}
		}
	}
	return false
}

// callStripe is one lock stripe of the call registry.
type callStripe struct {
	mu    sync.Mutex
	calls map[string]*Call
	// pad keeps the next stripe's mutex off this one's cache line.
	_ [48]byte
}

// CallHash is the FNV-1a hash of a Call-ID, the hash the registry
// stripes records by and the engine maps a Call-ID to its shard with
// (engine.ShardIndexForHash): a datagram's route hashes its Call-ID
// once for both.
//
//vids:noalloc per-SIP-datagram Call-ID hash
func CallHash(callID []byte) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(callID); i++ {
		h ^= uint32(callID[i])
		h *= 16777619
	}
	return h
}

// fnv32a is CallHash over a Call-ID held as a string.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (c *Cache) callStripe(h uint32) *callStripe {
	return &c.reg[h&(stripeCount-1)]
}

// Open registers the call an INVITE names on shardIdx, or finds its
// record, and reports whether this INVITE opened it: created it, or
// reopened a closed call (a new INVITE on an evicted Call-ID starts the
// call over, as it does in the detector). A record the INVITE opened
// and no detector adopts — its queue dropped the INVITE — is taken out
// again with Abandon.
//
//vids:noalloc one registry probe per INVITE; a new Call-ID allocates its record
func (c *Cache) Open(callID []byte, h uint32, shardIdx int) (*Call, bool) {
	cs := c.callStripe(h)
	cs.mu.Lock()
	call := cs.calls[string(callID)]
	opened := call == nil
	if opened {
		call = &Call{ID: string(callID), shard: shardIdx, stripe: cs} //vids:alloc-ok one record and its interned Call-ID per call
		call.state.Store(callOpen)
		cs.calls[call.ID] = call //vids:alloc-ok one entry per call; forgotten with its tombstone
	} else if call.state.Load() == callClosed {
		call.state.Store(callOpen)
		opened = true
	}
	cs.mu.Unlock()
	return call, opened
}

// Find returns the registered record for callID, whose CallHash is h,
// or nil: the ingress tier's one probe for every SIP datagram but an
// INVITE.
//
//vids:noalloc one registry probe per SIP datagram
//vids:nopanic keyed by attacker-controlled Call-ID bytes
func (c *Cache) Find(callID []byte, h uint32) *Call {
	cs := c.callStripe(h)
	cs.mu.Lock()
	call := cs.calls[string(callID)]
	cs.mu.Unlock()
	return call
}

// DisarmFlows invalidates every flow call owns, through its handles
// and with atomics only. The ingress calls it for each SIP datagram of
// the call before enqueueing it, so any signaling that could change
// what the call's RTP means happens-before the next absorption
// decision — the adversarial "RTP racing BYE" interleaving resolves
// exactly as the serialized slow path would.
//
//vids:noalloc per-SIP-datagram invalidation on the ingestion path
//vids:nopanic per-datagram invalidation of attacker-driven flow state
func (c *Cache) DisarmFlows(call *Call) {
	for i := range call.held {
		if f := call.held[i].Load(); f != nil && f.owner.Load() == call {
			c.disarmFlow(f, true)
		}
	}
	if p := call.more.Load(); p != nil {
		for _, f := range *p {
			if f.owner.Load() == call {
				c.disarmFlow(f, true)
			}
		}
	}
}

// DisarmCall is DisarmFlows for the record of callID, if any.
func (c *Cache) DisarmCall(callID []byte) {
	if call := c.Find(callID, CallHash(callID)); call != nil {
		c.DisarmFlows(call)
	}
}

// Adopt makes call the record of a monitor the detector creates and
// returns the record registered for its Call-ID: call itself, re-inserted
// if it has left the registry (its INVITE's queue dropped an earlier
// copy of the INVITE and Abandon took it out), or the record the
// ingress opened since for the same Call-ID.
func (c *Cache) Adopt(call *Call) *Call {
	if call.state.CompareAndSwap(callOpen, callLive) {
		return call // the common case: the INVITE that opened it
	}
	cs := call.stripe
	cs.mu.Lock()
	if call.state.Load() == callGone {
		if cur := cs.calls[call.ID]; cur != nil {
			call = cur
		} else {
			cs.calls[call.ID] = call //vids:alloc-ok re-inserts a record its dropped INVITE abandoned, once per such call
		}
	}
	call.state.Store(callLive)
	cs.mu.Unlock()
	return call
}

// Close marks call closed — the detector evicted it — and disarms its
// flows. The flows keep routing the call's stragglers to its shard
// until Forget. An install that read the record live before the store
// lands its flow disarmed, and nothing arms a flow of a call its
// detector has evicted.
func (c *Cache) Close(call *Call) {
	call.state.Store(callClosed)
	c.DisarmFlows(call)
}

// Forget takes a closed call out of the registry with every flow it
// still owns: the detector's tombstone for it expired. A record an
// INVITE reopened since stays, for the detector that will adopt it.
func (c *Cache) Forget(call *Call) {
	cs := call.stripe
	cs.mu.Lock()
	if call.state.Load() == callClosed {
		c.removeLocked(cs, call)
	}
	cs.mu.Unlock()
}

// Abandon takes out a record whose opening INVITE will reach no
// detector (its queue dropped it, or the engine closed) while no
// detector has adopted it.
func (c *Cache) Abandon(call *Call) {
	cs := call.stripe
	cs.mu.Lock()
	if call.state.CompareAndSwap(callOpen, callGone) { // not if Adopt won
		c.removeLocked(cs, call)
	}
	cs.mu.Unlock()
}

// Remove takes the record of callID out of the registry, whatever its
// state, with every flow it owns. A destination another call has since
// re-advertised belongs to that call and stays. Each record is disarmed
// as it goes, so a handle an in-flight escalation still pins keeps
// failing closed.
func (c *Cache) Remove(callID string) {
	cs := c.callStripe(fnv32a(callID))
	cs.mu.Lock()
	if call := cs.calls[callID]; call != nil {
		c.removeLocked(cs, call)
	}
	cs.mu.Unlock()
}

// removeLocked takes call out of the registry and unlinks the flows it
// owns. Caller holds cs, call's registry stripe, and call has not left
// the registry, so the entry for its Call-ID is call.
func (c *Cache) removeLocked(cs *callStripe, call *Call) {
	call.state.Store(callGone)
	delete(cs.calls, call.ID)
	for i := range call.held {
		if f := call.held[i].Swap(nil); f != nil {
			c.unlinkOwned(f, call)
		}
	}
	if p := call.more.Swap(nil); p != nil {
		for _, f := range *p {
			c.unlinkOwned(f, call)
		}
	}
}

// unlinkOwned unlinks f if call still owns it.
func (c *Cache) unlinkOwned(f *Flow, call *Call) {
	st := c.stripeFor(f.hash)
	st.mu.Lock()
	owned := f.owner.Load() == call
	if owned {
		st.unlinkLocked(f)
	}
	st.mu.Unlock()
	if owned {
		c.disarmFlow(f, false)
	}
}

// LastSeen reports when f last absorbed a packet (virtual timeline),
// read under the stripe of f's hash. The idle-eviction sweep consults
// it so a call whose media is being absorbed — and therefore never
// refreshes the monitor's LastActivity — is not evicted as idle.
//
//vids:noalloc one stripe lock per flow of an idle-looking call in the sweep
//vids:nopanic reads a flow record through its handle
func (c *Cache) LastSeen(f *Flow) time.Duration {
	st := c.stripeFor(f.hash)
	st.mu.Lock()
	seen := f.lastSeen
	st.mu.Unlock()
	return seen
}

// Counters reports the lifetime outcome counts, the table's size and
// the registry's,
// summing the stripe-local tallies (one lock hop per stripe —
// reporting is cold next to the stream it counts).
func (c *Cache) Counters() Stats {
	st := Stats{Invalidations: c.invalidations.Load()}
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Escalations += s.escalations
		st.Flows += uint64(s.size)
		s.mu.Unlock()
		r := &c.reg[i]
		r.mu.Lock()
		st.Calls += uint64(len(r.calls))
		r.mu.Unlock()
	}
	return st
}
