// Package fastpath is the per-flow RTP validation cache consulted by
// the ingress lanes before shard enqueue. The observation (paper
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
//     call at ingress, RTCP toward the flow, worker-side monitor
//     transitions, SDP re-install). An arm request carries the epoch
//     its packet was enqueued under and is rejected if the entry has
//     since been invalidated — a stale arm cannot resurrect a flow a
//     BYE already disarmed.
//   - inflight: the number of escalated packets of this flow inside
//     the shard queue. Arming is refused unless the arming packet is
//     the only one in flight, so machine variables can never lag
//     behind queued slow-path packets when absorption starts.
//   - gen: the owning CallMonitor's recycle generation, captured at
//     arm time and checked before a resync snapshot is applied, tying
//     cache lifetime to the PR-4 monitor recycle machinery.
//
// When an armed flow is invalidated or a predicate fails, the first
// escalated packet carries a snapshot of the absorbed window state;
// the worker applies it to the machine before delivering that packet,
// so the machine sees exactly the variable evolution it would have
// computed had it processed every absorbed packet itself.
package fastpath

import (
	"sync"
	"sync/atomic"
	"time"

	"vids/internal/metrics"
	"vids/internal/rtp"
)

// Config carries the mirrored detector thresholds (ids.RTPThresholds)
// and the stripe count. Zero thresholds are safe: the window predicate
// then rejects every advancing packet and traffic simply escalates.
type Config struct {
	// Stripes is the lock-stripe count, rounded up to a power of two.
	// Zero means 64.
	Stripes     int
	SeqGap      uint16
	TSGap       uint32
	RateWindow  time.Duration
	RatePackets int
	// RefreshEvery throttles Consult's Touch signal: at most one
	// absorbed packet per interval per flow asks the caller to refresh
	// its routing/liveness bookkeeping. Zero disables the signal (for
	// callers with no sweeps to feed).
	RefreshEvery time.Duration
}

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

// Verdict is the outcome of a Lookup.
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
// invalidation paths (per-SIP-datagram DisarmCall) never take stripe
// locks.
type Flow struct {
	// state packs the invalidation epoch and the armed bit:
	// epoch<<1 | armed. Install starts it at 1<<1 (epoch 1, disarmed)
	// so the zero epoch never matches a real entry.
	state    atomic.Uint64
	needSync atomic.Bool
	inflight atomic.Int64

	callID string // interned by the installer; indexes byCall
	key    string // interned media key; lets the hot-slot probe verify a match
	hash   uint32 // FNV-1a of key, as computed by stripeHash

	// Guarded by the owning stripe's mutex.
	gen      uint32
	payload  uint8
	ssrc     uint32
	seq      uint16
	ts       uint32
	winStart time.Duration
	winCount int
	lastSeen time.Duration
	// shardIdx mirrors the owning call's shard so Consult can hand the
	// routing decision back without a second table; lastRefresh is the
	// last time a Hit carried the Touch signal.
	shardIdx    int
	lastRefresh time.Duration
}

// Release decrements the in-flight escalation count; the engine calls
// it once per escalated packet when the shard worker finishes with it
// (or when an overloaded queue drops it).
//
//vids:noalloc single atomic add per retired escalated packet
func (f *Flow) Release() { f.inflight.Add(-1) }

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

// hotSlots is the per-stripe direct-mapped front cache size. A slot
// remembers the last flow probed for its hash bucket so steady-state
// consults skip the Go map (its second hash, bucket walk) entirely;
// Install and Remove fix the slots under the stripe lock, and a stale
// slot can at worst point at a disarmed flow, which escalates.
const hotSlots = 8

type hotSlot struct {
	h uint32
	f *Flow // nil = empty
}

type stripe struct {
	mu    sync.Mutex
	flows map[string]*Flow
	hot   [hotSlots]hotSlot
	// Outcome tallies, guarded by mu: every consult already holds the
	// stripe lock when the outcome is known, so these are plain adds,
	// not atomics. Counters sums them across stripes.
	hits        uint64
	misses      uint64
	escalations uint64
	// pad keeps neighboring stripes' hot mutexes off one cache line.
	_ [40]byte
}

// hotIndex picks the slot for a key hash: the low bits chose the
// stripe, so the slot uses high bits to stay independent of it.
func hotIndex(h uint32) uint32 { return (h >> 16) & (hotSlots - 1) }

// Stats are the cache's lifetime counters.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Escalations   uint64
	Invalidations uint64
}

// Cache is the lock-striped flow table.
//
// Lock ordering: stripe mutexes are leaves of the ingress lane locks
// (Lookup/Install/Disarm run under a lane's mutex) and are never held
// across calls out of this package. byCallMu is acquired on its own,
// never nested with a stripe mutex. vidslint's lock gate observes both
// lane.mu orders from ingress's calls into this package and rejects
// any cycle with them.
type Cache struct {
	cfg     Config
	stripes []stripe
	mask    uint32

	// invalidations stays an atomic counter: disarm paths (DisarmCall,
	// worker-side hooks) run without the stripe lock.
	invalidations metrics.Counter

	// byCall maps an owning Call-ID to its flows so the per-SIP-packet
	// ingress invalidation (DisarmCall) finds them without knowing the
	// media keys. Mutated only on install/remove (SDP observation and
	// monitor eviction — cold); the disarm itself is atomics-only.
	byCallMu sync.RWMutex
	byCall   map[string][]*Flow
}

// New builds a cache for the given thresholds.
func New(cfg Config) *Cache {
	n := cfg.Stripes
	if n <= 0 {
		n = 64
	}
	// Round up to a power of two for mask indexing.
	p := 1
	for p < n {
		p <<= 1
	}
	c := &Cache{
		cfg:     cfg,
		stripes: make([]stripe, p),
		mask:    uint32(p - 1),
		byCall:  make(map[string][]*Flow),
	}
	for i := range c.stripes {
		c.stripes[i].flows = make(map[string]*Flow)
	}
	return c
}

//vids:noalloc per-packet stripe selection (FNV-1a over the media key)
func (c *Cache) stripeHash(key []byte) (*stripe, uint32) {
	h := uint32(2166136261)
	for _, b := range key {
		h = (h ^ uint32(b)) * 16777619
	}
	return &c.stripes[h&c.mask], h //vids:panic-ok mask is len(stripes)-1 with len a power of two, both fixed at New
}

func (c *Cache) stripeHashString(key string) (*stripe, uint32) {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return &c.stripes[h&c.mask], h
}

// Consult bundles everything the ingress tier needs to dispose of one
// RTP packet from a single cache probe: the verdict, the slow-path
// enqueue arguments, the owning call's shard, and the amortized
// liveness signal.
type Consult struct {
	Verdict Verdict
	// Flow is non-nil whenever an entry exists for the key; on
	// Miss/Escalate its in-flight count was incremented and the engine
	// must Release it exactly once.
	Flow    *Flow
	Epoch   uint64
	Snap    Snapshot
	HasSnap bool
	// ShardIdx is the owning call's shard, mirrored at install time —
	// meaningful whenever Flow is non-nil or the verdict is Hit.
	ShardIdx int
	// Touch is set on at most one Hit per RefreshEvery per flow: the
	// caller should refresh whatever routing/liveness bookkeeping the
	// absorbed stream no longer refreshes per packet.
	Touch bool
}

// Lookup consults the cache for one RTP packet. On Hit the packet was
// absorbed: flow state advanced, nothing to enqueue. On Miss/Escalate
// the caller must enqueue the packet to the owning shard carrying
// (flow, epoch, snap, hasSnap); flow is non-nil whenever an entry
// exists and its in-flight count was incremented — the engine must
// Release it exactly once.
//
//vids:noalloc the keyed consult: map probe, predicate, window update under one stripe lock
//vids:nopanic per-packet consult keyed by attacker-controlled header fields
func (c *Cache) Lookup(key []byte, pt uint8, ssrc uint32, seq uint16, ts uint32, at time.Duration) (v Verdict, f *Flow, epoch uint64, snap Snapshot, hasSnap bool) {
	var res Consult
	c.ConsultKey(key, pt, ssrc, seq, ts, at, &res)
	return res.Verdict, res.Flow, res.Epoch, res.Snap, res.HasSnap
}

// ConsultKey is Lookup writing the full ingress-facing bundle into
// res — shard routing and the Touch signal ride along, so an absorbed
// packet's whole disposition costs one stripe lock, no second table
// probe, and no 70-byte struct copy per return. Every field except
// Snap is overwritten; Snap is meaningful only when HasSnap is set.
//
//vids:noalloc the fast-path hit root: one stripe lock per RTP packet
//vids:nopanic per-packet consult keyed by attacker-controlled header fields
func (c *Cache) ConsultKey(key []byte, pt uint8, ssrc uint32, seq uint16, ts uint32, at time.Duration, res *Consult) {
	st, h := c.stripeHash(key)
	slot := &st.hot[hotIndex(h)] //vids:panic-ok hotIndex masks with hotSlots-1 and hot has exactly hotSlots entries
	st.mu.Lock()
	f := slot.f
	if f == nil || slot.h != h || f.key != string(key) {
		f = st.flows[string(key)]
		if f == nil {
			st.misses++
			st.mu.Unlock()
			res.Verdict, res.Flow, res.Epoch = Miss, nil, 0
			res.HasSnap, res.ShardIdx, res.Touch = false, 0, false
			return
		}
		slot.h, slot.f = h, f
	}
	c.consultLocked(st, f, pt, ssrc, seq, ts, at, res)
}

// consultLocked evaluates the fast-path predicate for f with st.mu
// held; it unlocks st.mu on every path.
//
//vids:noalloc shared predicate body of Lookup and ConsultKey
func (c *Cache) consultLocked(st *stripe, f *Flow, pt uint8, ssrc uint32, seq uint16, ts uint32, at time.Duration, res *Consult) {
	res.ShardIdx = f.shardIdx
	res.HasSnap, res.Touch = false, false
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
	if c.cfg.RefreshEvery > 0 && at-f.lastRefresh > c.cfg.RefreshEvery {
		f.lastRefresh = at
		res.Touch = true
	}
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
	st, _ := c.stripeHash(key)
	st.mu.Lock()
	f := st.flows[string(key)]
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

// Install registers an advertised media destination for callID,
// creating a disarmed entry (or invalidating the existing one — an
// SDP renegotiation changes what in-profile means). shardIdx is the
// owning call's shard, handed back from every Consult so the absorb
// path needs no routing table of its own. callID must be an
// interned/stable string; the cache aliases it. The returned record is
// stable for the entry's lifetime.
func (c *Cache) Install(key []byte, callID string, shardIdx int) *Flow {
	st, h := c.stripeHash(key)
	st.mu.Lock()
	f := st.flows[string(key)]
	if f != nil {
		prevCall := f.callID
		f.callID = callID
		f.shardIdx = shardIdx
		st.hot[hotIndex(h)] = hotSlot{h: h, f: f}
		st.mu.Unlock()
		c.disarmFlow(f, true)
		if prevCall != callID {
			c.byCallMu.Lock()
			c.byCallRemove(prevCall, f)
			c.byCall[callID] = append(c.byCall[callID], f) //vids:alloc-ok ownership reassignment is per-SDP-observation, cold next to the stream it validates
			c.byCallMu.Unlock()
		}
		return f
	}
	ks := string(key)                                               //vids:alloc-ok interns the key once per flow lifetime
	f = &Flow{callID: callID, key: ks, hash: h, shardIdx: shardIdx} //vids:alloc-ok one flow record per advertised destination, allocated per SDP observation
	f.state.Store(1 << 1)
	st.flows[ks] = f //vids:alloc-ok per-SDP-observation insert
	st.hot[hotIndex(h)] = hotSlot{h: h, f: f}
	st.mu.Unlock()
	c.byCallMu.Lock()
	c.byCall[callID] = append(c.byCall[callID], f) //vids:alloc-ok per-SDP-observation index append, cold next to the stream it validates
	c.byCallMu.Unlock()
	return f
}

// Disarm invalidates the flow at key (ingress RTCP path). No-op for
// unknown keys.
//
//vids:noalloc per-RTCP-datagram invalidation on the ingestion path
//vids:nopanic per-datagram invalidation keyed by attacker-controlled bytes
func (c *Cache) Disarm(key []byte) {
	st, _ := c.stripeHash(key)
	st.mu.Lock()
	f := st.flows[string(key)]
	st.mu.Unlock()
	if f != nil {
		c.disarmFlow(f, true)
	}
}

// Invalidate invalidates the flow at key (worker-side monitor
// transition hook: δ events, SDP re-index).
func (c *Cache) Invalidate(key string) {
	st, _ := c.stripeHashString(key)
	st.mu.Lock()
	f := st.flows[key]
	st.mu.Unlock()
	if f != nil {
		c.disarmFlow(f, true)
	}
}

// DisarmCall invalidates every flow owned by a Call-ID. The ingress
// calls this for each SIP datagram before enqueueing it, so any
// signaling that could change what the call's RTP means happens-before
// the next absorption decision — the adversarial "RTP racing BYE"
// interleaving resolves exactly as the serialized slow path would.
//
//vids:noalloc per-SIP-datagram invalidation on the ingestion path
//vids:nopanic per-datagram invalidation keyed by attacker-controlled bytes
func (c *Cache) DisarmCall(callID []byte) {
	c.byCallMu.RLock()
	flows := c.byCall[string(callID)]
	for _, f := range flows {
		c.disarmFlow(f, true)
	}
	c.byCallMu.RUnlock()
}

// Remove deletes the flow at key (monitor eviction/recycle: the call
// is gone, so is the mirror). The record is disarmed as it goes, so a
// handle a routing tier cached keeps failing closed — escalation, not
// absorption — until its own entry is torn down too.
func (c *Cache) Remove(key string) {
	st, h := c.stripeHashString(key)
	st.mu.Lock()
	f := st.flows[key]
	if f == nil {
		st.mu.Unlock()
		return
	}
	delete(st.flows, key)
	if slot := &st.hot[hotIndex(h)]; slot.f == f {
		slot.f = nil
	}
	st.mu.Unlock()
	c.disarmFlow(f, false)
	c.byCallMu.Lock()
	c.byCallRemove(f.callID, f)
	c.byCallMu.Unlock()
}

func (c *Cache) byCallRemove(callID string, f *Flow) {
	flows := c.byCall[callID]
	for i, g := range flows {
		if g == f {
			flows[i] = flows[len(flows)-1]
			flows[len(flows)-1] = nil
			flows = flows[:len(flows)-1]
			break
		}
	}
	if len(flows) == 0 {
		delete(c.byCall, callID)
	} else {
		c.byCall[callID] = flows //vids:alloc-ok shrinking in-place reslice store; runs per teardown/renegotiation, not per packet
	}
}

// LastSeen reports when the flow last absorbed a packet (virtual
// timeline). The idle-eviction sweep consults it so a call whose
// media is being absorbed — and therefore never refreshes the
// monitor's LastActivity — is not evicted as idle.
func (c *Cache) LastSeen(key string) (time.Duration, bool) {
	st, _ := c.stripeHashString(key)
	st.mu.Lock()
	f := st.flows[key]
	if f == nil {
		st.mu.Unlock()
		return 0, false
	}
	seen := f.lastSeen
	st.mu.Unlock()
	return seen, true
}

// Counters reports the lifetime outcome counts, summing the
// stripe-local tallies (one lock hop per stripe — reporting is cold
// next to the stream it counts).
func (c *Cache) Counters() Stats {
	st := Stats{Invalidations: c.invalidations.Load()}
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Escalations += s.escalations
		s.mu.Unlock()
	}
	return st
}
