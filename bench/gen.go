package main

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"vids/internal/bufpool"
	"vids/internal/ids"
	"vids/internal/sim"
)

// The generator is a discrete-event scheduler over virtual time. Every
// live call or attack instance is a cursor into a script; cursors wait in
// a timing wheel keyed by the virtual time of their next packet. next
// pops the earliest cursor, renders its packet into a pooled buffer and
// re-queues the cursor. Virtual time follows the synthetic call timeline
// only: how fast the harness drains the generator does not change what
// the detectors see.

const (
	tick       = 250 * time.Microsecond // virtual-time resolution of the wheel
	wheelSlots = 1 << 14                // 4.096 s horizon: longer than any script delay
	maxCursors = 1 << 13
	maxPackets = 1 << 12 // more than queue depth + one detached batch can hold
	idxBits    = 12      // packet slot index width inside sim.Packet.SentAt
	idxMask    = 1<<idxBits - 1
	bufferSize = 2048 // receive-buffer capacity: one MTU-sized datagram plus the slot tag

	attackCalls = 5_000_000_000 // call numbers from here up belong to attack instances
	junkCalls   = 9_000_000_000 // and from here up to malformed datagrams
	instCalls   = 32            // call numbers reserved per attack instance
	instRing    = 1 << 13       // attack instances tracked at once
	classSlots  = 8             // instance id = round*classSlots + class
	maxExpect   = 4             // alerts one attack instance can raise
)

// route says which endpoints of a call a packet travels between.
type route uint8

const (
	sigAB route = iota // caller signaling -> callee signaling
	sigBA
	medAB // caller's stream, landing on the port the 200's SDP advertised
	medBA // callee's stream, landing on the port the INVITE's SDP advertised
	ctlAB // RTCP beside medAB
	ctlBA
	ctlXA // RTCP from an off-path port toward the caller's media port
)

const (
	fReport uint8 = 1 << iota // emitted only on the call's RTCP report iterations
	fFresh                    // takes a fresh call number (floods, reflections, junk)
	fSpread                   // callee-side host rotates per packet (reflectors)
	fJump                     // RTP sequence jumps past the spam window
)

type step struct {
	k     kind
	route route
	flags uint8
	dt    time.Duration // virtual delay after this cursor's previous packet
}

// script is a packet sequence with at most one loop, [loopStart, loopEnd).
type script struct {
	steps              []step
	loopStart, loopEnd int
}

func linear(steps ...step) *script { return &script{steps: steps, loopStart: -1, loopEnd: -1} }

const ms = time.Millisecond

// callScript is one benign dialog: INVITE/180/200/ACK, n RTP pairs at
// the 20 ms G.729 cadence with periodic sender reports, BYE/200 after
// hold. The loop runs zero times for a signaling-only call.
func callScript(hold time.Duration) *script {
	return &script{
		steps: []step{
			{k: kInvite, route: sigAB},
			{k: kRinging, route: sigBA, dt: 10 * ms},
			{k: kOK, route: sigBA, dt: 10 * ms},
			{k: kAck, route: sigAB, dt: 20 * ms},
			{k: kRTP, route: medAB, dt: 19 * ms},
			{k: kRTP, route: medBA, dt: 1 * ms},
			{k: kSR, route: ctlAB, flags: fReport},
			{k: kSR, route: ctlBA, flags: fReport},
			{k: kBye, route: sigAB, dt: hold},
			{k: kByeOK, route: sigBA, dt: 20 * ms},
		},
		loopStart: 4, loopEnd: 8,
	}
}

// Attack classes, one instance of each per round. They mirror what
// engine.Synthesize(Attacks: true) scripts.
const (
	aFlood    = iota // INVITE flood at one address-of-record
	aReflect         // reflected responses for calls the victim never made (DRDoS)
	aSpoofBye        // spoofed BYE, both parties keep talking: bye-dos + toll-fraud
	aRTCPBye         // forged RTCP BYE while the dialog stays established
	aSpam            // RTP at a destination no SDP advertised, with a sequence jump
	aRegister        // REGISTER crossing the edge
	aUnknown         // in-dialog request for a call never seen
	nClasses
)

var classNames = [nClasses]string{"invite-flood", "drdos", "spoofed-bye", "rtcp-bye", "media-spam", "rogue-register", "unknown-call"}

const (
	floodLen  = 22  // past FloodN = 20 inside one T1 window
	attackRTP = 50  // RTP pairs of the calls the media attacks ride on
	spamLen   = 150 // in-profile packets before the jump
)

func attackScript(class int) (*script, int32) {
	call := callScript(20 * ms).steps
	switch class {
	case aFlood:
		return &script{steps: []step{{k: kInvite, route: sigAB, flags: fFresh, dt: 10 * ms}}, loopStart: 0, loopEnd: 1}, floodLen
	case aReflect:
		return &script{steps: []step{{k: kByeOK, route: sigBA, flags: fFresh | fSpread, dt: 10 * ms}}, loopStart: 0, loopEnd: 1}, floodLen
	case aSpoofBye:
		// The BYE tears the call down while both directions keep sending
		// past ByeGraceT.
		s := append(append([]step(nil), call[:6]...), call[8:]...)
		s = append(s,
			step{k: kRTP, route: medAB, dt: 500 * ms},
			step{k: kRTP, route: medBA, dt: 1 * ms})
		return &script{steps: s, loopStart: 4, loopEnd: 6}, attackRTP
	case aRTCPBye:
		// The forged BYE arrives mid-call; the real hang-up follows after
		// RTCPByeGrace has run out.
		s := append([]step(nil), call[:6]...)
		s = append(s,
			step{k: kRTCPBye, route: ctlXA, dt: 40 * ms},
			step{k: kBye, route: sigAB, dt: 2200 * ms},
			step{k: kByeOK, route: sigBA, dt: 20 * ms})
		return &script{steps: s, loopStart: 4, loopEnd: 6}, attackRTP
	case aSpam:
		// Two jumps: should an idle sweep forget the stream just before
		// the first, that one only re-baselines the new monitor and the
		// second still trips it, as it would in the reference.
		return &script{steps: []step{
			{k: kRTP, route: medAB, dt: 20 * ms},
			{k: kRTP, route: medAB, flags: fJump, dt: 20 * ms},
			{k: kRTP, route: medAB, flags: fJump, dt: 20 * ms},
		}, loopStart: 0, loopEnd: 1}, spamLen
	case aRegister:
		return linear(step{k: kRegister, route: sigAB}, step{k: kRegisterOK, route: sigBA, dt: 20 * ms}), 0
	default:
		return linear(step{k: kAck, route: sigAB, flags: fFresh}), 0
	}
}

// Cursor roles: a packet cursor walks a script; the others only spawn.
const (
	rolePacket  = iota
	roleArrival // starts one benign call and re-arms itself
	roleRound   // starts one instance of every attack class
)

type cursor struct {
	self  int32 // index in gen.cur
	next  int32 // wheel or free-list link
	role  uint8
	class uint8
	sc    *script
	pc    int
	iter  int32 // loop iterations done
	n     int32 // loop iterations wanted; -1 = until the generator drains
	phase int32 // iteration (mod srEvery) on which this call sends reports
	at    time.Duration
	inst  int64  // attack instance id, -1 for benign traffic
	ord   int32  // packets this instance has emitted
	jump  uint32 // RTP sequence numbers skipped so far
	v     [nFields]uint64
}

// expect is one alert an attack class raises, as the verify phase
// learned it from the sequential reference: its type, and what makes it
// fire — the ord-th packet of the instance, or (ord < 0) a timer that
// expires off after the instance's first packet.
type expect struct {
	typ ids.AlertType
	ord int32
	off time.Duration
}

// instance is the alert ledger of one live attack instance.
type instance struct {
	id   atomic.Int64
	seen atomic.Uint32           // bit per expectation already matched
	trig [maxExpect]atomic.Int64 // wall due time of each expectation's trigger packet
}

type pendingTimer struct {
	deadline time.Duration
	inst     int64
	slot     int
}

type gen struct {
	w    *workload
	wire *wire
	rng  *rand.Rand
	pool *bufpool.Pool

	heads, tails []int32 // wheel slot lists of cursor indices, -1 = empty
	now          int64   // current tick
	queued       int     // cursors in the wheel
	cur          []cursor
	freeCur      int32

	pkts       []sim.Packet
	freeLocal  []int32 // producer-private free packet slots
	freeMu     sync.Mutex
	freeShared []int32       // slots released by retire hooks on any goroutine
	boxes      [][nKinds]any // per adopted buffer: its payload slices, boxed once
	scripts    [nClasses]*script
	scriptN    [nClasses]int32
	call       *script

	nextCall  uint64
	nextJunk  uint64
	round     int64
	started   int // benign calls started
	draining  bool
	roundGap  time.Duration
	junkEvery time.Duration

	// Attack bookkeeping. expects is set once, before the timed phases.
	expects   [nClasses][]expect
	inst      []instance
	lastInst  atomic.Int64 // highest instance id started
	timers    []pendingTimer
	expected  int // alerts the started instances must raise
	emitted   [nKinds]uint64
	lastKind  kind  // of the packet next just returned
	lastClass int   // its attack class; -1 benign
	lastID    int64 // its instance
	lastOrd   int32 // and its ordinal inside the instance
}

func newGen(w *workload, wr *wire, seed int64, pool *bufpool.Pool) *gen {
	g := &gen{
		w: w, wire: wr, pool: pool,
		rng:        rand.New(rand.NewSource(seed)),
		heads:      make([]int32, wheelSlots),
		tails:      make([]int32, wheelSlots),
		cur:        make([]cursor, maxCursors),
		pkts:       make([]sim.Packet, maxPackets),
		freeLocal:  make([]int32, 0, maxPackets),
		freeShared: make([]int32, 0, maxPackets),
		timers:     make([]pendingTimer, 0, 256),
		call:       callScript(w.hold),
		nextJunk:   junkCalls,
	}
	// The seed places the run in the call-number space, so even a mix
	// with fixed spacing differs from seed to seed in every Call-ID, host,
	// address-of-record and port.
	g.nextCall = 1 + uint64(g.rng.Intn(1<<24))
	for i := range g.heads {
		g.heads[i], g.tails[i] = -1, -1
	}
	for i := range g.cur {
		g.cur[i].next = int32(i) + 1
	}
	g.cur[maxCursors-1].next = -1
	for i := maxPackets - 1; i >= 0; i-- {
		g.freeLocal = append(g.freeLocal, int32(i))
	}
	g.lastInst.Store(-1)

	c := g.alloc()
	c.role = roleArrival
	g.push(c)
	if w.attacks {
		g.inst = make([]instance, instRing)
		for i := range g.inst {
			g.inst[i].id.Store(-1)
		}
		perRound := 0
		for class := range g.scripts {
			g.scripts[class], g.scriptN[class] = attackScript(class)
			sc, n := g.scripts[class], int(g.scriptN[class])
			perRound += len(sc.steps) + (sc.loopEnd-sc.loopStart)*(n-1)
		}
		// Background packets per virtual second, then the round and junk
		// spacing that make attacks attackShare and junk junkShare of all.
		background := float64(time.Second) / float64(w.arrival) * float64(6+2*w.meanPairs+1)
		total := background / (1 - attackShare)
		g.junkEvery = quantize(time.Duration(float64(time.Second) / (total * junkShare)))
		g.roundGap = quantize(time.Duration(float64(time.Second) * float64(perRound) / (total * (attackShare - junkShare))))
		r := g.alloc()
		r.role = roleRound
		r.at = quantize(g.roundGap / 2)
		g.push(r)
		j := g.alloc()
		j.sc = &script{steps: []step{{k: kMalformed, route: sigAB, flags: fFresh, dt: g.junkEvery}}, loopStart: 0, loopEnd: 1}
		j.n = -1
		j.at = g.junkEvery
		g.push(j)
	}
	return g
}

const (
	attackShare = 0.20 // of attack_mix packets, junk included
	junkShare   = 0.01
)

func quantize(d time.Duration) time.Duration {
	if d < tick {
		return tick
	}
	return d / tick * tick
}

func (g *gen) alloc() *cursor {
	i := g.freeCur
	if i < 0 {
		panic("bench: generator cursors exhausted")
	}
	c := &g.cur[i]
	g.freeCur = c.next
	*c = cursor{self: i, inst: -1}
	return c
}

func (g *gen) free(c *cursor) {
	c.next = g.freeCur
	g.freeCur = c.self
}

// push queues c at its virtual time, behind everything already due then.
func (g *gen) push(c *cursor) {
	t := int64(c.at / tick)
	if t < g.now {
		t = g.now
	}
	if t-g.now >= wheelSlots {
		panic("bench: script delay beyond the wheel horizon")
	}
	s := t & (wheelSlots - 1)
	i := c.self
	c.next = -1
	if g.tails[s] < 0 {
		g.heads[s] = i
	} else {
		g.cur[g.tails[s]].next = i
	}
	g.tails[s] = i
	g.queued++
}

func (g *gen) pop() *cursor {
	if g.queued == 0 {
		return nil
	}
	for {
		s := g.now & (wheelSlots - 1)
		if i := g.heads[s]; i >= 0 {
			c := &g.cur[i]
			g.heads[s] = c.next
			if c.next < 0 {
				g.tails[s] = -1
			}
			g.queued--
			return c
		}
		g.now++
	}
}

// drain stops new calls, rounds and junk; next then runs the live calls
// to their hang-ups and reports false once the last packet is out.
func (g *gen) drain() { g.draining = true }

// next renders the stream's next packet into a free slot and reports the
// slot, the packet's virtual capture time, and false when the stream has
// ended (only after drain).
func (g *gen) next() (int32, time.Duration, bool) {
	for {
		c := g.pop()
		if c == nil {
			return 0, 0, false
		}
		switch c.role {
		case roleArrival:
			if g.draining || (g.w.resident > 0 && g.started == g.w.resident) {
				g.free(c)
				continue
			}
			g.startCall(c.at)
			gap := g.w.arrival
			if g.w.poisson {
				gap = quantize(time.Duration(g.rng.ExpFloat64() * float64(g.w.arrival)))
			}
			c.at += gap
			g.push(c)
			continue
		case roleRound:
			if g.draining {
				g.free(c)
				continue
			}
			g.startRound(c.at)
			c.at += g.roundGap
			g.push(c)
			continue
		}
		if g.draining && c.inst < 0 && c.sc != g.call {
			g.free(c) // the junk source
			continue
		}
		idx, at := g.emit(c), c.at
		if g.advance(c) {
			g.push(c)
		} else {
			g.free(c)
		}
		return idx, at, true
	}
}

// advance moves c to the next step it will emit and adds that step's
// delay; false when the script is done.
func (g *gen) advance(c *cursor) bool {
	sc := c.sc
	for {
		c.pc++
		if c.pc == sc.loopStart && c.n == 0 {
			c.pc = sc.loopEnd
		} else if c.pc == sc.loopEnd {
			c.iter++
			if c.iter < c.n || (c.n < 0 && !g.draining) {
				c.pc = sc.loopStart
			}
		}
		if c.pc >= len(sc.steps) {
			return false
		}
		st := &sc.steps[c.pc]
		if st.flags&fReport != 0 && c.iter%g.w.srEvery != c.phase {
			continue
		}
		c.at += st.dt
		return true
	}
}

func (g *gen) startCall(at time.Duration) {
	n := g.nextCall
	g.nextCall++
	g.started++
	c := g.alloc()
	c.sc, c.at = g.call, at
	port := 10000 + 2*((n/benignHosts)%20000)
	c.v = [nFields]uint64{fCall: n, fHostA: n % benignHosts, fHostB: n % benignHosts,
		fUserA: n % benignUsers, fUserB: n % benignUsers, fPortA: port, fPortB: port}
	c.phase = int32(n % uint64(g.w.srEvery))
	switch {
	case g.w.meanPairs == 0: // signaling only
	case g.w.resident > 0:
		c.n = -1
	default:
		c.n = 1 + int32(g.rng.ExpFloat64()*float64(g.w.meanPairs))
		if c.n > 8*int32(g.w.meanPairs) {
			c.n = 8 * int32(g.w.meanPairs)
		}
	}
	g.push(c)
}

// startRound starts one instance of every attack class, in seeded order
// at seeded offsets inside the round.
func (g *gen) startRound(at time.Duration) {
	round := g.round
	g.round++
	g.lastInst.Store(round*classSlots + classSlots - 1)
	for _, class := range g.rng.Perm(nClasses) {
		id := round*classSlots + int64(class)
		token := uint64(attackBase + id%attackRing)
		c := g.alloc()
		c.sc, c.n = g.scripts[class], g.scriptN[class]
		c.class, c.inst = uint8(class), id
		c.phase = -1 // attack calls send no reports
		c.at = at + quantize(time.Duration(g.rng.Int63n(int64(g.roundGap))))
		// Host names repeat every attackRing instances; the ports move on
		// with each lap, so no media key is ever reused.
		lap := 2 * (uint64(id) / attackRing % 5000)
		c.v = [nFields]uint64{fCall: attackCalls + uint64(id)*instCalls, fHostA: token, fHostB: token,
			fUserA: token, fUserB: token, fPortA: 20000 + lap, fPortB: 40000 + lap}
		if class == aFlood {
			c.v[fHostB] = 0 // the victim's proxy
		}

		rec := &g.inst[id%instRing]
		rec.seen.Store(0)
		for slot, e := range g.expects[class] {
			rec.trig[slot].Store(0)
			if e.ord < 0 {
				g.addTimer(pendingTimer{deadline: c.at + e.off, inst: id, slot: slot})
			}
		}
		rec.id.Store(id)
		g.expected += len(g.expects[class])
		g.push(c)
	}
}

func (g *gen) addTimer(t pendingTimer) {
	i := len(g.timers)
	g.timers = append(g.timers, t)
	for ; i > 0 && g.timers[i-1].deadline > t.deadline; i-- {
		g.timers[i] = g.timers[i-1]
	}
	g.timers[i] = t
}

// emit renders c's current step into a free packet slot.
func (g *gen) emit(c *cursor) int32 {
	st := &c.sc.steps[c.pc]
	if st.flags&fFresh != 0 {
		switch {
		case c.inst >= 0:
			c.v[fCall] = attackCalls + uint64(c.inst)*instCalls + uint64(c.ord)%instCalls
		case st.k == kMalformed:
			c.v[fCall] = g.nextJunk
			g.nextJunk++
		}
	}
	if st.flags&fSpread != 0 {
		c.v[fHostB] = uint64(c.iter % 7)
	}

	if len(g.freeLocal) == 0 {
		g.freeMu.Lock()
		g.freeLocal, g.freeShared = g.freeShared, g.freeLocal
		g.freeMu.Unlock()
		if len(g.freeLocal) == 0 {
			panic("bench: generator packet slots exhausted")
		}
	}
	idx := g.freeLocal[len(g.freeLocal)-1]
	g.freeLocal = g.freeLocal[:len(g.freeLocal)-1]

	buf := g.pool.Get()
	tag := binary.LittleEndian.Uint32(buf[bufferSize-4:])
	if tag == 0 {
		tag = g.adopt(buf)
	}

	hostA, hostB := g.wire.hostA.get(c.v[fHostA]), g.wire.hostB.get(c.v[fHostB])
	portA, portB := int(c.v[fPortA]), int(c.v[fPortB])
	p := &g.pkts[idx]
	p.Proto = sim.ProtoSIP
	switch st.route {
	case sigAB:
		p.From, p.To = sim.Addr{Host: hostA, Port: 5060}, sim.Addr{Host: hostB, Port: 5060}
	case sigBA:
		p.From, p.To = sim.Addr{Host: hostB, Port: 5060}, sim.Addr{Host: hostA, Port: 5060}
	case medAB:
		p.From, p.To = sim.Addr{Host: hostA, Port: portA}, sim.Addr{Host: hostB, Port: portB}
	case medBA:
		p.From, p.To = sim.Addr{Host: hostB, Port: portB}, sim.Addr{Host: hostA, Port: portA}
	case ctlAB:
		p.From, p.To = sim.Addr{Host: hostA, Port: portA + 1}, sim.Addr{Host: hostB, Port: portB + 1}
	case ctlBA:
		p.From, p.To = sim.Addr{Host: hostB, Port: portB + 1}, sim.Addr{Host: hostA, Port: portA + 1}
	case ctlXA:
		p.From, p.To = sim.Addr{Host: hostB, Port: 60001}, sim.Addr{Host: hostA, Port: portA + 1}
	}
	if st.k < kRTP {
		g.wire.tpl[st.k].render(buf, &c.v)
	} else {
		ssrc := ssrcCaller | uint32(c.v[fCall])&0x0FFFFFFF
		if st.route == medBA || st.route == ctlBA || st.route == ctlXA {
			ssrc ^= ssrcCaller ^ ssrcCallee
		}
		if st.flags&fJump != 0 {
			c.jump += 500
		}
		seq := uint32(c.iter) + 1 + c.jump
		g.wire.renderMedia(buf, st.k, ssrc, uint16(seq), seq*160)
		p.Proto = sim.ProtoRTCP
		if st.k == kRTP {
			p.Proto = sim.ProtoRTP
		}
	}
	p.Size = g.wire.length[st.k]
	p.Payload = g.boxes[tag-1][st.k]
	g.emitted[st.k]++

	g.lastKind, g.lastClass, g.lastID, g.lastOrd = st.k, -1, c.inst, c.ord
	if c.inst >= 0 {
		g.lastClass = int(c.class)
		c.ord++
	}
	return idx
}

// adopt tags a buffer the pool handed out for the first time and boxes
// its per-kind payload slices, so later packets in it allocate nothing.
func (g *gen) adopt(buf []byte) uint32 {
	var b [nKinds]any
	for k := range b {
		b[k] = buf[:g.wire.length[k]]
	}
	g.boxes = append(g.boxes, b)
	tag := uint32(len(g.boxes))
	binary.LittleEndian.PutUint32(buf[bufferSize-4:], tag)
	return tag
}

// stamp finishes the packet next just returned. The slot index always
// goes into SentAt, which the detection path never reads; the wall due
// time joins it when the packet is timed. Whether timed or not, due names
// the packet as trigger of every alert that its position in its attack
// instance, or an attack timer it is the first to outlive, makes due.
func (g *gen) stamp(idx int32, at time.Duration, due int64, timed bool) {
	g.pkts[idx].SentAt = time.Duration(idx)
	if timed {
		g.pkts[idx].SentAt |= time.Duration(due << idxBits)
	}
	if g.lastClass >= 0 {
		rec := &g.inst[g.lastID%instRing]
		for slot, e := range g.expects[g.lastClass] {
			if e.ord == g.lastOrd {
				rec.trig[slot].Store(due)
			}
		}
	}
	n := 0
	for n < len(g.timers) && g.timers[n].deadline < at {
		t := g.timers[n]
		if rec := &g.inst[t.inst%instRing]; rec.id.Load() == t.inst {
			rec.trig[t.slot].Store(due)
		}
		n++
	}
	if n > 0 {
		g.timers = g.timers[:copy(g.timers, g.timers[n:])]
	}
}

// release returns a retired packet's slot. Safe on any goroutine.
func (g *gen) release(pkt *sim.Packet) {
	g.freeMu.Lock()
	g.freeShared = append(g.freeShared, int32(int64(pkt.SentAt)&idxMask))
	g.freeMu.Unlock()
}

// inFlight reports packets handed out and not yet released. Producer only.
func (g *gen) inFlight() int {
	g.freeMu.Lock()
	n := maxPackets - len(g.freeLocal) - len(g.freeShared)
	g.freeMu.Unlock()
	return n
}

// dueOf extracts the wall due time stamp put into a packet; 0 = untimed.
func dueOf(pkt *sim.Packet) int64 { return int64(pkt.SentAt) >> idxBits }

// How match books an alert.
const (
	matched  = iota // the first alert of an expected type for its instance
	repeated        // an expected type the instance already raised
	spurious        // names no live instance, or a type its class does not raise
)

// match books an alert against the attack instance it names and reports
// the wall due time of the expectation's trigger packet (0 = untimed).
// The sequential reference raises an alert type again when an idle sweep
// forgets an unsolicited stream half-way, so a repeat is counted, not
// failed.
func (g *gen) match(a ids.Alert) (due int64, verdict int) {
	id := g.instanceOf(a)
	if id < 0 {
		return 0, spurious
	}
	rec := &g.inst[id%instRing]
	if rec.id.Load() != id {
		return 0, spurious
	}
	seen := rec.seen.Load()
	verdict = spurious
	for slot, e := range g.expects[id%classSlots] {
		if e.typ != a.Type {
			continue
		}
		if seen&(1<<slot) == 0 {
			rec.seen.Store(seen | 1<<slot)
			return rec.trig[slot].Load(), matched
		}
		verdict = repeated
	}
	return 0, verdict
}

// instanceOf names the attack instance an alert belongs to, from the
// call number in its Call-ID or the instance token in its target or
// source; -1 if it names none.
func (g *gen) instanceOf(a ids.Alert) int64 {
	if n, ok := callNumber(a.CallID); ok {
		if n < attackCalls || n >= junkCalls {
			return -1
		}
		return int64(n-attackCalls) / instCalls
	}
	for _, s := range [2]string{a.Target, a.Source} {
		if t, ok := token(s); ok {
			// The token is the id modulo the ring: take the newest
			// started instance with that residue.
			last := g.lastInst.Load()
			return last - ((last-t)%attackRing+attackRing)%attackRing
		}
	}
	return -1
}

func callNumber(callID string) (uint64, bool) {
	if len(callID) < 11 || callID[0] != 'c' {
		return 0, false
	}
	var n uint64
	for _, c := range []byte(callID[1:11]) {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return n, true
}

// token finds the first six-digit run in s that is an attack host or
// user number and returns it relative to attackBase.
func token(s string) (int64, bool) {
	for i := 0; i < len(s); {
		if s[i] < '0' || s[i] > '9' {
			i++
			continue
		}
		j, n := i, int64(0)
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			n = n*10 + int64(s[j]-'0')
			j++
		}
		if j-i == 6 && n >= attackBase {
			return n - attackBase, true
		}
		i = j
	}
	return 0, false
}
