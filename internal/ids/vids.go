package ids

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"

	"vids/internal/core"
	"vids/internal/idsgen"
	"vids/internal/intern"
	"vids/internal/rtp"
	"vids/internal/sdp"
	"vids/internal/sim"
	"vids/internal/sipmsg"
	"vids/internal/timerwheel"
)

// Backend selects how the per-call and cross-call EFSMs execute: the
// compiled tables of internal/idsgen (generated by cmd/specgen; the
// default) or the interpreted core.Machine walking the spec graphs.
// Both backends' machines implement core.MachineLike, a call's three
// run inside one core.System either way — the backend only picks which
// machines it holds — and the two are alert-multiset equivalent
// (asserted by the backend parity tests); the interpreted backend
// remains the executable reference the compiled one is generated from.
type Backend uint8

// Backend values. The zero value is the compiled backend so a
// zero-initialized Config gets the fast path.
const (
	BackendCompiled Backend = iota
	BackendInterpreted
)

// String names the backend for logs and experiment tables.
func (b Backend) String() string {
	if b == BackendInterpreted {
		return "interpreted"
	}
	return "compiled"
}

// Config parameterizes the detectors and the inline processing-cost
// model.
type Config struct {
	// Backend selects compiled (default) or interpreted EFSM
	// execution; see Backend.
	Backend Backend

	// FloodN and FloodT1 are Figure 4's threshold N and window T1.
	FloodN  int
	FloodT1 time.Duration

	// ResponseFloodN bounds SIP responses for unknown calls toward
	// one destination within FloodT1 before flagging a DRDoS
	// reflection attack (Section 3.1).
	ResponseFloodN int

	// ByeGraceT is Figure 5's timer T: how long in-flight RTP is
	// tolerated after a BYE. The paper recommends about one RTT.
	ByeGraceT time.Duration

	// RTCPByeGrace is how long vids waits for the signaling plane to
	// confirm a teardown after seeing an RTCP BYE. It must cover a
	// SIP retransmission cycle (a lost BYE retries after 500 ms), so
	// it is much larger than ByeGraceT.
	RTCPByeGrace time.Duration

	// RTP tracks the media-stream thresholds (Figure 6, Section 3.2).
	RTP RTPThresholds

	// SIPProcessing / RTPProcessing are the per-packet costs the
	// inline vids host adds while logging and analyzing (the paper's
	// Sun Ultra 10 logs at millisecond granularity, Section 7.3).
	// They reproduce the paper's ~100 ms setup-delay and ~1.5 ms RTP
	// delay overheads.
	SIPProcessing time.Duration
	RTPProcessing time.Duration

	// Prevention turns the inline vids into an intrusion *prevention*
	// system: packets belonging to a detected attack context (a
	// quarantined flood source, a call in an attack state, a stream
	// whose machine flagged an attack) are dropped instead of
	// forwarded. The paper cites prevention as VoIP security's future
	// ([16]); detection-only remains the default.
	Prevention bool

	// Quarantine is how long a source that contributed to a detected
	// INVITE flood stays blocked toward that destination in
	// prevention mode.
	Quarantine time.Duration

	// CrossProtocol enables the δ synchronization between the SIP and
	// RTP machines. Disabling it is the ablation of experiment A1 —
	// the paper's headline feature turned off.
	CrossProtocol bool

	// ExternalFloods disables this instance's own cross-call
	// detectors (INVITE flood, DRDoS response reflection and the
	// prevention quarantine): an embedding layer runs FloodWatch in
	// front of many IDS instances instead, as the online pipeline's
	// ingestion lanes do — per-destination windows must see the
	// destination's whole packet stream, not one shard's slice.
	// Responses for unknown calls are then counted but raise nothing
	// here.
	ExternalFloods bool

	// MediaHeaderOnly restricts media inspection to the cleartext RTP
	// header, the view an observer retains when calls use SRTP
	// (RFC 3711): SSRC, sequence and timestamp stay visible, so the
	// RTP protocol state machine and the Figure 6 thresholds keep
	// working, but payloads are ciphertext and RTCP compound packets
	// ride inside encrypted SRTCP — the forged-RTCP-BYE detector goes
	// blind. Detection degrades; it does not fail.
	MediaHeaderOnly bool

	// IdleEviction evicts call monitors with no traffic for this
	// long (safety net for calls that never reach a final state).
	IdleEviction time.Duration

	// CloseLinger keeps a monitor resident after all its machines
	// reach final states, so traffic arriving *after* the protocol
	// closed — the signature of BYE DoS and toll fraud (Figure 5) —
	// still meets the machines that can flag it.
	CloseLinger time.Duration
}

// DefaultConfig returns the calibrated defaults used by the
// experiments.
func DefaultConfig() Config {
	return Config{
		FloodN:         20,
		FloodT1:        time.Second,
		ResponseFloodN: 20,
		ByeGraceT:      250 * time.Millisecond,
		RTCPByeGrace:   2 * time.Second,
		RTP: RTPThresholds{
			SeqGap:      50,
			TSGap:       8000, // one second of 8 kHz samples
			RateWindow:  time.Second,
			RatePackets: 100, // 2x the G.729 50 pkt/s rate
		},
		SIPProcessing: 50 * time.Millisecond,
		RTPProcessing: 750 * time.Microsecond,
		Quarantine:    time.Minute,
		CrossProtocol: true,
		IdleEviction:  5 * time.Minute,
		CloseLinger:   10 * time.Second,
	}
}

// compiledParams projects the compiled backend's parameter block out
// of a Config: the Figure 6 media thresholds and the cross-protocol
// ablation switch, which are the only knobs the spec closures read.
func compiledParams(cfg Config) idsgen.Params {
	return idsgen.Params{
		SeqGap:        cfg.RTP.SeqGap,
		TSGap:         cfg.RTP.TSGap,
		RateWindow:    cfg.RTP.RateWindow,
		RatePackets:   cfg.RTP.RatePackets,
		CrossProtocol: cfg.CrossProtocol,
	}
}

// Timer kinds dispatched by (*IDS).fire and (*FloodWatch).fire. Each
// intrusive timerwheel.Timer carries one of these so a single
// wheel-wide callback can route expiries without per-arm closures.
const (
	timerKindTCaller uint8 = iota // Figure 5's timer T, caller stream
	timerKindTCallee              // Figure 5's timer T, callee stream
	timerKindRTCPGrace
	timerKindEvict
	timerKindSweep
	timerKindFloodWindow
	timerKindRespFloodWindow
)

// CallMonitor is one entry of the Call State Fact Base: the
// communicating machines tracking one call (paper Figure 2(b)).
// Monitors are pooled: eviction resets the machines and returns the
// whole record — maps, scratch and embedded timers included — to the
// IDS free list, so steady-state call churn allocates nothing. The
// generation counter gen increments on every recycle; timers snapshot
// it at arm time, so an expiry armed for a previous occupant of the
// record can never act on (or alert about) the call that now owns it.
type CallMonitor struct {
	CallID    string
	System    *core.System
	SIP       core.MachineLike
	RTPCaller core.MachineLike
	RTPCallee core.MachineLike

	Created      time.Duration
	LastActivity time.Duration

	raised map[string]bool // alert dedupe keys
	gen    uint32

	// Embedded lifecycle timers (armed on the owning IDS's wheel).
	timerTCaller timerwheel.Timer
	timerTCallee timerwheel.Timer
	rtcpTimer    timerwheel.Timer
	evictTimer   timerwheel.Timer

	// Pending RTCP-BYE grace context (valid while rtcpTimer is armed).
	rtcpSrc string
	rtcpKey string

	// Media-index keys owned by this call, so eviction removes exactly
	// its entries instead of scanning the whole index.
	mediaKeys []string
}

// mediaRef maps a media destination to the machine monitoring it.
type mediaRef struct {
	callID  string
	machine string
}

// IDS is the vids instance: Packet Classifier, Event Distributor,
// Call State Fact Base, Attack Scenarios, and Analysis Engine wired
// together (paper Figure 3).
type IDS struct {
	sim *sim.Simulator
	cfg Config

	callSpecs []*core.Spec // SystemSpecs: what an interpreted monitor runs
	spamSp    *core.Spec

	calls      map[string]*CallMonitor
	mediaIndex map[string]mediaRef
	fw         *FloodWatch                 // cross-call windowed detectors
	spamMons   map[string]core.MachineLike // standalone monitors by media key
	tombstones map[string]time.Duration    // recently evicted calls
	monPool    []*CallMonitor              // recycled monitors (free list)

	// params is the compiled-backend parameter block derived from cfg
	// once at construction (thresholds plus the cross-protocol switch).
	params idsgen.Params

	// wc drives every lifecycle timer — Figure 5's timer T, the RTCP
	// BYE grace, post-close eviction linger and the idle sweep — off
	// one hierarchical wheel anchored to the simulator clock.
	wc         *wheelClock
	sweepTimer timerwheel.Timer

	// strings interns Call-IDs, URIs, media keys and flood destinations
	// so the per-packet path reuses one stable copy per distinct key.
	strings *intern.Table

	// cover, when set via SetCoverage, observes every transition the
	// per-call systems and standalone monitors take (spec-coverage
	// tooling; nil in production).
	cover core.CoverageObserver

	// fp ties this instance to the shared ingress fast-path cache
	// (engine-installed via SetMediaFastpath; zero when disabled).
	fp MediaFastpath

	alerts  []Alert
	OnAlert func(Alert)
	// OnPacket, when set, observes every packet entering Process —
	// vids' own vantage point. Trace capture hooks in here so that a
	// replayed trace reproduces exactly what the live instance saw.
	OnPacket func(pkt *sim.Packet, at time.Duration)

	// Counters for the evaluation harness.
	sipPackets     uint64
	rtpPackets     uint64
	rtcpPackets    uint64
	parseErrors    uint64
	deviations     uint64
	evicted        uint64
	prevented      uint64
	strayResponses uint64        // unknown-call responses deferred to an external FloodWatch
	procWallTime   time.Duration // real host CPU spent inside Process

	// Per-packet scratch state. Process/ProcessSIP run single-threaded
	// per instance (the sharded engine gives each shard its own IDS),
	// so one reusable set keeps the classify→step path allocation-free:
	// parsed RTP/RTCP packets, typed event args, and the media-key
	// probe buffer for index lookups.
	rtpScratch  rtp.Packet
	rtcpScratch rtp.RTCP
	sipScratch  sipInput
	rtpArgsScr  rtpArgs
	keyBuf      []byte
}

// internTableCap bounds the per-instance string intern table at about
// twice this many entries — enough for the distinct Call-IDs, URIs,
// dialog tags and media keys (seven strings a call) of the resident
// call population plus recent churn, so that a call's BYE still finds
// the strings its INVITE interned.
const internTableCap = 8192

// New creates a vids instance bound to the simulator clock.
func New(s *sim.Simulator, cfg Config) *IDS {
	d := &IDS{
		sim:        s,
		cfg:        cfg,
		callSpecs:  SystemSpecs(cfg),
		spamSp:     spamSpec(cfg.RTP),
		calls:      make(map[string]*CallMonitor),
		mediaIndex: make(map[string]mediaRef),
		spamMons:   make(map[string]core.MachineLike),
		tombstones: make(map[string]time.Duration),
		strings:    intern.New(internTableCap),
		params:     compiledParams(cfg),
	}
	d.wc = newWheelClock(s, d.fire)
	d.sweepTimer.Kind = timerKindSweep
	d.fw = NewFloodWatch(s, cfg, func(a Alert) { d.raise(a, nil) })
	return d
}

// SetCoverage installs (or, with nil, removes) a core.CoverageObserver
// on every machine this instance runs — resident call monitors, the
// recycled pool, standalone spam monitors, and every monitor created
// later. cmd/speccover uses this to measure which spec transitions the
// test suites actually exercise; production leaves it nil, which
// alloc_test.go pins as allocation-free.
func (d *IDS) SetCoverage(obs core.CoverageObserver) {
	d.cover = obs
	for _, mon := range d.calls {
		mon.System.SetCoverage(obs)
	}
	for _, mon := range d.monPool {
		mon.System.SetCoverage(obs)
	}
	for _, m := range d.spamMons {
		m.SetCoverage(obs)
	}
	d.fw.SetCoverage(obs)
}

// fire dispatches one expired wheel timer. Call-scoped timers carry
// their monitor in Owner and a generation snapshot in Gen; a stale
// generation (the record was recycled onto another call) or a monitor
// no longer resident under its Call-ID makes the expiry a no-op.
//
//vids:noalloc timer expiry runs on the simulated-instant drain
func (d *IDS) fire(t *timerwheel.Timer) {
	if t.Kind == timerKindSweep {
		d.sweep()
		return
	}
	mon, _ := t.Owner.(*CallMonitor)
	if mon == nil || t.Gen != mon.gen || d.calls[mon.CallID] != mon {
		return
	}
	switch t.Kind {
	case timerKindTCaller:
		d.fireTimerT(mon, MachineRTPCaller)
	case timerKindTCallee:
		d.fireTimerT(mon, MachineRTPCallee)
	case timerKindRTCPGrace:
		d.fireRTCPGrace(mon)
	case timerKindEvict:
		d.evict(mon.CallID)
	}
}

// Config returns the active configuration.
func (d *IDS) Config() Config { return d.cfg }

// Transit returns the inline hook to install on the vids network
// node: every crossing packet is analyzed and delayed by the
// configured processing cost, then forwarded (the paper's placement
// between edge router and firewall, Figure 1).
func (d *IDS) Transit() sim.Transit {
	return func(pkt *sim.Packet) (time.Duration, bool) {
		d.Process(pkt)
		forward := true
		if d.cfg.Prevention && d.malicious(pkt) {
			d.prevented++
			forward = false
		}
		switch pkt.Proto {
		case sim.ProtoSIP:
			return d.cfg.SIPProcessing, forward
		case sim.ProtoRTP, sim.ProtoRTCP:
			return d.cfg.RTPProcessing, forward
		default:
			return 0, forward
		}
	}
}

// malicious decides, after the packet has been analyzed, whether it
// belongs to a detected attack context and should be blocked in
// prevention mode.
func (d *IDS) malicious(pkt *sim.Packet) bool {
	raw, ok := pkt.Payload.([]byte)
	if !ok {
		return false
	}
	switch pkt.Proto {
	case sim.ProtoSIP:
		m, err := sipmsg.Parse(raw)
		if err != nil {
			return true // unparseable traffic is dropped in prevention mode
		}
		if m.IsRequest() && m.Method == sipmsg.INVITE && m.To.Tag() == "" {
			dest := d.destKey(m.RequestURI.User, m.RequestURI.Host)
			if d.fw.Quarantined(dest, pkt.From.Host, d.sim.Now()) {
				return true
			}
		}
		if mon, ok := d.calls[m.CallID]; ok && mon.SIP.InAttack() {
			return true
		}
		return false
	case sim.ProtoRTP:
		d.keyBuf = appendMediaKey(d.keyBuf[:0], pkt.To.Host, pkt.To.Port)
		if ref, ok := d.mediaIndex[string(d.keyBuf)]; ok {
			if mon := d.calls[ref.callID]; mon != nil {
				machine, _ := mon.System.Find(ref.machine)
				if machine != nil && machine.InAttack() {
					return true
				}
			}
		}
		if sp, ok := d.spamMons[string(d.keyBuf)]; ok && sp.InAttack() {
			return true
		}
		return false
	default:
		return false
	}
}

// Prevented reports packets blocked in prevention mode.
func (d *IDS) Prevented() uint64 { return d.prevented }

// Observe is the passive (tap) entry point: analyze without delaying.
func (d *IDS) Observe(pkt *sim.Packet, _ time.Duration) { d.Process(pkt) }

// enter opens one packet's pass through the detector, whichever entry
// point it came in by: the instrumentation hook first, then the
// wall-clock stamp that leave charges to procWallTime.
func (d *IDS) enter(pkt *sim.Packet) time.Time {
	if d.OnPacket != nil {
		d.OnPacket(pkt, d.sim.Now()) //vids:alloc-ok trace/bench instrumentation hook; nil in production
	}
	return time.Now() //vidslint:allow wallclock — self-instrumentation, never feeds detection
}

// leave closes the pass enter opened. The entry points defer it as a
// plain method call, which needs no closure.
func (d *IDS) leave(start time.Time) { d.procWallTime += time.Since(start) }

// Process classifies one packet and distributes the resulting event
// to the protocol machines. It is the allocation-minimal hot path:
// RTP/RTCP decode into the instance's scratch packets instead of
// going through Classify's allocating form.
//
//vids:noalloc the per-packet detection path; budgets alloc_test.go:maxIDSProcess*
func (d *IDS) Process(pkt *sim.Packet) {
	start := d.enter(pkt)
	defer d.leave(start)

	raw, ok := pkt.Payload.([]byte)
	if !ok {
		d.parseErrors++
		return
	}
	switch pkt.Proto {
	case sim.ProtoSIP:
		m, err := sipmsg.Parse(raw)
		if err != nil {
			d.parseErrors++
			return
		}
		d.sipPackets++
		d.handleSIP(d.sipFromMessage(m, pkt), pkt)
	case sim.ProtoRTP:
		if d.cfg.MediaHeaderOnly {
			// SRTP: payload is ciphertext with a trailing auth tag;
			// only the cleartext header is meaningful.
			if err := rtp.ParseHeaderInto(&d.rtpScratch, raw); err != nil {
				d.parseErrors++
				return
			}
		} else if err := rtp.ParseInto(&d.rtpScratch, raw); err != nil {
			d.parseErrors++
			return
		}
		d.rtpPackets++
		d.handleRTP(&d.rtpScratch, pkt)
	case sim.ProtoRTCP:
		if err := rtp.ParseRTCPInto(&d.rtcpScratch, raw); err != nil {
			d.parseErrors++
			return
		}
		d.rtcpPackets++
		d.handleRTCP(&d.rtcpScratch, pkt)
	default:
		// Non-VoIP traffic is outside vids' scope.
	}
}

// ProcessSIP is the classify-bypass entry point: it distributes an
// already-parsed SIP message exactly as Process would after parsing.
// Together with Process it is the sequential reference the view-fed
// pipeline is held to.
//
//vids:noalloc the per-packet detection path for pre-parsed SIP
func (d *IDS) ProcessSIP(m *sipmsg.Message, pkt *sim.Packet) {
	start := d.enter(pkt)
	defer d.leave(start)

	d.sipPackets++
	d.handleSIP(d.sipFromMessage(m, pkt), pkt)
}

// ProcessSIPView is the pipeline's entry point: it distributes a SIP
// datagram the ingress lane already scanned, exactly as Process would
// after parsing it, without parsing it. v must be the sipmsg.Scan of
// pkt's payload and that scan must have answered ScanOK; the payload
// must stay untouched until the call returns (the engine retires the
// packet afterwards). Nothing here keeps a reference into the
// payload: every string a machine retains is interned.
//
//vids:noalloc the per-packet detection path for scanned SIP; interning allocates on first sight of a string only
func (d *IDS) ProcessSIPView(v *sipmsg.View, pkt *sim.Packet) {
	start := d.enter(pkt)
	defer d.leave(start)

	raw, ok := pkt.Payload.([]byte)
	if !ok {
		d.parseErrors++
		return
	}
	d.sipPackets++
	d.handleSIP(d.sipFromView(v, raw, pkt), pkt)
}

// ---------------------------------------------------------------------------
// SIP path
// ---------------------------------------------------------------------------

// sipInput is everything handleSIP reads of one SIP message: the typed
// event vector x the machines step on (paper Section 4.2: header
// fields, SDP body values, and the transport source/destination) and
// the two facts that decide what happens before any machine runs. It
// lives in the instance's scratch and is valid until the next SIP
// packet, which is fine because Deliver consumes it synchronously.
type sipInput struct {
	args sipArgs
	// method is the request method, "" for a response.
	method sipmsg.Method
	// floodDest is the interned destination AOR of an initial INVITE
	// while this instance runs its own flood windows, "" otherwise.
	floodDest string
}

// sipFromMessage fills the scratch input from a parsed message: the
// sequential reference's filler.
func (d *IDS) sipFromMessage(m *sipmsg.Message, pkt *sim.Packet) *sipInput {
	in := &d.sipScratch
	*in = sipInput{
		args: sipArgs{
			Src:        pkt.From.Host,
			CallID:     m.CallID,
			From:       d.internURI(m.From.URI),
			To:         d.internURI(m.To.URI),
			FromTag:    m.From.Tag(),
			ToTag:      m.To.Tag(),
			CseqMethod: string(m.CSeq.Method),
			Status:     m.StatusCode,
		},
		method: m.Method,
	}
	a := &in.args
	if m.Contact != nil {
		a.Contact = m.Contact.URI.Host
	}
	// One validating scan extracts the SDP media destination; both the
	// event vector and indexMedia read the scratch, so each message's
	// body is examined exactly once.
	if addr, port, payload, ok := sdp.MediaDest(m.Body); ok {
		a.SdpAddr = d.strings.Bytes(addr)
		a.SdpPort = port
		a.SdpPayload = payload
	}
	if m.Method == sipmsg.INVITE && a.ToTag == "" && !d.cfg.ExternalFloods {
		in.floodDest = d.destKey(m.RequestURI.User, m.RequestURI.Host)
	}
	return in
}

// sipFromView fills the scratch input from a scanned datagram: the
// pipeline's filler. The view's spans point into raw, which is handed
// back to the buffer pool once the packet retires, so every string
// that may outlive this packet — all of them, since any can end up in
// a machine variable or an alert — comes out of the intern table: an
// allocation on first sight of a Call-ID, tag, URI or host, a map
// probe on every later one.
//
//vids:noalloc fills the detector's inputs per scanned datagram; interning allocates on first sight only
//vids:nopanic reads attacker-controlled spans out of the receive buffer
func (d *IDS) sipFromView(v *sipmsg.View, raw []byte, pkt *sim.Packet) *sipInput {
	in := &d.sipScratch
	*in = sipInput{
		args: sipArgs{
			Src:        pkt.From.Host,
			CallID:     d.strings.Bytes(v.CallID.Of(raw)),
			From:       d.internURISpan(v.From, raw),
			To:         d.internURISpan(v.To, raw),
			FromTag:    d.internSpan(v.FromTag, raw),
			ToTag:      d.internSpan(v.ToTag, raw),
			Contact:    d.internSpan(v.ContactHost, raw),
			CseqMethod: string(v.CSeqMethod.Method()),
			Status:     int(v.Status),
		},
		method: v.Method.Method(),
	}
	a := &in.args
	if v.SDPAddr.Len > 0 {
		a.SdpAddr = d.strings.Bytes(v.SDPAddr.Of(raw))
		a.SdpPort = int(v.SDPPort)
		a.SdpPayload = int(v.SDPPayload)
	}
	if v.Method == sipmsg.MethodINVITE && a.ToTag == "" && !d.cfg.ExternalFloods {
		d.keyBuf = append(d.keyBuf[:0], v.RequestURI.User.Of(raw)...)
		d.keyBuf = append(d.keyBuf, '@')
		d.keyBuf = append(d.keyBuf, v.RequestURI.Host.Of(raw)...)
		in.floodDest = d.strings.Bytes(d.keyBuf)
	}
	return in
}

// internSpan interns the bytes s covers; the empty span is "" without
// touching the table.
func (d *IDS) internSpan(s sipmsg.Span, raw []byte) string {
	if s.Len == 0 {
		return ""
	}
	return d.strings.Bytes(s.Of(raw))
}

// internURISpan is internURI for a scanned URI.
func (d *IDS) internURISpan(u sipmsg.URISpan, raw []byte) string {
	d.keyBuf = append(d.keyBuf[:0], "sip:"...)
	if u.User.Len > 0 {
		d.keyBuf = append(d.keyBuf, u.User.Of(raw)...)
		d.keyBuf = append(d.keyBuf, '@')
	}
	d.keyBuf = append(d.keyBuf, u.Host.Of(raw)...)
	if u.Port != 0 {
		d.keyBuf = append(d.keyBuf, ':')
		d.keyBuf = strconv.AppendInt(d.keyBuf, int64(u.Port), 10)
	}
	return d.strings.Bytes(d.keyBuf)
}

// sipSummary renders the one-line message description alert details
// quote (sipmsg.Message.Summary) from the packet's bytes. The packet
// path carries no parsed message, so the rare packet that raises such
// an alert is parsed here.
//
//vids:coldpath alert text rendering; runs per raised alert, not per packet
func sipSummary(raw []byte) (callID, summary string) {
	m, err := sipmsg.Parse(raw)
	if err != nil {
		return "", "SIP message"
	}
	return m.CallID, m.Summary()
}

func (d *IDS) handleSIP(in *sipInput, pkt *sim.Packet) {
	now := d.sim.Now()
	a := &in.args

	if in.method == sipmsg.REGISTER {
		// All of this enterprise's phones register from inside the
		// edge, so any REGISTER vids sees came from outside: an
		// attempt to rebind a local address-of-record elsewhere.
		d.raise(Alert{
			At: now, Type: AlertRogueRegister,
			CallID: a.CallID,
			Source: pkt.From.Host, Target: a.To,
			Detail: "REGISTER crossing the enterprise edge",
		}, nil)
		return
	}

	if in.floodDest != "" {
		// Initial INVITE: feed the flood detector keyed by the
		// destination AOR (Figure 4 counts INVITEs per destination).
		d.fw.FeedInvite(in.floodDest, pkt.From.Host, now)
	}

	mon := d.calls[a.CallID]
	if mon == nil {
		if in.method == sipmsg.INVITE {
			mon = d.newMonitor(a.CallID, now)
		} else {
			if _, evicted := d.tombstones[a.CallID]; evicted {
				return // stragglers of an already-closed call
			}
			raw, _ := pkt.Payload.([]byte)
			if in.method == "" {
				if a.CseqMethod == string(sipmsg.REGISTER) {
					// The registrar's answer to a REGISTER that
					// already raised a rogue-register alert on its
					// way in; not a separate event.
					return
				}
				if d.cfg.ExternalFloods {
					// The embedding engine's shared FloodWatch owns
					// reflection detection; just account for it.
					d.strayResponses++
					return
				}
				// Responses for calls the destination never started:
				// count them toward the DRDoS reflection detector and
				// report the first as a deviation.
				d.fw.FeedStrayResponse(raw, pkt.To.Host, pkt.From.Host, now)
				return
			}
			// SIP requests for a call vids never saw begin: deviation.
			_, summary := sipSummary(raw)
			d.raise(Alert{
				At: now, Type: AlertDeviation, CallID: a.CallID,
				Source: pkt.From.Host, Target: pkt.To.Host,
				Detail: summary + " for unknown call", //vids:alloc-ok alert detail renders only when raising
			}, nil)
			return
		}
	}
	mon.LastActivity = now

	ev := core.Event{Name: sipEventName(in.method), Typed: a}

	// Register media destinations for the classifier before
	// delivering, so RTP routing is ready the moment SDP crosses.
	d.indexMedia(mon, in)

	results, err := mon.System.Deliver(MachineSIP, ev)
	d.consumeResults(mon, results, pkt)
	if d.fp.Invalidate != nil {
		// Signaling can change what the call's RTP means (BYE, CANCEL,
		// SDP renegotiation): flip the cache mirror before this event
		// is acked so no packet is absorbed against stale state.
		d.invalidateMonitorMedia(mon)
	}
	if err == core.ErrNoTransition {
		d.deviations++
		// Dedup before formatting: repeat deviations on one call skip
		// the rendering entirely.
		if d.shouldRaise(mon, AlertDeviation) {
			raw, _ := pkt.Payload.([]byte)
			_, summary := sipSummary(raw)
			d.raiseRaw(Alert{
				At: now, Type: AlertDeviation, CallID: a.CallID,
				Source: pkt.From.Host, Target: pkt.To.Host,
				Detail: fmt.Sprintf("%s not accepted in state %s", summary, mon.SIP.State()), //vids:alloc-ok alert detail renders only when raising
			})
		}
	}

	if mon.System.AllFinal() {
		d.scheduleEvict(mon)
	}
}

// scheduleEvict removes a closed call's monitor after the linger
// window (so post-close attack traffic is still recognized).
func (d *IDS) scheduleEvict(mon *CallMonitor) {
	if mon.evictTimer.Armed() {
		return
	}
	mon.evictTimer.Gen = mon.gen
	d.wc.arm(&mon.evictTimer, d.cfg.CloseLinger)
}

// destKey renders and interns the destination AOR user@host the flood
// detectors and the prevention quarantine key on.
func (d *IDS) destKey(user, host string) string {
	d.keyBuf = append(d.keyBuf[:0], user...)
	d.keyBuf = append(d.keyBuf, '@')
	d.keyBuf = append(d.keyBuf, host...)
	return d.strings.Bytes(d.keyBuf)
}

// sipEventName maps a request method (or "" for a response) to the
// event the SIP machine steps on.
func sipEventName(method sipmsg.Method) string {
	switch method {
	case "":
		return EvResponse
	case sipmsg.INVITE:
		return EvInvite
	case sipmsg.ACK:
		return EvAck
	case sipmsg.BYE:
		return EvBye
	case sipmsg.CANCEL:
		return EvCancel
	default:
		return "sip." + string(method) //vids:alloc-ok unknown-method events only; every RFC 3261 method is pre-named
	}
}

// internURI renders a URI into the scratch buffer and interns it, so
// the recurring From/To identities of a call mix cost no allocation
// after first sight.
func (d *IDS) internURI(u sipmsg.URI) string {
	d.keyBuf = appendURI(d.keyBuf[:0], u)
	return d.strings.Bytes(d.keyBuf)
}

// indexMedia records the media destination the current SIP message
// advertises (already extracted into the scratch input by its filler)
// so the Event Distributor can route subsequent RTP packets to the
// right machine (Call State Fact Base lookups, Figure 3).
func (d *IDS) indexMedia(mon *CallMonitor, in *sipInput) {
	a := &in.args
	if a.SdpAddr == "" {
		return
	}
	var machine string
	switch {
	case in.method == sipmsg.INVITE:
		// Caller's SDP names where the *callee's* stream will land.
		machine = MachineRTPCallee
	case in.method == "" && a.Status >= 200 && a.Status < 300 && a.CseqMethod == string(sipmsg.INVITE):
		machine = MachineRTPCaller
	default:
		return
	}
	d.keyBuf = appendMediaKey(d.keyBuf[:0], a.SdpAddr, a.SdpPort)
	key := d.strings.Bytes(d.keyBuf)
	d.mediaIndex[key] = mediaRef{callID: mon.CallID, machine: machine} //vids:alloc-ok one entry per advertised media stream; deleted on eviction
	mon.mediaKeys = append(mon.mediaKeys, key)
}

// ---------------------------------------------------------------------------
// RTP path
// ---------------------------------------------------------------------------

func (d *IDS) handleRTP(p *rtp.Packet, pkt *sim.Packet) {
	now := d.sim.Now()
	a := &d.rtpArgsScr
	*a = rtpArgs{
		Src:         pkt.From.Host,
		Ssrc:        p.SSRC,
		Seq:         int(p.Sequence),
		Ts:          p.Timestamp,
		PayloadType: int(p.PayloadType),
		Now:         now,
	}
	ev := core.Event{Name: EvRTP, Typed: a}

	// Probe the media index through the reusable key buffer; the key
	// string is only materialized on the cold paths that retain it.
	d.keyBuf = appendMediaKey(d.keyBuf[:0], pkt.To.Host, pkt.To.Port)
	ref, ok := d.mediaIndex[string(d.keyBuf)]
	if !ok {
		d.handleUnsolicitedRTP(ev, pkt, now)
		return
	}
	mon := d.calls[ref.callID]
	if mon == nil {
		// Call already evicted; the stream should be dead too.
		if _, evicted := d.tombstones[ref.callID]; !evicted {
			d.raise(Alert{
				At: now, Type: AlertUnsolicitedRTP, CallID: ref.callID,
				Source: pkt.From.Host, Target: string(d.keyBuf), //vids:alloc-ok alert-path materialization of the scratch media key
				Detail: "RTP for a call with no live monitor",
			}, nil)
		}
		return
	}
	mon.LastActivity = now

	results, err := mon.System.Deliver(ref.machine, ev)
	d.consumeResults(mon, results, pkt)
	if err == core.ErrNoTransition {
		d.deviations++
		d.raise(Alert{
			At: now, Type: AlertDeviation, CallID: mon.CallID,
			Source: pkt.From.Host, Target: string(d.keyBuf), //vids:alloc-ok alert-path materialization of the scratch media key
			Detail: fmt.Sprintf("RTP not accepted by %s in its current state", ref.machine), //vids:alloc-ok alert detail renders only when raising
		}, mon)
		return
	}
	if d.fp.Arm != nil && err == nil && !d.cfg.MediaHeaderOnly &&
		len(results) == 1 && results[0].To == RTPRcvd && !results[0].EnteredAttack &&
		(d.fp.Armable == nil || d.fp.Armable()) { //vids:alloc-ok fast-path hook seam: the engine closure reads one atomic
		// Clean steady-state packet: the machine sits on the RTP_RCVD
		// self-loop with known window variables — publish them so the
		// cache can absorb this flow's in-profile traffic.
		d.armFastpath(mon, ref.machine)
	}
}

// handleRTCP checks control traffic against the signaling state: an
// RTCP BYE for a stream whose call the SIP machine still considers
// established is a media-plane teardown injection. Periodic sender
// and receiver reports are counted but raise nothing.
func (d *IDS) handleRTCP(p *rtp.RTCP, pkt *sim.Packet) {
	if p.Type != rtp.RTCPBye {
		return
	}
	if d.cfg.MediaHeaderOnly {
		// Under SRTP the RTCP BYE rides inside an encrypted SRTCP
		// compound packet: the plaintext BYE this handler keys on is
		// not observable, so acting on one would mean trusting a
		// packet an SRTP deployment could never have shown us.
		return
	}
	now := d.sim.Now()
	// RTCP runs on the media port + 1.
	d.keyBuf = appendMediaKey(d.keyBuf[:0], pkt.To.Host, pkt.To.Port-1)
	ref, ok := d.mediaIndex[string(d.keyBuf)]
	if !ok {
		return // stream unknown (already closed or never negotiated)
	}
	mon := d.calls[ref.callID]
	if mon == nil {
		return
	}
	mon.LastActivity = now
	switch mon.SIP.State() { //vids:alloc-ok backend seam: both backends' machines are independently noalloc-rooted
	case SIPTeardown, SIPClosed:
		return // legitimate: the call is ending on the signaling plane too
	}
	// A genuine hangup races its own RTCP BYE against the SIP BYE on
	// the same path — and the SIP BYE may need a retransmission cycle
	// if it was lost — so give the signaling plane a generous window
	// before judging. One armed grace timer per call suffices: repeat
	// BYEs within the window would only re-raise a deduplicated alert.
	if mon.rtcpTimer.Armed() {
		return
	}
	mon.rtcpSrc = pkt.From.Host
	mon.rtcpKey = d.strings.Bytes(d.keyBuf)
	mon.rtcpTimer.Gen = mon.gen
	d.wc.arm(&mon.rtcpTimer, d.cfg.RTCPByeGrace)
}

// fireRTCPGrace judges a pending RTCP BYE once its grace window ends:
// if the signaling plane still has the dialog established, the
// media-plane teardown was injected.
func (d *IDS) fireRTCPGrace(mon *CallMonitor) {
	if mon.SIP.InAttack() { //vids:alloc-ok backend seam: both backends' machines are independently noalloc-rooted
		return
	}
	switch mon.SIP.State() { //vids:alloc-ok backend seam: both backends' machines are independently noalloc-rooted
	case SIPTeardown, SIPClosed:
		return
	}
	d.raise(Alert{
		At: d.sim.Now(), Type: AlertRTCPBye, CallID: mon.CallID,
		Source: mon.rtcpSrc, Target: mon.rtcpKey,
		Detail: "RTCP BYE while the SIP dialog is still established",
	}, mon)
}

// handleUnsolicitedRTP runs the standalone Figure 6 monitor for
// streams no SDP advertised. The media key is read from d.keyBuf
// (set by handleRTP) and materialized only when a monitor is created
// or an alert retains it.
func (d *IDS) handleUnsolicitedRTP(ev core.Event, pkt *sim.Packet, now time.Duration) {
	mon, ok := d.spamMons[string(d.keyBuf)]
	if !ok {
		key := string(d.keyBuf) //vids:alloc-ok first packet of an unadvertised stream only
		if d.cfg.Backend == BackendInterpreted {
			mon = core.NewMachine(d.spamSp, nil)
		} else {
			mon = idsgen.NewSpamMachine(d.params)
		}
		mon.SetCoverage(d.cover) //vids:alloc-ok backend seam: both backends' machines are independently noalloc-rooted
		d.spamMons[key] = mon    //vids:alloc-ok one machine per unsolicited stream; swept on idle
		d.armSweep()
		d.raise(Alert{
			At: now, Type: AlertUnsolicitedRTP,
			Source: pkt.From.Host, Target: key,
			Detail: "RTP stream with no negotiated session",
		}, nil)
	}
	res, err := mon.Step(ev) //vids:alloc-ok backend seam: both backends' machines are independently noalloc-rooted
	if err == nil && res.EnteredAttack {
		d.raise(Alert{
			At: now, Type: AlertMediaSpam,
			Source: pkt.From.Host, Target: string(d.keyBuf), //vids:alloc-ok alert-path materialization of the scratch media key
			Detail: "unsolicited stream exceeded spam thresholds",
		}, nil)
	}
}

// ---------------------------------------------------------------------------
// Fact base and analysis engine
// ---------------------------------------------------------------------------

func (d *IDS) newMonitor(callID string, now time.Duration) *CallMonitor {
	var mon *CallMonitor
	if n := len(d.monPool); n > 0 {
		mon = d.monPool[n-1]
		d.monPool[n-1] = nil
		d.monPool = d.monPool[:n-1]
	} else {
		mon = d.buildMonitor()
	}
	mon.CallID = d.strings.String(callID)
	mon.Created = now
	mon.LastActivity = now
	d.calls[mon.CallID] = mon //vids:alloc-ok one entry per live call; deleted on eviction
	delete(d.tombstones, mon.CallID)
	d.armSweep()
	return mon
}

// buildMonitor allocates a monitor record. The backend choice only
// picks which machines its core.System runs.
//
//vids:coldpath monitor-pool miss only; steady-state churn recycles monitors
func (d *IDS) buildMonitor() *CallMonitor {
	var sys *core.System
	if d.cfg.Backend == BackendInterpreted {
		sys = core.NewSystem()
		for _, spec := range d.callSpecs {
			if _, err := sys.Add(spec); err != nil {
				panic(err) // the three names are distinct constants
			}
		}
	} else {
		sys = idsgen.NewCallSystem(d.params)
	}
	sys.SetCoverage(d.cover)
	mon := &CallMonitor{System: sys, raised: make(map[string]bool)}
	mon.SIP, _ = sys.Find(MachineSIP)
	mon.RTPCaller, _ = sys.Find(MachineRTPCaller)
	mon.RTPCallee, _ = sys.Find(MachineRTPCallee)
	mon.timerTCaller = timerwheel.Timer{Kind: timerKindTCaller, Owner: mon}
	mon.timerTCallee = timerwheel.Timer{Kind: timerKindTCallee, Owner: mon}
	mon.rtcpTimer = timerwheel.Timer{Kind: timerKindRTCPGrace, Owner: mon}
	mon.evictTimer = timerwheel.Timer{Kind: timerKindEvict, Owner: mon}
	return mon
}

// consumeResults inspects transitions for attack entries and timer
// arming.
func (d *IDS) consumeResults(mon *CallMonitor, results []core.StepResult, pkt *sim.Packet) {
	now := d.sim.Now()
	for _, res := range results {
		if res.To == RTPAfterBye && res.From != RTPAfterBye {
			d.armTimerT(mon, res.Machine)
		}
		if res.EnteredAttack {
			t := alertTypeForLabel(res.Label)
			if d.shouldRaise(mon, t) {
				d.raiseRaw(Alert{
					At: now, Type: t,
					CallID: mon.CallID,
					Source: pkt.From.Host, Target: pkt.To.Host,
					Detail: fmt.Sprintf("%s: %s -> %s on %s", res.Machine, res.From, res.To, res.Event), //vids:alloc-ok alert detail renders only when raising
				})
			}
		}
	}
}

// armTimerT arms Figure 5's timer T for one RTP direction machine. An
// already-armed timer keeps its (earlier) deadline, matching the old
// one-closure-per-entry behavior where the earliest expiry acted and
// later ones found nothing left to do.
func (d *IDS) armTimerT(mon *CallMonitor, machine string) {
	t := &mon.timerTCallee
	if machine == MachineRTPCaller {
		t = &mon.timerTCaller
	}
	if t.Armed() {
		return
	}
	t.Gen = mon.gen
	d.wc.arm(t, d.cfg.ByeGraceT)
}

// fireTimerT delivers the timer-T expiry to its RTP machine: in-flight
// media after a BYE was tolerated for the grace window; whatever state
// the machine moves to now decides between clean closure and attack.
func (d *IDS) fireTimerT(mon *CallMonitor, machine string) {
	_, _ = mon.System.DeliverSync(machine, evTimerT)
	if mon.System.AllFinal() {
		d.scheduleEvict(mon)
	}
}

func alertTypeForLabel(label string) AlertType {
	switch label {
	case labelSpoofedBye:
		return AlertSpoofedBye
	case labelSpoofedCancel:
		return AlertSpoofedCancel
	case labelHijack:
		return AlertCallHijack
	case labelMediaSpam:
		return AlertMediaSpam
	case labelCodec:
		return AlertCodecViolation
	case labelByeDoS:
		return AlertByeDoS
	case labelTollFraud:
		return AlertTollFraud
	case labelRTPFlood:
		return AlertRTPFlood
	case labelInviteFlood:
		return AlertInviteFlood
	case labelDRDoS:
		return AlertDRDoS
	default:
		return AlertDeviation
	}
}

// shouldRaise applies the per-(call, type) alert dedup and records the
// key. Call it before constructing an Alert whose Detail formatting
// should be skipped for duplicates; a nil monitor always passes.
func (d *IDS) shouldRaise(mon *CallMonitor, t AlertType) bool {
	if mon == nil {
		return true
	}
	key := string(t)
	if mon.raised[key] {
		return false
	}
	mon.raised[key] = true //vids:alloc-ok per-call dedup set, bounded by the alert-type vocabulary
	return true
}

// raiseRaw records an alert that already passed (or does not need)
// deduplication.
func (d *IDS) raiseRaw(a Alert) {
	d.alerts = append(d.alerts, a)
	if d.OnAlert != nil {
		d.OnAlert(a) //vids:alloc-ok alert delivery callback; fires per alert, not per packet
	}
}

// raise records an alert, deduplicating per (call, type) so one
// attack does not flood the operator.
func (d *IDS) raise(a Alert, mon *CallMonitor) {
	if !d.shouldRaise(mon, a.Type) {
		return
	}
	d.raiseRaw(a)
}

// evict removes a finished call from the fact base (paper
// Section 7.3: "Once the calls have successfully reached the final
// state, the corresponding protocol state machines will be deleted")
// and recycles its monitor onto the pool.
func (d *IDS) evict(callID string) {
	mon := d.calls[callID]
	if mon == nil {
		return
	}
	delete(d.calls, callID)
	d.tombstones[mon.CallID] = d.sim.Now() //vids:alloc-ok eviction tombstone; swept with the linger window
	if d.fp.Invalidate != nil {
		// The call's flows stop absorbing but keep routing its
		// stragglers here until the tombstone expires (sweep).
		d.invalidateMonitorMedia(mon)
	}
	for _, key := range mon.mediaKeys {
		// A key is deleted only while this call still owns it; a newer
		// call reusing the same destination overwrote the entry.
		if ref, ok := d.mediaIndex[key]; ok && ref.callID == callID {
			delete(d.mediaIndex, key)
		}
	}
	d.evicted++
	d.recycle(mon)
}

// recycle scrubs an evicted monitor and returns it to the pool:
// pending timers are cancelled, the machines reset to their initial
// states, and the generation counter advances so any expiry or
// reference armed against the old call is recognizably stale. The next
// call this record hosts starts from exactly the state a freshly
// allocated monitor would.
func (d *IDS) recycle(mon *CallMonitor) {
	d.wc.cancel(&mon.timerTCaller)
	d.wc.cancel(&mon.timerTCallee)
	d.wc.cancel(&mon.rtcpTimer)
	d.wc.cancel(&mon.evictTimer)
	mon.gen++
	mon.timerTCaller.Gen = mon.gen
	mon.timerTCallee.Gen = mon.gen
	mon.rtcpTimer.Gen = mon.gen
	mon.evictTimer.Gen = mon.gen
	mon.System.Reset()
	clear(mon.raised)
	mon.CallID = ""
	mon.rtcpSrc, mon.rtcpKey = "", ""
	mon.Created, mon.LastActivity = 0, 0
	mon.mediaKeys = mon.mediaKeys[:0]
	d.monPool = append(d.monPool, mon)
}

// armSweep arms the idle-eviction sweep timer if it is not already
// pending. The sweep re-arms itself only while there is state to
// reclaim, so a drained IDS leaves the simulator's event queue empty
// and simulations terminate naturally.
func (d *IDS) armSweep() {
	if d.cfg.IdleEviction <= 0 || d.sweepTimer.Armed() {
		return
	}
	d.wc.arm(&d.sweepTimer, d.cfg.IdleEviction/2)
}

// sweep evicts idle calls, expires tombstones and drops the standalone
// spam monitors (their streams either stopped or will immediately
// re-register).
func (d *IDS) sweep() {
	now := d.sim.Now()
	for id, mon := range d.calls {
		if now-mon.LastActivity > d.cfg.IdleEviction && d.fp.Activity != nil {
			// Absorbed media never reaches this instance: fold the
			// cache's last-seen times in before judging the call idle.
			mon.LastActivity = d.mediaActivity(mon, id, mon.LastActivity)
		}
		if now-mon.LastActivity > d.cfg.IdleEviction {
			d.evict(id)
		}
	}
	for id, at := range d.tombstones {
		if now-at > d.cfg.IdleEviction {
			delete(d.tombstones, id)
			if d.fp.Remove != nil {
				d.fp.Remove(id) //vids:alloc-ok tombstone-expiry hook: fires once per forgotten call, not per packet
			}
		}
	}
	clear(d.spamMons)
	if len(d.calls)+len(d.tombstones) > 0 {
		d.armSweep()
	}
}

// ---------------------------------------------------------------------------
// Introspection for the evaluation harness
// ---------------------------------------------------------------------------

// Alerts returns a copy of all alerts raised so far.
func (d *IDS) Alerts() []Alert { return append([]Alert(nil), d.alerts...) }

// WriteAlerts renders all alerts as a JSON array (the operator-facing
// report format).
func (d *IDS) WriteAlerts(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	alerts := d.alerts
	if alerts == nil {
		alerts = []Alert{}
	}
	return enc.Encode(alerts)
}

// AlertStats counts alerts by type.
func (d *IDS) AlertStats() map[AlertType]int {
	out := make(map[AlertType]int)
	for _, a := range d.alerts {
		out[a.Type]++
	}
	return out
}

// AlertsOfType filters alerts by type.
func (d *IDS) AlertsOfType(t AlertType) []Alert {
	var out []Alert
	for _, a := range d.alerts {
		if a.Type == t {
			out = append(out, a)
		}
	}
	return out
}

// ActiveCalls reports the number of monitored calls resident in the
// fact base.
func (d *IDS) ActiveCalls() int { return len(d.calls) }

// Evicted reports how many call monitors were deleted after reaching
// final states.
func (d *IDS) Evicted() uint64 { return d.evicted }

// Monitor returns the monitor for a call, if resident.
func (d *IDS) Monitor(callID string) (*CallMonitor, bool) {
	m, ok := d.calls[callID]
	return m, ok
}

// Counters reports (SIP packets, RTP packets, parse errors,
// deviations) seen so far.
func (d *IDS) Counters() (sipPkts, rtpPkts, parseErrs, deviations uint64) {
	return d.sipPackets, d.rtpPackets, d.parseErrors, d.deviations
}

// RTCPPackets reports RTCP packets inspected.
func (d *IDS) RTCPPackets() uint64 { return d.rtcpPackets }

// ProcessingWallTime reports real host CPU time spent inside Process,
// for the CPU-overhead experiment (Section 7.3).
func (d *IDS) ProcessingWallTime() time.Duration { return d.procWallTime }

// MemoryFootprint sums the per-call state bytes across the fact base
// (Section 7.3's memory accounting).
func (d *IDS) MemoryFootprint() int {
	total := 0
	for _, mon := range d.calls {
		total += mon.System.MemoryFootprint()
	}
	return total
}

// PerCallMemory reports one call's state footprint in bytes.
func (mon *CallMonitor) PerCallMemory() int { return mon.System.MemoryFootprint() }

// SystemSpecs returns the communicating per-call triple — the SIP
// machine and the two RTP direction machines — exactly as an
// interpreted monitor assembles them into one core.System. Tooling that verifies the
// δ-synchronization contract (internal/speclint) lints this set as a
// product.
func SystemSpecs(cfg Config) []*core.Spec {
	return []*core.Spec{
		sipSpec(cfg.CrossProtocol),
		rtpSpec(MachineRTPCaller, cfg.RTP),
		rtpSpec(MachineRTPCallee, cfg.RTP),
	}
}

// Specs returns the protocol machine definitions a configuration
// builds: the SIP machine, the two RTP direction machines, the INVITE
// and response flood detectors, and the standalone spam monitor. Used
// by tooling that renders or validates the specifications.
func Specs(cfg Config) []*core.Spec {
	return append(SystemSpecs(cfg),
		floodSpec(cfg.FloodN),
		respFloodSpec(cfg.ResponseFloodN),
		spamSpec(cfg.RTP),
	)
}
