package ids

import (
	"vids/internal/core"
)

// Machine names inside one call's communicating system. The SIP
// machine synchronizes with two RTP machines, one per media
// direction; "rtp-caller" monitors the stream the caller sends
// (destination advertised in the 200 OK's SDP) and "rtp-callee" the
// stream the callee sends (destination advertised in the INVITE's
// SDP). This refines the paper's Figure 2(b) — the INVITE's δ opens
// the callee-to-caller direction, the 200 OK's δ opens the reverse.
const (
	MachineSIP       = "sip"
	MachineRTPCaller = "rtp-caller"
	MachineRTPCallee = "rtp-callee"
)

// SIP machine control states (paper Figures 2(a) and 5).
const (
	SIPInit        core.State = "INIT"
	SIPInviteRcvd  core.State = "INVITE_RCVD"
	SIPRinging     core.State = "RINGING"
	SIPEstablished core.State = "CALL_ESTABLISHED"
	SIPCancelWait  core.State = "CANCEL_WAIT"
	SIPTeardown    core.State = "CALL_TEARDOWN"
	SIPClosed      core.State = "CLOSED"

	SIPAttackSpoofedBye    core.State = "ATTACK_SPOOFED_BYE"
	SIPAttackSpoofedCancel core.State = "ATTACK_SPOOFED_CANCEL"
	SIPAttackHijack        core.State = "ATTACK_CALL_HIJACK"
)

// Event names of the SIP machine's alphabet.
const (
	EvInvite   = "sip.invite"
	EvAck      = "sip.ack"
	EvBye      = "sip.bye"
	EvCancel   = "sip.cancel"
	EvResponse = "sip.response"
)

// The δ synchronization events, built once: Emit copies the Event
// value into the System queue, so sharing them across calls is safe
// (the Args maps are never mutated) and keeps emitting transitions
// allocation-free. specgen renders the compiled backend's copies from
// the Emit statements that carry these values.
var (
	deltaOpenCallee = core.Event{Name: EvDeltaOpen, Args: map[string]any{"party": "callee"}}
	deltaOpenCaller = core.Event{Name: EvDeltaOpen, Args: map[string]any{"party": "caller"}}
	deltaBye        = core.Event{Name: EvDeltaBye}
	deltaReopen     = core.Event{Name: EvDeltaReopen}
)

// Transition labels used for alert mapping.
const (
	labelSpoofedBye    = "spoofed-bye"
	labelSpoofedCancel = "spoofed-cancel"
	labelHijack        = "call-hijack"
	labelByeSeen       = "bye-seen"
)

// The SIP event vector x (paper Section 4.2: header fields, SDP body
// values and the transport source), the machine's local variables and
// the globals it shares with the two RTP machines.
var (
	sipVector = core.NewVector("SIP")

	sipSrc        = sipVector.Arg("src", core.KindString)
	sipCallID     = sipVector.Arg("callID", core.KindString)
	sipFrom       = sipVector.Arg("from", core.KindString)
	sipTo         = sipVector.Arg("to", core.KindString)
	sipFromTag    = sipVector.Arg("fromTag", core.KindString)
	sipToTag      = sipVector.Arg("toTag", core.KindString)
	sipContact    = sipVector.Arg("contact", core.KindString)
	sipCseqMethod = sipVector.Arg("cseqMethod", core.KindString)
	sipSdpAddr    = sipVector.Arg("sdpAddr", core.KindString)
	sipSdpPort    = sipVector.Arg("sdpPort", core.KindInt)
	sipSdpPayload = sipVector.Arg("sdpPayload", core.KindInt)
	sipStatus     = sipVector.Arg("status", core.KindInt)

	lCallID        = core.Local("l.callID", core.KindString)
	lFromTag       = core.Local("l.fromTag", core.KindString)
	lInviteSrc     = core.Local("l.inviteSrc", core.KindString)
	lCallerContact = core.Local("l.callerContact", core.KindString)
	lFrom          = core.Local("l.from", core.KindString)
	lTo            = core.Local("l.to", core.KindString)
	lToTag         = core.Local("l.toTag", core.KindString)
	lCalleeContact = core.Local("l.calleeContact", core.KindString)

	gCallerMediaAddr = core.Global("g.callerMediaAddr", core.KindString)
	gCallerMediaPort = core.Global("g.callerMediaPort", core.KindInt)
	gPayload         = core.Global("g.payload", core.KindInt)
	gCalleeMediaAddr = core.Global("g.calleeMediaAddr", core.KindString)
	gCalleeMediaPort = core.Global("g.calleeMediaPort", core.KindInt)
	gByeSender       = core.Global("g.byeSender", core.KindString)
)

// sipSpec builds the per-call SIP protocol machine from the RFC 3261
// call-setup specification. crossProtocol controls whether the
// machine emits δ synchronization messages to the RTP machines
// (disabled only by the ablation experiment).
func sipSpec(crossProtocol bool) *core.Spec {
	s := core.NewSpec(MachineSIP, SIPInit)
	s.Family = "SIP"

	cross := core.Param("CrossProtocol", core.BoolVal(crossProtocol))
	hasSDP := core.Ne(sipSdpAddr, core.Lit(""))
	cseqIs := func(method string) *core.Expr { return core.Eq(sipCseqMethod, core.Lit(method)) }
	statusGe := func(n int) *core.Expr { return core.Ge(sipStatus, core.Lit(n)) }
	statusLt := func(n int) *core.Expr { return core.Lt(sipStatus, core.Lit(n)) }

	// --- Call setup -----------------------------------------------------
	// INIT --INVITE--> INVITE_RCVD. Store the dialog identity and the
	// caller's offered media; open the callee->caller RTP direction.
	s.When(SIPInit, EvInvite, nil, core.Do(
		core.Set(lCallID, sipCallID),
		core.Set(lFromTag, sipFromTag),
		core.Set(lInviteSrc, sipSrc),
		core.Set(lCallerContact, sipContact),
		core.Set(lFrom, sipFrom),
		core.Set(lTo, sipTo),
		core.If(hasSDP,
			core.Set(gCallerMediaAddr, sipSdpAddr),
			core.Set(gCallerMediaPort, sipSdpPort),
			core.Set(gPayload, sipSdpPayload),
			// Opening the RTP machine is session bookkeeping the
			// classifier needs regardless of the cross-protocol
			// ablation; only the δ teardown notifications below are
			// the paper's cross-protocol *detection* channel.
			core.Emit(MachineRTPCallee, deltaOpenCallee)),
	), SIPInviteRcvd)

	// INVITE retransmissions from the same source loop harmlessly.
	retransInvite := core.And(core.Eq(sipSrc, lInviteSrc), core.Eq(sipToTag, core.Lit("")))
	s.When(SIPInviteRcvd, EvInvite, retransInvite, nil, SIPInviteRcvd)
	s.When(SIPRinging, EvInvite, retransInvite, nil, SIPRinging)

	// Provisional responses.
	provNotRinging := core.And(statusGe(100), statusLt(200), core.Ne(sipStatus, core.Lit(180)))
	ringing := core.Eq(sipStatus, core.Lit(180))
	s.When(SIPInviteRcvd, EvResponse, provNotRinging, nil, SIPInviteRcvd)
	s.When(SIPInviteRcvd, EvResponse, ringing, nil, SIPRinging)
	s.When(SIPRinging, EvResponse, statusLt(200), nil, SIPRinging)

	// 200 OK for the INVITE: call established. Store the callee's
	// identity and answered media; open the caller->callee RTP
	// direction.
	okForInvite := core.And(statusGe(200), statusLt(300), cseqIs("INVITE"))
	establish := core.Do(
		core.Set(lToTag, sipToTag),
		core.Set(lCalleeContact, sipContact),
		core.If(hasSDP,
			core.Set(gCalleeMediaAddr, sipSdpAddr),
			core.Set(gCalleeMediaPort, sipSdpPort),
			core.Emit(MachineRTPCaller, deltaOpenCaller)),
	)
	s.When(SIPInviteRcvd, EvResponse, okForInvite, establish, SIPEstablished)
	s.When(SIPRinging, EvResponse, okForInvite, establish, SIPEstablished)

	// notifyBye tells both RTP machines the call is over so their
	// machines can reach final states and the whole system becomes
	// evictable.
	notifyBye := core.If(cross,
		core.Emit(MachineRTPCaller, deltaBye),
		core.Emit(MachineRTPCallee, deltaBye))
	closeMedia := core.Do(notifyBye)

	// Final non-2xx while pending: call failed or was declined.
	failedFinal := core.And(statusGe(300), cseqIs("INVITE"))
	s.When(SIPInviteRcvd, EvResponse, failedFinal, closeMedia, SIPClosed)
	s.When(SIPRinging, EvResponse, failedFinal, closeMedia, SIPClosed)

	// --- CANCEL ----------------------------------------------------------
	// A legitimate CANCEL comes from the same transport source that
	// delivered the INVITE, inside the same dialog attempt
	// (paper Section 3.1: "A CANCEL is for an outstanding INVITE").
	cancelLegit := core.And(core.Eq(sipSrc, lInviteSrc), core.Eq(sipFromTag, lFromTag))
	cancelSpoofed := core.Not(cancelLegit)
	for _, from := range []core.State{SIPInviteRcvd, SIPRinging} {
		s.When(from, EvCancel, cancelLegit, nil, SIPCancelWait)
		s.WhenLabeled(labelSpoofedCancel, from, EvCancel, cancelSpoofed, nil, SIPAttackSpoofedCancel)
	}
	s.When(SIPCancelWait, EvResponse, statusLt(300), nil, SIPCancelWait)    // 200 for CANCEL
	s.When(SIPCancelWait, EvResponse, statusGe(300), closeMedia, SIPClosed) // 487 for the INVITE
	s.When(SIPCancelWait, EvAck, nil, nil, SIPCancelWait)
	s.When(SIPCancelWait, EvCancel, cancelLegit, nil, SIPCancelWait)

	// --- Established dialog ----------------------------------------------
	s.When(SIPEstablished, EvAck, nil, nil, SIPEstablished)
	// Retransmitted 200 OKs.
	s.When(SIPEstablished, EvResponse, okForInvite, nil, SIPEstablished)
	// Responses to in-dialog requests (e.g. re-INVITE 200s) also loop.
	s.When(SIPEstablished, EvResponse, core.Not(okForInvite), nil, SIPEstablished)

	// Re-INVITE: legitimate when it originates from a known party of
	// the dialog; anything else is a call-hijack attempt
	// (Section 3.1: "a new INVITE request could be sent within a
	// pre-existing dialog").
	knownParty := core.Or(
		core.And(core.Eq(sipSrc, lCallerContact), core.Eq(sipFromTag, lFromTag)), // from the caller
		core.And(core.Eq(sipSrc, lCalleeContact), core.Eq(sipFromTag, lToTag)),   // from the callee
		// In-dialog requests may also arrive through the proxy path
		// that carried the INVITE.
		core.And(core.Eq(sipSrc, lInviteSrc), core.Eq(sipFromTag, lFromTag)),
	)
	unknownParty := core.Not(knownParty)
	s.When(SIPEstablished, EvInvite, knownParty, nil, SIPEstablished)
	s.WhenLabeled(labelHijack, SIPEstablished, EvInvite, unknownParty, nil, SIPAttackHijack)

	// --- Teardown ----------------------------------------------------------
	// A consistent BYE moves to teardown and synchronizes the RTP
	// machines (Figure 5): before the transition a δ(SIP->RTP) is
	// sent, and the global records which party hung up so the RTP
	// machines can separate BYE-DoS from toll fraud. If the BYE later
	// draws a 401 challenge (authenticated deployments), a δ reopen
	// rolls the RTP machines back.
	byeAction := core.Do(
		core.If(core.Eq(sipFromTag, lToTag),
			core.Set(gByeSender, core.Lit("callee")),
		).OrElse(
			core.Set(gByeSender, core.Lit("caller"))),
		notifyBye,
	)
	s.WhenLabeled(labelByeSeen, SIPEstablished, EvBye, knownParty, byeAction, SIPTeardown)
	// Even a spoofed BYE tears the call down at the victim UA, so the
	// RTP machines must still arm their after-BYE timers.
	s.WhenLabeled(labelSpoofedBye, SIPEstablished, EvBye, unknownParty, byeAction, SIPAttackSpoofedBye)

	s.When(SIPTeardown, EvResponse, nil, nil, SIPTeardown)
	s.When(SIPTeardown, EvBye, nil, nil, SIPTeardown) // retransmissions
	s.When(SIPTeardown, EvAck, nil, nil, SIPTeardown)
	// The 200 for the BYE confirms the teardown and closes the call.
	s.WhenLabeled("closed", SIPTeardown, EvResponse, core.And(cseqIs("BYE"), statusLt(300)), nil, SIPClosed)
	// A 401 challenge for the BYE means nothing was torn down: the
	// dialog is still alive (authenticated deployments), so the RTP
	// machines are reopened.
	s.When(SIPTeardown, EvResponse,
		core.And(cseqIs("BYE"), core.Eq(sipStatus, core.Lit(401))),
		core.Do(core.If(cross,
			core.Emit(MachineRTPCaller, deltaReopen),
			core.Emit(MachineRTPCallee, deltaReopen))),
		SIPEstablished)

	// CLOSED absorbs stragglers (retransmitted finals, late ACKs).
	s.When(SIPClosed, EvResponse, nil, nil, SIPClosed)
	s.When(SIPClosed, EvAck, nil, nil, SIPClosed)
	s.When(SIPClosed, EvBye, nil, nil, SIPClosed)

	// Attack states absorb everything so one detection does not
	// cascade into deviation noise.
	for _, attack := range []core.State{SIPAttackSpoofedBye, SIPAttackSpoofedCancel, SIPAttackHijack} {
		for _, ev := range []string{EvInvite, EvAck, EvBye, EvCancel, EvResponse} {
			s.When(attack, ev, nil, nil, attack)
		}
	}

	s.Final(SIPClosed)
	s.Attack(SIPAttackSpoofedBye, SIPAttackSpoofedCancel, SIPAttackHijack)
	return s
}
