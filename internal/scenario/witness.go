package scenario

import (
	"fmt"
	"time"

	"vids/internal/dialog"
	"vids/internal/sdp"
	"vids/internal/sim"
	"vids/internal/sipmsg"
)

// Witness is one named coverage witness: a self-contained packet
// sequence against a fresh IDS that fires specification transitions
// the scenario suite never reaches. cmd/speccover replays them under
// its coverage recorder and writes them as JSONL; the parity and
// mutation suites replay them against every pipeline configuration.
type Witness struct {
	Name   string
	Script dialog.Script
}

// Witnesses builds every witness script. Each builder's comment lists
// the transitions it exists to fire. Timer T (after-BYE grace) is
// 250 ms and the flood window T1 is 1 s under ids.DefaultConfig.
func Witnesses() []Witness {
	return []Witness{
		{"gap-cancel-legit", cancelLegit()},
		{"gap-cancel-ringing", cancelRinging()},
		{"gap-cancel-spoofed", cancelSpoofed()},
		{"gap-invite-final", inviteFinal()},
		{"gap-teardown", teardown()},
		{"gap-post-close", postClose()},
		{"gap-reopen-close", reopenClose()},
		{"gap-codec", codec()},
		{"gap-spam-absorb", spamAbsorb()},
		{"gap-flood", flood()},
		{"gap-spoofed-bye", spoofedBye()},
		{"gap-hijack-absorb", hijackAbsorb()},
		{"gap-rtp-spam", rtpSpam()},
		{"gap-stray-response", strayResponse()},
	}
}

// The attacker host matches no stored dialog contact, so its requests
// fail every known-party guard.
var (
	attacker = sim.Addr{Host: "attacker.example.net", Port: 5060}
	mallory  = sipmsg.URI{User: "mallory", Host: attacker.Host}
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// witnessCall is testbed call n with its callee AOR numbered after the
// Call-ID and every in-dialog request addressed to that AOR. The INVITE
// advertises the caller's media (watched by rtp-callee) and the 200 the
// callee's (watched by rtp-caller).
func witnessCall(n int) *dialog.Call {
	c := dialog.TestbedCall(fmt.Sprintf("gap-%d@ua1.a.example.com", n), n)
	c.Callee.AOR.User += c.ID[4:5]
	c.Target = c.Callee.AOR
	c.Caller.SSRC, c.Callee.SSRC = 0x11, 0x22
	return c
}

// frame scripts packet seq of the stream ssrc from one party to the
// other, with a one-byte payload of type pt.
func frame(s *dialog.Script, from, to dialog.Party, at time.Duration, pt uint8, ssrc uint32, seq uint16) {
	*s = append(*s, from.Stream(to, at, dialog.RTP{SSRC: ssrc, Seq: seq, TS: 160 * uint32(seq), PT: pt, Len: 1}))
}

// greet scripts the first packet of each direction, 5 ms apart.
func greet(s *dialog.Script, c *dialog.Call, at time.Duration, pt uint8) {
	frame(s, c.Caller, c.Callee, at, pt, c.Caller.SSRC, 1)
	frame(s, c.Callee, c.Caller, at+ms(5), pt, c.Callee.SSRC, 1)
}

// challengedBye scripts a caller BYE at at that the far end answers
// with 401 gap later, reopening the dialog.
func challengedBye(s *dialog.Script, c *dialog.Call, at, gap time.Duration) {
	bye := c.Bye(false)
	s.Add(at, c.Caller.UA, c.Callee.UA, bye)
	s.Add(at+gap, dialog.ProxyB, dialog.ProxyA, bye.Response(sipmsg.StatusUnauthorized))
}

// impersonate rewrites a request as sent by mallory.
func impersonate(m dialog.SIP) dialog.SIP {
	m.From, m.FromTag = mallory, "evil"
	return m
}

// cancelLegit: a caller abandons a pending call.
// sip: INVITE_RCVD provisional/retransmission loops, legitimate
// CANCEL -> CANCEL_WAIT, all CANCEL_WAIT loops, 487 -> CLOSED and the
// CLOSED absorbers. rtp-callee: RTP_OPEN -delta.bye-> RTP_CLOSE.
// rtp-caller: INIT -delta.bye-> RTP_CLOSE (no answer ever carried SDP).
func cancelLegit() dialog.Script {
	var s dialog.Script
	c := witnessCall(1)
	c.Callee.Tag = "" // never answered with a tag
	inv := c.Invite(true)
	a, b := dialog.ProxyA, dialog.ProxyB
	s.Add(ms(10), a, b, inv)
	s.Add(ms(20), b, a, inv.Response(sipmsg.StatusTrying))
	s.Add(ms(30), a, b, inv) // retransmission
	cancel := c.Cancel()
	s.Add(ms(40), a, b, cancel)
	s.Add(ms(50), b, a, cancel.Response(sipmsg.StatusOK))
	s.Add(ms(60), c.Caller.UA, c.Callee.UA, c.Ack())
	s.Add(ms(70), a, b, cancel) // retransmission
	s.Add(ms(80), b, a, inv.Response(sipmsg.StatusRequestTerminated))
	s.Add(ms(90), c.Caller.UA, c.Callee.UA, c.Ack())
	s.Add(ms(100), b, a, inv.Response(sipmsg.StatusRinging))
	s.Add(ms(110), c.Caller.UA, c.Callee.UA, c.Bye(false))
	return s
}

// cancelRinging: the same abandonment after alerting started.
// sip: RINGING response/INVITE-retransmission loops and the
// legitimate CANCEL from RINGING -> CANCEL_WAIT.
func cancelRinging() dialog.Script {
	var s dialog.Script
	c := witnessCall(2)
	inv := c.Invite(true)
	a, b := dialog.ProxyA, dialog.ProxyB
	s.Add(ms(10), a, b, inv)
	s.Add(ms(20), b, a, c.Answer(sipmsg.StatusRinging))
	s.Add(ms(30), b, a, c.Answer(183))
	s.Add(ms(40), a, b, inv) // retransmission
	s.Add(ms(50), a, b, c.Cancel())
	s.Add(ms(60), b, a, inv.Response(sipmsg.StatusRequestTerminated))
	return s
}

// cancelSpoofed: a third party cancels a call it never placed.
// sip: INVITE_RCVD -cancel-> ATTACK_SPOOFED_CANCEL and the attack
// state's bye/cancel/invite absorbers.
func cancelSpoofed() dialog.Script {
	var s dialog.Script
	c := witnessCall(3)
	c.Callee.Tag = "" // never answered
	inv := c.Invite(true)
	evil := impersonate(c.Cancel())
	s.Add(ms(10), dialog.ProxyA, dialog.ProxyB, inv)
	s.Add(ms(20), attacker, dialog.ProxyB, evil)
	s.Add(ms(30), c.Caller.UA, c.Callee.UA, c.Bye(false))
	s.Add(ms(40), attacker, dialog.ProxyB, evil)
	s.Add(ms(50), dialog.ProxyA, dialog.ProxyB, inv)
	return s
}

// inviteFinal: failed and immediately-answered call attempts.
// sip: INVITE_RCVD -response-> CLOSED (486), RINGING -response->
// CLOSED, and the direct INVITE_RCVD -response-> CALL_ESTABLISHED
// (200 with no 180 first). The first attempt offers no SDP, so its
// teardown fires rtp-callee INIT -delta.bye-> RTP_CLOSE.
func inviteFinal() dialog.Script {
	var s dialog.Script
	a, b := dialog.ProxyA, dialog.ProxyB
	inv := witnessCall(4).Invite(false)
	s.Add(ms(10), a, b, inv)
	s.Add(ms(20), b, a, inv.Response(sipmsg.StatusBusyHere))

	c2 := witnessCall(5)
	s.Add(ms(30), a, b, c2.Invite(true))
	s.Add(ms(40), b, a, c2.Answer(sipmsg.StatusRinging))
	s.Add(ms(50), b, a, c2.Answer(sipmsg.StatusBusyHere))

	c3 := witnessCall(6)
	c3.Establish(&s, ms(60), ms(10), false)
	c3.Hangup(&s, ms(90), ms(10))
	return s
}

// teardown: a hangup whose BYE is first challenged with 401.
// sip: CALL_ESTABLISHED re-INVITE loop, CALL_TEARDOWN
// bye/ack/response loops and the 401 -response-> CALL_ESTABLISHED
// reopen. rtp-caller/rtp-callee: RTP_RCVD_AFTER_BYE -delta.reopen->
// RTP_RCVD and the stale RTP_RCVD -timer.T-> RTP_RCVD.
func teardown() dialog.Script {
	var s dialog.Script
	c := witnessCall(7)
	c.Establish(&s, ms(10), ms(10), false)
	greet(&s, c, ms(50), sdp.PayloadG729)
	s.Add(ms(90), c.Caller.UA, c.Callee.UA, c.ReInvite())
	bye := c.Bye(false)
	s.Add(ms(100), c.Caller.UA, c.Callee.UA, bye)
	s.Add(ms(110), c.Caller.UA, c.Callee.UA, bye) // retransmission
	s.Add(ms(120), c.Caller.UA, c.Callee.UA, c.Ack())
	s.Add(ms(130), dialog.ProxyB, dialog.ProxyA, c.Answer(sipmsg.StatusRinging))
	s.Add(ms(150), dialog.ProxyB, dialog.ProxyA, bye.Response(sipmsg.StatusUnauthorized))
	// Timer T from the first BYE fires at 350 ms with both RTP
	// machines back in RTP_RCVD.
	c.Hangup(&s, ms(400), ms(50))
	return s
}

// postClose: both parties keep talking after the call closed.
// First dialog: the callee hangs up, so its continuing stream is toll
// fraud and the caller's is BYE DoS — rtp-callee RTP_CLOSE ->
// ATTACK_TOLL_FRAUD, rtp-caller RTP_CLOSE -> ATTACK_BYE_DOS, plus
// those attack states' rtp/delta.reopen/delta.bye absorbers. Second
// dialog mirrors the roles for the remaining two attack states.
func postClose() dialog.Script {
	var s dialog.Script
	for i, byCallee := range []bool{true, false} {
		c := witnessCall(8 + i)
		base := time.Duration(i) * ms(600)
		c.Establish(&s, base+ms(10), ms(10), false)
		greet(&s, c, base+ms(40), sdp.PayloadG729)
		src := c.Caller.UA
		if byCallee {
			src = c.Callee.UA
		}
		bye1 := c.Bye(byCallee)
		s.Add(base+ms(100), src, dialog.ProxyB, bye1)
		// Timer T fires at +350 ms; both machines reach RTP_CLOSE.
		frame(&s, c.Callee, c.Caller, base+ms(400), sdp.PayloadG729, c.Callee.SSRC, 2)
		frame(&s, c.Caller, c.Callee, base+ms(405), sdp.PayloadG729, c.Caller.SSRC, 2)
		frame(&s, c.Callee, c.Caller, base+ms(410), sdp.PayloadG729, c.Callee.SSRC, 3)
		frame(&s, c.Caller, c.Callee, base+ms(415), sdp.PayloadG729, c.Caller.SSRC, 3)
		s.Add(base+ms(450), dialog.ProxyB, dialog.ProxyA, bye1.Response(sipmsg.StatusUnauthorized))
		bye2 := c.Bye(byCallee)
		s.Add(base+ms(500), src, dialog.ProxyB, bye2)
		s.Add(base+ms(550), dialog.ProxyB, dialog.ProxyA, bye2.Response(sipmsg.StatusOK))
	}
	return s
}

// reopenClose: a 401-challenged BYE arrives after timer T already
// closed the machines. One direction of each dialog never started, so
// the reopen lands in RTP_CLOSE both started and not: RTP_CLOSE
// -delta.reopen-> RTP_RCVD / RTP_OPEN for both machines, plus RTP_OPEN
// -delta.bye-> RTP_CLOSE for both.
func reopenClose() dialog.Script {
	var s dialog.Script
	for i, calleeTalks := range []bool{true, false} {
		c := witnessCall(10 + i)
		base := time.Duration(i) * ms(800)
		c.Establish(&s, base+ms(10), ms(10), false)
		from, to := c.Caller, c.Callee
		if calleeTalks {
			from, to = to, from
		}
		frame(&s, from, to, base+ms(40), sdp.PayloadG729, from.SSRC, 1)
		// Timer T fires at +350 ms: the started machine reaches
		// RTP_CLOSE; the silent one went there straight from RTP_OPEN.
		challengedBye(&s, c, base+ms(100), ms(350))
		c.Hangup(&s, base+ms(500), ms(50))
	}
	return s
}

// codec: wrong-codec media in every machine state. First dialog:
// violations before any valid packet (RTP_OPEN -rtp-> ATTACK_CODEC_
// VIOLATION both directions) with ATTACK_CODEC rtp/delta.bye/
// delta.reopen absorbers. Second dialog: violations from RTP_RCVD
// while timer T is pending (rtp-callee RTP_RCVD codec entry and the
// ATTACK_CODEC timer.T absorbers).
func codec() dialog.Script {
	var s dialog.Script
	c1 := witnessCall(12)
	c1.Establish(&s, ms(10), ms(10), false)
	greet(&s, c1, ms(40), sdp.PayloadPCMU)
	frame(&s, c1.Callee, c1.Caller, ms(50), sdp.PayloadPCMU, c1.Callee.SSRC, 2)
	challengedBye(&s, c1, ms(100), ms(50))
	c1.Hangup(&s, ms(200), ms(50))

	c2 := witnessCall(13)
	c2.Establish(&s, ms(310), ms(10), false)
	greet(&s, c2, ms(340), sdp.PayloadG729)
	challengedBye(&s, c2, ms(350), ms(10))
	frame(&s, c2.Caller, c2.Callee, ms(400), sdp.PayloadPCMU, c2.Caller.SSRC, 2)
	frame(&s, c2.Callee, c2.Caller, ms(405), sdp.PayloadPCMU, c2.Callee.SSRC, 2)
	// Timer T from the challenged BYE fires at 600 ms inside
	// ATTACK_CODEC_VIOLATION.
	c2.Hangup(&s, ms(650), ms(50))
	return s
}

// spamAbsorb: an SSRC change while timer T is pending, then the
// dialog keeps churning. rtp-caller/rtp-callee ATTACK_MEDIA_SPAM
// timer.T, delta.bye and delta.reopen absorbers.
func spamAbsorb() dialog.Script {
	var s dialog.Script
	c := witnessCall(14)
	c.Establish(&s, ms(10), ms(10), false)
	greet(&s, c, ms(40), sdp.PayloadG729)
	challengedBye(&s, c, ms(50), ms(10))
	frame(&s, c.Caller, c.Callee, ms(100), sdp.PayloadG729, 0x99, 2)
	frame(&s, c.Callee, c.Caller, ms(105), sdp.PayloadG729, 0x99, 2)
	// Timer T from the first BYE fires at 300 ms inside
	// ATTACK_MEDIA_SPAM.
	challengedBye(&s, c, ms(350), ms(50))
	c.Hangup(&s, ms(450), ms(50))
	return s
}

// flood: both streams exceed the rate window while timer T is
// pending. rtp-caller/rtp-callee RTP_RCVD -rtp-> ATTACK_RTP_FLOOD and
// all four ATTACK_RTP_FLOOD absorbers.
func flood() dialog.Script {
	var s dialog.Script
	c := witnessCall(15)
	c.Establish(&s, ms(10), ms(10), false)
	frame(&s, c.Caller, c.Callee, ms(40), sdp.PayloadG729, c.Caller.SSRC, 1)
	frame(&s, c.Callee, c.Caller, ms(41), sdp.PayloadG729, c.Callee.SSRC, 1)
	challengedBye(&s, c, ms(50), ms(10))
	// DefaultConfig allows 100 packets per second-long window; the
	// 100th packet after the opener trips the flood guard at ~268 ms,
	// before timer T (from the challenged BYE) fires at 300 ms.
	for k := 0; k < 100; k++ {
		at := ms(70 + 2*k)
		frame(&s, c.Caller, c.Callee, at, sdp.PayloadG729, c.Caller.SSRC, uint16(2+k))
		frame(&s, c.Callee, c.Caller, at+time.Millisecond, sdp.PayloadG729, c.Callee.SSRC, uint16(2+k))
	}
	frame(&s, c.Caller, c.Callee, ms(310), sdp.PayloadG729, c.Caller.SSRC, 102)
	frame(&s, c.Callee, c.Caller, ms(312), sdp.PayloadG729, c.Callee.SSRC, 102)
	challengedBye(&s, c, ms(350), ms(50))
	c.Hangup(&s, ms(450), ms(50))
	return s
}

// spoofedBye: a fully off-path BYE tears the dialog down.
// sip: CALL_ESTABLISHED -bye-> ATTACK_SPOOFED_BYE and all five
// ATTACK_SPOOFED_BYE absorbers.
func spoofedBye() dialog.Script {
	var s dialog.Script
	c := witnessCall(16)
	c.Establish(&s, ms(10), ms(10), false)
	bye := dialog.SIP{Method: sipmsg.BYE, RequestURI: c.Target, Via: attacker, Branch: "z9hG4bKevil" + c.ID,
		CallID: c.ID, From: mallory, FromTag: "evil", To: c.Callee.AOR, ToTag: c.Callee.Tag, CSeq: 9}
	s.Add(ms(40), attacker, c.Callee.UA, bye)
	s.Add(ms(50), c.Caller.UA, c.Callee.UA, c.Ack())
	s.Add(ms(60), c.Caller.UA, c.Callee.UA, c.Bye(false))
	s.Add(ms(70), attacker, c.Callee.UA, impersonate(c.Cancel()))
	s.Add(ms(80), c.Caller.UA, c.Callee.UA, c.ReInvite())
	s.Add(ms(90), dialog.ProxyB, dialog.ProxyA, bye.Response(sipmsg.StatusOK))
	return s
}

// hijackAbsorb: a hijacking re-INVITE, then more traffic.
// sip: the ATTACK_CALL_HIJACK ack/bye/cancel/invite absorbers.
func hijackAbsorb() dialog.Script {
	var s dialog.Script
	c := witnessCall(17)
	c.Establish(&s, ms(10), ms(10), false)
	s.Add(ms(40), attacker, c.Callee.UA, impersonate(c.ReInvite()))
	s.Add(ms(50), c.Caller.UA, c.Callee.UA, c.Ack())
	s.Add(ms(60), c.Caller.UA, c.Callee.UA, c.Bye(false))
	s.Add(ms(70), attacker, c.Callee.UA, impersonate(c.Cancel()))
	s.Add(ms(80), attacker, c.Callee.UA, impersonate(c.ReInvite()))
	return s
}

// rtpSpam: a spamming stream no SDP ever negotiated.
// rtp-spam: RTP_RCVD -rtp-> ATTACK_MEDIA_SPAM (sequence jump past the
// threshold) and the attack state's rtp absorber.
func rtpSpam() dialog.Script {
	var s dialog.Script
	from := sim.Addr{Host: attacker.Host, Port: 40000}
	to := sim.Addr{Host: "media-sink.example.com", Port: 40000}
	for i, p := range []struct {
		seq uint16
		ts  uint32
	}{{100, 1000}, {300, 40000}, {301, 40160}} { // the jump exceeds SeqGap/TSGap
		s.Add(ms(10+10*i), from, to, dialog.RTP{SSRC: 7, Seq: p.seq, TS: p.ts, PT: sdp.PayloadG729, Len: 1})
	}
	return s
}

// strayResponse: one reflected response, then silence.
// response-flood: PACKET_RCVD -timer.T1-> INIT (the window expires
// under the DRDoS threshold).
func strayResponse() dialog.Script {
	var s dialog.Script
	resp := dialog.SIP{Method: sipmsg.INVITE, Status: sipmsg.StatusRinging, Via: dialog.ProxyA,
		Branch: "z9hG4bKstray", CallID: "stray-1@nowhere.example.net",
		From: sipmsg.URI{User: "victim", Host: "a.example.com"}, FromTag: "t9",
		To: sipmsg.URI{User: "reflector", Host: "b.example.com"}, CSeq: 1}
	s.Add(ms(10), dialog.ProxyB, dialog.ProxyA, resp)
	return s
}
