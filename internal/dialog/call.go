package dialog

import (
	"fmt"
	"time"

	"vids/internal/rtp"
	"vids/internal/sdp"
	"vids/internal/sim"
	"vids/internal/sipmsg"
)

// Party is one end of a call.
type Party struct {
	AOR     sipmsg.URI // address of record: the From/To URI
	Tag     string     // dialog tag; empty while the party has none
	Contact sipmsg.URI // Contact header; its user is the SDP origin
	UA      sim.Addr   // signaling transport address
	Media   sim.Addr   // media address its SDP advertises and its RTP leaves from
	SSRC    uint32
}

// offer is the session description advertising p's media.
func (p Party) offer() SDP {
	return SDP{User: p.Contact.User, Media: p.Media, Payload: sdp.PayloadG729}
}

// Stream addresses media packet m (RTP or RTCP) from p to peer: RTP
// between the advertised media addresses, RTCP one port above them.
func (p Party) Stream(peer Party, at time.Duration, m Msg) Step {
	from, to := p.Media, peer.Media
	if m.Proto() == sim.ProtoRTCP {
		from.Port++
		to.Port++
	}
	return Step{At: at, From: from, To: to, Msg: m}
}

// Call is the identity of one dialog between Caller and Callee, plus
// the caller's CSeq counter: each in-dialog request takes the next
// number after the INVITE's 1.
type Call struct {
	ID             string // Call-ID
	Caller, Callee Party
	// CallerProxy and CalleeProxy are the hops the initial INVITE
	// transaction travels between; zero means the UAs talk directly.
	// The caller's hop is the INVITE's top Via.
	CallerProxy, CalleeProxy sim.Addr
	// Target is the Request-URI of in-dialog requests; zero means the
	// remote party's Contact.
	Target sipmsg.URI
	// ReuseBranch sends the caller's ACK, BYE and re-INVITE on the
	// INVITE's Via branch instead of a fresh branch each, as the
	// Synthesize calls always have.
	ReuseBranch bool

	cseq uint32
}

// TestbedCall is call n between the Figure 7 testbed's phones,
// alice@ua1.a.example.com and bob@ua2.b.example.com, whose INVITE
// transaction crosses proxy.a and proxy.b.
func TestbedCall(id string, n int) *Call {
	return &Call{
		ID: id,
		Caller: Party{AOR: sipURI("alice", "a.example.com"), Tag: "t1",
			Contact: sipURI("alice", "ua1.a.example.com"),
			UA:      sim.Addr{Host: "ua1.a.example.com", Port: 5060},
			Media:   sim.Addr{Host: "ua1.a.example.com", Port: 20000 + 2*n}},
		Callee: Party{AOR: sipURI("bob", "b.example.com"), Tag: "t2",
			Contact: sipURI("bob", "ua2.b.example.com"),
			UA:      sim.Addr{Host: "ua2.b.example.com", Port: 5060},
			Media:   sim.Addr{Host: "ua2.b.example.com", Port: 30000 + 2*n}},
		CallerProxy: ProxyA,
		CalleeProxy: ProxyB,
	}
}

// The testbed's outbound proxies.
var (
	ProxyA = sim.Addr{Host: "proxy.a.example.com", Port: 5060}
	ProxyB = sim.Addr{Host: "proxy.b.example.com", Port: 5060}
)

func (c *Call) callerHop() sim.Addr { return orAddr(c.CallerProxy, c.Caller.UA) }
func (c *Call) calleeHop() sim.Addr { return orAddr(c.CalleeProxy, c.Callee.UA) }

func orAddr(a, fallback sim.Addr) sim.Addr {
	if a.Host == "" {
		return fallback
	}
	return a
}

func (c *Call) target(remote Party) sipmsg.URI {
	if c.Target != (sipmsg.URI{}) {
		return c.Target
	}
	return remote.Contact
}

func (c *Call) nextCSeq() uint32 {
	if c.cseq == 0 {
		c.cseq = 1
	}
	c.cseq++
	return c.cseq
}

// branch is the Via branch of a caller request: the INVITE's when the
// call reuses it, otherwise fresh.
func (c *Call) branch(fresh string) string {
	if c.ReuseBranch {
		return c.Invite(false).Branch
	}
	return fresh
}

// Invite is the initial INVITE, offering the caller's media when offer.
func (c *Call) Invite(offer bool) SIP {
	m := SIP{Method: sipmsg.INVITE, RequestURI: c.Callee.AOR, Via: c.callerHop(), Branch: "z9hG4bK" + c.ID,
		CallID: c.ID, From: c.Caller.AOR, FromTag: c.Caller.Tag, To: c.Callee.AOR, CSeq: 1,
		Contact: c.Caller.Contact}
	if offer {
		m.SDP = c.Caller.offer()
	}
	return m
}

// Answer is the callee's response to the INVITE, To-tagged with the
// callee's tag.
func (c *Call) Answer(code int) SIP {
	r := c.Invite(false).Response(code)
	r.ToTag = c.Callee.Tag
	return r
}

// OK is the callee's 200 to the INVITE, answering with its media when
// answer.
func (c *Call) OK(answer bool) SIP {
	r := c.Answer(sipmsg.StatusOK)
	r.Contact = c.Callee.Contact
	if answer {
		r.SDP = c.Callee.offer()
	}
	return r
}

// Ack acknowledges the 200.
func (c *Call) Ack() SIP {
	return SIP{Method: sipmsg.ACK, RequestURI: c.target(c.Callee), Via: sipVia(c.Caller.UA),
		Branch: c.branch("z9hG4bKack" + c.ID), CallID: c.ID, From: c.Caller.AOR, FromTag: c.Caller.Tag,
		To: c.Callee.AOR, ToTag: c.Callee.Tag, CSeq: 1}
}

// Bye hangs up, from the callee when byCallee, else from the caller.
// The From tag decides which party the SIP machine records as the BYE's
// sender, and the known-party guard wants the datagram to leave that
// party's UA.
func (c *Call) Bye(byCallee bool) SIP {
	seq := c.nextCSeq()
	from, to := c.Caller, c.Callee
	branch := fmt.Sprintf("z9hG4bKbye%d%s", seq, c.ID)
	if byCallee {
		from, to = to, from
	} else {
		branch = c.branch(branch)
	}
	return SIP{Method: sipmsg.BYE, RequestURI: c.target(to), Via: sipVia(from.UA), Branch: branch,
		CallID: c.ID, From: from.AOR, FromTag: from.Tag, To: to.AOR, ToTag: to.Tag, CSeq: seq}
}

// Cancel abandons the pending INVITE; it travels the INVITE's hop.
func (c *Call) Cancel() SIP {
	return SIP{Method: sipmsg.CANCEL, RequestURI: c.Callee.AOR, Via: c.callerHop(),
		Branch: "z9hG4bKcancel" + c.ID, CallID: c.ID, From: c.Caller.AOR, FromTag: c.Caller.Tag,
		To: c.Callee.AOR, CSeq: 1}
}

// ReInvite is an in-dialog INVITE from the caller, without a body. Its
// tagged To keeps it from looking like an initial INVITE to the flood
// detector or like a retransmission to the SIP machine.
func (c *Call) ReInvite() SIP {
	seq := c.nextCSeq()
	return SIP{Method: sipmsg.INVITE, RequestURI: c.target(c.Callee), Via: sipVia(c.Caller.UA),
		Branch: c.branch(fmt.Sprintf("z9hG4bKre%d%s", seq, c.ID)), CallID: c.ID,
		From: c.Caller.AOR, FromTag: c.Caller.Tag, To: c.Callee.AOR, ToTag: c.Callee.Tag, CSeq: seq}
}

// sipVia is the Via sent-by of a UA: its host on the SIP port.
func sipVia(ua sim.Addr) sim.Addr { return sim.Addr{Host: ua.Host, Port: 5060} }

// Establish scripts the call's setup gap apart from at: the INVITE
// (with the caller's SDP), a 180 when ringing, and the 200 (with the
// callee's) between the signaling hops, then the ACK from UA to UA.
func (c *Call) Establish(s *Script, at, gap time.Duration, ringing bool) {
	s.Add(at, c.callerHop(), c.calleeHop(), c.Invite(true))
	if ringing {
		at += gap
		s.Add(at, c.calleeHop(), c.callerHop(), c.Answer(sipmsg.StatusRinging))
	}
	s.Add(at+gap, c.calleeHop(), c.callerHop(), c.OK(true))
	s.Add(at+2*gap, c.Caller.UA, c.Callee.UA, c.Ack())
}

// Talk scripts n G.729 packets each way from at at the 20 ms cadence,
// the callee's 1 ms behind the caller's, and one RTCP sender report
// from the caller midway.
func (c *Call) Talk(s *Script, at time.Duration, n int) {
	for k := 0; k < n; k++ {
		t := at + time.Duration(k)*20*time.Millisecond
		*s = append(*s,
			c.Caller.Stream(c.Callee, t, G729(c.Caller.SSRC, uint16(k+1))),
			c.Callee.Stream(c.Caller, t+time.Millisecond, G729(c.Callee.SSRC, uint16(k+1))))
		if k == n/2 {
			*s = append(*s, c.Caller.Stream(c.Callee, t+2*time.Millisecond,
				RTCP{Type: rtp.RTCPSenderReport, SSRC: c.Caller.SSRC}))
		}
	}
}

// Hangup scripts the caller's BYE at at, UA to UA, and its 200 gap
// later back across the signaling hops.
func (c *Call) Hangup(s *Script, at, gap time.Duration) {
	bye := c.Bye(false)
	s.Add(at, c.Caller.UA, c.Callee.UA, bye)
	s.Add(at+gap, c.calleeHop(), c.callerHop(), bye.Response(sipmsg.StatusOK))
}

// Hijack is the call-hijack re-INVITE (§3.1): in-dialog under the
// caller's identity but sent from attacker's host, its SDP redirects
// the callee's media to attacker's media address.
func (c *Call) Hijack(attacker Party) SIP {
	re := c.ReInvite()
	re.Via = sipVia(attacker.UA)
	re.Contact = attacker.Contact
	re.SDP = attacker.offer()
	return re
}
