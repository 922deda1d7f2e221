package dialog

import (
	"fmt"
	"strings"
	"time"

	"vids/internal/rtp"
	"vids/internal/sim"
	"vids/internal/sipmsg"
)

// The seven attack instances Synthesize injects, one per detector
// family of the paper's threat model (§3).

var attackerSIP = sim.Addr{Host: "attacker.example.net", Port: 5060}

func sipURI(user, host string) sipmsg.URI { return sipmsg.URI{User: user, Host: host} }

// inviteFlood sends n initial INVITEs with distinct Call-IDs at one
// victim AOR within the Figure 4 window.
func inviteFlood(s *Script, start time.Duration, n int) {
	for i := 0; i < n; i++ {
		bot := Party{AOR: sipURI("prankster", "example.net"), Tag: fmt.Sprintf("ft%d", i),
			Contact: sipURI("prankster", attackerSIP.Host), UA: attackerSIP,
			Media: sim.Addr{Host: attackerSIP.Host, Port: 50000 + 4*i}}
		inv := FloodInvite(bot, sipURI("victim", "b.example.com"), fmt.Sprintf("flood-%d@example.net", i))
		inv.Branch = fmt.Sprintf("z9hG4bKflood%d", i)
		s.Add(start+time.Duration(i)*10*time.Millisecond, attackerSIP, ProxyB, inv)
	}
}

// FloodInvite is one INVITE of a flood: a fresh call from bot to
// victim offering the bot's media.
func FloodInvite(bot Party, victim sipmsg.URI, callID string) SIP {
	c := Call{ID: callID, Caller: bot, Callee: Party{AOR: victim}}
	return c.Invite(true)
}

// reflectedResponses sends n SIP responses for calls the victim never
// initiated — the DRDoS reflection signature.
func reflectedResponses(s *Script, start time.Duration, n int) {
	victim := sim.Addr{Host: "reflect.b.example.com", Port: 5060}
	for i := 0; i < n; i++ {
		resp := SIP{Method: sipmsg.INVITE, Status: sipmsg.StatusOK, Via: victim,
			Branch: fmt.Sprintf("z9hG4bKrefl%d", i), CallID: fmt.Sprintf("refl-%d@example.org", i),
			From: sipURI("x", "b.example.com"), FromTag: fmt.Sprintf("rt%d", i),
			To: sipURI("y", "example.org"), ToTag: fmt.Sprintf("rr%d", i), CSeq: 1}
		src := sim.Addr{Host: fmt.Sprintf("reflector%d.example.org", i%7), Port: 5060}
		s.Add(start+time.Duration(i)*10*time.Millisecond, src, victim, resp)
	}
}

// victimCall is call i of the attack instances: SynthCall's shape on
// its own Call-IDs, hosts and media ports (two above a benign call's),
// which no benign call number produces, so an attack never lands on a
// benign call's state however many calls the trace holds.
func victimCall(i int) *Call {
	c := SynthCall(i, "victim")
	for _, p := range []*Party{&c.Caller, &c.Callee} {
		host := strings.Replace(p.UA.Host, "ua", "victim", 1)
		p.Contact.Host, p.UA.Host, p.Media.Host = host, host, host
		p.Media.Port += 2
	}
	return c
}

// spoofedBye runs the paper's flagship scenario (Figure 5): a call is
// torn down by a BYE the caller never sent, then both parties keep
// talking past the grace window — BYE DoS on the callee's stream,
// toll fraud on the "hung up" caller's. The attacker spoofs the
// caller's identity; at the IP layer the packet claims the caller's
// host, which is exactly what vids sees.
func spoofedBye(s *Script, start time.Duration) {
	c := victimCall(0)
	c.Converse(s, start, 3, false)
	c.Hangup(s, start+60*time.Millisecond+3*20*time.Millisecond, 20*time.Millisecond)
	// Both media directions continue well past ByeGraceT (250 ms).
	after := start + 620*time.Millisecond
	*s = append(*s, c.Caller.Stream(c.Callee, after, G729(c.Caller.SSRC, 4)),
		c.Callee.Stream(c.Caller, after+time.Millisecond, G729(c.Callee.SSRC, 4)))
}

// rtcpByeInjection tears down the media plane of a live call with a
// forged RTCP BYE while the SIP dialog stays established.
func rtcpByeInjection(s *Script, start time.Duration) {
	c := victimCall(1)
	c.Converse(s, start, 3, false)
	forger := Party{Media: sim.Addr{Host: attackerSIP.Host, Port: 60000}}
	*s = append(*s, forger.Stream(c.Caller, start+400*time.Millisecond,
		RTCP{Type: rtp.RTCPBye, SSRC: c.Callee.SSRC}))
}

// unsolicitedSpam streams RTP at a destination no SDP ever advertised,
// with a sequence jump past Δn.
func unsolicitedSpam(s *Script, start time.Duration) {
	src := sim.Addr{Host: "spammer.example.net", Port: 61000}
	dst := sim.Addr{Host: "open.b.example.com", Port: 40008}
	s.Add(start, src, dst, G729(0xBEEF, 1))
	s.Add(start+20*time.Millisecond, src, dst, G729(0xBEEF, 500))
}

// rogueRegister crosses the edge with a REGISTER (and the registrar's
// answer, which must stay silent).
func rogueRegister(s *Script, start time.Duration) {
	reg := sim.Addr{Host: "registrar.a.example.com", Port: 5060}
	r := SIP{Method: sipmsg.REGISTER, RequestURI: sipmsg.URI{Host: "a.example.com"}, Via: attackerSIP,
		Branch: "z9hG4bKrogue", CallID: "rogue-reg@example.net", From: sipURI("alice0", "a.example.com"),
		FromTag: "rg1", To: sipURI("alice0", "a.example.com"), CSeq: 1}
	s.Add(start, attackerSIP, reg, r)
	s.Add(start+20*time.Millisecond, reg, attackerSIP, r.Response(sipmsg.StatusOK))
}

// strayRequest sends a mid-dialog request for a call vids never saw
// begin — a plain protocol deviation.
func strayRequest(s *Script, start time.Duration) {
	src := sim.Addr{Host: "stranger.example.net", Port: 5060}
	ack := SIP{Method: sipmsg.ACK, RequestURI: sipURI("bob0", "b.example.com"), Via: src,
		Branch: "z9hG4bKstray", CallID: "never-started@example.net", From: sipURI("nobody", "example.net"),
		FromTag: "na", To: sipURI("bob0", "b.example.com"), ToTag: "nb", CSeq: 9}
	s.Add(start, src, ProxyB, ack)
}
