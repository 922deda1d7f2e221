// Package attack implements scripted injectors for the paper's threat
// model (Section 3): CANCEL and BYE denial of service, INVITE request
// flooding, call hijacking via in-dialog re-INVITE, media spamming,
// RTP flooding with codec changes, and toll fraud. Each injector
// crafts the packets a real attacker would send — including forged
// SIP identities and spoofed transport sources — and injects them at
// the attacker's network attachment point.
package attack

import (
	"fmt"
	"time"

	"vids/internal/dialog"
	"vids/internal/rtp"
	"vids/internal/sdp"
	"vids/internal/sim"
	"vids/internal/sipmsg"
)

// Attacker crafts and injects malicious traffic from a network node.
type Attacker struct {
	sim  *sim.Simulator
	net  *sim.Network
	host string
	rng  *sim.RNG
	sent uint64
}

// New creates an attacker homed at host (which must exist in the
// topology).
func New(s *sim.Simulator, n *sim.Network, host string) *Attacker {
	return &Attacker{sim: s, net: n, host: host, rng: s.RNG()}
}

// Sent reports packets injected so far.
func (a *Attacker) Sent() uint64 { return a.sent }

// inject sends one scripted datagram, physically leaving the
// attacker's node whatever source address the step claims.
func (a *Attacker) inject(st dialog.Step) error {
	raw := st.Msg.Bytes()
	a.sent++
	return a.net.SendFrom(a.host, &sim.Packet{
		From: st.From, To: st.To, Proto: st.Msg.Proto(),
		Size: len(raw) + 28, Payload: raw,
	})
}

// sendSIP injects a SIP message from the attacker's SIP port; with
// spoofSrc non-empty it claims to come from that host.
func (a *Attacker) sendSIP(m dialog.SIP, to sim.Addr, spoofSrc string) error {
	return a.inject(dialog.Step{From: sim.Addr{Host: viaHost(a.host, spoofSrc), Port: 5060}, To: to, Msg: m})
}

// DialogInfo is what an eavesdropping attacker learned about a call
// (the paper assumes attackers can observe SDP and dialog
// identifiers, Section 3.2).
type DialogInfo struct {
	CallID    string
	CallerTag string
	CalleeTag string
	CallerAOR sipmsg.URI
	CalleeAOR sipmsg.URI

	CallerHost string
	CalleeHost string

	// Media endpoints from the SDP exchange.
	CallerMediaPort int
	CalleeMediaPort int
	SSRC            uint32 // sniffed from the caller's stream
	LastSeq         uint16
	LastTS          uint32
}

// call is the sniffed dialog in the grammar's terms: in-dialog
// requests target the callee's host, and forged media claims the
// caller's media address.
func (d DialogInfo) call() *dialog.Call {
	return &dialog.Call{
		ID: d.CallID,
		Caller: dialog.Party{AOR: d.CallerAOR, Tag: d.CallerTag, UA: sim.Addr{Host: d.CallerHost, Port: 5060},
			Media: sim.Addr{Host: d.CallerHost, Port: d.CallerMediaPort}},
		Callee: dialog.Party{AOR: d.CalleeAOR, Tag: d.CalleeTag,
			Contact: sipmsg.URI{User: d.CalleeAOR.User, Host: d.CalleeHost},
			Media:   sim.Addr{Host: d.CalleeHost, Port: d.CalleeMediaPort}},
	}
}

// ByeDoS sends a forged BYE that impersonates the caller, addressed
// to the callee (Section 3.1). With spoofSource the transport source
// is forged too, defeating source-consistency checks.
func (a *Attacker) ByeDoS(d DialogInfo, spoofSource bool) error {
	bye := d.call().Bye(false)
	src := ""
	if spoofSource {
		src = d.CallerHost
	}
	bye.Via = sim.Addr{Host: viaHost(a.host, src), Port: 5060}
	bye.Branch = "z9hG4bKatk" + a.hex(8)
	return a.sendSIP(bye, sim.Addr{Host: d.CalleeHost, Port: 5060}, src)
}

// CancelDoS sends a forged CANCEL for a pending INVITE toward the
// callee's proxy (Section 3.1). branch must match the INVITE's top
// Via branch on that hop for the UAS to associate it.
func (a *Attacker) CancelDoS(d DialogInfo, branch string, to sim.Addr, spoofSrc string) error {
	cancel := d.call().Cancel()
	cancel.Via = sim.Addr{Host: viaHost(a.host, spoofSrc), Port: 5060}
	cancel.Branch = branch
	return a.sendSIP(cancel, to, spoofSrc)
}

// InviteFlood fires count INVITEs at the target AOR through its
// proxy, spaced by gap (Section 3.1: "A number of IP phones together
// may launch an INVITE flooding attack to overwhelm a single
// telephone terminal").
func (a *Attacker) InviteFlood(target sipmsg.URI, proxy sim.Addr, count int, gap time.Duration) {
	for i := 0; i < count; i++ {
		i := i
		a.sim.Schedule(time.Duration(i)*gap, func() {
			bot := a.party("bot", 40000)
			bot.AOR = sipmsg.URI{User: fmt.Sprintf("bot%d", i), Host: "evil.example.com"}
			bot.Tag = a.hex(8)
			inv := dialog.FloodInvite(bot, target, "flood-"+a.hex(10))
			inv.Branch = "z9hG4bKfld" + a.hex(8)
			_ = a.sendSIP(inv, proxy, "")
		})
	}
}

// Hijack sends an in-dialog re-INVITE that redirects the callee's
// media to the attacker (Section 3.1's call-hijacking scenario).
func (a *Attacker) Hijack(d DialogInfo) error {
	re := d.call().Hijack(a.party("mallory", 41000))
	re.Branch, re.CSeq = "z9hG4bKhjk"+a.hex(8), 3
	return a.sendSIP(re, sim.Addr{Host: d.CalleeHost, Port: 5060}, "")
}

// MediaSpam injects count fabricated RTP packets into the callee's
// media port reusing the sniffed SSRC with jumped sequence numbers
// and timestamps (Section 3.2, Figure 6).
func (a *Attacker) MediaSpam(d DialogInfo, count int, gap time.Duration) {
	c := d.call()
	for i := 0; i < count; i++ {
		i := i
		a.sim.Schedule(time.Duration(i)*gap, func() {
			p := dialog.RTP{PT: sdp.PayloadG729, Seq: d.LastSeq + 1000 + uint16(i),
				TS: d.LastTS + 160000 + uint32(i)*160, SSRC: d.SSRC, Len: 20}
			_ = a.inject(c.Caller.Stream(c.Callee, 0, p))
		})
	}
}

// RTPFlood floods the callee's media port with well-formed packets at
// interval gap, optionally switching the codec (Section 3.2:
// "Changing the encoding scheme or flooding with RTP packets").
func (a *Attacker) RTPFlood(d DialogInfo, count int, gap time.Duration, wrongCodec bool) {
	payloadType := uint8(sdp.PayloadG729)
	size := 20
	if wrongCodec {
		payloadType = sdp.PayloadPCMU
		size = 160
	}
	c := d.call()
	for i := 0; i < count; i++ {
		i := i
		a.sim.Schedule(time.Duration(i)*gap, func() {
			p := dialog.RTP{PT: payloadType, Seq: d.LastSeq + 1 + uint16(i),
				TS: d.LastTS + 160 + uint32(i)*160, SSRC: d.SSRC, Len: size}
			_ = a.inject(c.Caller.Stream(c.Callee, 0, p))
		})
	}
}

// RTCPBye injects a forged RTCP BYE into the callee's control port,
// claiming the caller's stream ended — a media-plane teardown that
// never touches SIP (RFC 3550 BYE abuse).
func (a *Attacker) RTCPBye(d DialogInfo) error {
	c := d.call()
	return a.inject(c.Caller.Stream(c.Callee, 0, dialog.RTCP{Type: rtp.RTCPBye, SSRC: d.SSRC}))
}

// party is the attacker's own endpoint as a call party: contact user
// at its host, signaling on 5060 and media on mediaPort.
func (a *Attacker) party(user string, mediaPort int) dialog.Party {
	return dialog.Party{Contact: sipmsg.URI{User: user, Host: a.host},
		UA: sim.Addr{Host: a.host, Port: 5060}, Media: sim.Addr{Host: a.host, Port: mediaPort}}
}

// hex draws n deterministic hex digits from the simulator RNG.
func (a *Attacker) hex(n int) string {
	const digits = "0123456789abcdef"
	b := make([]byte, n)
	for i := range b {
		b[i] = digits[a.rng.Intn(16)]
	}
	return string(b)
}

// viaHost picks the Via sent-by host consistent with the spoofing
// decision.
func viaHost(real, spoof string) string {
	if spoof != "" {
		return spoof
	}
	return real
}

// TollFraudster models a *misbehaving endpoint* rather than a third
// party: it terminates billing with a genuine BYE but keeps its media
// sender running (Section 3.1: "Billing and toll fraud can be
// realized if one end sends a BYE message to stop billing but
// continues sending RTP packets").
type TollFraudster struct {
	attacker *Attacker
}

// NewTollFraudster wraps an attacker positioned at the misbehaving
// endpoint's own host.
func NewTollFraudster(a *Attacker) *TollFraudster { return &TollFraudster{attacker: a} }

// ContinueMedia keeps emitting the caller's stream after the BYE: the
// sequence numbers continue naturally from the sniffed state.
func (f *TollFraudster) ContinueMedia(d DialogInfo, count int, gap time.Duration) {
	a, c := f.attacker, d.call()
	for i := 0; i < count; i++ {
		i := i
		a.sim.Schedule(time.Duration(i)*gap, func() {
			p := dialog.RTP{PT: sdp.PayloadG729, Seq: d.LastSeq + 1 + uint16(i),
				TS: d.LastTS + 160 + uint32(i)*160, SSRC: d.SSRC, Len: 20}
			_ = a.inject(c.Caller.Stream(c.Callee, 0, p))
		})
	}
}

// DRDoS fans spoofed OPTIONS requests out to the given reflectors,
// forging the victim's address as the source. Every reflector's
// response converges on the victim (Section 3.1: "the victim will be
// swamped with the subsequent response messages").
func (a *Attacker) DRDoS(victim sim.Addr, reflectors []sim.Addr, perReflector int, gap time.Duration) {
	sent := 0
	for r := 0; r < perReflector; r++ {
		for _, refl := range reflectors {
			refl := refl
			a.sim.Schedule(time.Duration(sent)*gap, func() {
				opts := dialog.SIP{Method: sipmsg.OPTIONS, RequestURI: sipmsg.URI{Host: refl.Host},
					From: sipmsg.URI{User: "victim", Host: victim.Host}, FromTag: a.hex(8),
					To: sipmsg.URI{Host: refl.Host}, CallID: "drdos-" + a.hex(10), CSeq: 1}
				// The spoofed Via routes the response at the victim.
				opts.Via, opts.Branch = victim, "z9hG4bKdr"+a.hex(8)
				_ = a.sendSIP(opts, refl, victim.Host)
			})
			sent++
		}
	}
}

// HijackRegistration sends a forged REGISTER to the victim's
// registrar, rebinding the victim's address-of-record to the
// attacker's own host so future calls are delivered to the attacker.
func (a *Attacker) HijackRegistration(victimAOR sipmsg.URI, registrar sim.Addr) error {
	reg := dialog.SIP{Method: sipmsg.REGISTER, RequestURI: sipmsg.URI{Host: victimAOR.Host},
		From: victimAOR, FromTag: a.hex(8), To: victimAOR, CallID: "hijack-reg-" + a.hex(10), CSeq: 1,
		Via: sim.Addr{Host: a.host, Port: 5060}, Branch: "z9hG4bKrg" + a.hex(8),
		Contact: sipmsg.URI{User: victimAOR.User, Host: a.host}, Expires: 3600}
	return a.sendSIP(reg, registrar, "")
}
