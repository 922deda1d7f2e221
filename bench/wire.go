package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"vids/internal/rtp"
	"vids/internal/sdp"
	"vids/internal/sipmsg"
)

// kind names a packet shape. Every kind has one fixed wire length, so a
// receive buffer needs exactly one pre-boxed payload slice per kind and
// the generator never converts a []byte to an interface per packet.
type kind uint8

const (
	kInvite kind = iota
	kRinging
	kOK
	kAck
	kBye
	kByeOK
	kRegister
	kRegisterOK
	kMalformed
	kRTP
	kSR
	kRTCPBye
	nKinds
)

// field names one fixed-width decimal field of a SIP template.
type field uint8

const (
	fCall  field = iota // call number: Call-ID, branch and both tags
	fHostA              // caller-side host number
	fHostB              // callee-side host number
	fUserA              // caller address-of-record number
	fUserB              // callee address-of-record number
	fPortA              // caller media port (INVITE's SDP)
	fPortB              // callee media port (200's SDP)
	nFields
)

// sentinels are the digit strings the template messages are built with;
// every occurrence in the serialized form becomes a patch site. They are
// chosen so none is a substring of another or of any fixed text.
var sentinels = [nFields]string{
	fCall:  "7000000007",
	fHostA: "700001",
	fHostB: "700002",
	fUserA: "700003",
	fUserB: "700004",
	fPortA: "60001",
	fPortB: "60002",
}

type patch struct {
	off   int
	width int
	f     field
}

// template is one SIP datagram with its patch sites.
type template struct {
	raw     []byte
	patches []patch
}

func newTemplate(raw []byte) template {
	t := template{raw: raw}
	for f, s := range sentinels {
		for off := 0; ; {
			i := bytes.Index(raw[off:], []byte(s))
			if i < 0 {
				break
			}
			t.patches = append(t.patches, patch{off: off + i, width: len(s), f: field(f)})
			off += i + len(s)
		}
	}
	return t
}

// render copies the template into dst and writes the call's identity
// into every patch site. dst must hold len(t.raw) bytes.
func (t *template) render(dst []byte, v *[nFields]uint64) {
	copy(dst, t.raw)
	for _, p := range t.patches {
		putDigits(dst[p.off:p.off+p.width], v[p.f])
	}
}

func putDigits(b []byte, v uint64) {
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = byte('0' + v%10)
		v /= 10
	}
}

// Host and user naming. Numbers below benignHosts are the benign
// population; numbers from attackBase up belong to attack instances, so
// an alert that names only a host or an address-of-record still names
// its instance.
const (
	benignHosts = 128
	benignUsers = 4096
	attackBase  = 100000
	attackRing  = 4096
)

func hostAName(n uint64) string { return fmt.Sprintf("ua%06d.a.example.com", n) }
func hostBName(n uint64) string { return fmt.Sprintf("ub%06d.b.example.com", n) }

// hostTable holds the host strings a packet's addresses point at, so
// addressing a packet never builds a string.
type hostTable struct {
	benign [benignHosts]string
	attack [attackRing]string
}

func newHostTable(name func(uint64) string) *hostTable {
	t := &hostTable{}
	for i := range t.benign {
		t.benign[i] = name(uint64(i))
	}
	for i := range t.attack {
		t.attack[i] = name(uint64(attackBase + i))
	}
	return t
}

func (t *hostTable) get(n uint64) string {
	if n >= attackBase {
		return t.attack[(n-attackBase)%attackRing]
	}
	return t.benign[n%benignHosts]
}

// wire is the read-only packet material every generator shares.
type wire struct {
	tpl    [nKinds]template
	length [nKinds]int
	hostA  *hostTable
	hostB  *hostTable
}

const (
	rtpLen     = rtp.HeaderSize + 20 // one G.729 frame pair
	ssrcCaller = 0xC0000000
	ssrcCallee = 0xD0000000
)

func buildWire() *wire {
	w := &wire{hostA: newHostTable(hostAName), hostB: newHostTable(hostBName)}

	callID := "c" + sentinels[fCall] + "@a.example.com"
	hostA, hostB := hostAName(700001), hostBName(700002)
	userA, userB := "alice"+sentinels[fUserA], "bob"+sentinels[fUserB]

	inv := sipmsg.NewRequest(sipmsg.INVITE, sipmsg.URI{User: userB, Host: "b.example.com"})
	inv.Via = []sipmsg.Via{{Transport: "UDP", Host: hostA, Port: 5060,
		Params: map[string]string{"branch": "z9hG4bK" + sentinels[fCall]}}}
	inv.From = sipmsg.NameAddr{URI: sipmsg.URI{User: userA, Host: "a.example.com"}}.
		WithTag("ct" + sentinels[fCall])
	inv.To = sipmsg.NameAddr{URI: sipmsg.URI{User: userB, Host: "b.example.com"}}
	contact := sipmsg.NameAddr{URI: sipmsg.URI{User: userA, Host: hostA}}
	inv.Contact = &contact
	inv.CallID = callID
	inv.CSeq = sipmsg.CSeq{Seq: 1, Method: sipmsg.INVITE}
	inv.ContentType = "application/sdp"
	inv.Body = sdp.New(userA, hostA, 60001, sdp.PayloadG729).Marshal()

	ringing := sipmsg.NewResponse(inv, sipmsg.StatusRinging)
	ringing.To = ringing.To.WithTag("et" + sentinels[fCall])

	ok := sipmsg.NewResponse(inv, sipmsg.StatusOK)
	ok.To = ringing.To
	okContact := sipmsg.NameAddr{URI: sipmsg.URI{User: userB, Host: hostB}}
	ok.Contact = &okContact
	ok.ContentType = "application/sdp"
	ok.Body = sdp.New(userB, hostB, 60002, sdp.PayloadG729).Marshal()

	inDialog := func(method sipmsg.Method, seq uint32) *sipmsg.Message {
		m := sipmsg.NewRequest(method, sipmsg.URI{User: userB, Host: hostB})
		m.Via = inv.Via
		m.From = inv.From
		m.To = ok.To
		m.CallID = callID
		m.CSeq = sipmsg.CSeq{Seq: seq, Method: method}
		return m
	}
	bye := inDialog(sipmsg.BYE, 2)

	reg := sipmsg.NewRequest(sipmsg.REGISTER, sipmsg.URI{Host: "a.example.com"})
	reg.Via = inv.Via
	reg.From = sipmsg.NameAddr{URI: sipmsg.URI{User: userA, Host: "a.example.com"}}.
		WithTag("rg" + sentinels[fCall])
	reg.To = sipmsg.NameAddr{URI: sipmsg.URI{User: userA, Host: "a.example.com"}}
	reg.CallID = callID
	reg.CSeq = sipmsg.CSeq{Seq: 1, Method: sipmsg.REGISTER}

	// A start line with no mandatory header: the lite extract bails and
	// the full parser rejects it, so it is counted and retired at ingress.
	malformed := []byte("INVITE sip:bob" + sentinels[fUserB] + "@b.example.com SIP/2.0\r\n" +
		"X-Junk: " + sentinels[fCall] + "\r\n\r\n")

	sr, err := (&rtp.RTCP{Type: rtp.RTCPSenderReport}).Marshal()
	if err != nil {
		panic(err) // static fields; cannot fail
	}
	rtcpBye, err := (&rtp.RTCP{Type: rtp.RTCPBye}).Marshal()
	if err != nil {
		panic(err)
	}
	rtpPkt, err := (&rtp.Packet{PayloadType: sdp.PayloadG729, Payload: make([]byte, rtpLen-rtp.HeaderSize)}).Marshal()
	if err != nil {
		panic(err)
	}

	for k, raw := range [nKinds][]byte{
		kInvite:     inv.Bytes(),
		kRinging:    ringing.Bytes(),
		kOK:         ok.Bytes(),
		kAck:        inDialog(sipmsg.ACK, 1).Bytes(),
		kBye:        bye.Bytes(),
		kByeOK:      sipmsg.NewResponse(bye, sipmsg.StatusOK).Bytes(),
		kRegister:   reg.Bytes(),
		kRegisterOK: sipmsg.NewResponse(reg, sipmsg.StatusOK).Bytes(),
		kMalformed:  malformed,
		kRTP:        rtpPkt,
		kSR:         sr,
		kRTCPBye:    rtcpBye,
	} {
		w.tpl[k] = newTemplate(raw)
		w.length[k] = len(raw)
	}
	return w
}

// renderMedia writes an RTP or RTCP datagram of the given kind.
func (w *wire) renderMedia(dst []byte, k kind, ssrc uint32, seq uint16, ts uint32) {
	copy(dst, w.tpl[k].raw)
	if k == kRTP {
		binary.BigEndian.PutUint16(dst[2:], seq)
		binary.BigEndian.PutUint32(dst[4:], ts)
		binary.BigEndian.PutUint32(dst[8:], ssrc)
		return
	}
	binary.BigEndian.PutUint32(dst[4:], ssrc)
}
