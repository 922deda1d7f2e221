// Package dialog is the one grammar every synthetic trace in vids is
// written in. A call, an attack instance or a coverage witness is a
// script: a sequence of typed steps, each one datagram at a virtual
// time between two transport addresses carrying a SIP request or
// response, an RTP or RTCP packet, or raw hostile bytes. Render turns
// a script into trace entries through the wire encoders of sipmsg, sdp
// and rtp; outside the testbed's own SIP and media stacks, every
// synthetic packet in the repository is built here.
//
// Because a script is data, it can be edited step by step: the
// differential sequence mutator drops, duplicates, swaps and
// cross-wires steps of the paper's cross-protocol attack sequences
// (§3) and shrinks any disagreement back to a short script.
package dialog

import (
	"os"
	"time"

	"vids/internal/rtp"
	"vids/internal/sdp"
	"vids/internal/sim"
	"vids/internal/sipmsg"
	"vids/internal/trace"
)

// Step is one datagram of a script.
type Step struct {
	At       time.Duration
	From, To sim.Addr
	Msg      Msg
}

// Msg is the payload of a step: a SIP, RTP, RTCP or Raw value.
type Msg interface {
	Proto() sim.Proto
	Bytes() []byte
}

// Script is a sequence of steps, rendered in slice order.
type Script []Step

// Add appends one step.
func (s *Script) Add(at time.Duration, from, to sim.Addr, m Msg) {
	*s = append(*s, Step{At: at, From: from, To: to, Msg: m})
}

// Render encodes every step as a trace entry, in script order.
func Render(steps []Step) []trace.Entry {
	out := make([]trace.Entry, len(steps))
	for i, st := range steps {
		data := st.Msg.Bytes()
		out[i] = trace.Entry{
			AtNanos:  int64(st.At),
			Proto:    st.Msg.Proto().String(),
			FromHost: st.From.Host,
			FromPort: st.From.Port,
			ToHost:   st.To.Host,
			ToPort:   st.To.Port,
			Size:     len(data),
			Data:     data,
		}
	}
	return out
}

// WriteFile renders s as a JSONL trace file, replayable with
// `vids -replay`.
func WriteFile(path string, s Script) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := trace.NewWriter(f)
	for _, e := range Render(s) {
		if err := w.Record(e.Packet(), e.At()); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// SIP is one SIP request or response with a single Via.
type SIP struct {
	// Method is the request method, or for a response the method of
	// the request it answers (the CSeq method).
	Method sipmsg.Method
	// Status makes the message a response; 0 is a request.
	Status     int
	RequestURI sipmsg.URI
	Via        sim.Addr // top Via sent-by
	Branch     string
	CallID     string
	From, To   sipmsg.URI
	FromTag    string
	ToTag      string
	CSeq       uint32
	Contact    sipmsg.URI // zero: no Contact header
	Expires    int        // 0: no Expires header
	SDP        SDP        // zero: no body
}

// SDP is a session description offering one audio stream.
type SDP struct {
	User    string   // o= username
	Media   sim.Addr // c= address and m= port
	Payload int
}

// Response answers request m with code, mirroring its Via, From, To,
// Call-ID and CSeq as a UAS does (RFC 3261 §8.2.6.2).
func (m SIP) Response(code int) SIP {
	return SIP{Method: m.Method, Status: code, Via: m.Via, Branch: m.Branch, CallID: m.CallID,
		From: m.From, FromTag: m.FromTag, To: m.To, ToTag: m.ToTag, CSeq: m.CSeq}
}

// Proto labels SIP steps.
func (SIP) Proto() sim.Proto { return sim.ProtoSIP }

// Message builds the sipmsg form of m.
func (m SIP) Message() *sipmsg.Message {
	var msg *sipmsg.Message
	if m.Status == 0 {
		msg = sipmsg.NewRequest(m.Method, m.RequestURI)
	} else {
		msg = &sipmsg.Message{StatusCode: m.Status, Reason: sipmsg.ReasonPhrase(m.Status), Expires: -1}
	}
	msg.Via = []sipmsg.Via{{Transport: "UDP", Host: m.Via.Host, Port: m.Via.Port,
		Params: map[string]string{"branch": m.Branch}}}
	msg.From = nameAddr(m.From, m.FromTag)
	msg.To = nameAddr(m.To, m.ToTag)
	msg.CallID = m.CallID
	msg.CSeq = sipmsg.CSeq{Seq: m.CSeq, Method: m.Method}
	if m.Contact != (sipmsg.URI{}) {
		msg.Contact = &sipmsg.NameAddr{URI: m.Contact}
	}
	if m.Expires != 0 {
		msg.Expires = m.Expires
	}
	if m.SDP != (SDP{}) {
		msg.ContentType = "application/sdp"
		msg.Body = sdp.New(m.SDP.User, m.SDP.Media.Host, m.SDP.Media.Port, m.SDP.Payload).Marshal()
	}
	return msg
}

// Bytes renders m on the wire.
func (m SIP) Bytes() []byte { return m.Message().Bytes() }

func nameAddr(u sipmsg.URI, tag string) sipmsg.NameAddr {
	if tag == "" {
		return sipmsg.NameAddr{URI: u}
	}
	return sipmsg.NameAddr{URI: u}.WithTag(tag)
}

// RTP is one RTP packet with Len zero bytes of payload.
type RTP struct {
	SSRC uint32
	Seq  uint16
	TS   uint32
	PT   uint8
	Len  int
}

// G729 is packet seq of the G.729 stream ssrc: one 20 ms frame, the
// timestamp advancing 160 ticks per packet.
func G729(ssrc uint32, seq uint16) RTP {
	return RTP{SSRC: ssrc, Seq: seq, TS: uint32(seq) * 160, PT: sdp.PayloadG729, Len: 20}
}

// Proto labels RTP steps.
func (RTP) Proto() sim.Proto { return sim.ProtoRTP }

// Bytes renders p on the wire.
func (p RTP) Bytes() []byte {
	pkt := rtp.Packet{PayloadType: p.PT, Sequence: p.Seq, Timestamp: p.TS, SSRC: p.SSRC,
		Payload: make([]byte, p.Len)}
	raw, err := pkt.Marshal()
	if err != nil {
		panic(err) // a payload type above 127: a script bug
	}
	return raw
}

// RTCP is one RTCP packet of the given type from SSRC.
type RTCP struct {
	Type uint8
	SSRC uint32
}

// Proto labels RTCP steps.
func (RTCP) Proto() sim.Proto { return sim.ProtoRTCP }

// Bytes renders p on the wire.
func (p RTCP) Bytes() []byte {
	pkt := rtp.RTCP{Type: p.Type, SSRC: p.SSRC}
	raw, err := pkt.Marshal()
	if err != nil {
		panic(err) // a type without an encoder: a script bug
	}
	return raw
}

// Raw is a datagram of arbitrary bytes under a protocol label: the
// hostile and malformed inputs no encoder would produce.
type Raw struct {
	Label sim.Proto
	Data  string
}

// Proto labels the step with r's protocol.
func (r Raw) Proto() sim.Proto { return r.Label }

// Bytes returns the datagram.
func (r Raw) Bytes() []byte { return []byte(r.Data) }
