package ids

import (
	"bytes"
	"testing"

	"vids/internal/sdp"
	"vids/internal/sim"
	"vids/internal/sipmsg"
)

// checkScanContract holds sipmsg.Scan to its three-valued contract on
// one datagram, against the independent reference sipmsg.Parse:
//
//   - ScanOK: Parse accepts too, every View field equals the Message
//     field it stands for, and the detector's two input fillers — the
//     sequential reference's (from the Message) and the pipeline's
//     (from the View) — produce the same sipInput.
//   - ScanReject: Parse rejects too.
//   - ScanBail: no claim.
func checkScanContract(t *testing.T, d *IDS, raw []byte) {
	var v sipmsg.View
	res := sipmsg.Scan(raw, &v)
	m, err := sipmsg.Parse(raw)
	switch res {
	case sipmsg.ScanBail:
		return
	case sipmsg.ScanReject:
		if err == nil {
			t.Fatalf("ScanReject on bytes Parse accepts\nwire: %q", raw)
		}
		return
	}
	if err != nil {
		t.Fatalf("ScanOK on bytes Parse rejects: %v\nwire: %q", err, raw)
	}

	str := func(s sipmsg.Span) string { return string(s.Of(raw)) }
	uri := func(u sipmsg.URISpan) sipmsg.URI {
		return sipmsg.URI{User: str(u.User), Host: str(u.Host), Port: int(u.Port)}
	}
	check := func(field string, got, want any) {
		if got != want {
			t.Fatalf("%s: view %q, message %q\nwire: %q", field, got, want, raw)
		}
	}
	check("method", v.Method.Method(), m.Method)
	check("status", int(v.Status), m.StatusCode)
	check("request-uri", uri(v.RequestURI), m.RequestURI)
	check("from", uri(v.From), m.From.URI)
	check("from tag", str(v.FromTag), m.From.Tag())
	check("to", uri(v.To), m.To.URI)
	check("to tag", str(v.ToTag), m.To.Tag())
	check("call-id", str(v.CallID), m.CallID)
	check("cseq method", v.CSeqMethod.Method(), m.CSeq.Method)
	contact := ""
	if m.Contact != nil {
		contact = m.Contact.URI.Host
	}
	check("contact host", str(v.ContactHost), contact)
	if !bytes.Equal(v.Body.Of(raw), m.Body) {
		t.Fatalf("body: view %q, message %q\nwire: %q", v.Body.Of(raw), m.Body, raw)
	}
	addr, port, payload, _ := sdp.MediaDest(m.Body)
	check("sdp addr", str(v.SDPAddr), string(addr))
	check("sdp port", int(v.SDPPort), port)
	check("sdp payload", int(v.SDPPayload), payload)

	pkt := &sim.Packet{
		From: sim.Addr{Host: "a.example.com", Port: 5060}, To: sim.Addr{Host: "b.example.com", Port: 5060},
		Proto: sim.ProtoSIP, Size: len(raw), Payload: raw,
	}
	fromMessage := *d.sipFromMessage(m, pkt)
	fromView := *d.sipFromView(&v, raw, pkt, nil)
	if fromMessage != fromView {
		t.Fatalf("fillers disagree:\n  message: %+v\n  view:    %+v\nwire: %q", fromMessage, fromView, raw)
	}

	// For a call with a monitor the view filler reads the dialog's
	// strings out of the monitor's slots, and must still come out equal
	// whether the slots hold this message's strings or others.
	a := &fromMessage.args
	for _, slots := range []dialogSlots{
		{from: a.From, to: a.To, fromTag: a.FromTag, toTag: a.ToTag, contact: a.Contact},
		{from: a.To, to: a.From, fromTag: a.ToTag + "x", toTag: a.FromTag, contact: "x" + a.Contact},
	} {
		mon := &CallMonitor{CallID: a.CallID, slots: slots}
		d.calls[mon.CallID] = mon
		fromMessage := *d.sipFromMessage(m, pkt)
		fromView := *d.sipFromView(&v, raw, pkt, nil)
		delete(d.calls, mon.CallID)
		if fromMessage.mon != mon || fromMessage != fromView {
			t.Fatalf("fillers disagree on a known call with slots %+v:\n  message: %+v\n  view:    %+v\nwire: %q", slots, fromMessage, fromView, raw)
		}
	}
}

// FuzzScanParse is the differential fuzz target for the packet path's
// one SIP scanner: sipmsg.Scan must be total on arbitrary datagrams and
// keep its contract with sipmsg.Parse (see checkScanContract). Seeds
// cover each verdict; the committed corpus under testdata/fuzz replays
// on every plain `go test`.
func FuzzScanParse(f *testing.F) {
	f.Add([]byte("INVITE sip:bob@b.example.com SIP/2.0\r\n" +
		"Via: SIP/2.0/UDP ua1.a.example.com:5060;branch=z9hG4bKx\r\n" +
		"From: <sip:alice@a.example.com>;tag=1\r\n" +
		"To: <sip:bob@b.example.com>\r\n" +
		"Call-ID: bail@a.example.com\r\n" +
		"CSeq: 1 INVITE\r\n\r\n"))
	f.Add([]byte("SIP/2.0 180 Ringing\r\n" +
		"Via: SIP/2.0/UDP p.example.com;branch=z9hG4bKp\r\n" +
		"From: <sip:alice@a.example.com>;tag=1\r\n" +
		"To: <sip:bob@b.example.com>;tag=2\r\n" +
		"Call-ID: ring@a.example.com\r\n" +
		"CSeq: 1 INVITE\r\n\r\n"))
	f.Add([]byte("INVITE sip:bob@b SIP/2.0\r\n" +
		"Via: v\r\nFrom: f\r\nTo: t\r\nCall-ID: c\r\nCSeq: 1 INVITE\r\n" +
		"Content-Length: 4\r\n\r\nv=0\r\ntrailing"))
	f.Add([]byte("\r\n\r\n"))
	f.Add([]byte("\x00\x01\x02\x03"))
	f.Add([]byte("SIP/2.0 200 OK\r\n" +
		"v: SIP/2.0/UDP p.example.com:05060;branch=z9hG4bKp, SIP/2.0/TCP q\r\n" +
		"f: Alice <sip:alice@a.example.com:5061;x=y?h=1>;a;tag=1;tag=2\r\n" +
		"t: sip:bob@b.example.com;tag=\r\n" +
		"i: ok@a.example.com\r\nCSeq:  2   INVITE \r\n" +
		"m: sip:bob@ua2.b.example.com\r\nExpires: 3600\r\nl: 107\r\n\r\n" +
		"v=0\r\no=b 1 1 IN IP4 ua2.b.example.com\r\ns=c\r\nc=IN IP4 ua2.b.example.com\r\nt=0 0\r\nm=audio 30000 RTP/AVP 18 0\r\n"))
	f.Add([]byte("INVITE sip:bob@b.example.com SIP/2.0\r\n" +
		"Via: SIP/2.0/UDP ua1.a.example.com:5060;branch=z9hG4bKq\r\n" +
		"From: \"Alice; tag=x\" <sip:alice@a.example.com>;tag=1\r\n" +
		"To: \"a<b>\" <sip:bob@b.example.com>\r\n" +
		"Contact: \"C\" <sip:alice@ua1.a.example.com>\r\n" +
		"Call-ID: quoted@a.example.com\r\nCSeq: 1 INVITE\r\n\r\n"))
	f.Add([]byte("BYE sip:bob@b.example.com SIP/2.0\r\nVia: SIP/2.0/UDP h\r\n \r\n ;branch=z9hG4bKf\r\n" +
		"From: \"B; tag=x\" <sip:x@y>;tag=1\r\nTo: <sip:b@b>\r\nCall-ID: c\r\nCSeq: 1 BYE\r\n\r\n"))

	d := New(sim.New(1), DefaultConfig())
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkScanContract(t, d, raw)
	})
}
