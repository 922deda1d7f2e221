package ingress

import (
	"bytes"
	"testing"
	"time"

	"vids/internal/dialog"
	"vids/internal/engine"
	"vids/internal/sim"
	"vids/internal/sipmsg"
)

// TestExtractMatchesFullParse is the lane scanner's ground-truth
// property on real traffic: over every SIP datagram the synthesizer
// can emit — including every attack shape — sipmsg.Scan commits
// (none of this may take the slow path) and each field the lanes route
// on agrees exactly with the full parser. The field-by-field contract
// on hostile bytes is internal/ids' FuzzScanParse.
func TestExtractMatchesFullParse(t *testing.T) {
	entries := dialog.Synthesize(dialog.SynthConfig{Calls: 30, RTPPerCall: 4, Attacks: true})
	sipSeen := 0
	for i, en := range entries {
		pkt := en.Packet()
		if pkt.Proto != sim.ProtoSIP {
			continue
		}
		raw, ok := pkt.Payload.([]byte)
		if !ok {
			t.Fatalf("entry %d: SIP payload is %T", i, pkt.Payload)
		}
		m, err := sipmsg.Parse(raw)
		if err != nil {
			t.Fatalf("entry %d: full parse rejected synthesized SIP: %v", i, err)
		}
		sipSeen++

		var v sipmsg.View
		if res := sipmsg.Scan(raw, &v); res != sipmsg.ScanOK {
			t.Errorf("entry %d: Scan = %v on a serialized %s", i, res, m.Summary())
			continue
		}
		if v.Method.Method() != m.Method || int(v.Status) != m.StatusCode {
			t.Errorf("entry %d: start line %q/%d vs %q/%d", i, v.Method.Method(), v.Status, m.Method, m.StatusCode)
		}
		if got := string(v.CallID.Of(raw)); got != m.CallID {
			t.Errorf("entry %d: callID %q vs %q", i, got, m.CallID)
		}
		if got := string(v.ToTag.Of(raw)); got != m.To.Tag() {
			t.Errorf("entry %d: To tag %q vs %q", i, got, m.To.Tag())
		}
		if v.CSeqMethod.Method() != m.CSeq.Method {
			t.Errorf("entry %d: CSeq method %q vs %q", i, v.CSeqMethod.Method(), m.CSeq.Method)
		}
		if got := string(v.RequestURI.User.Of(raw)); got != m.RequestURI.User {
			t.Errorf("entry %d: R-URI user %q vs %q", i, got, m.RequestURI.User)
		}
		if got := string(v.RequestURI.Host.Of(raw)); got != m.RequestURI.Host {
			t.Errorf("entry %d: R-URI host %q vs %q", i, got, m.RequestURI.Host)
		}
		if !bytes.Equal(v.Body.Of(raw), m.Body) {
			t.Errorf("entry %d: body diverges (%d vs %d bytes)", i, v.Body.Len, len(m.Body))
		}
	}
	if sipSeen < 100 {
		t.Fatalf("only %d SIP datagrams in trace; property check is too weak", sipSeen)
	}
}

// TestExtractBailsToSlowPath feeds the lane the shapes its scanner must
// not route on — malformed ones it rejects on the spot, legal-but-rare
// ones it defers to the full parser — and checks where each ends up: a
// datagram the full parser rejects is one parse error and leaves no
// trace in the call registry or the flow table, one it accepts reaches the
// shard.
func TestExtractBailsToSlowPath(t *testing.T) {
	const (
		via    = "Via: SIP/2.0/UDP ua1.a.example.com:5060\r\n"
		from   = "From: <sip:alice@a.example.com>;tag=1\r\n"
		to     = "To: <sip:bob@b.example.com>\r\n"
		callID = "Call-ID: bail@a.example.com\r\n"
		sdp    = "v=0\r\no=a 1 1 IN IP4 ua1.a.example.com\r\ns=c\r\nc=IN IP4 ua1.a.example.com\r\nt=0 0\r\nm=audio 20000 RTP/AVP 18\r\n"
	)
	cases := map[string]string{
		"folded header": "INVITE sip:bob@b.example.com SIP/2.0\r\n" + via + from + to + callID +
			"CSeq: 1\r\n INVITE\r\n\r\n",
		"non-ASCII display name": "INVITE sip:bob@b.example.com SIP/2.0\r\n" + via + from +
			"To: \"Bób\" <sip:bob@b.example.com>\r\n" + callID + "CSeq: 1 INVITE\r\n\r\n",
		"signed content-length": "INVITE sip:bob@b.example.com SIP/2.0\r\n" + via + from + to + callID +
			"CSeq: 1 INVITE\r\nContent-Length: +0\r\n\r\n",
		"garbage via with SDP": "INVITE sip:bob@b.example.com SIP/2.0\r\nVia: garbage\r\n" + from + to + callID +
			"CSeq: 1 INVITE\r\n\r\n" + sdp,
		"unknown method":  "FONDLE sip:b@b SIP/2.0\r\n\r\n",
		"missing call-id": "INVITE sip:bob@b.example.com SIP/2.0\r\nVia: v\r\nFrom: f\r\nTo: t\r\nCSeq: 1 INVITE\r\n\r\n",
		"no start line":   "\r\n\r\n",
		"garbage":         "\x00\x01\x02\x03",
		"bad status":      "SIP/2.0 9x9 Weird\r\nCall-ID: a@b\r\n\r\n",
		"cseq overflow":   "INVITE sip:b@b SIP/2.0\r\n" + via + from + to + callID + "CSeq: 99999999999 INVITE\r\n\r\n",
		"truncated body": "INVITE sip:bob@b.example.com SIP/2.0\r\n" + via + from + to + callID +
			"CSeq: 1 INVITE\r\nContent-Length: 999\r\n\r\nshort",
	}
	for name, raw := range cases {
		var v sipmsg.View
		if sipmsg.Scan([]byte(raw), &v) == sipmsg.ScanOK {
			t.Errorf("%s: the scanner committed to a shape it must reject or defer", name)
		}
		_, perr := sipmsg.Parse([]byte(raw))

		ing := New(Config{Lanes: 1, Engine: engine.Config{Shards: 1}})
		pkt := &sim.Packet{
			From: sim.Addr{Host: "ua1.a.example.com", Port: 5060}, To: sim.Addr{Host: "proxy.b.example.com", Port: 5060},
			Proto: sim.ProtoSIP, Size: len(raw), Payload: []byte(raw),
		}
		if err := ing.Ingest(pkt, time.Millisecond); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fc := ing.fp.Counters()
		planted := fc.Calls + fc.Flows
		if err := ing.Close(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := ing.Stats()
		if perr != nil {
			if st.ParseErrors != 1 || st.Processed != 0 || planted != 0 || st.FastpathMisses != 0 {
				t.Errorf("%s: malformed datagram: parse-errors=%d processed=%d call records and flows=%d, want 1/0/0",
					name, st.ParseErrors, st.Processed, planted)
			}
		} else if st.ParseErrors != 0 || st.Processed != 1 {
			t.Errorf("%s: well-formed datagram: parse-errors=%d processed=%d, want 0/1", name, st.ParseErrors, st.Processed)
		}
	}
}
