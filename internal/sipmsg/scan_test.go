package sipmsg

import (
	"strconv"
	"strings"
	"testing"
)

const scanSDP = "v=0\r\no=alice 1 1 IN IP4 ua1.a.example.com\r\ns=call\r\nc=IN IP4 ua1.a.example.com\r\nt=0 0\r\nm=audio 20000 RTP/AVP 18\r\n"

var scanBase = "INVITE sip:bob@b.example.com:5070;transport=udp SIP/2.0\r\n" +
	"Via: SIP/2.0/UDP ua1.a.example.com:5060;branch=z9hG4bKx, SIP/2.0/UDP p.a.example.com\r\n" +
	"f: \"Alice; tag=no\" <sip:alice@a.example.com>;x=1;tag=ft\r\n" +
	"To: sip:bob@b.example.com;tag=\r\n" +
	"Call-ID: scan@a.example.com\r\n" +
	"CSeq: 7 INVITE\r\n" +
	"m: <sip:alice@ua1.a.example.com:5062>\r\n" +
	"Max-Forwards: 70\r\n" +
	"Content-Type: application/sdp\r\n" +
	"Content-Length: " + strconv.Itoa(len(scanSDP)) + "\r\n\r\n" +
	scanSDP + "trailing"

// TestScanFields reads one message with most of the shapes Scan
// commits to — compact names, display names, addr-spec form, an empty
// tag, a URI port and parameters, two Via entries, a clamped body —
// and checks every View field by value.
func TestScanFields(t *testing.T) {
	raw := []byte(scanBase)
	var v View
	if res := Scan(raw, &v); res != ScanOK {
		t.Fatalf("Scan = %v, want ScanOK", res)
	}
	str := func(s Span) string { return string(s.Of(raw)) }
	got := map[string]string{
		"method": string(v.Method.Method()), "cseq": string(v.CSeqMethod.Method()),
		"ruri.user": str(v.RequestURI.User), "ruri.host": str(v.RequestURI.Host),
		"from.user": str(v.From.User), "from.host": str(v.From.Host), "from.tag": str(v.FromTag),
		"to.user": str(v.To.User), "to.host": str(v.To.Host), "to.tag": str(v.ToTag),
		"call-id": str(v.CallID), "contact": str(v.ContactHost), "sdp.addr": str(v.SDPAddr),
	}
	want := map[string]string{
		"method": "INVITE", "cseq": "INVITE",
		"ruri.user": "bob", "ruri.host": "b.example.com",
		"from.user": "alice", "from.host": "a.example.com", "from.tag": "ft",
		"to.user": "bob", "to.host": "b.example.com", "to.tag": "",
		"call-id": "scan@a.example.com", "contact": "ua1.a.example.com", "sdp.addr": "ua1.a.example.com",
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s = %q, want %q", k, got[k], w)
		}
	}
	if v.RequestURI.Port != 5070 || v.From.Port != 0 || v.Status != 0 {
		t.Errorf("ports/status: ruri %d from %d status %d", v.RequestURI.Port, v.From.Port, v.Status)
	}
	if v.SDPPort != 20000 || v.SDPPayload != 18 {
		t.Errorf("sdp dest = %d/%d, want 20000/18", v.SDPPort, v.SDPPayload)
	}
	if body := str(v.Body); body != scanSDP {
		t.Errorf("body not clamped to Content-Length: %q", body)
	}
	if got := (Span{Off: 10, Len: 10}).Of(raw[:15]); got != nil {
		t.Errorf("out-of-range span read %q, want nil", got)
	}
}

// TestScanVerdicts pins the three-valued answer shape by shape, and for
// each holds Scan to its contract with Parse: ScanOK only on bytes
// Parse accepts, ScanReject only on bytes it rejects.
func TestScanVerdicts(t *testing.T) {
	const (
		reqLine = "INVITE sip:bob@b.example.com SIP/2.0\r\n"
		via     = "Via: SIP/2.0/UDP ua1.a.example.com:5060;branch=z9hG4bKx\r\n"
		from    = "From: <sip:alice@a.example.com>;tag=1\r\n"
		to      = "To: <sip:bob@b.example.com>\r\n"
		callID  = "Call-ID: v@a.example.com\r\n"
		cseq    = "CSeq: 1 INVITE\r\n"
		end     = "\r\n"
	)
	cases := []struct {
		name string
		raw  string
		want ScanResult
	}{
		{"baseline request", reqLine + via + from + to + callID + cseq + end, ScanOK},
		{"response", "SIP/2.0 180 Ringing\r\n" + via + from + to + callID + cseq + end, ScanOK},
		{"response without reason", "SIP/2.0 200\r\n" + via + from + to + callID + cseq + end, ScanOK},
		{"no blank line", reqLine + via + from + to + callID + "CSeq: 1 INVITE", ScanOK},
		{"repeated tag: last wins", reqLine + via + from + "To: <sip:b@b>;tag=a;tag=\r\n" + callID + cseq + end, ScanOK},
		{"angle-quoted request URI", "INVITE <sip:bob@b.example.com> SIP/2.0\r\n" + via + from + to + callID + cseq + end, ScanOK},
		{"quoted display name", reqLine + via + from + "To: \"Bob; tag=evil\" <sip:bob@b.example.com>\r\n" + callID + cseq + end, ScanOK},
		{"quoted name hiding a '<'", reqLine + via + from + "To: \"a<b\" <sip:bob@b.example.com>\r\n" + callID + cseq + end, ScanReject},
		{"zero-padded port", reqLine + "Via: SIP/2.0/UDP h:05060\r\n" + from + to + callID + cseq + end, ScanOK},

		{"garbage Via", reqLine + "Via: garbage\r\n" + from + to + callID + cseq + end, ScanReject},
		{"empty Via entry", reqLine + "Via: SIP/2.0/UDP h,\r\n" + from + to + callID + cseq + end, ScanReject},
		{"Via port out of range", reqLine + "Via: SIP/2.0/UDP h:70000\r\n" + from + to + callID + cseq + end, ScanReject},
		{"unknown method", "FONDLE sip:b@b SIP/2.0\r\n" + via + from + to + callID + cseq + end, ScanReject},
		{"bad version", "INVITE sip:b@b SIP/3.0\r\n" + via + from + to + callID + cseq + end, ScanReject},
		{"four start-line fields", "INVITE sip:b@b x SIP/2.0\r\n" + via + from + to + callID + cseq + end, ScanReject},
		{"not a sip URI", "INVITE tel:123 SIP/2.0\r\n" + via + from + to + callID + cseq + end, ScanReject},
		{"status out of range", "SIP/2.0 99 Low\r\n" + via + from + to + callID + cseq + end, ScanReject},
		{"empty status", "SIP/2.0  200 OK\r\n" + via + from + to + callID + cseq + end, ScanReject},
		{"no start line", "\r\n\r\n", ScanReject},
		{"header without colon", reqLine + via + from + to + callID + cseq + "garbage\r\n" + end, ScanReject},
		{"missing Call-ID", reqLine + via + from + to + cseq + end, ScanReject},
		{"empty Call-ID", reqLine + via + from + to + "Call-ID:\r\n" + cseq + end, ScanReject},
		{"missing Via", reqLine + from + to + callID + cseq + end, ScanReject},
		{"From without a URI", reqLine + via + "From: f\r\n" + to + callID + cseq + end, ScanReject},
		{"unbalanced angle bracket", reqLine + via + from + "To: <sip:b@b\r\n" + callID + cseq + end, ScanReject},
		{"star Contact", reqLine + via + from + to + callID + cseq + "Contact: *\r\n" + end, ScanReject},
		{"CSeq overflow", reqLine + via + from + to + callID + "CSeq: 99999999999 INVITE\r\n" + end, ScanReject},
		{"CSeq without method", reqLine + via + from + to + callID + "CSeq: 1\r\n" + end, ScanReject},
		{"truncated body", reqLine + via + from + to + callID + cseq + "Content-Length: 999\r\n\r\nshort", ScanReject},
		{"garbage", "\x00\x01\x02\x03", ScanReject},

		{"folded header", reqLine + via + from + to + callID + "CSeq: 1\r\n INVITE\r\n" + end, ScanBail},
		{"fold hiding the colon", reqLine + via + from + to + callID + cseq + "X-Late\r\n : v\r\n" + end, ScanBail},
		{"non-ASCII in a name-addr", reqLine + via + "From: <sip:x@y> ;tag=1\r\n" + to + callID + cseq + end, ScanBail},
		{"quoted Via parameter", reqLine + "Via: SIP/2.0/UDP h;x=\"a,b\"\r\n" + from + to + callID + cseq + end, ScanBail},
		{"signed Content-Length", reqLine + via + from + to + callID + cseq + "Content-Length: +0\r\n" + end, ScanBail},
		{"negative Max-Forwards", reqLine + via + from + to + callID + cseq + "Max-Forwards: -1\r\n" + end, ScanBail},
		{"signed status", "SIP/2.0 +200 OK\r\n" + via + from + to + callID + cseq + end, ScanBail},
		{"signed port", "INVITE sip:b@b:+5060 SIP/2.0\r\n" + via + from + to + callID + cseq + end, ScanBail},
		{"extension CSeq method", "SIP/2.0 200 OK\r\n" + via + from + to + callID + "CSeq: 1 PUBLISH\r\n" + end, ScanBail},
		{"oversized datagram", reqLine + via + from + to + callID + cseq + "X: " + strings.Repeat("a", 1<<16) + "\r\n" + end, ScanBail},
	}
	for _, tc := range cases {
		var v View
		got := Scan([]byte(tc.raw), &v)
		if got != tc.want {
			t.Errorf("%s: Scan = %v, want %v", tc.name, got, tc.want)
		}
		_, err := Parse([]byte(tc.raw))
		switch {
		case got == ScanOK && err != nil:
			t.Errorf("%s: ScanOK on bytes Parse rejects: %v", tc.name, err)
		case got == ScanReject && err == nil:
			t.Errorf("%s: ScanReject on bytes Parse accepts", tc.name)
		}
	}
}

// TestScanAllocatesNothing: the scanner's whole point.
func TestScanAllocatesNothing(t *testing.T) {
	raw := []byte(scanBase)
	var v View
	if avg := testing.AllocsPerRun(200, func() { Scan(raw, &v) }); avg != 0 {
		t.Fatalf("Scan allocates %.1f/op, want 0", avg)
	}
}
