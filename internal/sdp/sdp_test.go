package sdp

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestNewMarshalParseRoundTrip(t *testing.T) {
	d := New("alice", "ua1.a.example.com", 49172, PayloadG729)
	got, err := Parse(d.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Origin != "alice" || got.Address != "ua1.a.example.com" {
		t.Fatalf("round-trip = %+v", got)
	}
	m, ok := got.FirstAudio()
	if !ok {
		t.Fatal("no media section")
	}
	if m.Port != 49172 {
		t.Fatalf("port = %d", m.Port)
	}
	if len(m.Payloads) != 1 || m.Payloads[0] != PayloadG729 {
		t.Fatalf("payloads = %v", m.Payloads)
	}
	// Canonical: marshal of the parse equals the original.
	if !bytes.Equal(got.Marshal(), d.Marshal()) {
		t.Fatalf("not canonical:\n%s\nvs\n%s", got.Marshal(), d.Marshal())
	}
}

func TestParseRealistic(t *testing.T) {
	raw := "v=0\r\n" +
		"o=bob 2808844564 2808844564 IN IP4 ua2.b.example.com\r\n" +
		"s=-\r\n" +
		"c=IN IP4 ua2.b.example.com\r\n" +
		"t=0 0\r\n" +
		"m=audio 3456 RTP/AVP 18 0\r\n" +
		"a=rtpmap:18 G729/8000\r\n" +
		"a=sendrecv\r\n"
	d, err := Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if d.SessionID != 2808844564 {
		t.Fatalf("session id = %d", d.SessionID)
	}
	m, _ := d.FirstAudio()
	if len(m.Payloads) != 2 || m.Payloads[0] != 18 || m.Payloads[1] != 0 {
		t.Fatalf("payloads = %v", m.Payloads)
	}
	if len(d.Attributes) != 2 || d.Attributes[1] != "sendrecv" {
		t.Fatalf("attributes = %v", d.Attributes)
	}
}

func TestParseToleratesBareLF(t *testing.T) {
	raw := "v=0\no=a 1 1 IN IP4 h\ns=x\nc=IN IP4 h\nt=0 0\nm=audio 4000 RTP/AVP 18\n"
	d, err := Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if d.Address != "h" {
		t.Fatalf("address = %q", d.Address)
	}
}

func TestParseIgnoresUnknownLineTypes(t *testing.T) {
	raw := "v=0\r\nc=IN IP4 h\r\nx=experimental\r\nq=also-unknown\r\n"
	if _, err := Parse([]byte(raw)); err != nil {
		t.Fatalf("unknown line types must be ignored: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		raw  string
	}{
		{"empty", ""},
		{"missing version", "c=IN IP4 h\r\n"},
		{"bad version", "v=1\r\nc=IN IP4 h\r\n"},
		{"missing connection", "v=0\r\ns=x\r\n"},
		{"malformed line", "v=0\r\nc=IN IP4 h\r\nzz\r\n"},
		{"bad o line", "v=0\r\no=a 1\r\nc=IN IP4 h\r\n"},
		{"bad o id", "v=0\r\no=a x 1 IN IP4 h\r\nc=IN IP4 h\r\n"},
		{"bad o version", "v=0\r\no=a 1 x IN IP4 h\r\nc=IN IP4 h\r\n"},
		{"bad c line", "v=0\r\nc=IN IP6 ::1\r\n"},
		{"bad media transport", "v=0\r\nc=IN IP4 h\r\nm=audio 4000 UDP 18\r\n"},
		{"video media", "v=0\r\nc=IN IP4 h\r\nm=video 4000 RTP/AVP 96\r\n"},
		{"bad media port", "v=0\r\nc=IN IP4 h\r\nm=audio 99999 RTP/AVP 18\r\n"},
		{"bad payload", "v=0\r\nc=IN IP4 h\r\nm=audio 4000 RTP/AVP 300\r\n"},
		{"short media", "v=0\r\nc=IN IP4 h\r\nm=audio 4000\r\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Parse([]byte(tt.raw)); err == nil {
				t.Fatalf("accepted %q", tt.raw)
			}
		})
	}
}

func TestFirstAudioEmpty(t *testing.T) {
	d := &Description{}
	if _, ok := d.FirstAudio(); ok {
		t.Fatal("FirstAudio on empty description returned ok")
	}
}

func TestMarshalDefaultsSessionName(t *testing.T) {
	d := &Description{Origin: "a", Address: "h"}
	out := string(d.Marshal())
	if !strings.Contains(out, "s=-\r\n") {
		t.Fatalf("missing default session name:\n%s", out)
	}
}

func TestPayloadName(t *testing.T) {
	if PayloadName(PayloadG729) != "G729/8000" {
		t.Fatal("G729 name wrong")
	}
	if PayloadName(PayloadPCMU) != "PCMU/8000" {
		t.Fatal("PCMU name wrong")
	}
	if PayloadName(96) != "PT96" {
		t.Fatal("dynamic payload name wrong")
	}
}

// Property: New -> Marshal -> Parse preserves address, port, payload.
func TestRoundTripProperty(t *testing.T) {
	prop := func(portRaw uint16, ptRaw uint8, hostRaw string) bool {
		port := int(portRaw)
		if port == 0 {
			port = 1
		}
		pt := int(ptRaw) % 128
		host := "h"
		for _, r := range hostRaw {
			if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') || r == '.' {
				host += string(r)
			}
		}
		d := New("user", host, port, pt)
		got, err := Parse(d.Marshal())
		if err != nil {
			return false
		}
		m, ok := got.FirstAudio()
		return ok && got.Address == host && m.Port == port &&
			len(m.Payloads) == 1 && m.Payloads[0] == pt
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// mediaDestWant derives MediaDest's expected result from Parse: ok
// exactly when Parse succeeds and the description carries media.
func mediaDestWant(data []byte) (string, int, int, bool) {
	desc, err := Parse(data)
	if err != nil {
		return "", 0, 0, false
	}
	audio, ok := desc.FirstAudio()
	if !ok || len(audio.Payloads) == 0 {
		return "", 0, 0, false
	}
	return desc.Address, audio.Port, audio.Payloads[0], true
}

// mediaDestCases are MediaDest's table oracle rows, valid and invalid
// bodies alike; FuzzMediaDestParse seeds from them too.
var mediaDestCases = [][]byte{
	New("alice", "10.0.0.1", 4000, 18).Marshal(),
	New("bob", "media.example.com", 65535, 0).Marshal(),
	[]byte("v=0\r\no=u 1 2 IN IP4 h\r\ns=-\r\nc=IN IP4 h\r\nt=0 0\r\nm=audio 100 RTP/AVP 0 8 18\r\n"),
	[]byte("v=0\nc=IN IP4 h\nm=audio 100 RTP/AVP 0\n"),                         // bare LF
	[]byte("v=0\r\nc=IN IP4 h\r\n"),                                            // no media
	[]byte("c=IN IP4 h\r\nm=audio 100 RTP/AVP 0\r\n"),                          // missing v=
	[]byte("v=1\r\nc=IN IP4 h\r\nm=audio 100 RTP/AVP 0\r\n"),                   // bad version
	[]byte("v=0\r\nm=audio 100 RTP/AVP 0\r\n"),                                 // missing c=
	[]byte("v=0\r\nc=IN IP6 h\r\nm=audio 100 RTP/AVP 0\r\n"),                   // not IP4
	[]byte("v=0\r\nc=IN IP4\r\nm=audio 100 RTP/AVP 0\r\n"),                     // short c=
	[]byte("v=0\r\nc=IN IP4 h x\r\nm=audio 100 RTP/AVP 0\r\n"),                 // long c=
	[]byte("v=0\r\nc=IN IP4 h\r\nm=video 100 RTP/AVP 0\r\n"),                   // not audio
	[]byte("v=0\r\nc=IN IP4 h\r\nm=audio 0 RTP/AVP 0\r\n"),                     // port 0
	[]byte("v=0\r\nc=IN IP4 h\r\nm=audio 70000 RTP/AVP 0\r\n"),                 // port too big
	[]byte("v=0\r\nc=IN IP4 h\r\nm=audio +99 RTP/AVP 0\r\n"),                   // Atoi sign
	[]byte("v=0\r\nc=IN IP4 h\r\nm=audio -1 RTP/AVP 0\r\n"),                    // negative port
	[]byte("v=0\r\nc=IN IP4 h\r\nm=audio x RTP/AVP 0\r\n"),                     // non-numeric port
	[]byte("v=0\r\nc=IN IP4 h\r\nm=audio 100 udp 0\r\n"),                       // wrong profile
	[]byte("v=0\r\nc=IN IP4 h\r\nm=audio 100 RTP/AVP\r\n"),                     // no payloads
	[]byte("v=0\r\nc=IN IP4 h\r\nm=audio 100 RTP/AVP 128\r\n"),                 // payload too big
	[]byte("v=0\r\nc=IN IP4 h\r\nm=audio 100 RTP/AVP -2\r\n"),                  // negative payload
	[]byte("v=0\r\nc=IN IP4 h\r\nm=audio 100 RTP/AVP 0 bad\r\n"),               // junk payload
	[]byte("v=0\r\no=u x 2 IN IP4 h\r\nc=IN IP4 h\r\nm=audio 1 RTP/AVP 0\r\n"), // bad o= id
	[]byte("v=0\r\no=u 1 x IN IP4 h\r\nc=IN IP4 h\r\nm=audio 1 RTP/AVP 0\r\n"), // bad o= ver
	[]byte("v=0\r\no=u 1 2\r\nc=IN IP4 h\r\nm=audio 1 RTP/AVP 0\r\n"),          // short o=
	[]byte("v=0\r\nbogus\r\nc=IN IP4 h\r\nm=audio 1 RTP/AVP 0\r\n"),            // malformed line
	[]byte("v=0\r\nx\r\n"), // line shorter than 2
	[]byte("v=0\r\nz=ignored\r\nc=IN IP4 h\r\nq=unknown\r\nm=audio 1 RTP/AVP 0\r\n"),
	[]byte("v=0\r\nc=IN IP4 a\r\nc=IN IP4 b\r\nm=audio 1 RTP/AVP 5\r\n"), // last c= wins
	[]byte("v=0\r\nc=IN IP4 h\r\nm=audio 1 RTP/AVP 3\r\nm=audio 2 RTP/AVP 4\r\n"),
	[]byte("v=0\r\r\nc=IN IP4 h\r\nm=audio 1 RTP/AVP 0\r\n"),               // TrimRight strips every CR
	[]byte("v=0\r\nc=IN IP4\u00a0h\r\nm=audio\u20031 RTP/AVP 0\u0085\r\n"), // Unicode spaces split fields
	[]byte("v=0\r\nc=IN IP4 h\xc2\r\nm=audio 1 RTP/AVP 0\r\n"),             // a lone lead byte is a field byte
	[]byte(""),
	[]byte("\r\n\r\n"),
}

// checkMediaDest holds MediaDest to Parse+FirstAudio on one body.
func checkMediaDest(t *testing.T, data []byte) {
	t.Helper()
	wantAddr, wantPort, wantPT, wantOK := mediaDestWant(data)
	addr, port, pt, ok := MediaDest(data)
	if ok != wantOK || (ok && (string(addr) != wantAddr || port != wantPort || pt != wantPT)) {
		t.Errorf("MediaDest(%q) = (%q,%d,%d,%v), Parse says (%q,%d,%d,%v)",
			data, addr, port, pt, ok, wantAddr, wantPort, wantPT, wantOK)
	}
}

// MediaDest must agree with Parse+FirstAudio on valid and invalid
// bodies alike: the hot path and the reference parser are the same
// oracle.
func TestMediaDestMatchesParse(t *testing.T) {
	for _, data := range mediaDestCases {
		checkMediaDest(t, data)
	}
}

// FuzzMediaDestParse is MediaDest's differential fuzz target: on
// arbitrary bytes it must agree with Parse+FirstAudio (mediaDestWant).
// Besides the table rows it seeds the numeric edges: o= fields of 19
// and 20 digits on both sides of the uint64 limit, and signed or
// zero-padded ports and payload types.
func FuzzMediaDestParse(f *testing.F) {
	for _, data := range mediaDestCases {
		f.Add(data)
	}
	for _, o := range []string{"9999999999999999999", "18446744073709551615", "18446744073709551616", "99999999999999999999", "+1", "00000000000000000000001"} {
		f.Add([]byte("v=0\r\no=u " + o + " " + o + " IN IP4 h\r\nc=IN IP4 h\r\nm=audio 1 RTP/AVP 0\r\n"))
	}
	for _, m := range []string{"+99 RTP/AVP 0", "-0 RTP/AVP 0", "1 RTP/AVP +0 -0", "0065535 RTP/AVP 127", "9223372036854775808 RTP/AVP 0"} {
		f.Add([]byte("v=0\nc=IN IP4 h\nm=audio " + m + "\n"))
	}
	f.Fuzz(checkMediaDest)
}

// Truncation sweep: every prefix of a valid body must agree too.
func TestMediaDestTruncationSweep(t *testing.T) {
	full := New("alice", "10.0.0.1", 4000, 18).Marshal()
	for i := 0; i <= len(full); i++ {
		data := full[:i]
		wantAddr, wantPort, wantPT, wantOK := mediaDestWant(data)
		addr, port, pt, ok := MediaDest(data)
		if ok != wantOK || (ok && (string(addr) != wantAddr || port != wantPort || pt != wantPT)) {
			t.Fatalf("prefix %d: MediaDest=(%q,%d,%d,%v) want (%q,%d,%d,%v)",
				i, addr, port, pt, ok, wantAddr, wantPort, wantPT, wantOK)
		}
	}
}

func TestMediaDestDoesNotAllocate(t *testing.T) {
	body := New("alice", "10.0.0.1", 4000, 18).Marshal()
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, _, ok := MediaDest(body); !ok {
			t.Fail()
		}
	})
	if allocs != 0 {
		t.Fatalf("MediaDest allocated %.1f per call, want 0", allocs)
	}
}

// The field split's white space is strings.Fields': isUnicodeSpace
// must be unicode.IsSpace on every rune above ASCII.
func TestIsUnicodeSpace(t *testing.T) {
	for r := rune(0x80); r <= unicode.MaxRune; r++ {
		if isUnicodeSpace(r) != unicode.IsSpace(r) {
			t.Fatalf("isUnicodeSpace(%U) = %v", r, !unicode.IsSpace(r))
		}
	}
}
