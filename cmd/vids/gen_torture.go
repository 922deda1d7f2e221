//go:build ignore

// gen_torture.go regenerates testdata/torture.jsonl: a deterministic
// replay trace that interleaves benign calls and the synthetic attack
// scenarios with RFC-4475-flavored hostile SIP datagrams and malformed
// media packets. TestTortureTraceReplay replays it through `vids
// -replay` and checks the run is panic-free, the alert multiset is
// stable, and every datagram is accounted for in the parse counters.
//
// It also writes testdata/via-evasion.jsonl, the 41-packet regression
// for a detection evasion the ingress tier once had: an INVITE only a
// lenient reader accepts (`Via: garbage`) must not make the stray
// responses that follow it look like answers to a known call.
//
// Regenerate with:
//
//	go run cmd/vids/gen_torture.go
package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"vids/internal/dialog"
	"vids/internal/sim"
)

func main() {
	s := dialog.SynthConfig{Calls: 4, RTPPerCall: 4, Attacks: true}.Script()
	last := s[len(s)-1].At // the script is time-ordered; the hostile steps follow it

	src := sim.Addr{Host: "attacker.example.net", Port: 6666}
	dst := sim.Addr{Host: "proxy.b.example.com", Port: 5060}
	for i, h := range []struct {
		proto sim.Proto
		data  string
	}{
		// Separator stuffing and start-line fragments.
		{sim.ProtoSIP, "INVITE\r\n\r\n\r\n"},
		{sim.ProtoSIP, ":::::\r\n\r\n"},
		// Start line only: the mandatory header check rejects it.
		{sim.ProtoSIP, "INVITE sip:a@b SIP/2.0\r\n\r\n"},
		// Content-Length far beyond the datagram.
		{sim.ProtoSIP, "INVITE sip:a@b SIP/2.0\r\nVia: SIP/2.0/UDP h;branch=z9hG4bK1\r\n" +
			"From: <sip:x@y>;tag=1\r\nTo: <sip:a@b>\r\nCall-ID: tort4\r\nCSeq: 1 INVITE\r\n" +
			"Content-Length: 999999999\r\n\r\nshort"},
		// Negative and overflowing CSeq numbers.
		{sim.ProtoSIP, "INVITE sip:a@b SIP/2.0\r\nVia: SIP/2.0/UDP h;branch=z9hG4bK1\r\n" +
			"From: <sip:x@y>;tag=1\r\nTo: <sip:a@b>\r\nCall-ID: tort5\r\nCSeq: -1 INVITE\r\n\r\n"},
		{sim.ProtoSIP, "INVITE sip:a@b SIP/2.0\r\nVia: SIP/2.0/UDP h;branch=z9hG4bK1\r\n" +
			"From: <sip:x@y>;tag=1\r\nTo: <sip:a@b>\r\nCall-ID: tort6\r\nCSeq: 99999999999999999999 INVITE\r\n\r\n"},
		// Whitespace-only and null-byte header values.
		{sim.ProtoSIP, "INVITE sip:a@b SIP/2.0\r\nVia: \r\n\r\n"},
		{sim.ProtoSIP, "INVITE sip:a@b SIP/2.0\r\nVia: SIP/2.0/UDP \x00;branch=x\r\n\r\n"},
		// Raw binary noise on the SIP port.
		{sim.ProtoSIP, "\x00\x01\x02\x03\x04\x05\x06\x07"},
		// Truncated mid-header.
		{sim.ProtoSIP, "INVITE sip:bob@b.example.com SIP/2.0\r\nVia: SIP/2.0/UDP ua1.a"},
		// Legal but rare: deeply folded Via, unicode display name, and
		// an oversized branch parameter — the parser must accept these.
		{sim.ProtoSIP, "OPTIONS sip:b SIP/2.0\r\nVia: SIP/2.0/UDP h\r\n \r\n \r\n ;branch=z9hG4bKf1\r\n" +
			"From: <sip:x@y>;tag=1\r\nTo: <sip:b>\r\nCall-ID: tort-fold\r\nCSeq: 1 OPTIONS\r\n\r\n"},
		{sim.ProtoSIP, "OPTIONS sip:b SIP/2.0\r\nVia: SIP/2.0/UDP h;branch=z9hG4bKu1\r\n" +
			"From: \"日本語\" <sip:x@y>;tag=1\r\nTo: <sip:b>\r\nCall-ID: tort-uni\r\nCSeq: 1 OPTIONS\r\n\r\n"},
		{sim.ProtoSIP, "OPTIONS sip:b SIP/2.0\r\nVia: SIP/2.0/UDP h;branch=z9hG4bK" + strings.Repeat("a", 2048) + "\r\n" +
			"From: <sip:x@y>;tag=1\r\nTo: <sip:b>\r\nCall-ID: tort-long\r\nCSeq: 1 OPTIONS\r\n\r\n"},
		// Malformed media: wrong RTP version, truncated RTP header,
		// RTCP with a lying length field, truncated RTCP.
		{sim.ProtoRTP, "\x00\x00\x00\x01\x00\x00\x00\xa0\xde\xca\xfb\xad"},
		{sim.ProtoRTP, "\x80\x00\x00\x01\x00\x00"},
		{sim.ProtoRTCP, "\x80\xc8\xff\xff\x00\x00\x00\x00"},
		{sim.ProtoRTCP, "\x81\xcb"},
	} {
		s.Add(last+time.Second+time.Duration(i)*time.Millisecond, src, dst,
			dialog.Raw{Label: h.proto, Data: h.data})
	}

	write("cmd/vids/testdata/torture.jsonl", s)
	write("cmd/vids/testdata/via-evasion.jsonl", viaEvasion())
}

// viaEvasion is one malformed INVITE planting a Call-ID, then forty
// stray 200 OKs for that Call-ID reflected at one victim host: the
// sequential detector reports the first stray as a deviation and the
// burst as DRDoS.
func viaEvasion() dialog.Script {
	const callID = "evade@attacker.example.net"
	var s dialog.Script
	s.Add(0, sim.Addr{Host: "attacker.example.net", Port: 5060}, sim.Addr{Host: "proxy.b.example.com", Port: 5060},
		dialog.Raw{Label: sim.ProtoSIP, Data: "INVITE sip:bob@b.example.com SIP/2.0\r\nVia: garbage\r\n" +
			"From: <sip:mallory@attacker.example.net>;tag=m1\r\nTo: <sip:bob@b.example.com>\r\n" +
			"Call-ID: " + callID + "\r\nCSeq: 1 INVITE\r\n\r\n"})
	for i := 0; i < 40; i++ {
		s.Add(10*time.Millisecond+time.Duration(i)*time.Millisecond,
			sim.Addr{Host: fmt.Sprintf("reflector%d.example.org", i), Port: 5060},
			sim.Addr{Host: "victim.b.example.com", Port: 5060},
			dialog.Raw{Label: sim.ProtoSIP, Data: fmt.Sprintf("SIP/2.0 200 OK\r\nVia: SIP/2.0/UDP victim.b.example.com;branch=z9hG4bKr%d\r\n"+
				"From: <sip:mallory@attacker.example.net>;tag=m1\r\nTo: <sip:bob@b.example.com>;tag=r%d\r\n"+
				"Call-ID: %s\r\nCSeq: 1 INVITE\r\n\r\n", i, i, callID)})
	}
	return s
}

func write(path string, s dialog.Script) {
	if err := dialog.WriteFile(path, s); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s: wrote %d entries\n", path, len(s))
}
