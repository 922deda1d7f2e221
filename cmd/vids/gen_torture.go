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
	"sort"
	"strings"
	"time"

	"vids/internal/engine"
	"vids/internal/trace"
)

func main() {
	entries := engine.Synthesize(engine.SynthConfig{Calls: 4, RTPPerCall: 4, Attacks: true})
	last := time.Duration(0)
	for _, e := range entries {
		if at := e.At(); at > last {
			last = at
		}
	}

	hostile := []struct {
		proto string
		data  string
	}{
		// Separator stuffing and start-line fragments.
		{"SIP", "INVITE\r\n\r\n\r\n"},
		{"SIP", ":::::\r\n\r\n"},
		// Start line only: the mandatory header check rejects it.
		{"SIP", "INVITE sip:a@b SIP/2.0\r\n\r\n"},
		// Content-Length far beyond the datagram.
		{"SIP", "INVITE sip:a@b SIP/2.0\r\nVia: SIP/2.0/UDP h;branch=z9hG4bK1\r\n" +
			"From: <sip:x@y>;tag=1\r\nTo: <sip:a@b>\r\nCall-ID: tort4\r\nCSeq: 1 INVITE\r\n" +
			"Content-Length: 999999999\r\n\r\nshort"},
		// Negative and overflowing CSeq numbers.
		{"SIP", "INVITE sip:a@b SIP/2.0\r\nVia: SIP/2.0/UDP h;branch=z9hG4bK1\r\n" +
			"From: <sip:x@y>;tag=1\r\nTo: <sip:a@b>\r\nCall-ID: tort5\r\nCSeq: -1 INVITE\r\n\r\n"},
		{"SIP", "INVITE sip:a@b SIP/2.0\r\nVia: SIP/2.0/UDP h;branch=z9hG4bK1\r\n" +
			"From: <sip:x@y>;tag=1\r\nTo: <sip:a@b>\r\nCall-ID: tort6\r\nCSeq: 99999999999999999999 INVITE\r\n\r\n"},
		// Whitespace-only and null-byte header values.
		{"SIP", "INVITE sip:a@b SIP/2.0\r\nVia: \r\n\r\n"},
		{"SIP", "INVITE sip:a@b SIP/2.0\r\nVia: SIP/2.0/UDP \x00;branch=x\r\n\r\n"},
		// Raw binary noise on the SIP port.
		{"SIP", "\x00\x01\x02\x03\x04\x05\x06\x07"},
		// Truncated mid-header.
		{"SIP", "INVITE sip:bob@b.example.com SIP/2.0\r\nVia: SIP/2.0/UDP ua1.a"},
		// Legal but rare: deeply folded Via, unicode display name, and
		// an oversized branch parameter — the parser must accept these.
		{"SIP", "OPTIONS sip:b SIP/2.0\r\nVia: SIP/2.0/UDP h\r\n \r\n \r\n ;branch=z9hG4bKf1\r\n" +
			"From: <sip:x@y>;tag=1\r\nTo: <sip:b>\r\nCall-ID: tort-fold\r\nCSeq: 1 OPTIONS\r\n\r\n"},
		{"SIP", "OPTIONS sip:b SIP/2.0\r\nVia: SIP/2.0/UDP h;branch=z9hG4bKu1\r\n" +
			"From: \"日本語\" <sip:x@y>;tag=1\r\nTo: <sip:b>\r\nCall-ID: tort-uni\r\nCSeq: 1 OPTIONS\r\n\r\n"},
		{"SIP", "OPTIONS sip:b SIP/2.0\r\nVia: SIP/2.0/UDP h;branch=z9hG4bK" + strings.Repeat("a", 2048) + "\r\n" +
			"From: <sip:x@y>;tag=1\r\nTo: <sip:b>\r\nCall-ID: tort-long\r\nCSeq: 1 OPTIONS\r\n\r\n"},
		// Malformed media: wrong RTP version, truncated RTP header,
		// RTCP with a lying length field, truncated RTCP.
		{"RTP", "\x00\x00\x00\x01\x00\x00\x00\xa0\xde\xca\xfb\xad"},
		{"RTP", "\x80\x00\x00\x01\x00\x00"},
		{"RTCP", "\x80\xc8\xff\xff\x00\x00\x00\x00"},
		{"RTCP", "\x81\xcb"},
	}
	at := last + time.Second
	for i, h := range hostile {
		entries = append(entries, trace.Entry{
			AtNanos:  int64(at + time.Duration(i)*time.Millisecond),
			Proto:    h.proto,
			FromHost: "attacker.example.net", FromPort: 6666,
			ToHost: "proxy.b.example.com", ToPort: 5060,
			Size: len(h.data), Data: []byte(h.data),
		})
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].AtNanos < entries[j].AtNanos })

	write("cmd/vids/testdata/torture.jsonl", entries)
	write("cmd/vids/testdata/via-evasion.jsonl", viaEvasion())
}

// viaEvasion is one malformed INVITE planting a Call-ID, then forty
// stray 200 OKs for that Call-ID reflected at one victim host: the
// sequential detector reports the first stray as a deviation and the
// burst as DRDoS.
func viaEvasion() []trace.Entry {
	const callID = "evade@attacker.example.net"
	invite := "INVITE sip:bob@b.example.com SIP/2.0\r\nVia: garbage\r\n" +
		"From: <sip:mallory@attacker.example.net>;tag=m1\r\nTo: <sip:bob@b.example.com>\r\n" +
		"Call-ID: " + callID + "\r\nCSeq: 1 INVITE\r\n\r\n"
	entries := []trace.Entry{{
		Proto:    "SIP",
		FromHost: "attacker.example.net", FromPort: 5060,
		ToHost: "proxy.b.example.com", ToPort: 5060,
		Size: len(invite), Data: []byte(invite),
	}}
	for i := 0; i < 40; i++ {
		ok := fmt.Sprintf("SIP/2.0 200 OK\r\nVia: SIP/2.0/UDP victim.b.example.com;branch=z9hG4bKr%d\r\n"+
			"From: <sip:mallory@attacker.example.net>;tag=m1\r\nTo: <sip:bob@b.example.com>;tag=r%d\r\n"+
			"Call-ID: %s\r\nCSeq: 1 INVITE\r\n\r\n", i, i, callID)
		entries = append(entries, trace.Entry{
			AtNanos:  int64(10*time.Millisecond + time.Duration(i)*time.Millisecond),
			Proto:    "SIP",
			FromHost: fmt.Sprintf("reflector%d.example.org", i), FromPort: 5060,
			ToHost: "victim.b.example.com", ToPort: 5060,
			Size: len(ok), Data: []byte(ok),
		})
	}
	return entries
}

func write(path string, entries []trace.Entry) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	w := trace.NewWriter(f)
	for _, e := range entries {
		if err := w.Record(e.Packet(), e.At()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s: wrote %d entries\n", path, w.Entries())
}
