package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"vids/internal/ids"
	"vids/internal/sim"
)

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	pkts := []*sim.Packet{
		{From: sim.Addr{Host: "a", Port: 5060}, To: sim.Addr{Host: "b", Port: 5060},
			Proto: sim.ProtoSIP, Size: 500, Payload: []byte("INVITE...")},
		{From: sim.Addr{Host: "a", Port: 20000}, To: sim.Addr{Host: "b", Port: 30000},
			Proto: sim.ProtoRTP, Size: 60, Payload: []byte{0x80, 0x12}},
		{From: sim.Addr{Host: "a", Port: 20001}, To: sim.Addr{Host: "b", Port: 30001},
			Proto: sim.ProtoRTCP, Size: 8, Payload: []byte{0x80, 0xC8}},
	}
	for i, p := range pkts {
		if err := w.Record(p, time.Duration(i)*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if w.Entries() != 3 {
		t.Fatalf("entries = %d", w.Entries())
	}
	if w.Err() != nil {
		t.Fatal(w.Err())
	}

	entries, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("read %d entries", len(entries))
	}
	if entries[0].At() != 0 || entries[1].At() != time.Second {
		t.Fatalf("timestamps = %v, %v", entries[0].At(), entries[1].At())
	}
	p0 := entries[0].Packet()
	if p0.Proto != sim.ProtoSIP || p0.From.Host != "a" || p0.To.Port != 5060 {
		t.Fatalf("packet 0 = %+v", p0)
	}
	raw, ok := p0.Payload.([]byte)
	if !ok || string(raw) != "INVITE..." {
		t.Fatalf("payload = %v", p0.Payload)
	}
	p1 := entries[1].Packet()
	if p1.Proto != sim.ProtoRTP {
		t.Fatalf("packet 1 proto = %v", p1.Proto)
	}
	p2 := entries[2].Packet()
	if p2.Proto != sim.ProtoRTCP || p2.To.Port != 30001 {
		t.Fatalf("packet 2 = %+v", p2)
	}
}

func TestNonByteSlicePayloadSkipped(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Record(&sim.Packet{Payload: 42}, 0); err != nil {
		t.Fatal(err)
	}
	if w.Entries() != 0 {
		t.Fatalf("entries = %d", w.Entries())
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(strings.NewReader("{not json\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
	if _, err := Read(strings.NewReader(`{"atNanos":-5}` + "\n")); err == nil {
		t.Fatal("negative timestamp accepted")
	}
	entries, err := Read(strings.NewReader("\n\n"))
	if err != nil || len(entries) != 0 {
		t.Fatalf("blank lines: %v, %v", entries, err)
	}
}

func TestProtoRoundTrip(t *testing.T) {
	for _, p := range []sim.Proto{sim.ProtoSIP, sim.ProtoRTP, sim.ProtoRTCP, sim.ProtoOther} {
		if got := protoFromString(p.String()); got != p {
			t.Fatalf("round-trip %v -> %v", p, got)
		}
	}
	if protoFromString("garbage") != sim.ProtoOther {
		t.Fatal("unknown proto must map to OTHER")
	}
}

type countingProcessor struct {
	n  int
	at []time.Duration
	s  *sim.Simulator
}

func (c *countingProcessor) Process(pkt *sim.Packet) {
	c.n++
	c.at = append(c.at, c.s.Now())
}

func TestReplaySchedulesAtOriginalTimes(t *testing.T) {
	entries := []Entry{
		{AtNanos: int64(time.Second), Proto: "SIP", Data: []byte("x"), Size: 1},
		{AtNanos: int64(3 * time.Second), Proto: "RTP", Data: []byte("y"), Size: 1},
	}
	s := sim.New(1)
	p := &countingProcessor{s: s}
	if err := Replay(s, entries, p); err != nil {
		t.Fatal(err)
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if p.n != 2 {
		t.Fatalf("processed %d", p.n)
	}
	if p.at[0] != time.Second || p.at[1] != 3*time.Second {
		t.Fatalf("times = %v", p.at)
	}
}

func TestReplayRejectsPastEntries(t *testing.T) {
	s := sim.New(1)
	s.Schedule(time.Minute, func() {})
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	err := Replay(s, []Entry{{AtNanos: int64(time.Second)}}, &countingProcessor{s: s})
	if err == nil {
		t.Fatal("past entry accepted")
	}
}

// TestCaptureThenReplayDetects demonstrates the offline workflow: a
// capture of an attack replayed into a fresh IDS reproduces the
// detection.
func TestCaptureThenReplayDetects(t *testing.T) {
	// Build a tiny capture of an attack: an unsolicited RTP stream
	// with a sequence-number jump (media spam, Figure 6).
	var buf bytes.Buffer
	w := NewWriter(&buf)
	mk := func(seq uint16) *sim.Packet {
		// Minimal valid RTP: version 2, PT 18.
		raw := []byte{0x80, 18, byte(seq >> 8), byte(seq), 0, 0, 0, 1, 0, 0, 0, 9}
		return &sim.Packet{
			From:  sim.Addr{Host: "evil", Port: 4000},
			To:    sim.Addr{Host: "victim", Port: 5004},
			Proto: sim.ProtoRTP, Size: len(raw), Payload: raw,
		}
	}
	for i, seq := range []uint16{1, 2, 3, 5000} {
		if err := w.Record(mk(seq), time.Duration(i)*20*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}

	entries, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s2 := sim.New(2)
	fresh := ids.New(s2, ids.DefaultConfig())
	if err := Replay(s2, entries, fresh); err != nil {
		t.Fatal(err)
	}
	if err := s2.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(fresh.AlertsOfType(ids.AlertMediaSpam)) != 1 {
		t.Fatalf("replayed attack not detected: %v", fresh.Alerts())
	}
}

// Property: write/read identity over arbitrary payload bytes and
// timestamps.
func TestRoundTripProperty(t *testing.T) {
	prop := func(data []byte, at uint32, port uint16) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		pkt := &sim.Packet{
			From: sim.Addr{Host: "h1", Port: int(port)}, To: sim.Addr{Host: "h2", Port: 5060},
			Proto: sim.ProtoSIP, Size: len(data), Payload: data,
		}
		if err := w.Record(pkt, time.Duration(at)); err != nil {
			return false
		}
		entries, err := Read(&buf)
		if err != nil || len(entries) != 1 {
			return false
		}
		got := entries[0].Packet()
		raw, ok := got.Payload.([]byte)
		if !ok {
			return false
		}
		return bytes.Equal(raw, data) &&
			got.From.Port == int(port) &&
			entries[0].At() == time.Duration(at)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzJSONLRoundTrip pins decode → encode → decode stability of the
// trace format: whatever JSONL Read accepts, writing the entries back
// out and reading them again yields the same entries, with unknown
// protocol labels canonicalized to the one Packet maps them to.
func FuzzJSONLRoundTrip(f *testing.F) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "cmd", "vids", "testdata", "torture.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		f.Add(line)
	}
	f.Add([]byte(`{"atNanos":1,"proto":"garbage","data":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		first, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, e := range first {
			if err := w.Record(e.Packet(), e.At()); err != nil {
				t.Fatalf("encode %+v: %v", e, err)
			}
		}
		second, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-reading the encoding of %q: %v\n%s", data, err, buf.Bytes())
		}
		if len(second) != len(first) {
			t.Fatalf("%d entries decoded, %d after the round trip", len(first), len(second))
		}
		for i, e := range first {
			e.Proto = e.Packet().Proto.String()
			if got := second[i]; !reflect.DeepEqual(got, e) {
				t.Fatalf("entry %d drifted through the round trip: %+v -> %+v", i, e, got)
			}
		}
	})
}
