package rtp

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestMarshalParseRoundTrip(t *testing.T) {
	p := &Packet{
		PayloadType: 18,
		Marker:      true,
		Sequence:    0xBEEF,
		Timestamp:   0xDEADBEEF,
		SSRC:        0x12345678,
		CSRC:        []uint32{1, 2, 3},
		Payload:     []byte("0123456789"),
	}
	raw, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != p.WireSize() {
		t.Fatalf("len = %d, WireSize = %d", len(raw), p.WireSize())
	}
	got, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.PayloadType != p.PayloadType || got.Marker != p.Marker ||
		got.Sequence != p.Sequence || got.Timestamp != p.Timestamp ||
		got.SSRC != p.SSRC {
		t.Fatalf("round-trip = %+v, want %+v", got, p)
	}
	if len(got.CSRC) != 3 || got.CSRC[0] != 1 || got.CSRC[2] != 3 {
		t.Fatalf("csrc = %v", got.CSRC)
	}
	if !bytes.Equal(got.Payload, p.Payload) {
		t.Fatalf("payload = %q", got.Payload)
	}
}

func TestMarshalErrors(t *testing.T) {
	if _, err := (&Packet{PayloadType: 200}).Marshal(); err == nil {
		t.Fatal("payload type > 127 accepted")
	}
	if _, err := (&Packet{CSRC: make([]uint32, 16)}).Marshal(); err == nil {
		t.Fatal("16 CSRC entries accepted")
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(make([]byte, 5)); err == nil {
		t.Fatal("short packet accepted")
	}
	bad := make([]byte, HeaderSize)
	bad[0] = 1 << 6 // version 1
	if _, err := Parse(bad); err == nil {
		t.Fatal("version 1 accepted")
	}
	trunc := make([]byte, HeaderSize)
	trunc[0] = Version<<6 | 2 // claims 2 CSRC entries, none present
	if _, err := Parse(trunc); err == nil {
		t.Fatal("truncated CSRC list accepted")
	}
}

func TestParseEmptyPayload(t *testing.T) {
	p := &Packet{PayloadType: 0, Sequence: 1, Timestamp: 160, SSRC: 9}
	raw, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Payload) != 0 {
		t.Fatalf("payload = %v, want empty", got.Payload)
	}
}

func TestSeqLess(t *testing.T) {
	tests := []struct {
		a, b uint16
		want bool
	}{
		{1, 2, true},
		{2, 1, false},
		{5, 5, false},
		{0xFFFF, 0, true},  // wraparound
		{0, 0xFFFF, false}, // reverse wraparound
		{0, 0x7FFF, true},
		{0, 0x8000, false}, // exactly half the space: not "less"
	}
	for _, tt := range tests {
		if got := SeqLess(tt.a, tt.b); got != tt.want {
			t.Fatalf("SeqLess(%d, %d) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestSeqGap(t *testing.T) {
	if g := SeqGap(10, 15); g != 5 {
		t.Fatalf("gap = %d, want 5", g)
	}
	if g := SeqGap(0xFFFE, 2); g != 4 {
		t.Fatalf("wraparound gap = %d, want 4", g)
	}
}

func TestTimestampGap(t *testing.T) {
	if g := TimestampGap(100, 260); g != 160 {
		t.Fatalf("gap = %d, want 160", g)
	}
	if g := TimestampGap(0xFFFFFF00, 0x60); g != 0x160 {
		t.Fatalf("wraparound gap = %#x, want 0x160", g)
	}
}

// Property: marshal/parse identity over arbitrary header fields.
func TestRoundTripProperty(t *testing.T) {
	prop := func(pt uint8, marker bool, seq uint16, ts, ssrc uint32, payload []byte) bool {
		p := &Packet{
			PayloadType: pt % 128,
			Marker:      marker,
			Sequence:    seq,
			Timestamp:   ts,
			SSRC:        ssrc,
			Payload:     payload,
		}
		raw, err := p.Marshal()
		if err != nil {
			return false
		}
		got, err := Parse(raw)
		if err != nil {
			return false
		}
		return got.PayloadType == p.PayloadType &&
			got.Marker == p.Marker &&
			got.Sequence == p.Sequence &&
			got.Timestamp == p.Timestamp &&
			got.SSRC == p.SSRC &&
			bytes.Equal(got.Payload, p.Payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: SeqLess is a strict ordering within a half-space window —
// for gaps below 2^15, a < a+gap and !(a+gap < a).
func TestSeqLessWindowProperty(t *testing.T) {
	prop := func(a uint16, gapRaw uint16) bool {
		gap := gapRaw%0x7FFE + 1 // 1..0x7FFE
		b := a + gap
		return SeqLess(a, b) && !SeqLess(b, a) && !SeqLess(a, a)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRejectionsAllocateNothing feeds the scratch decoders every
// malformed shape they reject: each must return its sentinel and
// allocate nothing, since the bytes come straight off the wire.
func TestRejectionsAllocateNothing(t *testing.T) {
	sr := []byte{0x81, 200, 0x00, 0x06, 0, 0, 0, 1,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	cases := []struct {
		name string
		rtcp bool
		data []byte
		want error
	}{
		{"rtp short", false, make([]byte, 5), ErrTooShort},
		{"rtp version", false, []byte{1 << 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, ErrVersion},
		{"rtp truncated CSRC", false, []byte{Version<<6 | 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, ErrTruncatedCSRC},
		{"rtcp short", true, []byte{0x80, 200}, ErrTooShort},
		{"rtcp version", true, []byte{1 << 6, 200, 0, 1, 0, 0, 0, 1}, ErrVersion},
		{"rtcp length too large", true, []byte{0x80, 200, 0xFF, 0xFF, 0, 0, 0, 1}, ErrRTCPLength},
		{"rtcp length too small", true, []byte{0x80, 200, 0, 0, 0, 0, 0, 1}, ErrRTCPLength},
		{"rtcp truncated SR", true, []byte{0x80, 200, 0, 1, 0, 0, 0, 1}, ErrTruncatedReport},
		{"rtcp SR short of its reports", true, sr, ErrTruncatedReport},
		{"rtcp truncated RR", true, []byte{0x81, 201, 0, 1, 0, 0, 0, 1}, ErrTruncatedReport},
		{"rtcp unsupported type", true, []byte{0x80, 204, 0, 1, 0, 0, 0, 1}, ErrRTCPType},
	}
	var p Packet
	var r RTCP
	for _, c := range cases {
		var err error
		parse := func() {
			if c.rtcp {
				err = ParseRTCPInto(&r, c.data)
			} else {
				err = ParseInto(&p, c.data)
			}
		}
		if n := testing.AllocsPerRun(100, parse); n != 0 || err != c.want {
			t.Errorf("%s: err %v (want %v), %.0f allocs", c.name, err, c.want, n)
		}
		if !c.rtcp {
			if err := ParseHeaderInto(&p, c.data); err != c.want {
				t.Errorf("%s: ParseHeaderInto err %v, want %v", c.name, err, c.want)
			}
			if n := testing.AllocsPerRun(100, func() { _ = ParseHeaderInto(&p, c.data) }); n != 0 {
				t.Errorf("%s: ParseHeaderInto %.0f allocs", c.name, n)
			}
		}
	}
}
