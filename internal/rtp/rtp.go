// Package rtp models Real-time Transport Protocol packets (RFC 1889,
// the version cited by the paper). vids needs the header fields that
// drive the RTP protocol state machine and the media-spam detector:
// payload type, sequence number, timestamp and the SSRC identifier
// (paper Sections 3.2 and 6).
package rtp

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Version is the RTP version carried in every packet.
const Version = 2

// HeaderSize is the fixed RTP header size without CSRC entries.
const HeaderSize = 12

// The decoders reject malformed datagrams with these sentinels,
// returned bare: the bytes are attacker-controlled, so a rejection
// must cost the packet path no allocation.
var (
	ErrTooShort      = errors.New("rtp: packet too short")
	ErrVersion       = errors.New("rtp: unsupported version")
	ErrTruncatedCSRC = errors.New("rtp: truncated CSRC list")
)

// Packet is a parsed RTP packet.
type Packet struct {
	PayloadType uint8
	Marker      bool
	Sequence    uint16
	Timestamp   uint32
	SSRC        uint32
	CSRC        []uint32
	Payload     []byte
}

// Marshal encodes the packet into wire form.
func (p *Packet) Marshal() ([]byte, error) {
	if p.PayloadType > 127 {
		return nil, fmt.Errorf("rtp: payload type %d out of range", p.PayloadType)
	}
	if len(p.CSRC) > 15 {
		return nil, fmt.Errorf("rtp: %d CSRC entries exceeds 15", len(p.CSRC))
	}
	buf := make([]byte, HeaderSize+4*len(p.CSRC)+len(p.Payload))
	buf[0] = Version<<6 | uint8(len(p.CSRC))
	buf[1] = p.PayloadType
	if p.Marker {
		buf[1] |= 0x80
	}
	binary.BigEndian.PutUint16(buf[2:], p.Sequence)
	binary.BigEndian.PutUint32(buf[4:], p.Timestamp)
	binary.BigEndian.PutUint32(buf[8:], p.SSRC)
	off := HeaderSize
	for _, c := range p.CSRC {
		binary.BigEndian.PutUint32(buf[off:], c)
		off += 4
	}
	copy(buf[off:], p.Payload)
	return buf, nil
}

// Parse decodes an RTP packet from wire form. The returned packet's
// Payload aliases data; see ParseInto.
func Parse(data []byte) (*Packet, error) {
	p := &Packet{}
	if err := ParseInto(p, data); err != nil {
		return nil, err
	}
	return p, nil
}

// ParseInto decodes an RTP packet from wire form into p, overwriting
// every field and reusing p's CSRC backing array, so a caller-owned
// scratch Packet makes repeated parsing allocation-free. Payload (and
// CSRC capacity aside) alias data: the caller must not reuse or
// mutate the buffer while the packet is live. On error p is left in
// an unspecified state.
//
//vids:noalloc per-packet RTP decode into caller-owned scratch
//vids:nopanic decodes raw network bytes
func ParseInto(p *Packet, data []byte) error {
	if len(data) < HeaderSize {
		return ErrTooShort
	}
	if data[0]>>6 != Version {
		return ErrVersion
	}
	cc := int(data[0] & 0x0F)
	if len(data) < HeaderSize+4*cc {
		return ErrTruncatedCSRC
	}
	p.Marker = data[1]&0x80 != 0
	p.PayloadType = data[1] & 0x7F
	p.Sequence = binary.BigEndian.Uint16(data[2:])
	p.Timestamp = binary.BigEndian.Uint32(data[4:])
	p.SSRC = binary.BigEndian.Uint32(data[8:])
	p.CSRC = p.CSRC[:0]
	// Walk the CSRC list by re-slicing a window whose bounds the
	// length guard above established, instead of open-coding offsets —
	// every step here is machine-checkably in bounds.
	csrc := data[HeaderSize : HeaderSize+4*cc]
	for len(csrc) >= 4 {
		p.CSRC = append(p.CSRC, binary.BigEndian.Uint32(csrc))
		csrc = csrc[4:]
	}
	p.Payload = nil
	if HeaderSize+4*cc < len(data) {
		p.Payload = data[HeaderSize+4*cc:]
	}
	return nil
}

// ParseHeaderInto decodes only the cleartext RTP header into p,
// leaving Payload nil. This is the SRTP-degraded path (RFC 3711): SRTP
// encrypts the payload and appends an authentication tag but leaves
// the header — version, payload type, sequence, timestamp, SSRC, CSRC
// — in the clear, so the RTP protocol state machine keeps running on
// encrypted media. The trailing ciphertext and auth tag are ignored,
// not validated.
//
//vids:noalloc per-packet SRTP header decode into caller-owned scratch
//vids:nopanic decodes raw network bytes
func ParseHeaderInto(p *Packet, data []byte) error {
	if len(data) < HeaderSize {
		return ErrTooShort
	}
	if data[0]>>6 != Version {
		return ErrVersion
	}
	cc := int(data[0] & 0x0F)
	if len(data) < HeaderSize+4*cc {
		return ErrTruncatedCSRC
	}
	p.Marker = data[1]&0x80 != 0
	p.PayloadType = data[1] & 0x7F
	p.Sequence = binary.BigEndian.Uint16(data[2:])
	p.Timestamp = binary.BigEndian.Uint32(data[4:])
	p.SSRC = binary.BigEndian.Uint32(data[8:])
	p.CSRC = p.CSRC[:0]
	csrc := data[HeaderSize : HeaderSize+4*cc]
	for len(csrc) >= 4 {
		p.CSRC = append(p.CSRC, binary.BigEndian.Uint32(csrc))
		csrc = csrc[4:]
	}
	p.Payload = nil
	return nil
}

// WireSize reports the encoded size in bytes.
func (p *Packet) WireSize() int {
	return HeaderSize + 4*len(p.CSRC) + len(p.Payload)
}

// SeqLess reports whether sequence number a precedes b, accounting for
// 16-bit wraparound (RFC 1889 Appendix A.1 style comparison).
func SeqLess(a, b uint16) bool {
	return a != b && b-a < 0x8000
}

// SeqGap returns the forward distance from a to b in sequence-number
// space (how many increments take a to b, modulo 2^16).
func SeqGap(a, b uint16) uint16 { return b - a }

// TimestampGap returns the forward distance from a to b in timestamp
// space, modulo 2^32.
func TimestampGap(a, b uint32) uint32 { return b - a }

// WindowOK is the media-spam window comparator shared by the EFSM gap
// guards (both backends, both spam machines) and the fast-path cache:
// given the stream's high-water pair (prevSeq, prevTS), a packet
// bearing (seq, ts) is in-profile when it sits at or behind the
// high-water mark (a duplicate or tolerated reordering — including
// reordering across the 65535→0 wrap) or advances it by at most
// maxSeqGap sequence numbers and maxTSGap timestamp units.
//
//vids:noalloc per-packet gap guard shared by EFSM guards and fastpath
func WindowOK(prevSeq, seq uint16, prevTS, ts uint32, maxSeqGap uint16, maxTSGap uint32) bool {
	if !SeqLess(prevSeq, seq) && seq != prevSeq {
		// Strictly behind the high-water mark: reordered delivery of a
		// packet the window already admitted.
		return true
	}
	return SeqGap(prevSeq, seq) <= maxSeqGap && TimestampGap(prevTS, ts) <= maxTSGap
}

// WindowAdvance returns the high-water pair after accepting (seq, ts):
// it advances only when seq is ahead of prevSeq in wraparound order.
// A tolerated reordered packet must not rewind the window — otherwise
// the next in-order packet is measured against the stale mark and a
// legitimate stream is flagged as a gap, worst across the 65535→0
// wrap where the rewound distance looks like a ~64k jump.
//
//vids:noalloc per-packet window bookkeeping shared by EFSM actions and fastpath
func WindowAdvance(prevSeq, seq uint16, prevTS, ts uint32) (uint16, uint32) {
	if SeqLess(prevSeq, seq) {
		return seq, ts
	}
	return prevSeq, prevTS
}

// ExtractLite pulls the four fast-path fields out of an RTP datagram
// without materializing a Packet: the per-flow validation cache needs
// only SSRC, payload type, sequence and timestamp to decide whether a
// packet is in-profile. Malformed datagrams (short, wrong version,
// truncated CSRC list) return ok=false and must take the slow path,
// which reports the parse error exactly as before.
//
//vids:noalloc fast-path field extraction, no header materialization
//vids:nopanic decodes raw network bytes
func ExtractLite(data []byte) (ssrc uint32, pt uint8, seq uint16, ts uint32, ok bool) {
	if len(data) < HeaderSize || data[0]>>6 != Version {
		return 0, 0, 0, 0, false
	}
	if len(data) < HeaderSize+4*int(data[0]&0x0F) {
		return 0, 0, 0, 0, false
	}
	return binary.BigEndian.Uint32(data[8:]),
		data[1] & 0x7F,
		binary.BigEndian.Uint16(data[2:]),
		binary.BigEndian.Uint32(data[4:]),
		true
}
