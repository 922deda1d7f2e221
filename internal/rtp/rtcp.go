package rtp

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// RTCP packet types (RFC 3550 §12.1). The media engine emits sender
// and receiver reports; BYE ends participation in a session — and an
// *injected* RTCP BYE is a media-plane teardown attack vids flags
// when the signaling plane shows the call still up.
const (
	RTCPSenderReport   = 200
	RTCPReceiverReport = 201
	RTCPBye            = 203
)

// rtcpHeaderSize is the fixed part of every RTCP packet.
const rtcpHeaderSize = 4

// RTCP rejections beyond the shared ErrTooShort and ErrVersion, also
// returned bare.
var (
	ErrRTCPLength      = errors.New("rtp: RTCP length field does not fit the packet")
	ErrTruncatedReport = errors.New("rtp: truncated RTCP report")
	ErrRTCPType        = errors.New("rtp: unsupported RTCP type")
)

// ReceptionReport is one reception report block (RFC 3550 §6.4.1).
type ReceptionReport struct {
	SSRC         uint32 // source this report is about
	FractionLost uint8
	TotalLost    uint32 // 24 bits on the wire
	HighestSeq   uint32
	Jitter       uint32
}

const receptionReportSize = 20

// RTCP is a parsed RTCP packet. Exactly one of the payload sections
// is meaningful depending on Type.
type RTCP struct {
	Type uint8
	SSRC uint32 // sender of this RTCP packet

	// Sender report fields (Type == RTCPSenderReport).
	NTPTime     uint64
	RTPTime     uint32
	PacketCount uint32
	OctetCount  uint32

	// Reception reports (sender and receiver reports).
	Reports []ReceptionReport
}

// Marshal encodes the packet.
func (p *RTCP) Marshal() ([]byte, error) {
	var body []byte
	switch p.Type {
	case RTCPSenderReport:
		body = make([]byte, 4+20+len(p.Reports)*receptionReportSize)
		binary.BigEndian.PutUint32(body[0:], p.SSRC)
		binary.BigEndian.PutUint64(body[4:], p.NTPTime)
		binary.BigEndian.PutUint32(body[12:], p.RTPTime)
		binary.BigEndian.PutUint32(body[16:], p.PacketCount)
		binary.BigEndian.PutUint32(body[20:], p.OctetCount)
		marshalReports(body[24:], p.Reports)
	case RTCPReceiverReport:
		body = make([]byte, 4+len(p.Reports)*receptionReportSize)
		binary.BigEndian.PutUint32(body[0:], p.SSRC)
		marshalReports(body[4:], p.Reports)
	case RTCPBye:
		body = make([]byte, 4)
		binary.BigEndian.PutUint32(body[0:], p.SSRC)
	default:
		return nil, fmt.Errorf("rtp: unsupported RTCP type %d", p.Type)
	}
	if len(body)%4 != 0 {
		return nil, fmt.Errorf("rtp: RTCP body not 32-bit aligned")
	}
	if len(p.Reports) > 31 {
		return nil, fmt.Errorf("rtp: %d reception reports exceeds 31", len(p.Reports))
	}

	buf := make([]byte, rtcpHeaderSize+len(body))
	buf[0] = Version<<6 | uint8(len(p.Reports))
	if p.Type == RTCPBye {
		buf[0] = Version<<6 | 1 // source count
	}
	buf[1] = p.Type
	binary.BigEndian.PutUint16(buf[2:], uint16(len(buf)/4-1)) // length in words - 1
	copy(buf[rtcpHeaderSize:], body)
	return buf, nil
}

func marshalReports(dst []byte, reports []ReceptionReport) {
	for i, r := range reports {
		off := i * receptionReportSize
		binary.BigEndian.PutUint32(dst[off:], r.SSRC)
		dst[off+4] = r.FractionLost
		dst[off+5] = byte(r.TotalLost >> 16)
		dst[off+6] = byte(r.TotalLost >> 8)
		dst[off+7] = byte(r.TotalLost)
		binary.BigEndian.PutUint32(dst[off+8:], r.HighestSeq)
		binary.BigEndian.PutUint32(dst[off+12:], r.Jitter)
		// Last 4 bytes (LSR/DLSR) left zero: the simulator has no
		// NTP round-trip estimation.
	}
}

// ParseRTCP decodes an RTCP packet.
func ParseRTCP(data []byte) (*RTCP, error) {
	p := &RTCP{}
	if err := ParseRTCPInto(p, data); err != nil {
		return nil, err
	}
	return p, nil
}

// ParseRTCPInto decodes an RTCP packet into p, overwriting every
// field and reusing p's Reports backing array, so a caller-owned
// scratch RTCP makes repeated parsing allocation-free. On error p is
// left in an unspecified state.
//
//vids:noalloc per-packet RTCP decode into caller-owned scratch
//vids:nopanic decodes raw network bytes
func ParseRTCPInto(p *RTCP, data []byte) error {
	if len(data) < rtcpHeaderSize+4 {
		return ErrTooShort
	}
	if data[0]>>6 != Version {
		return ErrVersion
	}
	count := int(data[0] & 0x1F)
	*p = RTCP{Type: data[1], Reports: p.Reports[:0]}
	wantLen := (int(binary.BigEndian.Uint16(data[2:])) + 1) * 4
	if wantLen > len(data) {
		return ErrRTCPLength
	}
	if wantLen < rtcpHeaderSize+4 {
		return ErrRTCPLength
	}
	body := data[rtcpHeaderSize:wantLen]
	p.SSRC = binary.BigEndian.Uint32(body[0:])

	switch p.Type {
	case RTCPSenderReport:
		if len(body) < 24+count*receptionReportSize {
			return ErrTruncatedReport
		}
		p.NTPTime = binary.BigEndian.Uint64(body[4:])
		p.RTPTime = binary.BigEndian.Uint32(body[12:])
		p.PacketCount = binary.BigEndian.Uint32(body[16:])
		p.OctetCount = binary.BigEndian.Uint32(body[20:])
		var ok bool
		p.Reports, ok = parseReportsInto(p.Reports, body[24:], count)
		if !ok {
			return ErrTruncatedReport
		}
	case RTCPReceiverReport:
		if len(body) < 4+count*receptionReportSize {
			return ErrTruncatedReport
		}
		var ok bool
		p.Reports, ok = parseReportsInto(p.Reports, body[4:], count)
		if !ok {
			return ErrTruncatedReport
		}
	case RTCPBye:
		// SSRC already read; additional sources ignored.
	default:
		return ErrRTCPType
	}
	return nil
}

func parseReportsInto(out []ReceptionReport, data []byte, count int) ([]ReceptionReport, bool) {
	if len(data) < count*receptionReportSize {
		return nil, false
	}
	// The per-iteration length check re-establishes the bound the
	// nopanic gate needs after each re-slice; the aggregate check above
	// already guaranteed it, so it never fails.
	for ; count > 0; count-- {
		if len(data) < receptionReportSize {
			return nil, false
		}
		out = append(out, ReceptionReport{
			SSRC:         binary.BigEndian.Uint32(data),
			FractionLost: data[4],
			TotalLost: uint32(data[5])<<16 |
				uint32(data[6])<<8 | uint32(data[7]),
			HighestSeq: binary.BigEndian.Uint32(data[8:]),
			Jitter:     binary.BigEndian.Uint32(data[12:]),
		})
		data = data[receptionReportSize:]
	}
	return out, true
}
