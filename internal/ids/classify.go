package ids

import (
	"fmt"

	"vids/internal/rtp"
	"vids/internal/sim"
	"vids/internal/sipmsg"
)

// Classified is the Packet Classifier's output: the packet's protocol
// label plus exactly one parsed application message (paper Figure 3).
// It is the unit of work a detection shard consumes, letting a routing
// layer that already parsed a packet (to extract its Call-ID) hand the
// parsed form to the IDS without a second parse.
type Classified struct {
	Proto sim.Proto
	SIP   *sipmsg.Message // set when Proto == sim.ProtoSIP
	RTP   *rtp.Packet     // set when Proto == sim.ProtoRTP
	RTCP  *rtp.RTCP       // set when Proto == sim.ProtoRTCP
}

// Classify parses one packet into its application message. Non-VoIP
// protocol labels classify successfully with no message (vids ignores
// them); payloads that are not raw bytes or fail to parse return an
// error.
func Classify(pkt *sim.Packet) (Classified, error) {
	raw, ok := pkt.Payload.([]byte)
	if !ok {
		return Classified{}, fmt.Errorf("ids: payload is %T, not wire bytes", pkt.Payload)
	}
	switch pkt.Proto {
	case sim.ProtoSIP:
		m, err := sipmsg.Parse(raw)
		if err != nil {
			return Classified{}, err
		}
		return Classified{Proto: sim.ProtoSIP, SIP: m}, nil
	case sim.ProtoRTP:
		p, err := rtp.Parse(raw)
		if err != nil {
			return Classified{}, err
		}
		return Classified{Proto: sim.ProtoRTP, RTP: p}, nil
	case sim.ProtoRTCP:
		p, err := rtp.ParseRTCP(raw)
		if err != nil {
			return Classified{}, err
		}
		return Classified{Proto: sim.ProtoRTCP, RTCP: p}, nil
	default:
		return Classified{Proto: pkt.Proto}, nil
	}
}

// AppendMediaKey renders the fact-base index key for a media
// destination — the same key the Event Distributor uses to route RTP to
// a call's machine — into b without allocating, so the ingestion lanes
// and the fast-path cache can key their mirrors of the index through a
// reusable buffer.
func AppendMediaKey(b []byte, host string, port int) []byte {
	return appendMediaKey(b, host, port)
}
