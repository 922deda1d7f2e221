package ids

import (
	"strconv"

	"vids/internal/core"
	"vids/internal/idsgen"
	"vids/internal/sipmsg"
)

// The typed event vectors are shared with the compiled backend: the
// guard functions internal/idsgen generates read them as struct fields
// while the interpreted specs read them through the core.TypedArgs
// accessors, so one scratch value feeds both. The aliases keep the
// historical local names used throughout this package.
type (
	// sipArgs is the typed input vector x for SIP events.
	sipArgs = idsgen.SIPArgs
	// rtpArgs is the typed input vector for EvRTP events.
	rtpArgs = idsgen.RTPArgs
	// floodArgs is the typed input vector for the windowed cross-call
	// detectors (Figure 4's INVITE flood and the DRDoS response counter).
	floodArgs = idsgen.FloodArgs
)

// Timer events are argument-free; sharing one static value keeps the
// expiry paths from materializing an Event per fire.
var (
	evTimerT  = core.Event{Name: EvTimerT}
	evTimerT1 = core.Event{Name: EvTimerT1}
)

// appendMediaKey renders mediaKey(host, port) into b without
// allocating, for map probes via the compiler's byte-slice-keyed
// lookup optimization.
func appendMediaKey(b []byte, host string, port int) []byte {
	b = append(b, host...)
	b = append(b, ':')
	return strconv.AppendInt(b, int64(port), 10)
}

// AppendMediaKey renders the fact-base index key for a media
// destination — the same key the Event Distributor uses to route RTP to
// a call's machine — into b without allocating, so the ingestion lanes
// and the fast-path cache can key their mirrors of the index through a
// reusable buffer.
func AppendMediaKey(b []byte, host string, port int) []byte {
	return appendMediaKey(b, host, port)
}

// appendURI renders u the way sipmsg.URI.String does, into b, so the
// hot path can intern the result instead of allocating a fresh string
// per message.
func appendURI(b []byte, u sipmsg.URI) []byte {
	b = append(b, "sip:"...)
	if u.User != "" {
		b = append(b, u.User...)
		b = append(b, '@')
	}
	b = append(b, u.Host...)
	if u.Port != 0 {
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(u.Port), 10)
	}
	return b
}
