// Package sdp implements the Session Description Protocol subset
// (RFC 2327) that SIP call setup needs: the caller advertises its
// media address, port and codec in the INVITE body, and the callee
// answers in the 200 OK (paper Section 2.1). vids reads these values
// into the RTP state machine's global variables (paper Section 4.2).
package sdp

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// Codec payload types from the RTP/AVP profile (RFC 3551).
const (
	PayloadPCMU = 0  // G.711 µ-law
	PayloadG729 = 18 // G.729, the codec used in the paper's testbed
)

// PayloadName returns the conventional encoding name for a static
// payload type.
func PayloadName(pt int) string {
	switch pt {
	case PayloadPCMU:
		return "PCMU/8000"
	case PayloadG729:
		return "G729/8000"
	default:
		return fmt.Sprintf("PT%d", pt)
	}
}

// Media is one m= section (we only model audio).
type Media struct {
	Port     int
	Payloads []int // offered RTP payload types, in preference order
}

// Description is a parsed session description.
type Description struct {
	Origin      string // o= username
	SessionName string // s=
	Address     string // c= connection address (host name in the simulator)
	SessionID   uint64
	Version     uint64
	Media       []Media
	Attributes  []string // a= lines, verbatim
}

// FirstAudio returns the first media section, or ok=false when the
// description carries no media.
func (d *Description) FirstAudio() (Media, bool) {
	if len(d.Media) == 0 {
		return Media{}, false
	}
	return d.Media[0], true
}

// New builds the minimal offer/answer the testbed exchanges.
func New(user, address string, port, payload int) *Description {
	return &Description{
		Origin:      user,
		SessionName: "call",
		Address:     address,
		SessionID:   2890844526,
		Version:     2890844526,
		Media:       []Media{{Port: port, Payloads: []int{payload}}},
	}
}

// Marshal renders the description in wire form.
func (d *Description) Marshal() []byte {
	var b strings.Builder
	b.WriteString("v=0\r\n")
	origin := d.Origin
	if origin == "" {
		origin = "-" // RFC 4566 §5.2: no user ID; an empty field would drop out of the o= line
	}
	fmt.Fprintf(&b, "o=%s %d %d IN IP4 %s\r\n", origin, d.SessionID, d.Version, d.Address)
	name := d.SessionName
	if name == "" {
		name = "-"
	}
	fmt.Fprintf(&b, "s=%s\r\n", name)
	fmt.Fprintf(&b, "c=IN IP4 %s\r\n", d.Address)
	b.WriteString("t=0 0\r\n")
	for _, m := range d.Media {
		fmt.Fprintf(&b, "m=audio %d RTP/AVP", m.Port)
		for _, pt := range m.Payloads {
			b.WriteByte(' ')
			b.WriteString(strconv.Itoa(pt))
		}
		b.WriteString("\r\n")
	}
	for _, a := range d.Attributes {
		fmt.Fprintf(&b, "a=%s\r\n", a)
	}
	return []byte(b.String())
}

// Parse parses a session description. Unknown line types are ignored,
// per RFC 2327's "parsers must ignore unknown lines" guidance.
func Parse(data []byte) (*Description, error) {
	d := &Description{}
	sawVersion := false
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if len(line) < 2 || line[1] != '=' {
			return nil, fmt.Errorf("sdp: malformed line %q", line)
		}
		value := line[2:]
		switch line[0] {
		case 'v':
			if value != "0" {
				return nil, fmt.Errorf("sdp: unsupported version %q", value)
			}
			sawVersion = true
		case 'o':
			fields := strings.Fields(value)
			if len(fields) < 6 {
				return nil, fmt.Errorf("sdp: malformed o= line %q", line)
			}
			d.Origin = fields[0]
			id, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("sdp: bad session id in %q", line)
			}
			ver, err := strconv.ParseUint(fields[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("sdp: bad version in %q", line)
			}
			d.SessionID, d.Version = id, ver
		case 's':
			d.SessionName = value
		case 'c':
			fields := strings.Fields(value)
			if len(fields) != 3 || fields[0] != "IN" || fields[1] != "IP4" {
				return nil, fmt.Errorf("sdp: malformed c= line %q", line)
			}
			d.Address = fields[2]
		case 'm':
			fields := strings.Fields(value)
			if len(fields) < 4 || fields[0] != "audio" || fields[2] != "RTP/AVP" {
				return nil, fmt.Errorf("sdp: unsupported m= line %q", line)
			}
			port, err := strconv.Atoi(fields[1])
			if err != nil || port <= 0 || port > 65535 {
				return nil, fmt.Errorf("sdp: bad media port in %q", line)
			}
			m := Media{Port: port}
			for _, f := range fields[3:] {
				pt, err := strconv.Atoi(f)
				if err != nil || pt < 0 || pt > 127 {
					return nil, fmt.Errorf("sdp: bad payload type in %q", line)
				}
				m.Payloads = append(m.Payloads, pt)
			}
			d.Media = append(d.Media, m)
		case 'a':
			d.Attributes = append(d.Attributes, value)
		case 't', 'b', 'k', 'z', 'r', 'i', 'u', 'e', 'p':
			// Recognized but not modeled.
		default:
			// Ignore unknown types.
		}
	}
	if !sawVersion {
		return nil, fmt.Errorf("sdp: missing v= line")
	}
	if d.Address == "" {
		return nil, fmt.Errorf("sdp: missing c= connection line")
	}
	return d, nil
}

// MediaDest extracts the advertised media destination — connection
// address, first audio port and first payload type — without
// materializing a Description. It applies exactly the same per-line
// validation as Parse, so ok is true precisely when Parse would
// succeed on data and the description carries at least one media
// section (whose payload list is never empty when Parse accepts it).
// addr aliases data; callers that retain it must copy (or intern) it.
//
// The packet path (internal/ids, and internal/ingress for the
// datagrams its scanner bails on) reads each SDP body through this
// instead of Parse: one INVITE previously paid two full Parse calls —
// roughly 20 allocations — per message.
func MediaDest(data []byte) (addr []byte, port, payload int, ok bool) {
	if len(data) == 0 {
		return nil, 0, 0, false
	}
	sawVersion := false
	sawMedia := false
	rest := data
	for len(rest) > 0 {
		var line []byte
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			line, rest = rest, nil
		}
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if len(line) == 0 {
			continue
		}
		if len(line) < 2 || line[1] != '=' {
			return nil, 0, 0, false
		}
		value := line[2:]
		switch line[0] {
		case 'v':
			if len(value) != 1 || value[0] != '0' {
				return nil, 0, 0, false
			}
			sawVersion = true
		case 'o':
			// At least six fields, the second and third numeric.
			var f fieldScanner
			f.init(value)
			f.next() // username
			_, idOK := parseUintField(f.next())
			_, verOK := parseUintField(f.next())
			if !idOK || !verOK || f.next() == nil || f.next() == nil || f.next() == nil {
				return nil, 0, 0, false
			}
		case 'c':
			// Exactly "IN IP4 <address>".
			var f fieldScanner
			f.init(value)
			netType, addrType, a := f.next(), f.next(), f.next()
			if string(netType) != "IN" || string(addrType) != "IP4" || a == nil || f.next() != nil {
				return nil, 0, 0, false
			}
			addr = a
		case 'm':
			// "audio <port> RTP/AVP" and at least one payload type.
			var f fieldScanner
			f.init(value)
			if string(f.next()) != "audio" {
				return nil, 0, 0, false
			}
			p, numOK := parseIntField(f.next())
			if !numOK || p <= 0 || p > 65535 {
				return nil, 0, 0, false
			}
			if string(f.next()) != "RTP/AVP" {
				return nil, 0, 0, false
			}
			firstPT := -1
			for fld := f.next(); fld != nil; fld = f.next() {
				pt, ptOK := parseIntField(fld)
				if !ptOK || pt < 0 || pt > 127 {
					return nil, 0, 0, false
				}
				if firstPT < 0 {
					firstPT = pt
				}
			}
			if firstPT < 0 {
				return nil, 0, 0, false
			}
			if !sawMedia {
				port, payload = p, firstPT
				sawMedia = true
			}
		}
	}
	if !sawVersion || len(addr) == 0 || !sawMedia {
		return nil, 0, 0, false
	}
	return addr, port, payload, true
}

// fieldScanner iterates whitespace-separated fields of a line the way
// strings.Fields does, without allocating the field slice.
type fieldScanner struct {
	rest []byte
}

func (f *fieldScanner) init(b []byte) { f.rest = b }

// isSpace reports ASCII white space: SP, or one of HT LF VT FF CR,
// which are the five consecutive bytes 9..13.
func isSpace(c byte) bool { return c == ' ' || c-'\t' < 5 }

// next returns the next field, or nil when exhausted.
func (f *fieldScanner) next() []byte {
	b := f.rest
	for len(b) > 0 && isSpace(b[0]) {
		b = b[1:]
	}
	j := 0
	for j < len(b) && !isSpace(b[j]) {
		j++
	}
	f.rest = nil
	if j == 0 {
		return nil
	}
	if j < len(b) {
		f.rest = b[j:]
		return b[:j]
	}
	return b
}

// parseIntField parses a decimal field with an optional sign, the
// values strconv.Atoi accepts (overflow divergence is immaterial:
// both paths reject such lines through the range checks).
func parseIntField(b []byte) (int, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		b = b[1:]
	}
	n, ok := parseUintField(b)
	if !ok || n > 1<<62 {
		return 0, false
	}
	if neg {
		return -int(n), true
	}
	return int(n), true
}

// parseUintField parses a decimal field, rejecting anything
// strconv.ParseUint(s, 10, 64) would reject.
func parseUintField(b []byte) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if n > (^uint64(0)-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}
