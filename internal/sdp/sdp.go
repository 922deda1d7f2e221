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
	"unicode/utf8"
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
// The packet path (internal/ids, sipmsg.Scan, and internal/ingress for
// the datagrams its scanner bails on) reads each SDP body through this
// instead of Parse: one INVITE previously paid two full Parse calls —
// roughly 20 allocations — per message. It reads the body once: each
// line is found with one IndexByte, the o=, c= and m= lines are split
// into fields by one walk, and each number is judged as it is read.
func MediaDest(data []byte) (addr []byte, port, payload int, ok bool) {
	sawVersion, sawMedia := false, false
	rest := data
	for len(rest) > 0 {
		line := rest
		if i := bytes.IndexByte(rest, '\n'); i >= 0 && i < len(rest) {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = nil
		}
		for len(line) > 0 && line[len(line)-1] == '\r' {
			line = line[:len(line)-1] // strings.TrimRight(line, "\r")
		}
		if len(line) == 0 {
			continue
		}
		if len(line) < 2 || line[1] != '=' {
			return nil, 0, 0, false
		}
		f := fields{rest: line[2:]}
		switch line[0] {
		case 'v':
			if len(line) != 3 || line[2] != '0' {
				return nil, 0, 0, false
			}
			sawVersion = true
		case 'o':
			// At least six fields, the second and third numbers
			// strconv.ParseUint(s, 10, 64) accepts.
			f.next() // username
			if !uint64Field(f.next()) || !uint64Field(f.next()) || f.next() == nil || f.next() == nil || f.next() == nil {
				return nil, 0, 0, false
			}
		case 'c':
			// Exactly "IN IP4 <address>".
			netType, addrType, a := f.next(), f.next(), f.next()
			if string(netType) != "IN" || string(addrType) != "IP4" || a == nil || f.next() != nil {
				return nil, 0, 0, false
			}
			addr = a
		case 'm':
			// "audio <port> RTP/AVP" and at least one payload type.
			media := f.next()
			p, portOK := atoiField(f.next())
			if string(media) != "audio" || !portOK || p <= 0 || p > 65535 || string(f.next()) != "RTP/AVP" {
				return nil, 0, 0, false
			}
			firstPT := -1
			for fld := f.next(); fld != nil; fld = f.next() {
				pt, ptOK := atoiField(fld)
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
				port, payload, sawMedia = p, firstPT, true
			}
		}
	}
	if !sawVersion || len(addr) == 0 || !sawMedia {
		return nil, 0, 0, false
	}
	return addr, port, payload, true
}

// fields iterates the fields of a line the way strings.Fields splits
// it — at runs of white space, Unicode white space included — without
// allocating the field slice.
type fields struct {
	rest []byte
}

// next returns the next field, or nil when the line is exhausted.
// Printable ASCII (0x21..0x7e) is never white space, so a field byte
// costs one comparison; only bytes ≥ 0x80 are decoded as runes, each
// once. The walk steps one byte at a time and counts off the rest of
// a multi-byte rune in skip, so its index only ever grows.
func (f *fields) next() []byte {
	b := f.rest
	for len(b) > 0 {
		if c := b[0]; c == ' ' || c-'\t' < 5 {
			b = b[1:]
			continue
		} else if c < utf8.RuneSelf {
			break
		}
		r, n := utf8.DecodeRune(b)
		if !isUnicodeSpace(r) || n <= 0 || n > len(b) {
			break
		}
		b = b[n:]
	}
	for j, skip := uint(0), 0; ; j++ {
		for j < uint(len(b)) && b[j]-0x21 < 0x7e-0x21+1 {
			j++
		}
		if j >= uint(len(b)) {
			break
		}
		if c := b[j]; skip > 0 {
			skip-- // inside a multi-byte rune
		} else if c < utf8.RuneSelf {
			if c == ' ' || c-'\t' < 5 {
				f.rest = b[j:]
				return b[:j]
			}
		} else {
			r, n := utf8.DecodeRune(b[j:])
			if isUnicodeSpace(r) {
				f.rest = b[j:]
				return b[:j]
			}
			skip = n - 1
		}
	}
	f.rest = nil
	if len(b) == 0 {
		return nil
	}
	return b
}

// isUnicodeSpace is unicode.IsSpace above ASCII: the White_Space
// property's code points from U+0085 up.
func isUnicodeSpace(r rune) bool {
	switch r {
	case 0x85, 0xa0, 0x1680, 0x2028, 0x2029, 0x202f, 0x205f, 0x3000:
		return true
	}
	return r >= 0x2000 && r <= 0x200a
}

// atoiField parses a field the way strconv.Atoi does: an optional sign
// and at least one decimal digit. Leading zeros are allowed, so the
// digit count is unbounded; the value stops growing once it passes
// 2³¹, which every caller's range check rejects, as it would Atoi's
// overflow error.
func atoiField(b []byte) (int, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg, b = b[0] == '-', b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		if n < 1<<31 {
			n = n*10 + int(c-'0')
		}
	}
	if neg {
		return -n, true
	}
	return n, true
}

// uint64Field reports whether strconv.ParseUint(b, 10, 64) accepts b:
// at least one digit, nothing else, and a value below 2⁶⁴. A number of
// at most 19 significant digits always fits; one of 20 fits when it
// compares no greater than the largest uint64, digit by digit.
func uint64Field(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	sig := 0 // digits from the first non-zero one on
	for _, c := range b {
		if c < '0' || c > '9' {
			return false
		}
		if sig > 0 || c != '0' {
			sig++
		}
	}
	return sig < 20 || sig == 20 && len(b) >= 20 && string(b[len(b)-20:]) <= "18446744073709551615"
}
