package sipmsg

import (
	"bytes"

	"vids/internal/sdp"
)

// Span locates one field inside the datagram it was scanned from: a
// byte offset and a length, no pointer. A View is therefore a few
// dozen plain bytes that can ride a queue by value next to the packet
// without the collector ever tracing it. The zero Span is the empty
// field.
type Span struct{ Off, Len uint16 }

// Of returns the bytes s covers in raw, which must be the buffer the
// span was scanned from (or nil for anything else: a span never
// panics, it just reads as empty).
func (s Span) Of(raw []byte) []byte {
	lo := int(s.Off)
	hi := lo + int(s.Len)
	if hi > len(raw) {
		return nil
	}
	return raw[lo:hi] //vids:panic-ok lo ≤ hi (Len is unsigned) and hi ≤ len(raw) by the guard above
}

// maxScanLen is the largest datagram Scan commits to: offsets are 16
// bits wide. UDP cannot carry more anyway.
const maxScanLen = 1<<16 - 1

// MethodID names one of KnownMethods without a pointer. The zero value
// means "none": a response has no method.
type MethodID uint8

// The six method identifiers, in KnownMethods order.
const (
	MethodNone MethodID = iota
	MethodINVITE
	MethodACK
	MethodBYE
	MethodCANCEL
	MethodREGISTER
	MethodOPTIONS
)

// Method returns the method constant id names ("" for MethodNone).
func (id MethodID) Method() Method {
	i := int(id) - 1
	if i < 0 || i >= len(KnownMethods) {
		return ""
	}
	return KnownMethods[i]
}

func methodID(b []byte) MethodID {
	for i, k := range KnownMethods {
		if string(b) == string(k) {
			return MethodID(i + 1)
		}
	}
	return MethodNone
}

// URISpan is a scanned SIP URI: the parts ParseURI keeps.
type URISpan struct {
	User, Host Span
	Port       uint16 // 0 means unspecified, as in URI
}

// View is what the packet path needs to know about one SIP datagram:
// the fields the ingress lanes route on and the detector's machines
// read, as spans into the receive buffer. It holds no pointer and
// copies nothing, so it is valid exactly as long as the buffer it was
// scanned from — until the packet is retired. Whoever keeps a field
// longer (a call monitor, a routing table) interns its bytes.
type View struct {
	Method     MethodID // MethodNone for a response
	CSeqMethod MethodID
	Status     uint16 // 0 for a request

	RequestURI     URISpan // requests only
	From, To       URISpan
	FromTag, ToTag Span
	CallID         Span
	ContactHost    Span // empty when the message has no Contact

	Body Span // Content-Length-clamped

	// The media destination the body's SDP advertises, as
	// sdp.MediaDest reports it; SDPAddr is empty when the body is not
	// a session description with a media section.
	SDPAddr    Span
	SDPPort    uint16
	SDPPayload uint8
}

// ScanResult is Scan's three-valued answer.
type ScanResult uint8

const (
	// ScanOK: the View is filled, Parse would accept the same bytes and
	// every View field equals the corresponding Message field.
	ScanOK ScanResult = iota
	// ScanReject: Parse would reject the same bytes.
	ScanReject
	// ScanBail: no claim. The datagram has a shape the scanner does not
	// commit to (folded lines, quoted strings, signed or oversized
	// numbers, non-ASCII bytes, a CSeq method outside KnownMethods, …);
	// the caller falls back to Parse.
	ScanBail
)

// Scan is the packet path's SIP scanner: one pass over the start line
// and the header block, no allocation, nothing copied. It checks what
// Parse checks — the whole message has to be one Parse would accept,
// not only the fields the View carries, so a datagram with a garbage
// Via or a negative Max-Forwards is never ScanOK — and it mirrors
// Parse's reading of every field it commits to, including the
// last-one-wins rule for repeated headers. Where mirroring Parse would
// take more than a byte comparison it bails instead: a bail costs one
// cold-path Parse, a misread would cost a wrong route or a wrong
// verdict.
//
//vids:noalloc the per-datagram SIP scan on the lane hot path
//vids:nopanic one pass over raw network bytes before any validation
func Scan(raw []byte, v *View) ScanResult {
	*v = View{}
	if len(raw) > maxScanLen {
		return ScanBail
	}
	line, pos := cutLine(raw, 0)
	if res := scanStartLine(raw, v, trimASCII(line)); res != ScanOK {
		return res
	}

	// Walk the header block the way Parse does, one line behind: a line
	// is judged only once the next one is known not to continue it.
	// Parse first cuts the block at the first CRLFCRLF and then splits
	// it at every CRLF; splitting at every CRLF and stopping at the
	// first empty line finds the same lines in one pass (an empty line
	// is a CRLF right after a CRLF — or the end of the datagram, where
	// pos runs past it and the body comes out empty either way).
	sc := scanState{contentLength: -1}
	var cur []byte
	for pos <= len(raw) {
		var ln []byte
		ln, pos = cutLine(raw, pos)
		if len(ln) == 0 {
			break
		}
		if ln[0] == ' ' || ln[0] == '\t' {
			return ScanBail // folded header: Parse unfolds, we do not
		}
		if cur != nil {
			if res := sc.header(raw, v, cur); res != ScanOK {
				return res
			}
		}
		cur = ln
	}
	if cur != nil {
		if res := sc.header(raw, v, cur); res != ScanOK {
			return res
		}
	}

	// Validate's mandatory headers. (Its other checks — a known method,
	// a Request-URI host, the status range, From/To hosts — were made
	// where those fields were scanned.)
	if !sc.via || !sc.from || !sc.to || v.CallID.Len == 0 || v.CSeqMethod == MethodNone {
		return ScanReject
	}
	var body []byte
	if pos >= 0 && pos < len(raw) {
		body = raw[pos:]
	}
	if sc.contentLength >= 0 {
		if sc.contentLength > len(body) {
			return ScanReject
		}
		body = body[:sc.contentLength]
	}
	v.Body = spanIn(raw, body)
	if addr, port, payload, ok := sdp.MediaDest(body); ok {
		// MediaDest admits ports 1..65535 and payload types 0..127.
		v.SDPAddr, v.SDPPort, v.SDPPayload = spanIn(raw, addr), uint16(port), uint8(payload)
	}
	return ScanOK
}

// spanIn locates sub, a slice of raw obtained by plain two-index
// slicing, inside raw: both then share the end of one backing array,
// so the capacities differ by exactly the offset. Scan never sees more
// than maxScanLen bytes, which keeps the conversions exact.
func spanIn(raw, sub []byte) Span {
	if len(sub) == 0 {
		return Span{}
	}
	return Span{Off: uint16(cap(raw) - cap(sub)), Len: uint16(len(sub))}
}

// scanState is what Scan remembers across header lines beyond the
// View: which mandatory headers it has seen and the last
// Content-Length (-1 before the first).
type scanState struct {
	via, from, to bool
	contentLength int
}

// header judges one complete (unfolded) header line, mirroring
// parseHeaderLine.
func (sc *scanState) header(raw []byte, v *View, ln []byte) ScanResult {
	colon := bytes.IndexByte(ln, ':')
	if colon < 0 {
		return ScanReject
	}
	name := trimASCII(ln[:colon])
	value := trimASCII(ln[colon+1:])
	id, _ := lookupHeader(name)
	switch id {
	case hdrVia:
		sc.via = true
		return scanVia(value)
	case hdrFrom:
		sc.from = true
		return scanNameAddr(raw, value, &v.From, &v.FromTag)
	case hdrTo:
		sc.to = true
		return scanNameAddr(raw, value, &v.To, &v.ToTag)
	case hdrCallID:
		v.CallID = spanIn(raw, value)
	case hdrCSeq:
		return scanCSeq(v, value)
	case hdrContact:
		var u URISpan
		var tag Span
		res := scanNameAddr(raw, value, &u, &tag)
		v.ContactHost = u.Host
		return res
	case hdrMaxForwards, hdrExpires:
		if _, ok := scanDigits(value); !ok {
			return ScanBail
		}
	case hdrContentLength:
		n, ok := scanDigits(value)
		if !ok {
			return ScanBail
		}
		sc.contentLength = n
	}
	return ScanOK
}

// scanStartLine mirrors parseStartLineBytes plus Validate's method and
// status checks. line is already trimmed.
func scanStartLine(raw []byte, v *View, line []byte) ScanResult {
	if len(line) == 0 {
		return ScanReject
	}
	if len(line) > len(sipVersion) &&
		string(line[:len(sipVersion)]) == sipVersion && line[len(sipVersion)] == ' ' {
		codePart := line[len(sipVersion)+1:]
		if sp := bytes.IndexByte(codePart, ' '); sp >= 0 {
			codePart = codePart[:sp]
		}
		if len(codePart) == 0 {
			return ScanReject
		}
		code, ok := scanDigits(codePart)
		if !ok {
			return ScanBail
		}
		if code < 100 || code > 699 {
			return ScanReject
		}
		v.Status = uint16(code)
		return ScanOK
	}
	method, rest := nextField(line)
	uri, rest := nextField(rest)
	version, rest := nextField(rest)
	if extra, _ := nextField(rest); extra != nil || version == nil {
		return ScanReject
	}
	if string(version) != sipVersion {
		return ScanReject
	}
	if classify(uri)&hasNonASCII != 0 {
		return ScanBail
	}
	if res := scanURI(raw, uri, &v.RequestURI); res != ScanOK {
		return res
	}
	if v.Method = methodID(method); v.Method == MethodNone {
		return ScanReject
	}
	return ScanOK
}

// nextField splits the first run of non-space bytes off b, the way the
// field loops of parseStartLineBytes and parseCSeqBytes do. field is
// nil when b holds only spaces.
func nextField(b []byte) (field, rest []byte) {
	for len(b) > 0 && asciiSpace(b[0]) {
		b = b[1:]
	}
	j := 0
	for j < len(b) && !asciiSpace(b[j]) {
		j++
	}
	if j == 0 {
		return nil, nil
	}
	if j < len(b) {
		return b[:j], b[j:]
	}
	return b, nil
}

// scanURI mirrors ParseURI on ASCII bytes.
func scanURI(raw, b []byte, u *URISpan) ScanResult {
	b = trimASCII(b)
	if len(b) >= 2 && b[0] == '<' && b[len(b)-1] == '>' {
		b = b[1 : len(b)-1]
	}
	if len(b) < 4 || string(b[:4]) != "sip:" {
		return ScanReject
	}
	rest := b[4:]
	for i, c := range rest {
		if c == ';' || c == '?' {
			rest = rest[:i]
			break
		}
	}
	var user []byte
	if at := bytes.IndexByte(rest, '@'); at >= 0 {
		user, rest = rest[:at], rest[at+1:]
	}
	port := 0
	if c := bytes.IndexByte(rest, ':'); c >= 0 {
		p, ok := scanDigits(rest[c+1:])
		if !ok {
			return ScanBail
		}
		if p <= 0 || p > 65535 {
			return ScanReject
		}
		port, rest = p, rest[:c]
	}
	if len(rest) == 0 || !uriBytesOK(user, false) || !uriBytesOK(rest, true) {
		return ScanReject
	}
	*u = URISpan{User: spanIn(raw, user), Host: spanIn(raw, rest), Port: uint16(port)}
	return ScanOK
}

// uriBytesOK is uriPartOK over bytes.
func uriBytesOK(b []byte, host bool) bool {
	for _, c := range b {
		if c <= ' ' || c == 0x7f || c == '<' || c == '>' || (host && c == '@') {
			return false
		}
	}
	return true
}

// scanNameAddr mirrors ParseNameAddr for a From, To or Contact value:
// the URI and the tag parameter. Quoted display names are not read at
// all — a quote anywhere in the value bails.
func scanNameAddr(raw, s []byte, u *URISpan, tag *Span) ScanResult {
	if classify(s)&(hasQuote|hasNonASCII) != 0 {
		return ScanBail
	}
	var params []byte
	if i := bytes.IndexByte(s, '<'); i >= 0 {
		j := bytes.IndexByte(s, '>')
		if j <= i {
			return ScanReject
		}
		if res := scanURI(raw, s[i+1:j], u); res != ScanOK {
			return res
		}
		params = s[j+1:]
	} else {
		uriPart := s
		if k := bytes.IndexByte(s, ';'); k >= 0 {
			uriPart, params = s[:k], s[k:]
		}
		if res := scanURI(raw, uriPart, u); res != ScanOK {
			return res
		}
	}
	// parseParams, for the one key the packet path reads. A repeated
	// tag overrides the earlier one, as the map assignment does.
	*tag = Span{}
	for len(params) > 0 {
		part := params
		if i := bytes.IndexByte(params, ';'); i >= 0 {
			part, params = params[:i], params[i+1:]
		} else {
			params = nil
		}
		part = trimASCII(part)
		key, val := part, []byte(nil)
		if eq := bytes.IndexByte(part, '='); eq >= 0 {
			key, val = trimASCII(part[:eq]), trimASCII(part[eq+1:])
		}
		if string(key) == "tag" {
			*tag = spanIn(raw, val)
		}
	}
	return ScanOK
}

// scanVia mirrors parseViaLine and ParseVia as a pure check: every
// comma-separated entry must be one ParseVia accepts. Quotes and angle
// brackets change where parseViaLine splits, so they bail.
func scanVia(value []byte) ScanResult {
	if classify(value) != 0 {
		return ScanBail
	}
	const prefix = "SIP/2.0/"
	for {
		part := value
		i := bytes.IndexByte(value, ',')
		if i >= 0 {
			part, value = value[:i], value[i+1:]
		}
		part = trimASCII(part)
		if len(part) < len(prefix) || string(part[:len(prefix)]) != prefix {
			return ScanReject
		}
		rest := part[len(prefix):]
		sp := bytes.IndexByte(rest, ' ')
		if sp < 0 {
			return ScanReject
		}
		hostPort := trimASCII(rest[sp+1:])
		if semi := bytes.IndexByte(hostPort, ';'); semi >= 0 {
			hostPort = hostPort[:semi]
		}
		if c := bytes.IndexByte(hostPort, ':'); c >= 0 {
			p, ok := scanDigits(hostPort[c+1:])
			if !ok {
				return ScanBail
			}
			if p <= 0 || p > 65535 {
				return ScanReject
			}
			hostPort = hostPort[:c]
		}
		if len(hostPort) == 0 {
			return ScanReject
		}
		if i < 0 {
			return ScanOK
		}
	}
}

// scanCSeq mirrors parseCSeqBytes. Parse admits any method token in a
// CSeq; the View names only the known ones, so others bail.
func scanCSeq(v *View, value []byte) ScanResult {
	seq, rest := nextField(value)
	method, rest := nextField(rest)
	if extra, _ := nextField(rest); extra != nil || method == nil {
		return ScanReject
	}
	var n uint64
	for _, c := range seq {
		if c < '0' || c > '9' {
			return ScanReject
		}
		if n = n*10 + uint64(c-'0'); n > 1<<32-1 {
			return ScanReject
		}
	}
	if v.CSeqMethod = methodID(method); v.CSeqMethod == MethodNone {
		return ScanBail
	}
	return ScanOK
}

// scanDigits reads a plain decimal number of at most nine digits. The
// numbers Parse reads with Atoi semantics (ports, status codes,
// Content-Length, Max-Forwards, Expires) take this form on every
// message a SIP stack serializes; a sign, an empty field or a longer
// run is left to Parse.
func scanDigits(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 9 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// The byte classes that make a field's reading depend on more than a
// byte comparison: quotes and angle brackets move the separators Parse
// honours, and Parse trims with strings.TrimSpace, which also strips
// the Unicode spaces trimASCII does not know.
const (
	hasQuote = 1 << iota
	hasAngle
	hasNonASCII
)

func classify(b []byte) (classes uint8) {
	for _, c := range b {
		switch {
		case c == '"':
			classes |= hasQuote
		case c == '<' || c == '>':
			classes |= hasAngle
		case c >= 0x80:
			classes |= hasNonASCII
		}
	}
	return classes
}
