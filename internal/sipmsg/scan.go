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
	if hi > len(raw) || lo > hi { // Len is unsigned: lo > hi never holds, but it bounds lo for the compiler
		return nil
	}
	return raw[lo:hi]
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
	// commit to (folded lines, non-ASCII bytes, signed or oversized
	// numbers, a CSeq method outside KnownMethods, quotes or angle
	// brackets in a Via); the caller falls back to Parse.
	ScanBail
)

// Scan is the packet path's SIP scanner: one walk over the start line
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
// Each header line is cut at its CRLF once. Its name is cut at its
// colon and looked up as Parse does (lookupHeader), and its value is
// read by one walk that records every position and byte class
// its verdict depends on (byteClass). The verdict is decided after the
// walk, in the order Parse would meet the problems, so a bail found
// late in a value still beats a reject found earlier in it.
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

	// Walk the header block the way Parse does, judging a line only
	// once the next one is known not to continue it. Parse first cuts
	// the block at the first CRLFCRLF and then splits it at every CRLF;
	// splitting at every CRLF and stopping at the first empty line
	// finds the same lines in one pass (an empty line is a CRLF right
	// after a CRLF — or the end of the datagram, where pos runs past it
	// and the body comes out empty either way).
	sc := scanState{contentLength: -1}
	for pos <= len(raw) {
		var ln []byte
		ln, pos = cutLine(raw, pos)
		if len(ln) == 0 {
			break
		}
		// Folded header: Parse unfolds, we do not. The line after ln is
		// checked before ln is judged, as Parse reads ahead to unfold.
		if ln[0] == ' ' || ln[0] == '\t' {
			return ScanBail
		}
		if c := byteAt(raw, pos); c == ' ' || c == '\t' {
			return ScanBail
		}
		if res := sc.header(raw, v, ln); res != ScanOK {
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

// cut is b[lo:hi] for positions a walk over b recorded, or nil if they
// do not bound a slice of b.
func cut(b []byte, lo, hi int) []byte {
	if lo < 0 || hi < lo || hi > len(b) {
		return nil
	}
	return b[lo:hi]
}

// byteAt is b[i] for a position a walk over b recorded, or 0 (a byte no
// caller looks for) past either end.
func byteAt(b []byte, i int) byte {
	if i < 0 || i >= len(b) {
		return 0
	}
	return b[i]
}

// The byte classes. Every byte a field's verdict depends on has one;
// all others are class 0, so a walk skips runs of them with one table
// load per byte and stops only where a verdict could change.
const (
	cSpace uint16 = 1 << iota // SP and HT LF VT FF CR: what trimASCII strips
	cCtl                      // the other bytes below SP, and DEL
	cHigh                     // bytes ≥ 0x80: Parse trims Unicode spaces, trimASCII does not
	cQuote                    // '"'
	cLT                       // '<'
	cGT                       // '>'
	cSemi                     // ';'
	cQmark                    // '?'
	cAt                       // '@'
	cColon                    // ':'
	cComma                    // ','
	cEq                       // '='

	// cBad is what uriPartOK refuses in a URI's user or host part (an
	// '@' aside, which only the host refuses).
	cBad = cSpace | cCtl | cLT | cGT
	// cViaBail is what moves parseViaLine's entry split — quotes and
	// angle brackets — plus the bytes trimASCII does not trim as Parse
	// would.
	cViaBail = cQuote | cLT | cGT | cHigh
)

// byteClass maps each byte to its class.
var byteClass = func() (t [256]uint16) {
	for c := range t {
		switch {
		case asciiSpace(byte(c)):
			t[c] = cSpace
		case c < ' ' || c == 0x7f:
			t[c] = cCtl
		case c >= 0x80:
			t[c] = cHigh
		}
	}
	t['"'], t['<'], t['>'] = cQuote, cLT, cGT
	t[';'], t['?'], t['@'], t[':'], t[','], t['='] = cSemi, cQmark, cAt, cColon, cComma, cEq
	return t
}()

// skipTo returns the index of the first byte at or after i whose class
// is in stop (len(b) if there is none) and the union of the classes of
// the bytes before it.
func skipTo(b []byte, i int, stop uint16) (int, uint16) {
	var seen uint16
	for k, c := range cut(b, i, len(b)) {
		cls := byteClass[c]
		if cls&stop != 0 {
			return i + k, seen
		}
		seen |= cls
	}
	return len(b), seen
}

// rejectUnless answers for a value whose reading found a reject at i:
// a byte of a bail class anywhere after it still makes the value a
// bail, as a bail class found late beats a reject found early.
func rejectUnless(b []byte, i int, bail uint16) ScanResult {
	if j, _ := skipTo(b, i, bail); j < len(b) {
		return ScanBail
	}
	return ScanReject
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
	if colon < 0 || colon >= len(ln) {
		return ScanReject
	}
	id, _ := lookupHeader(trimASCII(ln[:colon]))
	value := trimASCII(ln[colon+1:])
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
		// The status code runs to the next space; scanDigits' rules.
		code, n := 0, 0
		for _, c := range line[len(sipVersion)+1:] {
			if c == ' ' {
				break
			}
			if c < '0' || c > '9' || n == 9 {
				return ScanBail
			}
			code, n = code*10+int(c-'0'), n+1
		}
		if n == 0 || code < 100 || code > 699 {
			return ScanReject
		}
		v.Status = uint16(code)
		return ScanOK
	}

	// Request line: three fields split at ASCII white space. The
	// Request-URI's field is read by the URI walk itself, which stops
	// at the space that ends it.
	i := skipField(line, 0)
	method := cut(line, 0, i)
	uriLo := skipSpace(line, i)
	lo := uriLo
	if byteAt(line, lo) == '<' {
		lo++ // ParseURI strips <…>, if the field also ends in '>'
	}
	var w uriWalk
	uriHi := w.walk(line, lo, cSpace)
	verLo := skipSpace(line, uriHi)
	verHi := skipField(line, verLo)
	if skipSpace(line, verHi) < len(line) || string(cut(line, verLo, verHi)) != sipVersion {
		return ScanReject
	}
	if w.seen&cHigh != 0 {
		return ScanBail
	}
	end := uriHi
	if lo > uriLo {
		if field := cut(line, uriLo, uriHi); len(field) < 2 || field[len(field)-1] != '>' {
			return ScanReject // the URI is the whole field, starting with '<'
		}
		end = uriHi - 1
	}
	if res := w.verdict(raw, line, end, &v.RequestURI); res != ScanOK {
		return res
	}
	if v.Method = methodID(method); v.Method == MethodNone {
		return ScanReject
	}
	return ScanOK
}

// skipSpace returns the index of the first byte at or after i that is
// not ASCII white space.
func skipSpace(b []byte, i int) int {
	for i >= 0 && i < len(b) && asciiSpace(b[i]) {
		i++
	}
	return i
}

// skipField returns the index of the first ASCII white space at or
// after i.
func skipField(b []byte, i int) int {
	for i >= 0 && i < len(b) && !asciiSpace(b[i]) {
		i++
	}
	return i
}

// uriWalk is what one walk over a SIP URI records: every position
// ParseURI's verdict depends on, as indices into the walked slice.
type uriWalk struct {
	sip       bool   // the URI, trimmed, starts with "sip:"
	rest      int    // the first byte after "sip:"
	restEnd   int    // the first ';' or '?' after rest (ParseURI drops what follows), or -1
	at, at2   int    // the first and second '@' in the rest, or -1
	colon     int    // the first ':' in the rest, or -1
	hostColon int    // the first ':' after at, or -1
	bad       int    // the first byte of class cBad in the rest, or -1
	seen      uint16 // the classes of every byte walked
}

// walk reads a URI from i, after any leading white space, to the first
// byte whose class is in stop, and returns that byte's index (len(b)
// if there is none).
func (w *uriWalk) walk(b []byte, i int, stop uint16) int {
	*w = uriWalk{restEnd: -1, at: -1, at2: -1, colon: -1, hostColon: -1, bad: -1}
	if stop&cSpace == 0 {
		i = skipSpace(b, i)
	}
	if string(cut(b, i, i+4)) != "sip:" {
		j, seen := skipTo(b, i, stop)
		w.seen = seen
		return j
	}
	w.sip, w.rest = true, i+4
	var seen uint16
	for k, c := range cut(b, w.rest, len(b)) {
		cls := byteClass[c]
		if cls == 0 {
			continue
		}
		i = w.rest + k
		if cls&stop != 0 {
			w.seen = seen
			return i
		}
		seen |= cls
		switch {
		case cls&(cSemi|cQmark) != 0:
			w.restEnd = i
			j, after := skipTo(b, i+1, stop)
			w.seen = seen | after
			return j
		case cls == cAt:
			if w.at < 0 {
				w.at = i
			} else if w.at2 < 0 {
				w.at2 = i
			}
		case cls == cColon:
			if w.colon < 0 {
				w.colon = i
			}
			if w.at >= 0 && w.hostColon < 0 {
				w.hostColon = i
			}
		case cls&cBad != 0:
			if w.bad < 0 {
				w.bad = i
			}
		}
	}
	w.seen = seen
	return len(b)
}

// verdict mirrors ParseURI on the walked URI, which ends at end (after
// trimming), and fills u on ScanOK.
func (w *uriWalk) verdict(raw, b []byte, end int, u *URISpan) ScanResult {
	if !w.sip {
		return ScanReject
	}
	restEnd := end
	if w.restEnd >= 0 {
		restEnd = w.restEnd
	}
	var user []byte
	hostLo, colon := w.rest, w.colon
	if w.at >= 0 {
		user, hostLo, colon = cut(b, w.rest, w.at), w.at+1, w.hostColon
	}
	hostHi, port := restEnd, 0
	if colon >= 0 {
		p, ok := scanDigits(cut(b, colon+1, restEnd))
		if !ok {
			return ScanBail
		}
		if p <= 0 || p > 65535 {
			return ScanReject
		}
		hostHi, port = colon, p
	}
	// uriPartOK over user and host: the first bad byte and the second
	// '@' of the rest are both past the host, or it is refused.
	if hostHi <= hostLo || (w.bad >= 0 && w.bad < hostHi) || (w.at2 >= 0 && w.at2 < hostHi) {
		return ScanReject
	}
	*u = URISpan{User: spanIn(raw, user), Host: spanIn(raw, cut(b, hostLo, hostHi)), Port: uint16(port)}
	return ScanOK
}

// trimEnd returns hi less the ASCII white space that ends b[:hi].
func trimEnd(b []byte, hi int) int {
	t := cut(b, 0, hi)
	for len(t) > 0 && asciiSpace(t[len(t)-1]) {
		t = t[:len(t)-1]
	}
	return len(t)
}

// scanNameAddr mirrors ParseNameAddr for a From, To or Contact value:
// the URI and the tag parameter. ParseNameAddr never reads quotes — it
// takes the first '<' and the first '>' wherever they are and trims
// the display name away — so a quoted display name reads the same as
// a bare one. Only a byte ≥ 0x80 anywhere in the value bails.
//
// One walk reads the value: first as an addr-spec (the URI up to the
// first ';', then its parameters); if a '<' turns up, the URI is
// re-anchored after it and the parameters after the first '>'.
func scanNameAddr(raw, s []byte, u *URISpan, tag *Span) ScanResult {
	*tag = Span{}
	var w uriWalk
	i := w.walk(s, 0, cSemi|cLT)
	uriEnd, seen := i, w.seen
	if byteAt(s, i) == ';' {
		var more uint16
		i, more = params(raw, s, i, cLT, tag)
		seen |= more
	}
	if i >= len(s) {
		if seen&cHigh != 0 {
			return ScanBail
		}
		return w.verdict(raw, s, trimEnd(s, uriEnd), u)
	}
	// A name-addr: its URI runs from the first '<' to the first '>',
	// which must come after it.
	gtBefore := seen&cGT != 0
	j := w.walk(s, i+1, cGT)
	seen |= w.seen
	if j < len(s) {
		_, more := params(raw, s, j+1, 0, tag)
		seen |= more
	}
	if seen&cHigh != 0 {
		return ScanBail
	}
	if gtBefore || j >= len(s) {
		return ScanReject
	}
	return w.verdict(raw, s, trimEnd(s, j), u)
}

// params mirrors parseParams for the one key the packet path reads: it
// walks ";k=v" parts from i to the first byte whose class is in stop
// (or the end) and keeps the value of the last "tag" in *tag, as the
// map assignment keeps the last. It returns where it stopped and the
// classes of the bytes it passed.
func params(raw, b []byte, i int, stop uint16, tag *Span) (int, uint16) {
	*tag = Span{}
	var seen uint16
	for i < len(b) {
		j, more := skipTo(b, i, cSemi|cEq|stop)
		seen |= more
		key, val := cut(b, i, j), []byte(nil)
		if byteAt(b, j) == '=' {
			eq := j
			j, more = skipTo(b, eq+1, cSemi|stop)
			seen |= more
			val = trimASCII(cut(b, eq+1, j))
		}
		if string(trimASCII(key)) == "tag" {
			*tag = spanIn(raw, val)
		}
		if byteAt(b, j) != ';' {
			return j, seen
		}
		i = j + 1
	}
	return i, seen
}

// scanVia mirrors parseViaLine and ParseVia as a pure check: every
// comma-separated entry must be one ParseVia accepts. Quotes and angle
// brackets change where parseViaLine splits, so they bail, wherever
// they are in the value.
func scanVia(value []byte) ScanResult {
	const prefix = "SIP/2.0/"
	for i := 0; ; {
		i = skipSpace(value, i)
		if string(cut(value, i, i+len(prefix))) != prefix {
			return rejectUnless(value, i, cViaBail)
		}
		// The transport runs to the entry's first space (exactly SP).
		j := len(value)
		for n, c := range cut(value, i+len(prefix), len(value)) {
			if byteClass[c]&cViaBail != 0 {
				return ScanBail
			}
			if c == ' ' || c == ',' {
				j = i + len(prefix) + n
				break
			}
		}
		if byteAt(value, j) != ' ' {
			return rejectUnless(value, j, cViaBail)
		}
		// host[:port], trimmed, up to the entry's first ';'.
		h := skipSpace(value, j)
		k, colon := len(value), -1
		for n, c := range cut(value, h, len(value)) {
			cls := byteClass[c]
			if cls == 0 {
				continue
			}
			if cls&cViaBail != 0 {
				return ScanBail
			}
			if cls&(cSemi|cComma) != 0 {
				k = h + n
				break
			}
			if cls == cColon && colon < 0 {
				colon = h + n
			}
		}
		hpEnd := k
		if byteAt(value, k) != ';' {
			hpEnd = trimEnd(value, k)
		}
		if colon >= 0 {
			p, ok := scanDigits(cut(value, colon+1, hpEnd))
			if !ok {
				return ScanBail
			}
			if p <= 0 || p > 65535 {
				return rejectUnless(value, k, cViaBail)
			}
			hpEnd = colon
		}
		if hpEnd <= h {
			return rejectUnless(value, k, cViaBail)
		}
		if byteAt(value, k) == ';' {
			if k, _ = skipTo(value, k, cComma|cViaBail); k < len(value) && byteAt(value, k) != ',' {
				return ScanBail
			}
		}
		if k >= len(value) {
			return ScanOK
		}
		i = k + 1
	}
}

// scanCSeq mirrors parseCSeqBytes on a trimmed value. Parse admits any
// method token in a CSeq; the View names only the known ones, so
// others bail.
func scanCSeq(v *View, value []byte) ScanResult {
	var seq uint64
	i, seqOK := 0, len(value) > 0
	for ; i < len(value) && !asciiSpace(value[i]); i++ {
		c := value[i]
		if c < '0' || c > '9' {
			seqOK = false
		} else if seq = seq*10 + uint64(c-'0'); seq > 1<<32-1 {
			seqOK = false
			seq = 0
		}
	}
	lo := skipSpace(value, i)
	hi := skipField(value, lo)
	if !seqOK || hi == lo || hi < len(value) {
		return ScanReject
	}
	if v.CSeqMethod = methodID(cut(value, lo, hi)); v.CSeqMethod == MethodNone {
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
