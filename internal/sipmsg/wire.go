package sipmsg

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

const sipVersion = "SIP/2.0"

// canonicalHeader maps lower-case and compact header names to their
// canonical forms (RFC 3261 §7.3.3 compact forms).
var canonicalHeader = map[string]string{
	"via":              "Via",
	"v":                "Via",
	"from":             "From",
	"f":                "From",
	"to":               "To",
	"t":                "To",
	"call-id":          "Call-ID",
	"i":                "Call-ID",
	"cseq":             "CSeq",
	"contact":          "Contact",
	"m":                "Contact",
	"max-forwards":     "Max-Forwards",
	"content-type":     "Content-Type",
	"c":                "Content-Type",
	"content-length":   "Content-Length",
	"l":                "Content-Length",
	"expires":          "Expires",
	"authorization":    "Authorization",
	"www-authenticate": "WWW-Authenticate",
}

// CanonicalHeaderName normalizes a header field name, resolving
// compact forms; unknown names get simple Title-By-Dash casing.
func CanonicalHeaderName(name string) string {
	if c, ok := canonicalHeader[strings.ToLower(strings.TrimSpace(name))]; ok {
		return c
	}
	parts := strings.Split(strings.TrimSpace(name), "-")
	for i, p := range parts {
		if p == "" {
			continue
		}
		parts[i] = strings.ToUpper(p[:1]) + strings.ToLower(p[1:])
	}
	return strings.Join(parts, "-")
}

// Header identities for the byte-level lookup. hdrOther covers both
// unmodeled known headers (which carry a canonical name) and unknown
// ones (canonicalized on demand).
const (
	hdrOther = iota
	hdrVia
	hdrFrom
	hdrTo
	hdrCallID
	hdrCSeq
	hdrContact
	hdrMaxForwards
	hdrExpires
	hdrContentType
	hdrContentLength
)

var crlfcrlf = []byte("\r\n\r\n")

// Parse parses a SIP message from its wire form in a single pass over
// data: no up-front copy of the input, no header-block split. Field
// values are materialized as independent strings, but Body aliases
// data — callers that reuse or mutate the buffer after Parse must
// copy the body (Clone does).
//
//vids:noalloc per-packet SIP decode; budget alloc_test.go:maxSIPParseAllocs
//vids:nopanic parses untrusted wire input
func Parse(data []byte) (*Message, error) {
	hdr, body, _ := bytes.Cut(data, crlfcrlf)

	line, pos := cutLine(hdr, 0)
	if len(trimASCII(line)) == 0 {
		return nil, fmt.Errorf("sipmsg: empty message") //vids:alloc-ok error path: malformed message aborts parsing
	}
	m := &Message{Expires: -1, MaxForwards: -1} //vids:alloc-ok one message object per packet; budgeted by alloc_test.go:maxSIPParseAllocs
	if err := parseStartLineBytes(m, line); err != nil {
		return nil, err
	}

	// Walk the header block one physical line at a time, unfolding
	// continuation lines (SP/HT-led) into scratch only when they occur.
	contentLength := -1
	var cur []byte     // pending logical header line
	var scratch []byte // reused assembly buffer for folded lines
	haveCur, curFolded := false, false
	for pos <= len(hdr) {
		var ln []byte
		ln, pos = cutLine(hdr, pos)
		if len(ln) == 0 {
			continue
		}
		if (ln[0] == ' ' || ln[0] == '\t') && haveCur {
			if !curFolded {
				scratch = append(scratch[:0], cur...) //vids:alloc-ok a folded header line (obsolete line folding, RFC 3261 §7.3.1) grows scratch from nil once per message
				curFolded = true
			}
			scratch = append(append(scratch, ' '), trimASCII(ln)...) //vids:alloc-ok each continuation of a folded header line may grow scratch
			cur = scratch
			continue
		}
		if haveCur {
			if err := m.parseHeaderLine(cur, &contentLength); err != nil {
				return nil, err
			}
		}
		cur, haveCur, curFolded = ln, true, false
	}
	if haveCur {
		if err := m.parseHeaderLine(cur, &contentLength); err != nil {
			return nil, err
		}
	}

	if m.MaxForwards < 0 {
		m.MaxForwards = 70
	}
	if contentLength >= 0 {
		if contentLength > len(body) {
			return nil, fmt.Errorf("sipmsg: Content-Length %d exceeds body size %d", //vids:alloc-ok error path: malformed message aborts parsing
				contentLength, len(body))
		}
		body = body[:contentLength]
	}
	if len(body) > 0 {
		m.Body = body
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// cutLine returns the line starting at pos (terminated by CRLF or end
// of b) and the position after its terminator. Positions past len(b)
// mean the input is exhausted; a final CRLF yields one trailing empty
// line, matching a CRLF string split.
func cutLine(b []byte, pos int) ([]byte, int) {
	if pos < 0 || pos > len(b) {
		return nil, len(b) + 1
	}
	rest := b[pos:]
	i := bytes.IndexByte(rest, '\r')
	if i < 0 || i >= len(rest) {
		return rest, len(b) + 1
	}
	if i+1 < len(rest) && rest[i+1] == '\n' {
		return rest[:i], pos + i + 2
	}
	// The first CR is a bare one (no serializer emits that): look for
	// the CRLF pair byte by byte.
	for i := 1; i < len(rest); i++ {
		if rest[i-1] == '\r' && rest[i] == '\n' {
			return rest[:i-1], pos + i + 1
		}
	}
	return rest, len(b) + 1
}

// parseHeaderLine dispatches one logical (unfolded) header line.
//
//vids:alloc-ok materializes the retained header values; bounded by alloc_test.go:maxSIPParseAllocs
func (m *Message) parseHeaderLine(ln []byte, contentLength *int) error {
	colon := bytes.IndexByte(ln, ':')
	if colon < 0 || colon >= len(ln) {
		return fmt.Errorf("sipmsg: malformed header line %q", ln)
	}
	name := trimASCII(ln[:colon])
	value := trimASCII(ln[colon+1:])
	id, canon := lookupHeader(name)
	switch id {
	case hdrVia:
		return m.parseViaLine(value)
	case hdrFrom:
		na, err := ParseNameAddr(string(value))
		if err != nil {
			return fmt.Errorf("sipmsg: From: %w", err)
		}
		m.From = na
	case hdrTo:
		na, err := ParseNameAddr(string(value))
		if err != nil {
			return fmt.Errorf("sipmsg: To: %w", err)
		}
		m.To = na
	case hdrCallID:
		m.CallID = string(value)
	case hdrCSeq:
		cs, err := parseCSeqBytes(value)
		if err != nil {
			return err
		}
		m.CSeq = cs
	case hdrContact:
		na, err := ParseNameAddr(string(value))
		if err != nil {
			return fmt.Errorf("sipmsg: Contact: %w", err)
		}
		m.Contact = &na
	case hdrMaxForwards:
		n, err := atoiBytes(value)
		if err != nil || n < 0 {
			return fmt.Errorf("sipmsg: bad Max-Forwards %q", value)
		}
		m.MaxForwards = n
	case hdrExpires:
		n, err := atoiBytes(value)
		if err != nil || n < 0 {
			return fmt.Errorf("sipmsg: bad Expires %q", value)
		}
		m.Expires = n
	case hdrContentType:
		m.ContentType = string(value)
	case hdrContentLength:
		n, err := atoiBytes(value)
		if err != nil || n < 0 {
			return fmt.Errorf("sipmsg: bad Content-Length %q", value)
		}
		*contentLength = n
	default:
		if canon == "" {
			canon = canonicalizeBytes(name)
		}
		if m.Other == nil {
			m.Other = make(map[string][]string)
		}
		m.Other[canon] = append(m.Other[canon], string(value)) //vids:panic-ok the nil check above makes m.Other before this first write
	}
	return nil
}

// parseViaLine splits a Via value on top-level commas (outside quotes
// and angle brackets) and appends each entry.
//
//vids:alloc-ok Via entries are materialized per header; bounded by maxSIPParseAllocs
func (m *Message) parseViaLine(value []byte) error {
	start, depth := 0, 0
	inQuote := false
	for i := range len(value) + 1 {
		if i < len(value) {
			c := value[i]
			if c == '"' {
				inQuote = !inQuote
				continue
			}
			if inQuote {
				continue
			}
			if c == '<' {
				depth++
				continue
			}
			if c == '>' {
				if depth > 0 {
					depth--
				}
				continue
			}
			if c != ',' || depth != 0 {
				continue
			}
		}
		v, err := ParseVia(string(trimASCII(value[start:i]))) //vids:panic-ok start is 0 or i+1 for an earlier loop index, so 0 ≤ start ≤ i ≤ len(value)
		if err != nil {
			return err
		}
		m.Via = append(m.Via, v)
		start = i + 1
	}
	return nil
}

//vids:alloc-ok URI/status materialization plus malformed-line error paths; bounded by maxSIPParseAllocs
func parseStartLineBytes(m *Message, line []byte) error {
	line = trimASCII(line)
	if len(line) > len(sipVersion) &&
		string(line[:len(sipVersion)]) == sipVersion && line[len(sipVersion)] == ' ' {
		// Status line: SIP/2.0 200 OK
		rest := line[len(sipVersion)+1:]
		codePart := rest
		var reason []byte
		if sp := bytes.IndexByte(rest, ' '); sp >= 0 && sp < len(rest) {
			codePart, reason = rest[:sp], rest[sp+1:]
		}
		code, err := atoiBytes(codePart)
		if err != nil || code < 100 || code > 699 {
			return fmt.Errorf("sipmsg: bad status line %q", line)
		}
		m.StatusCode = code
		m.Reason = string(reason)
		return nil
	}
	// Request line: INVITE sip:bob@b.com SIP/2.0
	var fields [3][]byte
	n := uint(0)
	rest := line
	for len(rest) > 0 {
		for len(rest) > 0 && asciiSpace(rest[0]) {
			rest = rest[1:]
		}
		if len(rest) == 0 {
			break
		}
		j := uint(0)
		for j < uint(len(rest)) && !asciiSpace(rest[j]) {
			j++
		}
		if n >= uint(len(fields)) {
			return fmt.Errorf("sipmsg: bad request line %q", line)
		}
		if j < uint(len(rest)) {
			fields[n] = rest[:j]
			rest = rest[j:]
		} else {
			fields[n] = rest
			rest = rest[:0]
		}
		n++
	}
	if n != 3 || string(fields[2]) != sipVersion {
		return fmt.Errorf("sipmsg: bad request line %q", line)
	}
	uri, err := ParseURI(string(fields[1]))
	if err != nil {
		return err
	}
	m.Method = internMethod(fields[0])
	m.RequestURI = uri
	return nil
}

// parseCSeqBytes parses a CSeq value ("314159 INVITE") without
// intermediate strings; known methods are interned.
//
//vids:alloc-ok allocates only for malformed CSeq lines, which abort the packet
func parseCSeqBytes(b []byte) (CSeq, error) {
	var f0, f1 []byte
	n := 0
	rest := b
	for len(rest) > 0 {
		for len(rest) > 0 && asciiSpace(rest[0]) {
			rest = rest[1:]
		}
		if len(rest) == 0 {
			break
		}
		j := uint(0)
		for j < uint(len(rest)) && !asciiSpace(rest[j]) {
			j++
		}
		field := rest
		if j < uint(len(rest)) {
			field, rest = rest[:j], rest[j:]
		} else {
			rest = rest[:0]
		}
		switch n {
		case 0:
			f0 = field
		case 1:
			f1 = field
		default:
			return CSeq{}, fmt.Errorf("sipmsg: CSeq %q: want <seq> <method>", b)
		}
		n++
	}
	if n != 2 {
		return CSeq{}, fmt.Errorf("sipmsg: CSeq %q: want <seq> <method>", b)
	}
	var seq uint64
	for _, c := range f0 {
		if c < '0' || c > '9' {
			return CSeq{}, fmt.Errorf("sipmsg: CSeq %q: bad sequence number", b)
		}
		seq = seq*10 + uint64(c-'0')
		if seq > 1<<32-1 {
			return CSeq{}, fmt.Errorf("sipmsg: CSeq %q: bad sequence number", b)
		}
	}
	return CSeq{Seq: uint32(seq), Method: internMethod(f1)}, nil
}

// internMethod returns the shared constant for known methods so the
// hot path never allocates a method string.
//
//vids:alloc-ok unknown methods only; the static table covers every RFC 3261 method
func internMethod(b []byte) Method {
	for _, k := range KnownMethods {
		if string(b) == string(k) {
			return k
		}
	}
	return Method(b)
}

// lookupHeader resolves a header name (case-insensitively, including
// compact forms) without allocating. For known-but-unmodeled headers
// it returns hdrOther with the canonical name; for unknown ones the
// canonical name is empty and computed by the caller.
func lookupHeader(name []byte) (int, string) {
	switch len(name) {
	case 1:
		switch lowerByte(name[0]) {
		case 'v':
			return hdrVia, "Via"
		case 'f':
			return hdrFrom, "From"
		case 't':
			return hdrTo, "To"
		case 'i':
			return hdrCallID, "Call-ID"
		case 'm':
			return hdrContact, "Contact"
		case 'c':
			return hdrContentType, "Content-Type"
		case 'l':
			return hdrContentLength, "Content-Length"
		}
	case 2:
		if foldEq(name, "to") {
			return hdrTo, "To"
		}
	case 3:
		if foldEq(name, "via") {
			return hdrVia, "Via"
		}
	case 4:
		if foldEq(name, "from") {
			return hdrFrom, "From"
		}
		if foldEq(name, "cseq") {
			return hdrCSeq, "CSeq"
		}
	case 7:
		if foldEq(name, "call-id") {
			return hdrCallID, "Call-ID"
		}
		if foldEq(name, "contact") {
			return hdrContact, "Contact"
		}
		if foldEq(name, "expires") {
			return hdrExpires, "Expires"
		}
	case 12:
		if foldEq(name, "content-type") {
			return hdrContentType, "Content-Type"
		}
		if foldEq(name, "max-forwards") {
			return hdrMaxForwards, "Max-Forwards"
		}
	case 13:
		if foldEq(name, "authorization") {
			return hdrOther, "Authorization"
		}
	case 14:
		if foldEq(name, "content-length") {
			return hdrContentLength, "Content-Length"
		}
	case 16:
		if foldEq(name, "www-authenticate") {
			return hdrOther, "WWW-Authenticate"
		}
	}
	return hdrOther, ""
}

// canonicalizeBytes Title-By-Dash-cases an unknown header name,
// mirroring CanonicalHeaderName's fallback for ASCII names.
//
//vids:alloc-ok unknown header names only; known headers hit the static table
func canonicalizeBytes(name []byte) string {
	out := make([]byte, 0, len(name))
	up := true
	for _, c := range name {
		switch {
		case c == '-':
			out = append(out, c)
			up = true
		case up:
			out = append(out, upperByte(c))
			up = false
		default:
			out = append(out, lowerByte(c))
		}
	}
	return string(out)
}

// atoiBytes is strconv.Atoi for byte slices: optional sign, decimal
// digits, error on anything else or overflow.
//
//vids:alloc-ok allocates only for malformed digits, which abort the packet
func atoiBytes(b []byte) (int, error) {
	i, neg := 0, false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		i = 1
	}
	if i == len(b) {
		return 0, fmt.Errorf("sipmsg: bad number %q", b)
	}
	n := 0
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("sipmsg: bad number %q", b)
		}
		if n > (1<<62)/10 {
			return 0, fmt.Errorf("sipmsg: number %q overflows", b)
		}
		n = n*10 + int(c-'0')
		if n < 0 {
			return 0, fmt.Errorf("sipmsg: number %q overflows", b)
		}
	}
	if neg {
		n = -n
	}
	return n, nil
}

func trimASCII(b []byte) []byte {
	for len(b) > 0 && asciiSpace(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && asciiSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

// asciiSpace reports ASCII white space: SP, or one of HT LF VT FF CR,
// which are the five consecutive bytes 9..13.
func asciiSpace(c byte) bool { return c == ' ' || c-'\t' < 5 }

func lowerByte(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}

func upperByte(c byte) byte {
	if c >= 'a' && c <= 'z' {
		return c - ('a' - 'A')
	}
	return c
}

// foldEq reports whether b equals the (lower-case) name s under ASCII
// case folding.
func foldEq(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if lowerByte(b[i]) != s[i] {
			return false
		}
	}
	return true
}

// Bytes serializes the message to its wire form with a correct
// Content-Length.
func (m *Message) Bytes() []byte {
	var b strings.Builder
	if m.IsRequest() {
		b.WriteString(string(m.Method))
		b.WriteByte(' ')
		b.WriteString(m.RequestURI.String())
		b.WriteByte(' ')
		b.WriteString(sipVersion)
	} else {
		b.WriteString(sipVersion)
		b.WriteByte(' ')
		b.WriteString(strconv.Itoa(m.StatusCode))
		b.WriteByte(' ')
		reason := m.Reason
		if reason == "" {
			reason = ReasonPhrase(m.StatusCode)
		}
		b.WriteString(reason)
	}
	b.WriteString("\r\n")

	for _, v := range m.Via {
		writeHeader(&b, "Via", v.String())
	}
	writeHeader(&b, "From", m.From.String())
	writeHeader(&b, "To", m.To.String())
	writeHeader(&b, "Call-ID", m.CallID)
	writeHeader(&b, "CSeq", m.CSeq.String())
	if m.Contact != nil {
		writeHeader(&b, "Contact", m.Contact.String())
	}
	if m.IsRequest() {
		mf := m.MaxForwards
		if mf < 0 {
			mf = 70
		}
		writeHeader(&b, "Max-Forwards", strconv.Itoa(mf))
	}
	if m.Expires >= 0 {
		writeHeader(&b, "Expires", strconv.Itoa(m.Expires))
	}
	if m.ContentType != "" {
		writeHeader(&b, "Content-Type", m.ContentType)
	}

	if m.Other != nil {
		names := make([]string, 0, len(m.Other))
		for name := range m.Other {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			for _, v := range m.Other[name] {
				writeHeader(&b, name, v)
			}
		}
	}

	writeHeader(&b, "Content-Length", strconv.Itoa(len(m.Body)))
	b.WriteString("\r\n")
	b.Write(m.Body)
	return []byte(b.String())
}

func writeHeader(b *strings.Builder, name, value string) {
	b.WriteString(name)
	b.WriteString(": ")
	b.WriteString(value)
	b.WriteString("\r\n")
}

// WireSize returns the serialized size in bytes. The paper assumes an
// average SIP message size of 500 bytes (Section 7.1); the simulator
// uses real serialized sizes, which land in the same range.
func (m *Message) WireSize() int { return len(m.Bytes()) }
