// Package sipmsg models SIP messages: the subset of RFC 3261 that the
// paper's testbed and the vids detectors need. It covers the six core
// methods (INVITE, ACK, BYE, CANCEL, REGISTER, OPTIONS), response
// status lines, the mandatory header fields (Via with branch, From/To
// with tags, Call-ID, CSeq, Contact, Max-Forwards, Content-Type,
// Content-Length, Expires), and message bodies (SDP). Parsing and
// serialization round-trip.
package sipmsg

import (
	"fmt"
	"strconv"
	"strings"
)

// URI is a SIP URI of the form sip:user@host[:port].
type URI struct {
	User string
	Host string
	Port int // 0 means unspecified (default 5060)
}

// ParseURI parses "sip:user@host:port" and friends. The scheme must be
// "sip" (sips is out of scope: the testbed runs plain UDP).
//
//vids:alloc-ok materializes URI fields; bounded by maxSIPParseAllocs
//vids:nopanic parses untrusted wire input
func ParseURI(s string) (URI, error) {
	s = strings.TrimSpace(s)
	// Strip enclosing angle brackets if present.
	if len(s) >= 2 && s[0] == '<' && s[len(s)-1] == '>' {
		s = s[1 : len(s)-1]
	}
	rest, ok := strings.CutPrefix(s, "sip:")
	if !ok {
		return URI{}, fmt.Errorf("sipmsg: URI %q: missing sip: scheme", s)
	}
	// Drop URI parameters and headers.
	if i := strings.IndexAny(rest, ";?"); i >= 0 {
		rest = rest[:i]
	}
	var u URI
	if at := strings.IndexByte(rest, '@'); at >= 0 {
		u.User = rest[:at]
		rest = rest[at+1:]
	}
	if rest == "" {
		return URI{}, fmt.Errorf("sipmsg: URI %q: empty host", s)
	}
	if c := strings.IndexByte(rest, ':'); c >= 0 {
		port, err := strconv.Atoi(rest[c+1:])
		if err != nil || port <= 0 || port > 65535 {
			return URI{}, fmt.Errorf("sipmsg: URI %q: bad port", s)
		}
		u.Port = port
		rest = rest[:c]
	}
	if rest == "" {
		return URI{}, fmt.Errorf("sipmsg: URI %q: empty host", s)
	}
	// Reject user/host parts that can never round-trip through the
	// canonical rendering: angle brackets terminate the name-addr
	// <...> wrapper early, an '@' in the host re-splits at the wrong
	// separator, and whitespace or control bytes are eaten by the
	// re-parse trim.
	if !uriPartOK(u.User, false) || !uriPartOK(rest, true) {
		return URI{}, fmt.Errorf("sipmsg: URI %q: reserved byte in user or host", s)
	}
	u.Host = rest
	return u, nil
}

// uriPartOK reports whether a user or host part survives the
// serialize/re-parse cycle: no whitespace, control bytes or angle
// brackets, and no '@' inside a host.
func uriPartOK(s string, host bool) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c <= ' ' || c == 0x7f || c == '<' || c == '>' {
			return false
		}
		if host && c == '@' {
			return false
		}
	}
	return true
}

// String renders the URI in canonical sip: form; the packet path
// renders keys with ids.AppendURI instead.
func (u URI) String() string {
	var b strings.Builder
	b.WriteString("sip:")
	if u.User != "" {
		b.WriteString(u.User)
		b.WriteByte('@')
	}
	b.WriteString(u.Host)
	if u.Port != 0 {
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(u.Port))
	}
	return b.String()
}

// EffectivePort returns the port, defaulting to 5060.
func (u URI) EffectivePort() int {
	if u.Port == 0 {
		return 5060
	}
	return u.Port
}

// NameAddr is a display-name + URI + parameters construct used by
// From, To and Contact header fields.
type NameAddr struct {
	Display string
	URI     URI
	Params  map[string]string // e.g. tag=...
}

// Tag returns the tag parameter ("" if absent).
func (n NameAddr) Tag() string { return n.Params["tag"] }

// WithTag returns a copy with the tag parameter set.
func (n NameAddr) WithTag(tag string) NameAddr {
	cp := n
	cp.Params = make(map[string]string, len(n.Params)+1)
	for k, v := range n.Params {
		cp.Params[k] = v
	}
	cp.Params["tag"] = tag
	return cp
}

// ParseNameAddr parses `"Alice" <sip:alice@a.com>;tag=xyz` or the
// addr-spec short form `sip:alice@a.com;tag=xyz`.
//
//vids:alloc-ok materializes name-addr fields; bounded by maxSIPParseAllocs
//vids:nopanic parses untrusted wire input
func ParseNameAddr(s string) (NameAddr, error) {
	s = strings.TrimSpace(s)
	var na NameAddr
	rest := s

	if i := strings.IndexByte(s, '<'); i >= 0 {
		j := strings.IndexByte(s, '>')
		// j == i is impossible (one byte cannot be both brackets), so
		// <= is equivalent to < and gives the gate i < j directly.
		if j <= i {
			return na, fmt.Errorf("sipmsg: name-addr %q: unbalanced angle brackets", s)
		}
		na.Display = strings.Trim(strings.TrimSpace(s[:i]), `"`)
		uri, err := ParseURI(s[i+1 : j])
		if err != nil {
			return na, err
		}
		na.URI = uri
		rest = s[j+1:]
	} else {
		// addr-spec form: params after the first ';' belong to the
		// header field, not the URI.
		uriPart := s
		if k := strings.IndexByte(s, ';'); k >= 0 {
			uriPart = s[:k]
			rest = s[k:]
		} else {
			rest = ""
		}
		uri, err := ParseURI(uriPart)
		if err != nil {
			return na, err
		}
		na.URI = uri
	}

	na.Params = parseParams(rest)
	return na, nil
}

// parseParams parses ";k=v;k2=v2" fragments into a map. Bare
// parameters (";lr") map to "". Segments are walked in place rather
// than split into a slice, keeping the per-header cost to the map
// itself.
//
//vids:alloc-ok params map per name-addr header; bounded by maxSIPParseAllocs
func parseParams(s string) map[string]string {
	params := make(map[string]string)
	rest := s
	for rest != "" {
		var part string
		if i := strings.IndexByte(rest, ';'); i >= 0 {
			part, rest = rest[:i], rest[i+1:]
		} else {
			part, rest = rest, ""
		}
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if eq := strings.IndexByte(part, '='); eq >= 0 {
			params[strings.TrimSpace(part[:eq])] = strings.TrimSpace(part[eq+1:])
		} else {
			params[part] = ""
		}
	}
	return params
}

// String renders the name-addr with sorted parameters for stable
// round-tripping.
func (n NameAddr) String() string {
	var b strings.Builder
	if n.Display != "" {
		b.WriteByte('"')
		b.WriteString(n.Display)
		b.WriteString(`" `)
	}
	b.WriteByte('<')
	b.WriteString(n.URI.String())
	b.WriteByte('>')
	writeParams(&b, n.Params)
	return b.String()
}

func writeParams(b *strings.Builder, params map[string]string) {
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sortStrings(keys)
	for _, k := range keys {
		b.WriteByte(';')
		b.WriteString(k)
		if v := params[k]; v != "" {
			b.WriteByte('=')
			b.WriteString(v)
		}
	}
}

// sortStrings is a tiny insertion sort; parameter lists have at most a
// handful of entries and this avoids importing sort into the hot path.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
