package sipmsg

import (
	"fmt"
	"strconv"
	"strings"
)

// Method is a SIP request method.
type Method string

// The six RFC 3261 core methods (paper Section 2.1).
const (
	INVITE   Method = "INVITE"
	ACK      Method = "ACK"
	BYE      Method = "BYE"
	CANCEL   Method = "CANCEL"
	REGISTER Method = "REGISTER"
	OPTIONS  Method = "OPTIONS"
)

// KnownMethods lists every method this implementation accepts.
var KnownMethods = []Method{INVITE, ACK, BYE, CANCEL, REGISTER, OPTIONS}

// IsKnownMethod reports whether m is one of the six core methods.
func IsKnownMethod(m Method) bool {
	for _, k := range KnownMethods {
		if m == k {
			return true
		}
	}
	return false
}

// Common response status codes used by the testbed.
const (
	StatusTrying            = 100
	StatusRinging           = 180
	StatusOK                = 200
	StatusBadRequest        = 400
	StatusUnauthorized      = 401
	StatusNotFound          = 404
	StatusRequestTimeout    = 408
	StatusTemporarilyUnavbl = 480
	StatusCallDoesNotExist  = 481
	StatusBusyHere          = 486
	StatusRequestTerminated = 487
	StatusServerError       = 500
	StatusServiceUnavbl     = 503
	StatusDeclined          = 603
)

// ReasonPhrase returns the canonical reason phrase for a status code.
func ReasonPhrase(code int) string {
	switch code {
	case StatusTrying:
		return "Trying"
	case StatusRinging:
		return "Ringing"
	case StatusOK:
		return "OK"
	case StatusBadRequest:
		return "Bad Request"
	case StatusUnauthorized:
		return "Unauthorized"
	case StatusNotFound:
		return "Not Found"
	case StatusRequestTimeout:
		return "Request Timeout"
	case StatusTemporarilyUnavbl:
		return "Temporarily Unavailable"
	case StatusCallDoesNotExist:
		return "Call/Transaction Does Not Exist"
	case StatusBusyHere:
		return "Busy Here"
	case StatusRequestTerminated:
		return "Request Terminated"
	case StatusServerError:
		return "Server Internal Error"
	case StatusServiceUnavbl:
		return "Service Unavailable"
	case StatusDeclined:
		return "Decline"
	default:
		return "Unknown"
	}
}

// Via is one Via header entry. The branch parameter identifies the
// transaction (RFC 3261 §8.1.1.7).
type Via struct {
	Transport string // "UDP"
	Host      string
	Port      int
	Params    map[string]string // branch=..., received=...
}

// Branch returns the branch parameter.
func (v Via) Branch() string { return v.Params["branch"] }

// String renders the Via value.
func (v Via) String() string {
	var b strings.Builder
	b.WriteString("SIP/2.0/")
	b.WriteString(v.Transport)
	b.WriteByte(' ')
	b.WriteString(v.Host)
	if v.Port != 0 {
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(v.Port))
	}
	writeParams(&b, v.Params)
	return b.String()
}

// ParseVia parses a Via header value.
//
//vids:alloc-ok params map and error paths are per-Via-header; bounded by maxSIPParseAllocs
//vids:nopanic parses untrusted wire input
func ParseVia(s string) (Via, error) {
	s = strings.TrimSpace(s)
	rest, ok := strings.CutPrefix(s, "SIP/2.0/")
	if !ok {
		return Via{}, fmt.Errorf("sipmsg: Via %q: missing SIP/2.0/ prefix", s)
	}
	sp := strings.IndexByte(rest, ' ')
	if sp < 0 || sp >= len(rest) {
		return Via{}, fmt.Errorf("sipmsg: Via %q: missing sent-by", s)
	}
	v := Via{Transport: rest[:sp]}
	rest = strings.TrimSpace(rest[sp+1:])
	hostPort := rest
	if i := strings.IndexByte(rest, ';'); i >= 0 && i < len(rest) {
		hostPort = rest[:i]
		v.Params = parseParams(rest[i:])
	} else {
		v.Params = make(map[string]string)
	}
	if c := strings.IndexByte(hostPort, ':'); c >= 0 && c < len(hostPort) {
		port, err := strconv.Atoi(hostPort[c+1:])
		if err != nil || port <= 0 || port > 65535 {
			return Via{}, fmt.Errorf("sipmsg: Via %q: bad port", s)
		}
		v.Port = port
		hostPort = hostPort[:c]
	}
	if hostPort == "" {
		return Via{}, fmt.Errorf("sipmsg: Via %q: empty host", s)
	}
	v.Host = hostPort
	return v, nil
}

// CSeq is the CSeq header value: sequence number plus method.
type CSeq struct {
	Seq    uint32
	Method Method
}

// String renders "1 INVITE".
func (c CSeq) String() string {
	return strconv.FormatUint(uint64(c.Seq), 10) + " " + string(c.Method)
}

// ParseCSeq parses a CSeq header value.
//
//vids:nopanic parses untrusted wire input
func ParseCSeq(s string) (CSeq, error) {
	fields := strings.Fields(s)
	if len(fields) != 2 {
		return CSeq{}, fmt.Errorf("sipmsg: CSeq %q: want <seq> <method>", s)
	}
	n, err := strconv.ParseUint(fields[0], 10, 32)
	if err != nil {
		return CSeq{}, fmt.Errorf("sipmsg: CSeq %q: bad sequence number", s)
	}
	return CSeq{Seq: uint32(n), Method: Method(fields[1])}, nil
}

// Message is a SIP request or response.
//
// A request has Method and RequestURI set; a response has StatusCode
// and Reason set. Both share the header fields and body.
type Message struct {
	// Request fields.
	Method     Method
	RequestURI URI

	// Response fields.
	StatusCode int
	Reason     string

	// Mandatory headers (RFC 3261 §8.1.1).
	Via         []Via
	From        NameAddr
	To          NameAddr
	CallID      string
	CSeq        CSeq
	Contact     *NameAddr
	MaxForwards int
	Expires     int // -1 means absent

	ContentType string
	Body        []byte

	// Other carries headers this package does not model explicitly,
	// preserved for round-tripping (canonical-cased name -> values).
	Other map[string][]string
}

// IsRequest reports whether m is a request.
func (m *Message) IsRequest() bool { return m.Method != "" }

// IsResponse reports whether m is a response.
func (m *Message) IsResponse() bool { return m.StatusCode != 0 }

// IsProvisional reports a 1xx response.
func (m *Message) IsProvisional() bool {
	return m.StatusCode >= 100 && m.StatusCode < 200
}

// IsSuccess reports a 2xx response.
func (m *Message) IsSuccess() bool {
	return m.StatusCode >= 200 && m.StatusCode < 300
}

// IsFinal reports a final (>= 200) response.
func (m *Message) IsFinal() bool { return m.StatusCode >= 200 }

// TopVia returns the first Via entry, or a zero Via if none.
func (m *Message) TopVia() Via {
	if len(m.Via) == 0 {
		return Via{}
	}
	return m.Via[0]
}

// Branch returns the top Via branch: the RFC 3261 transaction key.
func (m *Message) Branch() string { return m.TopVia().Branch() }

// DialogID returns the (Call-ID, local tag, remote tag) triple that
// identifies a dialog, from the perspective of the UA that sent From.
func (m *Message) DialogID() string {
	return m.CallID + "|" + m.From.Tag() + "|" + m.To.Tag()
}

// TransactionKey identifies the transaction a message belongs to:
// top Via branch plus CSeq method (CANCEL/ACK share the INVITE branch
// but are distinct server transactions, RFC 3261 §17.2.3).
func (m *Message) TransactionKey() string {
	method := m.CSeq.Method
	if method == ACK {
		// ACK for a non-2xx response belongs to the INVITE
		// transaction it acknowledges.
		method = INVITE
	}
	return m.Branch() + "|" + string(method)
}

// Clone returns a deep copy of the message.
func (m *Message) Clone() *Message {
	cp := *m
	cp.Via = make([]Via, len(m.Via))
	for i, v := range m.Via {
		cp.Via[i] = v
		cp.Via[i].Params = cloneMap(v.Params)
	}
	cp.From.Params = cloneMap(m.From.Params)
	cp.To.Params = cloneMap(m.To.Params)
	if m.Contact != nil {
		c := *m.Contact
		c.Params = cloneMap(m.Contact.Params)
		cp.Contact = &c
	}
	if m.Body != nil {
		cp.Body = append([]byte(nil), m.Body...)
	}
	if m.Other != nil {
		cp.Other = make(map[string][]string, len(m.Other))
		for k, vs := range m.Other {
			cp.Other[k] = append([]string(nil), vs...)
		}
	}
	return &cp
}

func cloneMap(m map[string]string) map[string]string {
	if m == nil {
		return nil
	}
	cp := make(map[string]string, len(m))
	for k, v := range m {
		cp[k] = v
	}
	return cp
}

// NewRequest builds a request with sane defaults (Max-Forwards 70,
// Expires absent).
func NewRequest(method Method, requestURI URI) *Message {
	return &Message{
		Method:      method,
		RequestURI:  requestURI,
		MaxForwards: 70,
		Expires:     -1,
	}
}

// NewResponse builds a response to req with the given status code,
// copying the header fields a UAS must mirror (RFC 3261 §8.2.6.2):
// Via, From, To, Call-ID, CSeq.
func NewResponse(req *Message, code int) *Message {
	resp := &Message{
		StatusCode: code,
		Reason:     ReasonPhrase(code),
		CallID:     req.CallID,
		CSeq:       req.CSeq,
		Expires:    -1,
	}
	resp.Via = make([]Via, len(req.Via))
	for i, v := range req.Via {
		resp.Via[i] = v
		resp.Via[i].Params = cloneMap(v.Params)
	}
	resp.From = req.From
	resp.From.Params = cloneMap(req.From.Params)
	resp.To = req.To
	resp.To.Params = cloneMap(req.To.Params)
	return resp
}

// Validate checks the invariants the rest of the stack relies on.
//
//vids:alloc-ok allocates only for protocol violations, which abort the packet
func (m *Message) Validate() error {
	switch {
	case m.IsRequest() && m.IsResponse():
		return fmt.Errorf("sipmsg: message is both request and response")
	case !m.IsRequest() && !m.IsResponse():
		return fmt.Errorf("sipmsg: message is neither request nor response")
	}
	if m.IsRequest() {
		if !IsKnownMethod(m.Method) {
			return fmt.Errorf("sipmsg: unknown method %q", m.Method)
		}
		if m.RequestURI.Host == "" {
			return fmt.Errorf("sipmsg: request without Request-URI host")
		}
	} else if m.StatusCode < 100 || m.StatusCode > 699 {
		return fmt.Errorf("sipmsg: status code %d out of range", m.StatusCode)
	}
	if m.CallID == "" {
		return fmt.Errorf("sipmsg: missing Call-ID")
	}
	if m.CSeq.Method == "" {
		return fmt.Errorf("sipmsg: missing CSeq method")
	}
	if len(m.Via) == 0 {
		return fmt.Errorf("sipmsg: missing Via")
	}
	if m.From.URI.Host == "" {
		return fmt.Errorf("sipmsg: missing From URI")
	}
	if m.To.URI.Host == "" {
		return fmt.Errorf("sipmsg: missing To URI")
	}
	return nil
}

// Summary renders a one-line description for logs and alerts.
func (m *Message) Summary() string {
	if m.IsRequest() {
		return fmt.Sprintf("%s %s (Call-ID %s)", m.Method, m.RequestURI, m.CallID)
	}
	return fmt.Sprintf("%d %s for %s (Call-ID %s)", m.StatusCode, m.Reason, m.CSeq.Method, m.CallID)
}
