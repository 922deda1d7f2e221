package sdp_test

import (
	"bytes"
	"testing"

	"vids/internal/dialog"
	"vids/internal/sdp"
)

// FuzzSDPRoundTrip pins decode → encode → decode stability: whatever
// Parse accepts, Marshal writes a description Parse accepts again with
// the same fields (an empty origin or session name comes back as "-",
// their canonical placeholder), and the canonical form is a fixed
// point. The seeds are the bodies the dialog grammar's calls and
// attack instances offer.
func FuzzSDPRoundTrip(f *testing.F) {
	for _, st := range (dialog.SynthConfig{Calls: 2, RTPPerCall: 1, Attacks: true}).Script() {
		if m, ok := st.Msg.(dialog.SIP); ok && m.SDP != (dialog.SDP{}) {
			f.Add(m.Message().Body)
		}
	}
	f.Add([]byte("v=0\r\nc=IN IP4 h\r\nm=audio 1 RTP/AVP 0 18\r\na=x\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := sdp.Parse(data)
		if err != nil {
			return
		}
		canon := d.Marshal()
		d2, err := sdp.Parse(canon)
		if err != nil {
			t.Fatalf("canonical form of an accepted description was rejected: %v\n%q -> %q", err, data, canon)
		}
		want := *d
		for _, f := range []*string{&want.Origin, &want.SessionName} {
			if *f == "" {
				*f = "-"
			}
		}
		if got := d2.Marshal(); !bytes.Equal(got, canon) || !sameDescription(*d2, want) {
			t.Fatalf("description drifted through the round trip:\n%+v\n-> %q\n-> %+v", d, canon, d2)
		}
	})
}

func sameDescription(a, b sdp.Description) bool {
	if a.Origin != b.Origin || a.SessionName != b.SessionName || a.Address != b.Address ||
		a.SessionID != b.SessionID || a.Version != b.Version ||
		len(a.Media) != len(b.Media) || len(a.Attributes) != len(b.Attributes) {
		return false
	}
	for i := range a.Media {
		if a.Media[i].Port != b.Media[i].Port || len(a.Media[i].Payloads) != len(b.Media[i].Payloads) {
			return false
		}
		for j := range a.Media[i].Payloads {
			if a.Media[i].Payloads[j] != b.Media[i].Payloads[j] {
				return false
			}
		}
	}
	for i := range a.Attributes {
		if a.Attributes[i] != b.Attributes[i] {
			return false
		}
	}
	return true
}
