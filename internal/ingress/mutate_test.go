package ingress

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"vids/internal/dialog"
	"vids/internal/engine"
	"vids/internal/ids"
	"vids/internal/scenario"
	"vids/internal/sipmsg"
	"vids/internal/trace"
)

// The differential sequence mutator: seeded edits of the dialog
// grammar's step scripts — the paper's benign calls and cross-protocol
// attack instances (§3) and the coverage witnesses — replayed through
// the sequential interpreted IDS (the reference) and through the lane
// path at lanes {1, 2, 4} with the compiled backend and the fast path
// on. The alert multisets must be equal; a divergence is shrunk by
// greedy step deletion and printed as a replayable JSONL trace.

// mutation edits a copy of s at positions drawn from r and names what
// it did, or returns ok=false when s offers the edit no site.
type mutation func(r *rand.Rand, s dialog.Script) (out dialog.Script, what string, ok bool)

var mutations = []mutation{
	// drop loses one datagram.
	func(r *rand.Rand, s dialog.Script) (dialog.Script, string, bool) {
		i := r.Intn(len(s))
		return append(append(dialog.Script{}, s[:i]...), s[i+1:]...), fmt.Sprintf("drop %d", i), true
	},
	// duplicate delivers one datagram twice at the same instant.
	func(r *rand.Rand, s dialog.Script) (dialog.Script, string, bool) {
		i := r.Intn(len(s))
		out := append(append(dialog.Script{}, s[:i+1]...), s[i:]...)
		return out, fmt.Sprintf("duplicate %d", i), true
	},
	// swap reorders two neighbours, each keeping its slot's time.
	func(r *rand.Rand, s dialog.Script) (dialog.Script, string, bool) {
		if len(s) < 2 {
			return nil, "", false
		}
		i := r.Intn(len(s) - 1)
		out := append(dialog.Script{}, s...)
		out[i], out[i+1] = out[i+1], out[i]
		out[i].At, out[i+1].At = s[i].At, s[i+1].At
		return out, fmt.Sprintf("swap %d,%d", i, i+1), true
	},
	// Cross-wiring moves one datagram into another instance's dialog
	// or stream: its Call-ID, its From tag, or its SSRC.
	crossWire("call-id", func(m *dialog.SIP, o dialog.SIP) { m.CallID = o.CallID }),
	crossWire("from-tag", func(m *dialog.SIP, o dialog.SIP) { m.FromTag = o.FromTag }),
	crossSSRC,
	// byeBeforeRTP races a BYE ahead of the last RTP packet before it.
	func(r *rand.Rand, s dialog.Script) (dialog.Script, string, bool) {
		var byes []int
		for i, st := range s {
			if m, ok := st.Msg.(dialog.SIP); ok && m.Method == sipmsg.BYE && m.Status == 0 {
				byes = append(byes, i)
			}
		}
		if len(byes) == 0 {
			return nil, "", false
		}
		b := byes[r.Intn(len(byes))]
		for k := b - 1; k >= 0; k-- {
			if _, ok := s[k].Msg.(dialog.RTP); ok {
				out := append(dialog.Script{}, s[:k]...)
				bye := s[b]
				bye.At = s[k].At
				out = append(append(out, bye), s[k:b]...)
				return append(out, s[b+1:]...), fmt.Sprintf("bye %d before rtp %d", b, k), true
			}
		}
		return nil, "", false
	},
}

// crossWire rewrites one SIP step with a field of a SIP step from a
// different dialog.
func crossWire(field string, set func(m *dialog.SIP, other dialog.SIP)) mutation {
	return func(r *rand.Rand, s dialog.Script) (dialog.Script, string, bool) {
		var sips []int
		for i, st := range s {
			if _, ok := st.Msg.(dialog.SIP); ok {
				sips = append(sips, i)
			}
		}
		if len(sips) < 2 {
			return nil, "", false
		}
		i, j := sips[r.Intn(len(sips))], sips[r.Intn(len(sips))]
		m, o := s[i].Msg.(dialog.SIP), s[j].Msg.(dialog.SIP)
		if m.CallID == o.CallID {
			return nil, "", false
		}
		set(&m, o)
		out := append(dialog.Script{}, s...)
		out[i].Msg = m
		return out, fmt.Sprintf("%s of %d into %d", field, j, i), true
	}
}

// crossSSRC gives one media step the SSRC of another stream.
func crossSSRC(r *rand.Rand, s dialog.Script) (dialog.Script, string, bool) {
	var media []int
	for i, st := range s {
		switch st.Msg.(type) {
		case dialog.RTP, dialog.RTCP:
			media = append(media, i)
		}
	}
	if len(media) < 2 {
		return nil, "", false
	}
	i, j := media[r.Intn(len(media))], media[r.Intn(len(media))]
	out := append(dialog.Script{}, s...)
	ssrc := ssrcOf(s[j].Msg)
	switch m := out[i].Msg.(type) {
	case dialog.RTP:
		m.SSRC = ssrc
		out[i].Msg = m
	case dialog.RTCP:
		m.SSRC = ssrc
		out[i].Msg = m
	}
	return out, fmt.Sprintf("ssrc of %d into %d", j, i), true
}

func ssrcOf(m dialog.Msg) uint32 {
	switch m := m.(type) {
	case dialog.RTP:
		return m.SSRC
	case dialog.RTCP:
		return m.SSRC
	}
	return 0
}

// divergence replays entries through the reference and every lane
// count and describes the first disagreement, or returns "".
func divergence(t *testing.T, entries []trace.Entry) string {
	ref := ids.DefaultConfig()
	ref.Backend = ids.BackendInterpreted
	want := replaySequential(t, entries, ref)
	for _, lanes := range []int{1, 2, 4} {
		got, _ := replayIngress(t, entries, Config{Lanes: lanes, Engine: engine.Config{Shards: lanes}})
		if !reflect.DeepEqual(want, got) {
			return fmt.Sprintf("lanes=%d:\n  sequential %v\n  pipeline   %v", lanes, want, got)
		}
	}
	return ""
}

// shrink deletes steps greedily while the script still diverges.
func shrink(t *testing.T, s dialog.Script) dialog.Script {
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(s); i++ {
			cand := append(append(dialog.Script{}, s[:i]...), s[i+1:]...)
			if divergence(t, dialog.Render(cand)) != "" {
				s, changed = cand, true
				i--
			}
		}
	}
	return s
}

func jsonl(t *testing.T, entries []trace.Entry) string {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, e := range entries {
		if err := w.Record(e.Packet(), e.At()); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// TestMutatedSequenceParity runs the seeded mutator over Synthesize's
// benign-plus-attack script and every witness: each round stacks one
// to three edits on a base script. The run stops at the round budget
// or after eight seconds, whichever comes first.
func TestMutatedSequenceParity(t *testing.T) {
	type base struct {
		name   string
		script dialog.Script
	}
	bases := []base{{"synth", dialog.SynthConfig{Calls: 12, RTPPerCall: 6, Attacks: true}.Script()}}
	for _, w := range scenario.Witnesses() {
		bases = append(bases, base{w.Name, w.Script})
	}
	const rounds = 400
	deadline := time.Now().Add(8 * time.Second)
	r := rand.New(rand.NewSource(1))
	ran := 0
	for ; ran < rounds && time.Now().Before(deadline); ran++ {
		b := bases[ran%len(bases)]
		s, edits := b.script, []string(nil)
		for n := 1 + r.Intn(3); n > 0 && len(s) > 1; {
			out, what, ok := mutations[r.Intn(len(mutations))](r, s)
			if ok {
				s, edits = out, append(edits, what)
				n--
			}
		}
		if d := divergence(t, dialog.Render(s)); d != "" {
			small := dialog.Render(shrink(t, s))
			t.Fatalf("round %d, %s after %v: pipeline diverges from the sequential IDS\n%s\nshrunk to %d steps:\n%s",
				ran, b.name, edits, d, len(small), jsonl(t, small))
		}
	}
	t.Logf("%d mutants, no divergence", ran)
}
