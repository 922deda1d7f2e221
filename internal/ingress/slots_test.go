package ingress

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"vids/internal/dialog"
	"vids/internal/engine"
	"vids/internal/ids"
	"vids/internal/sdp"
	"vids/internal/sim"
	"vids/internal/sipmsg"
)

// reroutedCall scripts one dialog whose messages do not repeat their
// first strings: the INVITE is retransmitted, the caller's re-INVITE
// moves its Contact and its media address, and the callee hangs up, so
// the BYE carries the dialog's From and To swapped.
func reroutedCall(s *dialog.Script, c *dialog.Call, at time.Duration) {
	const ms = time.Millisecond
	inv := c.Invite(true)
	s.Add(at, dialog.ProxyA, dialog.ProxyB, inv)
	s.Add(at+500*ms, dialog.ProxyA, dialog.ProxyB, inv)
	s.Add(at+600*ms, dialog.ProxyB, dialog.ProxyA, c.Answer(sipmsg.StatusRinging))
	s.Add(at+700*ms, dialog.ProxyB, dialog.ProxyA, c.OK(true))
	s.Add(at+720*ms, c.Caller.UA, c.Callee.UA, c.Ack())
	talk := func(from, to dialog.Party, media sim.Addr, start time.Duration, seq uint16) {
		for k := 0; k < 50; k++ {
			*s = append(*s, dialog.Step{At: start + time.Duration(k)*20*ms, From: from.Media, To: media,
				Msg: dialog.G729(from.SSRC, seq+uint16(k))})
		}
	}
	talk(c.Caller, c.Callee, c.Callee.Media, at+800*ms, 1)
	talk(c.Callee, c.Caller, c.Caller.Media, at+801*ms, 1)

	re := c.ReInvite()
	re.Contact = sipmsg.URI{User: c.Caller.Contact.User, Host: "roam." + c.Caller.Contact.Host}
	moved := sim.Addr{Host: c.Caller.Media.Host, Port: c.Caller.Media.Port + 100}
	re.SDP = dialog.SDP{User: c.Caller.Contact.User, Media: moved, Payload: sdp.PayloadG729}
	s.Add(at+2000*ms, c.Caller.UA, c.Callee.UA, re)
	ok := re.Response(sipmsg.StatusOK)
	ok.Contact = c.Callee.Contact
	s.Add(at+2020*ms, c.Callee.UA, c.Caller.UA, ok)
	talk(c.Caller, c.Callee, c.Callee.Media, at+2100*ms, 51)
	talk(c.Callee, c.Caller, moved, at+2101*ms, 51)

	bye := c.Bye(true)
	s.Add(at+3500*ms, c.Callee.UA, c.Caller.UA, bye)
	s.Add(at+3520*ms, c.Caller.UA, c.Callee.UA, bye.Response(sipmsg.StatusOK))
}

// TestReroutedDialogParity: a shard reads a known call's strings from
// the monitor's slots, compared byte for byte with each datagram. The
// pipeline must raise exactly the sequential interpreted IDS's alerts
// on dialogs whose From/To, tags and Contact change from message to
// message, the second of which runs on a recycled monitor.
func TestReroutedDialogParity(t *testing.T) {
	var s dialog.Script
	for n := 1; n <= 2; n++ {
		reroutedCall(&s, dialog.TestbedCall(fmt.Sprintf("rerouted-%d@ua1.a.example.com", n), n), time.Duration(n-1)*20*time.Second)
	}
	sort.SliceStable(s, func(i, j int) bool { return s[i].At < s[j].At })
	entries := dialog.Render(s)

	ref := ids.DefaultConfig()
	ref.Backend = ids.BackendInterpreted
	want := replaySequential(t, entries, ref)
	if len(want) != 0 {
		// Every message comes from a party of the dialog; an alert here
		// means the script, not the pipeline, is wrong.
		t.Fatalf("the sequential IDS flags the rerouted dialogs: %+v", want)
	}
	for _, lanes := range []int{1, 2, 4} {
		got, st := replayIngress(t, entries, Config{Lanes: lanes, Engine: engine.Config{Shards: 4}})
		if !reflect.DeepEqual(want, got) {
			t.Errorf("lanes=%d: pipeline raised %+v, sequential %+v", lanes, got, want)
		}
		if st.Processed+st.Absorbed+st.Ignored+st.ParseErrors != uint64(len(entries)) {
			t.Errorf("lanes=%d: accounting mismatch: %+v for %d entries", lanes, st, len(entries))
		}
	}
}
