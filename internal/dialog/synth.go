package dialog

import (
	"fmt"
	"sort"
	"time"

	"vids/internal/sim"
	"vids/internal/trace"
)

// SynthConfig sizes a synthetic trace. The generator exists because
// the simulated testbed places calls at the paper's arrival rate — far
// too few concurrent calls to load-balance a multi-shard engine — and
// benchmarks need a workload whose call population actually spreads
// over the shards.
type SynthConfig struct {
	// Calls is the number of benign dialogs.
	Calls int
	// RTPPerCall is how many RTP packets each direction carries.
	RTPPerCall int
	// FirstCall offsets the dialog numbering, so several Synthesize
	// invocations with disjoint [FirstCall, FirstCall+Calls) ranges
	// produce traces that can be fed concurrently without Call-ID or
	// media-port collisions.
	FirstCall int
	// Attacks injects one instance of each attack scenario the IDS
	// detects, so a replay exercises every alert path.
	Attacks bool
}

// Synthesize renders cfg.Script: a time-ordered synthetic trace of
// Calls complete SIP dialogs with two-way G.729 media and periodic RTCP
// sender reports, starting 5 ms apart so many calls are concurrently
// active, plus (optionally) the attack scenarios. The layout is
// deterministic: the same config always yields byte-identical entries.
func Synthesize(cfg SynthConfig) []trace.Entry { return Render(cfg.Script()) }

// Script is the step script Synthesize renders.
func (cfg SynthConfig) Script() Script {
	var s Script
	for i := 0; i < cfg.Calls; i++ {
		start := time.Duration(i) * 5 * time.Millisecond
		SynthCall(cfg.FirstCall+i, "synth").Converse(&s, start, cfg.RTPPerCall, true)
	}
	if cfg.Attacks {
		base := time.Duration(cfg.Calls)*5*time.Millisecond + 2*time.Second
		inviteFlood(&s, base, 25)
		reflectedResponses(&s, base+time.Second, 25)
		spoofedBye(&s, base+2*time.Second)
		rtcpByeInjection(&s, base+3*time.Second)
		unsolicitedSpam(&s, base+4*time.Second)
		rogueRegister(&s, base+4500*time.Millisecond)
		strayRequest(&s, base+4600*time.Millisecond)
	}
	sort.SliceStable(s, func(i, j int) bool { return s[i].At < s[j].At })
	return s
}

// SynthCall is dialog i of a Synthesize trace family named tag: UAs
// spread over 97 caller and 89 callee hosts that signal directly, each
// call with its own media ports and SSRCs.
func SynthCall(i int, tag string) *Call {
	callerHost := fmt.Sprintf("ua%d.a.example.com", i%97)
	calleeHost := fmt.Sprintf("ua%d.b.example.com", i%89)
	caller, callee := fmt.Sprintf("alice%d", i), fmt.Sprintf("bob%d", i)
	return &Call{
		ID: fmt.Sprintf("%s-%d@a.example.com", tag, i),
		Caller: Party{
			AOR:     sipURI(caller, "a.example.com"),
			Tag:     fmt.Sprintf("ct%d", i),
			Contact: sipURI(caller, callerHost),
			UA:      sim.Addr{Host: callerHost, Port: 5060},
			Media:   sim.Addr{Host: callerHost, Port: 20000 + 4*(i%5000)},
			SSRC:    0xC0000000 + uint32(i),
		},
		Callee: Party{
			AOR:     sipURI(callee, "b.example.com"),
			Tag:     fmt.Sprintf("et%d", i),
			Contact: sipURI(callee, calleeHost),
			UA:      sim.Addr{Host: calleeHost, Port: 5060},
			Media:   sim.Addr{Host: calleeHost, Port: 40000 + 4*(i%5000)},
			SSRC:    0xD0000000 + uint32(i),
		},
		ReuseBranch: true,
	}
}

// Converse scripts one complete benign call from start:
// INVITE/200/ACK 20 ms apart, n packets of media each way with an RTCP
// sender report, then BYE/200 if hangUp.
func (c *Call) Converse(s *Script, start time.Duration, n int, hangUp bool) {
	c.Establish(s, start, 20*time.Millisecond, false)
	mediaStart := start + 60*time.Millisecond
	c.Talk(s, mediaStart, n)
	if hangUp {
		c.Hangup(s, mediaStart+time.Duration(n)*20*time.Millisecond, 20*time.Millisecond)
	}
}
