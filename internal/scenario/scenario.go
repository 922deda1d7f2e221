// Package scenario drives the paper's evaluation scenarios — one
// benign baseline plus the eleven attack injections of Section 7 —
// against the Figure 7 testbed. cmd/vids runs them for demonstration
// and cmd/speccover replays the same suite with its recorder on the
// detector's step tap, so both tools exercise the identical traffic.
package scenario

import (
	"fmt"
	"io"
	"time"

	"vids/internal/attack"
	"vids/internal/ids"
	"vids/internal/sim"
	"vids/internal/sipmsg"
	"vids/internal/workload"
)

// Names lists every scenario in canonical run order. "clean" is the
// benign baseline; the rest inject one attack each.
var Names = []string{
	"clean", "bye-dos", "cancel-dos", "invite-flood",
	"media-spam", "rtp-flood", "codec-change", "hijack", "toll-fraud",
	"drdos", "register-hijack", "rtcp-bye",
}

// Options parameterizes one scenario run.
type Options struct {
	// Seed seeds the simulator and workload generator.
	Seed int64
	// Out receives the scenario narration and per-alert lines; nil
	// silences them.
	Out io.Writer
	// Prepare, when set, runs after the testbed is built and before
	// any traffic flows — the hook cmd/speccover uses to set the IDS's
	// step tap to its coverage recorder.
	Prepare func(tb *workload.Testbed)
	// Configure, when set, edits the workload config before the
	// testbed is built — the hook the SRTP survival matrix uses to
	// flip the IDS into header-only media mode.
	Configure func(cfg *workload.Config)
}

// Run builds a fresh testbed, plays the named scenario through it,
// and returns the testbed with the simulation settled so the caller
// can inspect alerts and counters.
func Run(name string, opts Options) (*workload.Testbed, error) {
	out := opts.Out
	if out == nil {
		out = io.Discard
	}
	cfg := workload.DefaultConfig()
	cfg.Seed = opts.Seed
	cfg.UAs = 4
	cfg.WithMedia = true
	cfg.AnswerDelay = time.Second
	if name == "cancel-dos" {
		cfg.AnswerDelay = 20 * time.Second // keep the INVITE pending
	}
	if opts.Configure != nil {
		opts.Configure(&cfg)
	}
	tb, err := workload.New(cfg)
	if err != nil {
		return nil, err
	}
	tb.IDS.OnAlert = func(a ids.Alert) { fmt.Fprintf(out, "  ALERT %s\n", a) }
	if opts.Prepare != nil {
		opts.Prepare(tb)
	}

	sniff := attack.NewSniffer()
	tb.Net.Tap(sniff.Tap)
	atk := attack.New(tb.Sim, tb.Net, workload.AttackerHost)

	if err := tb.Sim.Run(time.Second); err != nil {
		return nil, err
	}
	rec, err := tb.PlaceCall(0, 0, 2*time.Minute)
	if err != nil {
		return nil, err
	}
	if err := tb.Sim.Run(tb.Sim.Now() + 8*time.Second); err != nil {
		return nil, err
	}

	call := rec.Call()
	info := attack.DialogInfo{
		CallID:          call.ID,
		CallerTag:       call.LocalTag,
		CalleeTag:       call.RemoteTag,
		CallerAOR:       sipmsg.URI{User: workload.UAUser("a", 1), Host: workload.DomainA},
		CalleeAOR:       sipmsg.URI{User: workload.UAUser("b", 1), Host: workload.DomainB},
		CallerHost:      workload.UAHost("a", 1),
		CalleeHost:      call.RemoteContact.Host,
		CallerMediaPort: call.LocalRTPPort,
	}
	if call.RemoteSDP != nil {
		if audio, ok := call.RemoteSDP.FirstAudio(); ok {
			info.CalleeMediaPort = audio.Port
		}
	}
	if st, ok := sniff.Stream(sim.Addr{Host: info.CalleeHost, Port: info.CalleeMediaPort}); ok {
		info.SSRC, info.LastSeq, info.LastTS = st.SSRC, st.LastSeq, st.LastTS
	}

	switch name {
	case "clean":
		fmt.Fprintln(out, "  (no attack injected)")
	case "bye-dos":
		fmt.Fprintln(out, "  attacker: fully spoofed BYE impersonating the caller")
		if err := atk.ByeDoS(info, true); err != nil {
			return nil, err
		}
	case "cancel-dos":
		fmt.Fprintln(out, "  attacker: forged CANCEL for the pending INVITE")
		if err := atk.CancelDoS(info, "z9hG4bKforged",
			sim.Addr{Host: workload.ProxyBHost, Port: 5060}, ""); err != nil {
			return nil, err
		}
	case "invite-flood":
		fmt.Fprintln(out, "  attacker: 40 INVITEs in 400ms at one phone")
		atk.InviteFlood(sipmsg.URI{User: workload.UAUser("b", 2), Host: workload.DomainB},
			sim.Addr{Host: workload.ProxyBHost, Port: 5060}, 40, 10*time.Millisecond)
	case "media-spam":
		fmt.Fprintln(out, "  attacker: fabricated RTP with sniffed SSRC, jumped seq/timestamp")
		atk.MediaSpam(info, 20, 20*time.Millisecond)
	case "rtp-flood":
		fmt.Fprintln(out, "  attacker: RTP at 10x the codec rate")
		atk.RTPFlood(info, 500, 2*time.Millisecond, false)
	case "codec-change":
		fmt.Fprintln(out, "  attacker: RTP with a non-negotiated payload type")
		atk.RTPFlood(info, 10, 20*time.Millisecond, true)
	case "hijack":
		fmt.Fprintln(out, "  attacker: in-dialog re-INVITE redirecting media")
		if err := atk.Hijack(info); err != nil {
			return nil, err
		}
	case "toll-fraud":
		fmt.Fprintln(out, "  misbehaving caller: BYE to stop billing, media keeps flowing")
		if err := tb.UAsA[0].Bye(call); err != nil {
			return nil, err
		}
		attack.NewTollFraudster(attack.New(tb.Sim, tb.Net, info.CallerHost)).
			ContinueMedia(info, 100, 20*time.Millisecond)
	case "drdos":
		fmt.Fprintln(out, "  attacker: spoofed OPTIONS to every network-A phone; responses swamp a B phone")
		var reflectors []sim.Addr
		for i := 1; i <= cfg.UAs; i++ {
			reflectors = append(reflectors, sim.Addr{Host: workload.UAHost("a", i), Port: 5060})
		}
		atk.DRDoS(sim.Addr{Host: workload.UAHost("b", 2), Port: 5060},
			reflectors, 8, 5*time.Millisecond)
	case "rtcp-bye":
		fmt.Fprintln(out, "  attacker: forged RTCP BYE ending the media stream, SIP untouched")
		if err := atk.RTCPBye(info); err != nil {
			return nil, err
		}
	case "register-hijack":
		fmt.Fprintln(out, "  attacker: forged REGISTER rebinding a victim's AOR to the attacker")
		victim := sipmsg.URI{User: workload.UAUser("b", 2), Host: workload.DomainB}
		if err := atk.HijackRegistration(victim,
			sim.Addr{Host: workload.ProxyBHost, Port: 5060}); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown scenario %q", name)
	}

	if err := tb.Sim.Run(tb.Sim.Now() + 15*time.Second); err != nil {
		return nil, err
	}
	return tb, nil
}
