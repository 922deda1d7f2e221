package engine

import (
	"bytes"
	"fmt"
	"time"

	"vids/internal/ids"
	"vids/internal/rtp"
	"vids/internal/sim"
	"vids/internal/sipmsg"
	"vids/internal/trace"
)

// The traces below are built from synth.go's unexported dialog
// builders and replayed by routing_test.go (package engine_test), which
// may import internal/ingress where an in-package test may not.

// RoutingInvariantTrace is one benign call i whose media moves
// mid-call: a re-INVITE renegotiates the caller's port, then RTP lands
// on the new port and RTCP beside it.
func RoutingInvariantTrace(i int) []trace.Entry {
	g := &synthGen{}
	d := g.benignCall(i, 0, 5, false)

	reinv := d.inv.Clone()
	reinv.To = d.ok.To // in-dialog: To carries the callee's tag
	reinv.CSeq = sipmsg.CSeq{Seq: 3, Method: sipmsg.INVITE}
	newMed := sim.Addr{Host: d.callerMed.Host, Port: d.callerMed.Port + 1000}
	oldLine := fmt.Sprintf("m=audio %d", d.callerMed.Port)
	if !bytes.Contains(d.inv.Body, []byte(oldLine)) {
		panic("SDP body does not contain " + oldLine)
	}
	reinv.Body = bytes.Replace(d.inv.Body, []byte(oldLine),
		[]byte(fmt.Sprintf("m=audio %d", newMed.Port)), 1)
	g.add(300*time.Millisecond, sim.ProtoSIP, d.callerAddr, d.calleeAddr, reinv.Bytes())
	rok := sipmsg.NewResponse(reinv, sipmsg.StatusOK)
	rok.Body = d.ok.Body
	rok.ContentType = "application/sdp"
	g.add(320*time.Millisecond, sim.ProtoSIP, d.calleeAddr, d.callerAddr, rok.Bytes())

	g.add(340*time.Millisecond, sim.ProtoRTP,
		sim.Addr{Host: d.calleeHost, Port: d.calleeMed.Port},
		newMed, rtpBytes(0xD0000000+uint32(i), 6, 6*160))
	g.add(341*time.Millisecond, sim.ProtoRTCP,
		sim.Addr{Host: d.calleeHost, Port: d.calleeMed.Port + 1},
		sim.Addr{Host: newMed.Host, Port: newMed.Port + 1},
		rtcpBytes(rtp.RTCPSenderReport, 0xD0000000+uint32(i)))
	return g.entries
}

// LateHangupTrace is a dialog that goes idle past the eviction horizon
// and only then hangs up: silence until the sweeps (which run every
// half retention period) have provably fired on the shards and the
// lanes, then BYE and its 200.
func LateHangupTrace(cfg ids.Config) []trace.Entry {
	d := newDialog(0, "late")
	g := &synthGen{}
	g.add(0, sim.ProtoSIP, d.callerAddr, d.calleeAddr, d.inv.Bytes())
	g.add(20*time.Millisecond, sim.ProtoSIP, d.calleeAddr, d.callerAddr, d.ok.Bytes())
	g.add(40*time.Millisecond, sim.ProtoSIP, d.callerAddr, d.calleeAddr, d.ack().Bytes())
	late := 2*(cfg.IdleEviction+cfg.CloseLinger) + time.Minute
	g.add(late, sim.ProtoSIP, d.callerAddr, d.calleeAddr, d.bye().Bytes())
	okBye := sipmsg.NewResponse(d.bye(), sipmsg.StatusOK)
	g.add(late+20*time.Millisecond, sim.ProtoSIP, d.calleeAddr, d.callerAddr, okBye.Bytes())
	return g.entries
}
