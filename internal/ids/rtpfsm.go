package ids

import (
	"time"

	"vids/internal/core"
)

// RTP machine control states (paper Figures 2(a), 5 and 6).
const (
	RTPInit     core.State = "INIT"
	RTPOpen     core.State = "RTP_OPEN"
	RTPRcvd     core.State = "RTP_RCVD"
	RTPAfterBye core.State = "RTP_RCVD_AFTER_BYE"
	RTPClose    core.State = "RTP_CLOSE"

	RTPAttackSpam      core.State = "ATTACK_MEDIA_SPAM"
	RTPAttackCodec     core.State = "ATTACK_CODEC_VIOLATION"
	RTPAttackByeDoS    core.State = "ATTACK_BYE_DOS"
	RTPAttackTollFraud core.State = "ATTACK_TOLL_FRAUD"
	RTPAttackFlood     core.State = "ATTACK_RTP_FLOOD"
)

// Event names of the RTP machine's alphabet. The δ events arrive on
// the synchronization channel from the SIP machine; EvTimerT is
// injected by the IDS when the after-BYE grace timer expires.
const (
	EvRTP         = "rtp.packet"
	EvDeltaOpen   = "delta.open"
	EvDeltaBye    = "delta.bye"
	EvDeltaReopen = "delta.reopen"
	EvTimerT      = "timer.T"
)

// RTP transition labels for alert mapping.
const (
	labelMediaSpam = "media-spam"
	labelCodec     = "codec-violation"
	labelByeDoS    = "bye-dos"
	labelTollFraud = "toll-fraud"
	labelRTPFlood  = "rtp-flood"
)

// RTPThresholds are the adjustable detector parameters of Figure 6
// and Section 3.2.
type RTPThresholds struct {
	// SeqGap is the paper's Δn: a jump in sequence numbers larger
	// than this flags media spamming.
	SeqGap uint16
	// TSGap is the paper's Δt in RTP timestamp units (8 kHz clock).
	TSGap uint32
	// RateWindow/RatePackets bound the legitimate packet rate: more
	// than RatePackets within RateWindow flags an RTP flood.
	RateWindow  time.Duration
	RatePackets int
}

// The RTP event vector (one rtp.packet), shared by the per-direction
// machine and the standalone spam monitor, and their local variables.
var (
	rtpVector = core.NewVector("RTP")

	rtpSrc         = rtpVector.Arg("src", core.KindString)
	rtpSSRC        = rtpVector.Arg("ssrc", core.KindUint32)
	rtpTS          = rtpVector.Arg("ts", core.KindUint32)
	rtpSeq         = rtpVector.Arg("seq", core.KindInt)
	rtpPayloadType = rtpVector.Arg("payloadType", core.KindInt)
	rtpNow         = rtpVector.Arg("now", core.KindDuration)

	// deltaParty is the δ open message's payload: which party's stream
	// the opened direction carries.
	deltaParty = core.Arg("party", core.KindString)

	lParty    = core.Local("l.party", core.KindString)
	lPayload  = core.Local("l.payload", core.KindInt)
	lStarted  = core.Local("l.started", core.KindBool)
	lSSRC     = core.Local("l.ssrc", core.KindUint32)
	lSeq      = core.Local("l.seq", core.KindUint32)
	lTS       = core.Local("l.ts", core.KindUint32)
	lSrc      = core.Local("l.src", core.KindString)
	lWinStart = core.Local("l.winStart", core.KindDuration)
	lWinCount = core.Local("l.winCount", core.KindInt)
)

// rtpWindow is the media window the ingress fast path mirrors: the
// variables the RTP_RCVD self-loop reads and advances. The compiled
// machine exposes the tuple as MediaWindow/SetMediaWindow; fastpath.go
// reads and writes an interpreted machine's Vars by the same nodes.
var rtpWindow = []*core.Expr{lSSRC, lSeq, lTS, lWinStart, lWinCount}

// gapOK is Figure 6's window predicate over the stream's high-water
// pair. Backward packets (reordering) are tolerated; only forward
// jumps beyond the thresholds indicate injection.
func gapOK(th RTPThresholds) *core.Expr {
	return core.WindowOK(lSeq, rtpSeq, lTS, rtpTS,
		core.Param("SeqGap", core.IntVal(int(th.SeqGap))),
		core.Param("TSGap", core.Uint32Val(th.TSGap)))
}

// rtpSpec builds one media-direction machine. The machine learns its
// negotiated endpoint lazily from the globals the SIP machine wrote
// (g.payload and the direction's media address), then tracks the
// stream's SSRC, sequence and timestamp evolution.
func rtpSpec(name string, th RTPThresholds) *core.Spec {
	s := core.NewSpec(name, RTPInit)
	s.Family = "RTP"
	s.Views = []core.View{
		{Name: "Payload", Vars: []*core.Expr{lPayload}},
		{Name: "MediaWindow", Vars: rtpWindow},
	}

	// INIT --δ open--> RTP_OPEN: bind the negotiated media and
	// remember which party's stream this machine watches.
	s.When(RTPInit, EvDeltaOpen, nil, core.Do(
		core.Set(lParty, deltaParty),
		core.Set(lPayload, gPayload),
	), RTPOpen)

	payloadOK := core.Eq(rtpPayloadType, lPayload)
	badPayload := core.Not(payloadOK)

	// First packet of the stream: record the source binding.
	s.When(RTPOpen, EvRTP, payloadOK, core.Do(
		core.Set(lStarted, core.Lit(true)),
		core.Set(lSSRC, rtpSSRC),
		core.Set(lSeq, rtpSeq),
		core.Set(lTS, rtpTS),
		core.Set(lSrc, rtpSrc),
		core.Set(lWinStart, rtpNow),
		core.Set(lWinCount, core.Lit(1)),
	), RTPRcvd)
	s.WhenLabeled(labelCodec, RTPOpen, EvRTP, badPayload, nil, RTPAttackCodec)

	// Steady state: every packet must carry the negotiated payload
	// type, the established SSRC, and advance seq/timestamp within
	// the spam thresholds (Figure 6's predicate).
	sameSSRC := core.Eq(rtpSSRC, lSSRC)
	gap := gapOK(th)
	// The rate window rolls over once RateWindow has passed since it
	// opened (the action resets it); inside it the packet count is
	// bounded.
	rollover := core.Gt(core.Sub(rtpNow, lWinStart), core.Param("RateWindow", core.DurationVal(th.RateWindow)))
	rateOK := core.Or(rollover, core.Lt(lWinCount, core.Param("RatePackets", core.IntVal(th.RatePackets))))

	s.When(RTPRcvd, EvRTP, core.And(payloadOK, sameSSRC, gap, rateOK), core.Do(
		// Advance-only: a tolerated reordered packet must not rewind
		// the window high-water mark (rtp.WindowAdvance), or the next
		// in-order packet reads as a spurious gap across the seq wrap.
		core.WindowAdvance(lSeq, lTS, rtpSeq, rtpTS),
		core.If(rollover,
			core.Set(lWinStart, rtpNow),
			core.Set(lWinCount, core.Lit(1)),
		).OrElse(
			core.Set(lWinCount, core.Add(lWinCount, core.Lit(1)))),
	), RTPRcvd)

	// Attack branches, most specific first; the guards are mutually
	// disjoint by construction.
	s.WhenLabeled(labelCodec, RTPRcvd, EvRTP, badPayload, nil, RTPAttackCodec)
	s.WhenLabeled(labelMediaSpam, RTPRcvd, EvRTP,
		core.And(payloadOK, core.Or(core.Not(sameSSRC), core.Not(gap))), nil, RTPAttackSpam)
	s.WhenLabeled(labelRTPFlood, RTPRcvd, EvRTP,
		core.And(payloadOK, sameSSRC, gap, core.Not(rateOK)), nil, RTPAttackFlood)

	// δ bye: arm the in-flight grace period (timer T, Figure 5). The
	// IDS schedules the timer event when it sees this transition.
	s.When(RTPRcvd, EvDeltaBye, nil, nil, RTPAfterBye)
	s.When(RTPOpen, EvDeltaBye, nil, nil, RTPClose) // stream never started
	s.When(RTPInit, EvDeltaBye, nil, nil, RTPClose) // direction never opened

	// In-flight packets are tolerated until the timer fires.
	s.When(RTPAfterBye, EvRTP, nil, nil, RTPAfterBye)
	s.When(RTPAfterBye, EvTimerT, nil, nil, RTPClose)
	s.When(RTPOpen, EvTimerT, nil, nil, RTPOpen)
	s.When(RTPClose, EvTimerT, nil, nil, RTPClose)
	s.When(RTPRcvd, EvTimerT, nil, nil, RTPRcvd) // stale timer after a reopen

	// δ reopen: a BYE drew a 401 challenge, so nothing was torn down
	// (authenticated deployments) — the stream is still legitimate.
	notStarted := core.Not(lStarted)
	for _, from := range []core.State{RTPAfterBye, RTPClose} {
		s.When(from, EvDeltaReopen, lStarted, nil, RTPRcvd)
		s.When(from, EvDeltaReopen, notStarted, nil, RTPOpen)
	}
	s.When(RTPOpen, EvDeltaReopen, nil, nil, RTPOpen)
	s.When(RTPRcvd, EvDeltaReopen, nil, nil, RTPRcvd)
	s.When(RTPInit, EvDeltaReopen, nil, nil, RTPInit)

	// Packets after RTP_CLOSE are the cross-protocol detections of
	// Figure 5: if the party that sent the BYE is still talking it is
	// toll fraud (billing stopped, media continues); if the *other*
	// party is still talking, it never learned about the BYE — the
	// BYE was spoofed (BYE DoS).
	fraud := core.Eq(lParty, gByeSender)
	s.WhenLabeled(labelTollFraud, RTPClose, EvRTP, fraud, nil, RTPAttackTollFraud)
	s.WhenLabeled(labelByeDoS, RTPClose, EvRTP, core.Not(fraud), nil, RTPAttackByeDoS)

	// Attack states absorb further traffic.
	for _, attack := range []core.State{RTPAttackSpam, RTPAttackCodec,
		RTPAttackByeDoS, RTPAttackTollFraud, RTPAttackFlood} {
		for _, ev := range []string{EvRTP, EvDeltaOpen, EvDeltaBye, EvDeltaReopen, EvTimerT} {
			s.When(attack, ev, nil, nil, attack)
		}
	}

	s.Final(RTPClose)
	s.Attack(RTPAttackSpam, RTPAttackCodec, RTPAttackByeDoS,
		RTPAttackTollFraud, RTPAttackFlood)
	return s
}

// spamSpec is the standalone media-spamming monitor of Figure 6: it
// watches one (source, destination) stream that no SDP negotiated,
// starting from the first observed packet.
func spamSpec(th RTPThresholds) *core.Spec {
	s := core.NewSpec("rtp-spam", RTPInit)
	s.Family = "Spam"
	s.When(RTPInit, EvRTP, nil, core.Do(
		core.Set(lSSRC, rtpSSRC),
		core.Set(lSeq, rtpSeq),
		core.Set(lTS, rtpTS),
	), RTPRcvd)

	// A packet reordered behind the window is tolerated with its SSRC
	// unchecked; anything else must sit inside the gap thresholds and
	// carry the stream's SSRC (there is no separate same-SSRC branch on
	// this machine).
	behind := core.And(core.Not(core.SeqLess(lSeq, rtpSeq)), core.Ne(rtpSeq, lSeq))
	inProfile := core.Or(behind, core.And(gapOK(th), core.Eq(rtpSSRC, lSSRC)))
	s.When(RTPRcvd, EvRTP, inProfile, core.Do(
		// Advance-only, mirroring the negotiated-stream machine.
		core.WindowAdvance(lSeq, lTS, rtpSeq, rtpTS),
	), RTPRcvd)
	s.WhenLabeled(labelMediaSpam, RTPRcvd, EvRTP, core.Not(inProfile), nil, RTPAttackSpam)
	s.When(RTPAttackSpam, EvRTP, nil, nil, RTPAttackSpam)
	s.Attack(RTPAttackSpam)
	return s
}
