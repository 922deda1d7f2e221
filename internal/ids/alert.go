// Package ids implements vids, the paper's VoIP intrusion detection
// system (Sections 5 and 6): a Packet Classifier and Event Distributor
// feeding per-call communicating EFSMs (one SIP machine plus one RTP
// machine per media direction), a Call State Fact Base holding each
// call's configuration, an Attack Scenario database of annotated
// attack transitions and windowed detectors, and an Analysis Engine
// that raises alerts on specification deviations and attack-state
// entries.
//
// As in the paper's Figure 3, the machines only step: every transition
// comes back to the detector as the core.StepResult its Step returned,
// and the detector alone acts on it. IDS.OnStep hands those same
// results to tooling (spec coverage), and in the sharded pipeline the
// detector drives the shared media flow table (IDS.Flows) itself.
package ids

import (
	"fmt"
	"time"
)

// AlertType classifies an alert by the attack pattern that fired.
type AlertType string

// Alert types covering the paper's threat model (Section 3) and the
// detection patterns of Section 6.
const (
	// AlertInviteFlood: more than N INVITEs for one destination
	// within window T1 (Figure 4).
	AlertInviteFlood AlertType = "invite-flood"
	// AlertByeDoS: RTP still arriving after BYE + grace timer T from
	// the party that did not send the BYE (Figure 5).
	AlertByeDoS AlertType = "bye-dos"
	// AlertTollFraud: the BYE sender itself keeps sending RTP
	// (billing stopped, media continues; Section 3.1).
	AlertTollFraud AlertType = "toll-fraud"
	// AlertMediaSpam: RTP sequence-number or timestamp gap beyond
	// thresholds, or an SSRC change mid-stream (Figure 6).
	AlertMediaSpam AlertType = "media-spam"
	// AlertCodecViolation: RTP payload type differs from the codec
	// negotiated in SDP (Section 3.2).
	AlertCodecViolation AlertType = "codec-violation"
	// AlertRTPFlood: RTP packet rate beyond the negotiated codec's
	// plausible rate (Section 3.2).
	AlertRTPFlood AlertType = "rtp-flood"
	// AlertCallHijack: a re-INVITE inside an existing dialog from an
	// inconsistent source (Section 3.1).
	AlertCallHijack AlertType = "call-hijack"
	// AlertSpoofedBye: a BYE whose source/tags match neither dialog
	// party (Section 3.1).
	AlertSpoofedBye AlertType = "spoofed-bye"
	// AlertSpoofedCancel: a CANCEL inconsistent with the pending
	// INVITE's source (Section 3.1).
	AlertSpoofedCancel AlertType = "spoofed-cancel"
	// AlertDeviation: the event was not accepted by the protocol
	// state machine in its current configuration — the
	// specification-based anomaly signal.
	AlertDeviation AlertType = "protocol-deviation"
	// AlertUnsolicitedRTP: an RTP stream to a destination no SDP
	// exchange advertised.
	AlertUnsolicitedRTP AlertType = "unsolicited-rtp"
	// AlertDRDoS: a burst of SIP responses for calls the destination
	// never initiated — the reflection signature of spoofed requests
	// fanned out to many reflectors (Section 3.1).
	AlertDRDoS AlertType = "drdos"
	// AlertRTCPBye: an RTCP BYE terminating a media stream while the
	// signaling plane still shows the call established — a
	// media-plane teardown injection (RFC 3550 BYE abuse).
	AlertRTCPBye AlertType = "rtcp-bye"
	// AlertRogueRegister: a REGISTER crossing the enterprise edge.
	// All legitimate phones register from inside; an external
	// registration rebinds a victim's address-of-record to the
	// attacker (registration hijacking).
	AlertRogueRegister AlertType = "rogue-register"
)

// Alert is one detection event raised by the Analysis Engine.
type Alert struct {
	At     time.Duration `json:"atNanos"` // virtual time of detection
	Type   AlertType     `json:"type"`
	CallID string        `json:"callId,omitempty"` // empty for non-call-scoped alerts
	Source string        `json:"source"`
	Target string        `json:"target"`
	Detail string        `json:"detail"`
}

func (a Alert) String() string {
	return fmt.Sprintf("[%v] %s call=%q src=%s dst=%s: %s",
		a.At, a.Type, a.CallID, a.Source, a.Target, a.Detail)
}
