package main

import (
	"fmt"
	"os"
	"path/filepath"

	"vids/internal/dialog"
	"vids/internal/ids"
	"vids/internal/scenario"
	"vids/internal/speclint"
)

// waivers returns the transitions that the over-approximated product
// exploration fires but that can never fire concretely, each with its
// justification. The exploration abstracts guards and timer causality
// to "may happen", so it cannot see these contradictions; the baseline
// gate keeps the list honest — a waived transition that ever fires at
// runtime shows up as a report drift and fails CI.
func waivers() map[speclint.TransitionKey]string {
	const timerPending = "timer T is armed only on entering RTP_RCVD_AFTER_BYE; " +
		"with a timer pending the machine can only be in AFTER_BYE, RTP_RCVD " +
		"(after a 401 reopen) or an attack state entered from RTP_RCVD, so the " +
		"expiry can never find it here"
	w := map[speclint.TransitionKey]string{
		{Machine: "invite-flood", From: ids.FloodInit, Event: ids.EvTimerT1, To: ids.FloodInit}: "T1 is armed only by the INIT->PACKET_RCVD transition and every " +
			"return to INIT consumes the pending timer, so T1 can never expire with the machine in INIT",
		{Machine: "response-flood", From: ids.FloodInit, Event: ids.EvTimerT1, To: ids.FloodInit}: "T1 is armed only by the INIT->PACKET_RCVD transition and every " +
			"return to INIT consumes the pending timer, so T1 can never expire with the machine in INIT",
	}
	for _, m := range []string{ids.MachineRTPCaller, ids.MachineRTPCallee} {
		w[speclint.TransitionKey{Machine: m, From: ids.RTPOpen, Event: ids.EvTimerT, To: ids.RTPOpen}] = timerPending
		w[speclint.TransitionKey{Machine: m, From: ids.RTPClose, Event: ids.EvTimerT, To: ids.RTPClose}] = timerPending
		w[speclint.TransitionKey{Machine: m, From: ids.RTPAttackByeDoS, Event: ids.EvTimerT, To: ids.RTPAttackByeDoS}] = "ATTACK_BYE_DOS is entered only from RTP_CLOSE, which is reachable " +
			"only after any pending timer T has already fired, so no expiry can arrive here"
		w[speclint.TransitionKey{Machine: m, From: ids.RTPAttackTollFraud, Event: ids.EvTimerT, To: ids.RTPAttackTollFraud}] = "ATTACK_TOLL_FRAUD is entered only from RTP_CLOSE, which is reachable " +
			"only after any pending timer T has already fired, so no expiry can arrive here"
		w[speclint.TransitionKey{Machine: m, From: ids.RTPAfterBye, Event: ids.EvDeltaReopen, To: ids.RTPOpen}] = "RTP_RCVD_AFTER_BYE is entered only from RTP_RCVD, whose entry actions " +
			"set l.started, so the not-started reopen branch is dead here"
	}
	return w
}

// closeGaps replays the witness traces of scenario.Witnesses — built
// for reachable transitions the scenario suite misses — each through a
// fresh IDS under the observer, so a gap only counts as closed when the
// trace concretely fires it. With tracesDir set the traces are also
// written as JSONL files replayable by `vids -replay`.
func closeGaps(rec *recorder, tracesDir string) error {
	if tracesDir != "" {
		if err := os.MkdirAll(tracesDir, 0o755); err != nil {
			return err
		}
	}
	for _, w := range scenario.Witnesses() {
		file := w.Name + ".jsonl"
		if err := replayEntries(dialog.Render(w.Script), rec, "trace:"+file); err != nil {
			return fmt.Errorf("gap trace %s: %w", w.Name, err)
		}
		if tracesDir != "" {
			if err := dialog.WriteFile(filepath.Join(tracesDir, file), w.Script); err != nil {
				return err
			}
		}
	}
	return nil
}
