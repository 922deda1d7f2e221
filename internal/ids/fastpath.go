package ids

import (
	"time"

	"vids/internal/core"
	"vids/internal/fastpath"
	"vids/internal/idsgen"
	"vids/internal/sim"
)

// ProcessMedia is Process, without its wall-clock stamp, for a media
// packet the flow table escalated to this instance instead of absorbing
// it. f is the packet's flow and epoch the flow epoch its consult saw:
// a clean steady-state packet arms f under that epoch, so the table
// absorbs the flow's in-profile packets from then on. A nil f arms
// nothing (the pipeline runs without absorption). snap, when non-nil,
// is the window state the table validated on the machine's behalf
// since the flow last escalated; it is applied to the owning machine
// before that machine judges pkt.
func (d *IDS) ProcessMedia(pkt *sim.Packet, f *fastpath.Flow, epoch uint64, snap *fastpath.Snapshot) {
	if snap != nil {
		d.resyncMedia(pkt.To.Host, pkt.To.Port, snap)
	}
	d.armFlow, d.armEpoch = f, epoch
	d.enter(pkt)
	d.process(pkt)
	d.armFlow, d.armEpoch = nil, 0
}

// armFastpath publishes steady-state window variables after handleRTP
// delivered a packet that left the machine on the RTP_RCVD self-loop:
// from here on the flow table can absorb in-profile packets itself.
// d.keyBuf still holds the packet's media key.
func (d *IDS) armFastpath(mon *CallMonitor, machine string) {
	m, ok := mon.System.Find(machine)
	if !ok {
		return
	}
	snap := fastpath.Snapshot{Gen: mon.gen}
	var payload int
	var seq uint32
	if rm, isCompiled := m.(*idsgen.RTPMachine); isCompiled {
		payload = rm.Payload()
		snap.SSRC, seq, snap.TS, snap.WinStart, snap.WinCount = rm.MediaWindow()
	} else {
		vars := m.Vars() //vids:alloc-ok interpreted-backend arm: Vars is the live store, no materialization
		payload = vars.GetInt(lPayload.Name)
		snap.SSRC = vars.GetUint32(lSSRC.Name)
		seq = vars.GetUint32(lSeq.Name)
		snap.TS = vars.GetUint32(lTS.Name)
		snap.WinStart = vars.GetDuration(lWinStart.Name)
		snap.WinCount = vars.GetInt(lWinCount.Name)
	}
	snap.Seq = uint16(seq)
	d.Flows.Update(d.keyBuf, d.armEpoch, uint8(payload), snap)
}

// resyncMedia applies an absorbed-window snapshot to the machine that
// owns the media destination, gen-gated against monitor recycling, so
// the machine's variables reflect every packet the flow table
// validated on its behalf.
func (d *IDS) resyncMedia(host string, port int, snap *fastpath.Snapshot) {
	d.keyBuf = appendMediaKey(d.keyBuf[:0], host, port)
	ref, ok := d.mediaIndex[string(d.keyBuf)]
	if !ok {
		return
	}
	mon := d.calls[ref.callID]
	if mon == nil || mon.gen != snap.Gen {
		return
	}
	m, ok := mon.System.Find(ref.machine)
	if !ok {
		return
	}
	if rm, isCompiled := m.(*idsgen.RTPMachine); isCompiled {
		rm.SetMediaWindow(snap.SSRC, uint32(snap.Seq), snap.TS, snap.WinStart, snap.WinCount)
		return
	}
	resyncVars(m, snap)
}

// resyncVars is resyncMedia's interpreted-backend arm: it writes the
// snapshot into the machine's live store by the rtpWindow nodes.
//
//vids:alloc-ok interpreted Vars is the live store, not a materialized copy, and the writes only overwrite: a flow arms from a machine on the RTP_RCVD self-loop, whose steps set every rtpWindow key, and the gen gate keeps a recycled monitor out
func resyncVars(m core.MachineLike, snap *fastpath.Snapshot) {
	vars := m.Vars()
	vars[lSSRC.Name] = core.Uint32Val(snap.SSRC)
	vars[lSeq.Name] = core.Uint32Val(uint32(snap.Seq))
	vars[lTS.Name] = core.Uint32Val(snap.TS)
	vars[lWinStart.Name] = core.DurationVal(snap.WinStart)
	vars[lWinCount.Name] = core.IntVal(snap.WinCount)
}

// invalidateMonitorMedia disarms every flow the monitor's call holds a
// handle on, with atomics only. Called synchronously while the worker
// processes a signaling event, before that event is acked — the mirror
// can never outlive the transition that made it stale.
func (d *IDS) invalidateMonitorMedia(mon *CallMonitor) {
	for _, f := range mon.flows {
		if f != nil {
			d.Flows.Disarm(f)
		}
	}
}

// mediaActivity folds the last-absorbed times of the flows the call
// still owns in this instance's media index into LastActivity, so the
// idle sweep judges a call by the traffic the slow path would have seen
// without absorption.
func (d *IDS) mediaActivity(mon *CallMonitor, callID string, last time.Duration) time.Duration {
	for i, f := range mon.flows {
		if f == nil {
			continue
		}
		if ref, ok := d.mediaIndex[mon.mediaKeys[i]]; !ok || ref.callID != callID {
			continue
		}
		if seen := d.Flows.LastSeen(f); seen > last {
			last = seen
		}
	}
	return last
}
