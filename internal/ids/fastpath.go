package ids

import (
	"time"

	"vids/internal/fastpath"
	"vids/internal/idsgen"
)

// MediaFastpath is the engine-installed hook bundle tying one sharded
// IDS instance to the shared per-flow RTP validation cache
// (internal/fastpath). Every hook may be nil; a zero MediaFastpath
// turns the whole feature off. The detector calls Arm after a clean
// steady-state RTP packet (when Armable allows), Invalidate/Remove on
// monitor transitions that change what the flow's traffic means, and
// Activity from the idle sweep so absorbed media keeps its call alive.
type MediaFastpath struct {
	// Arm publishes the machine's window variables for the media key
	// currently in the detector's scratch; the engine forwards it to
	// fastpath.Cache.Update under the epoch the packet was enqueued
	// with.
	Arm func(key []byte, payload uint8, snap fastpath.Snapshot)
	// Armable reports whether the packet being processed could arm its
	// flow at all: the cache refuses an arm while later packets of the
	// flow are still queued for the shard, so the detector need not
	// build the snapshot. Nil means always.
	Armable func() bool
	// Invalidate disarms the flow at key before the worker acks the
	// signaling event that made the mirror stale.
	Invalidate func(key string)
	// Remove deletes every flow a forgotten call owns, when its
	// tombstone expires. Until then the evicted call's flows, disarmed
	// at eviction, keep routing its straggling media to this shard, as
	// they did while it lived. The flow table knows which destinations
	// the call still owns: one a newer call re-advertised, on this shard
	// or another, is not the forgotten call's to remove.
	Remove func(callID string)
	// Activity reports when the flow last absorbed a packet, so the
	// idle sweep sees media the monitor never did.
	Activity func(key string) (time.Duration, bool)
}

// SetMediaFastpath installs the fast-path hooks. Kept off Config so
// Config stays comparable (the ingress tier relies on that).
func (d *IDS) SetMediaFastpath(h MediaFastpath) { d.fp = h }

// armFastpath publishes steady-state window variables after handleRTP
// delivered a packet that left the machine on the RTP_RCVD self-loop:
// from here on the cache can absorb in-profile packets itself.
// d.keyBuf still holds the packet's media key.
func (d *IDS) armFastpath(mon *CallMonitor, machine string) {
	m, ok := mon.System.Find(machine) //vids:alloc-ok backend seam: both Stepper backends are independently noalloc-rooted
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
	d.fp.Arm(d.keyBuf, uint8(payload), snap) //vids:alloc-ok fast-path hook seam: the engine closure and cache Update are independently noalloc-rooted
}

// ResyncMedia applies an absorbed-window snapshot to the machine that
// owns the media destination, gen-gated against monitor recycling. The
// shard worker calls it before delivering the first escalated packet
// after a stretch of absorption, so the machine's variables reflect
// every packet the cache validated on its behalf.
func (d *IDS) ResyncMedia(host string, port int, snap fastpath.Snapshot) {
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
	vars := m.Vars()
	vars.SetUint32(lSSRC.Name, snap.SSRC)
	vars.SetUint32(lSeq.Name, uint32(snap.Seq))
	vars.SetUint32(lTS.Name, snap.TS)
	vars.SetDuration(lWinStart.Name, snap.WinStart)
	vars.SetInt(lWinCount.Name, snap.WinCount)
}

// invalidateMonitorMedia disarms every flow the monitor's call owns.
// Called synchronously while the worker processes a signaling event,
// before that event is acked — the cache mirror can never outlive the
// transition that made it stale.
func (d *IDS) invalidateMonitorMedia(mon *CallMonitor) {
	for _, key := range mon.mediaKeys {
		d.fp.Invalidate(key) //vids:alloc-ok signaling-path hook: fires per SIP event, not per media packet
	}
}

// mediaActivity folds the cache's last-absorbed times for the call's
// owned flows into LastActivity, so the idle sweep judges a call by
// the traffic the slow path would have seen without the fast path.
func (d *IDS) mediaActivity(mon *CallMonitor, callID string, last time.Duration) time.Duration {
	for _, key := range mon.mediaKeys {
		if ref, ok := d.mediaIndex[key]; !ok || ref.callID != callID {
			continue
		}
		if seen, ok := d.fp.Activity(key); ok && seen > last { //vids:alloc-ok idle-sweep hook: fires per sweep interval, not per media packet
			last = seen
		}
	}
	return last
}
