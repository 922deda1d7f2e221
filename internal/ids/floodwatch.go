package ids

import (
	"fmt"
	"time"

	"vids/internal/core"
	"vids/internal/idsgen"
	"vids/internal/sim"
	"vids/internal/timerwheel"
)

// FloodWatch is the bank of windowed cross-call detectors: the
// per-destination INVITE-flood machine (Figure 4), the DRDoS
// response-reflection machine (the same windowed counter over stray
// responses, Section 3.1) and the prevention-mode source quarantine.
// Unlike the per-call EFSMs, these detectors aggregate over *many*
// calls, so a sharded deployment cannot give each shard its own copy:
// internal/ingress runs one FloodWatch per lane in front of the shards,
// every destination hashing to exactly one lane (with
// Config.ExternalFloods silencing the shard-local copies), while a
// plain IDS embeds its own.
//
// Window timers T1 live on the bank's own timer wheel (anchored to the
// shared clock). A destination holds state only while its window is
// open: the Figure 4 machine's INIT is its final state, and a machine
// that reaches a final state is deleted (Section 7.3), so a T1 expiry
// removes the destination's entry and parks it, source counts and all,
// on a free list. A scan over ever-new destinations therefore costs memory
// for one window's worth of them, and a busy destination's next window
// reuses parked records without allocating.
//
// FloodWatch is not safe for concurrent use; the embedding layer
// serializes access (the IDS runs single-threaded, an ingestion lane
// feeds its own under the lane lock).
type FloodWatch struct {
	sim *sim.Simulator
	wc  *wheelClock
	cfg Config

	floodSp     *core.Spec
	respFloodSp *core.Spec

	floods     map[string]*floodEntry   // open INVITE windows by destination user@domain
	respFloods map[string]*floodEntry   // open stray-response windows by destination host
	quarantine map[string]time.Duration // "dest|src" -> blocked until

	// Records of expired windows, reset and ready for the next one.
	freeFloods     []*floodEntry
	freeRespFloods []*floodEntry

	args floodArgs // reusable typed event vector

	raise func(Alert)
	// owner is the IDS that embeds this bank; its step tap receives
	// every transition the counters take. Nil on an ingestion lane.
	owner *IDS
}

// floodEntry is one open window: the counter machine, its embedded T1
// timer and, for the INVITE detector, the window's INVITE counts by
// source (prevention mode quarantines the major contributors).
type floodEntry struct {
	m     core.MachineLike
	dest  string
	srcs  map[string]int
	timer timerwheel.Timer
}

// open starts dest's window record: a parked one if any, else a new
// counter on the configured backend with its embedded T1 timer.
//
//vids:alloc-ok runs once per opened window, not per packet, and allocates only when more windows are open at once than ever before
func (fw *FloodWatch) open(kind idsgen.FloodKind, dest string) *floodEntry {
	free, timerKind := &fw.freeFloods, timerKindFloodWindow
	if kind == idsgen.FloodResponse {
		free, timerKind = &fw.freeRespFloods, timerKindRespFloodWindow
	}
	var e *floodEntry
	if n := len(*free); n > 0 {
		e = (*free)[n-1]
		(*free)[n-1] = nil
		*free = (*free)[:n-1]
	} else {
		e = &floodEntry{m: fw.newCounter(kind)}
		if kind == idsgen.FloodInvite {
			e.srcs = make(map[string]int)
		}
		e.timer.Kind = timerKind
		e.timer.Owner = e
	}
	e.dest = dest
	return e
}

// newCounter builds one windowed counter on the configured backend.
func (fw *FloodWatch) newCounter(kind idsgen.FloodKind) core.MachineLike {
	if fw.cfg.Backend == BackendInterpreted {
		sp := fw.floodSp
		if kind == idsgen.FloodResponse {
			sp = fw.respFloodSp
		}
		return core.NewMachine(sp, nil)
	}
	n := fw.cfg.FloodN
	if kind == idsgen.FloodResponse {
		n = fw.cfg.ResponseFloodN
	}
	return idsgen.NewFloodMachine(kind, n)
}

// NewFloodWatch creates a detector bank bound to the given clock.
// Alerts are delivered to raise.
func NewFloodWatch(s *sim.Simulator, cfg Config, raise func(Alert)) *FloodWatch {
	fw := &FloodWatch{
		sim:         s,
		cfg:         cfg,
		floodSp:     floodSpec(cfg.FloodN),
		respFloodSp: respFloodSpec(cfg.ResponseFloodN),
		floods:      make(map[string]*floodEntry),
		respFloods:  make(map[string]*floodEntry),
		quarantine:  make(map[string]time.Duration),
		raise:       raise,
	}
	fw.wc = newWheelClock(s, fw.fire)
	return fw
}

// fire handles a T1 window expiry for either detector family: the
// counter returns to INIT, its final state, and the destination's
// records are parked until a window opens again.
func (fw *FloodWatch) fire(t *timerwheel.Timer) {
	e := t.Owner.(*floodEntry)
	r, err := e.m.Step(evTimerT1)
	if err != nil {
		return
	}
	if fw.owner != nil {
		fw.owner.tap(r)
	}
	if r.To != FloodInit {
		return
	}
	e.m.Reset()
	// Cleared, not dropped: the next window reuses the map's buckets
	// instead of reallocating them.
	clear(e.srcs)
	switch t.Kind {
	case timerKindFloodWindow:
		delete(fw.floods, e.dest)
		fw.freeFloods = append(fw.freeFloods, e)
	case timerKindRespFloodWindow:
		delete(fw.respFloods, e.dest)
		fw.freeRespFloods = append(fw.freeRespFloods, e)
	}
	e.dest = ""
}

// FeedInvite counts one initial INVITE toward dest's Figure 4 window
// and raises AlertInviteFlood past threshold N. In prevention mode the
// window's major contributors are quarantined.
//
//vids:alloc-ok per-destination window state is first-sight-bounded; alert construction fires only on a detected flood
func (fw *FloodWatch) FeedInvite(dest, src string, now time.Duration) {
	e, ok := fw.floods[dest]
	if !ok {
		e = fw.open(idsgen.FloodInvite, dest)
		fw.floods[dest] = e
	}
	e.srcs[src]++
	fw.args = floodArgs{Dest: dest, Src: src}
	res, err := e.m.Step(core.Event{Name: EvInvite, Typed: &fw.args})
	if err != nil {
		return
	}
	if fw.owner != nil {
		fw.owner.tap(res)
	}
	if res.From == FloodInit && res.To == FloodCounting {
		// First INVITE of the window: start timer T1 (Figure 4).
		fw.wc.arm(&e.timer, fw.cfg.FloodT1)
	}
	if res.EnteredAttack {
		fw.raise(Alert{
			At: now, Type: AlertInviteFlood, Target: dest, Source: src,
			Detail: fmt.Sprintf("more than %d INVITEs within %v", fw.cfg.FloodN, fw.cfg.FloodT1),
		})
		if fw.cfg.Prevention {
			// Quarantine the window's major contributors: the window
			// detector alone would re-admit N INVITEs per T1.
			for contributor, count := range e.srcs {
				if count > fw.cfg.FloodN/2 {
					fw.quarantine[dest+"|"+contributor] = now + fw.cfg.Quarantine
				}
			}
		}
	}
}

// FeedStrayResponse counts one SIP response for a call the destination
// never initiated and raises AlertDRDoS when the windowed threshold
// trips. The first stray response of a window is reported once as a
// deviation; raw, the response's bytes, is parsed for that report and
// not otherwise read.
//
//vids:alloc-ok per-destination window state is first-sight-bounded; alert construction fires only on a detected reflection attack
func (fw *FloodWatch) FeedStrayResponse(raw []byte, dest, src string, now time.Duration) {
	e, ok := fw.respFloods[dest]
	if !ok {
		e = fw.open(idsgen.FloodResponse, dest)
		fw.respFloods[dest] = e
	}
	fw.args = floodArgs{Dest: dest, Src: src}
	res, err := e.m.Step(core.Event{Name: EvResponse, Typed: &fw.args})
	if err != nil {
		return
	}
	if fw.owner != nil {
		fw.owner.tap(res)
	}
	if res.From == FloodInit && res.To == FloodCounting {
		// First stray response of the window: report once, arm T1.
		callID, summary := sipSummary(raw)
		fw.raise(Alert{
			At: now, Type: AlertDeviation, CallID: callID,
			Source: src, Target: dest,
			Detail: summary + " for unknown call",
		})
		fw.wc.arm(&e.timer, fw.cfg.FloodT1)
	}
	if res.EnteredAttack {
		fw.raise(Alert{
			At: now, Type: AlertDRDoS, Target: dest, Source: src,
			Detail: fmt.Sprintf("more than %d reflected responses within %v",
				fw.cfg.ResponseFloodN, fw.cfg.FloodT1),
		})
	}
}

// Quarantined reports whether src is currently blocked toward dest in
// prevention mode, clearing expired entries as a side effect.
func (fw *FloodWatch) Quarantined(dest, src string, now time.Duration) bool {
	key := dest + "|" + src
	until, ok := fw.quarantine[key]
	if !ok {
		return false
	}
	if now < until {
		return true
	}
	delete(fw.quarantine, key)
	return false
}
