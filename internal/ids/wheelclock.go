package ids

import (
	"time"

	"vids/internal/sim"
	"vids/internal/timerwheel"
)

// wheelClock couples a timer wheel to the simulator: the wheel holds
// the intrusive timer records (arming and cancelling are O(1) and
// allocation-free), and a single simulator "anchor" event — armed at
// or before the wheel's earliest pending deadline — advances the wheel
// when virtual time reaches it. Arming an earlier deadline arms a fresh
// anchor; superseded anchors fire as no-op Advances and re-sync, so
// no cancellation bookkeeping is needed on the simulator side. The
// stored anchorFn and the simulator's event free list make the whole
// arm→fire→re-arm cycle allocation-free in steady state.
type wheelClock struct {
	sim   *sim.Simulator
	wheel *timerwheel.Wheel

	anchorAt    time.Duration
	anchorArmed bool
	anchorFn    func()
}

func newWheelClock(s *sim.Simulator, fire func(*timerwheel.Timer)) *wheelClock {
	wc := &wheelClock{sim: s, wheel: timerwheel.New(fire)}
	wc.anchorFn = func() {
		// Only the tracked anchor advances the wheel. A superseded
		// anchor (an earlier deadline re-anchored past it, moving
		// anchorAt) must do nothing — every wheel deadline is at or
		// after the tracked anchorAt, so nothing can be due here, and
		// re-arming from a stale anchor would breed one duplicate
		// simulator event per firing, growing the event heap without
		// bound.
		if !wc.anchorArmed || wc.anchorAt != wc.sim.Now() {
			return
		}
		wc.anchorArmed = false
		wc.wheel.Advance(wc.sim.Now())
		wc.sync()
	}
	return wc
}

// arm schedules t to fire after the given delay of virtual time. It
// never asks the wheel for its minimum: an anchor armed at or before
// the new deadline already covers it, and one armed later (or none —
// the wheel is empty, or this is an expiry callback and the anchor's
// own sync follows) makes the new deadline the earliest wake-up known.
func (wc *wheelClock) arm(t *timerwheel.Timer, after time.Duration) {
	deadline := wc.sim.Now() + after
	wc.wheel.Arm(t, deadline)
	wc.anchor(deadline)
}

// cancel removes t (or suppresses its pending fire mid-batch).
func (wc *wheelClock) cancel(t *timerwheel.Timer) { wc.wheel.Cancel(t) }

// sync re-anchors after an Advance at the wheel's next wake-up. Next
// is a lower bound, so a wake-up armed off it never sleeps past a real
// deadline — at worst the anchor fires early, cascades a coarse
// bucket down, fires nothing, and re-arms closer.
func (wc *wheelClock) sync() {
	if next, ok := wc.wheel.Next(); ok {
		wc.anchor(next)
	}
}

// anchor makes sure an anchor event is armed at or before at.
func (wc *wheelClock) anchor(at time.Duration) {
	if wc.anchorArmed && wc.anchorAt <= at {
		return
	}
	wc.anchorArmed = true
	wc.anchorAt = at
	wc.sim.At(at, wc.anchorFn)
}
