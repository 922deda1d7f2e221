// Package timerwheel implements a hierarchical timer wheel over a
// virtual clock. It backs the IDS call-lifecycle timers — Figure 5's
// timer T, the RTCP BYE grace period, post-close eviction linger and
// the idle sweep — replacing one heap-allocated closure per
// sim.Schedule call with intrusive, pre-allocated timer records:
// arming, re-arming and cancelling are O(1) and allocation-free.
//
// Entries keep their exact deadline; slots only bucket them for cheap
// scanning. Advance(now) therefore fires timers at precisely the
// deadline they were armed for (no tick quantization), which is what
// lets the online engine keep byte-identical alert parity with the
// sequential replay. Expiry order is per-slot FIFO, levels low to
// high — under the engine's anchor discipline every batch of expiries
// shares one deadline, so this matches the simulator's
// schedule-order tie-break.
package timerwheel

import (
	"math/bits"
	"time"
)

const (
	// tickBits sizes the finest bucket at 2^20 ns ≈ 1.05 ms. Deadlines
	// stay exact; the tick only bounds how many entries share a slot.
	tickBits  = 20
	slotBits  = 6
	numSlots  = 1 << slotBits
	slotMask  = numSlots - 1
	numLevels = 5 // span 2^(20+5·6) ns ≈ 13 days of virtual time
)

func shift(level int) uint { return uint(tickBits + level*slotBits) }

// Timer is one schedulable entry. Embed it in the owning object (a
// call monitor, a flood window) so arming never allocates; the public
// fields let one wheel-wide callback dispatch without closures. The
// zero value is an unarmed timer.
type Timer struct {
	deadline time.Duration
	next     *Timer
	prev     *Timer
	wheel    *Wheel // non-nil while armed
	level    uint8
	slot     uint8
	// expiring marks a timer unlinked by collect but not yet fired, so
	// an expiry callback cancelling (or re-arming) a sibling timer in
	// the same batch reliably suppresses its pending fire.
	expiring bool

	// Kind discriminates what the expiry means; Owner points back at
	// the owning object; Gen snapshots the owner's generation counter
	// at arm time so an expiry for a recycled owner can be ignored.
	Kind  uint8
	Gen   uint32
	Owner any
}

// Deadline reports the armed deadline (meaningless when unarmed).
func (t *Timer) Deadline() time.Duration { return t.deadline }

// Armed reports whether the timer is currently queued on a wheel.
func (t *Timer) Armed() bool { return t.wheel != nil }

type slotList struct {
	head *Timer
	tail *Timer
}

// Wheel is a hierarchical timer wheel. Not safe for concurrent use;
// each engine shard drives its own wheel from its virtual clock.
type Wheel struct {
	fire     func(*Timer)
	now      time.Duration
	slots    [numLevels][numSlots]slotList
	occupied [numLevels]uint64
	count    int
	expired  []*Timer // reusable collect buffer
}

// New returns an empty wheel whose clock starts at zero. fire is
// invoked for every expired timer during Advance.
func New(fire func(*Timer)) *Wheel {
	return &Wheel{fire: fire}
}

// Now reports the wheel's clock (the instant of the last Advance).
func (w *Wheel) Now() time.Duration { return w.now }

// Len reports how many timers are armed.
func (w *Wheel) Len() int { return w.count }

// Arm schedules t to fire at the absolute virtual deadline. Re-arming
// a pending timer moves it. Deadlines in the past are clamped to the
// present and fire on the next Advance.
//
//vids:noalloc armed on every dialog transition; intrusive links only
func (w *Wheel) Arm(t *Timer, deadline time.Duration) {
	if t.wheel != nil {
		t.wheel.unlink(t)
	}
	if deadline < w.now {
		deadline = w.now
	}
	t.deadline = deadline
	w.place(t)
	w.count++
}

// Cancel removes t from the wheel (or suppresses its pending fire
// when it already expired in the current Advance batch).
//
//vids:noalloc cancelled on every dialog transition; intrusive links only
func (w *Wheel) Cancel(t *Timer) {
	t.expiring = false
	if t.wheel == nil {
		return
	}
	t.wheel.unlink(t)
}

// place links t into the slot covering its deadline, choosing the
// lowest level whose 64-slot window (relative to w.now) contains it.
func (w *Wheel) place(t *Timer) {
	delta := uint64(t.deadline - w.now)
	level := numLevels - 1
	for l := 0; l < numLevels; l++ {
		if delta>>shift(l) < numSlots {
			level = l
			break
		}
	}
	// Deadlines beyond the top level's span park in its furthest
	// bucket; they cascade toward exactness as the clock approaches.
	pos := uint64(t.deadline)
	if level == numLevels-1 {
		if max := uint64(w.now) + (uint64(numSlots)<<shift(level) - 1); pos > max {
			pos = max
		}
	}
	slot := (pos >> shift(level)) & slotMask
	t.level = uint8(level)
	t.slot = uint8(slot)
	t.wheel = w
	ls := &w.slots[level][slot]
	t.prev = ls.tail
	t.next = nil
	if ls.tail != nil {
		ls.tail.next = t
	} else {
		ls.head = t
	}
	ls.tail = t
	w.occupied[level] |= 1 << slot
}

// unlink removes t from its slot list and clears its armed marker.
func (w *Wheel) unlink(t *Timer) {
	ls := &w.slots[t.level][t.slot]
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		ls.head = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	} else {
		ls.tail = t.prev
	}
	if ls.head == nil {
		w.occupied[t.level] &^= 1 << uint64(t.slot)
	}
	t.next, t.prev, t.wheel = nil, nil, nil
	w.count--
}

// Next reports a lower bound on the earliest pending deadline, in time
// independent of how many timers are armed. Level 0 is exact: its
// buckets are one tick wide, so the handful of entries sharing a
// bucket are walked. A coarser level answers with the start of its
// first occupied bucket without looking inside — every entry parked
// there is due at or after that instant, and an Advance to it cascades
// the bucket onto finer levels, so a caller that keeps waking at Next
// reaches every deadline exactly and never sleeps past one.
//
// A level's current bucket is the one place a slot index is ambiguous:
// an entry placed 64 buckets ahead (or parked beyond the top level's
// span) shares it with the bucket now is in. On a coarse level nothing
// else can be there — Arm puts anything nearer on a finer level and
// Advance cascades the bucket it lands in — so it counts as a full
// turn away, which also keeps the bound strictly after now. On level 0
// both the current bucket and the next occupied one are walked.
//
//vids:noalloc consulted after every timer drain
func (w *Wheel) Next() (time.Duration, bool) {
	best := time.Duration(0)
	found := false
	for l := 0; l < numLevels; l++ {
		occ := w.occupied[l]
		if occ == 0 {
			continue
		}
		sh := shift(l)
		cur := int((uint64(w.now) >> sh) & slotMask)
		rot := bits.RotateLeft64(occ, -cur)
		// TrailingZeros64 of the other buckets is numSlots exactly when
		// the current one is the only one occupied.
		ahead := bits.TrailingZeros64(rot &^ 1)
		if l > 0 {
			if start := time.Duration((uint64(w.now)>>sh + uint64(ahead)) << sh); !found || start < best {
				best, found = start, true
			}
			continue
		}
		for _, slot := range [2]int{cur, cur + ahead} {
			for t := w.slots[0][slot&slotMask].head; t != nil; t = t.next {
				if !found || t.deadline < best {
					best, found = t.deadline, true
				}
			}
		}
	}
	return best, found
}

// Advance moves the clock to now and fires every timer whose deadline
// is at or before it, including timers armed by expiry callbacks for
// instants at or before now. The clock never moves backwards.
//
//vids:noalloc runs on the timer drain of every simulated instant
func (w *Wheel) Advance(now time.Duration) {
	if now < w.now {
		return
	}
	for {
		w.collect(now)
		if len(w.expired) == 0 {
			break
		}
		for i, t := range w.expired {
			w.expired[i] = nil
			if !t.expiring || t.wheel != nil {
				// Cancelled or re-armed by an earlier callback in
				// this batch.
				t.expiring = false
				continue
			}
			t.expiring = false
			w.fire(t) //vids:alloc-ok expiry dispatch; the IDS fire path is its own noalloc root
		}
		w.expired = w.expired[:0]
	}
}

// collect unlinks every due timer into w.expired (slot FIFO order,
// levels low to high), cascades surviving coarse entries toward finer
// levels and advances the clock.
func (w *Wheel) collect(now time.Duration) {
	w.expired = w.expired[:0]
	for l := 0; l < numLevels; l++ {
		if w.occupied[l] == 0 {
			continue
		}
		sh := shift(l)
		cur := int64(uint64(w.now) >> sh)
		end := int64(uint64(now) >> sh)
		if end-cur >= numSlots {
			cur = end - numSlots + 1
		}
		for tk := cur; tk <= end; tk++ {
			slot := tk & slotMask
			if w.occupied[l]&(1<<slot) == 0 {
				continue
			}
			// Stop at the entry that was last on the way in: an entry
			// still parked beyond the top level's span can be re-placed
			// onto the tail of this very list.
			last := w.slots[l][slot].tail
			for t, more := w.slots[l][slot].head, true; more; {
				next := t.next
				more = t != last
				if t.deadline <= now {
					w.unlink(t)
					t.expiring = true
					w.expired = append(w.expired, t)
				} else if l > 0 {
					// Survivor in a passed (or current) coarse
					// bucket: re-place relative to the new now so it
					// lands on a finer level.
					w.unlink(t)
					saved := w.now
					w.now = now
					w.place(t)
					w.now = saved
					w.count++
				}
				t = next
			}
		}
	}
	w.now = now
}
