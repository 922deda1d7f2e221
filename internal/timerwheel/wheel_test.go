package timerwheel

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

type rec struct {
	fired []*Timer
	ats   []time.Duration
	w     *Wheel
}

func newRec() *rec {
	r := &rec{}
	r.w = New(func(t *Timer) {
		r.fired = append(r.fired, t)
		r.ats = append(r.ats, r.w.Now())
	})
	return r
}

func TestFireAtExactDeadline(t *testing.T) {
	r := newRec()
	var tm Timer
	r.w.Arm(&tm, 250*time.Millisecond)
	r.w.Advance(249 * time.Millisecond)
	if len(r.fired) != 0 {
		t.Fatalf("fired early: %v", r.ats)
	}
	if !tm.Armed() {
		t.Fatal("timer should still be armed")
	}
	r.w.Advance(250 * time.Millisecond)
	if len(r.fired) != 1 || r.ats[0] != 250*time.Millisecond {
		t.Fatalf("fired = %v at %v", r.fired, r.ats)
	}
	if tm.Armed() || r.w.Len() != 0 {
		t.Fatal("timer should be disarmed after firing")
	}
}

func TestSameDeadlineFIFO(t *testing.T) {
	r := newRec()
	tms := make([]Timer, 5)
	for i := range tms {
		tms[i].Kind = uint8(i)
		r.w.Arm(&tms[i], time.Second)
	}
	r.w.Advance(time.Second)
	if len(r.fired) != 5 {
		t.Fatalf("fired %d of 5", len(r.fired))
	}
	for i, f := range r.fired {
		if f.Kind != uint8(i) {
			t.Fatalf("fire order %d got kind %d (want arm order)", i, f.Kind)
		}
	}
}

func TestCancelAndRearm(t *testing.T) {
	r := newRec()
	var a, b Timer
	r.w.Arm(&a, 10*time.Millisecond)
	r.w.Arm(&b, 20*time.Millisecond)
	r.w.Cancel(&a)
	if a.Armed() || r.w.Len() != 1 {
		t.Fatal("cancel did not unlink")
	}
	r.w.Arm(&b, 50*time.Millisecond) // re-arm moves the deadline
	r.w.Advance(30 * time.Millisecond)
	if len(r.fired) != 0 {
		t.Fatal("cancelled/re-armed timers fired")
	}
	r.w.Advance(50 * time.Millisecond)
	if len(r.fired) != 1 || r.fired[0] != &b || r.ats[0] != 50*time.Millisecond {
		t.Fatalf("re-armed fire = %v at %v", r.fired, r.ats)
	}
}

func TestPastDeadlineClampsToNow(t *testing.T) {
	r := newRec()
	r.w.Advance(time.Second)
	var tm Timer
	r.w.Arm(&tm, 100*time.Millisecond) // in the past
	r.w.Advance(time.Second)           // no clock movement needed
	if len(r.fired) != 1 || r.ats[0] != time.Second {
		t.Fatalf("past-deadline timer: fired=%v at %v", r.fired, r.ats)
	}
}

func TestCascadeAcrossLevels(t *testing.T) {
	// Deadlines far enough out to park on coarse levels must still
	// fire at their exact instant.
	for _, d := range []time.Duration{
		500 * time.Millisecond, // level 1
		30 * time.Second,       // level 2
		5 * time.Minute,        // level 3
		48 * time.Hour,         // level 4 span
		400 * time.Hour,        // beyond the top level: parked
	} {
		r := newRec()
		var tm Timer
		r.w.Arm(&tm, d)
		// Anchor discipline: walk Next() until the timer fires.
		for i := 0; i < 1000 && r.w.Len() > 0; i++ {
			at, ok := r.w.Next()
			if !ok {
				t.Fatalf("d=%v: Next lost the timer", d)
			}
			if at > d {
				t.Fatalf("d=%v: Next overestimated: %v", d, at)
			}
			r.w.Advance(at)
		}
		if len(r.fired) != 1 || r.ats[0] != d {
			t.Fatalf("d=%v: fired=%d at=%v", d, len(r.fired), r.ats)
		}
	}
}

func TestCallbackArmsSameInstant(t *testing.T) {
	w := New(nil)
	var second Timer
	second.Kind = 1
	count := 0
	w.fire = func(tm *Timer) {
		count++
		if tm.Kind == 0 {
			w.Arm(&second, w.Now()) // due immediately
		}
	}
	var first Timer
	w.Arm(&first, time.Millisecond)
	w.Advance(time.Millisecond)
	if count != 2 {
		t.Fatalf("chained same-instant timer: fired %d of 2", count)
	}
}

func TestCallbackCancelsSibling(t *testing.T) {
	w := New(nil)
	var a, b Timer
	fired := []*Timer{}
	w.fire = func(tm *Timer) {
		fired = append(fired, tm)
		if tm == &a {
			w.Cancel(&b) // b expired in the same batch
		}
	}
	w.Arm(&a, time.Millisecond)
	w.Arm(&b, time.Millisecond)
	w.Advance(time.Millisecond)
	if len(fired) != 1 || fired[0] != &a {
		t.Fatalf("cancelled sibling still fired: %v", fired)
	}
	if w.Len() != 0 {
		t.Fatalf("wheel not empty: %d", w.Len())
	}
}

func TestCallbackRearmsSibling(t *testing.T) {
	w := New(nil)
	var a, b Timer
	var ats []time.Duration
	var order []*Timer
	w.fire = func(tm *Timer) {
		order = append(order, tm)
		ats = append(ats, w.Now())
		if tm == &a && len(order) == 1 {
			w.Arm(&b, w.Now()+time.Second) // postpone the due sibling
		}
	}
	w.Arm(&a, time.Millisecond)
	w.Arm(&b, time.Millisecond)
	w.Advance(time.Millisecond)
	if len(order) != 1 {
		t.Fatalf("postponed sibling fired in same batch: %d fires", len(order))
	}
	w.Advance(time.Millisecond + time.Second)
	if len(order) != 2 || order[1] != &b || ats[1] != time.Millisecond+time.Second {
		t.Fatalf("postponed sibling: order=%v ats=%v", order, ats)
	}
}

// Property: for random deadlines consumed via the Next/Advance anchor
// loop, every timer fires exactly at its deadline in nondecreasing
// deadline order, and the wheel drains completely.
func TestRandomDeadlinesAnchorLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		r := newRec()
		const n = 200
		tms := make([]Timer, n)
		want := make([]time.Duration, n)
		for i := range tms {
			d := time.Duration(rng.Int63n(int64(10 * time.Minute)))
			want[i] = d
			r.w.Arm(&tms[i], d)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for steps := 0; r.w.Len() > 0; steps++ {
			if steps > 100*n {
				t.Fatalf("trial %d: anchor loop did not drain (%d left)", trial, r.w.Len())
			}
			at, ok := r.w.Next()
			if !ok {
				t.Fatalf("trial %d: Next lost %d timers", trial, r.w.Len())
			}
			r.w.Advance(at)
		}
		if len(r.ats) != n {
			t.Fatalf("trial %d: fired %d of %d", trial, len(r.ats), n)
		}
		for i, at := range r.ats {
			if at != want[i] {
				t.Fatalf("trial %d: fire %d at %v, want %v", trial, i, at, want[i])
			}
			if at != r.fired[i].Deadline() {
				t.Fatalf("trial %d: fire %d at %v but deadline %v", trial, i, at, r.fired[i].Deadline())
			}
		}
	}
}

// Property: a single large Advance fires exactly the due subset.
func TestBulkAdvanceFiresDueSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		r := newRec()
		const n = 300
		tms := make([]Timer, n)
		for i := range tms {
			r.w.Arm(&tms[i], time.Duration(rng.Int63n(int64(2*time.Minute))))
		}
		cut := time.Duration(rng.Int63n(int64(2 * time.Minute)))
		r.w.Advance(cut)
		due := 0
		for i := range tms {
			if tms[i].Deadline() <= cut {
				due++
				if tms[i].Armed() {
					t.Fatalf("trial %d: due timer (d=%v cut=%v) still armed", trial, tms[i].Deadline(), cut)
				}
			} else if !tms[i].Armed() {
				t.Fatalf("trial %d: future timer (d=%v cut=%v) disarmed", trial, tms[i].Deadline(), cut)
			}
		}
		if len(r.fired) != due {
			t.Fatalf("trial %d: fired %d, want %d", trial, len(r.fired), due)
		}
		if r.w.Len() != n-due {
			t.Fatalf("trial %d: wheel len %d, want %d", trial, r.w.Len(), n-due)
		}
	}
}

func TestAllocationFreeSteadyState(t *testing.T) {
	w := New(func(*Timer) {})
	tms := make([]Timer, 8)
	// Warm the expired buffer.
	for i := range tms {
		w.Arm(&tms[i], w.Now()+time.Duration(i)*time.Millisecond)
	}
	w.Advance(w.Now() + time.Second)
	now := w.Now()
	allocs := testing.AllocsPerRun(500, func() {
		now += 10 * time.Millisecond
		for i := range tms {
			w.Arm(&tms[i], now+time.Duration(i+1)*33*time.Millisecond)
		}
		w.Cancel(&tms[0])
		w.Advance(now)
	})
	if allocs != 0 {
		t.Fatalf("arm/cancel/advance allocated %.1f per cycle, want 0", allocs)
	}
}

// loadedWheel parks n timers in one level-2 bucket (deadlines spread
// over a few milliseconds around 10 s) — the shape the engine's
// close-linger and idle timers take under call churn.
func loadedWheel(n int) (*Wheel, []Timer) {
	w := New(func(*Timer) {})
	tms := make([]Timer, n)
	for i := range tms {
		w.Arm(&tms[i], 10*time.Second+time.Duration(i)*100*time.Nanosecond)
	}
	return w, tms
}

// TestNextLoadedBucket: with 50 K timers sharing one coarse bucket,
// Next answers with that bucket's start (a lower bound, not a walk),
// and waking at Next still drains every timer at its exact deadline in
// deadline order.
func TestNextLoadedBucket(t *testing.T) {
	const n = 50000
	var fired []time.Duration
	w, tms := loadedWheel(n)
	w.fire = func(tm *Timer) {
		if w.Now() != tm.Deadline() {
			t.Fatalf("fired at %v, deadline %v", w.Now(), tm.Deadline())
		}
		fired = append(fired, w.Now())
	}
	if tms[0].level != 2 || tms[n-1].level != 2 || tms[0].slot != tms[n-1].slot {
		t.Fatalf("fixture does not share one level-2 bucket: levels %d/%d slots %d/%d",
			tms[0].level, tms[n-1].level, tms[0].slot, tms[n-1].slot)
	}
	at, ok := w.Next()
	if !ok || at > 10*time.Second || at <= 0 {
		t.Fatalf("Next = %v, %v; want a positive lower bound of 10s", at, ok)
	}
	if want := time.Duration(uint64(10*time.Second) >> shift(2) << shift(2)); at != want {
		t.Fatalf("Next = %v, want the bucket start %v", at, want)
	}
	for steps := 0; w.Len() > 0; steps++ {
		if steps > 2*n {
			t.Fatalf("anchor loop did not drain: %d left", w.Len())
		}
		at, ok := w.Next()
		if !ok {
			t.Fatalf("Next lost %d timers", w.Len())
		}
		w.Advance(at)
	}
	if len(fired) != n || !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
		t.Fatalf("fired %d of %d, sorted=%v", len(fired), n,
			sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }))
	}
}

// TestRandomOpsAgainstOracle drives random arm / re-arm / cancel /
// run-until sequences the way wheelClock does — the wheel only ever
// advances to an anchor taken from Next, while deadlines are armed off
// a virtual clock that runs ahead of it — against a sorted-slice
// oracle. Every anchor must be at or before the true minimum, and the
// fire log (instant and timer, ties compared as sets) must equal the
// oracle's.
func TestRandomOpsAgainstOracle(t *testing.T) {
	type fire struct {
		at time.Duration
		id int
	}
	spans := []time.Duration{ // one per wheel level, plus beyond the top
		50 * time.Millisecond, 3 * time.Second, 4 * time.Minute,
		3 * time.Hour, 200 * time.Hour, 500 * time.Hour,
	}
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const n = 64
		tms := make([]Timer, n)
		index := make(map[*Timer]int, n)
		for i := range tms {
			index[&tms[i]] = i
		}
		var got, want []fire
		var w *Wheel
		w = New(func(tm *Timer) { got = append(got, fire{w.Now(), index[tm]}) })
		armed := make(map[int]time.Duration) // oracle: id -> deadline
		vnow := time.Duration(0)

		runUntil := func(target time.Duration) {
			for {
				min, any := time.Duration(0), false
				for _, d := range armed {
					if !any || d < min {
						min, any = d, true
					}
				}
				at, ok := w.Next()
				if ok != any {
					t.Fatalf("seed %d: Next ok=%v with %d armed", seed, ok, len(armed))
				}
				if !ok {
					break
				}
				if at > min {
					t.Fatalf("seed %d: anchor %v is later than the true minimum %v", seed, at, min)
				}
				if at > target {
					break
				}
				var due []fire
				for id, d := range armed {
					if d <= at {
						due = append(due, fire{d, id})
						delete(armed, id)
					}
				}
				sort.Slice(due, func(i, j int) bool { return due[i].id < due[j].id })
				want = append(want, due...)
				w.Advance(at)
			}
			vnow = target
		}

		for op := 0; op < 2000; op++ {
			id := rng.Intn(n)
			switch k := rng.Intn(10); {
			case k < 5:
				span := spans[rng.Intn(len(spans))]
				d := vnow + time.Duration(rng.Int63n(int64(span)))
				w.Arm(&tms[id], d)
				if d < w.Now() {
					d = w.Now()
				}
				armed[id] = d
			case k < 7:
				w.Cancel(&tms[id])
				delete(armed, id)
			default:
				span := spans[rng.Intn(4)]
				runUntil(vnow + time.Duration(rng.Int63n(int64(span))))
			}
			if w.Len() != len(armed) {
				t.Fatalf("seed %d op %d: wheel holds %d, oracle %d", seed, op, w.Len(), len(armed))
			}
		}
		runUntil(vnow + 1000*time.Hour)
		if len(armed) != 0 || w.Len() != 0 {
			t.Fatalf("seed %d: %d timers never fired", seed, w.Len())
		}

		// Same instants in the same order; within one instant the batch
		// order is the wheel's slot FIFO, so compare ties as sets.
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d, oracle %d", seed, len(got), len(want))
		}
		for i := 0; i < len(got); {
			j := i
			for j < len(got) && got[j].at == got[i].at {
				j++
			}
			batch := append([]fire(nil), got[i:j]...)
			sort.Slice(batch, func(a, b int) bool { return batch[a].id < batch[b].id })
			for k := range batch {
				if batch[k] != want[i+k] {
					t.Fatalf("seed %d: fire %d = %+v, oracle %+v", seed, i+k, batch[k], want[i+k])
				}
			}
			i = j
		}
	}
}
