package main

import (
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// metric is one reported number: its value, unit, how many samples it
// rests on, for a tail latency the percentile actually reported, and a
// mark when the run itself says the number should be distrusted.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Pct     float64 `json:"pct,omitempty"`
	Mark    string  `json:"mark,omitempty"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string, samples int) {
	m[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// mark flags a metric that has samples as suspect and says why.
func (m metrics) mark(name, why string) {
	if x := m[name]; x.Samples > 0 {
		x.Mark = why
		m[name] = x
	}
}

// series collects latency samples from any goroutine into storage
// allocated before the phase starts; samples past the capacity are
// counted but dropped.
type series struct {
	n atomic.Int64
	v []int64
}

func newSeries(capacity int) *series { return &series{v: make([]int64, capacity)} }

func (s *series) add(x int64) {
	if i := s.n.Add(1) - 1; int(i) < len(s.v) {
		s.v[i] = x
	}
}

// sorted returns the samples in ascending order. Call it only once the
// writers are quiescent.
func (s *series) sorted() []int64 {
	n := int(s.n.Load())
	if n > len(s.v) {
		n = len(s.v)
	}
	out := s.v[:n]
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile interpolates linearly between the two nearest ranks.
func quantile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[lo+1])*frac
}

// tailPct is the highest percentile of the ladder that still has at
// least ten samples beyond it.
func tailPct(n int) float64 {
	for _, p := range []float64{0.99, 0.95, 0.90, 0.75} {
		if float64(n)*(1-p) >= 10 {
			return p
		}
	}
	return 0.5
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// trimmedMean is the mean of xs without its lowest and highest tenth. The
// reference machine's cores switch between two clock speeds a third apart
// for a second or so at a time, so a phase's windows fall into two
// clusters and their median jumps between them with the share of time
// spent in each; the trimmed mean moves with that share smoothly and
// still drops the windows a collection or a descheduled thread spoiled.
func trimmedMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[len(s)/10 : len(s)-len(s)/10]
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// cpuNanos is the process's user+system CPU time so far.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// heapAfterGC is the live heap once two collections have run (the second
// frees what the first's finalizers and sync.Pool victims held).
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// timeOp reports the median ns per call of op, from batches sized to run
// about a millisecond each for roughly budget in total.
func timeOp(budget time.Duration, op func()) (ns float64, batches int) {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		if d := time.Since(t0); d >= time.Millisecond || n >= 1<<24 {
			break
		}
		n *= 2
	}
	var per []float64
	for end := time.Now().Add(budget); time.Now().Before(end); {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	return median(per), len(per)
}
