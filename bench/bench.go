package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// result is everything one workload run reports.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Correct   bool     `json:"correct"`
	Attempted uint64   `json:"attempted"`
	Failed    uint64   `json:"failed"`
	Why       []string `json:"why,omitempty"`
	EndToEnd  metrics  `json:"end_to_end,omitempty"`
	PerLayer  metrics  `json:"per_layer,omitempty"`
}

// plan is how a run spends its time.
type plan struct {
	timing
	endToEnd bool // report the end-to-end metrics
	perLayer bool // run the traced pass and the layer timings and report those
	setups   int  // how often set-up runs; setup_s is the median
	verify   int  // packets of the verify prefix before it drains
	replay   int  // closed-loop windows
	paced    int  // open-loop windows
	traced   int  // traced open-loop windows
	layers   time.Duration
}

// planFor splits the measured seconds between the phases; each phase has
// a one-second warm-up on top. A run that reports end-to-end metrics
// spends them all on the untraced phases and sets up five times; a
// per-layer run shortens the untraced phases to fit the traced pass and
// the layer timings and sets up once; a full run does both at full
// length.
func planFor(seconds int, endToEnd, perLayer bool) plan {
	tm := timing{warmup: time.Second, replayWindow: 100 * time.Millisecond, pacedWindow: time.Second}
	perSecond := int(time.Second / tm.replayWindow)
	pl := plan{timing: tm, endToEnd: endToEnd, perLayer: perLayer,
		setups: 5, verify: 50_000, replay: seconds / 2 * perSecond, paced: seconds - seconds/2}
	if perLayer {
		pl.traced, pl.layers = seconds/5, 3*time.Second
	}
	if !endToEnd {
		pl.setups, pl.replay, pl.paced = 1, seconds/5*perSecond, seconds/4
	}
	return pl
}

// prepared is what set-up hands to the timed phases.
type prepared struct {
	wire        *wire
	cap         *captured
	expects     *[nClasses][]expect
	p           *pipeline
	heapPerCall float64
}

// setup builds the packet templates, runs the verify phase and constructs
// and pre-fills the pinned pipeline. Where the pre-fill leaves calls
// resident, the after-GC heap they added is the memory per call (paper
// section 7.3 reports it the same way).
func setup(w *workload, seed int64, pl plan) (prepared, error) {
	var pr prepared
	var err error
	pr.wire = buildWire()
	if pr.cap, pr.expects, err = verify(w, pr.wire, seed, pl.verify); err != nil {
		return pr, err
	}
	pr.p = newPipeline(w, pr.wire, seed, pl.timing, pr.expects)
	if w.resident == 0 {
		return pr, nil
	}
	before := heapAfterGC()
	pr.p.prefill()
	pr.heapPerCall = (float64(heapAfterGC()) - float64(before)) / float64(w.resident)
	return pr, nil
}

func runWorkload(w *workload, seed int64, pl plan, traceOut io.Writer, logf func(string, ...any)) result {
	res := result{Workload: w.name, Seed: seed, EndToEnd: metrics{}, PerLayer: metrics{}}
	fail := func(err error) result {
		res.Attempted, res.Failed = 1, 1
		res.Why = append(res.Why, err.Error())
		return res
	}

	var pr prepared
	var setups []float64
	for i := 0; i < pl.setups; i++ {
		if pr.p != nil {
			_ = pr.p.ing.Close()
		}
		t0 := time.Now()
		var err error
		if pr, err = setup(w, seed, pl); err != nil {
			return fail(err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	p := pr.p
	logf("%s: set-up %.3fs (median of %d), verify prefix %d packets", w.name, median(setups), len(setups), len(pr.cap.entries))

	rp := p.replay(pl.replay)
	logf("%s: replay %.0f pkts/s, %.0f cpu ns/pkt (%d windows), fast-path hit share %.3f", w.name, trimmedMean(rp.pps), trimmedMean(rp.cpu), len(rp.pps), hitShare(rp.base, rp.end))
	pc := p.paced(pl.paced, false)
	s50, s99, pct, n := sojournOf(pc.rec)
	logf("%s: paced %.0f pkts/s: sojourn p50 %.1fus p%.0f %.1fus (%d samples), hit share %.3f, late share %.4f",
		w.name, w.rate, s50, pct*100, s99, n, hitShare(pc.base, pc.end), lateShare(pc))

	e := res.EndToEnd
	e.set("setup_s", median(setups), "s", len(setups))
	e.set("replay_pps", trimmedMean(rp.pps), "1/s", len(rp.pps))
	e.set("cpu_ns_per_pkt", trimmedMean(rp.cpu), "ns", len(rp.cpu))
	e.set("sojourn_p50_us", s50, "us", n)
	if w.resident > 0 {
		e.set("heap_bytes_per_call", pr.heapPerCall, "B", w.resident)
	}
	if w.attacks {
		a := pc.rec.alerts.sorted()
		e.set("alert_p50_us", quantile(a, 0.5)/1e3, "us", len(a))
	}

	var tr pacedResult
	if pl.perLayer {
		tr = p.paced(pl.traced, true)
		if traceOut != nil {
			if err := writeSpans(traceOut, w.name, tr.rec); err != nil {
				res.Why = append(res.Why, fmt.Sprintf("trace-out: %v", err))
				res.Failed++
			}
		}
	}

	_, failed, why := p.finish()
	res.Attempted = p.offered + uint64(p.g.expected)
	res.Failed += failed
	res.Why = append(res.Why, why...)
	res.Correct = res.Failed == 0
	e.set("failed_share", float64(res.Failed)/float64(res.Attempted), "ratio", int(res.Attempted))
	if ls := lateShare(pc); ls > lateLimit {
		why := fmt.Sprintf("gen.late_share %.3f > %g", ls, lateLimit)
		e.mark("sojourn_p50_us", why)
		e.mark("alert_p50_us", why)
		logf("%s: generator ran late on %.1f %% of batches: latencies are marked", w.name, ls*100)
	}

	if pl.perLayer {
		// The isolated timings allocate; run them once the pipeline's heap
		// is gone, or its collections would be charged to them.
		repeats := p.repeats
		pr.p, p = nil, nil
		runtime.GC()
		layerMetrics(res.PerLayer, w, &pr, rp, pc, tr, repeats, pl.layers, seed)
	}
	if !pl.endToEnd {
		res.EndToEnd = nil
	}
	if !pl.perLayer {
		res.PerLayer = nil
	}
	return res
}

func lateShare(pc pacedResult) float64 {
	if pc.batches == 0 {
		return 0
	}
	return float64(pc.late) / float64(pc.batches)
}

// sojournOf reduces a paced phase's windows to the median over windows
// of each window's p50 and tail percentile, in microseconds. The tail is
// the highest percentile with ten samples beyond it in the thinnest
// window.
func sojournOf(rec *recorder) (p50, tail, pct float64, samples int) {
	var sorted [][]int64
	least := -1
	for _, w := range rec.win {
		s := w.sorted()
		sorted = append(sorted, s)
		samples += len(s)
		if least < 0 || len(s) < least {
			least = len(s)
		}
	}
	pct = tailPct(least)
	var p50s, tails []float64
	for _, s := range sorted {
		p50s = append(p50s, quantile(s, 0.5)/1e3)
		tails = append(tails, quantile(s, pct)/1e3)
	}
	return median(p50s), median(tails), pct, samples
}

// names lists a metrics map's keys in order.
func (m metrics) names() []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
