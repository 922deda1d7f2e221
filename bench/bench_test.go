package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"vids/internal/bufpool"
)

// sinkGen is a generator feeding a sink that retires every packet at
// once, the way the pipeline's retire hook would.
type sinkGen struct {
	g    *gen
	pool *bufpool.Pool
}

func newSinkGen(w *workload, wr *wire, seed int64) *sinkGen {
	pool := bufpool.New(bufferSize)
	return &sinkGen{g: newGen(w, wr, seed, pool), pool: pool}
}

func (s *sinkGen) one(visit func(idx int32, at time.Duration)) {
	idx, at, _ := s.g.next()
	s.g.stamp(idx, at, 1, true)
	if visit != nil {
		visit(idx, at)
	}
	if raw, ok := s.g.pkts[idx].Payload.([]byte); ok {
		s.pool.Put(raw)
	}
	s.g.release(&s.g.pkts[idx])
}

// streamHash digests the first n packets of a workload's stream: time,
// addressing, protocol and payload.
func streamHash(w *workload, wr *wire, seed int64, n int) [sha256.Size]byte {
	s := newSinkGen(w, wr, seed)
	h := sha256.New()
	for i := 0; i < n; i++ {
		s.one(func(idx int32, at time.Duration) {
			p := &s.g.pkts[idx]
			raw, _ := p.Payload.([]byte)
			io.WriteString(h, at.String()+p.From.String()+p.To.String()+p.Proto.String())
			h.Write(raw)
		})
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func TestSameSeedSameStream(t *testing.T) {
	wr := buildWire()
	for i := range workloads {
		w := &workloads[i]
		a, b, c := streamHash(w, wr, 7, 10_000), streamHash(w, wr, 7, 10_000), streamHash(w, wr, 8, 10_000)
		if a != b {
			t.Errorf("%s: seed 7 gave two different streams", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
	}
}

func TestGeneratorSteadyStateAllocatesNothing(t *testing.T) {
	wr := buildWire()
	for i := range workloads {
		w := &workloads[i]
		s := newSinkGen(w, wr, 1)
		for j := 0; j < 60_000; j++ { // past the attack rounds' first timers and every table's first growth
			s.one(nil)
		}
		if allocs := testing.AllocsPerRun(5_000, func() { s.one(nil) }); allocs != 0 {
			t.Errorf("%s: generator allocates %.2f times per packet in steady state", w.name, allocs)
		}
	}
}

// TestWorkloadsAgainstReference pushes ~20 K packets of every workload
// through the pinned pipeline twice: once in the verify phase, which
// demands the accounting identity, the sequential reference's exact
// alerts and none at all on the benign mixes; and once holding the
// pipeline to the per-instance alert expectations verify learned, the
// way the timed phases do.
func TestWorkloadsAgainstReference(t *testing.T) {
	wr := buildWire()
	for i := range workloads {
		w := &workloads[i]
		c, expects, err := verify(w, wr, 3, 20_000)
		if err != nil {
			t.Errorf("%s: %v", w.name, err)
			continue
		}
		if len(c.entries) < 20_000 {
			t.Errorf("%s: verify prefix has only %d packets", w.name, len(c.entries))
		}
		p := newPipeline(w, wr, 3, timing{}, expects)
		p.prefill()
		for n := 0; n < 20_000; n++ {
			p.send(0, false)
		}
		st, failed, why := p.finish()
		if failed != 0 {
			t.Errorf("%s: %d failed operations: %v", w.name, failed, why)
		}
		if w.attacks {
			if p.g.expected == 0 || p.matched != p.g.expected {
				t.Errorf("%s: matched %d of %d expected alerts", w.name, p.matched, p.g.expected)
			}
		} else if st.Alerts != 0 {
			t.Errorf("%s: benign mix raised %d alerts", w.name, st.Alerts)
		}
		if w.resident > 0 && float64(st.FastpathHits) < 0.9*float64(p.g.emitted[kRTP]) {
			t.Errorf("%s: only %d of %d RTP packets absorbed", w.name, st.FastpathHits, p.g.emitted[kRTP])
		}
	}
}

// TestFullRunSmoke runs every phase of one workload with millisecond
// windows: replay, paced, the traced pass with its span file, the layer
// timings, and the contract's result line for both trace settings.
func TestFullRunSmoke(t *testing.T) {
	w := findWorkload("attack_mix")
	pl := planFor(10, true, true)
	pl.timing = timing{warmup: 50 * time.Millisecond, replayWindow: 5 * time.Millisecond, pacedWindow: 50 * time.Millisecond}
	pl.verify, pl.layers = 20_000, 100*time.Millisecond
	var spans bytes.Buffer
	res := runWorkload(w, 5, pl, &spans, t.Logf)
	if !res.Correct || res.Attempted == 0 {
		t.Fatalf("run failed: %d of %d: %v", res.Failed, res.Attempted, res.Why)
	}
	for _, d := range endToEnd {
		if d.only != "" && d.only != w.name {
			continue
		}
		if m, ok := res.EndToEnd[d.name]; !ok || m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
		}
	}
	for _, d := range perLayer {
		if _, ok := res.PerLayer[d.name]; !ok {
			t.Errorf("per-layer metric %s missing", d.name)
		}
	}
	for name := range res.PerLayer {
		if !defined(perLayer, name) {
			t.Errorf("per-layer metric %s is not declared", name)
		}
	}
	// A number the run itself distrusts carries a mark, and only then.
	if c := res.PerLayer["budget.coverage"]; (c.Value < 0.9 || c.Value > 1.1) != (c.Mark != "") {
		t.Errorf("budget.coverage %.3f has mark %q", c.Value, c.Mark)
	}
	if late := res.PerLayer["gen.late_share"].Value; (late > lateLimit) != (res.EndToEnd["sojourn_p50_us"].Mark != "") {
		t.Errorf("gen.late_share %.4f, sojourn_p50_us has mark %q", late, res.EndToEnd["sojourn_p50_us"].Mark)
	}
	names := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(spans.String()), "\n") {
		var s struct {
			Name       string
			Start, End int64 `json:"-"`
		}
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("span line %q: %v", line, err)
		}
		names[s.Name] = true
	}
	for _, want := range []string{"pkt", "ingress.ingest", "engine.shard", "alert"} {
		if !names[want] {
			t.Errorf("no %q span written", want)
		}
	}
}

func defined(defs []def, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables in compare.go saying the same thing.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string
		Unit   string
		Better string
		Bound  float64
		Why    string
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d declared, %d defined", doc.RunSeconds, runSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q, defined %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, declared []entry, defs []def, bounded bool) {
		var want []def
		for _, d := range defs {
			if d.only == "" {
				want = append(want, d)
			}
		}
		if len(declared) != len(want) {
			t.Errorf("%s: %d metrics declared, %d defined", kind, len(declared), len(want))
			return
		}
		for i, e := range declared {
			d := want[i]
			if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || (bounded && e.Bound != d.bound) {
				t.Errorf("%s: declared %+v, defined %+v", kind, e, d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
