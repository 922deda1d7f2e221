package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
)

// def declares one metric: its unit, which direction is better and, for
// an end-to-end metric, how far its median may worsen before that is a
// regression.
type def struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // share of the baseline; end-to-end only
	only   string  // reported by this workload alone; "" = by all
}

// endToEnd is what an operator of vids would see. The metrics every
// workload reports are the ones BENCHMARK.json lists. Memory per call
// exists on media_steady alone and the alert latency on attack_mix alone:
// there -compare holds them to their bounds, and BENCHMARK.json, whose
// end-to-end metrics every workload must report, lists them per layer
// (mem.heap_bytes_per_call, engine.alert_p50_us).
var endToEnd = []def{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "replay_pps", unit: "1/s", better: "higher", bound: 0.25},
	{name: "cpu_ns_per_pkt", unit: "ns", better: "lower", bound: 0.25},
	{name: "sojourn_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "heap_bytes_per_call", unit: "B", better: "lower", bound: 0.03, only: "media_steady"},
	{name: "alert_p50_us", unit: "us", better: "lower", bound: 0.25, only: "attack_mix"},
}

// perLayer lists the per-layer metrics in the order the README explains
// them. They carry no bound: they say where an end-to-end change came
// from.
var perLayer = []def{
	{name: "ingress.ingest_ns_sip", unit: "ns", better: "lower"},
	{name: "ingress.ingest_ns_media_hit", unit: "ns", better: "lower"},
	{name: "ingress.ingest_ns_media_escalated", unit: "ns", better: "lower"},
	{name: "ingress.absorbed_stray", unit: "count", better: "lower"},
	{name: "fastpath.consult_ns", unit: "ns", better: "lower"},
	{name: "fastpath.arm_cycle_ns", unit: "ns", better: "lower"},
	{name: "fastpath.hit_share_replay", unit: "ratio", better: "higher"},
	{name: "fastpath.hit_share_paced", unit: "ratio", better: "higher"},
	{name: "fastpath.misses", unit: "count", better: "lower"},
	{name: "fastpath.escalations", unit: "count", better: "lower"},
	{name: "fastpath.invalidations", unit: "count", better: "lower"},
	{name: "engine.enqueue_to_retire_us_p50", unit: "us", better: "lower"},
	{name: "engine.enqueue_to_retire_us_p99", unit: "us", better: "lower"},
	{name: "engine.queue_depth_mean", unit: "count", better: "lower"},
	{name: "engine.queue_depth_max", unit: "count", better: "lower"},
	{name: "engine.dropped", unit: "count", better: "lower"},
	{name: "engine.sojourn_p99_us", unit: "us", better: "lower"},
	{name: "engine.alert_p50_us", unit: "us", better: "lower"},
	{name: "engine.alert_p99_us", unit: "us", better: "lower"},
	{name: "sipmsg.parse_ns", unit: "ns", better: "lower"},
	{name: "sipmsg.parse_allocs", unit: "count", better: "lower"},
	{name: "rtp.extract_lite_ns", unit: "ns", better: "lower"},
	{name: "rtp.parse_ns", unit: "ns", better: "lower"},
	{name: "rtp.rtcp_parse_ns", unit: "ns", better: "lower"},
	{name: "sdp.media_dest_ns", unit: "ns", better: "lower"},
	{name: "ids.process_sip_ns", unit: "ns", better: "lower"},
	{name: "ids.process_sip_preparsed_ns", unit: "ns", better: "lower"},
	{name: "ids.process_rtp_ns", unit: "ns", better: "lower"},
	{name: "ids.call_lifecycle_ns", unit: "ns", better: "lower"},
	{name: "ids.sequential_pps", unit: "1/s", better: "higher"},
	{name: "ids.alerts", unit: "count", better: "higher"},
	{name: "ids.alert_repeats", unit: "count", better: "lower"},
	{name: "idsgen.step_ns", unit: "ns", better: "lower"},
	{name: "core.step_ns", unit: "ns", better: "lower"},
	{name: "timerwheel.arm_cancel_ns", unit: "ns", better: "lower"},
	{name: "timerwheel.advance_ns", unit: "ns", better: "lower"},
	{name: "intern.lookup_ns", unit: "ns", better: "lower"},
	{name: "bufpool.get_put_ns", unit: "ns", better: "lower"},
	{name: "bufpool.miss_share", unit: "ratio", better: "lower"},
	{name: "mem.allocs_per_pkt", unit: "count", better: "lower"},
	{name: "mem.bytes_per_pkt", unit: "B", better: "lower"},
	{name: "mem.gc_cycles", unit: "count", better: "lower"},
	{name: "mem.gc_pause_total_ms", unit: "ms", better: "lower"},
	{name: "mem.heap_growth_bytes", unit: "B", better: "lower"},
	{name: "mem.heap_bytes_per_call", unit: "B", better: "lower"},
	{name: "gen.ns_per_pkt", unit: "ns", better: "lower"},
	{name: "gen.late_share", unit: "ratio", better: "lower"},
	{name: "gen.max_lag_us", unit: "us", better: "lower"},
	{name: "gen.stolen_share", unit: "ratio", better: "lower"},
	{name: "trace.overhead_share", unit: "ratio", better: "lower"},
	{name: "trace.spans", unit: "count", better: "higher"},
	{name: "budget.sum_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "budget.paced_cpu_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "budget.coverage", unit: "ratio", better: "higher"},
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractMetrics projects a run's metrics onto the lists BENCHMARK.json
// declares: every listed metric, nothing else, value and unit only.
func contractMetrics(ms metrics, layers bool) map[string]valueUnit {
	defs := endToEnd
	if layers {
		defs = perLayer
	}
	out := map[string]valueUnit{}
	for _, d := range defs {
		if d.only == "" {
			out[d.name] = valueUnit{Value: ms[d.name].Value, Unit: d.unit}
		}
	}
	return out
}

// worsened reports by what share of base cur is worse, given which
// direction is better; negative when it improved.
func worsened(d def, base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	if d.better == "higher" {
		return (base - cur) / base
	}
	return (cur - base) / base
}

// comparable says why two result sets cannot be held against each other:
// every run must have measured for the same number of seconds, and the
// two sets must have run the same seeds.
func comparable(a, b []report) error {
	if len(a) == 0 || len(b) == 0 {
		return errors.New("a result set holds no report")
	}
	seeds := func(set []report) []int64 {
		var out []int64
		for _, r := range set {
			if r.Seconds != a[0].Seconds {
				return nil
			}
			out = append(out, r.Seed)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	sa, sb := seeds(a), seeds(b)
	if sa == nil || sb == nil {
		return errors.New("the runs did not all measure for the same number of seconds")
	}
	if !reflect.DeepEqual(sa, sb) {
		return fmt.Errorf("A ran seeds %v, B ran seeds %v", sa, sb)
	}
	return nil
}

// runsOf lists one workload's result in each run of a set.
func runsOf(set []report, workload string) []result {
	var out []result
	for _, rep := range set {
		for _, r := range rep.Results {
			if r.Workload == workload {
				out = append(out, r)
			}
		}
	}
	return out
}

// compareSets holds result set b to result set a: one row per workload
// and end-to-end metric with each set's median over its runs, and ok only
// if every median stays within its bound and no run of either set has a
// failed operation. A metric that a run marked as suspect says so in its
// row.
func compareSets(a, b []report, out io.Writer) (ok bool) {
	if err := comparable(a, b); err != nil {
		fmt.Fprintf(out, "not comparable: %v  FAIL\n", err)
		return false
	}
	ok = true
	// valuesOf lists a metric over runs; nil unless every run reports it.
	valuesOf := func(runs []result, name string) (vals []float64, mark string) {
		for _, r := range runs {
			m, found := r.EndToEnd[name]
			if !found {
				return nil, ""
			}
			vals = append(vals, m.Value)
			if m.Mark != "" {
				mark = m.Mark
			}
		}
		return vals, mark
	}
	fmt.Fprintf(out, "medians of %d runs (A) and %d runs (B)\n", len(a), len(b))
	fmt.Fprintf(out, "%-14s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse by", "bound", "")
	for _, first := range a[0].Results {
		name := first.Workload
		runsA, runsB := runsOf(a, name), runsOf(b, name)
		if len(runsA) != len(a) || len(runsB) != len(b) {
			fmt.Fprintf(out, "%-14s missing from a run  FAIL\n", name)
			ok = false
			continue
		}
		for _, side := range []struct {
			tag  string
			runs []result
		}{{"A", runsA}, {"B", runsB}} {
			var failed, attempted uint64
			for _, r := range side.runs {
				failed, attempted = failed+r.Failed, attempted+r.Attempted
			}
			if failed > 0 {
				fmt.Fprintf(out, "%-14s %-22s %s: %d of %d operations failed  FAIL\n", name, "failed_share", side.tag, failed, attempted)
				ok = false
			}
		}
		for _, d := range endToEnd {
			if d.only != "" && d.only != name {
				continue
			}
			va, mark := valuesOf(runsA, d.name)
			vb, markB := valuesOf(runsB, d.name)
			if va == nil || vb == nil {
				fmt.Fprintf(out, "%-14s %-22s missing  FAIL\n", name, d.name)
				ok = false
				continue
			}
			ma, mb := median(va), median(vb)
			w := worsened(d, ma, mb)
			verdict := "ok"
			if w > d.bound {
				verdict = "FAIL"
				ok = false
			}
			if mark == "" {
				mark = markB
			}
			if mark != "" {
				verdict += "  (" + mark + ")"
			}
			fmt.Fprintf(out, "%-14s %-22s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n", name, d.name, ma, mb, w*100, d.bound*100, verdict)
		}
	}
	return ok
}

// readReports reads a result set: the reports of one or more full runs,
// one after the other in a file, as `go run ./bench -seed N >> A.json`
// leaves them.
func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var set []report
	for dec := json.NewDecoder(f); ; {
		var r report
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			return set, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		set = append(set, r)
	}
}

func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readReports(pathA)
	if err == nil {
		var b []report
		if b, err = readReports(pathB); err == nil {
			if compareSets(a, b, stdout) {
				return 0
			}
			return 1
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}
