package main

import (
	"io"
	"testing"
)

func reportWith(workload string, seed int64, failed uint64, values map[string]float64) report {
	res := result{Workload: workload, Attempted: 1000, Failed: failed, EndToEnd: metrics{}}
	for _, d := range endToEnd {
		if d.only != "" && d.only != workload {
			continue
		}
		v := 100.0
		if x, ok := values[d.name]; ok {
			v = x
		}
		res.EndToEnd.set(d.name, v, d.unit, 1)
	}
	return report{Seed: seed, Seconds: runSeconds, Results: []result{res}}
}

func TestCompareSets(t *testing.T) {
	for _, tc := range []struct {
		name     string
		workload string
		b        map[string]float64
		failedB  uint64
		dropB    string // metric removed from B
		ok       bool
	}{
		{name: "identical", workload: "call_mix", ok: true},
		{name: "lower-is-better inside its bound", workload: "call_mix", b: map[string]float64{"cpu_ns_per_pkt": 124}, ok: true},
		{name: "lower-is-better past its bound", workload: "call_mix", b: map[string]float64{"cpu_ns_per_pkt": 126}},
		{name: "higher-is-better inside its bound", workload: "call_mix", b: map[string]float64{"replay_pps": 76}, ok: true},
		{name: "higher-is-better past its bound", workload: "call_mix", b: map[string]float64{"replay_pps": 74}},
		{name: "an improvement of any size passes", workload: "call_mix", b: map[string]float64{"replay_pps": 400, "sojourn_p50_us": 1}, ok: true},
		{name: "memory per call has the tightest bound", workload: "media_steady", b: map[string]float64{"heap_bytes_per_call": 102.9}, ok: true},
		{name: "memory per call past it", workload: "media_steady", b: map[string]float64{"heap_bytes_per_call": 103.1}},
		{name: "memory per call is not asked of a mix without resident calls", workload: "sip_churn", b: map[string]float64{"heap_bytes_per_call": 999}, ok: true},
		{name: "alert latency is held on attack_mix", workload: "attack_mix", b: map[string]float64{"alert_p50_us": 126}},
		{name: "alert latency is not asked of a benign mix", workload: "call_mix", b: map[string]float64{"alert_p50_us": 999}, ok: true},
		{name: "a failed operation fails the comparison", workload: "call_mix", failedB: 1},
		{name: "a missing metric fails the comparison", workload: "call_mix", dropB: "replay_pps"},
	} {
		a, b := reportWith(tc.workload, 1, 0, nil), reportWith(tc.workload, 1, tc.failedB, tc.b)
		if tc.dropB != "" {
			delete(b.Results[0].EndToEnd, tc.dropB)
		}
		if got := compareSets([]report{a}, []report{b}, io.Discard); got != tc.ok {
			t.Errorf("%s: compare = %v, want %v", tc.name, got, tc.ok)
		}
	}
}

// TestCompareSetsOfRuns covers what only a set of several runs shows: the
// median decides, and sets that did not run the same thing are refused.
func TestCompareSetsOfRuns(t *testing.T) {
	slow := map[string]float64{"cpu_ns_per_pkt": 140}
	run := func(seed int64, values map[string]float64) report { return reportWith("call_mix", seed, 0, values) }
	base := []report{run(1, nil), run(2, nil), run(3, nil)}
	for _, tc := range []struct {
		name string
		b    []report
		ok   bool
	}{
		{name: "one slow run of three does not move the median", b: []report{run(1, slow), run(2, nil), run(3, nil)}, ok: true},
		{name: "two slow runs of three do", b: []report{run(1, slow), run(2, slow), run(3, nil)}},
		{name: "seed order does not matter", b: []report{run(3, nil), run(1, nil), run(2, nil)}, ok: true},
		{name: "different seeds are refused", b: []report{run(1, nil), run(2, nil), run(4, nil)}},
		{name: "a different number of runs is refused", b: []report{run(1, nil), run(2, nil)}},
		{name: "an empty set is refused"},
		{name: "a failed operation in any run fails", b: []report{run(1, nil), reportWith("call_mix", 2, 1, nil), run(3, nil)}},
		{name: "a workload missing from a run fails", b: []report{run(1, nil), run(2, nil), {Seed: 3, Seconds: runSeconds}}},
	} {
		if got := compareSets(base, tc.b, io.Discard); got != tc.ok {
			t.Errorf("%s: compare = %v, want %v", tc.name, got, tc.ok)
		}
	}
	short := run(1, nil)
	short.Seconds = 10
	if compareSets([]report{run(1, nil)}, []report{short}, io.Discard) {
		t.Error("runs of different lengths were compared")
	}
}
