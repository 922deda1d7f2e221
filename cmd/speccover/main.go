// Command speccover measures specification transition coverage: it
// runs the real detection machines (ids.Specs) under the detector's
// step tap (ids.IDS.OnStep) across the full evaluation scenario
// suite, replays synthesized witness traces for the transitions the
// suite misses, merges the runtime observations with the static
// reachability of speclint's bounded product exploration, and emits a
// deterministic per-transition report.
//
// Usage:
//
//	speccover                       # print the report summary
//	speccover -write SPEC_COVERAGE.json
//	speccover -baseline SPEC_COVERAGE.json   # CI gate
//	speccover -traces DIR           # write gap witness traces (JSONL)
//	speccover -json                 # full report on stdout as JSON
//
// Exit status: 0 clean, 1 coverage gap or baseline mismatch, 2
// operational error.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"vids/internal/ids"
	"vids/internal/sim"
	"vids/internal/speclint"
)

func main() {
	fs := flag.NewFlagSet("speccover", flag.ExitOnError)
	var (
		baseline = fs.String("baseline", "", "compare the report against this committed JSON file and fail on any difference")
		write    = fs.String("write", "", "write the report JSON to this file")
		traces   = fs.String("traces", "", "write synthesized gap witness traces (JSONL, replayable with vids -replay) into this directory")
		jsonOut  = fs.Bool("json", false, "print the full report as JSON instead of a summary")
		seed     = fs.Int64("seed", 1, "scenario suite seed")
	)
	_ = fs.Parse(os.Args[1:])
	code, err := run(*baseline, *write, *traces, *jsonOut, *seed, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "speccover:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func newSim() *sim.Simulator { return sim.New(1) }

func run(baseline, write, tracesDir string, jsonOut bool, seed int64, out, diag io.Writer) (int, error) {
	rep, err := computeReport(seed, tracesDir)
	if err != nil {
		return 0, err
	}

	if write != "" {
		if err := writeReport(rep, write); err != nil {
			return 0, err
		}
		fmt.Fprintf(diag, "speccover: report written to %s\n", write)
	}
	if jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return 0, err
		}
	} else {
		printSummary(out, rep)
	}

	code := 0
	if rep.Summary.Uncovered > 0 {
		fmt.Fprintf(diag, "speccover: %d reachable transition(s) uncovered\n", rep.Summary.Uncovered)
		code = 1
	}
	if baseline != "" {
		if err := compareBaseline(diag, rep, baseline); err != nil {
			fmt.Fprintf(diag, "speccover: %v\n", err)
			code = 1
		}
	}
	return code, nil
}

// computeReport runs the full measurement: static universe and
// reachability, the scenario suite under the observer, then gap
// synthesis for whatever the suite missed.
func computeReport(seed int64, tracesDir string) (Report, error) {
	cfg := ids.DefaultConfig()
	specs := ids.Specs(cfg)
	universe := speclint.AllTransitions(specs)
	reachable := speclint.ReachableTransitions(specs, len(ids.SystemSpecs(cfg)), speclint.DefaultOptions())

	rec := newRecorder()
	if err := runSuite(seed, rec); err != nil {
		return Report{}, err
	}
	if err := closeGaps(rec, tracesDir); err != nil {
		return Report{}, err
	}
	return buildReport(universe, reachable, rec.fired, waivers()), nil
}

func writeReport(rep Report, path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// compareBaseline enforces the committed report: the freshly computed
// one must match byte-for-byte (both are fully deterministic), so any
// spec change, lost coverage or stale waiver fails CI until the
// baseline is regenerated with -write and reviewed.
func compareBaseline(out io.Writer, rep Report, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", path, err)
	}
	if diffs := diffReports(base, rep); len(diffs) > 0 {
		for _, d := range diffs {
			fmt.Fprintf(out, "  baseline drift: %s\n", d)
		}
		return fmt.Errorf("report drifted from %s in %d place(s): regenerate with -write %s and review the diff", path, len(diffs), path)
	}
	return nil
}

// diffReports lists human-readable differences between two reports.
func diffReports(base, cur Report) []string {
	var diffs []string
	index := func(rep Report) map[speclint.TransitionKey]Record {
		m := make(map[speclint.TransitionKey]Record, len(rep.Transitions))
		for _, r := range rep.Transitions {
			m[r.TransitionKey] = r
		}
		return m
	}
	bi, ci := index(base), index(cur)
	for _, r := range base.Transitions {
		c, ok := ci[r.TransitionKey]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("transition %s dropped from the spec", fmtKey(r.TransitionKey)))
			continue
		}
		if c.Status != r.Status || c.By != r.By || c.Reason != r.Reason {
			diffs = append(diffs, fmt.Sprintf("%s: %s(%s) -> %s(%s)", fmtKey(r.TransitionKey), r.Status, r.By, c.Status, c.By))
		}
	}
	for _, r := range cur.Transitions {
		if _, ok := bi[r.TransitionKey]; !ok {
			diffs = append(diffs, fmt.Sprintf("new transition %s not in baseline", fmtKey(r.TransitionKey)))
		}
	}
	return diffs
}

func fmtKey(k speclint.TransitionKey) string {
	label := ""
	if k.Label != "" {
		label = " !" + k.Label
	}
	return fmt.Sprintf("%s: %s -%s-> %s%s", k.Machine, k.From, k.Event, k.To, label)
}

func printSummary(out io.Writer, rep Report) {
	s := rep.Summary
	fmt.Fprintf(out, "spec coverage: %d transitions, %d reachable, %d covered (%d via gap traces), %d waived, %d unreachable, %d uncovered\n",
		s.Total, s.Reachable, s.Covered, s.GapTraces, s.Waived, s.Unreachable, s.Uncovered)
	for _, r := range rep.Transitions {
		if r.Status == StatusUncovered {
			fmt.Fprintf(out, "  UNCOVERED %s\n", fmtKey(r.TransitionKey))
		}
	}
}
