package main

import (
	"fmt"
	"sort"
	"strings"

	"vids/internal/core"
	"vids/internal/ids"
	"vids/internal/scenario"
	"vids/internal/speclint"
	"vids/internal/trace"
	"vids/internal/workload"
)

// Transition statuses, from best to worst. The CI gate accepts a
// report only when no transition is "uncovered".
const (
	// StatusScenario: fired while the evaluation scenario suite ran.
	StatusScenario = "scenario"
	// StatusGapTrace: not reached by the suite, but a synthesized
	// witness trace (written next to the report) concretely fires it.
	StatusGapTrace = "gap-trace"
	// StatusWaived: statically reachable in the over-approximated
	// product but concretely impossible; carries a justification.
	StatusWaived = "waived"
	// StatusUnreachable: the bounded product exploration never fires
	// it — speclint reports the contradiction separately.
	StatusUnreachable = "unreachable"
	// StatusUncovered: reachable, not waived, and nothing fired it.
	StatusUncovered = "uncovered"
)

// Record is one transition's coverage verdict in the report.
type Record struct {
	speclint.TransitionKey
	Status string `json:"status"`
	// By names what covered the transition: a scenario name, or the
	// witness trace file that closes the gap.
	By string `json:"by,omitempty"`
	// Reason justifies a waiver.
	Reason string `json:"reason,omitempty"`
}

// Report is the committed SPEC_COVERAGE.json: fully deterministic
// (sorted, no timestamps) so it doubles as a golden file.
type Report struct {
	// Suite lists the scenarios that produced the runtime half.
	Suite []string `json:"suite"`
	// Transitions holds one record per declared spec transition,
	// sorted by (machine, from, event, to, label).
	Transitions []Record `json:"transitions"`
	Summary     Summary  `json:"summary"`
}

// Summary aggregates the per-transition verdicts.
type Summary struct {
	Total       int `json:"total"`
	Reachable   int `json:"reachable"`
	Covered     int `json:"covered"` // scenario + gap-trace
	GapTraces   int `json:"gapTraces"`
	Waived      int `json:"waived"`
	Unreachable int `json:"unreachable"`
	Uncovered   int `json:"uncovered"`
}

// recorder is a detector step tap (ids.IDS.OnStep) remembering the
// first source (scenario or trace name) that fired each transition.
type recorder struct {
	source string
	fired  map[speclint.TransitionKey]string
}

func newRecorder() *recorder {
	return &recorder{fired: make(map[speclint.TransitionKey]string)}
}

func (r *recorder) step(res core.StepResult) {
	k := speclint.TransitionKey{Machine: res.Machine, From: res.From, Event: res.Event, To: res.To, Label: res.Label}
	if _, ok := r.fired[k]; !ok {
		r.fired[k] = r.source
	}
}

// runSuite plays every evaluation scenario with the recorder tapping
// the testbed IDS before any traffic flows.
func runSuite(seed int64, rec *recorder) error {
	for _, name := range scenario.Names {
		rec.source = "scenario:" + name
		_, err := scenario.Run(name, scenario.Options{
			Seed:    seed,
			Prepare: func(tb *workload.Testbed) { tb.IDS.OnStep = rec.step },
		})
		if err != nil {
			return fmt.Errorf("scenario %s: %w", name, err)
		}
	}
	return nil
}

// replayEntries feeds one synthesized trace into a fresh IDS under
// the recorder — the same path `vids -replay` takes — so a gap trace
// only counts if it concretely fires transitions.
func replayEntries(entries []trace.Entry, rec *recorder, source string) error {
	rec.source = source
	s := newSim()
	d := ids.New(s, ids.DefaultConfig())
	d.OnStep = rec.step
	if err := trace.Replay(s, entries, d); err != nil {
		return err
	}
	return s.RunAll()
}

// buildReport merges the three evidence sources into one verdict per
// declared transition.
func buildReport(universe []speclint.TransitionKey, reachable map[speclint.TransitionKey]bool,
	fired map[speclint.TransitionKey]string, waivers map[speclint.TransitionKey]string) Report {
	rep := Report{Suite: scenario.Names}
	for _, k := range universe {
		r := Record{TransitionKey: k}
		by, covered := fired[k]
		reason, waived := waivers[k]
		switch {
		case covered:
			if strings.HasPrefix(by, "trace:") {
				r.Status = StatusGapTrace
			} else {
				r.Status = StatusScenario
			}
			r.By = by
		case waived:
			r.Status = StatusWaived
			r.Reason = reason
		case !reachable[k]:
			r.Status = StatusUnreachable
		default:
			r.Status = StatusUncovered
		}
		rep.Transitions = append(rep.Transitions, r)
	}
	sort.Slice(rep.Transitions, func(i, j int) bool {
		return rep.Transitions[i].TransitionKey.Less(rep.Transitions[j].TransitionKey)
	})
	for _, r := range rep.Transitions {
		rep.Summary.Total++
		if reachable[r.TransitionKey] {
			rep.Summary.Reachable++
		}
		switch r.Status {
		case StatusScenario:
			rep.Summary.Covered++
		case StatusGapTrace:
			rep.Summary.Covered++
			rep.Summary.GapTraces++
		case StatusWaived:
			rep.Summary.Waived++
		case StatusUnreachable:
			rep.Summary.Unreachable++
		case StatusUncovered:
			rep.Summary.Uncovered++
		}
	}
	return rep
}
