package speclint

import (
	"sort"

	"vids/internal/core"
)

// TransitionKey identifies one spec transition for coverage
// accounting: exactly the tuple of the core.StepResult a machine's
// Step returns when the transition fires, so runtime observations and
// static reachability share one key space.
type TransitionKey struct {
	Machine string     `json:"machine"`
	From    core.State `json:"from"`
	Event   string     `json:"event"`
	To      core.State `json:"to"`
	Label   string     `json:"label,omitempty"`
}

// AllTransitions returns every declared transition of every spec,
// sorted by (machine, from, event, to, label): the coverage universe
// cmd/speccover measures against.
func AllTransitions(specs []*core.Spec) []TransitionKey {
	var out []TransitionKey
	for _, s := range specs {
		for _, t := range s.Transitions() {
			out = append(out, TransitionKey{
				Machine: s.Name, From: t.From, Event: t.Event, To: t.To, Label: t.Label,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Less orders keys lexicographically over (machine, from, event, to,
// label).
func (k TransitionKey) Less(o TransitionKey) bool {
	if k.Machine != o.Machine {
		return k.Machine < o.Machine
	}
	if k.From != o.From {
		return k.From < o.From
	}
	if k.Event != o.Event {
		return k.Event < o.Event
	}
	if k.To != o.To {
		return k.To < o.To
	}
	return k.Label < o.Label
}

// ReachableTransitions computes the statically reachable transition
// set. The first systemSize specs are the communicating product
// (for vids: SIP plus both RTP directions); their reachable set is
// exactly the transitions the bounded product exploration fires, so
// δ-causality is honored — a sync-consuming transition counts only if
// some peer concretely emits the event. The remaining specs run
// standalone; for those a transition is reachable iff its source
// state is reachable in the machine's own graph.
func ReachableTransitions(specs []*core.Spec, systemSize int, opts Options) map[TransitionKey]bool {
	if opts.SyncPrefix == "" {
		opts.SyncPrefix = "delta."
	}
	if opts.ProductDepth <= 0 {
		opts.ProductDepth = 16
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 6
	}
	if systemSize > len(specs) {
		systemSize = len(specs)
	}
	fired := make(map[TransitionKey]bool)
	if systemSize > 1 {
		prod := specs[:systemSize]
		em := discoverEmissions(prod, opts)
		exploreProduct(prod, em, opts, fired)
	} else if systemSize == 1 {
		markGraphReachable(specs[0], fired)
	}
	for _, s := range specs[systemSize:] {
		markGraphReachable(s, fired)
	}
	return fired
}

func markGraphReachable(s *core.Spec, fired map[TransitionKey]bool) {
	reach := s.Reachable()
	for _, t := range s.Transitions() {
		if reach[t.From] {
			fired[TransitionKey{Machine: s.Name, From: t.From, Event: t.Event, To: t.To, Label: t.Label}] = true
		}
	}
}
