package speclint

import (
	"fmt"
	"sort"
	"strings"

	"vids/internal/core"
)

// maxProductConfigs caps the explored product state space. If the cap
// is hit the exploration is truncated and the (absence-based)
// product-unreachable-attack check is suppressed to avoid false
// positives; deadlocks and queue-bound violations found up to the cap
// are still reported.
const maxProductConfigs = 100000

// maxFindingsPerCheck caps how many deadlock / queue-bound findings
// one exploration reports — past a handful they repeat the same root
// cause.
const maxFindingsPerCheck = 5

// productTransition is one move of one machine, pre-resolved for
// exploration: the underlying spec transition plus the discovered
// emission alternatives of its action.
type productTransition struct {
	t    core.Transition
	alts []emitAlt
}

// config is one product configuration: the control state of every
// machine plus the pending sync queue. Variable vectors are
// deliberately abstracted away (guards are treated as "may be true"),
// so exploration over-approximates per-machine behavior while keeping
// the δ-channel causality exact: a sync event only circulates if some
// transition actually emits it. node indexes the witness step that
// produced this configuration (-1 for the initial one), so every
// finding can reconstruct the concrete event sequence that led to it.
type config struct {
	states []core.State
	queue  []qmsg
	depth  int
	node   int
}

func (c config) key() string {
	var b strings.Builder
	for _, st := range c.states {
		b.WriteString(string(st))
		b.WriteByte(0)
	}
	b.WriteByte(1)
	for _, q := range c.queue {
		b.WriteString(q.target)
		b.WriteByte(0x1f)
		b.WriteString(q.name)
		b.WriteByte(0x1e)
	}
	return b.String()
}

// witnessNode is one entry of the exploration's parent-pointer tree.
type witnessNode struct {
	parent int
	step   WitnessStep
}

// pathTo reconstructs the witness path from the root to node n.
func pathTo(nodes []witnessNode, n int) []WitnessStep {
	var out []WitnessStep
	for ; n >= 0; n = nodes[n].parent {
		out = append(out, nodes[n].step)
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func emitsOf(alt emitAlt) []WitnessEmit {
	if len(alt.msgs) == 0 {
		return nil
	}
	out := make([]WitnessEmit, len(alt.msgs))
	for i, q := range alt.msgs {
		out[i] = WitnessEmit{Target: q.target, Event: q.name}
	}
	return out
}

// inputArgs picks the event arguments recorded on an injected witness
// step: a probe under which the transition's guard holds and — when
// possible — its action reproduces the emission alternative the
// exploration chose.
func inputArgs(t core.Transition, alt emitAlt, opts Options) map[string]any {
	if alt.probe != nil && guardHolds(t, alt.probe, opts.ProbeGlobals) {
		return copyProbe(alt.probe)
	}
	args, _ := satisfyingProbe(t, opts)
	return args
}

// exploreProduct walks the communicating product breadth-first up to
// opts.ProductDepth external inputs (sync cascades between inputs are
// free), keeping parent pointers so every finding carries a concrete
// witness path. It reports three classes of findings: deadlocked
// configurations, δ-queue-bound violations (a reachable configuration
// whose FIFO would exceed opts.MaxQueue — the first step toward
// unbounded queue growth), and attack states that are reachable in a
// machine's own graph but never entered in the product — a detection
// that the synchronization contract makes impossible.
// fired, when non-nil, collects every transition the exploration
// takes (keyed as the core.StepResult that fires it) — the static
// reachability half of cmd/speccover's coverage report.
func exploreProduct(specs []*core.Spec, em *emissions, opts Options, fired map[TransitionKey]bool) []Finding {
	idx := make(map[string]int, len(specs))
	for i, s := range specs {
		idx[s.Name] = i
	}
	external := make(map[string]bool, len(opts.ExternalEvents))
	for _, e := range opts.ExternalEvents {
		external[e] = true
	}

	// Pre-resolve each machine's transitions by source state.
	byState := make([]map[core.State][]productTransition, len(specs))
	for i, s := range specs {
		ts := s.Transitions()
		alts := em.alts[s.Name]
		m := make(map[core.State][]productTransition)
		for j, t := range ts {
			m[t.From] = append(m[t.From], productTransition{t: t, alts: alts[j]})
		}
		byState[i] = m
	}
	isInput := func(event string) bool {
		return external[event] || !strings.HasPrefix(event, opts.SyncPrefix)
	}

	start := config{states: make([]core.State, len(specs)), node: -1}
	attackSeen := make([]map[core.State]bool, len(specs))
	for i, s := range specs {
		start.states[i] = s.Initial
		attackSeen[i] = make(map[core.State]bool)
	}

	var findings []Finding
	deadlocks := 0
	overflows := 0
	overflowSeen := make(map[string]bool)
	truncated := false
	visited := map[string]bool{start.key(): true}
	var nodes []witnessNode
	frontier := []config{start}

	note := func(c config) {
		for i, st := range c.states {
			if specs[i].IsAttack(st) {
				attackSeen[i][st] = true
			}
		}
	}
	note(start)

	// overflow reports one δ-queue-bound violation: taking step from
	// cur's configuration would push the FIFO to qlen > opts.MaxQueue.
	// The offending configuration stays pruned (exploration remains
	// bounded); the finding documents it with a replayable witness.
	overflow := func(cur config, step WitnessStep, qlen int) {
		key := step.Machine + "\x00" + step.Event + "\x00" + string(step.From)
		if overflows >= maxFindingsPerCheck || overflowSeen[key] {
			return
		}
		overflowSeen[key] = true
		overflows++
		findings = append(findings, Finding{
			Machine: "system", Check: CheckQueueBound,
			Detail:  fmt.Sprintf("δ queue reaches %d pending messages (bound %d) after %q takes %q in state %q: the FIFO is growing toward the configured bound", qlen, opts.MaxQueue, step.Machine, step.Event, step.From),
			Witness: append(pathTo(nodes, cur.node), step),
		})
	}

	for len(frontier) > 0 {
		if len(visited) > maxProductConfigs {
			truncated = true
			break
		}
		cur := frontier[0]
		frontier = frontier[1:]

		push := func(next config, step WitnessStep) {
			k := next.key()
			if visited[k] {
				return
			}
			visited[k] = true
			nodes = append(nodes, witnessNode{parent: cur.node, step: step})
			next.node = len(nodes) - 1
			note(next)
			frontier = append(frontier, next)
		}

		if len(cur.queue) > 0 {
			// Priority rule (paper Section 4.2): pending δ messages
			// are delivered before any further input. Delivery of the
			// head is the only enabled move.
			msg := cur.queue[0]
			rest := cur.queue[1:]
			i, ok := idx[msg.target]
			delivered := false
			if ok {
				for _, pt := range byState[i][cur.states[i]] {
					if pt.t.Event != msg.name {
						continue
					}
					delivered = true
					if fired != nil {
						fired[TransitionKey{Machine: msg.target, From: cur.states[i], Event: msg.name, To: pt.t.To, Label: pt.t.Label}] = true
					}
					for _, alt := range pt.alts {
						step := WitnessStep{
							Machine: msg.target, Event: msg.name, Sync: true,
							From: cur.states[i], To: pt.t.To, Label: pt.t.Label,
							Emits: emitsOf(alt),
						}
						q := appendQueue(rest, alt)
						if len(q) > opts.MaxQueue {
							overflow(cur, step, len(q))
							continue
						}
						push(config{states: cloneWith(cur.states, i, pt.t.To), queue: q, depth: cur.depth}, step)
					}
				}
			}
			if !delivered {
				// The peer no longer cares (core.System tolerates
				// this) or the target is unknown: the message drops.
				push(config{states: cur.states, queue: cloneQueue(rest), depth: cur.depth},
					WitnessStep{Machine: msg.target, Event: msg.name, Sync: true, Dropped: true})
			}
			continue
		}

		// Queue empty: feed any external input to any machine.
		moved := false
		if cur.depth < opts.ProductDepth {
			for i := range specs {
				for _, pt := range byState[i][cur.states[i]] {
					if !isInput(pt.t.Event) {
						continue
					}
					moved = true
					if fired != nil {
						fired[TransitionKey{Machine: specs[i].Name, From: cur.states[i], Event: pt.t.Event, To: pt.t.To, Label: pt.t.Label}] = true
					}
					for _, alt := range pt.alts {
						step := WitnessStep{
							Machine: specs[i].Name, Event: pt.t.Event,
							From: cur.states[i], To: pt.t.To, Label: pt.t.Label,
							Args:  inputArgs(pt.t, alt, opts),
							Emits: emitsOf(alt),
						}
						if len(alt.msgs) > opts.MaxQueue {
							overflow(cur, step, len(alt.msgs))
							continue
						}
						push(config{
							states: cloneWith(cur.states, i, pt.t.To),
							queue:  cloneQueue(alt.msgs),
							depth:  cur.depth + 1,
						}, step)
					}
				}
			}
		} else {
			continue // depth bound reached: neither expand nor judge
		}

		if !moved && !allTerminal(specs, cur.states) && deadlocks < maxFindingsPerCheck {
			deadlocks++
			findings = append(findings, Finding{
				Machine: "system", Check: CheckDeadlock,
				Detail:  fmt.Sprintf("configuration %s accepts no input and has an empty sync queue, but not every machine is final or attack", describe(specs, cur.states)),
				Witness: pathTo(nodes, cur.node),
			})
		}
	}

	if !truncated {
		for i, s := range specs {
			reach := s.Reachable()
			var missed []string
			for _, st := range s.States() {
				if s.IsAttack(st) && reach[st] && !attackSeen[i][st] {
					missed = append(missed, string(st))
				}
			}
			sort.Strings(missed)
			for _, st := range missed {
				findings = append(findings, Finding{
					Machine: s.Name, Check: CheckProductAttack,
					Detail: fmt.Sprintf("attack state %q is reachable in the machine's own graph but never entered in the communicating product (depth %d): its δ preconditions can never be met", st, opts.ProductDepth),
					// The witness is the machine-local half of the
					// contradiction: the event path that enters the
					// attack state when the δ inputs are forced, which
					// the product shows no peer ever produces.
					Witness: localWitness(s, core.State(st), opts),
				})
			}
		}
	}
	return findings
}

// checkAmbiguity hunts for same-(state, event) transition groups
// whose guards are simultaneously satisfiable under some probe: the
// paper's Section 4.1 requires competing predicates to be mutually
// disjoint, and core.Machine.Step turns a violation into
// ErrNondeterministic at run time — on a live call, not in CI. The
// witness drives the machine to the ambiguous state and ends with the
// triggering probe as the event's arguments, so replaying it
// reproduces the ErrNondeterministic.
func checkAmbiguity(specs []*core.Spec, opts Options) []Finding {
	probes := make([]map[string]any, 0, len(opts.Probes)+1)
	probes = append(probes, map[string]any{})
	probes = append(probes, opts.Probes...)

	var out []Finding
	for _, s := range specs {
		byKey := make(map[string][]core.Transition)
		var keys []string
		for _, t := range s.Transitions() {
			k := string(t.From) + "\x00" + t.Event
			if _, ok := byKey[k]; !ok {
				keys = append(keys, k)
			}
			byKey[k] = append(byKey[k], t)
		}
		sort.Strings(keys)
		for _, k := range keys {
			group := byKey[k]
			guarded := 0
			for _, t := range group {
				if t.Guard != nil {
					guarded++
				}
			}
			if guarded < 2 {
				continue
			}
			from, event := group[0].From, group[0].Event
			for _, probe := range probes {
				var enabled []core.Transition
				for _, t := range group {
					if t.Guard != nil && guardHolds(t, probe, opts.ProbeGlobals) {
						enabled = append(enabled, t)
					}
				}
				if len(enabled) < 2 {
					continue
				}
				targets := make([]string, len(enabled))
				for i, t := range enabled {
					targets[i] = string(t.To)
				}
				witness := append(localWitness(s, from, opts), WitnessStep{
					Machine: s.Name, Event: event, From: from,
					Args: copyProbe(probe),
				})
				out = append(out, Finding{
					Machine: s.Name, Check: CheckAmbiguous,
					Detail:  fmt.Sprintf("guards of %d transitions from %q on %q (targets %s) are simultaneously satisfiable: Step would return ErrNondeterministic on a live call", len(enabled), from, event, strings.Join(targets, ", ")),
					Witness: witness,
				})
				break // one finding per group is enough
			}
		}
	}
	return out
}

func cloneWith(states []core.State, i int, st core.State) []core.State {
	out := make([]core.State, len(states))
	copy(out, states)
	out[i] = st
	return out
}

func cloneQueue(q []qmsg) []qmsg {
	if len(q) == 0 {
		return nil
	}
	out := make([]qmsg, len(q))
	copy(out, q)
	return out
}

func appendQueue(rest []qmsg, alt emitAlt) []qmsg {
	out := make([]qmsg, 0, len(rest)+len(alt.msgs))
	out = append(out, rest...)
	out = append(out, alt.msgs...)
	return out
}

func allTerminal(specs []*core.Spec, states []core.State) bool {
	for i, s := range specs {
		if !s.IsFinal(states[i]) && !s.IsAttack(states[i]) {
			return false
		}
	}
	return true
}

func describe(specs []*core.Spec, states []core.State) string {
	parts := make([]string, len(specs))
	for i, s := range specs {
		parts[i] = fmt.Sprintf("%s=%s", s.Name, states[i])
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
