package main

import (
	"fmt"
	"reflect"
	"sort"
	"time"

	"vids/internal/engine"
	"vids/internal/ids"
	"vids/internal/sim"
	"vids/internal/trace"
)

// captured is a prefix of a workload's stream, kept for the sequential
// reference and for the layer timings that run on the workload's own
// packets.
type captured struct {
	entries []trace.Entry
	class   []int8  // attack class of each packet, -1 benign
	inst    []int64 // its attack instance
	ord     []int32 // its ordinal inside the instance
}

// refProc feeds the reference IDS and remembers which packet it is on,
// so an alert can be pinned to the packet (or the timer) that raised it.
type refProc struct {
	d      *ids.IDS
	k      int
	inside bool
}

func (r *refProc) Process(pkt *sim.Packet) {
	r.inside = true
	r.d.Process(pkt)
	r.inside = false
	r.k++
}

type refAlert struct {
	a       ids.Alert
	trigger int  // index of the packet being processed, or of the next one
	packet  bool // raised while processing that packet, not by a timer before it
}

// reference replays entries through the sequential interpreted IDS: the
// oracle every faster path must agree with.
func reference(entries []trace.Entry) ([]ids.Alert, []refAlert, error) {
	s := sim.New(0)
	cfg := ids.DefaultConfig()
	cfg.Backend = ids.BackendInterpreted
	r := &refProc{d: ids.New(s, cfg)}
	var raised []refAlert
	r.d.OnAlert = func(a ids.Alert) {
		raised = append(raised, refAlert{a: a, trigger: r.k, packet: r.inside})
	}
	if err := trace.Replay(s, entries, r); err != nil {
		return nil, nil, err
	}
	if err := s.RunAll(); err != nil {
		return nil, nil, err
	}
	alerts := r.d.Alerts()
	engine.SortAlerts(alerts)
	return alerts, raised, nil
}

// verify pushes a bounded prefix of the workload's stream through the
// pinned pipeline and through the sequential reference and demands the
// same alerts from both. On attack_mix it also learns, per attack class,
// which alerts one instance raises and what triggers each: that is the
// expectation the timed phases are held to.
func verify(w *workload, wr *wire, seed int64, packets int) (*captured, *[nClasses][]expect, error) {
	p := newPipeline(w, wr, seed, timing{}, nil)
	c := &captured{}
	starts := map[int64]time.Duration{}
	for n := 0; ; n++ {
		if n == packets {
			p.g.drain()
		}
		idx, at, ok := p.g.next()
		if !ok {
			break
		}
		pkt := &p.g.pkts[idx]
		raw, _ := pkt.Payload.([]byte)
		c.entries = append(c.entries, trace.Entry{
			AtNanos: int64(at), Proto: pkt.Proto.String(),
			FromHost: pkt.From.Host, FromPort: pkt.From.Port,
			ToHost: pkt.To.Host, ToPort: pkt.To.Port,
			Size: pkt.Size, Data: append([]byte(nil), raw...),
		})
		c.class = append(c.class, int8(p.g.lastClass))
		c.inst = append(c.inst, p.g.lastID)
		c.ord = append(c.ord, p.g.lastOrd)
		if p.g.lastClass >= 0 && p.g.lastOrd == 0 {
			starts[p.g.lastID] = at
		}
		p.g.stamp(idx, at, 0, false)
		p.offer(idx, at)
	}
	_, failed, why := p.finish()
	if failed != 0 {
		return nil, nil, fmt.Errorf("verify: pipeline accounting: %v", why)
	}
	got := p.ing.Alerts()

	want, raised, err := reference(c.entries)
	if err != nil {
		return nil, nil, fmt.Errorf("verify: reference replay: %w", err)
	}
	if !reflect.DeepEqual(want, got) {
		return nil, nil, fmt.Errorf("verify: pipeline and sequential reference disagree: %s", diffAlerts(want, got))
	}
	if !w.attacks {
		if len(want) != 0 {
			return nil, nil, fmt.Errorf("verify: benign workload raised %d alerts, first: %v", len(want), want[0])
		}
		return c, &[nClasses][]expect{}, nil
	}

	// Group the reference's alerts by attack instance, then demand that
	// every instance of a class raised the same alerts the same way.
	perInst := map[int64][]expect{}
	for _, ra := range raised {
		id := p.g.instanceOf(ra.a)
		if id < 0 {
			return nil, nil, fmt.Errorf("verify: alert names no attack instance: %v", ra.a)
		}
		e := expect{typ: ra.a.Type, ord: -1, off: ra.a.At - starts[id]}
		if ra.packet && c.inst[ra.trigger] == id {
			e.ord, e.off = c.ord[ra.trigger], 0
		}
		perInst[id] = append(perInst[id], e)
	}
	var learned [nClasses][]expect
	for id, es := range perInst {
		sort.Slice(es, func(i, j int) bool {
			if es[i].typ != es[j].typ {
				return es[i].typ < es[j].typ
			}
			return es[i].ord < es[j].ord
		})
		class := id % classSlots
		switch {
		case learned[class] == nil:
			learned[class] = es
		case !reflect.DeepEqual(learned[class], es):
			return nil, nil, fmt.Errorf("verify: %s instances disagree: %v vs %v", classNames[class], learned[class], es)
		}
	}
	for class, es := range learned {
		if len(es) == 0 || len(es) > maxExpect {
			return nil, nil, fmt.Errorf("verify: %s instances raise %d alerts, want 1..%d", classNames[class], len(es), maxExpect)
		}
	}
	return c, &learned, nil
}

func diffAlerts(want, got []ids.Alert) string {
	for i := 0; i < len(want) || i < len(got); i++ {
		var w, g ids.Alert
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if !reflect.DeepEqual(w, g) {
			return fmt.Sprintf("%d vs %d alerts, first difference at %d: reference %v, pipeline %v", len(want), len(got), i, w, g)
		}
	}
	return "no difference"
}
