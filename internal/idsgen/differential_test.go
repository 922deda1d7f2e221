package idsgen_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"vids/internal/core"
	"vids/internal/ids"
	"vids/internal/idsgen"
)

// The differential random walk: every machine family, and one whole
// call system, is stepped on both backends — core's evaluator over the
// ids specifications, and the Go cmd/specgen compiled from them — with
// seeded, boundary-biased events, and every observable is compared
// after every step. A walk is pure data (ops), so a failure replays:
// the report is the shortest failing prefix, cut back to the last Reset
// when that still fails on fresh machines.

// op is one step of a walk.
type op struct {
	reset   bool
	sync    bool   // system walks: DeliverSync instead of Deliver
	machine string // system walks: the member addressed
	event   core.Event
}

func (o op) String() string {
	if o.reset {
		return "reset"
	}
	verb := ""
	if o.machine != "" {
		verb = "deliver " + o.machine + " "
		if o.sync {
			verb = "sync " + o.machine + " "
		}
	}
	if o.event.Typed != nil {
		return fmt.Sprintf("%s%s %+v", verb, o.event.Name, o.event.Typed)
	}
	return fmt.Sprintf("%s%s %v", verb, o.event.Name, o.event.Args)
}

// subject is both backends of one family (or system) behind one
// apply-and-compare step.
type subject interface {
	apply(o op) error
}

// walkConfig derives a detector configuration from a seed: the
// defaults, then thresholds small enough that every boundary is
// crossed constantly, with and without the cross-protocol δ channel.
func walkConfig(seed int64) (ids.Config, idsgen.Params) {
	cfg := ids.DefaultConfig()
	if seed%3 != 1 {
		cfg.RTP = ids.RTPThresholds{SeqGap: 3, TSGap: 480, RateWindow: 100 * time.Millisecond, RatePackets: 4}
		cfg.FloodN, cfg.ResponseFloodN = 3, 2
	}
	cfg.CrossProtocol = seed%3 != 0
	return cfg, idsgen.Params{
		SeqGap: cfg.RTP.SeqGap, TSGap: cfg.RTP.TSGap,
		RateWindow: cfg.RTP.RateWindow, RatePackets: cfg.RTP.RatePackets,
		CrossProtocol: cfg.CrossProtocol,
	}
}

// --- event generators -------------------------------------------------------

// gen produces boundary-biased events. Its only state is the media
// stream position, so a walk never depends on what the machines did.
type gen struct {
	rng *rand.Rand
	cfg ids.Config
	seq int
	ts  uint32
	now time.Duration
}

func pick[T any](g *gen, vals ...T) T { return vals[g.rng.Intn(len(vals))] }

// asMap re-expresses a typed vector as the Args map a tool would
// build, so the generated accessors' fallback path is walked too.
func asMap(e core.Event, keys ...string) core.Event {
	args := make(map[string]any, len(keys))
	for _, k := range keys {
		args[k] = e.Arg(k)
	}
	return core.Event{Name: e.Name, Args: args}
}

func (g *gen) sip() core.Event {
	a := &idsgen.SIPArgs{
		Src:        pick(g, "proxy", "proxy", "ua1", "ua2", "mallory", ""),
		CallID:     "call-1",
		From:       "sip:alice@a",
		To:         "sip:bob@b",
		FromTag:    pick(g, "ft", "ft", "tt", "xx", ""),
		ToTag:      pick(g, "", "", "tt", "xx"),
		Contact:    pick(g, "ua1", "ua2", "mallory"),
		CseqMethod: pick(g, "INVITE", "INVITE", "BYE", "CANCEL", ""),
		SdpAddr:    pick(g, "", "10.0.0.1", "10.0.0.2"),
		SdpPort:    pick(g, 0, 20000, 30000),
		SdpPayload: pick(g, 18, 18, 0),
		Status:     pick(g, 99, 100, 179, 180, 199, 200, 200, 299, 300, 401, 401, 487),
	}
	e := core.Event{
		Name:  pick(g, ids.EvInvite, ids.EvInvite, ids.EvAck, ids.EvBye, ids.EvCancel, ids.EvResponse, ids.EvResponse, ids.EvResponse, "sip.options"),
		Typed: a,
	}
	if g.rng.Intn(8) == 0 {
		return asMap(e, "src", "callID", "from", "to", "fromTag", "toTag", "contact", "cseqMethod", "sdpAddr", "sdpPort", "sdpPayload", "status")
	}
	return e
}

// media produces one event of the RTP machines' alphabet: mostly
// rtp.packet stepping seq, timestamp and clock across their
// thresholds and the 16-bit wrap, sometimes a δ or timer.
func (g *gen) media() core.Event {
	switch g.rng.Intn(16) {
	case 0:
		return core.Event{Name: ids.EvDeltaOpen, Args: map[string]any{"party": pick(g, "caller", "callee")}}
	case 1:
		return core.Event{Name: ids.EvDeltaBye}
	case 2:
		return core.Event{Name: ids.EvDeltaReopen}
	case 3:
		return core.Event{Name: pick(g, ids.EvTimerT, ids.EvTimerT, "rtcp.packet")}
	}
	// Mostly an in-profile packet — so streams live long enough to fill
	// a rate window — with one field at a time pushed to or past its
	// boundary.
	dn, dt, win := int(g.cfg.RTP.SeqGap), g.cfg.RTP.TSGap, g.cfg.RTP.RateWindow
	step, tsStep, tick := pick(g, 1, 1, 1, 0, -1), uint32(160), pick(g, 0, time.Millisecond, 20*time.Millisecond)
	ssrc, payload, wide := uint32(42), 18, false
	switch g.rng.Intn(16) {
	case 0, 1:
		step = pick(g, dn-1, dn, dn+1, -2, 0x7fff, 0x8000, 0x8001)
	case 2, 3:
		tsStep = pick(g, 0, dt-1, dt, dt+1, ^uint32(159))
	case 4:
		tick = pick(g, win-time.Millisecond, win, win+1)
	case 5:
		ssrc = 43
	case 6:
		payload = 0
	case 7:
		wide = true // an out-of-range int only a hand-built event carries
	}
	seq, ts := g.seq+step, g.ts+tsStep
	if !wide {
		seq &= 0xffff
	}
	g.now += tick
	if step > 0 && step < 0x8000 {
		g.seq, g.ts = seq&0xffff, ts
	}
	e := core.Event{Name: ids.EvRTP, Typed: &idsgen.RTPArgs{
		Src: pick(g, "ua1", "ua1", "ua2"), Ssrc: ssrc, Ts: ts, Seq: seq, PayloadType: payload, Now: g.now,
	}}
	if g.rng.Intn(8) == 0 {
		return asMap(e, "src", "ssrc", "ts", "seq", "payloadType", "now")
	}
	return e
}

func (g *gen) flood(counted string) core.Event {
	if g.rng.Intn(2*g.cfg.FloodN+2) == 0 {
		return core.Event{Name: pick(g, ids.EvTimerT1, ids.EvTimerT1, "timer.T9")}
	}
	e := core.Event{Name: counted, Typed: &idsgen.FloodArgs{Dest: pick(g, "bob@b", "carol@b"), Src: pick(g, "x", "y")}}
	if g.rng.Intn(8) == 0 {
		return asMap(e, "dest", "src")
	}
	return e
}

// --- subjects ----------------------------------------------------------------

func plain(v core.Vars) map[string]any {
	out := make(map[string]any, len(v))
	for k := range v {
		out[k] = v.Any(k)
	}
	return out
}

func sameResult(ri, rc core.StepResult) bool {
	if len(ri.Emitted) == 0 {
		ri.Emitted = nil // the interpreter hands back its empty reused buffer
	}
	if len(rc.Emitted) == 0 {
		rc.Emitted = nil
	}
	return reflect.DeepEqual(ri, rc)
}

func compareMachines(mi, mc core.MachineLike) error {
	if mi.Name() != mc.Name() || mi.State() != mc.State() || mi.Steps() != mc.Steps() ||
		mi.InAttack() != mc.InAttack() || mi.InFinal() != mc.InFinal() {
		return fmt.Errorf("%s: interpreted %s/%d steps/attack=%v/final=%v, compiled %s/%d steps/attack=%v/final=%v",
			mi.Name(), mi.State(), mi.Steps(), mi.InAttack(), mi.InFinal(), mc.State(), mc.Steps(), mc.InAttack(), mc.InFinal())
	}
	if vi, vc := mi.Vars(), mc.Vars(); !reflect.DeepEqual(vi, vc) {
		return fmt.Errorf("%s vars: interpreted %v, compiled %v", mi.Name(), plain(vi), plain(vc))
	}
	return nil
}

// note records in fired what one taken transition shows — the
// transition, each δ message it emitted and the attack state it
// entered — for the test's closing check that the walks were not
// vacuous.
func note(fired map[string]bool, res core.StepResult) {
	fired[transitionKey(res.Machine, res.From, res.Event, res.To, res.Label)] = true
	for _, m := range res.Emitted {
		fired["delta "+res.Machine+" "+m.Target+" "+m.Event.Name] = true
	}
	if res.EnteredAttack {
		fired["attack "+res.Machine+" "+string(res.To)] = true
	}
}

func transitionKey(machine string, from core.State, event string, to core.State, label string) string {
	return fmt.Sprintf("fired %s %s -%s-> %s [%s]", machine, from, event, to, label)
}

// machinePair is one standalone machine on both backends.
type machinePair struct {
	interp, compiled core.MachineLike
	fired            map[string]bool
}

func newMachinePair(interp, compiled core.MachineLike, fired map[string]bool) *machinePair {
	return &machinePair{interp: interp, compiled: compiled, fired: fired}
}

func (p *machinePair) apply(o op) error {
	if o.reset {
		p.interp.Reset()
		p.compiled.Reset()
		return compareMachines(p.interp, p.compiled)
	}
	if err := stepBoth(p.interp, p.compiled, o.event, p.fired); err != nil {
		return err
	}
	return compareMachines(p.interp, p.compiled)
}

// stepBoth steps one machine on both backends, compares what Step
// returned and notes a taken transition in fired.
func stepBoth(mi, mc core.MachineLike, e core.Event, fired map[string]bool) error {
	ri, ei := mi.Step(e)
	rc, ec := mc.Step(e)
	if ei != ec { // Step returns its sentinel errors bare on both backends
		return fmt.Errorf("error: interpreted %v, compiled %v", ei, ec)
	}
	if !sameResult(ri, rc) {
		return fmt.Errorf("result: interpreted %+v, compiled %+v", ri, rc)
	}
	if ei == nil {
		note(fired, ri)
	}
	return nil
}

// systemPair is one core.System over interpreted members and one over
// compiled members (idsgen.NewCallSystem). With direct set it steps
// the addressed member itself (a family walk: the δ a SIP step emits
// is not delivered); otherwise it goes through Deliver and
// DeliverSync, δ FIFO included.
type systemPair struct {
	interp   *core.System
	compiled *core.System
	direct   bool
	fired    map[string]bool
}

func newSystemPair(cfg ids.Config, params idsgen.Params, direct bool, fired map[string]bool) *systemPair {
	p := &systemPair{interp: core.NewSystem(), compiled: idsgen.NewCallSystem(params), direct: direct, fired: fired}
	for _, spec := range ids.SystemSpecs(cfg) {
		if _, err := p.interp.Add(spec); err != nil {
			panic(err)
		}
	}
	return p
}

func (p *systemPair) apply(o op) error {
	switch {
	case o.reset:
		p.interp.Reset()
		p.compiled.Reset()
	case p.direct:
		mi, _ := p.interp.Find(o.machine)
		mc, _ := p.compiled.Find(o.machine)
		if err := stepBoth(mi, mc, o.event, p.fired); err != nil {
			return err
		}
	default:
		deliverI, deliverC := p.interp.Deliver, p.compiled.Deliver
		if o.sync {
			deliverI, deliverC = p.interp.DeliverSync, p.compiled.DeliverSync
		}
		ri, ei := deliverI(o.machine, o.event)
		rc, ec := deliverC(o.machine, o.event)
		if ei != ec { // sentinels only, ErrUnknownMachine included
			return fmt.Errorf("error: interpreted %v, compiled %v", ei, ec)
		}
		if len(ri) != len(rc) {
			return fmt.Errorf("results: interpreted %+v, compiled %+v", ri, rc)
		}
		for i := range ri {
			if !sameResult(ri[i], rc[i]) {
				return fmt.Errorf("result %d: interpreted %+v, compiled %+v", i, ri[i], rc[i])
			}
			note(p.fired, ri[i])
		}
	}
	for _, name := range []string{ids.MachineSIP, ids.MachineRTPCaller, ids.MachineRTPCallee} {
		mi, _ := p.interp.Find(name)
		mc, _ := p.compiled.Find(name)
		if err := compareMachines(mi, mc); err != nil {
			return err
		}
	}
	if gi, gc := p.interp.Globals(), p.compiled.Globals(); !reflect.DeepEqual(gi, gc) {
		return fmt.Errorf("globals: interpreted %v, compiled %v", plain(gi), plain(gc))
	}
	si, sc := p.interp, p.compiled
	if si.MemoryFootprint() != sc.MemoryFootprint() || si.PendingSync() != sc.PendingSync() ||
		si.MaxPendingSync() != sc.MaxPendingSync() || si.InAttack() != sc.InAttack() || si.AllFinal() != sc.AllFinal() {
		return fmt.Errorf("system: interpreted footprint=%d pending=%d/%d attack=%v final=%v, compiled footprint=%d pending=%d/%d attack=%v final=%v",
			si.MemoryFootprint(), si.PendingSync(), si.MaxPendingSync(), si.InAttack(), si.AllFinal(),
			sc.MemoryFootprint(), sc.PendingSync(), sc.MaxPendingSync(), sc.InAttack(), sc.AllFinal())
	}
	return nil
}

// --- the walk -------------------------------------------------------------------

// walkSteps is the per-seed length of each family's walk; three seeds
// put every family past 100 K compared steps.
const walkSteps = 35_000

// run applies ops to a fresh subject and returns the index of the
// first step whose comparison fails.
func run(fresh func() subject, ops []op) (int, error) {
	s := fresh()
	for i, o := range ops {
		if err := s.apply(o); err != nil {
			return i, err
		}
	}
	return -1, nil
}

// check runs one walk and, on failure, reports its shortest failing
// prefix: up to the first mismatch, from the last Reset before it if
// that suffix alone still fails on fresh machines.
func check(t *testing.T, seed int64, fresh func() subject, ops []op) {
	t.Helper()
	at, err := run(fresh, ops)
	if err == nil {
		return
	}
	from := at
	for from > 0 && !ops[from].reset {
		from--
	}
	prefix := ops[from : at+1]
	if _, again := run(fresh, prefix); again == nil {
		prefix = ops[:at+1] // needs history from before the reset: keep it all
	}
	var b strings.Builder
	for i, o := range prefix {
		if len(prefix) > 200 && i < len(prefix)-200 {
			continue
		}
		fmt.Fprintf(&b, "  %d: %v\n", i, o)
	}
	t.Fatalf("seed %d: backends diverge at step %d: %v\nshortest failing prefix (%d ops, last 200 shown):\n%s", seed, at, err, len(prefix), b.String())
}

// ops draws n steps from next, starting a fresh episode (Reset) about
// every 64 steps so absorbing attack states do not swallow the walk.
func (g *gen) ops(n int, next func() op) []op {
	out := make([]op, 0, n)
	for len(out) < n {
		if g.rng.Intn(64) == 0 {
			out = append(out, op{reset: true})
			continue
		}
		out = append(out, next())
	}
	return out
}

func TestBackendsAgreeOnRandomWalks(t *testing.T) {
	fired := make(map[string]bool)
	for _, seed := range []int64{1, 2, 3} {
		cfg, params := walkConfig(seed)
		specs := ids.Specs(cfg)
		newGen := func(family int64) *gen {
			return &gen{rng: rand.New(rand.NewSource(seed*100 + family)), cfg: cfg}
		}
		standalone := func(spec *core.Spec, compiled func() core.MachineLike) func() subject {
			return func() subject { return newMachinePair(core.NewMachine(spec, nil), compiled(), fired) }
		}
		system := func(direct bool) func() subject {
			return func() subject { return newSystemPair(cfg, params, direct, fired) }
		}

		t.Run(fmt.Sprintf("seed=%d/sip", seed), func(t *testing.T) {
			g := newGen(1)
			check(t, seed, system(true), g.ops(walkSteps, func() op { return op{machine: ids.MachineSIP, event: g.sip()} }))
		})
		// The media machines read g.payload and g.byeSender, which only
		// SIP steps write: one step in eight goes to the SIP machine.
		for i, name := range []string{ids.MachineRTPCaller, ids.MachineRTPCallee} {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, name), func(t *testing.T) {
				g := newGen(int64(2 + i))
				check(t, seed, system(true), g.ops(walkSteps, func() op {
					if g.rng.Intn(8) == 0 {
						return op{machine: ids.MachineSIP, event: g.sip()}
					}
					return op{machine: name, event: g.media()}
				}))
			})
		}
		for i, twin := range []struct {
			kind    idsgen.FloodKind
			counted string
			n       int
		}{{idsgen.FloodInvite, ids.EvInvite, cfg.FloodN}, {idsgen.FloodResponse, ids.EvResponse, cfg.ResponseFloodN}} {
			spec := specs[3+i]
			t.Run(fmt.Sprintf("seed=%d/%s", seed, spec.Name), func(t *testing.T) {
				g := newGen(int64(4 + i))
				fresh := standalone(spec, func() core.MachineLike { return idsgen.NewFloodMachine(twin.kind, twin.n) })
				check(t, seed, fresh, g.ops(walkSteps, func() op { return op{event: g.flood(twin.counted)} }))
			})
		}
		t.Run(fmt.Sprintf("seed=%d/rtp-spam", seed), func(t *testing.T) {
			g := newGen(6)
			fresh := standalone(specs[5], func() core.MachineLike { return idsgen.NewSpamMachine(params) })
			check(t, seed, fresh, g.ops(walkSteps, func() op { return op{event: g.media()} }))
		})
		// The whole system: data events through Deliver, timers through
		// DeliverSync, δ traffic through the FIFO, and now and then a
		// member that does not exist.
		t.Run(fmt.Sprintf("seed=%d/system", seed), func(t *testing.T) {
			g := newGen(7)
			check(t, seed, system(false), g.ops(walkSteps, func() op {
				switch g.rng.Intn(16) {
				case 0, 1, 2, 3:
					return op{machine: ids.MachineSIP, event: g.sip()}
				case 4:
					return op{machine: pick(g, ids.MachineRTPCaller, ids.MachineRTPCallee), sync: true, event: core.Event{Name: ids.EvTimerT}}
				case 5:
					return op{machine: "rtp-bystander", sync: g.rng.Intn(2) == 0, event: g.media()}
				}
				return op{machine: pick(g, ids.MachineRTPCaller, ids.MachineRTPCallee), event: g.media()}
			}))
		})
	} // Agreement on walks that never leave the initial states would
	// prove nothing: between them, the walks must have taken every
	// transition of every specification — bar the one no input can
	// take, because the only way into RTP_RCVD_AFTER_BYE sets l.started.
	for _, spec := range ids.Specs(ids.DefaultConfig()) {
		for _, tr := range spec.Transitions() {
			if tr.From == ids.RTPAfterBye && tr.Event == ids.EvDeltaReopen && tr.To == ids.RTPOpen {
				continue
			}
			if key := transitionKey(spec.Name, tr.From, tr.Event, tr.To, tr.Label); !fired[key] {
				t.Errorf("no walk took %s", key)
			}
		}
	}
}
