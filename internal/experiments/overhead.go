package experiments

import (
	"fmt"
	"strings"
	"time"

	"vids/internal/core"
	"vids/internal/dialog"
	"vids/internal/ids"
	"vids/internal/sim"
)

// CPUResult reproduces Section 7.3's CPU accounting: the paper
// reports a 3.6% CPU increase from running vids on the forwarding
// host.
type CPUResult struct {
	// WallWith/WallWithout are real host CPU times for the identical
	// simulated workload with and without vids processing.
	WallWith    time.Duration
	WallWithout time.Duration
	// VidsProcessing is the time spent strictly inside vids' packet
	// path (classification, parsing, machine stepping).
	VidsProcessing time.Duration
	// Overhead is (with - without) / without: the cost of vids
	// relative to the *simulation*. The simulated forwarding baseline
	// is far cheaper than a real forwarding host, so this figure
	// overstates vids' relative cost; UtilizationAdded is the
	// deployment-comparable number.
	Overhead float64
	// UtilizationAdded is the added CPU utilization if this host ran
	// vids against the live traffic: processing time divided by the
	// traffic's real-time duration. This is the measurement
	// comparable to the paper's 3.6%.
	UtilizationAdded float64
	// SimulatedTraffic is the virtual time span of the analyzed
	// traffic.
	SimulatedTraffic time.Duration
	// PaperOverhead is the paper's 3.6%.
	PaperOverhead float64

	PacketsSeen uint64
	PerPacket   time.Duration
}

// CPUOverhead measures the real processing cost of vids on this host
// by replaying the same workload with and without the IDS.
func CPUOverhead(opts Options) (*CPUResult, error) {
	o := opts.withDefaults()
	res := &CPUResult{PaperOverhead: 0.036}

	for _, inline := range []bool{false, true} {
		cfg := o.testbedConfig(inline)
		cfg.WithMedia = true
		// Make the inline processing-delay model free so the two runs
		// execute the identical packet timeline; only the real
		// analysis cost differs.
		cfg.IDS.SIPProcessing = 0
		cfg.IDS.RTPProcessing = 0
		start := time.Now()
		tb, err := runWorkload(cfg, o.Duration)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		if inline {
			res.WallWith = elapsed
			res.VidsProcessing = tb.IDS.ProcessingWallTime()
			sipN, rtpN, _, _ := tb.IDS.Counters()
			res.PacketsSeen = sipN + rtpN
		} else {
			res.WallWithout = elapsed
		}
	}
	if res.WallWithout > 0 {
		res.Overhead = float64(res.WallWith-res.WallWithout) / float64(res.WallWithout)
	}
	if res.PacketsSeen > 0 {
		res.PerPacket = res.VidsProcessing / time.Duration(res.PacketsSeen)
	}
	res.SimulatedTraffic = o.Duration
	if o.Duration > 0 {
		res.UtilizationAdded = float64(res.VidsProcessing) / float64(o.Duration)
	}
	return res, nil
}

// Render prints the CPU comparison.
func (r *CPUResult) Render() string {
	var b strings.Builder
	b.WriteString("Section 7.3 — CPU overhead of vids\n\n")
	fmt.Fprintf(&b, "host CPU, forwarding only:   %v\n", r.WallWithout)
	fmt.Fprintf(&b, "host CPU, with vids:         %v\n", r.WallWith)
	fmt.Fprintf(&b, "vids packet-path time:       %v over %d packets (%v/packet)\n",
		r.VidsProcessing, r.PacketsSeen, r.PerPacket)
	fmt.Fprintf(&b, "overhead vs. simulation:     %.1f%% (simulated forwarding is nearly free,\n",
		r.Overhead*100)
	b.WriteString("                             so this overstates vids' cost)\n")
	fmt.Fprintf(&b, "added CPU utilization:       measured %.2f%% of one core for %v of live\n",
		r.UtilizationAdded*100, r.SimulatedTraffic)
	fmt.Fprintf(&b, "                             traffic vs. paper 3.6%% — the deployment-\n")
	b.WriteString("                             comparable number\n")
	return b.String()
}

// MemoryResult reproduces Section 7.3's per-call memory accounting:
// ~450 bytes of SIP state plus ~40 bytes of RTP state per call, and
// linear growth that lets vids monitor thousands of calls.
type MemoryResult struct {
	// Points maps concurrent-call counts to total fact-base bytes.
	Calls []int
	Bytes []int

	PerCallBytes     int
	SIPStateBytes    int
	RTPStateBytes    int
	PaperSIPBytes    int
	PaperRTPBytes    int
	LinearityR2      float64
	ThousandCallsMiB float64
}

// Memory instantiates growing numbers of concurrent monitored calls
// and accounts the fact-base footprint.
func Memory(opts Options) (*MemoryResult, error) {
	o := opts.withDefaults()
	res := &MemoryResult{
		Calls:         []int{1, 10, 100, 1000, 5000},
		PaperSIPBytes: 450,
		PaperRTPBytes: 40,
	}

	for _, n := range res.Calls {
		s := sim.New(o.Seed)
		cfg := ids.DefaultConfig()
		cfg.IdleEviction = 0 // keep monitors resident for measurement
		d := ids.New(s, cfg)
		for i := 0; i < n; i++ {
			driveEstablishedCall(d, i)
		}
		if d.ActiveCalls() != n {
			return nil, fmt.Errorf("experiments: wanted %d resident calls, have %d", n, d.ActiveCalls())
		}
		res.Bytes = append(res.Bytes, d.MemoryFootprint())
	}
	last := len(res.Calls) - 1
	res.PerCallBytes = res.Bytes[last] / res.Calls[last]
	res.ThousandCallsMiB = float64(res.PerCallBytes) * 1000 / (1 << 20)
	res.LinearityR2 = linearityR2(res.Calls, res.Bytes)

	// Split one call's state between the SIP machine and the RTP
	// machines, mirroring the paper's 450 B / 40 B breakdown.
	s := sim.New(o.Seed)
	cfg := ids.DefaultConfig()
	cfg.IdleEviction = 0
	d := ids.New(s, cfg)
	driveEstablishedCall(d, 0)
	if mon, ok := d.Monitor(expCallID(0)); ok {
		total := mon.System.MemoryFootprint()
		sipBytes := varBytes(mon.SIP.Vars()) + len(string(mon.SIP.State()))
		res.SIPStateBytes = sipBytes
		res.RTPStateBytes = total - sipBytes
	}
	return res, nil
}

func expCallID(i int) string {
	return fmt.Sprintf("expcall-%d@ua1.a.example.com", i)
}

// driveEstablishedCall pushes one synthetic testbed call through
// INVITE, 180 and 200, both sides offering media, leaving its monitor
// resident with every machine instantiated.
func driveEstablishedCall(d *ids.IDS, i int) {
	c := dialog.TestbedCall(expCallID(i), i)
	c.Caller.Tag, c.Callee.Tag = "tagA", "tagB"
	var s dialog.Script
	c.Establish(&s, 0, 0, true)
	for _, e := range dialog.Render(s[:3]) { // the ACK stays unsent
		d.Process(e.Packet())
	}
}

// varBytes approximates the byte footprint of one variable vector the
// same way core.System.MemoryFootprint does.
func varBytes(vars core.Vars) int {
	total := 0
	for k := range vars {
		total += len(k)
		switch v := vars.Any(k).(type) {
		case string:
			total += len(v)
		case bool:
			total++
		default:
			total += 8
		}
	}
	return total
}

// linearityR2 computes the coefficient of determination of a linear
// fit through the origin for bytes = k * calls.
func linearityR2(xs []int, ys []int) float64 {
	var sxy, sxx, sy, syy float64
	n := float64(len(xs))
	for i := range xs {
		x, y := float64(xs[i]), float64(ys[i])
		sxy += x * y
		sxx += x * x
		sy += y
		syy += y * y
	}
	if sxx == 0 {
		return 0
	}
	k := sxy / sxx
	meanY := sy / n
	var ssRes, ssTot float64
	for i := range xs {
		x, y := float64(xs[i]), float64(ys[i])
		d := y - k*x
		ssRes += d * d
		t := y - meanY
		ssTot += t * t
	}
	if ssTot == 0 {
		return 1
	}
	return 1 - ssRes/ssTot
}

// Render prints the memory table.
func (r *MemoryResult) Render() string {
	var b strings.Builder
	b.WriteString("Section 7.3 — per-call memory cost\n\n")
	for i, n := range r.Calls {
		fmt.Fprintf(&b, "%6d calls: %9d bytes (%d B/call)\n", n, r.Bytes[i], r.Bytes[i]/n)
	}
	fmt.Fprintf(&b, "\nper-call state:    %d B (paper: ~%d B SIP + ~%d B RTP)\n",
		r.PerCallBytes, r.PaperSIPBytes, r.PaperRTPBytes)
	fmt.Fprintf(&b, "  SIP machine:     %d B\n", r.SIPStateBytes)
	fmt.Fprintf(&b, "  RTP machines:    %d B\n", r.RTPStateBytes)
	fmt.Fprintf(&b, "linearity R²:      %.4f\n", r.LinearityR2)
	fmt.Fprintf(&b, "1000 calls need:   %.2f MiB — thousands of calls fit easily (paper's claim)\n",
		r.ThousandCallsMiB)
	return b.String()
}
