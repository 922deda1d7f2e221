package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"vids/internal/dialog"
	"vids/internal/engine"
	"vids/internal/ids"
	"vids/internal/ingress"
	"vids/internal/sim"
)

// EngineResult holds experiment E10: scaling of the online sharded
// detection pipeline. The same synthetic workload is pushed through
// the production path (ingress lanes → engine shards) with one shard
// and with NumCPU shards, one lane per shard; the speedup bounds
// what the paper's per-call independence argument (Section 7.3) buys
// on this machine, and alert parity confirms sharding changes nothing
// about what is detected.
type EngineResult struct {
	Packets      int
	Calls        int
	BaseTime     time.Duration // wall time, 1 shard
	ScaledShards int           // NumCPU
	ScaledTime   time.Duration // wall time, NumCPU shards
	Speedup      float64
	Alerts       int
	AlertsMatch  bool // scaled alert stream identical to 1-shard stream
}

// pps converts a wall time into packets per second.
func (r *EngineResult) pps(d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(r.Packets) / d.Seconds()
}

// Render formats the result for the experiment report.
func (r *EngineResult) Render() string {
	parity := "IDENTICAL alert streams"
	if !r.AlertsMatch {
		parity = "ALERT STREAMS DIVERGE (bug!)"
	}
	return fmt.Sprintf(`E10: online pipeline scaling (internal/ingress lanes -> internal/engine shards)
  workload:    %d packets over %d calls (benign + attack mix)
  1 shard:     %v (%.0f pkts/s)
  %d shard(s):  %v (%.0f pkts/s)
  speedup:     %.2fx on %d CPU(s)
  parity:      %s (%d alerts)
  paper claim: per-call EFSM independence makes detection parallel (§7.3)`,
		r.Packets, r.Calls,
		r.BaseTime.Round(time.Millisecond), r.pps(r.BaseTime),
		r.ScaledShards, r.ScaledTime.Round(time.Millisecond), r.pps(r.ScaledTime),
		r.Speedup, runtime.NumCPU(),
		parity, r.Alerts)
}

// pipelineWorkload is the synthesized traffic experiments E10 and E12
// share, reconstructed into packets once so every run measures the
// pipeline, not trace decoding. Its size tracks the options: one call
// per MeanCallInterval per UA over the horizon, media packets capped
// to keep paper-scale runs tractable.
type pipelineWorkload struct {
	calls int
	pkts  []*sim.Packet
	ats   []time.Duration
}

func synthWorkload(o Options) *pipelineWorkload {
	calls := int(o.Duration/o.MeanCallInterval) * o.UAs
	if calls < 8 {
		calls = 8
	}
	if calls > 2000 {
		calls = 2000
	}
	rtpPerCall := int(o.MeanCallDuration / (20 * time.Millisecond))
	if rtpPerCall > 120 {
		rtpPerCall = 120
	}
	if rtpPerCall < 4 {
		rtpPerCall = 4
	}
	entries := dialog.Synthesize(dialog.SynthConfig{
		Calls: calls, RTPPerCall: rtpPerCall, Attacks: true,
	})
	w := &pipelineWorkload{
		calls: calls,
		pkts:  make([]*sim.Packet, len(entries)),
		ats:   make([]time.Duration, len(entries)),
	}
	for i, en := range entries {
		w.pkts[i] = en.Packet()
		w.ats[i] = en.At()
	}
	return w
}

// replay pushes the workload through the production path — ingress
// lanes (one per shard) in front of the engine's shards — and returns
// the wall time to drain it and the merged alert stream.
func (w *pipelineWorkload) replay(cfg engine.Config) (time.Duration, []ids.Alert, error) {
	ing := ingress.New(ingress.Config{Engine: cfg})
	start := time.Now()
	for i := range w.pkts {
		if err := ing.Ingest(w.pkts[i], w.ats[i]); err != nil {
			return 0, nil, err
		}
	}
	if err := ing.Close(); err != nil {
		return 0, nil, err
	}
	return time.Since(start), ing.Alerts(), nil
}

// EngineScaling runs experiment E10 on the synthesized workload (not
// captured from the testbed, whose arrival rate gives far too few
// concurrent calls to spread over shards).
func EngineScaling(o Options) (*EngineResult, error) {
	w := synthWorkload(o.withDefaults())

	baseTime, baseAlerts, err := w.replay(engine.Config{Shards: 1})
	if err != nil {
		return nil, err
	}
	n := runtime.NumCPU()
	scaledTime, scaledAlerts, err := w.replay(engine.Config{Shards: n})
	if err != nil {
		return nil, err
	}

	res := &EngineResult{
		Packets:      len(w.pkts),
		Calls:        w.calls,
		BaseTime:     baseTime,
		ScaledShards: n,
		ScaledTime:   scaledTime,
		Alerts:       len(scaledAlerts),
		AlertsMatch:  reflect.DeepEqual(baseAlerts, scaledAlerts),
	}
	if scaledTime > 0 {
		res.Speedup = float64(baseTime) / float64(scaledTime)
	}
	if !res.AlertsMatch {
		return res, fmt.Errorf("experiments: engine alert streams diverge (1 shard: %d, %d shards: %d)",
			len(baseAlerts), n, len(scaledAlerts))
	}
	return res, nil
}
