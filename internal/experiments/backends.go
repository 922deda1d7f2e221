package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"vids/internal/engine"
	"vids/internal/ids"
)

// backendShards are the engine fan-outs the backend comparison sweeps.
// Fixed (rather than NumCPU-derived) so the report rows are comparable
// across machines; shards are goroutines, so the sweep is meaningful
// even on a single core.
var backendShards = []int{1, 2, 4}

// BackendRow is one (shard count) measurement pair of experiment E12.
type BackendRow struct {
	Shards          int
	InterpretedTime time.Duration
	CompiledTime    time.Duration
	Speedup         float64 // interpreted / compiled wall time
}

// BackendsResult holds experiment E12: the specgen-compiled dispatch
// against the interpreted reference walker on one synthesized workload
// (benign + attack mix), swept across engine shard counts. Alert
// parity across every cell is the correctness half of the experiment;
// the wall-time ratio is the performance half.
type BackendsResult struct {
	Packets     int
	Calls       int
	Rows        []BackendRow
	Alerts      int
	AlertsMatch bool // every cell produced the identical alert stream
}

// pps converts a wall time into packets per second.
func (r *BackendsResult) pps(d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(r.Packets) / d.Seconds()
}

// Render formats the result for the experiment report.
func (r *BackendsResult) Render() string {
	parity := "IDENTICAL alert streams across all cells"
	if !r.AlertsMatch {
		parity = "ALERT STREAMS DIVERGE (bug!)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, `E12: compiled vs interpreted EFSM dispatch (cmd/specgen)
  workload:    %d packets over %d calls (benign + attack mix)
`, r.Packets, r.Calls)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %d shard(s):  interpreted %v (%.0f pkts/s) | compiled %v (%.0f pkts/s) | %.2fx\n",
			row.Shards,
			row.InterpretedTime.Round(time.Millisecond), r.pps(row.InterpretedTime),
			row.CompiledTime.Round(time.Millisecond), r.pps(row.CompiledTime),
			row.Speedup)
	}
	fmt.Fprintf(&b, `  parity:      %s (%d alerts)
  paper claim: table-driven EFSM stepping is cheap enough for inline
               detection (§7.3); compiling the tables keeps the same
               alert semantics while shrinking the per-packet cost`,
		parity, r.Alerts)
	return b.String()
}

// Backends runs experiment E12. The workload is synthesized exactly
// like EngineScaling's (E10) so the two reports describe the same
// traffic; every (backend, shards) cell replays the identical packet
// sequence and the alert streams are required to match cell for cell.
func Backends(o Options) (*BackendsResult, error) {
	w := synthWorkload(o.withDefaults())
	run := func(backend ids.Backend, shards int) (time.Duration, []ids.Alert, error) {
		idsCfg := ids.DefaultConfig()
		idsCfg.Backend = backend
		return w.replay(engine.Config{Shards: shards, IDS: idsCfg})
	}

	res := &BackendsResult{Packets: len(w.pkts), Calls: w.calls, AlertsMatch: true}
	var ref []ids.Alert
	for _, shards := range backendShards {
		iTime, iAlerts, err := run(ids.BackendInterpreted, shards)
		if err != nil {
			return nil, err
		}
		cTime, cAlerts, err := run(ids.BackendCompiled, shards)
		if err != nil {
			return nil, err
		}
		row := BackendRow{Shards: shards, InterpretedTime: iTime, CompiledTime: cTime}
		if cTime > 0 {
			row.Speedup = float64(iTime) / float64(cTime)
		}
		res.Rows = append(res.Rows, row)
		if ref == nil {
			ref = iAlerts
			res.Alerts = len(ref)
		}
		if !reflect.DeepEqual(ref, iAlerts) || !reflect.DeepEqual(ref, cAlerts) {
			res.AlertsMatch = false
			return res, fmt.Errorf("experiments: backend alert streams diverge at %d shard(s) (ref %d, interpreted %d, compiled %d)",
				shards, len(ref), len(iAlerts), len(cAlerts))
		}
	}
	return res, nil
}
