// Command vids demonstrates the intrusion detection system end to
// end: it stands up the enterprise testbed with vids inline, runs
// benign calls, launches a chosen attack, and streams the alert log.
// With -replay it instead analyzes a previously captured packet trace
// offline (see cmd/simnet -trace).
//
// Usage:
//
//	vids [-scenario bye-dos|cancel-dos|invite-flood|media-spam|rtp-flood|codec-change|hijack|toll-fraud|drdos|register-hijack|rtcp-bye|clean|all] [-report alerts.json]
//	vids -replay trace.jsonl [-shards N]
//
// Both modes run the specgen-compiled EFSM backend by default;
// -compiled=false switches to the interpreted reference walker (the
// two are differentially tested to produce identical alerts).
//
// With -shards N > 0 the replay runs through the multi-lane ingestion
// tier feeding the concurrent sharded engine (internal/ingress,
// internal/engine) — including the fast path's absorption of
// in-profile RTP unless -fastpath=false — and the resulting alert set is verified
// against a single-threaded replay of the same trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"

	"vids"
	"vids/internal/engine"
	"vids/internal/ingress"
	"vids/internal/scenario"
	"vids/internal/trace"
	"vids/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vids:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("vids", flag.ContinueOnError)
	var (
		scenarioName = fs.String("scenario", "all", "attack scenario to run ("+strings.Join(scenario.Names, "|")+"|all)")
		seed         = fs.Int64("seed", 1, "workload seed")
		replay       = fs.String("replay", "", "analyze a captured packet trace instead of running the testbed")
		report       = fs.String("report", "", "write the alert report (JSON) to this file")
		shards       = fs.Int("shards", 0, "replay through the concurrent engine with N shard workers (0 = single-threaded)")
		compiled     = fs.Bool("compiled", true, "run the specgen-compiled EFSM backend (false = interpreted reference walker)")
		fastpath     = fs.Bool("fastpath", true, "absorb in-profile RTP at ingress in the sharded replay (shards>0); false = every packet takes the slow path (media is still routed by the flow table)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	backend := vids.BackendCompiled
	if !*compiled {
		backend = vids.BackendInterpreted
	}
	if *replay != "" {
		return replayTrace(*replay, *report, *shards, backend, *fastpath)
	}

	names := scenario.Names
	if *scenarioName != "all" {
		names = []string{*scenarioName}
	}
	for _, name := range names {
		if err := runScenario(name, *seed, *report, backend); err != nil {
			return fmt.Errorf("scenario %s: %w", name, err)
		}
	}
	return nil
}

// writeReport exports alerts as JSON when a report path was given.
func writeReport(d *vids.IDS, path string) error {
	if path == "" {
		return nil
	}
	return writeAlerts(d.Alerts(), path)
}

// writeAlerts renders an alert slice in the same JSON format as
// IDS.WriteAlerts.
func writeAlerts(alerts []vids.Alert, path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if alerts == nil {
		alerts = []vids.Alert{}
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(alerts); err != nil {
		return err
	}
	fmt.Printf("  report: %d alert(s) written to %s\n", len(alerts), path)
	return nil
}

// replayTrace feeds a captured trace into a fresh IDS instance, or —
// with shards > 0 — into the concurrent sharded engine, in which case
// the engine's alert set is checked against the single-threaded run.
func replayTrace(path, report string, shards int, backend vids.Backend, fastpath bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	entries, err := trace.Read(f)
	if err != nil {
		return err
	}
	if shards > 0 {
		return replayEngine(entries, report, shards, backend, fastpath)
	}
	cfg := vids.DefaultConfig()
	cfg.Backend = backend
	s := vids.NewSimulator(1)
	d := vids.New(s, cfg)
	d.OnAlert = func(a vids.Alert) { fmt.Printf("ALERT %s\n", a) }
	if err := trace.Replay(s, entries, d); err != nil {
		return err
	}
	if err := s.RunAll(); err != nil {
		return err
	}
	sipN, rtpN, parseErrs, deviations := d.Counters()
	fmt.Printf("replayed %d packets: sip=%d rtp=%d parse-errors=%d deviations=%d alerts=%d\n",
		len(entries), sipN, rtpN, parseErrs, deviations, len(d.Alerts()))
	return writeReport(d, report)
}

// replayEngine pushes the trace through the multi-lane ingestion tier
// feeding the sharded engine — the path where the per-flow RTP
// validation cache absorbs in-profile media — and verifies the
// resulting alert set matches a sequential replay of the same entries:
// the engine's correctness contract, and with -fastpath on, the
// cache's alert-parity contract.
func replayEngine(entries []trace.Entry, report string, shards int, backend vids.Backend, fastpath bool) error {
	idsCfg := vids.DefaultConfig()
	idsCfg.Backend = backend
	ing := ingress.New(ingress.Config{
		Lanes:  1,
		Engine: engine.Config{Shards: shards, IDS: idsCfg, DisableFastpath: !fastpath},
	})
	e := ing.Engine()
	for i, en := range entries {
		if err := ing.Ingest(en.Packet(), en.At()); err != nil {
			return fmt.Errorf("entry %d: %w", i, err)
		}
	}
	if err := ing.Close(); err != nil {
		return err
	}
	alerts := ing.Alerts()
	for _, a := range alerts {
		fmt.Printf("ALERT %s\n", a)
	}
	st := ing.Stats()
	fmt.Printf("replayed %d packets on %d shard(s): processed=%d absorbed=%d parse-errors=%d dropped=%d fastpath-hits=%d alerts=%d\n",
		len(entries), e.Shards(), st.Processed, st.Absorbed, st.ParseErrors, st.Dropped, st.FastpathHits, len(alerts))

	// Cross-check against the single-threaded path: same trace, same
	// detectors, one fact base.
	s := vids.NewSimulator(1)
	d := vids.New(s, idsCfg)
	if err := trace.Replay(s, entries, d); err != nil {
		return err
	}
	if err := s.RunAll(); err != nil {
		return err
	}
	seq := d.Alerts()
	engine.SortAlerts(seq)
	if !reflect.DeepEqual(alerts, seq) {
		return fmt.Errorf("engine alerts diverge from the sequential run: %d vs %d", len(alerts), len(seq))
	}
	fmt.Printf("  verified: alert set matches the sequential run (%d alert(s))\n", len(seq))
	return writeAlerts(alerts, report)
}

func runScenario(name string, seed int64, report string, backend vids.Backend) error {
	fmt.Printf("==== scenario: %s ====\n", name)
	tb, err := scenario.Run(name, scenario.Options{
		Seed: seed, Out: os.Stdout,
		Configure: func(cfg *workload.Config) { cfg.IDS.Backend = backend },
	})
	if err != nil {
		return err
	}
	alerts := tb.IDS.Alerts()
	if name == "clean" && len(alerts) == 0 {
		fmt.Println("  no alerts — clean traffic passes silently")
	}
	fmt.Printf("  => %d alert(s)\n\n", len(alerts))
	return writeReport(tb.IDS, report)
}
