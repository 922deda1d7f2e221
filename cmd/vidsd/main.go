// Command vidsd runs vids as an online detection daemon: the
// multi-lane ingestion tier (internal/ingress) in front of the sharded
// detection workers (internal/engine), fed from a packet source, with
// alerts streamed to stdout as they fire and pipeline statistics
// reported periodically on stderr.
//
// Two sources are available:
//
//   - trace: replay a captured trace file (cmd/simnet -trace or
//     cmd/vids -report companions) at a configurable pace. -pace 1
//     reproduces the capture timeline in real time, -pace 0 pushes as
//     fast as the pipeline accepts — the offline-analysis mode.
//   - udp: bind real UDP sockets for SIP and media (RTCP is
//     demultiplexed off the media socket per RFC 5761) and analyze
//     whatever arrives, live. -listeners binds several SO_REUSEPORT
//     socket pairs feeding the lanes concurrently.
//
// Every packet enters through the lanes: each SIP datagram is scanned
// once there, the cross-call flood windows live there, and the lanes
// hand packets to the shard that owns their call. -lanes sets the
// stripe count (0, the default, is one lane per shard; 1 serializes
// ingestion). Media is routed by the engine's flow table, which also
// validates RTP and absorbs in-profile media before shard enqueue;
// -fastpath=false turns absorption off, so every packet takes the slow
// path (the flow table still routes it).
//
// Usage:
//
//	vidsd -source trace -trace capture.jsonl [-pace 1] [-shards N]
//	vidsd -source udp [-sip :5060] [-rtp :20000] [-policy drop]
//	vidsd -source udp -lanes 4 -listeners 2 [-policy shed] [-srtp]
//
// The daemon drains and exits when the source is exhausted or on
// SIGINT/SIGTERM: queued packets are analyzed, final statistics are
// printed, and -report writes the alert log plus the final pipeline
// counters as JSON.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vids/internal/engine"
	"vids/internal/ids"
	"vids/internal/ingress"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "vidsd:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("vidsd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		shards    = fs.Int("shards", 0, "detection shard workers (0 = GOMAXPROCS)")
		queue     = fs.Int("queue", 0, "per-shard queue depth (0 = 1024)")
		policy    = fs.String("policy", "block", "full-queue policy: block (lossless), drop (drop-oldest) or shed (media before signaling)")
		lanes     = fs.Int("lanes", 0, "ingestion lanes, rounded down to a divisor of the shard count (0 = one per shard)")
		listeners = fs.Int("listeners", 1, "UDP socket pairs, SO_REUSEPORT permitting (source=udp)")
		srtp      = fs.Bool("srtp", false, "SRTP-degraded mode: inspect only cleartext RTP headers, skip media payloads and RTCP")
		fastpath  = fs.Bool("fastpath", true, "absorb in-profile RTP at ingress, validated against the flow table; false = every packet takes the slow path (media is still routed by the flow table)")
		compiled  = fs.Bool("compiled", true, "run the specgen-compiled EFSM backend (false = interpreted reference walker)")
		source    = fs.String("source", "trace", "packet source: trace or udp")
		tracePath = fs.String("trace", "", "trace file to replay (source=trace)")
		pace      = fs.Float64("pace", 1, "replay speed multiple; 0 = as fast as possible (source=trace)")
		sipAddr   = fs.String("sip", ":5060", "SIP listen address (source=udp)")
		rtpAddr   = fs.String("rtp", ":20000", "media listen address (source=udp)")
		advertise = fs.String("advertise", "", "host recorded as packet destination; match your SDP (source=udp)")
		statsIvl  = fs.Duration("stats", 10*time.Second, "statistics reporting interval (0 disables)")
		report    = fs.String("report", "", "write the alert log and final counters (JSON) to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := engine.Config{
		Shards:     *shards,
		QueueDepth: *queue,
		IDS:        ids.DefaultConfig(),
		OnAlert: func(a ids.Alert) {
			fmt.Fprintf(stdout, "ALERT %s\n", a)
		},
	}
	cfg.IDS.MediaHeaderOnly = *srtp
	cfg.DisableFastpath = !*fastpath
	if !*compiled {
		cfg.IDS.Backend = ids.BackendInterpreted
	}
	switch *policy {
	case "block":
		cfg.Policy = engine.Block
	case "drop":
		cfg.Policy = engine.DropOldest
	case "shed":
		cfg.Policy = engine.Shed
	default:
		return fmt.Errorf("unknown -policy %q (want block, drop or shed)", *policy)
	}
	if *lanes < 0 {
		return fmt.Errorf("-lanes must be >= 0")
	}

	var runSrc func(context.Context, *ingress.Ingress) error
	switch *source {
	case "trace":
		if *tracePath == "" {
			return fmt.Errorf("source=trace needs -trace FILE")
		}
		runSrc = (&ingress.TraceSource{Path: *tracePath, Pace: *pace}).Run
	case "udp":
		runSrc = (&ingress.UDPListeners{
			SIPAddr: *sipAddr, RTPAddr: *rtpAddr,
			AdvertiseHost: *advertise, Listeners: *listeners,
		}).Run
	default:
		return fmt.Errorf("unknown -source %q (want trace or udp)", *source)
	}

	ing := ingress.New(ingress.Config{Lanes: *lanes, Engine: cfg})
	fmt.Fprintf(stderr, "vidsd: %d lane(s) -> %d shard(s), queue %s, source %s\n",
		ing.Lanes(), ing.Engine().Shards(), cfg.Policy, *source)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Periodic stats on stderr, so alert output on stdout stays clean
	// for piping.
	statsDone := make(chan struct{})
	if *statsIvl > 0 {
		go func() {
			defer close(statsDone)
			t := time.NewTicker(*statsIvl)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					printStats(stderr, ing.Stats())
				case <-ctx.Done():
					return
				}
			}
		}()
	} else {
		close(statsDone)
	}

	srcErr := runSrc(ctx, ing)
	switch {
	case errors.Is(srcErr, context.Canceled):
		fmt.Fprintln(stderr, "vidsd: interrupted, draining")
		srcErr = nil
	case srcErr == nil:
		fmt.Fprintln(stderr, "vidsd: source exhausted, draining")
	}
	stop()
	<-statsDone
	closeErr := ing.Close()

	// The final counters and the report flush no matter how the run
	// ended — source EOF, signal, or a drain failure. An operator
	// diagnosing a failed run needs the numbers and the alert log most
	// of all, and a clean EOF exit must leave the same artifacts a
	// signal-triggered drain does.
	finalStats := ing.Stats()
	printStats(stderr, finalStats)
	alertLog := ing.Alerts()
	fmt.Fprintf(stderr, "vidsd: done: %d alert(s)\n", len(alertLog))
	var reportErr error
	if *report != "" {
		if reportErr = writeReport(alertLog, finalStats, *report); reportErr == nil {
			fmt.Fprintf(stderr, "vidsd: report written to %s\n", *report)
		}
	}
	return errors.Join(srcErr, closeErr, reportErr)
}

func printStats(w io.Writer, st engine.Stats) {
	fmt.Fprintf(w, "vidsd: ingested=%d processed=%d dropped=%d dropped-media=%d dropped-signaling=%d absorbed=%d ignored=%d parse-errors=%d alerts=%d pps=%.0f fp-hits=%d fp-misses=%d fp-escalations=%d fp-invalidations=%d inline=%d\n",
		st.Ingested, st.Processed, st.Dropped, st.DroppedMedia, st.DroppedSignaling,
		st.Absorbed, st.Ignored, st.ParseErrors, st.Alerts, st.PacketsPerSec,
		st.FastpathHits, st.FastpathMisses, st.FastpathEscalations, st.FastpathInvalidations, st.Inline)
	for i, sh := range st.Shards {
		if sh.Depth > 0 {
			fmt.Fprintf(w, "vidsd:   shard %d backlog: %d queued\n", i, sh.Depth)
		}
	}
}

// reportDoc is the on-disk report shape: the alert log plus the final
// pipeline counters, so a drained run documents its own backpressure
// behavior (what was shed, and of which tier) next to what it
// detected.
type reportDoc struct {
	Alerts []ids.Alert  `json:"alerts"`
	Stats  engine.Stats `json:"stats"`
}

func writeReport(alerts []ids.Alert, st engine.Stats, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if alerts == nil {
		alerts = []ids.Alert{}
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(reportDoc{Alerts: alerts, Stats: st})
}
