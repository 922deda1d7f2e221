package ingress

import (
	"context"
	"fmt"
	"os"
	"time"

	"vids/internal/trace"
)

// TraceSource replays a captured trace file into an Ingress. With Pace
// 0 the entries are pushed as fast as the tier accepts them (offline
// analysis); with Pace p > 0 the capture's inter-packet gaps are
// reproduced at p times real speed, so p = 1 replays the trace on its
// original timeline — the mode for rehearsing live operation.
type TraceSource struct {
	Path    string
	Entries []trace.Entry // used instead of Path when non-nil
	Pace    float64
}

// Run feeds the trace to ing in capture order. It returns when the
// trace is exhausted or ctx is canceled, and must have returned before
// the tier is Closed.
func (ts *TraceSource) Run(ctx context.Context, ing *Ingress) error {
	entries := ts.Entries
	if entries == nil {
		f, err := os.Open(ts.Path)
		if err != nil {
			return fmt.Errorf("ingress: open trace: %w", err)
		}
		entries, err = trace.Read(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	var prev time.Duration
	for i, en := range entries {
		at := en.At()
		if ts.Pace > 0 && at > prev {
			gap := time.Duration(float64(at-prev) / ts.Pace)
			select {
			case <-time.After(gap):
			case <-ctx.Done():
				return ctx.Err()
			}
		} else if ctx.Err() != nil {
			return ctx.Err()
		}
		prev = at
		if err := ing.Ingest(en.Packet(), at); err != nil {
			return fmt.Errorf("ingress: entry %d: %w", i, err)
		}
	}
	return nil
}
