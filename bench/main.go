// Command bench is the repository's benchmark: it drives the production
// ingestion path (ingress.New -> Ingress.Ingest -> Close/Stats/Alerts)
// from outside with four seeded traffic mixes and reports what an
// operator of vids feels — packets per second, CPU per packet, the delay
// a packet and an alert pick up inside the detector, memory per call —
// beside per-layer numbers that say where those come from. Everything
// runs in one process: in-process, no link or loopback.
//
//	go run ./bench -seed 1                       all four workloads, every metric
//	go run ./bench -workload call_mix -trace 0   one workload, end-to-end metrics
//	go run ./bench -workload call_mix -trace 1   one workload, per-layer metrics
//	go run ./bench -compare A.json B.json        hold result set B to A within the bounds
//
// See README.md in this directory for the workloads, the metrics and how
// they interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// runSeconds is BENCHMARK.json's run_seconds.
const runSeconds = 22

// report is the document a full run prints.
type report struct {
	Note       string   `json:"note"`
	Machine    string   `json:"machine"`
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go"`
	Seed       int64    `json:"seed"`
	Seconds    int      `json:"seconds"`
	Results    []result `json:"results"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "run one workload (sip_churn, media_steady, call_mix, attack_mix); empty = all four, every metric")
		seed     = fs.Int64("seed", 1, "workload seed: the same seed gives the same packets")
		seconds  = fs.Int("seconds", runSeconds, "measured seconds per workload, split between the phases; the review tooling passes BENCHMARK.json's run_seconds")
		traced   = fs.Int("trace", 0, "with -workload: 0 = end-to-end metrics from untraced phases, 1 = per-layer metrics from a traced pass")
		traceOut = fs.String("trace-out", "", "write the traced pass's spans to this file as JSON lines")
		compare  = fs.Bool("compare", false, "compare two result sets: bench -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds < 10 {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 10")
		return 2
	}
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, "bench: "+format+"\n", a...) }

	var spans io.Writer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		defer f.Close()
		spans = f
	}

	if *name != "" {
		// One workload, one kind of metric: the last line of standard
		// output is the result object.
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		res := runWorkload(w, *seed, planFor(*seconds, *traced == 0, *traced != 0), spans, logf)
		for _, why := range res.Why {
			logf("%s: %s", w.name, why)
		}
		ms := res.EndToEnd
		if *traced != 0 {
			ms = res.PerLayer
		}
		line := struct {
			Correct   bool                 `json:"correct"`
			Attempted uint64               `json:"attempted"`
			Failed    uint64               `json:"failed"`
			Metrics   map[string]valueUnit `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, contractMetrics(ms, *traced != 0)}
		if err := json.NewEncoder(stdout).Encode(line); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if !res.Correct {
			return 1
		}
		return 0
	}

	rep := report{
		Note:    "in-process, no link or loopback: one producer goroutine, lanes=1, shards=1, compiled backend, fast path on, Block policy",
		Machine: machineName(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Seed: *seed, Seconds: *seconds,
	}
	failed := false
	for i := range workloads {
		res := runWorkload(&workloads[i], *seed, planFor(*seconds, true, true), spans, logf)
		for _, why := range res.Why {
			logf("%s: %s", res.Workload, why)
		}
		failed = failed || !res.Correct
		rep.Results = append(rep.Results, res)
	}
	printTable(stderr, rep)
	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(doc))
	if failed {
		return 1
	}
	return 0
}

// printTable lists every metric by name with unit and sample count.
func printTable(w io.Writer, rep report) {
	fmt.Fprintf(w, "\n%s; %s, nproc %d, GOMAXPROCS %d, %s, seed %d\n", rep.Note, rep.Machine, rep.NumCPU, rep.GOMAXPROCS, rep.GoVersion, rep.Seed)
	for _, res := range rep.Results {
		fmt.Fprintf(w, "\n%s: attempted %d, failed %d\n", res.Workload, res.Attempted, res.Failed)
		for _, ms := range []metrics{res.EndToEnd, res.PerLayer} {
			for _, name := range ms.names() {
				m := ms[name]
				note := ""
				if m.Pct != 0 && m.Pct != 99 {
					note = fmt.Sprintf("  (p%g: fewer than ten samples beyond p99)", m.Pct)
				}
				if m.Mark != "" {
					note += "  MARKED: " + m.Mark
				}
				fmt.Fprintf(w, "  %-36s %16.4f %-6s n=%d%s\n", name, m.Value, m.Unit, m.Samples, note)
			}
		}
	}
}

func machineName() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
			}
		}
	}
	return runtime.GOOS + "/" + runtime.GOARCH
}
