GO ?= go

# BENCHTIME paces the hot-path benchmarks (make bench). CI overrides
# it with a fixed iteration count for a fast, deterministic smoke.
BENCHTIME ?= 1s
# CHURNTIME paces BenchmarkCallChurn with a fixed iteration count:
# its allocs/op amortizes one-time warm-up (monitor pool, intern
# table, timer wheel) over the run, so baseline and fresh runs must
# use identical pacing for bench-compare to be meaningful. 250 000
# calls run for 1.2 to 2 s, long enough for the ns/op row to
# average out scheduling noise (5 000 ran for 40 ms and moved 2x
# between back-to-back runs).
CHURNTIME ?= 250000x

# The benchmark suites behind the committed JSON baselines. HOTPATH
# feeds BENCH_hotpath.json; the engine file merges a churn run
# (allocation-gated) with a throughput run (timing only — engine
# fan-out allocs vary with scheduling and are not a useful gate).
HOTPATH_BENCH = BenchmarkSIPParse$$|BenchmarkSIPScan$$|BenchmarkSIPScanResponse$$|BenchmarkRTPParse$$|BenchmarkRTCPParse$$|BenchmarkIDSProcessSIP$$|BenchmarkIDSProcessSIPCompiled$$|BenchmarkIDSProcessSIPInterpreted$$|BenchmarkIDSProcessSIPView$$|BenchmarkIDSProcessSIPViewFlows$$|BenchmarkIDSProcessRTP$$|BenchmarkIDSProcessRTPInterpreted$$|BenchmarkEFSMStep$$|BenchmarkEFSMStepCompiled$$|BenchmarkFastpathLookup$$|BenchmarkWheelNextLoaded$$
# THROUGHPUT_BENCH pairs the SIP-heavy engine mix with the media-heavy
# one so the fast-path absorption numbers are pinned alongside the
# baseline fan-out numbers in BENCH_engine.json.
THROUGHPUT_BENCH = BenchmarkEngineThroughput$$|BenchmarkEngineThroughputMedia$$

.PHONY: all build test race alloc-budgets fmt lint waivers ci golden bench bench-smoke bench-compare bench-e2e fuzz-smoke speccover speccover-update specgen specgen-check torture-check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# alloc-budgets runs the allocation budgets without the race detector:
# under -race every TestAllocBudget* skips (race_on_test.go).
alloc-budgets:
	$(GO) test -run 'TestAllocBudget' -v .

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi

# lint runs every static gate: formatting, go vet, the repo-specific
# source analyzer (cmd/vidslint) and the EFSM specification verifier
# (internal/speclint via cmd/fsmdump). vidslint's whole-module run
# includes the whole-program rule sets: the //vids:noalloc escape gate
# over the hot-path call closure, the //vids:nopanic panic-freedom
# gate over the untrusted-input closure, the lock gate wherever a
# mutex is used, the directive-freshness sweep, and the alloc-ceiling
# drift check against alloc_test.go.
lint: fmt
	$(GO) vet ./...
	$(GO) run ./cmd/vidslint ./...
	$(GO) run ./cmd/fsmdump

# waivers regenerates cmd/vidslint/WAIVERS.json, the committed inventory
# of every gate suppression in the module (alloc-ok, panic-ok, coldpath,
# lockorder, vidslint:allow). `go test ./cmd/vidslint` fails while the
# file and the source disagree; review the diff this produces.
waivers:
	$(GO) test ./cmd/vidslint -run 'TestWaiverInventory' -update

# bench runs the packet-path micro-benchmarks with allocation
# reporting and archives the numbers as BENCH_hotpath.json — the
# regression record for the zero-allocation hot path — plus the call
# lifecycle and engine throughput benchmarks as BENCH_engine.json.
# Override the pacing with BENCHTIME (e.g. `make bench BENCHTIME=100x`).
bench:
	$(GO) test -run '^$$' -bench '$(HOTPATH_BENCH)' \
		-benchmem -benchtime $(BENCHTIME) . | tee BENCH_hotpath.txt
	$(GO) run ./cmd/benchjson < BENCH_hotpath.txt > BENCH_hotpath.json
	@rm -f BENCH_hotpath.txt
	@echo "wrote BENCH_hotpath.json"
	$(GO) test -run '^$$' -bench 'BenchmarkCallChurn$$' \
		-benchmem -benchtime $(CHURNTIME) . | $(GO) run ./cmd/benchjson > BENCH_churn.part.json
	$(GO) test -run '^$$' -bench '$(THROUGHPUT_BENCH)' \
		-benchtime $(BENCHTIME) . | $(GO) run ./cmd/benchjson > BENCH_throughput.part.json
	$(GO) run ./cmd/benchjson -merge BENCH_churn.part.json BENCH_throughput.part.json > BENCH_engine.json
	@rm -f BENCH_churn.part.json BENCH_throughput.part.json
	@echo "wrote BENCH_engine.json"
	$(GO) run ./cmd/benchjson -scaling BENCH_engine.json \
		'BenchmarkEngineThroughput/shards=4' 'BenchmarkEngineThroughput/shards=1'
	$(GO) run ./cmd/benchjson -scaling BENCH_engine.json \
		'BenchmarkEngineThroughputMedia/fastpath=on/shards=4' 'BenchmarkEngineThroughputMedia/fastpath=on/shards=1'
	$(GO) run ./cmd/benchjson -scaling -scale-ratio 4 -scale-min-cores 1 BENCH_engine.json \
		'BenchmarkEngineThroughputMedia/fastpath=on/shards=1' 'BenchmarkEngineThroughputMedia/fastpath=off/shards=1'

# bench-compare reruns the pinned benchmarks and diffs allocs/op
# against the committed baselines, failing on a >10% regression —
# run it before `make bench` overwrites the baselines.
bench-compare:
	$(GO) test -run '^$$' -bench '$(HOTPATH_BENCH)' \
		-benchmem -benchtime $(BENCHTIME) . | $(GO) run ./cmd/benchjson > BENCH_hotpath.fresh.json
	$(GO) test -run '^$$' -bench 'BenchmarkCallChurn$$' \
		-benchmem -benchtime $(CHURNTIME) . | $(GO) run ./cmd/benchjson > BENCH_churn.fresh.json
	$(GO) test -run '^$$' -bench '$(THROUGHPUT_BENCH)' \
		-benchtime $(BENCHTIME) . | $(GO) run ./cmd/benchjson > BENCH_throughput.fresh.json
	$(GO) run ./cmd/benchjson -merge BENCH_churn.fresh.json BENCH_throughput.fresh.json > BENCH_engine.fresh.json
	$(GO) run ./cmd/benchjson -compare BENCH_hotpath.json BENCH_hotpath.fresh.json
	$(GO) run ./cmd/benchjson -compare BENCH_engine.json BENCH_engine.fresh.json
	$(GO) run ./cmd/benchjson -scaling BENCH_engine.fresh.json \
		'BenchmarkEngineThroughput/shards=4' 'BenchmarkEngineThroughput/shards=1'
	$(GO) run ./cmd/benchjson -scaling BENCH_engine.fresh.json \
		'BenchmarkEngineThroughputMedia/fastpath=on/shards=4' 'BenchmarkEngineThroughputMedia/fastpath=on/shards=1'
	$(GO) run ./cmd/benchjson -scaling -scale-ratio 4 -scale-min-cores 1 BENCH_engine.fresh.json \
		'BenchmarkEngineThroughputMedia/fastpath=on/shards=1' 'BenchmarkEngineThroughputMedia/fastpath=off/shards=1'
	@rm -f BENCH_hotpath.fresh.json BENCH_churn.fresh.json BENCH_throughput.fresh.json BENCH_engine.fresh.json
	@echo "allocation budgets hold vs committed baselines; ingestion tier scaling and fast-path absorption floors hold"

# bench-smoke exercises the concurrent engine benchmark once per
# shard count under the race detector — a cheap CI gate that the
# sharded pipeline still builds, runs and drains cleanly.
bench-smoke:
	$(GO) test -race -run '^$$' -bench 'BenchmarkEngineThroughput' -benchtime=1x .

# bench-e2e runs the end-to-end benchmark (bench/, BENCHMARK.json) as
# an exit-code smoke on two workloads: sip_churn, whose shard stays on
# its worker, and attack_mix, whose shard the producer steps inline
# once the fast path absorbs most of its traffic. Each run fails
# unless the pipeline's alerts equal the sequential reference's, the
# accounting identity holds at every census and no operation failed.
# The numbers it prints are not gated here; bench/README.md says how
# two commits are compared.
bench-e2e:
	$(GO) run ./bench -workload sip_churn -trace 0 -seconds 10
	$(GO) run ./bench -workload attack_mix -trace 0 -seconds 10

# fuzz-smoke briefly runs the native fuzz targets that hammer the
# //vids:nopanic roots with hostile bytes — the dynamic cross-check of
# the static panic-freedom gate — and the decode → encode → decode
# round trips of URIs, trace JSONL and SDP, and the differential
# check of sdp.MediaDest against sdp.Parse. Each target also replays its
# committed corpus (testdata/fuzz/) as regression cases under plain
# `go test`. FUZZTIME paces the smoke; raise it for a deeper local run
# (e.g. `make fuzz-smoke FUZZTIME=2m`).
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/sipmsg -run '^$$' -fuzz 'FuzzSIPParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sipmsg -run '^$$' -fuzz 'FuzzURIParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rtp -run '^$$' -fuzz 'FuzzRTPParseInto$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ids -run '^$$' -fuzz 'FuzzScanParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz 'FuzzJSONLRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sdp -run '^$$' -fuzz 'FuzzSDPRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sdp -run '^$$' -fuzz 'FuzzMediaDestParse$$' -fuzztime $(FUZZTIME)

# speccover measures specification transition coverage (scenario
# suite + synthesized witness traces, merged with static product
# reachability) and gates on the committed SPEC_COVERAGE.json
# baseline. Witness traces land in coverage-traces/ for inspection and
# replay via `vids -replay`.
speccover:
	$(GO) run ./cmd/speccover -baseline SPEC_COVERAGE.json -traces coverage-traces

# speccover-update regenerates the coverage baseline after a reviewed
# specification or scenario change.
speccover-update:
	$(GO) run ./cmd/speccover -write SPEC_COVERAGE.json

# specgen regenerates every *_gen.go of internal/idsgen (tables, typed
# event vectors, machine structs, Step, guard and action bodies) plus
# the IR fixture's probe_gen_test.go from the specifications authored
# in internal/ids — run it after any spec change, then commit the
# result. specgen-check verifies each committed file is byte-identical
# to what the generator would emit, and that internal/idsgen holds no
# handwritten file beyond runtime.go, system.go and reconstruct.go (the
# CI freshness gate: stale compiled code, or a hand mirror creeping
# back, fails instead of silently diverging from the specs).
specgen:
	$(GO) run ./cmd/specgen

specgen-check:
	$(GO) run ./cmd/specgen -check

# torture-check regenerates the committed hostile replay traces
# (cmd/vids/testdata/torture.jsonl and via-evasion.jsonl) from
# gen_torture.go and fails if either differs from the committed bytes:
# a change to the dialog grammar or its encoders that moves them must
# land with the regenerated traces.
torture-check:
	$(GO) run cmd/vids/gen_torture.go
	git diff --exit-code -- cmd/vids/testdata/torture.jsonl cmd/vids/testdata/via-evasion.jsonl

# ci reproduces .github/workflows/ci.yml locally. Like the workflow, it
# runs the allocation regression gate (bench-compare) at a fixed 100
# iterations per benchmark.
ci: BENCHTIME = 100x
ci: lint specgen-check torture-check build race alloc-budgets bench-smoke bench-e2e bench-compare fuzz-smoke speccover

# golden regenerates the spec-graph golden files after a reviewed
# specification change.
golden:
	$(GO) test ./internal/ids -run DOTGolden -update
