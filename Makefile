GO ?= go
FUZZTIME ?= 10s

# Benchmark-regression harness knobs (see EXPERIMENTS.md §Benchmark
# regression harness). BENCH_BASELINE defaults to the newest checked-in
# archive; `make check BENCH=1` adds the regression gate to check.
BENCH_RUNS ?= 3
BENCH_TIME ?= 2s
BENCH_PAT ?= BenchmarkStreamThroughput
BENCH_BASELINE ?= $(lastword $(sort $(wildcard BENCH_*.json)))
BENCH_LABEL ?= $(shell date +%Y-%m-%d)

# `make profile WORKLOAD=<Go benchmark>` knob: how long the benchmark runs.
PROFILE_TIME ?= 5s

.PHONY: all build test race vet test-matrix alloc-gate chaos-smoke adversary telemetry interop overload flock fuzz-smoke check bench bench-all bench-check profile

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Scheduler/feature matrix: the race detector, the purego build-tag
# variant, and a single-P run that surfaces scheduler-dependent flakes
# the chaos harness only hits probabilistically. The last two lines are
# the goroutine gates: the overload gauntlet's back-to-baseline leak
# check, and the exact per-session goroutine bill of the sharded
# runtime (1 accept loop + workers + shared timer/event loops, then
# exactly 2 goroutines per idle session — equality, not a bound).
test-matrix:
	$(GO) test -race ./...
	$(GO) test -tags=purego ./...
	GOMAXPROCS=1 $(GO) test ./...
	$(GO) test ./internal/chaos/ -run 'TestOverloadGauntlet$$' -count=1
	$(GO) test ./internal/chaos/ -run 'TestGoroutineBudgetExact$$' -count=1
	$(GO) test ./internal/tls13/ -run 'TestBatch' -count=1
	$(GO) test ./internal/ring/ ./internal/timingwheel/ -race -count=1

# Steady-state allocation gates for the data path, run WITHOUT the race
# detector so testing.AllocsPerRun counts are exact: the record layer's
# send and receive path (one record and a batch), the session byte path
# end to end (at most 1.0 allocations per 64 KiB Stream.Write through to
# the peer's Read, 0.5 per 1 KiB echo round trip, both sides counted), the
# buffer-pool accounting invariants, the timing wheel's zero-alloc rearm,
# and the segment path through wire, tcpnet and netsim (at most 0.25
# allocations per segment in a steady-state bulk transfer).
alloc-gate:
	$(GO) test ./internal/tls13/ -run 'TestRecordWriteSteadyStateAllocs|TestRecordReadSteadyStateAllocs|TestBatchWriteSteadyStateAllocs' -count=1 -v
	$(GO) test ./internal/core/ -run 'TestStreamWriteSteadyStateAllocs' -count=1 -v
	$(GO) test ./internal/bufpool/ -count=1
	$(GO) test ./internal/timingwheel/ -run 'TestWheelRearmZeroAlloc' -count=1 -v
	$(GO) test ./internal/tcpnet/ -run 'TestTCPNetBulkAllocsPerSegment' -count=1 -v

# Deterministic chaos acceptance run: flap + stall + RST + 2% loss over
# a 1 MB multi-stream transfer, with proactive (probe-timeout) failover,
# plus the Fig. 4 reproduction asserted from the event trace alone.
chaos-smoke:
	$(GO) test ./internal/chaos/ -run 'TestChaosSmoke|TestChaosSinglePathRecovery|TestFig4FailoverTrace' -count=1 -v

# Hostile-peer gauntlet: SYN flood, slowloris, malformed-record spray,
# stream-open flood — run under the race detector.
adversary:
	$(GO) test ./internal/chaos/ -race -run 'TestAdversarialPeer|TestSessionSurvivesForgedRSTSinglePath' -count=1 -v

# Telemetry invariants: the tracer/metrics suite under the race
# detector, then the zero-allocation guarantees — disabled tracing,
# Histogram.Observe, and the flight recorder's steady-state record path
# all hold testing.AllocsPerRun == 0 — without the race detector, so
# allocation counts are exact. The tracing-overhead benchmark triple
# (off / 1-in-100 sampled / full fidelity) quantifies what turning the
# firehose on costs relative to the always-on flight recorder.
telemetry:
	$(GO) test ./internal/telemetry/ -race -count=1
	$(GO) test ./internal/telemetry/ -run 'TestDisabledTracerZeroAlloc|TestHistogramObserveZeroAlloc|TestFlightRecorderZeroAlloc' -count=1 -v
	$(GO) test ./internal/telemetry/ -run '^$$' -bench 'BenchmarkTracerDisabled|BenchmarkTracerNil' -benchtime 1000x
	$(GO) test ./internal/telemetry/ -run '^$$' -bench 'BenchmarkTracingOverhead' -benchtime 1000x

# Overload/churn gauntlet under the race detector: Poisson client churn
# plus a demand spike past the session budget, asserting pre-TLS
# rejection of the excess, idle/degraded-only shedding, byte-exact
# completion of established transfers, admission-gate reopen, and every
# accounting gauge (and the goroutine count) back to baseline.
overload:
	$(GO) test ./internal/chaos/ -race -run 'TestOverloadGauntlet' -count=1 -v

# Flock gauntlet: the C50K scale gate for the sharded server runtime.
# Default is the 1k-client smoke profile (Poisson churn, migrations, a
# v6 link flap under the failover cohort) against the checked-in
# budgets in internal/chaos/testdata/FLOCK_BUDGET.json — sessions/sec,
# bytes/sec, heap per session, goroutines per session. FLOCK=1 runs the
# full 10k-client profile.
flock:
	$(GO) test ./internal/chaos/ -run 'TestFlockGauntlet$$' -count=1 -v -timeout 900s

# Middlebox interop gauntlet: TCPLS vs plain TLS/TCP vs the QUIC-like
# comparator through seven interference models, checked cell-by-cell
# against the committed golden matrix (a pass->degrade or degrade->fail
# slide fails the build; run with -update to ratchet improvements in).
interop:
	$(GO) test ./internal/chaos/ -run 'TestInterop' -count=1 -v

# Short fuzz pass over every attacker-facing decoder. Seeds live in
# testdata/fuzz/; any crasher Go saves there becomes a regression test.
fuzz-smoke:
	$(GO) test ./internal/record/ -run '^$$' -fuzz '^FuzzDecodeControl$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/record/ -run '^$$' -fuzz '^FuzzDecodeClientHelloTCPLS$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/record/ -run '^$$' -fuzz '^FuzzDecodeServerTCPLS$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/record/ -run '^$$' -fuzz '^FuzzDecodeStreamChunk$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/record/ -run '^$$' -fuzz '^FuzzDecodeTCPOption$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire/ -run '^$$' -fuzz '^FuzzUnmarshalSegment$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire/ -run '^$$' -fuzz '^FuzzChecksum$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netsim/ -run '^$$' -fuzz '^FuzzOptionStripperRewrite$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netsim/ -run '^$$' -fuzz '^FuzzSpliceProxyRewrite$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tls13/ -run '^$$' -fuzz '^FuzzBatchOpenFraming$$' -fuzztime $(FUZZTIME)

# BENCH=1 adds the benchmark-regression gate (bench-check) to check.
ifeq ($(BENCH),1)
CHECK_EXTRA += bench-check
endif

check: build vet alloc-gate test-matrix chaos-smoke adversary overload flock telemetry interop fuzz-smoke $(CHECK_EXTRA)

# The full virtual-time benchmark suite (one benchmark per paper
# table/figure); `make bench` below tracks just the tier-1 set.
bench-all:
	$(GO) test -bench=. -benchtime=3x .

# Run the tier-1 throughput benchmarks BENCH_RUNS times and append the
# aggregated run to BENCH_<date>.json (raw lines kept benchstat-ready).
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PAT)' -benchmem -benchtime $(BENCH_TIME) -count $(BENCH_RUNS) . \
		| $(GO) run ./cmd/benchcheck -out BENCH_$$(date +%Y-%m-%d).json -label $(BENCH_LABEL)

# Fail on >10% geomean throughput regression vs the newest checked-in
# baseline archive (override with BENCH_BASELINE=path).
bench-check:
	@test -n "$(BENCH_BASELINE)" || { echo "bench-check: no BENCH_*.json baseline found"; exit 1; }
	$(GO) test -run '^$$' -bench '$(BENCH_PAT)' -benchmem -benchtime $(BENCH_TIME) -count $(BENCH_RUNS) . \
		| $(GO) run ./cmd/benchcheck -check $(BENCH_BASELINE)

# Profile one Go benchmark, wherever in the tree it is defined: run it for
# PROFILE_TIME with CPU and memory profiles and write the benchmark line
# plus `pprof -top` (top 40 by flat and by cumulative CPU, top 40 by
# allocated bytes) to profiles/<name>-<date>.txt. The test binary and the
# raw profiles stay beside it for `go tool pprof -list`.
#	make profile WORKLOAD=BenchmarkTCPNetBulk
profile:
	@test -n "$(WORKLOAD)" || { echo "usage: make profile WORKLOAD=<Go benchmark name>"; exit 2; }
	@pkg=$$(grep -rl --include='*_test.go' '^func $(WORKLOAD)(' . | head -1 | xargs -r dirname); \
	test -n "$$pkg" || { echo "profile: no benchmark named $(WORKLOAD)"; exit 2; }; \
	mkdir -p profiles; out=$$PWD/profiles/$(WORKLOAD)-$$(date +%Y-%m-%d); \
	$(GO) test $$pkg -run '^$$' -bench '^$(WORKLOAD)$$' -benchtime $(PROFILE_TIME) -benchmem \
		-o $$out.test -cpuprofile $$out.cpu.pprof -memprofile $$out.mem.pprof > $$out.txt || { cat $$out.txt; exit 1; }; \
	{ echo; echo "== CPU, top 40 flat"; $(GO) tool pprof -top -nodecount=40 $$out.test $$out.cpu.pprof; \
	  echo; echo "== CPU, top 40 cumulative"; $(GO) tool pprof -top -cum -nodecount=40 $$out.test $$out.cpu.pprof; \
	  echo; echo "== allocated bytes, top 40"; $(GO) tool pprof -sample_index=alloc_space -top -nodecount=40 $$out.test $$out.mem.pprof; \
	} >> $$out.txt 2>/dev/null; \
	echo "wrote $$out.txt"
