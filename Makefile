GO ?= go

.PHONY: build vet lint test race perfbench-test bench bench-guard fuzz fuzz-short fuzz-native smoke taskstats engine-equiv dyn-equiv check

build:
	$(GO) build ./...

# vet also fails when any Go file in the tree is not gofmt-clean.
vet:
	$(GO) vet ./...
	@unformatted=$$($$($(GO) env GOROOT)/bin/gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists files that need formatting:"; echo "$$unformatted"; exit 1; fi

# lint runs pfairlint, the repo's own invariant analyzers (exact
# arithmetic, determinism, zero-alloc hot path and its call-graph
# closure, float taint flow, no library panics, checked fallible
# results, reach: no code only tests call, annotation staleness). See
# DESIGN.md for the invariants and
# the //pfair: annotation grammar. Set LINT_ONLY=name[,name...] to run
# a subset of analyzers: `make lint LINT_ONLY=hotclosure,staleannot`.
LINT_ONLY ?=
lint:
	$(GO) run ./cmd/pfairlint $(if $(LINT_ONLY),-only $(LINT_ONLY)) ./...

test:
	$(GO) test ./...

# race turns off the race runtime's 1 s sleep at exit
# (atexit_sleep_ms), which each test binary otherwise pays. The sleep
# lets goroutines that outlive main report a race; the tree starts
# goroutines only in parallel.For, which joins them before it returns,
# and in pfairsim's -pprof server, which no test starts.
race:
	GORACE=atexit_sleep_ms=0 $(GO) test -race ./...

# perfbench-test vets and tests the benchmark under perfbench/. It is a
# module of its own (go.mod replaces pfair with this tree), so neither
# `go build ./...` nor `go test ./...` at the root reaches it; without
# this target a change to an internal API it calls surfaces only when
# the benchmark runs.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# bench runs the scheduler hot-path benchmarks and writes BENCH_core.json
# (name, ns/op, allocs/op per benchmark) for machine consumption, and
# appends a dated entry to BENCH_core.trajectory.json. Refuses a dirty
# tree (BENCH_ALLOW_DIRTY=1 overrides). It rewrites tracked files, so it
# is a standalone target, not part of check.
bench:
	sh scripts/bench.sh

# bench-guard reruns the BENCH_core.json set with fixed iteration counts
# and fails on a >30% ns/op regression — or any allocs/op growth —
# against the checked-in baseline.
bench-guard:
	sh scripts/bench_guard.sh

# fuzz runs the differential scheduling oracle: 150 task systems per kind
# (1200 total) across every scheduler pairing, with shrunken reproducers
# and replay keys on failure. See EXPERIMENTS.md for replaying seeds.
fuzz:
	$(GO) run ./cmd/fuzz -n 150 -seed 1

# fuzz-short is the quick campaign the check target includes.
fuzz-short:
	$(GO) run ./cmd/fuzz -n 25 -seed 1

# fuzz-native runs each native Go fuzz target for a fixed 10 s (go test
# takes one -fuzz target per run). Inputs that grow coverage stay in the
# Go build cache; a failing input is written to the package's
# testdata/fuzz directory and fails the target. It is not part of check,
# whose run time ROADMAP aim 1 counts.
fuzz-native:
	$(GO) test ./internal/taskgen -run '^$$' -fuzz '^FuzzUUniFast$$' -fuzztime 10s
	$(GO) test ./internal/taskgen -run '^$$' -fuzz '^FuzzSourceMatchesMathRand$$' -fuzztime 10s
	$(GO) test ./internal/taskgen -run '^$$' -fuzz '^FuzzRootMatchesPow$$' -fuzztime 10s
	$(GO) test ./internal/taskgen -run '^$$' -fuzz '^FuzzSkipFloat64$$' -fuzztime 10s
	$(GO) test ./internal/rational -run '^$$' -fuzz '^FuzzRatArithmetic$$' -fuzztime 10s
	$(GO) test ./internal/rational -run '^$$' -fuzz '^FuzzAccMatchesBig$$' -fuzztime 10s
	$(GO) test ./internal/overhead -run '^$$' -fuzz '^FuzzMinProcsMatchesReference$$' -fuzztime 10s
	$(GO) test ./internal/overhead -run '^$$' -fuzz '^FuzzEDFFFSpillMatchesReference$$' -fuzztime 10s
	$(GO) test ./internal/obs -run '^$$' -fuzz '^FuzzParseChrome$$' -fuzztime 10s
	$(GO) test ./internal/fuzz -run '^$$' -fuzz '^FuzzDifferential$$' -fuzztime 10s
	$(GO) test ./internal/fuzz -run '^$$' -fuzz '^FuzzParseReplay$$' -fuzztime 10s
	$(GO) test ./cmd/pfairtrace -run '^$$' -fuzz '^FuzzBuildReport$$' -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzPatternWindow$$' -fuzztime 10s
	$(GO) test ./cmd/pfairsim -run '^$$' -fuzz '^FuzzParseTask$$' -fuzztime 10s

# smoke exercises the observability layer end to end: pfairsim -trace on
# the quickstart and EPDF-counterexample sets, each validated (with
# -require'd event kinds) and explained by pfairtrace, PD² tie-break
# counters checked against pfairtrace's tie-break event count, plus the
# observed and profiled hot-path allocation benchmarks. See DESIGN.md §7
# and §12.
smoke:
	sh scripts/smoke.sh

# taskstats runs the quickstart set with the per-task accounting table
# and the sampled engine phase profile — the flight-recorder view of a
# run (DESIGN.md §12).
taskstats:
	$(GO) run ./cmd/pfairsim -m 2 -alg pd2 -slots 240 -taskstats -phaseprof 4 A:2/3 B:2/3 C:2/3

# engine-equiv runs the golden equivalence suite: every simulator policy
# on the shared slot engine must reproduce, byte for byte, the schedules
# and figures the pre-engine loops produced (internal/engine/testdata).
# Regenerate goldens after an intentional behaviour change with
#   go test ./internal/engine -run TestGolden -update
engine-equiv:
	$(GO) test ./internal/engine -run 'TestGolden' -count=1

# dyn-equiv runs the admission equivalence suite for the doors that
# admit without Submit's check: EDF's Add, RM's Add (the two priority
# rules of edf.Simulator) and the WRR constructor task set must each
# give the same schedule and stats as Submit on a feasible set
# (DESIGN.md §13).
dyn-equiv:
	$(GO) test ./internal/engine -run 'TestDynEquiv' -count=1

check: build vet lint test race perfbench-test fuzz-short smoke engine-equiv dyn-equiv bench-guard
