#!/bin/sh
# smoke.sh — end-to-end exercise of the observability layer (DESIGN.md §7
# and §12), run by CI's smoke job and `make smoke`:
#
#   1. pfairsim traces the PD² quickstart set; pfairtrace validates the
#      Chrome trace-event JSON (obs.ParseChrome: field shapes, declared
#      and non-overlapping lanes, span twins, ring accounting), requires
#      the release/migration/join events the README promises, and must
#      reconstruct a non-empty accounting report from the artifact.
#      pfairsim -metrics alone must print the per-task accounting series.
#   2. pfairsim traces the pinned EPDF counterexample, whose schedule must
#      contain deadline-miss events; pfairtrace must name the missing
#      task and reconstruct the PD² tie-break analysis in the miss window.
#   3. pfairsim traces the same 8-task set under PD² with metrics on; the
#      trace must contain b-bit tie-break events, and the
#      pfair_tiebreak_bbit_total counter must equal the tiebreak-bbit
#      count on pfairtrace's events line. The same run without -metrics
#      must write a byte-identical trace: attaching metrics adds no event.
#   4. BenchmarkStepAllocsObserved and BenchmarkStepAllocsProfiled re-pin
#      the scheduler hot path at 0 allocs/op with a live recorder,
#      metrics, and sampling phase profiler attached.
#   5. pfairsim traces 100 synchronous tasks on 8 CPUs for two
#      hyperperiods, so each slot-120 burst releases every task and the
#      task ids span two words of the scheduler's release bitset;
#      pfairtrace must validate the trace, find its release and join
#      events, and report it complete.
#
# Usage: scripts/smoke.sh
set -eu

cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "# smoke 1/5: PD² quickstart trace + forensic report"
go run ./cmd/pfairsim -m 2 -alg pd2 -slots 24 \
	-trace "$tmp/pd2.trace.json" -metrics -taskstats -phaseprof 4 \
	A:2/3 B:2/3 C:2/3 > "$tmp/pd2.out"
grep -q '^pfair_migrations_total' "$tmp/pd2.out" || {
	echo "smoke: pfairsim -metrics printed no pfair_migrations_total" >&2
	exit 1
}
grep -q '^pfair_acct_dispatches_total' "$tmp/pd2.out" || {
	echo "smoke: pfairsim -taskstats -metrics printed no pfair_acct_dispatches_total" >&2
	exit 1
}
grep -q '^pfair_engine_phase_ns_count' "$tmp/pd2.out" || {
	echo "smoke: pfairsim -phaseprof -metrics printed no pfair_engine_phase_ns" >&2
	exit 1
}
go run ./cmd/pfairsim -m 2 -alg pd2 -slots 24 -metrics \
	A:2/3 B:2/3 C:2/3 > "$tmp/metrics.out"
grep -q '^pfair_acct_dispatches_total' "$tmp/metrics.out" || {
	echo "smoke: pfairsim -metrics printed no pfair_acct_dispatches_total" >&2
	exit 1
}
go run ./cmd/pfairtrace -require release,migration,join \
	"$tmp/pd2.trace.json" > "$tmp/pd2.report"
grep -q 'per-task accounting' "$tmp/pd2.report" || {
	echo "smoke: pfairtrace produced no accounting table" >&2
	exit 1
}
grep -q 'trace is complete' "$tmp/pd2.report" || {
	echo "smoke: pfairtrace did not confirm ring completeness" >&2
	exit 1
}
go run ./cmd/pfairtrace -json "$tmp/pd2.trace.json" > "$tmp/pd2.report.json"
grep -q '"tasks"' "$tmp/pd2.report.json" || {
	echo "smoke: pfairtrace -json report has no tasks array" >&2
	exit 1
}

echo "# smoke 2/5: EPDF counterexample traces misses; pfairtrace explains them"
go run ./cmd/pfairsim -m 5 -alg epdf -slots 180 \
	-trace "$tmp/epdf.trace.json" \
	T0:4/9 T1:3/6 T2:1/2 T3:8/9 T4:6/10 T5:3/6 T6:9/10 T7:2/3 > /dev/null
go run ./cmd/pfairtrace -k 3 -require release,deadline-miss \
	"$tmp/epdf.trace.json" > "$tmp/epdf.report"
grep -q 'DEADLINE MISS T7' "$tmp/epdf.report" || {
	echo "smoke: pfairtrace did not name T7 as the missing task" >&2
	exit 1
}
grep -q 'b-bit' "$tmp/epdf.report" || {
	echo "smoke: pfairtrace miss window has no b-bit tie reconstruction" >&2
	exit 1
}

echo "# smoke 3/5: PD² tie-break counters equal tie-break events"
go run ./cmd/pfairsim -m 5 -alg pd2 -slots 90 -metrics \
	-trace "$tmp/tie.trace.json" \
	T0:4/9 T1:3/6 T2:1/2 T3:8/9 T4:6/10 T5:3/6 T6:9/10 T7:2/3 > "$tmp/tie.out"
go run ./cmd/pfairtrace -require tiebreak-bbit "$tmp/tie.trace.json" > "$tmp/tie.report"
counter="$(awk '$1 == "pfair_tiebreak_bbit_total" { print $2 }' "$tmp/tie.out")"
events="$(awk '$1 == "events:" { for (i = 2; i <= NF; i++) if (sub(/^tiebreak-bbit:/, "", $i)) print $i }' "$tmp/tie.report")"
if [ -z "$counter" ] || [ -z "$events" ] || [ "$counter" != "$events" ]; then
	echo "smoke: pfair_tiebreak_bbit_total = ${counter:-missing}, pfairtrace counted ${events:-no} tiebreak-bbit events" >&2
	exit 1
fi
go run ./cmd/pfairsim -m 5 -alg pd2 -slots 90 \
	-trace "$tmp/tie.plain.trace.json" \
	T0:4/9 T1:3/6 T2:1/2 T3:8/9 T4:6/10 T5:3/6 T6:9/10 T7:2/3 > /dev/null
cmp -s "$tmp/tie.plain.trace.json" "$tmp/tie.trace.json" || {
	echo "smoke: pfairsim -trace wrote a different file once -metrics was added" >&2
	exit 1
}

echo "# smoke 4/5: observed and profiled hot paths stay at 0 allocs/op"
go test -run '^$' -bench 'BenchmarkStepAllocs(Observed|Profiled)$' -benchmem \
	-benchtime=0.2s -count=1 ./internal/core | tee "$tmp/bench.out"
awk '/^BenchmarkStepAllocs/ {
	for (i = 2; i <= NF; i++) if ($(i) == "allocs/op" && $(i-1) != "0") {
		print "smoke: " $1 " allocates (" $(i-1) " allocs/op)" > "/dev/stderr"
		exit 1
	}
	found++
}
END { if (found < 2) { print "smoke: expected both alloc benchmarks to run" > "/dev/stderr"; exit 1 } }
' "$tmp/bench.out"

echo "# smoke 5/5: a 100-task synchronous release burst traces complete"
set100="$(awk 'BEGIN { n = split("10 12 15 20 24 30 40 60 120", p, " ")
	for (i = 0; i < 100; i++) printf "T%d:1/%d ", i, p[i % n + 1] }')"
# $set100 is left unquoted: the shell splits it into one argument per task.
go run ./cmd/pfairsim -m 8 -alg pd2 -slots 240 \
	-trace "$tmp/burst.trace.json" $set100 > /dev/null
go run ./cmd/pfairtrace -require release,join \
	"$tmp/burst.trace.json" > "$tmp/burst.report"
grep -q 'trace is complete' "$tmp/burst.report" || {
	echo "smoke: pfairtrace did not confirm the burst trace complete" >&2
	exit 1
}

echo "smoke OK"
