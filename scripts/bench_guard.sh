#!/bin/sh
# bench_guard.sh — CI regression gate for the scheduler hot path: rerun
# the BENCH_core.json benchmark set with a fixed iteration count and fail
# if any benchmark's ns/op regressed more than 30% against the checked-in
# baseline, or if its allocs/op grew at all (the 0-alloc invariant is
# exact, not statistical).
#
# Fixed -benchtime=100000x iterations — rather than a wall-clock budget —
# keep the measured work identical run to run; -count=3 with the minimum
# taken per benchmark discards scheduler and cache warmup outliers. What
# variance remains is machine noise, which the generous threshold
# absorbs. The baseline is a committed artifact: regenerate it with
# scripts/bench.sh (clean tree) whenever a PR intentionally changes
# performance.
#
# Usage: scripts/bench_guard.sh
set -eu

cd "$(dirname "$0")/.."
base=BENCH_core.json
thresh=30

if [ ! -f "$base" ]; then
	echo "bench_guard.sh: baseline $base not found" >&2
	exit 1
fi

raw="$(mktemp -p . bench_guard.XXXXXX.txt)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench 'BenchmarkFig2aPD2|BenchmarkFig2bPD2|BenchmarkFig1Windows' \
	-benchmem -benchtime=100000x -count=3 . | tee "$raw"

awk -v thresh="$thresh" '
# Pass 1: the baseline JSON, one benchmark per line.
FNR == NR {
	if (match($0, /"name": "[^"]+"/)) {
		name = substr($0, RSTART + 9, RLENGTH - 10)
		ns = ""; al = ""
		if (match($0, /"ns_per_op": [0-9.eE+-]+/))    ns = substr($0, RSTART + 13, RLENGTH - 13)
		if (match($0, /"allocs_per_op": [0-9.eE+-]+/)) al = substr($0, RSTART + 17, RLENGTH - 17)
		if (ns != "") { base_ns[name] = ns + 0; base_al[name] = al + 0 }
	}
	next
}
# Pass 2: the fresh run; keep the best (minimum) ns/op of the -count
# repeats per benchmark, and the worst allocs/op (that invariant is
# exact).
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name) # strip the GOMAXPROCS suffix
	ns = ""; al = ""
	for (i = 2; i <= NF; i++) {
		if ($(i) == "ns/op")     ns = $(i - 1)
		if ($(i) == "allocs/op") al = $(i - 1)
	}
	if (ns == "" || !(name in base_ns)) next
	if (!(name in run_ns) || ns + 0 < run_ns[name]) run_ns[name] = ns + 0
	if (al != "" && (!(name in run_al) || al + 0 > run_al[name])) run_al[name] = al + 0
	if (!(name in seen)) { order[++nnames] = name; seen[name] = 1 }
}
END {
	for (k = 1; k <= nnames; k++) {
		name = order[k]
		checked++
		limit = base_ns[name] * (1 + thresh / 100)
		if (run_ns[name] > limit) {
			printf "REGRESSION %s: %.4g ns/op vs baseline %.4g (> +%s%%)\n", name, run_ns[name], base_ns[name], thresh
			bad++
		} else {
			printf "ok %s: %.4g ns/op vs baseline %.4g\n", name, run_ns[name], base_ns[name]
		}
		if ((name in run_al) && run_al[name] > base_al[name]) {
			printf "REGRESSION %s: %d allocs/op vs baseline %d\n", name, run_al[name], base_al[name]
			bad++
		}
	}
	if (checked == 0) { print "bench_guard: no benchmarks matched the baseline"; exit 1 }
	printf "bench_guard: %d benchmarks checked, %d regressions (threshold +%s%% ns/op)\n", checked, bad + 0, thresh
	if (bad > 0) exit 1
}
' "$base" "$raw"
