#!/bin/sh
# bench.sh — run the scheduler hot-path benchmarks and emit a
# machine-readable JSON baseline, BENCH_core.json, so CI (or a reviewer)
# can diff performance across commits.
#
# The file is an object: a "meta" block stamping the provenance of the
# numbers (git commit, Go version, GOMAXPROCS) followed by a "benchmarks"
# array with name, ns/op, and allocs/op per benchmark. Apart from the
# measured timings and the stamp itself the output is byte-stable: same
# benchmarks, same order, same formatting on every run.
#
# Every run also appends a dated entry to BENCH_core.trajectory.json, an
# append-only JSON array recording the repo's performance history commit
# by commit. Re-running on the SAME commit replaces that commit's last
# entry instead of appending a duplicate: regenerating a baseline while
# iterating on a PR used to leave N near-identical trajectory entries
# for one commit, which made the history lie about how often the tree
# changed.
#
# A dirty working tree is refused: numbers that cannot be attributed to a
# commit poison both the checked-in baseline and the trajectory. Set
# BENCH_ALLOW_DIRTY=1 to override for local experiments (the entry is
# still stamped dirty; dirty entries are never deduplicated, since they
# do not represent the commit they name).
#
# Usage: scripts/bench.sh
set -eu

cd "$(dirname "$0")/.."
out=BENCH_core.json
traj=BENCH_core.trajectory.json
raw="$(mktemp -p . bench.XXXXXX.txt)"
trap 'rm -f "$raw"' EXIT

commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
dirty=false
if ! git diff --quiet HEAD 2>/dev/null; then
	dirty=true
fi
if [ "$dirty" = true ]; then
	if [ "${BENCH_ALLOW_DIRTY:-}" = "1" ]; then
		echo "bench.sh: WARNING: working tree is dirty; numbers are not attributable to commit $commit" >&2
	else
		echo "bench.sh: refusing to benchmark a dirty working tree (commit stamps would lie)." >&2
		echo "bench.sh: commit or stash your changes, or set BENCH_ALLOW_DIRTY=1 to override." >&2
		exit 1
	fi
fi
goversion="$(go env GOVERSION)"
# GOMAXPROCS defaults to the online CPU count unless the env overrides it.
maxprocs="${GOMAXPROCS:-$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)}"

go test -run '^$' -bench 'BenchmarkFig2aPD2|BenchmarkFig2bPD2|BenchmarkFig1Windows' \
	-benchmem -benchtime=0.2s . | tee "$raw"

# benchjson is shared awk source: render one `BenchmarkX ...` line as a
# JSON object. Values stay the strings go printed so formatting survives.
benchjson='
	name = $1
	sub(/-[0-9]+$/, "", name) # strip the GOMAXPROCS suffix: names are machine-independent
	nsop = ""; allocs = "null"
	for (i = 2; i <= NF; i++) {
		if ($(i) == "ns/op")     nsop   = $(i - 1)
		if ($(i) == "allocs/op") allocs = $(i - 1)
	}
	if (nsop == "") next
	entry = sprintf("{\"name\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s}", name, nsop, allocs)
'

awk -v commit="$commit" -v dirty="$dirty" -v gover="$goversion" -v procs="$maxprocs" '
BEGIN {
	print "{"
	printf "  \"meta\": {\"commit\": \"%s\", \"dirty\": %s, \"go\": \"%s\", \"gomaxprocs\": %s},\n", commit, dirty, gover, procs
	print "  \"benchmarks\": ["
}
/^Benchmark/ {
'"$benchjson"'
	printf "%s    %s", (n++ ? ",\n" : ""), entry
}
END {
	print "\n  ]\n}"
}
' "$raw" > "$out"

echo "wrote $out"

# Append this run to the trajectory: one compact dated entry per run, the
# file as a whole a valid JSON array.
date="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
entry="$(awk -v date="$date" -v commit="$commit" -v dirty="$dirty" -v gover="$goversion" '
BEGIN {
	printf "{\"date\": \"%s\", \"commit\": \"%s\", \"dirty\": %s, \"go\": \"%s\", \"benchmarks\": [", date, commit, dirty, gover
}
/^Benchmark/ {
'"$benchjson"'
	printf "%s%s", (n++ ? ", " : ""), entry
}
END {
	printf "]}"
}
' "$raw")"

if [ -f "$traj" ]; then
	# Same-commit dedup: if the file's LAST entry is a clean run of this
	# commit, replace it rather than appending a near-duplicate. Only the
	# last entry is considered — an interleaved run on another commit
	# legitimately starts a new entry, preserving the ordering of events.
	last="$(sed '$d' "$traj" | tail -n 1)"
	case "$dirty,$last" in
	false,*"\"commit\": \"$commit\""*"\"dirty\": false"*)
		prev="$(sed '$d' "$traj" | sed '$d')" # drop closing bracket and the stale entry
		if [ "$prev" = "[" ]; then
			printf '[\n%s\n]\n' "$entry" > "$traj"
		else
			# prev still ends with the separator comma that preceded the
			# stale entry, so a plain join re-forms a valid array.
			printf '%s\n%s\n]\n' "$prev" "$entry" > "$traj"
		fi
		echo "replaced same-commit entry in $traj"
		;;
	*)
		prevall="$(sed '$d' "$traj")" # drop the closing bracket
		printf '%s,\n%s\n]\n' "$prevall" "$entry" > "$traj"
		echo "appended to $traj"
		;;
	esac
else
	printf '[\n%s\n]\n' "$entry" > "$traj"
	echo "appended to $traj"
fi
